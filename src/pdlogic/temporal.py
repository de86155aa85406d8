"""Temporal descriptor formulas over utterance time.

True/False are included even though a descriptor author never writes them:
formula progression needs explicit verdict constants to simplify into.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import notation
from .atoms import PronounAtom


class TemporalFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(TemporalFormula):
    """The current utterance must use this pronoun class."""

    atom: PronounAtom


@dataclass(frozen=True)
class TrueF(TemporalFormula):
    pass


@dataclass(frozen=True)
class FalseF(TemporalFormula):
    pass


@dataclass(frozen=True)
class Not(TemporalFormula):
    operand: TemporalFormula


@dataclass(frozen=True)
class And(TemporalFormula):
    left: TemporalFormula
    right: TemporalFormula


@dataclass(frozen=True)
class Or(TemporalFormula):
    left: TemporalFormula
    right: TemporalFormula


@dataclass(frozen=True)
class Implies(TemporalFormula):
    left: TemporalFormula
    right: TemporalFormula


@dataclass(frozen=True)
class Box(TemporalFormula):
    """Must be respected at all times from now on."""

    operand: TemporalFormula


@dataclass(frozen=True)
class Diamond(TemporalFormula):
    """Must be respected at some current or future time."""

    operand: TemporalFormula


@dataclass(frozen=True)
class Next(TemporalFormula):
    """The next utterance must respect the operand (strong: false at trace end)."""

    operand: TemporalFormula


@dataclass(frozen=True)
class BoxK(TemporalFormula):
    """Respected for all of the next k utterances."""

    k: int
    operand: TemporalFormula

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bounded modality requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class DiamondK(TemporalFormula):
    """Respected somewhere within the next k utterances."""

    k: int
    operand: TemporalFormula

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bounded modality requires k >= 1, got {self.k}")


TRUE = TrueF()
FALSE = FalseF()


def children(formula: TemporalFormula) -> tuple[TemporalFormula, ...]:
    match formula:
        case Atom() | TrueF() | FalseF():
            return ()
        case Not(f) | Box(f) | Diamond(f) | Next(f) | BoxK(_, f) | DiamondK(_, f):
            return (f,)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return (l, r)
    raise TypeError(f"not a temporal formula: {formula!r}")


def size(formula: TemporalFormula) -> int:
    return 1 + sum(size(c) for c in children(formula))


def atoms(formula: TemporalFormula) -> frozenset[PronounAtom]:
    if isinstance(formula, Atom):
        return frozenset((formula.atom,))
    if not children(formula):
        return frozenset()
    return frozenset().union(*(atoms(c) for c in children(formula)))


# Binding strength: unary operators tightest, then /\, then \/, then ->
# (right-associative, weakest).
INFIX = {Implies: ("->", 1), Or: ("\\/", 2), And: ("/\\", 3)}
PREFIX = {Not: "!", Box: "[]", Diamond: "<>", Next: "()", BoxK: "[]<=", DiamondK: "<><="}
_UNARY_PREC = 4


def _prec(formula: TemporalFormula) -> int:
    return INFIX[type(formula)][1] if type(formula) in INFIX else _UNARY_PREC


def render(formula: TemporalFormula) -> str:
    """Canonical ASCII syntax; round-trips through parse_temporal."""
    match formula:
        case Atom(a):
            return a.key
        case TrueF():
            return "true"
        case FalseF():
            return "false"
        case And(l, r) | Or(l, r) | Implies(l, r):
            return notation.infix(INFIX[type(formula)], l, r, render, _prec)
    (operand,) = children(formula)
    # "!" hugs its operand; the modalities, with their bound, stand apart.
    head = PREFIX[type(formula)] + str(getattr(formula, "k", ""))
    if not isinstance(formula, Not):
        head += " "
    return head + notation.operand(operand, _UNARY_PREC, render, _prec)
