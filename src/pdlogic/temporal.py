"""Temporal descriptor formulas over utterance time.

Formulas are immutable trees of ``Node``s (see ``node``): each class lists its
fields as its ``__slots__``, and nodes compare and hash by structure.
True/False are included even though a descriptor author never writes them:
formula progression needs explicit verdict constants to simplify into.
"""

from __future__ import annotations

from . import notation
from .atoms import PronounAtom
from .node import Node, fold


class TemporalFormula(Node):
    __slots__ = ()


class Atom(TemporalFormula):
    """The current utterance must use this pronoun class."""

    __slots__ = ("atom",)  # a PronounAtom


class TrueF(TemporalFormula):
    __slots__ = ()


class FalseF(TemporalFormula):
    __slots__ = ()


class Not(TemporalFormula):
    __slots__ = ("operand",)


class And(TemporalFormula):
    __slots__ = ("left", "right")


class Or(TemporalFormula):
    __slots__ = ("left", "right")


class Implies(TemporalFormula):
    __slots__ = ("left", "right")


class Box(TemporalFormula):
    """Must be respected at all times from now on."""

    __slots__ = ("operand",)


class Diamond(TemporalFormula):
    """Must be respected at some current or future time."""

    __slots__ = ("operand",)


class Next(TemporalFormula):
    """The next utterance must respect the operand (strong: false at trace end)."""

    __slots__ = ("operand",)


class _Bounded(TemporalFormula):
    """A modality over the next k utterances, for an int k >= 1."""

    __slots__ = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bounded modality requires k >= 1, got {self.k}")


class BoxK(_Bounded):
    """Respected for all of the next k utterances."""

    __slots__ = ("k", "operand")


class DiamondK(_Bounded):
    """Respected somewhere within the next k utterances."""

    __slots__ = ("k", "operand")


TRUE = TrueF()
FALSE = FalseF()


def children(formula: TemporalFormula) -> tuple[TemporalFormula, ...]:
    cls = type(formula)
    if cls is And or cls is Or or cls is Implies:
        return formula.left, formula.right
    if cls in PREFIX:  # the unary operators
        return (formula.operand,)
    if cls is Atom or cls is TrueF or cls is FalseF:
        return ()
    raise TypeError(f"not a temporal formula: {formula!r}")


def atoms(formula: TemporalFormula) -> frozenset[PronounAtom]:
    """The pronoun atoms that ``formula`` names, at any depth."""
    return fold(formula, _atoms, children)


def _atoms(node: TemporalFormula, below: list) -> frozenset[PronounAtom]:
    return frozenset((node.atom,)) if type(node) is Atom else frozenset().union(*below)


# Binding strength: unary operators tightest, then /\, then \/, then ->
# (right-associative, weakest).
INFIX = {Implies: ("->", 1), Or: ("\\/", 2), And: ("/\\", 3)}
PREFIX = {Not: "!", Box: "[]", Diamond: "<>", Next: "()", BoxK: "[]<=", DiamondK: "<><="}
_SYNTAX = (INFIX, PREFIX, {}, {Atom: lambda f: f.atom.key, TrueF: lambda f: "true",
                               FalseF: lambda f: "false"}, "temporal formula", None)


def render(formula: TemporalFormula) -> str:
    """Canonical ASCII syntax; round-trips through parse_temporal."""
    return notation.render(formula, _SYNTAX)
