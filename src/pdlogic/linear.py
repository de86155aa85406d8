"""Descriptor formulas over the choice/product/implication connectives.

Formulas are immutable trees of ``Node``s (see ``node``): each class lists its
fields as its ``__slots__``, and nodes compare and hash by structure.
Syntactic operand order is preserved and never normalized: Tensor(A, B) and
Tensor(B, A) are distinct syntax even though the prover treats them as
interderivable, because left-to-right order in a published descriptor can
carry meaning of its own.
"""

from __future__ import annotations

from . import notation
from .node import Node


class LinearFormula(Node):
    """Base class; concrete nodes are Atom, With, Plus, Tensor, Lolli."""

    __slots__ = ()


class Atom(LinearFormula):
    __slots__ = ("atom",)  # a PronounAtom


class With(LinearFormula):
    """External choice: the speaker picks which operand to respect."""

    __slots__ = ("left", "right")


class Plus(LinearFormula):
    """Internal choice: the referent picks; the speaker handles either."""

    __slots__ = ("left", "right")


class Tensor(LinearFormula):
    """Both operands must be used."""

    __slots__ = ("left", "right")


class Lolli(LinearFormula):
    """Linear implication, read as correcting the antecedent to the consequent."""

    __slots__ = ("antecedent", "consequent")


class Sequent(Node):
    """Judgment Γ ⊢ A over a linear context: multiplicity matters, order is as written."""

    __slots__ = ("context", "goal")  # a tuple of LinearFormulas, a LinearFormula

    def __str__(self) -> str:
        return render_sequent(self)


def children(formula: LinearFormula) -> tuple[LinearFormula, ...]:
    match formula:
        case Atom():
            return ()
        case With(l, r) | Plus(l, r) | Tensor(l, r) | Lolli(l, r):
            return (l, r)
    raise TypeError(f"not a linear formula: {formula!r}")


# Binding strength, weakest first: * , & , (+) , -o.  All right-associative,
# so "a/b & c/d (+) e/f" is With(a/b, Plus(c/d, e/f)) and a Tensor child of a
# With must be parenthesized.
INFIX = {Tensor: ("*", 1), With: ("&", 2), Plus: ("(+)", 3), Lolli: ("-o", 4)}
_SYNTAX = (INFIX, {}, {}, {Atom: lambda f: f.atom.key}, "linear formula", None)


def render(formula: LinearFormula, memo: dict | None = None) -> str:
    """Canonical ASCII syntax with minimal parentheses; round-trips through parse_linear.

    With ``memo``, each formula object is rendered once: its text is stored
    under ``id(formula)`` and read back when the object comes again, as a
    shared part or in another formula. The caller keeps every formula it
    renders alive for as long as it keeps the memo, so no id is reused.
    """
    return notation.render(formula, _SYNTAX, memo)


def render_sequent(sequent: Sequent, memo: dict | None = None) -> str:
    """``Γ |- A`` with each formula as ``render(formula, memo)`` gives it."""
    ctx = ", ".join([notation.render(f, _SYNTAX, memo) for f in sequent.context])
    goal = notation.render(sequent.goal, _SYNTAX, memo)
    return f"{ctx} |- {goal}" if ctx else f"|- {goal}"
