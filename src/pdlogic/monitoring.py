"""Finite-trace semantics and online monitoring for temporal descriptors.

End-of-trace conventions, stated once because they decide every boundary case:
Next is strong (false at the last position), Box is vacuously true past the
end, Diamond is false past the end. Bounded box expands through weak next
(running out of trace is not a violation of "the next k utterances"), while
bounded diamond expands through strong next (silence satisfies no existential
demand).

``evaluate`` is the direct recursive semantics over a whole trace. The online
monitor decides each utterance from one ``progress`` walk, which yields both
the residual obligation and whether the formula holds if the stream ends there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .atoms import PronounAtom, atom
from .prover import ResourceLimit
from .temporal import (
    FALSE,
    TRUE,
    And,
    Atom,
    Box,
    BoxK,
    Diamond,
    DiamondK,
    FalseF,
    Implies,
    Next,
    Not,
    Or,
    TemporalFormula,
    TrueF,
    children,
)

SATISFIED = "Satisfied"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"

# Largest expansion, in tree nodes, that expand_bounded builds; past it, it
# raises ResourceLimit instead of running out of memory. At the limit,
# []<=199999 she/her takes about 70 MB and half a second.
MAX_EXPANSION = 10**6


@dataclass(frozen=True)
class Utterance:
    """One time step: the set of pronoun atoms used, plus where it came from."""

    atoms: frozenset[PronounAtom]
    source_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class Trace:
    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)


EMPTY_TRACE = Trace(())


@dataclass(frozen=True)
class Verdict:
    """Monitoring outcome; monotone once Satisfied or Violated."""

    status: str
    witness_position: int | None = None

    @property
    def conclusive(self) -> bool:
        return self.status != INCONCLUSIVE

    def __str__(self) -> str:
        return self.status


def evaluate(formula: TemporalFormula, trace: Trace, position: int) -> bool:
    """Direct recursive finite-trace semantics.

    ``position == len(trace)`` is the empty suffix, where Box is vacuously
    true and Atom/Next/Diamond are false.
    """
    end = len(trace)
    if not 0 <= position <= end:
        raise IndexError(f"position {position} outside [0, {end}]")
    match formula:
        case Atom(a):
            return position < end and a in trace.utterances[position].atoms
        case TrueF():
            return True
        case FalseF():
            return False
        case Not(f):
            return not evaluate(f, trace, position)
        case And(l, r):
            return evaluate(l, trace, position) and evaluate(r, trace, position)
        case Or(l, r):
            return evaluate(l, trace, position) or evaluate(r, trace, position)
        case Implies(l, r):
            return (not evaluate(l, trace, position)) or evaluate(r, trace, position)
        case Next(f):
            return position + 1 <= end - 1 and evaluate(f, trace, position + 1)
        case Box(f):
            return all(evaluate(f, trace, j) for j in range(position, end))
        case Diamond(f):
            return any(evaluate(f, trace, j) for j in range(position, end))
        case BoxK(k, f):
            if position == end:
                # empty window: agrees with the weak-next expansion chain,
                # which collapses to the body at the empty suffix
                return evaluate(f, trace, end)
            stop = min(position + k - 1, end - 1)
            return all(evaluate(f, trace, j) for j in range(position, stop + 1))
        case DiamondK(k, f):
            if position == end:
                return evaluate(f, trace, end)
            stop = min(position + k - 1, end - 1)
            return any(evaluate(f, trace, j) for j in range(position, stop + 1))
    raise TypeError(f"not a temporal formula: {formula!r}")


def expanded_size(formula: TemporalFormula) -> int:
    """Node count of ``expand_bounded(formula)`` as a tree, without building it."""
    below = sum(expanded_size(c) for c in children(formula))
    match formula:
        case BoxK(k, _):
            return k * below + 4 * (k - 1)  # k bodies joined by And, Not, Next, Not
        case DiamondK(k, _):
            return k * below + 2 * (k - 1)  # k bodies joined by Or, Next
    return 1 + below


def expand_bounded(formula: TemporalFormula) -> TemporalFormula:
    """Eliminate bounded modalities; the result evaluates identically.

    BoxK(k, f) becomes f weak-nexted out k-1 steps; DiamondK(k, f) becomes f
    strong-nexted out k-1 steps. Raises ResourceLimit when the result would
    have more than MAX_EXPANSION nodes.
    """
    if expanded_size(formula) > MAX_EXPANSION:
        raise ResourceLimit(f"bounded modalities expand past {MAX_EXPANSION} nodes")
    return _expand(formula)


def _expand(formula: TemporalFormula) -> TemporalFormula:
    match formula:
        case Atom() | TrueF() | FalseF():
            return formula
        case Not(f):
            return Not(_expand(f))
        case And(l, r):
            return And(_expand(l), _expand(r))
        case Or(l, r):
            return Or(_expand(l), _expand(r))
        case Implies(l, r):
            return Implies(_expand(l), _expand(r))
        case Next(f):
            return Next(_expand(f))
        case Box(f):
            return Box(_expand(f))
        case Diamond(f):
            return Diamond(_expand(f))
        case BoxK(k, f):
            body = _expand(f)
            result = body
            for _ in range(k - 1):
                # weak next: not (next (not ...))
                result = And(body, Not(Next(Not(result))))
            return result
        case DiamondK(k, f):
            body = _expand(f)
            result = body
            for _ in range(k - 1):
                result = Or(body, Next(result))
            return result
    raise TypeError(f"not a temporal formula: {formula!r}")


def simplify(formula: TemporalFormula) -> TemporalFormula:
    """One level of True/False absorption, and/or idempotence on structurally
    equal operands (also against the head of a right-nested chain, so that
    ``[] <> f`` does not gain one copy of ``<> f`` per step), and
    double-negation elimination. Children are assumed already simplified."""
    match formula:
        case Not(TrueF()):
            return FALSE
        case Not(FalseF()):
            return TRUE
        case Not(Not(f)):
            return f
        case And(FalseF(), _) | And(_, FalseF()):
            return FALSE
        case And(TrueF(), f) | And(f, TrueF()):
            return f
        case And(l, r) if l == r:
            return l
        case And(l, And(m, _)) if l == m:
            return formula.right
        case Or(TrueF(), _) | Or(_, TrueF()):
            return TRUE
        case Or(FalseF(), f) | Or(f, FalseF()):
            return f
        case Or(l, r) if l == r:
            return l
        case Or(l, Or(m, _)) if l == m:
            return formula.right
        case Implies(FalseF(), _) | Implies(_, TrueF()):
            return TRUE
        case Implies(TrueF(), f):
            return f
        case Implies(f, FalseF()):
            return simplify(Not(f))
        case _:
            return formula


def progress(
    formula: TemporalFormula, utterance: Utterance
) -> tuple[TemporalFormula, bool]:
    """One step in one walk: ``(residual, holds_if_ended)``.

    ``residual`` is the obligation left for the utterances after this one;
    ``holds_if_ended`` equals ``evaluate(formula, Trace((utterance,)), 0)``.
    The residual cannot give that answer, because after progression a
    weak-next obligation looks like a strong one.

    Requires bounded modalities to have been expanded away first.
    """
    match formula:
        case Atom(a):
            return (TRUE, True) if a in utterance.atoms else (FALSE, False)
        case TrueF():
            return formula, True
        case FalseF():
            return formula, False
        case Not(f):
            residual, holds = progress(f, utterance)
            return simplify(Not(residual)), not holds
        case And(l, r):
            left, left_holds = progress(l, utterance)
            right, right_holds = progress(r, utterance)
            return simplify(And(left, right)), left_holds and right_holds
        case Or(l, r):
            left, left_holds = progress(l, utterance)
            right, right_holds = progress(r, utterance)
            return simplify(Or(left, right)), left_holds or right_holds
        case Implies(l, r):
            left, left_holds = progress(l, utterance)
            right, right_holds = progress(r, utterance)
            return simplify(Implies(left, right)), not left_holds or right_holds
        case Next(f):
            return f, False
        case Box(f):
            residual, holds = progress(f, utterance)
            return simplify(And(residual, formula)), holds
        case Diamond(f):
            residual, holds = progress(f, utterance)
            return simplify(Or(residual, formula)), holds
        case BoxK() | DiamondK():
            raise ValueError("progress requires expand_bounded to run first")
    raise TypeError(f"not a temporal formula: {formula!r}")


class MonitorSession:
    """Online monitor over one utterance stream.

    Progression-based: it may stay Inconclusive in states a semantically
    omniscient monitor would already decide, but it never flips a conclusive
    verdict. Bounded modalities are expanded once, when the session starts.
    Each ``feed`` is one ``progress`` walk of the residual, which yields the
    next residual and whether the formula holds if the stream ends here; a
    conclusive verdict is emitted only when the residual is a constant and
    that ends-now answer agrees with it.
    """

    def __init__(self, formula: TemporalFormula):
        self.residual = expand_bounded(formula)
        self.position = 0
        self.verdict = Verdict(INCONCLUSIVE)
        self._holds_if_ended = evaluate(self.residual, EMPTY_TRACE, 0)

    def feed(self, utterance: Utterance) -> Verdict:
        if self.verdict.conclusive:
            self.position += 1
            return self.verdict
        self.residual, self._holds_if_ended = progress(self.residual, utterance)
        if isinstance(self.residual, TrueF) and self._holds_if_ended:
            self.verdict = Verdict(SATISFIED, self.position)
        elif isinstance(self.residual, FalseF) and not self._holds_if_ended:
            self.verdict = Verdict(VIOLATED, self.position)
        self.position += 1
        return self.verdict

    def finish(self) -> Verdict:
        """Force a verdict for end-of-stream."""
        if self.verdict.conclusive:
            return self.verdict
        status = SATISFIED if self._holds_if_ended else VIOLATED
        self.verdict = Verdict(status)
        return self.verdict


def monitor(formula: TemporalFormula, utterances: Iterable[Utterance]) -> list[Verdict]:
    """Verdict after each utterance; if the stream ends inconclusive, a final
    forced verdict is appended."""
    session = MonitorSession(formula)
    verdicts = [session.feed(u) for u in utterances]
    if not verdicts or not verdicts[-1].conclusive:
        verdicts.append(session.finish())
    return verdicts


def final_verdict(formula: TemporalFormula, trace: Trace) -> Verdict:
    """The monitor's conclusive verdict over a whole trace."""
    return monitor(formula, trace.utterances)[-1]


def parse_trace(text: str) -> Trace:
    """Trace file format: one utterance per line of whitespace-separated atom
    tokens, ``-`` for an utterance with no atoms, ``#`` comment lines, blank
    lines ignored."""
    utterances = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "-":
            utterances.append(Utterance(frozenset()))
            continue
        try:
            utterances.append(Utterance(frozenset(atom(t) for t in line.split())))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return Trace(tuple(utterances))
