"""Finite-trace semantics and online monitoring for temporal descriptors.

End-of-trace conventions, stated once because they decide every boundary case:
Next is strong (false at the last position), Box is vacuously true past the
end, Diamond is false past the end. Bounded box steps through weak next
(running out of trace is not a violation of "the next k utterances"), while
bounded diamond steps through strong next (silence satisfies no existential
demand); expansion and progression take the same steps.

``evaluate`` decides a whole trace in one bottom-up labelling pass over bit
vectors (the dynamic-programming monitor of Havelund & Rosu, "Synthesizing
Monitors for Safety Properties", TACAS 2002): linear in the trace length, with
O(log k) shifts per bounded modality. The direct recursive semantics it is
checked against lives in the tests, as ``oracles.direct_evaluate``. The online
monitor decides each utterance from one ``progress`` walk, which yields both
the residual obligation and whether the formula holds if the stream ends there.
Residuals are states of one transition table per process, shared by every
``MonitorSession``: the walk builds each node through the table, so equal
residuals are one object, and walks are memoized per (state, atom set).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from operator import is_not

from .atoms import PronounAtom, atom
from .node import Node
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


class Utterance(Node, defaults={"source_span": None}):
    """One time step: the set of pronoun atoms used, plus where it came from."""

    __slots__ = ("atoms", "source_span")  # a frozenset of PronounAtoms, a (start, end) or None


class Trace(Node):
    __slots__ = ("utterances",)  # a tuple of Utterances

    def __len__(self) -> int:
        return len(self.utterances)


EMPTY_TRACE = Trace(())


class Verdict(Node, defaults={"witness_position": None}):
    """Monitoring outcome; monotone once Satisfied or Violated."""

    __slots__ = ("status", "witness_position")  # a str, an int or None

    @property
    def conclusive(self) -> bool:
        return self.status != INCONCLUSIVE

    def __str__(self) -> str:
        return self.status


_UNARY = frozenset((Not, Next, Box, Diamond, BoxK, DiamondK))


def evaluate(formula: TemporalFormula, trace: Trace, position: int) -> bool:
    """Whether ``formula`` holds on the suffix of ``trace`` from ``position``.

    ``position == len(trace)`` is the empty suffix, where Box is vacuously
    true and Atom/Next/Diamond are false.

    One bottom-up labelling pass with an explicit stack, so expansions tens
    of thousands of nodes deep need no recursion. Only the suffix of n
    utterances from ``position`` is read. A label is an int whose bit i says
    that the subformula holds from suffix position i, and bit n stands for
    the empty suffix. Connectives are masks, Next is a shift, Box and Diamond
    read the highest zero or one of their operand, and a bounded modality is
    a window AND or OR built from O(log k) doubling shifts. A decided left
    operand of And, Or or Implies skips the right one.

    A Next at ()-depth d (the number of Nexts above it) is read only at
    positions from d on. At d >= n - 1 it is false wherever it is read, so
    it is labelled false without visiting its operand. That label, and so
    every label above it, is right only from its ()-depth on, so labels are
    kept per ()-depth: ``labels[d]`` maps a node's identity to its label at
    ()-depth d, and only parents at depth d read it. A node object is thus
    labelled once for each ()-depth it is reached at, which is more than one
    only for a node shared under different numbers of Nexts, such as the
    bodies that ``expand_bounded`` shares.
    """
    end = len(trace)
    if not 0 <= position <= end:
        raise IndexError(f"position {position} outside [0, {end}]")
    # Every operator reads its operands at or after its own position.
    utterances = trace.utterances[position:] if position else trace.utterances
    n = end - position
    full = (1 << (n + 1)) - 1
    below = full >> 1  # the utterances, without the empty suffix
    top = full ^ below  # the empty suffix alone
    horizon = n - 1  # a Next this deep or deeper is false wherever it is read
    atom_labels: dict[PronounAtom, int] = {}
    labels: defaultdict[int, dict[int, int]] = defaultdict(dict)  # depth -> id -> label
    stack = [(formula, 0)]  # (node, ()-depth)
    while stack:
        node, depth = stack[-1]
        cls = type(node)
        if cls is Next and depth >= horizon:
            label = 0
        elif cls in _UNARY:
            child_depth = depth + 1 if cls is Next else depth
            operand = labels[child_depth].get(id(node.operand))
            if operand is None:
                stack.append((node.operand, child_depth))
                continue
            if cls is Not:
                label = full ^ operand
            elif cls is Next:
                label = (operand >> 1) & (below >> 1)
            elif cls is Box:
                label = full ^ ((1 << (below & ~operand).bit_length()) - 1)
            elif cls is Diamond:
                label = (1 << (below & operand).bit_length()) - 1
            else:
                # k >= n covers every later utterance; past the end, Box
                # pads with ones and Diamond with zeros
                width = min(node.k, n)
                if cls is BoxK:
                    window = _window(operand | ((1 << width) - 1) << n, width, True)
                else:
                    window = _window(operand & below, width, False)
                label = (window & below) | (operand & top)
        elif cls is And or cls is Or or cls is Implies:
            known = labels[depth]
            left = known.get(id(node.left))
            if left is None:
                stack.append((node.left, depth))
                continue
            if left == (full if cls is Or else 0):
                label = 0 if cls is And else full
            else:
                right = known.get(id(node.right))
                if right is None:
                    stack.append((node.right, depth))
                    continue
                if cls is And:
                    label = left & right
                elif cls is Or:
                    label = left | right
                else:
                    label = (full ^ left) | right
        elif cls is Atom:
            label = _atom_label(node.atom, utterances, atom_labels)
        elif cls is TrueF:
            label = full
        elif cls is FalseF:
            label = 0
        else:
            raise TypeError(f"not a temporal formula: {node!r}")
        stack.pop()
        labels[depth][id(node)] = label
    return bool(label & 1)


def _atom_label(
    a: PronounAtom, utterances: tuple[Utterance, ...], cache: dict[PronounAtom, int]
) -> int:
    """Bit i set where utterance i uses ``a``; the empty suffix's bit is clear.
    Built once per atom and call, and kept in ``cache``."""
    label = cache.get(a)
    if label is None:
        bits = "".join(["1" if a in u.atoms else "0" for u in reversed(utterances)])
        label = cache[a] = int(bits, 2) if bits else 0
    return label


def _window(bits: int, k: int, conj: bool) -> int:
    """Bit i of the result is the AND (``conj``) or the OR of bits i..i+k-1.

    ``span`` covers windows ``width`` bits wide, doubling each round; the
    set bits of k pick the spans that ``acc`` chains, ``covered`` bits so far.
    """
    acc = -1 if conj else 0
    covered, span, width = 0, bits, 1
    while k:
        if k & 1:
            acc = acc & (span >> covered) if conj else acc | (span >> covered)
            covered += width
        k >>= 1
        if k:
            span = span & (span >> width) if conj else span | (span >> width)
            width <<= 1
    return acc


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
        case Not(f) | Next(f) | Box(f) | Diamond(f):
            return type(formula)(_expand(f))
        case And(l, r) | Or(l, r) | Implies(l, r):
            return type(formula)(_expand(l), _expand(r))
        case BoxK(k, f) | DiamondK(k, f):
            body = result = _expand(f)
            if type(formula) is BoxK:
                for _ in range(k - 1):
                    # weak next: not (next (not ...))
                    result = And(body, Not(Next(Not(result))))
            else:
                for _ in range(k - 1):
                    result = Or(body, Next(result))
            return result
    raise TypeError(f"not a temporal formula: {formula!r}")


def simplify(formula: TemporalFormula) -> TemporalFormula:
    """One level of True/False absorption, and/or idempotence on equal
    operands (also against the head of a right-nested chain, so that
    ``[] <> f`` does not gain one copy of ``<> f`` per step), and
    double-negation elimination. The children are states, so ``is`` finds
    equal ones."""
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
        case And(l, r) if l is r:
            return l
        case And(l, And(m, _)) if l is m:
            return formula.right
        case Or(TrueF(), _) | Or(_, TrueF()):
            return TRUE
        case Or(FalseF(), f) | Or(f, FalseF()):
            return f
        case Or(l, r) if l is r:
            return l
        case Or(l, Or(m, _)) if l is m:
            return formula.right
        case Implies(FalseF(), _) | Implies(_, TrueF()):
            return TRUE
        case Implies(TrueF(), f):
            return f
        case Implies(f, FalseF()):
            return simplify(Not(f))
        case _:
            return formula


def _unbound(formula: TemporalFormula) -> TemporalFormula:
    """``formula`` without the ``[]<=1``/``<><=1`` around it, which expand to
    their operand: a residual that is a constant must show as one."""
    while type(formula) in (BoxK, DiamondK) and formula.k == 1:
        formula = formula.operand
    return formula


def progress(formula: TemporalFormula, utterance: Utterance) -> tuple[TemporalFormula, bool]:
    """One step in one walk: ``(residual, holds_if_ended)``.

    ``residual`` is the obligation left for the utterances after this one;
    ``holds_if_ended`` equals ``evaluate(formula, Trace((utterance,)), 0)``.
    The residual cannot give that answer, because after progression a
    weak-next obligation looks like a strong one.

    The walk runs on ``formula``'s state and builds each node through
    ``simplify``, then ``_canon``: the residual is a state or a bare constant.
    """
    return _progress(_intern(formula), utterance)


def _progress(formula: TemporalFormula, utterance: Utterance) -> tuple[TemporalFormula, bool]:
    """``progress`` on a state."""
    match formula:
        case Atom(a):
            return (TRUE, True) if a in utterance.atoms else (FALSE, False)
        case TrueF():
            return formula, True
        case FalseF():
            return formula, False
        case Not(f):
            residual, holds = _progress(f, utterance)
            return _canon(simplify(Not(residual))), not holds
        case And(l, r):
            left, left_holds = _progress(l, utterance)
            right, right_holds = _progress(r, utterance)
            return _canon(simplify(And(left, right))), left_holds and right_holds
        case Or(l, r):
            left, left_holds = _progress(l, utterance)
            right, right_holds = _progress(r, utterance)
            return _canon(simplify(Or(left, right))), left_holds or right_holds
        case Implies(l, r):
            left, left_holds = _progress(l, utterance)
            right, right_holds = _progress(r, utterance)
            return _canon(simplify(Implies(left, right))), not left_holds or right_holds
        case Next(f):
            return _unbound(f), False
        case Box(f):
            residual, holds = _progress(f, utterance)
            return _canon(simplify(And(residual, formula))), holds
        case Diamond(f):
            residual, holds = _progress(f, utterance)
            return _canon(simplify(Or(residual, formula))), holds
        case BoxK(k, f) | DiamondK(k, f):
            # expand_bounded's step: f now, then the bound one lower, through
            # weak next for []<=k and strong next for <><=k
            residual, holds = _progress(f, utterance)
            if k > 1:
                rest = _unbound(f) if k == 2 else _canon(type(formula)(k - 1, f))
                residual = _canon(simplify((And if type(formula) is BoxK else Or)(residual, rest)))
            return residual, holds
    raise TypeError(f"not a temporal formula: {formula!r}")


# The transition table, one per process and shared by every session; the
# MonitorSession docstring describes it and the invariant that keeps its id
# keys safe.
_states: dict[object, TemporalFormula] = {}  # _key(node) -> canonical state
# (id(state), atom set) -> (state, next state, holds_if_ended), and
# (id(formula), None) -> (formula, its state, None), a session start
_steps: dict[tuple[int, frozenset[PronounAtom] | None], tuple] = {}


def _key(node: TemporalFormula) -> object:
    """``node``'s key in ``_states``: its class, its bound and the ids of its
    children; an atom's key is its atom, and a constant's its class. It is
    the key of ``node``'s state only when ``node``'s children are canonical."""
    cls = type(node)
    if cls is And or cls is Or or cls is Implies:
        return cls, id(node.left), id(node.right)
    if cls is BoxK or cls is DiamondK:
        return cls, node.k, id(node.operand)
    if cls in _UNARY:
        return cls, id(node.operand)
    if cls is Atom:
        return node.atom
    if cls is TrueF or cls is FalseF:
        return cls
    raise TypeError(f"not a temporal formula: {node!r}")


def _canon(node: TemporalFormula) -> TemporalFormula:
    """The state equal to ``node``, whose children are states; ``node`` if new."""
    return _states.setdefault(_key(node), node)


def _intern(formula: TemporalFormula) -> TemporalFormula:
    """The one object in ``_states`` structurally equal to ``formula``, added
    with its parts if there is none.

    Interning a state, such as a progress result, is one lookup. Any other
    formula is walked bottom-up on an explicit stack, so chains deeper than
    the recursion limit need no recursion: a node whose children are states
    goes through ``_canon``, and any other is rebuilt on its children's states.
    """
    found = _states.get(_key(formula))
    if found is not None:
        return found
    done: dict[int, TemporalFormula] = {}  # id(node) -> its state
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in done:  # a shared node, pushed twice
            stack.pop()
            continue
        cls = type(node)
        if cls is And or cls is Or or cls is Implies:
            kids = (node.left, node.right)
        else:  # as children() would, at half the cost; _canon checks the type
            kids = (node.operand,) if cls in _UNARY else ()
        missed = [kid for kid in kids if id(kid) not in done]
        if missed:
            stack.extend(missed)
            continue
        stack.pop()
        states = [done[id(kid)] for kid in kids]
        built = node
        if any(map(is_not, states, kids)):
            built = cls(node.k, *states) if cls in (BoxK, DiamondK) else cls(*states)
        done[id(node)] = _canon(built)
    return done[id(formula)]


class MonitorSession:
    """Online monitor over one utterance stream.

    Progression-based: it may stay Inconclusive in states a semantically
    omniscient monitor would already decide, but it never flips a conclusive
    verdict. Each step takes one ``progress`` walk of the residual, or its
    memoized result, which yields the next residual and whether the formula
    holds if the stream ends here; a conclusive verdict is emitted only when
    the residual is a constant and that ends-now answer agrees with it.

    The walks are memoized in one transition table per process, which every
    session shares, so the monitor is the finite-trace automaton of De
    Giacomo & Vardi (IJCAI 2013), built on demand by progression (Bacchus &
    Kabanza, AIJ 2000). The table has two parts:

    - ``_states``, one canonical state per structure, added by ``_intern``
      and ``_canon``. A residual that progression rebuilds equal, such as
      that of ``[] <> f`` while ``f`` is absent, is the same state again.
    - ``_steps``, ``(id(state), atom set) -> (state, next state,
      holds_if_ended)``. A state already left once with that atom set costs
      one dict lookup: stepwise ``[] (a/b -> <><=5 c/d)`` walks each of its
      few states once per atom set, and a later session of that formula
      walks nothing. A session start is the step ``(id(formula), None) ->
      (formula, its state, None)``, so a formula object that starts many
      sessions is walked once, not once per session.

    A session keeps only its residual, its position, its verdict and the
    ends-now answer; a session never fed gets that answer at ``finish``,
    from ``evaluate`` on the empty trace. On a miss it interns its residual
    again before the walk, because the table may have been cleared since it
    took that state, and the walk's result, which may be a bare constant:
    one lookup each while the table holds them. States are keyed on identity
    and not hashed by structure, because a structural hash recurses through
    the whole residual at every lookup.

    Invariant: every id in a key names an object that the same entry holds
    (a state holds its children, a step its state, a start its formula), so
    no id is reused while its entry lives. This holds when threads share the
    table too, since no entry relies on another: a race between a clear and
    a store at worst costs a walk again, never a wrong step.

    When the two parts together reach ``STEP_CAP`` entries, both are
    cleared, before the intern or walk that would add to them. That bounds
    the table for residuals that change at every step, such as the falling
    bound of ``<><=k f``, and for a stream of new formulas.
    """

    STEP_CAP = 4096

    def __init__(self, formula: TemporalFormula):
        start = _steps.get((id(formula), None))
        if start is None:
            _make_room(self.STEP_CAP)
            start = _steps[id(formula), None] = (formula, _intern(formula), None)
        _, self.residual, self._holds_if_ended = start
        self.position = 0
        self.verdict = Verdict(INCONCLUSIVE)

    def feed(self, utterance: Utterance) -> Verdict:
        if self.verdict.conclusive:
            self.position += 1
            return self.verdict
        step = _steps.get((id(self.residual), utterance.atoms))
        if step is None:
            _make_room(self.STEP_CAP)
            state = _intern(self.residual)
            residual, holds = progress(state, utterance)
            step = _steps[id(state), utterance.atoms] = (state, _intern(residual), holds)
        _, self.residual, self._holds_if_ended = step
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
        if not self.position:  # never fed: the formula on the empty trace
            self._holds_if_ended = evaluate(self.residual, EMPTY_TRACE, 0)
        status = SATISFIED if self._holds_if_ended else VIOLATED
        self.verdict = Verdict(status)
        return self.verdict


def _make_room(cap: int) -> None:
    """Clear the whole transition table once it has ``cap`` entries."""
    if len(_states) + len(_steps) >= cap:
        _states.clear()
        _steps.clear()


def monitor(formula: TemporalFormula, utterances: Iterable[Utterance]) -> list[Verdict]:
    """Verdict after each utterance; if the stream ends inconclusive, a final
    forced verdict is appended."""
    session = MonitorSession(formula)
    verdicts = [session.feed(u) for u in utterances]
    if not verdicts or not verdicts[-1].conclusive:
        verdicts.append(session.finish())
    return verdicts


class TraceFormatError(ValueError):
    """A trace file line that does not read as an utterance."""


def parse_trace(text: str) -> Trace:
    """Trace file format: one utterance per line of whitespace-separated atom
    tokens, ``-`` for an utterance with no atoms; ``#`` starts a comment, and
    blank lines are ignored. A bad token raises ``TraceFormatError`` naming
    its line."""
    utterances = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            utterances.append(Utterance(frozenset()))
            continue
        try:
            utterances.append(Utterance(frozenset(atom(t) for t in line.split())))
        except ValueError as exc:
            raise TraceFormatError(f"trace line {lineno}: {exc}") from None
    return Trace(tuple(utterances))
