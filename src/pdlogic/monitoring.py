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
O(log k) shifts per bounded modality. It reads the suffix's atom sets once, and
builds each atom's label from them by C-level iteration, which hashes no atom
per utterance. The direct recursive semantics it is checked against lives in
the tests, as ``oracles.direct_evaluate``. The online monitor decides each
utterance from one ``progress`` walk, which yields both the residual obligation
and whether the formula holds if the stream ends there. Residuals are states of
one transition table per process, shared by every ``MonitorSession``: the walk
applies the simplification rules to a residual's operands before it builds the
residual, and builds only what survives through the table, so equal residuals
are one object; walks are memoized per (state, atom set), and a step the table
holds is one dict lookup. Interning and progression are each one ``node.fold``,
one visit per part of a state. A tower of like bounded modalities interns as
one bound: ``[]<=i []<=j f`` as ``[]<=(i+j-1) f``, and so for ``<><=``.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice
from operator import and_, attrgetter, is_not, le, or_

from . import notation
from .atoms import PronounAtom, atom
from .node import Node, fold
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
    utterances from ``position`` is read: its atom sets are taken once per
    call, last first, by C-level iteration. A label is an int whose bit i
    says that the subformula holds from suffix position i, and bit n stands
    for the empty suffix. Each atom's label is built from those atom sets
    once per call (``_atom_label``). Connectives are masks, Next is a shift,
    Box and Diamond read the highest zero or one of their operand, and a
    bounded modality is a window AND or OR built from O(log k) doubling
    shifts. A decided left operand of And, Or or Implies skips the right one.

    A Next at ()-depth d (the number of Nexts above it) is read only at
    positions from d on. At d >= n - 1 it is false wherever it is read, so
    it is labelled false without visiting its operand. That label, and so
    every label above it, is right only from its ()-depth on. One table maps
    a node's identity to the ()-depth it was labelled at and its label: a
    reader at that depth or deeper reuses the label, and only a shallower
    one labels the node again. So a body that ``expand_bounded`` shares
    under k Nexts, and that is first reached at the top, is labelled once.
    """
    end = len(trace)
    if not 0 <= position <= end:
        raise IndexError(f"position {position} outside [0, {end}]")
    n = end - position
    # Every operator reads its operands at or after its own position.
    atom_sets = tuple(islice(map(_ATOMS, reversed(trace.utterances)), n))
    full = (1 << (n + 1)) - 1
    below = full >> 1  # the utterances, without the empty suffix
    top = full ^ below  # the empty suffix alone
    horizon = n - 1  # a Next this deep or deeper is false wherever it is read
    atom_labels: dict[PronounAtom, int] = {}
    labels: dict[int, tuple[int, int]] = {}  # id -> (()-depth, label)
    stack = [(formula, 0)]  # (node, ()-depth)
    while stack:
        node, depth = stack[-1]
        cls = type(node)
        if cls is Next and depth >= horizon:
            label = 0
        elif cls in _UNARY:
            child_depth = depth + 1 if cls is Next else depth
            known = labels.get(id(node.operand))
            if known is None or known[0] > child_depth:
                stack.append((node.operand, child_depth))
                continue
            operand = known[1]
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
            known = labels.get(id(node.left))
            if known is None or known[0] > depth:
                stack.append((node.left, depth))
                continue
            left = known[1]
            if left == (full if cls is Or else 0):
                label = 0 if cls is And else full
            else:
                known = labels.get(id(node.right))
                if known is None or known[0] > depth:
                    stack.append((node.right, depth))
                    continue
                right = known[1]
                if cls is And:
                    label = left & right
                elif cls is Or:
                    label = left | right
                else:
                    label = (full ^ left) | right
        elif cls is Atom:
            label = _atom_label(node.atom, atom_sets, atom_labels)
        elif cls is TrueF:
            label = full
        elif cls is FalseF:
            label = 0
        else:
            raise TypeError(f"not a temporal formula: {node!r}")
        stack.pop()
        labels[id(node)] = depth, label
    return bool(label & 1)


_ATOMS = attrgetter("atoms")  # an utterance's atom set
# Whether an atom is absent, as a byte, to the label's binary digit.
_DIGITS = bytes.maketrans(b"\x00\x01", b"10")


def _atom_label(
    a: PronounAtom, atom_sets: tuple[frozenset[PronounAtom], ...], cache: dict[PronounAtom, int]
) -> int:
    """Bit i set where the i-th of ``atom_sets`` from the end holds ``a``;
    the empty suffix's bit is clear. ``atom_sets`` are the suffix's atom
    sets, last first, so they read as the label's binary digits. Built once
    per atom and call, and kept in ``cache``.

    The digits come from C-level iteration: ``isdisjoint`` of a one-atom set
    probes each atom set with the hash that set already stores, so no
    ``PronounAtom`` is hashed per utterance, and its answers become the
    digits in one ``bytes`` and one ``translate``."""
    label = cache.get(a)
    if label is None:
        absent = frozenset((a,)).isdisjoint
        bits = bytes(map(absent, atom_sets)).translate(_DIGITS)
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

    The walk is one ``fold`` of ``formula``'s state that stops at a Next.
    Each residual is built once, in ``_negation`` or ``_join``, on its
    operands' states, and only what survives the rules goes through
    ``_canon``. The residual is a state or a bare constant.
    """
    present = utterance.atoms

    def step(node: TemporalFormula, below: list) -> tuple[TemporalFormula, bool]:
        cls = type(node)
        if cls is Atom:
            return (TRUE, True) if node.atom in present else (FALSE, False)
        if cls is TrueF or cls is FalseF:
            return node, cls is TrueF
        if cls is Next:
            return _unbound(node.operand), False
        residual, holds = below[0]
        if cls is Not:
            return _negation(residual), not holds
        if cls is And or cls is Or or cls is Implies:
            right, right_holds = below[1]
            return _join(cls, residual, right), _HOLDS[cls](holds, right_holds)
        # a modality: the operand now, and the rest of it as in expand_bounded
        k = getattr(node, "k", None)
        if k == 1:
            return residual, holds
        f = node.operand
        rest = node if k is None else _unbound(f) if k == 2 else _canon(cls(k - 1, f))
        return _join(And if cls is Box or cls is BoxK else Or, residual, rest), holds

    return fold(_intern(formula), step, _read_now)


# A connective's ends-now answer from its operands'; on bools, <= is implication.
_HOLDS = {And: and_, Or: or_, Implies: le}


def _negation(f: TemporalFormula) -> TemporalFormula:
    """The state of ``!f``: a constant flips, and a double negation cancels."""
    cls = type(f)
    if cls is TrueF or cls is FalseF:
        return _canon(FALSE if cls is TrueF else TRUE)
    return _canon(f.operand if cls is Not else Not(f))


def _join(cls: type, left: TemporalFormula, right: TemporalFormula) -> TemporalFormula:
    """The state of ``cls(left, right)`` for And, Or or Implies: a constant
    absorbs or drops out, equal operands merge, and so does a left operand
    that heads the right one's chain (``[] <> f`` gains no copy of ``<> f``
    per step); ``f -> false`` is ``!f``. States are equal when ``is`` says so."""
    lt, rt = type(left), type(right)
    if cls is Implies:
        if lt is FalseF or rt is TrueF:
            return _canon(TRUE)
        if lt is TrueF:
            return _canon(right)
        if rt is FalseF:
            return _negation(left)
    else:
        absorbing, neutral = (FALSE, TRUE) if cls is And else (TRUE, FALSE)
        if lt is type(absorbing) or rt is type(absorbing):
            return _canon(absorbing)
        if lt is type(neutral):
            return _canon(right)
        if rt is type(neutral) or left is right:
            return _canon(left)
        if rt is cls and right.left is left:
            return _canon(right)
    return _canon(cls(left, right))


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

    Interning a state, such as a progress result, is one lookup; any other
    formula is one ``fold`` of ``_state``, which interns each part once.
    """
    found = _states.get(_key(formula))
    if found is not None:
        return found
    return fold(formula, _state, children)


def _state(node: TemporalFormula, states: list) -> TemporalFormula:
    """The state of ``node`` from its operands' ``states``: itself, or rebuilt on them."""
    cls = type(node)
    built = node
    if (cls is BoxK or cls is DiamondK) and type(states[0]) is cls:
        # a tower: []<=i []<=j f is []<=(i+j-1) f, and so for <><=
        built = cls(node.k + states[0].k - 1, states[0].operand)
    elif any(map(is_not, states, children(node))):
        built = cls(node.k, *states) if cls in (BoxK, DiamondK) else cls(*states)
    return _canon(built)


def _read_now(node: TemporalFormula) -> tuple[TemporalFormula, ...]:
    """The operands that a progress step of ``node`` reads: all but a Next's."""
    return () if type(node) is Next else children(node)


class MonitorSession:
    """Online monitor over one utterance stream.

    Progression-based: it may stay Inconclusive in states a semantically
    omniscient monitor would already decide, but it never flips a conclusive
    verdict. Each step takes one ``progress`` walk of the residual's parts,
    or its memoized result, which yields the next residual and whether the
    formula holds if the stream ends here; a conclusive verdict is emitted
    only when the residual is a constant and that ends-now answer agrees.

    The walks are memoized in one transition table per process, which every
    session shares, so the monitor is the finite-trace automaton of De
    Giacomo & Vardi (IJCAI 2013), built on demand by progression (Bacchus &
    Kabanza, AIJ 2000). The table has two parts:

    - ``_states``, one canonical state per structure (hash-consing, as in
      Filliâtre & Conchon, ML Workshop 2006), added by ``_intern`` and
      ``_canon``. A residual that progression rebuilds equal, such as that
      of ``[] <> f`` while ``f`` is absent, is the same state again.
      ``_intern`` collapses towers of like bounded modalities, so no state
      is one; ``[]<=3`` nested 99 deep is the one state ``[]<=199``.
    - ``_steps``, ``(id(state), atom set) -> (state, next state,
      holds_if_ended)``. A state already left once with that atom set costs
      one dict lookup: stepwise ``[] (a/b -> <><=5 c/d)`` walks each of its
      few states once per atom set, and a later session of that formula
      walks nothing. A session start is the step ``(id(formula), None) ->
      (formula, its state, None)``, so a formula object that starts many
      sessions is walked once, not once per session.

    A session keeps only its residual, its position, its verdict, the
    ends-now answer and whether it is still open (Inconclusive); a session
    never fed gets that answer at ``finish``, from ``evaluate`` on the empty
    trace. On a hit, ``feed`` unpacks the entry, and the class of the next
    state (``TrueF`` or ``FalseF``), together with the ends-now answer,
    decides the verdict: one lookup, with no property and no ``isinstance``
    per step. A closed session only counts the utterances fed. On a miss it
    interns its residual again before the walk, because the table may have
    been cleared since it took that state, and the walk's result, which may
    be a bare constant: one lookup each while the table holds them. States
    are keyed on identity and not hashed by structure, because a structural
    hash recurses through the whole residual at every lookup.

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

    __slots__ = ("residual", "position", "verdict", "_holds_if_ended", "_open")

    def __init__(self, formula: TemporalFormula):
        start = _steps.get((id(formula), None))
        if start is None:
            _make_room(self.STEP_CAP)
            start = _steps[id(formula), None] = (formula, _intern(formula), None)
        _, self.residual, self._holds_if_ended = start
        self.position = 0
        self.verdict = Verdict(INCONCLUSIVE)
        self._open = True  # while the verdict is Inconclusive

    def feed(self, utterance: Utterance) -> Verdict:
        if not self._open:
            self.position += 1
            return self.verdict
        step = _steps.get((id(self.residual), utterance.atoms))
        if step is None:
            _make_room(self.STEP_CAP)
            state = _intern(self.residual)
            residual, holds = progress(state, utterance)
            step = _steps[id(state), utterance.atoms] = (state, _intern(residual), holds)
        _, residual, holds = step
        position = self.position
        self.position = position + 1
        self.residual = residual
        self._holds_if_ended = holds
        if holds:
            if type(residual) is TrueF:
                self._conclude(SATISFIED, position)
        elif type(residual) is FalseF:
            self._conclude(VIOLATED, position)
        return self.verdict

    def finish(self) -> Verdict:
        """Force a verdict for end-of-stream."""
        if self._open:
            if not self.position:  # never fed: the formula on the empty trace
                self._holds_if_ended = evaluate(self.residual, EMPTY_TRACE, 0)
            self._conclude(SATISFIED if self._holds_if_ended else VIOLATED)
        return self.verdict

    def _conclude(self, status: str, position: int | None = None) -> None:
        self.verdict = Verdict(status, position)
        self._open = False


def _make_room(cap: int) -> None:
    """Clear the whole transition table once it has ``cap`` entries."""
    if len(_states) + len(_steps) >= cap:
        _states.clear()
        _steps.clear()


def monitor(formula: TemporalFormula, utterances: Iterable[Utterance]) -> list[Verdict]:
    """Verdict after each utterance; if the stream ends inconclusive, a final
    forced verdict is appended."""
    session = MonitorSession(formula)
    verdicts = list(map(session.feed, utterances))
    if session._open:
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
    for lineno, raw in enumerate(notation._lines(text), start=1):
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
