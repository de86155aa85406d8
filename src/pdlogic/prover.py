"""Proof search for the intuitionistic linear fragment over atoms, &, (+), *
and -o, plus an independent proof checker.

The search manages resources by input and output (Hodas & Miller, Inf. &
Comp. 1994; Cervesato, Hodas & Pfenning, TCS 2000) instead of guessing how to
split the context. A subgoal is handed the whole multiset of formulas not yet
used, consumes what its proof needs, and reports every leftover it can end
with. TensorR hands each leftover of its left premise to its right premise;
LolliL hands each leftover of the antecedent's proof on to the rest of the
step. The fragment has no ⊤, 1 or 0, so no proof consumes resources it
leaves unspecified and no slack needs tracking; WithR keeps the leftovers
that both of its branches can end with.

The invertible rules come first. LolliR and WithR apply as soon as the goal
has their shape. TensorL and PlusL apply to a formula as soon as it enters
the context (at the root, as LolliR's antecedent, or as the part a WithL or
LolliL puts in place of its principal), and an entering formula must be used
up by the subproof it enters. The pool of unused formulas therefore holds only
atoms, withs and lollis, and the search chooses only among Id, PlusR, TensorR
and a WithL or LolliL on a formula of the pool.

Every rule strictly decreases the total size of the sequent, so the search
terminates without loop checking; the node budget exists only as a safety
valve. Subgoals are memoized on the canonical (input multiset, goal) pair, and
each memo miss is one search node. A proof that is found has explicit
contexts: each node's context is the multiset it consumed, the input it was
handed less the leftover it ended with.

Before the search, the sequent's atom counts may refute it. Each additive
slice of a proof pairs every atom occurrence with an opposite one (Girard,
TCS 1987; Hughes & van Glabbeek, ACM TOCL 2005). So a sequent is underivable
when some atom's supply less demand cannot be 0, whatever is chosen at each
``&`` and ``(+)``. The count runs over the search's numbering, in about one
pass over the sequent's distinct subformulas, and a refuted sequent spends no
search node.

The checker shares no state with the search. One table gives each rule a
row, and one depth-first walk, on a stack rather than by recursion, checks
each node of a proof against its rule's row.
"""

from __future__ import annotations

from .linear import (
    Atom, Lolli, LinearFormula, Plus, Sequent, Tensor, With, children, render_sequent,
)
from .node import Node

DEFAULT_BUDGET = 10**6

class ResourceLimit(Exception):
    """A budget ran out: proof search nodes here, free-logic term and formula
    evaluations that the memo does not answer in ``freelogic``
    (``DEFAULT_BUDGET`` of them per call), and the node cap of the library's
    ``monitoring.expand_bounded``, which no CLI path calls. Distinct from a
    negative answer."""


class ProofTree(Node, defaults={"premises": ()}):
    __slots__ = ("rule", "conclusion", "premises")  # a str, a Sequent, a tuple of ProofTrees


class CheckResult(Node, defaults={"path": (), "reason": ""}):
    __slots__ = ("ok", "path", "reason")  # a bool, a tuple of premise indices, a str


def prove(sequent: Sequent, budget: int = DEFAULT_BUDGET) -> ProofTree | None:
    """A checkable proof of the sequent, or None if none exists. A sequent
    that its atom counts refute is answered before the search, and spends
    none of the budget."""
    searcher = _Searcher(budget)
    context = tuple(map(searcher.number, sequent.context))
    goal = searcher.number(sequent.goal)
    if _unbalanced(searcher.parts, context, goal):
        return None
    term = searcher.enter(context, (), goal).get(())
    if term is None:
        return None
    tree = searcher.build(term, {})
    # Subproofs list their contexts in the search's canonical order; restore
    # the caller's written order at the root only.
    return ProofTree(tree.rule, sequent, tree.premises)


def _numbering():
    """One numbering of formulas, for one search or one check: a function
    from formula to number, the list of formulas by number, and the list of
    their parts by number. A formula's parts are its node class and its
    operands' numbers, ``(Atom, -1, -1)`` for an atom. Equal formulas get
    one number; a formula is numbered when first met, its operands before
    it. Numbers are memoized on ``id``: the sequent or proof keeps every
    formula it numbers alive while the numbering is in use."""
    by_id: dict[int, int] = {}
    by_parts: dict = {}
    formulas: list[LinearFormula] = []
    parts: list[tuple[type, int, int]] = []

    def number(formula: LinearFormula) -> int:
        n = by_id.get(id(formula))
        if n is None:
            if isinstance(formula, Atom):
                key = formula.atom  # equal for equal atoms, and faster to hash
                entry = (Atom, -1, -1)
            else:
                key = entry = (type(formula), *map(number, children(formula)))
            n = by_parts.setdefault(key, len(formulas))
            if n == len(formulas):
                formulas.append(formula)
                parts.append(entry)
            by_id[id(formula)] = n
        return n

    return number, formulas, parts


def _unbalanced(parts: list, context: tuple[int, ...], goal: int) -> bool:
    """Whether some atom's supply less demand cannot be 0, whatever is
    chosen at each ``&`` and ``(+)``. ``parts`` is a numbering's list of
    parts, which holds exactly the subformulas of the sequent ``context |-
    goal``, given by number.

    One pass from the largest number down hands each formula its weight: how
    many copies of it the context supplies less the goal demands, outside
    any ``&`` or ``(+)``. ``*`` hands its weight to both operands, and
    ``-o`` hands its consequent the weight and its antecedent the negated
    weight. An atom adds its weight to its count, and an additive formula
    adds its weight times its ``_spans`` interval.

    A supplied and a demanded copy of one formula cancel. That stays sound:
    for each atom, choosing at every additive of the two copies by its
    minimax count gives a slice in which the supplied copy counts at least
    the demanded one, and another in which it counts at most, so the rest of
    a derivable sequent still reaches 0 from both sides."""
    weight = [0] * len(parts)
    for formula in context:
        weight[formula] += 1
    weight[goal] -= 1
    low = [0] * len(parts)  # by atom number, the least and greatest count
    high = [0] * len(parts)
    spans = None
    for n in range(len(parts) - 1, -1, -1):
        w = weight[n]
        if not w:
            continue
        kind, x, y = parts[n]
        if kind is Tensor:
            weight[x] += w
            weight[y] += w
        elif kind is Lolli:
            weight[x] -= w
            weight[y] += w
        elif kind is Atom:
            low[n] += w
            high[n] += w
        else:
            if spans is None:
                spans = _spans(parts)
            for a, (lo, hi) in spans[n].items():
                lo, hi = (w * lo, w * hi) if w > 0 else (w * hi, w * lo)
                low[a] += lo
                high[a] += hi
    return any(lo > 0 or hi < 0 for lo, hi in zip(low, high))


def _spans(parts: list) -> list[dict[int, tuple[int, int]]]:
    """For each formula by number, each atom's least and greatest count in
    one copy of it over the choices at its ``&`` and ``(+)``: ``*`` adds its
    operands' intervals, ``-o`` subtracts its antecedent's from its
    consequent's, and ``&`` and ``(+)`` take the lower low and the higher
    high of their operands."""
    spans: list[dict[int, tuple[int, int]]] = []
    for n, (kind, x, y) in enumerate(parts):
        if kind is Atom:
            spans.append({n: (1, 1)})
            continue
        left, right = spans[x], spans[y]
        if kind is Tensor or kind is Lolli:
            span = dict(right)
            for a, (lo, hi) in left.items():
                if kind is Lolli:
                    lo, hi = -hi, -lo
                low, high = span.get(a, (0, 0))
                span[a] = (low + lo, high + hi)
        else:
            span = {}
            for a in left.keys() | right.keys():
                (l1, h1), (l2, h2) = left.get(a, (0, 0)), right.get(a, (0, 0))
                span[a] = (min(l1, l2), max(h1, h2))
        spans.append(span)
    return spans


class _Searcher:
    """One search over numbered formulas.

    The search numbers formulas with its own ``_numbering``, equal formulas
    alike, so a multiset of formulas is a sorted tuple of ints and no memo
    key hashes a formula tree. A search result maps each possible leftover
    to a proof term ``(rule, goal, premises, input, leftover)``: the input
    is the multiset the term's subgoal was handed, and the term consumes the
    input less the leftover. ``build`` turns a term into a ``ProofTree``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.memo: dict[tuple, dict] = {}
        self.number, self.formulas, self.parts = _numbering()

    def solve(self, pool: tuple[int, ...], goal: int) -> dict:
        """Each leftover L such that pool - L proves the goal, with a proof."""
        key = (pool, goal)
        found = self.memo.get(key)
        if found is None:
            self.budget -= 1
            if self.budget < 0:
                raise ResourceLimit("proof search node budget exhausted")
            found = self.memo[key] = self._outcomes(pool, goal)
        return found

    def enter(self, entering: tuple[int, ...], pool: tuple[int, ...], goal: int) -> dict:
        """Each leftover L such that pool - L, together with all of the
        entering formulas, proves the goal. TensorL and PlusL apply here."""
        whole = tuple(sorted(pool + entering))
        for i, principal in enumerate(entering):
            kind, x, y = self.parts[principal]
            if kind is not Tensor and kind is not Plus:
                continue
            others = entering[:i] + entering[i + 1:]
            if kind is Tensor:
                inner = self.enter(others + (x, y), pool, goal)
                return {rest: ("TensorL", goal, (p,), whole, rest) for rest, p in inner.items()}
            left = self.enter(others + (x,), pool, goal)
            right = self.enter(others + (y,), pool, goal) if left else {}
            return {rest: ("PlusL", goal, (p, right[rest]), whole, rest)
                    for rest, p in left.items() if rest in right}
        found = self.solve(whole, goal)
        # A leftover that kept a copy of an entering formula did not use it up.
        bounds = [(f, pool.count(f)) for f in set(entering)]
        return {rest: p for rest, p in found.items()
                if all(rest.count(f) <= bound for f, bound in bounds)}

    def _outcomes(self, pool: tuple[int, ...], goal: int) -> dict:
        kind, a, b = self.parts[goal]
        if kind is Lolli:
            inner = self.enter((a,), pool, b)
            return {rest: ("LolliR", goal, (p,), pool, rest) for rest, p in inner.items()}
        if kind is With:
            left = self.solve(pool, a)
            right = self.solve(pool, b) if left else {}
            return {rest: ("WithR", goal, (p, right[rest]), pool, rest)
                    for rest, p in left.items() if rest in right}

        out: dict = {}
        if kind is Atom:
            if goal in pool:
                rest = _remove(pool, goal)
                out[rest] = ("Id", goal, (), pool, rest)
        elif kind is Plus:
            for rule, operand in (("PlusR1", a), ("PlusR2", b)):
                for rest, p in self.solve(pool, operand).items():
                    if rest not in out:
                        out[rest] = (rule, goal, (p,), pool, rest)
        else:
            for mid, pa in self.solve(pool, a).items():
                for rest, pb in self.solve(mid, b).items():
                    if rest not in out:
                        out[rest] = ("TensorR", goal, (pa, pb), pool, rest)

        previous = None
        for principal in pool:
            if principal == previous:
                continue
            previous = principal
            pkind, x, y = self.parts[principal]
            if pkind is Atom:
                continue
            others = _remove(pool, principal)
            if pkind is With:
                for rule, operand in (("WithL1", x), ("WithL2", y)):
                    for rest, p in self.enter((operand,), others, goal).items():
                        if rest not in out:
                            out[rest] = (rule, goal, (p,), pool, rest)
            else:  # a lolli: the pool holds no tensor or plus
                for mid, pa in self.solve(others, x).items():
                    for rest, pb in self.enter((y,), mid, goal).items():
                        if rest not in out:
                            out[rest] = ("LolliL", goal, (pa, pb), pool, rest)
        return out

    def build(self, term: tuple, built: dict) -> ProofTree:
        """The proof tree of a term; each node's context is its input less
        its leftover."""
        done = built.get(id(term))
        if done is None:
            rule, goal, premises, pool, rest = term
            for formula in rest:
                pool = _remove(pool, formula)
            formulas = self.formulas
            sequent = Sequent(tuple(formulas[i] for i in pool), formulas[goal])
            done = built[id(term)] = ProofTree(
                rule, sequent, tuple(self.build(p, built) for p in premises))
        return done


def _remove(pool: tuple[int, ...], formula: int) -> tuple[int, ...]:
    i = pool.index(formula)
    return pool[:i] + pool[i + 1:]


# --- independent proof checking ----------------------------------------------


# A row per rule: the principal's type; whether it is in the context (a left
# rule) or is the goal; whether it is taken out of the context; whether the
# premises split the rest of the context or each keep it all; each premise's
# goal and what it adds to its context, by place (0 the conclusion's goal, 1
# and 2 the principal's operands); and the reasons to reject, in check order.
# A right rule's: the goal's type, each premise's goal and kept context, the
# split. A left rule's last is "no formula fits"; its first, for a premise not
# keeping the conclusion goal, needs no principal and is checked first.
_RULES = {
    "Id": (Atom, False, True, True, (), (
        "Id requires an atomic goal", "Id requires context equal to the goal atom")),
    "TensorR": (Tensor, False, False, True, ((1, ()), (2, ())), (
        "TensorR requires a tensor goal", "first premise goal must be the left operand",
        "second premise goal must be the right operand",
        "premise contexts do not partition the conclusion context")),
    "TensorL": (Tensor, True, True, False, ((0, (1, 2)),),
                ("no tensor in the context decomposes to the premise",)),
    "WithR": (With, False, False, False, ((1, ()), (2, ())), (
        "WithR requires a with goal", "first premise goal must be the first operand",
        "first premise must keep the conclusion context",
        "second premise goal must be the second operand",
        "second premise must keep the conclusion context")),
    "WithL1": (With, True, True, False, ((0, (1,)),),
               ("no with in the context decomposes to the premise (left)",)),
    "WithL2": (With, True, True, False, ((0, (2,)),),
               ("no with in the context decomposes to the premise (right)",)),
    "PlusR1": (Plus, False, False, False, ((1, ()),), (
        "PlusR1 requires a plus goal", "premise goal must be the chosen operand",
        "premise must keep the conclusion context")),
    "PlusR2": (Plus, False, False, False, ((2, ()),), (
        "PlusR2 requires a plus goal", "premise goal must be the chosen operand",
        "premise must keep the conclusion context")),
    "PlusL": (Plus, True, True, False, ((0, (1,)), (0, (2,))),
              ("no plus in the context decomposes to both premises",)),
    "LolliR": (Lolli, False, False, False, ((2, (1,)),), ("LolliR requires a lolli goal",
               "premise goal must be the consequent", "premise context must add the antecedent")),
    "LolliL": (Lolli, True, True, True, ((1, ()), (0, (2,))), (
        "second premise must keep the conclusion goal",
        "no lolli in the context matches the premises")),
}
RULES = tuple(_RULES)


def check_proof(proof: ProofTree) -> CheckResult:
    """Accept iff every node is an instance of its rule's row in ``_RULES``;
    otherwise reject with the path to the first offending node. The walk is
    depth first on a stack of its own, so a proof of any depth gets an answer.
    Formulas are compared by number, equal ones alike, in a fresh numbering of
    the search's kind; a context is the sorted list of its formulas' numbers."""
    number, _, parts = _numbering()
    root = proof.conclusion
    stack = [(proof, (), sorted(map(number, root.context)), number(root.goal))]
    while stack:
        node, path, ctx, goal = stack.pop()
        premises = node.premises
        contexts, goals = [], []
        for premise in premises:
            contexts.append(sorted(map(number, premise.conclusion.context)))
            goals.append(number(premise.conclusion.goal))
        if reason := _check_node(node, ctx, goal, contexts, goals, parts):
            return CheckResult(False, path, reason)
        for i in range(len(premises) - 1, -1, -1):
            stack.append((premises[i], path + (i,), contexts[i], goals[i]))
    return CheckResult(True)


def _check_node(node: ProofTree, ctx: list[int], goal: int, contexts: list[list[int]],
                goals: list[int], parts) -> str | None:
    """Why ``node`` is not an instance of its rule's row, or None."""
    row = _RULES.get(node.rule)
    if row is None:
        return f"unknown rule {node.rule!r}"
    kind, left, _, _, shapes, reasons = row
    if len(node.premises) != len(shapes):
        return (f"{node.rule} needs {len(shapes)} premise(s), has {len(node.premises)}"
                if shapes else f"{node.rule} takes no premises")
    if not left:
        if not isinstance(node.conclusion.goal, kind):
            return reasons[0]
        misfit = _misfit(row, goal, goal, goals, ctx, contexts, parts)
        return reasons[misfit] if misfit else None
    if any(not place and premise_goal != goal for (place, _), premise_goal in zip(shapes, goals)):
        return reasons[0]
    for principal in set(ctx):
        if issubclass(parts[principal][0], kind) and not _misfit(
                row, principal, goal, goals, ctx, contexts, parts):
            return None
    return reasons[-1]


def _misfit(row: tuple, principal: int, goal: int, goals: list[int], ctx: list[int],
            contexts: list[list[int]], parts) -> int:
    """The index in ``row``'s reasons of the first check ``principal`` fails,
    -1 for the split, or 0. Each premise goal that is the conclusion goal is
    the caller's to check, so every goal is checked before any copy."""
    _, _, taken, split, shapes, _ = row
    _, a, b = parts[principal]
    places = (goal, a, b)
    merged = [principal] if taken else []  # what must make up the context
    check = 0
    for (place, added), premise_goal, own in zip(shapes, goals, contexts):
        if place:
            check += 1
            if premise_goal != places[place]:
                return check
        if not split:
            check += 1
        if added:  # each formula a premise adds is in its own context
            own = own.copy()
            for i in added:
                if places[i] not in own:
                    return -1 if split else check
                own.remove(places[i])
        if split:
            merged += own
        elif (sorted(merged + own) if merged else own) != ctx:
            return check
    return -1 if split and sorted(merged) != ctx else 0


# --- serialization ------------------------------------------------------------


class ProofTextError(ValueError):
    """Proof text whose lines do not form a proof tree."""


def proof_to_text(proof: ProofTree) -> str:
    """Indented text format: ``rule | sequent``, children indented two spaces.

    Each formula object of the proof is rendered once; the proof keeps every
    one of them alive while the memo of their texts is in use."""
    lines: list[str] = []
    memo: dict[int, str] = {}

    def emit(node: ProofTree, depth: int):
        lines.append(f"{'  ' * depth}{node.rule} | {render_sequent(node.conclusion, memo)}")
        for premise in node.premises:
            emit(premise, depth + 1)

    emit(proof, 0)
    return "\n".join(lines) + "\n"


def proof_from_text(text: str) -> ProofTree:
    """Inverse of proof_to_text; raises ProofTextError on malformed trees, and a
    ParseError at its line and column in ``text`` on a malformed sequent.

    Two kinds of formula text are shared within one call. Each distinct
    text is parsed once, and equal texts give one formula object. Each right
    operand that runs to the end of its text is kept, and it is the formula
    of a later text that is the whole of it, such as a TensorR goal's right
    operand, which is its second premise's goal. Nothing is looked up in the
    middle of a parse. A line with a comment, or one that does not parse, is
    read by ``parse_sequent`` as a whole, which alone reports errors."""
    from .parsing import _FormulaMemo, _parse_span, parse_sequent

    entries = []
    memo = _FormulaMemo()
    end = 0
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        start, end = end, end + len(line)
        body = line.strip()
        if not body:
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2:
            raise ProofTextError(f"line {lineno}: odd indentation")
        rule, sep, sequent_text = body.partition(" | ")
        if not sep:
            raise ProofTextError(f"line {lineno}: expected 'rule | sequent'")
        rule = rule.strip()
        if rule not in RULES:
            raise ProofTextError(f"line {lineno}: unknown rule {rule!r}")
        at = start + len(line) - len(line.lstrip()) + len(body) - len(sequent_text.lstrip())
        span = sequent_text.strip()
        sequent = memo.sequent(span)
        if sequent is None:
            sequent = _parse_span(parse_sequent, text, at, at + len(span))
        entries.append((indent // 2, rule, sequent))

    if not entries:
        raise ProofTextError("empty proof text")

    def build(index: int, depth: int) -> tuple[ProofTree, int]:
        level, rule, sequent = entries[index]
        if level != depth:
            raise ProofTextError(f"entry {index}: unexpected indentation")
        index += 1
        premises = []
        while index < len(entries) and entries[index][0] == depth + 1:
            child, index = build(index, depth + 1)
            premises.append(child)
        return ProofTree(rule, sequent, tuple(premises)), index

    tree, consumed = build(0, 0)
    if consumed != len(entries):
        raise ProofTextError("trailing proof lines outside the root tree")
    return tree
