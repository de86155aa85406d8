"""Independent oracles and exhaustive/random generators shared by the tests.

The derivability oracle here is intentionally naive: plain backward search
over the rules, terminating because every rule strictly shrinks the sequent.
It shares no code with the package's prover beyond the formula types.
Likewise ``direct_evaluate`` is the temporal semantics read straight off its
definition, one recursive call per position, and shares nothing with the
package's bit-vector ``evaluate`` beyond the formula and trace types. And
``direct_segment``/``direct_utterances`` split a document with one character
loop and a per-character byte-offset table, where the package's ``segment``
uses one regex pass and a running byte count. ``eager_lex`` lexes a whole
text into a list before any of it is parsed; the package's lexer, a generator
the parser pulls tokens from, must yield the same tokens and raise no later
error than it. ``per_line_proof_from_text`` reads a proof with one
``parse_sequent`` call per line, as the package's ``proof_from_text`` did
before it parsed each distinct formula text once. ``eval_term`` and
``eval_formula`` evaluate free logic once per binding of every variable bound
around a node, as the package did before it memoized each node on the values
of its own free variables.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations, product

from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import PronounAtom, atom
from pdlogic.freelogic import (NON_DENOTING, And, Epsilon, Eq, Exists, FreeFormula, FreeTerm,
                               Forall, Implies, Iota, Model, Not, Or, Pred,
                               UnboundVariableError, UnknownPredicateError, Var)
from pdlogic.monitoring import Trace, Utterance
from pdlogic.notation import _lines
from pdlogic.parsing import _ALIASES, _KEYWORDS, _TOKEN, _error, _parse_span, parse_sequent
from pdlogic.prover import DEFAULT_BUDGET, RULES, ProofTree, ResourceLimit

# --- naive linear derivability ------------------------------------------------


def naive_derivable(context, goal, _memo=None) -> bool:
    """Bounded exhaustive backward search; size strictly decreases at every
    step, so this terminates without any loop check."""
    if _memo is None:
        _memo = {}
    key = (tuple(sorted(context, key=ll.render)), goal)
    if key in _memo:
        return _memo[key]
    _memo[key] = result = _naive_step(list(context), goal, _memo)
    return result


def _naive_step(ctx, goal, memo) -> bool:
    if isinstance(goal, ll.Atom) and ctx == [goal]:
        return True
    if isinstance(goal, ll.Tensor):
        for left, right in _all_splits(ctx):
            if naive_derivable(left, goal.left, memo) and naive_derivable(
                right, goal.right, memo
            ):
                return True
    if isinstance(goal, ll.With):
        if naive_derivable(ctx, goal.left, memo) and naive_derivable(
            ctx, goal.right, memo
        ):
            return True
    if isinstance(goal, ll.Plus):
        if naive_derivable(ctx, goal.left, memo) or naive_derivable(
            ctx, goal.right, memo
        ):
            return True
    if isinstance(goal, ll.Lolli):
        if naive_derivable(ctx + [goal.antecedent], goal.consequent, memo):
            return True
    for i, f in enumerate(ctx):
        rest = ctx[:i] + ctx[i + 1:]
        if isinstance(f, ll.Tensor):
            if naive_derivable(rest + [f.left, f.right], goal, memo):
                return True
        elif isinstance(f, ll.With):
            if naive_derivable(rest + [f.left], goal, memo) or naive_derivable(
                rest + [f.right], goal, memo
            ):
                return True
        elif isinstance(f, ll.Plus):
            if naive_derivable(rest + [f.left], goal, memo) and naive_derivable(
                rest + [f.right], goal, memo
            ):
                return True
        elif isinstance(f, ll.Lolli):
            for left, right in _all_splits(rest):
                if naive_derivable(left, f.antecedent, memo) and naive_derivable(
                    right + [f.consequent], goal, memo
                ):
                    return True
    return False


def _all_splits(ctx):
    n = len(ctx)
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            chosen_set = set(chosen)
            yield (
                [ctx[i] for i in chosen],
                [ctx[i] for i in range(n) if i not in chosen_set],
            )


# --- exhaustive linear enumeration ---------------------------------------------

TWO_ATOMS = (atom("a/b"), atom("c/d"))


def linear_formulas(total_size: int, atoms=TWO_ATOMS, _cache={}):
    """All linear formulas of exactly the given size over the given atoms."""
    key = (total_size, atoms)
    if key in _cache:
        return _cache[key]
    if total_size == 1:
        result = [ll.Atom(a) for a in atoms]
    else:
        result = []
        for left_size in range(1, total_size - 1):
            right_size = total_size - 1 - left_size
            for left, right in product(
                linear_formulas(left_size, atoms), linear_formulas(right_size, atoms)
            ):
                result.extend(
                    (
                        ll.Tensor(left, right),
                        ll.With(left, right),
                        ll.Plus(left, right),
                        ll.Lolli(left, right),
                    )
                )
    _cache[key] = result
    return result


def linear_formulas_up_to(max_size: int, atoms=TWO_ATOMS):
    out = []
    for size in range(1, max_size + 1):
        out.extend(linear_formulas(size, atoms))
    return out


def all_small_sequents(max_total_size: int = 9, max_context: int = 2,
                       atoms=TWO_ATOMS):
    """Every sequent with context size <= max_context and total formula size
    <= max_total_size, with context multisets deduplicated."""
    sequents = []
    by_size = {s: linear_formulas(s, atoms) for s in range(1, max_total_size + 1)}
    sizes = [s for s in by_size if by_size[s]]
    for goal_size in sizes:
        for goal in by_size[goal_size]:
            sequents.append(ll.Sequent((), goal))
    for a_size in sizes:
        for goal_size in sizes:
            if a_size + goal_size > max_total_size:
                continue
            for a in by_size[a_size]:
                for goal in by_size[goal_size]:
                    sequents.append(ll.Sequent((a,), goal))
    if max_context >= 2:
        for a_size in sizes:
            for b_size in sizes:
                if b_size < a_size:
                    continue  # unordered pair of sizes
                for goal_size in sizes:
                    if a_size + b_size + goal_size > max_total_size:
                        continue
                    for i, a in enumerate(by_size[a_size]):
                        bs = by_size[b_size][i:] if a_size == b_size else by_size[b_size]
                        for b in bs:
                            for goal in by_size[goal_size]:
                                sequents.append(ll.Sequent((a, b), goal))
    return sequents


# --- exhaustive temporal enumeration -------------------------------------------


def temporal_formulas(max_depth: int, atoms=TWO_ATOMS, max_k: int = 3, _cache={}):
    """All temporal formulas of depth <= max_depth whose leaves are the given
    atoms, with bounded modalities up to max_k."""
    key = (max_depth, atoms, max_k)
    if key in _cache:
        return _cache[key]
    leaves = [tl.Atom(a) for a in atoms]
    if max_depth == 1:
        _cache[key] = leaves
        return leaves
    smaller = temporal_formulas(max_depth - 1, atoms, max_k)
    result = list(leaves)
    for f in smaller:
        result.extend((tl.Not(f), tl.Box(f), tl.Diamond(f), tl.Next(f)))
        for k in range(1, max_k + 1):
            result.extend((tl.BoxK(k, f), tl.DiamondK(k, f)))
    for l, r in product(smaller, smaller):
        result.extend((tl.And(l, r), tl.Or(l, r), tl.Implies(l, r)))
    _cache[key] = result
    return result


def all_traces(max_length: int, atoms=TWO_ATOMS):
    """All traces up to the given length over every subset of the atoms."""
    letters = [
        Utterance(frozenset(subset))
        for r in range(len(atoms) + 1)
        for subset in combinations(atoms, r)
    ]
    traces = []
    for length in range(max_length + 1):
        for combo in product(letters, repeat=length):
            traces.append(Trace(combo))
    return traces


# --- direct temporal semantics ------------------------------------------------


def direct_evaluate(formula: tl.TemporalFormula, trace: Trace, position: int) -> bool:
    """Direct recursive finite-trace semantics.

    ``position == len(trace)`` is the empty suffix, where Box is vacuously
    true and Atom/Next/Diamond are false.
    """
    end = len(trace)
    if not 0 <= position <= end:
        raise IndexError(f"position {position} outside [0, {end}]")
    match formula:
        case tl.Atom(a):
            return position < end and a in trace.utterances[position].atoms
        case tl.TrueF():
            return True
        case tl.FalseF():
            return False
        case tl.Not(f):
            return not direct_evaluate(f, trace, position)
        case tl.And(l, r):
            return direct_evaluate(l, trace, position) and direct_evaluate(
                r, trace, position
            )
        case tl.Or(l, r):
            return direct_evaluate(l, trace, position) or direct_evaluate(
                r, trace, position
            )
        case tl.Implies(l, r):
            return (not direct_evaluate(l, trace, position)) or direct_evaluate(
                r, trace, position
            )
        case tl.Next(f):
            return position + 1 <= end - 1 and direct_evaluate(f, trace, position + 1)
        case tl.Box(f):
            return all(direct_evaluate(f, trace, j) for j in range(position, end))
        case tl.Diamond(f):
            return any(direct_evaluate(f, trace, j) for j in range(position, end))
        case tl.BoxK(k, f):
            if position == end:
                # empty window: agrees with the weak-next expansion chain,
                # which collapses to the body at the empty suffix
                return direct_evaluate(f, trace, end)
            stop = min(position + k - 1, end - 1)
            return all(direct_evaluate(f, trace, j) for j in range(position, stop + 1))
        case tl.DiamondK(k, f):
            if position == end:
                return direct_evaluate(f, trace, end)
            stop = min(position + k - 1, end - 1)
            return any(direct_evaluate(f, trace, j) for j in range(position, stop + 1))
    raise TypeError(f"not a temporal formula: {formula!r}")


# --- direct document segmentation ----------------------------------------------

_WORD = re.compile(r"[^\W\d_]+", re.UNICODE)


def _byte_offsets(text: str) -> list[int]:
    offsets = [0]
    for ch in text:
        offsets.append(offsets[-1] + len(ch.encode("utf-8")))
    return offsets


def direct_segment(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Sentences with byte spans. A sentence ends at '.', '!', or '?' followed
    by whitespace or end of input; the terminator belongs to the sentence."""
    offsets = _byte_offsets(text)
    sentences = []
    start = 0
    n = len(text)

    def close(begin: int, end: int):
        while begin < end and text[begin].isspace():
            begin += 1
        while end > begin and text[end - 1].isspace():
            end -= 1
        if begin < end:
            sentences.append((text[begin:end], (offsets[begin], offsets[end])))

    for i, ch in enumerate(text):
        if ch in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            close(start, i + 1)
            start = i + 1
    close(start, n)
    return sentences


def direct_utterances(sentences: list[tuple[str, tuple[int, int]]], spec) -> list[
    tuple[Utterance, int]
]:
    result = []
    for index, (sentence, span) in enumerate(sentences):
        found: set[PronounAtom] = set()
        for token in _WORD.findall(sentence):
            found |= spec.lexicon.entries.get(token.lower(), frozenset())
        if found:
            result.append((Utterance(frozenset(found), span), index))
    return result


# --- eager lexing --------------------------------------------------------------


@dataclass(slots=True)
class _Token:
    kind: str  # atom | ident | int | sym | kw | eof
    value: object
    start: int  # character offset into the source


def eager_lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, start = m[kind], m.start(kind)
        if kind == "atom":  # the commonest kinds first
            value = atom(value)
        elif kind == "sym":
            pass
        elif kind == "skip":
            continue
        elif kind == "word":
            kind = "kw" if value in _KEYWORDS else "ident"
        elif kind == "alias":
            value = _ALIASES[value]
            kind = "kw" if value in _KEYWORDS else "sym"
        elif kind == "int":
            try:
                value = int(value)
            except ValueError:  # Python converts at most 4300 digits
                message = f"number of {len(value)} digits is too long"
                raise _error(text, start, message) from None
        else:
            raise _error(text, start, f"unexpected character {value!r}")
        tokens.append(_Token(kind, value, start))
    tokens.append(_Token("eof", None, len(text)))
    return tokens


# --- proof text read one line at a time -------------------------------------------


def per_line_proof_from_text(text: str) -> ProofTree:
    entries = []
    end = 0
    for lineno, line in enumerate(_lines(text), start=1):
        start = end
        end += len(line) + (2 if text.startswith("\r\n", end + len(line)) else 1)
        body = line.strip()
        if not body:
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2:
            raise ValueError(f"line {lineno}: odd indentation")
        rule, sep, sequent_text = body.partition(" | ")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'rule | sequent'")
        rule = rule.strip()
        if rule not in RULES:
            raise ValueError(f"line {lineno}: unknown rule {rule!r}")
        at = start + len(line) - len(line.lstrip()) + len(body) - len(sequent_text.lstrip())
        sequent = _parse_span(parse_sequent, text, at, at + len(sequent_text.strip()))
        entries.append((indent // 2, rule, sequent, lineno))

    if not entries:
        raise ValueError("empty proof text")

    def build(index: int, depth: int) -> tuple[ProofTree, int]:
        level, rule, sequent, lineno = entries[index]
        if level != depth:
            raise ValueError(f"line {lineno}: unexpected indentation")
        index += 1
        premises = []
        while index < len(entries) and entries[index][0] == depth + 1:
            child, index = build(index, depth + 1)
            premises.append(child)
        return ProofTree(rule, sequent, tuple(premises)), index

    tree, consumed = build(0, 0)
    if consumed != len(entries):
        level, _, _, lineno = entries[consumed]
        if level:
            raise ValueError(f"line {lineno}: unexpected indentation")
        raise ValueError(f"line {lineno}: trailing proof lines outside the root tree")
    return tree


# --- free-logic evaluation, once per binding of every enclosing variable ---------

# The package's evaluator before it memoized subformulas: every term and
# formula is evaluated again for each binding of each variable bound around it,
# and each evaluation counts against the budget.

class _Evaluation:
    """The model of one outermost eval_term or eval_formula call, and the term
    and formula evaluations left of that call's budget. A description nested d
    deep is evaluated |D|^d times, so each evaluation counts against the proof
    search's node budget, and past it the call raises ResourceLimit. The
    recursion passes this object down in the model's place, so each call,
    in whichever thread, counts only its own evaluations."""

    __slots__ = ("domain", "predicates", "left")

    def __init__(self, model: Model):
        self.domain = model.domain
        self.predicates = model.predicates
        self.left = DEFAULT_BUDGET

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ResourceLimit("free-logic evaluation budget exhausted")


def eval_term(model: Model, env: dict[str, str], term: FreeTerm) -> str | None:
    """Denotation of a term: an individual name, or None when it does not denote."""
    if type(model) is not _Evaluation:
        model = _Evaluation(model)
    model.spend()
    match term:
        case Var(name):
            if name not in env:
                raise UnboundVariableError(f"unbound variable {name!r}")
            return env[name]
        case Iota(v, body):
            satisfiers = _satisfiers(model, env, v, body)
            return satisfiers[0] if len(satisfiers) == 1 else NON_DENOTING
        case Epsilon(v, body):
            satisfiers = _satisfiers(model, env, v, body)
            return satisfiers[0] if satisfiers else NON_DENOTING
    raise TypeError(f"not a free-logic term: {term!r}")


def _satisfiers(model: _Evaluation, env: dict[str, str], var: str,
                body: FreeFormula) -> list[str]:
    return [d for d in model.domain if eval_formula(model, {**env, var: d}, body)]


def eval_formula(model: Model, env: dict[str, str], formula: FreeFormula) -> bool:
    if type(model) is not _Evaluation:
        model = _Evaluation(model)
    model.spend()
    match formula:
        case Pred(name, args):
            key = (name, len(args))
            if key not in model.predicates:
                raise UnknownPredicateError(f"model does not interpret {name}/{len(args)}")
            values = [eval_term(model, env, a) for a in args]
            if any(v is NON_DENOTING for v in values):
                return False
            return tuple(values) in model.predicates[key]
        case Eq(l, r):
            lv = eval_term(model, env, l)
            rv = eval_term(model, env, r)
            return lv is not NON_DENOTING and lv == rv
        case Not(f):
            return not eval_formula(model, env, f)
        case And(l, r):
            return eval_formula(model, env, l) and eval_formula(model, env, r)
        case Or(l, r):
            return eval_formula(model, env, l) or eval_formula(model, env, r)
        case Implies(l, r):
            return (not eval_formula(model, env, l)) or eval_formula(model, env, r)
        case Forall(v, body):
            return all(eval_formula(model, {**env, v: d}, body) for d in model.domain)
        case Exists(v, body):
            return any(eval_formula(model, {**env, v: d}, body) for d in model.domain)
    raise TypeError(f"not a free-logic formula: {formula!r}")


# --- random formula generators (seeded, for round-trip volume tests) ------------

ATOM_POOL = [atom(k) for k in ("she/her", "he/him", "they/them", "ze/zir", "vae/vem")]


def random_linear(rng: random.Random, depth: int) -> ll.LinearFormula:
    if depth <= 1 or rng.random() < 0.3:
        return ll.Atom(rng.choice(ATOM_POOL))
    node = rng.choice((ll.With, ll.Plus, ll.Tensor, ll.Lolli))
    return node(random_linear(rng, depth - 1), random_linear(rng, depth - 1))


def random_temporal(rng: random.Random, depth: int) -> tl.TemporalFormula:
    if depth <= 1 or rng.random() < 0.25:
        return rng.choice(
            [tl.Atom(rng.choice(ATOM_POOL)), tl.TRUE, tl.FALSE]
            + [tl.Atom(rng.choice(ATOM_POOL))] * 3
        )
    choice = rng.randrange(9)
    if choice < 3:
        node = (tl.And, tl.Or, tl.Implies)[choice]
        return node(random_temporal(rng, depth - 1), random_temporal(rng, depth - 1))
    if choice < 7:
        node = (tl.Not, tl.Box, tl.Diamond, tl.Next)[choice - 3]
        return node(random_temporal(rng, depth - 1))
    node = tl.BoxK if choice == 7 else tl.DiamondK
    return node(rng.randint(1, 5), random_temporal(rng, depth - 1))


_PREDS = (("man", 1), ("happy", 1), ("loves", 2))
_VARS = ("x", "y", "z")


def random_free_term(rng: random.Random, depth: int) -> fl.FreeTerm:
    if depth <= 1 or rng.random() < 0.5:
        return fl.Var(rng.choice(_VARS))
    node = fl.Iota if rng.random() < 0.5 else fl.Epsilon
    return node(rng.choice(_VARS), random_free(rng, depth - 1))


def random_free(rng: random.Random, depth: int) -> fl.FreeFormula:
    if depth <= 1 or rng.random() < 0.3:
        if rng.random() < 0.7:
            name, arity = rng.choice(_PREDS)
            args = tuple(random_free_term(rng, depth - 1) for _ in range(arity))
            return fl.Pred(name, args)
        return fl.Eq(random_free_term(rng, depth - 1), random_free_term(rng, depth - 1))
    choice = rng.randrange(6)
    if choice == 0:
        return fl.Not(random_free(rng, depth - 1))
    if choice < 4:
        node = (fl.And, fl.Or, fl.Implies)[choice - 1]
        return node(random_free(rng, depth - 1), random_free(rng, depth - 1))
    node = fl.Forall if choice == 4 else fl.Exists
    return node(rng.choice(_VARS), random_free(rng, depth - 1))
