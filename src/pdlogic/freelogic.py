"""Free-logic formulas with definite/indefinite description terms, and their
evaluation over finite first-order models.

Terms may fail to denote. We use the negative reading: an atomic formula with
a non-denoting argument is false (and its negation therefore true). This is
the simplest total two-valued semantics and it is what decides the truth value
of descriptions built from contradictory bodies.

Terms and formulas are immutable trees of ``Node``s (see ``node``): each class
lists its fields as its ``__slots__``, and nodes compare and hash by
structure.

Evaluation remembers the value of each part of a formula under each binding of
the part's own free variables, so a formula f costs O(|f| * |D|^w)
evaluations, where w is the most free variables of any part of f (Vardi, "The
Complexity of Relational Query Languages", STOC 1982). Each evaluation that
this memo does not answer counts against a budget of ``DEFAULT_BUDGET`` per
call, past which the call raises ``ResourceLimit``. A binder scans the domain
in order and stops once its value is fixed: ``forall`` at the first falsifier,
``exists`` and ``eps`` at the first satisfier, and ``iota`` at the second.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType

from . import notation
from .notation import TIGHTEST, wrap
from .node import Node
from .prover import DEFAULT_BUDGET, ResourceLimit


class FreeLogicError(Exception):
    pass


class UnboundVariableError(FreeLogicError):
    pass


class UnknownPredicateError(FreeLogicError):
    pass


class ModelFormatError(FreeLogicError):
    pass


# --- terms -----------------------------------------------------------------


class FreeTerm(Node):
    __slots__ = ()


class Var(FreeTerm):
    __slots__ = ("name",)


class Iota(FreeTerm):
    """The unique x satisfying the body; non-denoting otherwise."""

    __slots__ = ("var", "body")  # a variable name, a FreeFormula


class Epsilon(FreeTerm):
    """Some fixed x satisfying the body; non-denoting if there is none.

    The witness is the first satisfier in the model's domain order, making
    evaluation deterministic and reproducible.
    """

    __slots__ = ("var", "body")


# --- formulas --------------------------------------------------------------


class FreeFormula(Node):
    __slots__ = ()


class Pred(FreeFormula):
    __slots__ = ("name", "args")  # a predicate name, a tuple of FreeTerms


class Eq(FreeFormula):
    """Built-in identity over denotations; true only when both sides denote."""

    __slots__ = ("left", "right")


class Not(FreeFormula):
    __slots__ = ("operand",)


class And(FreeFormula):
    __slots__ = ("left", "right")


class Or(FreeFormula):
    __slots__ = ("left", "right")


class Implies(FreeFormula):
    __slots__ = ("left", "right")


class Forall(FreeFormula):
    __slots__ = ("var", "body")


class Exists(FreeFormula):
    __slots__ = ("var", "body")


_KINDS = {FreeTerm: "term", FreeFormula: "formula"}


class _Scan:
    """One bottom-up walk over a term or formula, keyed on node identity: its
    free variables, the name and arity of each predicate in reading order, and
    the free variables, in sorted order, of each node that does not use every
    variable bound around it. Evaluation visits such a node again with the
    same values of its own free variables; a node that uses every variable
    bound around it meets each binding of them once. Variables are left out,
    as a key for one would cost as much as its value. A root that is not a
    ``kind``, a term where a formula belongs and a formula where a term does
    raise TypeError, so evaluation meets only well-formed nodes."""

    __slots__ = ("predicates", "marked", "_seen", "free")

    def __init__(self, root: FreeTerm | FreeFormula, kind: type):
        self.predicates: list[tuple[str, int]] = []
        self.marked: dict[int, tuple[str, ...]] = {}
        self._seen: dict[int, frozenset[str]] = {}
        self.free = self._walk(root, 0, frozenset(), kind)

    def _walk(self, node, depth: int, bound: frozenset[str], kind) -> frozenset[str]:
        """The free variables of ``node``, an instance of ``kind`` that sits
        under ``depth`` binders of the variables ``bound``."""
        if not isinstance(node, kind):
            raise TypeError(f"not a free-logic {_KINDS[kind]}: {node!r}")
        if id(node) in self._seen:  # a part shared by two places: their visits may agree
            names = self._seen[id(node)]
            self.marked[id(node)] = tuple(sorted(names))
            return names
        match node:
            case Var(name):
                return frozenset((name,))
            case Iota(v, body) | Epsilon(v, body) | Forall(v, body) | Exists(v, body):
                names = self._walk(body, depth + 1, bound | {v}, FreeFormula) - {v}
            case Pred(name, args):
                self.predicates.append((name, len(args)))
                names = frozenset().union(*(self._walk(a, depth, bound, FreeTerm) for a in args))
            case Eq(l, r) | And(l, r) | Or(l, r) | Implies(l, r):
                kind = FreeTerm if type(node) is Eq else FreeFormula
                names = self._walk(l, depth, bound, kind) | self._walk(r, depth, bound, kind)
            case Not(f):
                names = self._walk(f, depth, bound, FreeFormula)
            case _:
                raise TypeError(f"not a free-logic node: {node!r}")
        self._seen[id(node)] = names
        if len(names & bound) < depth:
            self.marked[id(node)] = tuple(sorted(names))
        return names


# --- rendering -------------------------------------------------------------

# Binding strength: binders weakest (their body runs as far right as it can),
# then ->, \/, /\, then the rest. Terms and formulas have a syntax each, so
# that each rejects the other; an argument binds tightest, so a description
# in one is parenthesized.
INFIX = {Implies: ("->", 1), Or: ("\\/", 2), And: ("/\\", 3)}
QUANTIFIERS = {Forall: "forall", Exists: "exists"}
DESCRIPTIONS = {Iota: "iota", Epsilon: "eps"}
_FORMULAS = (INFIX, {Not: "!"}, QUANTIFIERS, {
    Pred: lambda f: f"{f.name}({', '.join([wrap(t, _TERMS, TIGHTEST) for t in f.args])})",
    Eq: lambda f: " = ".join([wrap(t, _TERMS, TIGHTEST) for t in (f.left, f.right)]),
}, "free-logic formula", None)
_TERMS = ({}, {}, DESCRIPTIONS, {Var: lambda t: t.name}, "free-logic term", _FORMULAS)


def render_term(term: FreeTerm) -> str:
    return notation.render(term, _TERMS)


def render(formula: FreeFormula) -> str:
    """Canonical ASCII syntax; round-trips through parse_free."""
    return notation.render(formula, _FORMULAS)


# --- models and evaluation -------------------------------------------------

NON_DENOTING = None  # eval_term returns an individual name, or None


class Model(Node, defaults={"predicates": MappingProxyType({})}):
    """Finite first-order structure. Domain order is significant: it fixes
    which satisfier an indefinite description picks."""

    # a tuple of individual names; a mapping from (name, arity) to a frozenset
    # of tuples of individuals, by default an immutable empty one
    __slots__ = ("domain", "predicates")

    def __post_init__(self):
        if not self.domain:
            raise ModelFormatError("model domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ModelFormatError("model domain individuals must be distinct")
        members = set(self.domain)
        for (name, arity), tuples in self.predicates.items():
            for tup in tuples:
                if len(tup) != arity:
                    raise ModelFormatError(
                        f"predicate {name}/{arity} has a tuple of arity {len(tup)}"
                    )
                for ind in tup:
                    if ind not in members:
                        raise ModelFormatError(
                            f"predicate {name}/{arity} mentions unknown individual {ind!r}"
                        )


class _Evaluation:
    """The state of one eval_term or eval_formula call, passed down the
    recursion, so each call, in whichever thread, counts and remembers only
    its own evaluations: the model, the evaluations left of the call's budget,
    and a memo table for each node that ``_Scan`` marks, keyed on the values
    of the node's own free variables. A description nested d deep is then
    evaluated once per binding of the variables it uses, not |D|^d times.

    Before anything is evaluated, it rejects a free variable that the
    environment does not bind and a predicate that the model does not
    interpret, so neither depends on which parts evaluation reaches. Each
    evaluation that the memo does not answer counts against the proof
    search's node budget, past which the call raises ResourceLimit. Each memo
    entry is one such evaluation, so the memo never holds more entries than
    the evaluations spent."""

    __slots__ = ("domain", "predicates", "left", "marked")

    def __init__(self, model: Model, env: dict[str, str], root: FreeTerm | FreeFormula,
                 kind: type):
        self.domain = model.domain
        self.predicates = model.predicates
        self.left = DEFAULT_BUDGET
        scan = _Scan(root, kind)
        unbound = sorted(name for name in scan.free if name not in env)
        if unbound:
            raise UnboundVariableError(f"{_KINDS[kind]} has free variables: {', '.join(unbound)}")
        for name, arity in scan.predicates:
            if (name, arity) not in model.predicates:
                raise UnknownPredicateError(f"model does not interpret {name}/{arity}")
        # marked node id -> (environment -> key, memo table of the node's values)
        self.marked = {node: (itemgetter(*names) if names else _no_values, {})
                       for node, names in scan.marked.items()}


def _no_values(env: dict[str, str]) -> tuple[()]:
    return ()


_MISSING = object()  # no memo entry; None is the value of a non-denoting term

# One evaluator serves terms and formulas, and one domain scan, ``_witnesses``,
# the four binders. The evaluator spends the budget inline, and it matches bare
# class patterns and then reads attributes: a pattern that captures costs a
# __match_args__ lookup per field, and made an evaluation past the memo twice
# as dear. The scan rebinds one copy of the environment in place.


def eval_term(model: Model, env: dict[str, str], term: FreeTerm) -> str | None:
    """Denotation of a term: an individual name, or None when it does not denote."""
    return _eval(_Evaluation(model, env, term, FreeTerm), env, term)


def eval_formula(model: Model, env: dict[str, str], formula: FreeFormula) -> bool:
    """Truth of a formula under ``env``, which binds at least its free variables."""
    return _eval(_Evaluation(model, env, formula, FreeFormula), env, formula)


def check_sentence(model: Model, formula: FreeFormula) -> bool:
    """Evaluate a closed formula against a model; a free variable raises
    UnboundVariableError."""
    return eval_formula(model, {}, formula)


def _eval(ev: _Evaluation, env: dict[str, str], node: FreeTerm | FreeFormula):
    """The value of ``node``, a part that ``ev`` scanned: an individual or None
    for a term, a bool for a formula."""
    marked = ev.marked.get(id(node))
    if marked is not None:
        values, table = marked
        key = values(env)
        value = table.get(key, _MISSING)
        if value is not _MISSING:
            return value
    ev.left -= 1
    if ev.left < 0:
        raise ResourceLimit("free-logic evaluation budget exhausted")
    match node:
        case Var():
            value = env[node.name]
        case Pred():
            # An argument that does not denote makes the atom false; the
            # arguments after it are not evaluated.
            args = []
            for arg in node.args:
                args.append(_eval(ev, env, arg))
                if args[-1] is NON_DENOTING:
                    value = False
                    break
            else:
                value = tuple(args) in ev.predicates[node.name, len(args)]
        case Eq():
            lv = _eval(ev, env, node.left)
            value = lv is not NON_DENOTING and lv == _eval(ev, env, node.right)
        case Not():
            value = not _eval(ev, env, node.operand)
        case And():
            value = _eval(ev, env, node.left) and _eval(ev, env, node.right)
        case Or():
            value = _eval(ev, env, node.left) or _eval(ev, env, node.right)
        case Implies():
            value = not _eval(ev, env, node.left) or _eval(ev, env, node.right)
        case Forall():
            value = not _witnesses(ev, env, node, False, 1)
        case Exists():
            value = bool(_witnesses(ev, env, node, True, 1))
        case Iota() | Epsilon():
            found = _witnesses(ev, env, node, True, 2 if type(node) is Iota else 1)
            value = found[0] if len(found) == 1 else NON_DENOTING
    if marked is not None:
        table[key] = value
    return value


def _witnesses(ev: _Evaluation, env: dict[str, str], binder: FreeTerm | FreeFormula,
               sought: bool, enough: int) -> list[str]:
    """The first ``enough`` individuals, in domain order, that give the body of
    ``binder`` the value ``sought``, or all there are: once ``enough`` are
    found, the binder's value no longer depends on the rest."""
    env = dict(env)
    var, body = binder.var, binder.body
    found = []
    for env[var] in ev.domain:
        if _eval(ev, env, body) is sought:
            found.append(env[var])
            if len(found) == enough:
                break
    return found


# --- model file format -----------------------------------------------------


def parse_model(text: str) -> Model:
    """Load a model from its line format.

    ``domain: a b c`` (exactly once, order significant) and
    ``pred man/1: a b`` / ``pred loves/2: a,b b,a`` lines, whose predicate
    names are letters only; ``#`` starts a comment.
    """
    domain: tuple[str, ...] | None = None
    predicates: dict[tuple[str, int], set[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(notation._lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("domain:"):
            if domain is not None:
                raise ModelFormatError(f"line {lineno}: duplicate domain declaration")
            names = line[len("domain:"):].split()
            if not names:
                raise ModelFormatError(f"line {lineno}: empty domain")
            domain = tuple(names)
        elif line.split(maxsplit=1)[0] == "pred":
            head, colon, extension = line[len("pred"):].partition(":")
            if not colon:
                raise ModelFormatError(f"line {lineno}: missing ':' in pred line")
            name, slash, arity_text = head.strip().partition("/")
            digits = arity_text.isascii() and arity_text.isdigit()
            try:
                arity = int(arity_text) if digits else 0
            except ValueError:  # Python converts at most 4300 digits
                raise ModelFormatError(
                    f"line {lineno}: arity of {len(arity_text)} digits is too long"
                ) from None
            # the name is an identifier of the formula syntax: letters only
            if not (slash and name.isascii() and name.isalpha()) or arity < 1:
                raise ModelFormatError(
                    f"line {lineno}: pred declaration must look like name/arity"
                )
            tuples = set()
            for chunk in extension.split():
                tup = tuple(chunk.split(","))
                if len(tup) != arity:
                    raise ModelFormatError(
                        f"line {lineno}: tuple {chunk!r} does not have arity {arity}"
                    )
                tuples.add(tup)
            key = (name, arity)
            if key in predicates:
                raise ModelFormatError(
                    f"line {lineno}: duplicate declaration of {key[0]}/{arity}"
                )
            predicates[key] = tuples
        else:
            raise ModelFormatError(f"line {lineno}: unrecognized line {line!r}")
    if domain is None:
        raise ModelFormatError("model file has no domain declaration")
    return Model(domain, {k: frozenset(v) for k, v in predicates.items()})
