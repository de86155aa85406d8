"""Free-logic formulas with definite/indefinite description terms, and their
evaluation over finite first-order models.

Terms may fail to denote. We use the negative reading: an atomic formula with
a non-denoting argument is false (and its negation therefore true). This is
the simplest total two-valued semantics and it is what decides the truth value
of descriptions built from contradictory bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import notation
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


class FreeTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Var(FreeTerm):
    name: str


@dataclass(frozen=True)
class Iota(FreeTerm):
    """The unique x satisfying the body; non-denoting otherwise."""

    var: str
    body: "FreeFormula"


@dataclass(frozen=True)
class Epsilon(FreeTerm):
    """Some fixed x satisfying the body; non-denoting if there is none.

    The witness is the first satisfier in the model's domain order, making
    evaluation deterministic and reproducible.
    """

    var: str
    body: "FreeFormula"


# --- formulas --------------------------------------------------------------


class FreeFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Pred(FreeFormula):
    name: str
    args: tuple[FreeTerm, ...]


@dataclass(frozen=True)
class Eq(FreeFormula):
    """Built-in identity over denotations; true only when both sides denote."""

    left: FreeTerm
    right: FreeTerm


@dataclass(frozen=True)
class Not(FreeFormula):
    operand: FreeFormula


@dataclass(frozen=True)
class And(FreeFormula):
    left: FreeFormula
    right: FreeFormula


@dataclass(frozen=True)
class Or(FreeFormula):
    left: FreeFormula
    right: FreeFormula


@dataclass(frozen=True)
class Implies(FreeFormula):
    left: FreeFormula
    right: FreeFormula


@dataclass(frozen=True)
class Forall(FreeFormula):
    var: str
    body: FreeFormula


@dataclass(frozen=True)
class Exists(FreeFormula):
    var: str
    body: FreeFormula


def free_vars(node: FreeTerm | FreeFormula) -> frozenset[str]:
    """Free variables of a term or formula."""
    match node:
        case Var(name):
            return frozenset((name,))
        case Iota(v, body) | Epsilon(v, body) | Forall(v, body) | Exists(v, body):
            return free_vars(body) - {v}
        case Pred(_, args):
            return frozenset().union(frozenset(), *(free_vars(a) for a in args))
        case Eq(l, r):
            return free_vars(l) | free_vars(r)
        case Not(f):
            return free_vars(f)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return free_vars(l) | free_vars(r)
    raise TypeError(f"not a free-logic node: {node!r}")


# --- rendering -------------------------------------------------------------

# Binding strength: binders weakest (their body runs as far right as it can),
# then ->, \/, /\, then !, then atoms.
INFIX = {Implies: ("->", 1), Or: ("\\/", 2), And: ("/\\", 3)}
QUANTIFIERS = {Forall: "forall", Exists: "exists"}
DESCRIPTIONS = {Iota: "iota", Epsilon: "eps"}
_NOT_PREC = 4


def _prec(formula: FreeFormula) -> int:
    if type(formula) in QUANTIFIERS:
        return 0
    return INFIX[type(formula)][1] if type(formula) in INFIX else _NOT_PREC


def render_term(term: FreeTerm) -> str:
    match term:
        case Var(name):
            return name
        case Iota(v, body) | Epsilon(v, body):
            return f"{DESCRIPTIONS[type(term)]} {v}. {render(body)}"
    raise TypeError(f"not a free-logic term: {term!r}")


def _arg(term: FreeTerm) -> str:
    # Description terms are parenthesized in argument position so their body
    # does not swallow the surrounding formula.
    text = render_term(term)
    return f"({text})" if isinstance(term, (Iota, Epsilon)) else text


def render(formula: FreeFormula) -> str:
    """Canonical ASCII syntax; round-trips through parse_free."""
    match formula:
        case Pred(name, args):
            return f"{name}({', '.join(_arg(a) for a in args)})"
        case Eq(l, r):
            return f"{_arg(l)} = {_arg(r)}"
        case Not(f):
            return "!" + notation.operand(f, _NOT_PREC, render, _prec)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return notation.infix(INFIX[type(formula)], l, r, render, _prec)
        case Forall(v, body) | Exists(v, body):
            return f"{QUANTIFIERS[type(formula)]} {v}. {render(body)}"
    raise TypeError(f"not a free-logic formula: {formula!r}")


# --- models and evaluation -------------------------------------------------

NON_DENOTING = None  # eval_term returns an individual name, or None


@dataclass
class Model:
    """Finite first-order structure. Domain order is significant: it fixes
    which satisfier an indefinite description picks."""

    domain: tuple[str, ...]
    predicates: dict[tuple[str, int], frozenset[tuple[str, ...]]] = field(
        default_factory=dict
    )

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


def check_sentence(model: Model, formula: FreeFormula) -> bool:
    """Evaluate a closed formula against a model."""
    unbound = free_vars(formula)
    if unbound:
        raise UnboundVariableError(
            f"formula has free variables: {', '.join(sorted(unbound))}"
        )
    return eval_formula(model, {}, formula)


# --- model file format -----------------------------------------------------


def parse_model(text: str) -> Model:
    """Load a model from its line format.

    ``domain: a b c`` (exactly once, order significant) and
    ``pred man/1: a b`` / ``pred loves/2: a,b b,a`` lines, whose predicate
    names are letters only; ``#`` starts a comment.
    """
    domain: tuple[str, ...] | None = None
    predicates: dict[tuple[str, int], set[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
