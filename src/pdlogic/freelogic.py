"""Free-logic formulas with definite/indefinite description terms, and their
evaluation over finite first-order models.

Terms may fail to denote. We use the negative reading: an atomic formula with
a non-denoting argument is false (and its negation therefore true). This is
the simplest total two-valued semantics and it is what decides the truth value
of descriptions built from contradictory bodies.

Terms and formulas are immutable trees of ``Node``s (see ``node``): each class
lists its fields as its ``__slots__``, and nodes compare and hash by
structure.

Evaluation first scopes each quantifier tightly (miniscoping: Nonnengart and
Weidenbach, "Computing Small Clause Normal Forms", Handbook of Automated
Reasoning, 2001), bottom-up, inside description bodies too, by three rules:

- ``Q x. f`` becomes ``f`` when x is not free in f;
- when only one operand of ``/\\``, ``\\/`` or ``->`` uses x, the quantifier
  moves onto that operand;
- in the antecedent of ``->`` it flips: ``forall x. A -> B`` with x only in
  A becomes ``(exists x. A) -> B``.

These rules are sound because a model's domain is nonempty and every formula is
two-valued; they change the order and the cost of evaluation, not its value.
Operands keep their order, ``!`` is left alone, and a quantifier that both
operands need stays whole, keeping its early stop. Evaluation then remembers
the value of a part of the scoped formula, under each binding of the part's own
free variables, when the part misses a variable that its parent binds, or one
that its parent uses and a binder around them binds, or when two places share
it. So a formula f costs O(|f| * |D|^w) evaluations, where w is the most free
variables of any part of f once scoped (Vardi, "The Complexity of Relational
Query Languages", STOC 1982): ``forall x. forall y. p(x) \\/ q(y)`` costs
O(|D|), as ``(forall x. p(x)) \\/ (forall y. q(y))``, but ``forall x. forall y.
p(x) \\/ q(x, y)``, which no rule splits, O(|D|^2).

Each evaluation that this memo does not answer counts against a budget of
``DEFAULT_BUDGET`` per call, past which the call raises ``ResourceLimit``. A
binder scans the domain in order and stops once its value is fixed:
``forall`` at the first falsifier, ``exists`` and ``eps`` at the first
satisfier, and ``iota`` at the second.
"""

from __future__ import annotations

from operator import is_, itemgetter
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
    """A malformed model. One that ``Model`` raises names the ``part`` at
    fault, ``"domain"`` or a predicate's ``(name, arity)``, so that
    ``parse_model`` can name its line."""

    def __init__(self, message: str, part: str | tuple[str, int] | None = None):
        super().__init__(message)
        self.part = part


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
_CONNECTIVES = (And, Or, Implies)
_DUALS = {Forall: Exists, Exists: Forall}


class _Scan:
    """Two walks over a term or formula. The first, bottom-up and keyed on
    node identity, reads the formula as written for its free variables and
    the name and arity of each predicate in reading order. It builds
    ``scoped`` by the module docstring's three rules: a vacuous binder goes,
    and a quantifier moves onto the one operand of a connective that uses its
    variable, flipping in an antecedent. No rule enters ``!``, an atom or a
    binder, and a part that no rule changes stays the same object. A root
    that is not a ``kind``, a term where a formula belongs and a formula
    where a term does raise TypeError, so evaluation meets only well-formed
    nodes.

    The second walks the finished ``scoped`` top-down. It marks a part that
    misses a variable its parent binds, or one that its parent uses and a
    binder around them binds, or that two places share: evaluation may visit
    it again with the same values of its own free variables, whose names
    ``marked`` gives in sorted order. Variables are left out, as a key for
    one would cost as much as its value."""

    __slots__ = ("predicates", "marked", "free", "scoped", "_seen", "_free")

    def __init__(self, root: FreeTerm | FreeFormula, kind: type):
        self.predicates: list[tuple[str, int]] = []
        self.marked: dict[int, tuple[str, ...]] = {}
        self._seen: dict[int, FreeTerm | FreeFormula] = {}  # a part as written -> scoped
        # each part scoped or built on the way, and its free variables: kept
        # alive, so that no two parts share an id
        self._free: dict[int, tuple[FreeTerm | FreeFormula, frozenset[str]]] = {}
        self.scoped = self._walk(root, kind)
        self.free = self._free[id(self.scoped)][1]
        self._mark(self.scoped, frozenset(), frozenset(), set())

    def _walk(self, node, kind):
        """``node``, an instance of ``kind``, scoped."""
        if not isinstance(node, kind):
            raise TypeError(f"not a free-logic {_KINDS[kind]}: {node!r}")
        scoped = self._seen.get(id(node))
        if scoped is not None:
            return scoped
        cls = type(node)
        if cls is Var:
            scoped = self._made(node, frozenset((node.name,)))
        elif cls is Pred:
            self.predicates.append((node.name, len(node.args)))
            args = tuple([self._walk(arg, FreeTerm) for arg in node.args])
            scoped = self._made(node if all(map(is_, args, node.args)) else Pred(node.name, args),
                                frozenset().union(*[self._free[id(arg)][1] for arg in args]))
        elif cls is Not:
            operand = self._walk(node.operand, FreeFormula)
            scoped = self._made(node if operand is node.operand else Not(operand),
                                self._free[id(operand)][1])
        elif cls is Eq or cls in _CONNECTIVES:
            part = FreeTerm if cls is Eq else FreeFormula
            left = self._walk(node.left, part)
            right = self._walk(node.right, part)
            same = left is node.left and right is node.right
            scoped = self._made(node if same else cls(left, right),
                                self._free[id(left)][1] | self._free[id(right)][1])
        elif cls in _DUALS:
            scoped = self._bind(cls, node.var, self._walk(node.body, FreeFormula), node)
        elif cls is Iota or cls is Epsilon:
            body = self._walk(node.body, FreeFormula)
            scoped = self._made(node if body is node.body else cls(node.var, body),
                                self._free[id(body)][1] - {node.var})
        else:
            raise TypeError(f"not a free-logic node: {node!r}")
        self._seen[id(node)] = scoped
        return scoped

    def _made(self, node, names: frozenset[str]):
        self._free[id(node)] = node, names
        return node

    def _bind(self, cls: type, var: str, body: FreeFormula,
              written: FreeFormula | None = None) -> FreeFormula:
        """``cls(var, body)``, a quantifier over a scoped body, with its scope
        made tight; ``written`` if that is what it is."""
        names = self._free[id(body)][1]
        if var not in names:
            return body
        kind = type(body)
        if kind in _CONNECTIVES:
            left, right = body.left, body.right
            if var not in self._free[id(right)][1]:
                left = self._bind(_DUALS[cls] if kind is Implies else cls, var, left)
            elif var not in self._free[id(left)][1]:
                right = self._bind(cls, var, right)
            if left is not body.left or right is not body.right:
                return self._made(kind(left, right),
                                  self._free[id(left)][1] | self._free[id(right)][1])
        if written is None or written.body is not body:
            written = cls(var, body)
        return self._made(written, names - {var})

    def _mark(self, node, needed: frozenset[str], bound: frozenset[str],
              placed: set[int]) -> None:
        """Mark ``node``, a part of the scoped formula under binders of the
        variables ``bound`` whose parent needs the variables ``needed``, and
        the parts below it; ``placed`` holds the parts already met."""
        cls = type(node)
        if cls is Var:
            return
        names = self._free[id(node)][1]
        if id(node) in placed or not needed <= names:
            self.marked[id(node)] = tuple(sorted(names))
            if id(node) in placed:  # a part shared by two places
                return
        placed.add(id(node))
        needed = names & bound
        if cls is Pred:
            kids = node.args
        elif cls is Not:
            kids = (node.operand,)
        elif cls is Eq or cls in _CONNECTIVES:
            kids = (node.left, node.right)
        else:  # a binder
            kids = (node.body,)
            bound = bound | {node.var}
            needed = needed | {node.var}
        for kid in kids:
            self._mark(kid, needed, bound, placed)


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
            raise ModelFormatError("model domain must be nonempty", "domain")
        if len(set(self.domain)) != len(self.domain):
            raise ModelFormatError("model domain individuals must be distinct", "domain")
        members = set(self.domain)
        for (name, arity), tuples in self.predicates.items():
            for tup in tuples:
                if len(tup) != arity:
                    raise ModelFormatError(
                        f"predicate {name}/{arity} has a tuple of arity {len(tup)}", (name, arity)
                    )
                for ind in tup:
                    if ind not in members:
                        raise ModelFormatError(
                            f"predicate {name}/{arity} mentions unknown individual {ind!r}",
                            (name, arity),
                        )


class _Evaluation:
    """The state of one eval_term or eval_formula call, passed down the
    recursion, so each call, in whichever thread, counts and remembers only
    its own evaluations: the model, the part to evaluate with its quantifier
    scopes made tight, the evaluations left of the call's budget, and a memo
    table for each node that ``_Scan`` marks, keyed on the values of the
    node's own free variables. A description nested d deep is then evaluated
    once per binding of the variables it uses, not |D|^d times.

    Before anything is evaluated, it rejects a free variable that the
    environment does not bind and a predicate that the model does not
    interpret, as the formula is written, so neither depends on which parts
    evaluation reaches. Each evaluation of the scoped formula that the memo
    does not answer counts against the proof search's node budget, past which
    the call raises ResourceLimit. Each memo entry is one such evaluation, so
    the memo never holds more entries than the evaluations spent."""

    __slots__ = ("domain", "predicates", "left", "marked", "root")

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
        self.root = scan.scoped
        # marked node id -> (environment -> key, memo table of the node's values)
        self.marked = {node: (itemgetter(*names) if names else _no_values, {})
                       for node, names in scan.marked.items()}


def _no_values(env: dict[str, str]) -> tuple[()]:
    return ()


_MISSING = object()  # no memo entry; None is the value of a non-denoting term
_EXHAUSTED = "free-logic evaluation budget exhausted"

# One evaluator serves terms and formulas, and one domain scan, ``_witnesses``,
# the four binders. The evaluator spends the budget inline and dispatches on
# the node's class, most frequent first: a ``match`` tries each class pattern
# in turn. An atom reads a variable among its arguments from the environment
# in place, where a call would cost more than the read, and spends one
# evaluation on it as the call would. The scan rebinds one copy of the
# environment in place.


def eval_term(model: Model, env: dict[str, str], term: FreeTerm) -> str | None:
    """Denotation of a term: an individual name, or None when it does not denote."""
    ev = _Evaluation(model, env, term, FreeTerm)
    return _eval(ev, env, ev.root)


def eval_formula(model: Model, env: dict[str, str], formula: FreeFormula) -> bool:
    """Truth of a formula under ``env``, which binds at least its free variables."""
    ev = _Evaluation(model, env, formula, FreeFormula)
    return _eval(ev, env, ev.root)


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
        raise ResourceLimit(_EXHAUSTED)
    kind = type(node)
    if kind is Pred:
        # An argument that does not denote makes the atom false; the
        # arguments after it are not evaluated.
        args = []
        for arg in node.args:
            if type(arg) is Var:
                ev.left -= 1
                if ev.left < 0:
                    raise ResourceLimit(_EXHAUSTED)
                args.append(env[arg.name])
            else:
                value = _eval(ev, env, arg)
                if value is NON_DENOTING:
                    value = False
                    break
                args.append(value)
        else:
            value = tuple(args) in ev.predicates[node.name, len(args)]
    elif kind is Not:
        value = not _eval(ev, env, node.operand)
    elif kind is And:
        value = _eval(ev, env, node.left) and _eval(ev, env, node.right)
    elif kind is Or:
        value = _eval(ev, env, node.left) or _eval(ev, env, node.right)
    elif kind is Implies:
        value = not _eval(ev, env, node.left) or _eval(ev, env, node.right)
    elif kind is Forall:
        value = not _witnesses(ev, env, node, False, 1)
    elif kind is Exists:
        value = bool(_witnesses(ev, env, node, True, 1))
    elif kind is Eq:
        lv = _eval(ev, env, node.left)
        value = lv is not NON_DENOTING and lv == _eval(ev, env, node.right)
    elif kind is Var:
        value = env[node.name]
    else:  # Iota or Epsilon
        found = _witnesses(ev, env, node, True, 2 if kind is Iota else 1)
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
    lines: dict[str | tuple[str, int], int] = {}  # the line of the domain and of each pred
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
            lines["domain"] = lineno
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
            lines[key] = lineno
        else:
            raise ModelFormatError(f"line {lineno}: unrecognized line {line!r}")
    if domain is None:
        raise ModelFormatError("model file has no domain declaration")
    try:
        return Model(domain, {k: frozenset(v) for k, v in predicates.items()})
    except ModelFormatError as exc:
        raise ModelFormatError(f"line {lines[exc.part]}: {exc}") from None
