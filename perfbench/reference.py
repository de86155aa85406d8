"""Expected answers that do not come from the code under test.

The benchmark builds its inputs as small tuple trees, prints them with the
canonical printers below, and decides the expected verdict here or with the
naive derivability search in ``tests/oracles.py``. Nothing in this module
imports ``pdlogic``.

Tuple trees:
  linear    ("atom", "a/b") | (op, left, right), op in "*", "&", "(+)", "-o"
  temporal  ("atom", k) | ("true",) | ("false",) | (op, left, right) with op in
            "->", "\\/", "/\\" | (prefix, operand) with prefix in "!", "[]",
            "<>", "()" | ("[]<=", k, operand) | ("<><=", k, operand)
  free      ("pred", name, terms) | ("eq", t, t) | ("!", f) | (op, f, f) |
            ("forall"|"exists", var, f); terms ("var", v) | ("iota"|"eps", v, f)
"""

from __future__ import annotations

# --- canonical printers -------------------------------------------------------
# Every binary operator of every family is right-associative: a left operand is
# parenthesized when it binds no tighter than its parent, a right operand only
# when it binds strictly looser.

LINEAR_PREC = {"*": 1, "&": 2, "(+)": 3, "-o": 4}
BOOL_PREC = {"->": 1, "\\/": 2, "/\\": 3}
UNARY_PREC = 4
LEAF_PREC = 5

LINEAR_ALIAS = {"*": "⊗", "(+)": "⊕", "-o": "⊸"}
BOOL_ALIAS = {"->": "→", "\\/": "∨", "/\\": "∧"}
TEMPORAL_ALIAS = {"!": "¬", "[]": "□", "<>": "◇", "()": "○"}


def _wrap(text: str, yes: bool) -> str:
    return f"({text})" if yes else text


def linear_text(f, loose: bool = False) -> str:
    """Canonical text; ``loose`` gives an equivalent input spelling with
    Unicode connectives and redundant parentheses."""
    if f[0] == "atom":
        return f[1]
    op, left, right = f
    prec = LINEAR_PREC[op]
    lhs = linear_text(left, loose)
    rhs = linear_text(right, loose)
    if loose:
        return f"({lhs}){LINEAR_ALIAS.get(op, op)}({rhs})"
    lhs = _wrap(lhs, _linear_prec(left) <= prec)
    rhs = _wrap(rhs, _linear_prec(right) < prec)
    return f"{lhs} {op} {rhs}"


def _linear_prec(f) -> int:
    return LEAF_PREC if f[0] == "atom" else LINEAR_PREC[f[0]]


def sequent_text(context, goal) -> str:
    ctx = ", ".join(linear_text(f) for f in context)
    return f"{ctx} |- {linear_text(goal)}" if ctx else f"|- {linear_text(goal)}"


def temporal_text(f, loose: bool = False) -> str:
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("true", "false"):
        return kind
    if kind in BOOL_PREC:
        _, left, right = f
        prec = BOOL_PREC[kind]
        lhs = temporal_text(left, loose)
        rhs = temporal_text(right, loose)
        if loose:
            return f"({lhs}) {BOOL_ALIAS[kind]} ({rhs})"
        lhs = _wrap(lhs, _temporal_prec(left) <= prec)
        rhs = _wrap(rhs, _temporal_prec(right) < prec)
        return f"{lhs} {kind} {rhs}"
    if kind in ("[]<=", "<><="):
        prefix, operand = f"{kind}{f[1]} ", f[2]
    else:
        operand = f[1]
        prefix = kind if kind == "!" else kind + " "
        if loose:
            prefix = TEMPORAL_ALIAS[kind]
    body = temporal_text(operand, loose)
    if loose:
        return f"{prefix}({body})"
    return prefix + _wrap(body, _temporal_prec(operand) < UNARY_PREC)


def _temporal_prec(f) -> int:
    if f[0] in BOOL_PREC:
        return BOOL_PREC[f[0]]
    if f[0] in ("atom", "true", "false"):
        return LEAF_PREC
    return UNARY_PREC


def free_text(f, loose: bool = False) -> str:
    kind = f[0]
    if kind == "pred":
        return f"{f[1]}({', '.join(_free_arg(t, loose) for t in f[2])})"
    if kind == "eq":
        return f"{_free_arg(f[1], loose)} = {_free_arg(f[2], loose)}"
    if kind == "!":
        body = free_text(f[1], loose)
        if loose:
            return f"¬({body})"
        return "!" + _wrap(body, _free_prec(f[1]) < UNARY_PREC)
    if kind in BOOL_PREC:
        _, left, right = f
        prec = BOOL_PREC[kind]
        lhs = free_text(left, loose)
        rhs = free_text(right, loose)
        if loose:
            return f"({lhs}) {BOOL_ALIAS[kind]} ({rhs})"
        lhs = _wrap(lhs, _free_prec(left) <= prec)
        rhs = _wrap(rhs, _free_prec(right) < prec)
        return f"{lhs} {kind} {rhs}"
    _, var, body = f  # forall / exists
    return f"{kind} {var}. {free_text(body, loose)}"


def free_term_text(t, loose: bool = False) -> str:
    if t[0] == "var":
        return t[1]
    binder = t[0]
    if loose:
        binder = {"iota": "ι", "eps": "ε"}[binder]
        return f"{binder} {t[1]}. ({free_text(t[2], loose)})"
    return f"{binder} {t[1]}. {free_text(t[2])}"


def _free_arg(t, loose: bool) -> str:
    return _wrap(free_term_text(t, loose), t[0] != "var")


def _free_prec(f) -> int:
    if f[0] in ("forall", "exists"):
        return 0
    if f[0] in BOOL_PREC:
        return BOOL_PREC[f[0]]
    if f[0] == "!":
        return UNARY_PREC
    return LEAF_PREC


# --- free logic: negative semantics over a finite model ------------------------


def free_eval(domain, preds, env, f) -> bool:
    """Truth of a formula; an atomic formula with a non-denoting argument is
    false. ``preds`` maps (name, arity) to a set of tuples."""
    kind = f[0]
    if kind == "pred":
        values = tuple(free_denote(domain, preds, env, t) for t in f[2])
        return None not in values and values in preds[(f[1], len(f[2]))]
    if kind == "eq":
        left = free_denote(domain, preds, env, f[1])
        return left is not None and left == free_denote(domain, preds, env, f[2])
    if kind == "!":
        return not free_eval(domain, preds, env, f[1])
    if kind == "/\\":
        return free_eval(domain, preds, env, f[1]) and free_eval(domain, preds, env, f[2])
    if kind == "\\/":
        return free_eval(domain, preds, env, f[1]) or free_eval(domain, preds, env, f[2])
    if kind == "->":
        return (not free_eval(domain, preds, env, f[1])) or free_eval(domain, preds, env, f[2])
    quantifier = all if kind == "forall" else any
    return quantifier(free_eval(domain, preds, {**env, f[1]: d}, f[2]) for d in domain)


def free_denote(domain, preds, env, t):
    """The individual a term denotes, or None. An iota term denotes its unique
    satisfier; an eps term its first satisfier in domain order."""
    if t[0] == "var":
        return env[t[1]]
    satisfiers = [d for d in domain if free_eval(domain, preds, {**env, t[1]: d}, t[2])]
    if t[0] == "iota":
        return satisfiers[0] if len(satisfiers) == 1 else None
    return satisfiers[0] if satisfiers else None


# --- temporal shapes: closed-form verdicts ---------------------------------------
# A trace is a list of sets of atom keys.


def eventually_always(trace, x) -> bool:
    """``[] <> x`` holds iff the trace is empty or x is in its last utterance."""
    return not trace or x in trace[-1]


def response_within(trace, trigger, answer, window) -> bool:
    """``[] (trigger -> <><=window answer)``: every trigger is answered within
    the window, the trigger's own utterance included, clipped at trace end."""
    return all(
        any(answer in u for u in trace[i:i + window])
        for i, u in enumerate(trace)
        if trigger in u
    )


def bounded_always(trace, x, k) -> bool:
    """``[]<=k x`` on a nonempty trace: x in each of the first k utterances."""
    return all(x in u for u in trace[:k])


def stepwise_lines(shape: str, trace, x) -> tuple[str, int]:
    """Expected ``pdlogic monitor --mode stepwise`` output and exit status for
    the shapes ``[] x``, ``<> x`` and ``[] <> x``: a progression monitor turns
    conclusive at the first utterance that settles the formula and keeps that
    verdict; an inconclusive end appends the end-of-trace verdict."""
    statuses = []
    settled = None
    for u in trace:
        if settled is None:
            if shape == "always" and x not in u:
                settled = "Violated"
            elif shape == "eventually" and x in u:
                settled = "Satisfied"
        statuses.append(settled or "Inconclusive")
    if settled is None:
        if shape == "always":
            final = "Satisfied"
        elif shape == "eventually":
            final = "Violated"
        else:
            final = "Satisfied" if eventually_always(trace, x) else "Violated"
        statuses.append(final)
    out = "".join(f"{i}\t{s}\n" for i, s in enumerate(statuses))
    return out, 0 if statuses[-1] == "Satisfied" else 1


# --- proofs of the tensor-permutation family ------------------------------------


def tensor_perm_proof(atoms) -> str:
    """Proof text of ``a1, ..., an |- an * ... * a1`` (distinct atoms), in the
    ``rule | sequent`` format with two-space indentation per level."""
    lines = []
    ctx = list(atoms)
    depth = 0
    while len(ctx) > 1:
        goal = list(reversed(ctx))
        pad = "  " * depth
        lines.append(f"{pad}TensorR | {', '.join(ctx)} |- {' * '.join(goal)}")
        lines.append(f"{pad}  Id | {goal[0]} |- {goal[0]}")
        ctx = ctx[:-1]
        depth += 1
    lines.append(f"{'  ' * depth}Id | {ctx[0]} |- {ctx[0]}")
    return "\n".join(lines) + "\n"
