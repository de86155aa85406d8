"""Precedence matrix: the exact rendering of every binary connective nested in
every other one, on either side, and of every prefix operator and binder over
every binary connective.

Round-trip properties cannot see a superfluous pair of parentheses (the parser
accepts it); these golden strings can.
"""

import pytest

from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import atom
from pdlogic.parsing import parse_free, parse_linear, parse_temporal

A, B, C = atom("a/b"), atom("c/d"), atom("e/f")

LINEAR_BINARY = (ll.Tensor, ll.With, ll.Plus, ll.Lolli)
TEMPORAL_BINARY = (tl.And, tl.Or, tl.Implies)
TEMPORAL_PREFIX = {
    "Not": tl.Not,
    "Box": tl.Box,
    "Diamond": tl.Diamond,
    "Next": tl.Next,
    "BoxK": lambda f: tl.BoxK(3, f),
    "DiamondK": lambda f: tl.DiamondK(2, f),
}
FREE_BINARY = (fl.And, fl.Or, fl.Implies)
FREE_PREFIX = {
    "Not": fl.Not,
    "Forall": lambda f: fl.Forall("x", f),
    "Exists": lambda f: fl.Exists("x", f),
    "IotaArg": lambda f: fl.Pred("r", (fl.Iota("x", f),)),
    "EpsEq": lambda f: fl.Eq(fl.Var("y"), fl.Epsilon("x", f)),
}


def _binary_matrix(prefix, ops, a, b, c):
    for outer in ops:
        for inner in ops:
            name = f"{prefix}.{outer.__name__}/{inner.__name__}"
            yield f"{name}.left", outer(inner(a, b), c)
            yield f"{name}.right", outer(a, inner(b, c))


def _prefix_matrix(prefix, unary, ops, a, b):
    for uname, make in unary.items():
        for op in ops:
            yield f"{prefix}.{uname}/{op.__name__}", make(op(a, b))


def cases():
    """(family, id, formula) for every cell of the matrix."""
    la, lb, lc = ll.Atom(A), ll.Atom(B), ll.Atom(C)
    for name, f in _binary_matrix("linear", LINEAR_BINARY, la, lb, lc):
        yield "linear", name, f

    ta, tb, tc = tl.Atom(A), tl.Atom(B), tl.Atom(C)
    yield from (("temporal", name, f) for name, f in
                _binary_matrix("temporal", TEMPORAL_BINARY, ta, tb, tc))
    yield from (("temporal", name, f) for name, f in
                _prefix_matrix("temporal", TEMPORAL_PREFIX, TEMPORAL_BINARY, ta, tb))
    for uname, make in TEMPORAL_PREFIX.items():
        for op in TEMPORAL_BINARY:
            name = f"temporal.{op.__name__}/{uname}"
            yield "temporal", f"{name}.left", op(make(ta), tb)
            yield "temporal", f"{name}.right", op(ta, make(tb))
        for inner_name, inner in TEMPORAL_PREFIX.items():
            yield "temporal", f"temporal.{uname}/{inner_name}", make(inner(ta))

    p, q, r = (fl.Pred(n, (fl.Var("x"),)) for n in "pqr")
    yield from (("free", name, f) for name, f in
                _binary_matrix("free", FREE_BINARY, p, q, r))
    yield from (("free", name, f) for name, f in
                _prefix_matrix("free", FREE_PREFIX, FREE_BINARY, p, q))
    for uname, make in FREE_PREFIX.items():
        for op in FREE_BINARY:
            name = f"free.{op.__name__}/{uname}"
            yield "free", f"{name}.left", op(make(p), q)
            yield "free", f"{name}.right", op(p, make(q))


SYNTAX = {
    "linear": (ll.render, parse_linear),
    "temporal": (tl.render, parse_temporal),
    "free": (fl.render, parse_free),
}

GOLDEN = {
    "linear.Tensor/Tensor.left": "(a/b * c/d) * e/f",
    "linear.Tensor/Tensor.right": "a/b * c/d * e/f",
    "linear.Tensor/With.left": "a/b & c/d * e/f",
    "linear.Tensor/With.right": "a/b * c/d & e/f",
    "linear.Tensor/Plus.left": "a/b (+) c/d * e/f",
    "linear.Tensor/Plus.right": "a/b * c/d (+) e/f",
    "linear.Tensor/Lolli.left": "a/b -o c/d * e/f",
    "linear.Tensor/Lolli.right": "a/b * c/d -o e/f",
    "linear.With/Tensor.left": "(a/b * c/d) & e/f",
    "linear.With/Tensor.right": "a/b & (c/d * e/f)",
    "linear.With/With.left": "(a/b & c/d) & e/f",
    "linear.With/With.right": "a/b & c/d & e/f",
    "linear.With/Plus.left": "a/b (+) c/d & e/f",
    "linear.With/Plus.right": "a/b & c/d (+) e/f",
    "linear.With/Lolli.left": "a/b -o c/d & e/f",
    "linear.With/Lolli.right": "a/b & c/d -o e/f",
    "linear.Plus/Tensor.left": "(a/b * c/d) (+) e/f",
    "linear.Plus/Tensor.right": "a/b (+) (c/d * e/f)",
    "linear.Plus/With.left": "(a/b & c/d) (+) e/f",
    "linear.Plus/With.right": "a/b (+) (c/d & e/f)",
    "linear.Plus/Plus.left": "(a/b (+) c/d) (+) e/f",
    "linear.Plus/Plus.right": "a/b (+) c/d (+) e/f",
    "linear.Plus/Lolli.left": "a/b -o c/d (+) e/f",
    "linear.Plus/Lolli.right": "a/b (+) c/d -o e/f",
    "linear.Lolli/Tensor.left": "(a/b * c/d) -o e/f",
    "linear.Lolli/Tensor.right": "a/b -o (c/d * e/f)",
    "linear.Lolli/With.left": "(a/b & c/d) -o e/f",
    "linear.Lolli/With.right": "a/b -o (c/d & e/f)",
    "linear.Lolli/Plus.left": "(a/b (+) c/d) -o e/f",
    "linear.Lolli/Plus.right": "a/b -o (c/d (+) e/f)",
    "linear.Lolli/Lolli.left": "(a/b -o c/d) -o e/f",
    "linear.Lolli/Lolli.right": "a/b -o c/d -o e/f",
    "temporal.And/And.left": "(a/b /\\ c/d) /\\ e/f",
    "temporal.And/And.right": "a/b /\\ c/d /\\ e/f",
    "temporal.And/Or.left": "(a/b \\/ c/d) /\\ e/f",
    "temporal.And/Or.right": "a/b /\\ (c/d \\/ e/f)",
    "temporal.And/Implies.left": "(a/b -> c/d) /\\ e/f",
    "temporal.And/Implies.right": "a/b /\\ (c/d -> e/f)",
    "temporal.Or/And.left": "a/b /\\ c/d \\/ e/f",
    "temporal.Or/And.right": "a/b \\/ c/d /\\ e/f",
    "temporal.Or/Or.left": "(a/b \\/ c/d) \\/ e/f",
    "temporal.Or/Or.right": "a/b \\/ c/d \\/ e/f",
    "temporal.Or/Implies.left": "(a/b -> c/d) \\/ e/f",
    "temporal.Or/Implies.right": "a/b \\/ (c/d -> e/f)",
    "temporal.Implies/And.left": "a/b /\\ c/d -> e/f",
    "temporal.Implies/And.right": "a/b -> c/d /\\ e/f",
    "temporal.Implies/Or.left": "a/b \\/ c/d -> e/f",
    "temporal.Implies/Or.right": "a/b -> c/d \\/ e/f",
    "temporal.Implies/Implies.left": "(a/b -> c/d) -> e/f",
    "temporal.Implies/Implies.right": "a/b -> c/d -> e/f",
    "temporal.Not/And": "!(a/b /\\ c/d)",
    "temporal.Not/Or": "!(a/b \\/ c/d)",
    "temporal.Not/Implies": "!(a/b -> c/d)",
    "temporal.Box/And": "[] (a/b /\\ c/d)",
    "temporal.Box/Or": "[] (a/b \\/ c/d)",
    "temporal.Box/Implies": "[] (a/b -> c/d)",
    "temporal.Diamond/And": "<> (a/b /\\ c/d)",
    "temporal.Diamond/Or": "<> (a/b \\/ c/d)",
    "temporal.Diamond/Implies": "<> (a/b -> c/d)",
    "temporal.Next/And": "() (a/b /\\ c/d)",
    "temporal.Next/Or": "() (a/b \\/ c/d)",
    "temporal.Next/Implies": "() (a/b -> c/d)",
    "temporal.BoxK/And": "[]<=3 (a/b /\\ c/d)",
    "temporal.BoxK/Or": "[]<=3 (a/b \\/ c/d)",
    "temporal.BoxK/Implies": "[]<=3 (a/b -> c/d)",
    "temporal.DiamondK/And": "<><=2 (a/b /\\ c/d)",
    "temporal.DiamondK/Or": "<><=2 (a/b \\/ c/d)",
    "temporal.DiamondK/Implies": "<><=2 (a/b -> c/d)",
    "temporal.And/Not.left": "!a/b /\\ c/d",
    "temporal.And/Not.right": "a/b /\\ !c/d",
    "temporal.Or/Not.left": "!a/b \\/ c/d",
    "temporal.Or/Not.right": "a/b \\/ !c/d",
    "temporal.Implies/Not.left": "!a/b -> c/d",
    "temporal.Implies/Not.right": "a/b -> !c/d",
    "temporal.Not/Not": "!!a/b",
    "temporal.Not/Box": "![] a/b",
    "temporal.Not/Diamond": "!<> a/b",
    "temporal.Not/Next": "!() a/b",
    "temporal.Not/BoxK": "![]<=3 a/b",
    "temporal.Not/DiamondK": "!<><=2 a/b",
    "temporal.And/Box.left": "[] a/b /\\ c/d",
    "temporal.And/Box.right": "a/b /\\ [] c/d",
    "temporal.Or/Box.left": "[] a/b \\/ c/d",
    "temporal.Or/Box.right": "a/b \\/ [] c/d",
    "temporal.Implies/Box.left": "[] a/b -> c/d",
    "temporal.Implies/Box.right": "a/b -> [] c/d",
    "temporal.Box/Not": "[] !a/b",
    "temporal.Box/Box": "[] [] a/b",
    "temporal.Box/Diamond": "[] <> a/b",
    "temporal.Box/Next": "[] () a/b",
    "temporal.Box/BoxK": "[] []<=3 a/b",
    "temporal.Box/DiamondK": "[] <><=2 a/b",
    "temporal.And/Diamond.left": "<> a/b /\\ c/d",
    "temporal.And/Diamond.right": "a/b /\\ <> c/d",
    "temporal.Or/Diamond.left": "<> a/b \\/ c/d",
    "temporal.Or/Diamond.right": "a/b \\/ <> c/d",
    "temporal.Implies/Diamond.left": "<> a/b -> c/d",
    "temporal.Implies/Diamond.right": "a/b -> <> c/d",
    "temporal.Diamond/Not": "<> !a/b",
    "temporal.Diamond/Box": "<> [] a/b",
    "temporal.Diamond/Diamond": "<> <> a/b",
    "temporal.Diamond/Next": "<> () a/b",
    "temporal.Diamond/BoxK": "<> []<=3 a/b",
    "temporal.Diamond/DiamondK": "<> <><=2 a/b",
    "temporal.And/Next.left": "() a/b /\\ c/d",
    "temporal.And/Next.right": "a/b /\\ () c/d",
    "temporal.Or/Next.left": "() a/b \\/ c/d",
    "temporal.Or/Next.right": "a/b \\/ () c/d",
    "temporal.Implies/Next.left": "() a/b -> c/d",
    "temporal.Implies/Next.right": "a/b -> () c/d",
    "temporal.Next/Not": "() !a/b",
    "temporal.Next/Box": "() [] a/b",
    "temporal.Next/Diamond": "() <> a/b",
    "temporal.Next/Next": "() () a/b",
    "temporal.Next/BoxK": "() []<=3 a/b",
    "temporal.Next/DiamondK": "() <><=2 a/b",
    "temporal.And/BoxK.left": "[]<=3 a/b /\\ c/d",
    "temporal.And/BoxK.right": "a/b /\\ []<=3 c/d",
    "temporal.Or/BoxK.left": "[]<=3 a/b \\/ c/d",
    "temporal.Or/BoxK.right": "a/b \\/ []<=3 c/d",
    "temporal.Implies/BoxK.left": "[]<=3 a/b -> c/d",
    "temporal.Implies/BoxK.right": "a/b -> []<=3 c/d",
    "temporal.BoxK/Not": "[]<=3 !a/b",
    "temporal.BoxK/Box": "[]<=3 [] a/b",
    "temporal.BoxK/Diamond": "[]<=3 <> a/b",
    "temporal.BoxK/Next": "[]<=3 () a/b",
    "temporal.BoxK/BoxK": "[]<=3 []<=3 a/b",
    "temporal.BoxK/DiamondK": "[]<=3 <><=2 a/b",
    "temporal.And/DiamondK.left": "<><=2 a/b /\\ c/d",
    "temporal.And/DiamondK.right": "a/b /\\ <><=2 c/d",
    "temporal.Or/DiamondK.left": "<><=2 a/b \\/ c/d",
    "temporal.Or/DiamondK.right": "a/b \\/ <><=2 c/d",
    "temporal.Implies/DiamondK.left": "<><=2 a/b -> c/d",
    "temporal.Implies/DiamondK.right": "a/b -> <><=2 c/d",
    "temporal.DiamondK/Not": "<><=2 !a/b",
    "temporal.DiamondK/Box": "<><=2 [] a/b",
    "temporal.DiamondK/Diamond": "<><=2 <> a/b",
    "temporal.DiamondK/Next": "<><=2 () a/b",
    "temporal.DiamondK/BoxK": "<><=2 []<=3 a/b",
    "temporal.DiamondK/DiamondK": "<><=2 <><=2 a/b",
    "free.And/And.left": "(p(x) /\\ q(x)) /\\ r(x)",
    "free.And/And.right": "p(x) /\\ q(x) /\\ r(x)",
    "free.And/Or.left": "(p(x) \\/ q(x)) /\\ r(x)",
    "free.And/Or.right": "p(x) /\\ (q(x) \\/ r(x))",
    "free.And/Implies.left": "(p(x) -> q(x)) /\\ r(x)",
    "free.And/Implies.right": "p(x) /\\ (q(x) -> r(x))",
    "free.Or/And.left": "p(x) /\\ q(x) \\/ r(x)",
    "free.Or/And.right": "p(x) \\/ q(x) /\\ r(x)",
    "free.Or/Or.left": "(p(x) \\/ q(x)) \\/ r(x)",
    "free.Or/Or.right": "p(x) \\/ q(x) \\/ r(x)",
    "free.Or/Implies.left": "(p(x) -> q(x)) \\/ r(x)",
    "free.Or/Implies.right": "p(x) \\/ (q(x) -> r(x))",
    "free.Implies/And.left": "p(x) /\\ q(x) -> r(x)",
    "free.Implies/And.right": "p(x) -> q(x) /\\ r(x)",
    "free.Implies/Or.left": "p(x) \\/ q(x) -> r(x)",
    "free.Implies/Or.right": "p(x) -> q(x) \\/ r(x)",
    "free.Implies/Implies.left": "(p(x) -> q(x)) -> r(x)",
    "free.Implies/Implies.right": "p(x) -> q(x) -> r(x)",
    "free.Not/And": "!(p(x) /\\ q(x))",
    "free.Not/Or": "!(p(x) \\/ q(x))",
    "free.Not/Implies": "!(p(x) -> q(x))",
    "free.Forall/And": "forall x. p(x) /\\ q(x)",
    "free.Forall/Or": "forall x. p(x) \\/ q(x)",
    "free.Forall/Implies": "forall x. p(x) -> q(x)",
    "free.Exists/And": "exists x. p(x) /\\ q(x)",
    "free.Exists/Or": "exists x. p(x) \\/ q(x)",
    "free.Exists/Implies": "exists x. p(x) -> q(x)",
    "free.IotaArg/And": "r((iota x. p(x) /\\ q(x)))",
    "free.IotaArg/Or": "r((iota x. p(x) \\/ q(x)))",
    "free.IotaArg/Implies": "r((iota x. p(x) -> q(x)))",
    "free.EpsEq/And": "y = (eps x. p(x) /\\ q(x))",
    "free.EpsEq/Or": "y = (eps x. p(x) \\/ q(x))",
    "free.EpsEq/Implies": "y = (eps x. p(x) -> q(x))",
    "free.And/Not.left": "!p(x) /\\ q(x)",
    "free.And/Not.right": "p(x) /\\ !q(x)",
    "free.Or/Not.left": "!p(x) \\/ q(x)",
    "free.Or/Not.right": "p(x) \\/ !q(x)",
    "free.Implies/Not.left": "!p(x) -> q(x)",
    "free.Implies/Not.right": "p(x) -> !q(x)",
    "free.And/Forall.left": "(forall x. p(x)) /\\ q(x)",
    "free.And/Forall.right": "p(x) /\\ (forall x. q(x))",
    "free.Or/Forall.left": "(forall x. p(x)) \\/ q(x)",
    "free.Or/Forall.right": "p(x) \\/ (forall x. q(x))",
    "free.Implies/Forall.left": "(forall x. p(x)) -> q(x)",
    "free.Implies/Forall.right": "p(x) -> (forall x. q(x))",
    "free.And/Exists.left": "(exists x. p(x)) /\\ q(x)",
    "free.And/Exists.right": "p(x) /\\ (exists x. q(x))",
    "free.Or/Exists.left": "(exists x. p(x)) \\/ q(x)",
    "free.Or/Exists.right": "p(x) \\/ (exists x. q(x))",
    "free.Implies/Exists.left": "(exists x. p(x)) -> q(x)",
    "free.Implies/Exists.right": "p(x) -> (exists x. q(x))",
    "free.And/IotaArg.left": "r((iota x. p(x))) /\\ q(x)",
    "free.And/IotaArg.right": "p(x) /\\ r((iota x. q(x)))",
    "free.Or/IotaArg.left": "r((iota x. p(x))) \\/ q(x)",
    "free.Or/IotaArg.right": "p(x) \\/ r((iota x. q(x)))",
    "free.Implies/IotaArg.left": "r((iota x. p(x))) -> q(x)",
    "free.Implies/IotaArg.right": "p(x) -> r((iota x. q(x)))",
    "free.And/EpsEq.left": "y = (eps x. p(x)) /\\ q(x)",
    "free.And/EpsEq.right": "p(x) /\\ y = (eps x. q(x))",
    "free.Or/EpsEq.left": "y = (eps x. p(x)) \\/ q(x)",
    "free.Or/EpsEq.right": "p(x) \\/ y = (eps x. q(x))",
    "free.Implies/EpsEq.left": "y = (eps x. p(x)) -> q(x)",
    "free.Implies/EpsEq.right": "p(x) -> y = (eps x. q(x))",
}


def test_matrix_is_complete():
    assert sorted(GOLDEN) == sorted(name for _, name, _ in cases())


@pytest.mark.parametrize("family", SYNTAX)
def test_render_matches_golden(family):
    render, parse = SYNTAX[family]
    matrix = [(name, f) for fam, name, f in cases() if fam == family]
    assert {name: render(f) for name, f in matrix} == {
        name: GOLDEN[name] for name, _ in matrix
    }
    for name, f in matrix:
        assert parse(render(f)) == f, name
