"""Concrete syntax: examples, precedence, errors, and round-trip properties."""

import hashlib
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import atom
from pdlogic.parsing import (
    MAX_DEPTH,
    ParseError,
    _FormulaMemo,
    _lex,
    parse_free,
    parse_free_term,
    parse_linear,
    parse_sequent,
    parse_temporal,
)

from oracles import (
    ATOM_POOL,
    eager_lex,
    random_free,
    random_free_term,
    random_linear,
    random_temporal,
)

SHE = atom("she/her")
THEY = atom("they/them")
HE = atom("he/him")


class TestParseLinear:
    def test_with_tensor(self):
        f = parse_linear("she/her & (she/her * they/them)")
        assert f == ll.With(ll.Atom(SHE), ll.Tensor(ll.Atom(SHE), ll.Atom(THEY)))

    def test_lolli(self):
        assert parse_linear("he/him -o she/her") == ll.Lolli(ll.Atom(HE), ll.Atom(SHE))

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse_linear("she/her &")
        assert err.value.byte_offset == 9
        assert "formula" in err.value.message

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_linear("")

    def test_precedence_soundness(self):
        assert parse_linear("a/b & c/d (+) e/f") == parse_linear("a/b & (c/d (+) e/f)")

    def test_unicode_aliases_accepted_never_emitted(self):
        f = parse_linear("she/her ⊸ (she/her ⊕ (she/her ⊗ they/them))")
        text = ll.render(f)
        assert f == parse_linear("she/her -o (she/her (+) (she/her * they/them))")
        assert text.isascii()

    def test_whitespace_insensitive(self):
        assert parse_linear("a/b&c/d") == parse_linear("  a/b  &  c/d  ")

    def test_comments_skipped(self):
        assert parse_linear("# a comment\nshe/her & they/them") == parse_linear(
            "she/her & they/them"
        )


class TestParseTemporal:
    def test_prompt_fix_pattern(self):
        f = parse_temporal("!she/her -> ()she/her")
        assert f == tl.Implies(tl.Not(tl.Atom(SHE)), tl.Next(tl.Atom(SHE)))

    def test_never_they_never_he(self):
        f = parse_temporal("[]!they/them -> []!he/him")
        assert f == tl.Implies(
            tl.Box(tl.Not(tl.Atom(THEY))), tl.Box(tl.Not(tl.Atom(HE)))
        )

    def test_bounded_diamond(self):
        assert parse_temporal("<><=5 she/her") == tl.DiamondK(5, tl.Atom(SHE))

    def test_bound_takes_ascii_digits_only(self):
        for text in ("[]<=\u00b2 she/her", "[]<=1\u00b2 she/her", "[]<=\u0661 she/her"):
            with pytest.raises(ParseError):
                parse_temporal(text)

    def test_bound_past_the_digit_limit_is_a_positioned_error(self):
        # Python converts at most 4300 digits to an int
        with pytest.raises(ParseError) as err:
            parse_temporal("she/her /\\\n  <><=" + "9" * 5000 + " she/her")
        assert (err.value.line, err.value.column) == (2, 7)
        assert err.value.message == "number of 5000 digits is too long"

    def test_zero_bound_rejected(self):
        with pytest.raises(ParseError):
            parse_temporal("[]<=0 she/her")

    def test_unary_binds_tighter_than_binary(self):
        f = parse_temporal("[] a/b /\\ c/d")
        assert f == tl.And(tl.Box(tl.Atom(atom("a/b"))), tl.Atom(atom("c/d")))

    def test_implies_right_associative_and_weakest(self):
        f = parse_temporal("a/b \\/ c/d -> e/f -> a/b")
        a, c, e = (tl.Atom(atom(k)) for k in ("a/b", "c/d", "e/f"))
        assert f == tl.Implies(tl.Or(a, c), tl.Implies(e, a))

    def test_unicode_modalities(self):
        assert parse_temporal("□◇they/them") == tl.Box(tl.Diamond(tl.Atom(THEY)))


class TestParseFree:
    def test_description_inside_equation(self):
        f = parse_free("exists y. y = iota x. man(x)")
        assert f == fl.Exists(
            "y", fl.Eq(fl.Var("y"), fl.Iota("x", fl.Pred("man", (fl.Var("x"),))))
        )

    def test_contradictory_epsilon(self):
        t = parse_free_term("eps x. (man(x) /\\ !man(x))")
        man_x = fl.Pred("man", (fl.Var("x"),))
        assert t == fl.Epsilon("x", fl.And(man_x, fl.Not(man_x)))

    def test_forall_tautology(self):
        f = parse_free("forall x. man(x) -> man(x)")
        man_x = fl.Pred("man", (fl.Var("x"),))
        assert f == fl.Forall("x", fl.Implies(man_x, man_x))

    def test_missing_binder_dot(self):
        with pytest.raises(ParseError) as err:
            parse_free("forall x man(x)")
        assert "'.'" in str(err.value)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_free("man(x) /\\ man(x, y)")
        assert "arity" in err.value.message

    def test_parenthesized_description_on_left_of_equation(self):
        f = parse_free("(iota x. man(x)) = y")
        assert f == fl.Eq(fl.Iota("x", fl.Pred("man", (fl.Var("x"),))), fl.Var("y"))

    def test_bare_description_is_not_a_formula(self):
        with pytest.raises(ParseError):
            parse_free("iota x. man(x)")

    @pytest.mark.parametrize("text, expected", [
        ("((x)) = y", fl.Eq(fl.Var("x"), fl.Var("y"))),
        ("(x = y)", fl.Eq(fl.Var("x"), fl.Var("y"))),
        ("((x = y)) /\\ (x) = (y)", fl.And(fl.Eq(fl.Var("x"), fl.Var("y")),
                                           fl.Eq(fl.Var("x"), fl.Var("y")))),
        ("(iota x. (man(x))) = y",
         fl.Eq(fl.Iota("x", fl.Pred("man", (fl.Var("x"),))), fl.Var("y"))),
        # a parenthesized formula that ends a description's body, before '='
        ("iota x. (man(x)) = y",
         fl.Eq(fl.Iota("x", fl.Pred("man", (fl.Var("x"),))), fl.Var("y"))),
        ("eps x. (man(x) /\\ !man(x)) = y",
         fl.Eq(fl.Epsilon("x", fl.And(fl.Pred("man", (fl.Var("x"),)),
                                      fl.Not(fl.Pred("man", (fl.Var("x"),))))),
               fl.Var("y"))),
        ("(iota x. iota y. ((man(y))) = x) = z",
         fl.Eq(fl.Iota("x", fl.Eq(fl.Iota("y", fl.Pred("man", (fl.Var("y"),))),
                                  fl.Var("x"))),
               fl.Var("z"))),
    ])
    def test_parenthesis_around_a_term_or_a_formula(self, text, expected):
        assert parse_free(text) == expected

    @pytest.mark.parametrize("text, column, message", [
        ("(man(x)) = y", 10, "unexpected trailing input at '='"),
        ("(x) /\\ man(x)", 5, "expected '=' after term"),
        ("(x /\\ man(x))", 4, "expected ')'"),
        ("(iota x. man(x) = y", 20, "expected ')'"),  # unbalanced
    ])
    def test_parenthesis_read_the_wrong_way_is_an_error(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_free(text)
        assert (err.value.column, err.value.message) == (column, message)

    def test_loosely_parenthesized_formulas_round_trip(self):
        # Extra parentheses around any term or formula, and none around a
        # description on the left of '=' or as a predicate's argument.
        rng = random.Random(15)

        def term(t, bare_ok):
            if isinstance(t, fl.Var):
                text = t.name
            else:
                keyword = "iota" if isinstance(t, fl.Iota) else "eps"
                text = f"{keyword} {t.var}. {formula(t.body)}"
                if not (bare_ok and rng.random() < 0.5):
                    text = f"({text})"
            while rng.random() < 0.25:
                text = f"({text})"
            return text

        def formula(f):
            if isinstance(f, fl.Pred):
                text = f"{f.name}({', '.join(term(a, True) for a in f.args)})"
            elif isinstance(f, fl.Eq):
                text = f"{term(f.left, True)} = {term(f.right, False)}"
            elif isinstance(f, fl.Not):
                text = f"!({formula(f.operand)})"
            elif isinstance(f, (fl.Forall, fl.Exists)):
                keyword = "forall" if isinstance(f, fl.Forall) else "exists"
                text = f"{keyword} {f.var}. {formula(f.body)}"
            else:
                symbol = fl.INFIX[type(f)][0]
                text = f"({formula(f.left)}) {symbol} ({formula(f.right)})"
            while rng.random() < 0.3:
                text = f"({text})"
            return text

        for _ in range(2000):
            f = random_free(rng, rng.randint(1, 5))
            text = formula(f)
            assert parse_free(text) == f, text

    def test_nested_parenthesized_descriptions_parse_at_once(self):
        # (iota x. (iota x. … x = x) = x) = y, 40 deep. A parser that reads a
        # '(' both as a formula and as a term doubles its time per level.
        text = "(iota x. " * 40 + "x = x" + ") = x" * 39 + ") = y"
        started = time.perf_counter()
        f = parse_free(text)
        assert time.perf_counter() - started < 0.1
        for _ in range(39):
            f = f.left.body
            assert f.right == fl.Var("x")
        assert f.left.body == fl.Eq(fl.Var("x"), fl.Var("x"))

    def test_malformed_nested_descriptions_fail_at_once(self):
        text = "(iota x. " * 20 + "p(x)" + ")" * 20 + " = y"
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_free(text)
        assert time.perf_counter() - started < 0.1
        # the innermost description is a term in parentheses, but no '=' follows
        assert (err.value.column, err.value.message) == (186, "expected '=' after term")


class TestParseSequent:
    def test_identity(self):
        s = parse_sequent("she/her |- she/her")
        assert s.context == (ll.Atom(SHE),)
        assert s.goal == ll.Atom(SHE)

    def test_empty_context(self):
        s = parse_sequent("|- she/her -o (she/her (+) (she/her * they/them))")
        assert s.context == ()

    def test_missing_comma(self):
        with pytest.raises(ParseError) as err:
            parse_sequent("a/b b/c |- a/b")
        assert "','" in str(err.value)

    def test_empty_goal(self):
        with pytest.raises(ParseError):
            parse_sequent("she/her |-")

    def test_context_order_preserved(self):
        s = parse_sequent("a/b, c/d |- a/b")
        assert [ll.render(f) for f in s.context] == ["a/b", "c/d"]





def nested_inputs(depth):
    """One input per grammar and kind of nesting, nested ``depth`` levels."""
    return [
        (parse_linear, "(" * depth + "a/b" + ")" * depth),
        (parse_linear, " -o ".join(["a/b"] * (depth + 1))),
        (parse_sequent, "c/d |- " + "(" * depth + "a/b" + ")" * depth),
        (parse_temporal, "!" * depth + "a/b"),
        (parse_temporal, "(" * depth + "a/b" + ")" * depth),
        (parse_temporal, "[] " * depth + "a/b"),
        (parse_temporal, "[]<=3 " * depth + "a/b"),
        (parse_temporal, "<><=2 " * depth + "a/b"),
        (parse_temporal, " -> ".join(["a/b"] * (depth + 1))),
        (parse_free, "!" * depth + "man(x)"),
        (parse_free, "(" * depth + "man(x)" + ")" * depth),
        (parse_free, "forall x. " * depth + "man(x)"),
        (parse_free, " -> ".join(["man(x)"] * (depth + 1))),
        (parse_free, "(" * depth + "x" + ")" * depth + " = y"),
        (parse_free, "x = iota y. " * depth + "man(x)"),
        (parse_free_term, "iota x. man(" * depth + "x" + ")" * depth),
        (parse_free_term, "(" * depth + "x" + ")" * depth),
    ]


def recursion_used() -> int:
    """How much of the recursion limit the caller's stack already takes."""
    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n
    return sys.getrecursionlimit() - down(1)


class TestNestingLimit:
    def test_nesting_at_the_limit_parses(self):
        for parse, text in nested_inputs(MAX_DEPTH):
            parse(text)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000, 3000])
    def test_deeper_nesting_is_a_positioned_parse_error(self, depth):
        for parse, text in nested_inputs(depth):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.line == 1
            assert err.value.column > MAX_DEPTH
            assert "nested deeper" in err.value.message

    def test_very_deep_input_in_every_grammar(self):
        depth = 10**5
        for parse, text in (
            (parse_linear, "(" * depth + "a/b" + ")" * depth),
            (parse_temporal, "!" * depth + "a/b"),
            (parse_free, "(" * depth + "man(x)" + ")" * depth),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "nested deeper" in err.value.message

    def test_a_level_takes_one_frame(self):
        # At most one frame per level, two where a description's body sits in
        # a predicate's argument or an equation's right side; the slack covers
        # the parse function's entry, the lexer and a node's constructor.
        limit = sys.getrecursionlimit()
        used = recursion_used()
        try:
            for parse, text in nested_inputs(MAX_DEPTH):
                frames = 2 if "iota" in text else 1
                sys.setrecursionlimit(used + frames * MAX_DEPTH + 25)
                try:
                    parse(text)
                except RecursionError:
                    pytest.fail(f"{parse.__name__} ran out of frames on {text[:40]!r}")
        finally:
            sys.setrecursionlimit(limit)

    def test_error_points_at_the_first_token_too_deep(self):
        text = "# comment\n" + "(" * (MAX_DEPTH + 1) + "a/b" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            parse_linear(text)
        # The atom inside the innermost parenthesis would sit one level too deep.
        assert (err.value.line, err.value.column) == (2, MAX_DEPTH + 2)

PARSERS = (parse_linear, parse_sequent, parse_temporal, parse_free, parse_free_term)

# Tokens of every kind and family, characters no token starts with, a number
# past the digit limit, and a comment; joined by nothing or by whitespace.
TOKENS = [
    "a/b", "she/her", "x", "y", "man", "loves", "iota", "eps", "forall",
    "exists", "true", "false", "0", "3", "12", "[]<=", "<><=", "(+)", "()",
    "/\\", "\\/", "->", "-o", "|-", "[]", "<>", "&", "*", "(", ")", "(", ")",
    "!", "=", ",", ".", "⊗", "□", "ι", "∧", "$", "é", "\ufffd", "9" * 4301,
    "# note\n",
]
SPACES = ["", " ", " ", "\n", "\r\n", "\r", "\t"]


RENDERED = (
    lambda rng: ll.render(random_linear(rng, 4)),
    lambda rng: tl.render(random_temporal(rng, 4)),
    lambda rng: fl.render(random_free(rng, 4)),
    lambda rng: fl.render_term(random_free_term(rng, 4)),
    lambda rng: ", ".join(ll.render(random_linear(rng, 3)) for _ in range(rng.randint(0, 2)))
    + " |- " + ll.render(random_linear(rng, 3)),
)


def random_token_string(rng: random.Random) -> str:
    """Random tokens, or a rendered formula of any family with up to two
    words replaced or inserted."""
    if rng.random() < 0.5:
        n = rng.randint(0, 12)
        return "".join(rng.choice(SPACES) + rng.choice(TOKENS) for _ in range(n))
    words = rng.choice(RENDERED)(rng).split(" ")
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(words) + 1)
        words[at:at + rng.randint(0, 1)] = [rng.choice(TOKENS)]
    return "".join(word + rng.choice(SPACES[1:]) for word in words)


class TestLexOnDemand:
    """The parser pulls tokens one at a time, so it reads a rejected input
    only up to its first error, lexical or grammatical."""

    def test_agrees_with_eager_lexing(self):
        rng = random.Random(16)
        for _ in range(5000):
            text = random_token_string(rng)
            try:
                tokens = eager_lex(text)
                lex_error = None
            except ParseError as exc:
                lex_error = exc
            else:
                assert list(_lex(text)) == [(t.kind, t.value, t.start) for t in tokens]
            for parse in PARSERS:
                try:
                    parse(text)
                except ParseError as exc:
                    if lex_error is not None:
                        assert exc.byte_offset <= lex_error.byte_offset, text
                        if exc.byte_offset == lex_error.byte_offset:
                            assert exc.message == lex_error.message, text
                else:
                    assert lex_error is None, text

    def test_grammar_error_before_a_bad_character_wins(self):
        text = "(" * 101 + "a/b" + ")" * 101 + " $"
        with pytest.raises(ParseError) as err:
            parse_linear(text)
        assert (err.value.line, err.value.column, err.value.message) == (
            1, 102, "formula nested deeper than 100 levels")

    def test_grammar_error_before_a_long_number_wins(self):
        with pytest.raises(ParseError) as err:
            parse_temporal(") " + "9" * 5000)
        assert (err.value.line, err.value.column, err.value.message) == (
            1, 1, "expected formula")

    def test_rejected_input_is_read_only_to_its_first_error(self):
        text = ")" + " a/b" * 10**6
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_linear(text)
        assert time.perf_counter() - started < 0.1
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_line_end_starts_a_line(self, newline):
        text = f"# a comment{newline}a/b &{newline}{newline}  & c/d"
        with pytest.raises(ParseError) as err:
            parse_linear(text)
        assert (err.value.line, err.value.column) == (4, 3)
        assert err.value.byte_offset == len(text.encode("utf-8")) - len("& c/d")
        assert parse_linear(f"# a comment{newline}a/b") == ll.Atom(atom("a/b"))


RENDER = {
    parse_linear: ll.render,
    parse_sequent: ll.render_sequent,
    parse_temporal: tl.render,
    parse_free: fl.render,
    parse_free_term: fl.render_term,
}


def test_parse_outcomes_are_pinned():
    # Each of 5000 random token strings through the five parsers and through
    # one memo's sequent reader, shared by all of them: the rendered result,
    # or the error's place, message and expected list, hashed. The digest was
    # recorded from the recursive-descent parser that took several frames per
    # nesting level.
    rng = random.Random(32)
    memo = _FormulaMemo()
    digest = hashlib.sha256()
    for _ in range(5000):
        text = random_token_string(rng)
        outcomes = []
        for parse in PARSERS:
            try:
                outcomes.append(RENDER[parse](parse(text)))
            except ParseError as exc:
                outcomes.append(repr((exc.line, exc.column, exc.byte_offset, exc.message,
                                      exc.expected)))
        sequent = memo.sequent(text)
        outcomes.append("-" if sequent is None else ll.render_sequent(sequent))
        digest.update(("\t".join(outcomes) + "\n").encode("utf-8"))
    assert digest.hexdigest() == (
        "ba32f09aa27bd71ec81edfce95da4268f76abab4cad86a9c83acd874454f8327")


# --- round-trip properties -----------------------------------------------------

atom_st = st.sampled_from(ATOM_POOL)
linear_st = st.recursive(
    atom_st.map(ll.Atom),
    lambda kids: st.one_of(
        st.builds(ll.With, kids, kids),
        st.builds(ll.Plus, kids, kids),
        st.builds(ll.Tensor, kids, kids),
        st.builds(ll.Lolli, kids, kids),
    ),
    max_leaves=20,
)
temporal_st = st.recursive(
    st.one_of(atom_st.map(tl.Atom), st.just(tl.TRUE), st.just(tl.FALSE)),
    lambda kids: st.one_of(
        st.builds(tl.Not, kids),
        st.builds(tl.Box, kids),
        st.builds(tl.Diamond, kids),
        st.builds(tl.Next, kids),
        st.builds(tl.BoxK, st.integers(1, 9), kids),
        st.builds(tl.DiamondK, st.integers(1, 9), kids),
        st.builds(tl.And, kids, kids),
        st.builds(tl.Or, kids, kids),
        st.builds(tl.Implies, kids, kids),
    ),
    max_leaves=20,
)


@given(linear_st)
def test_linear_round_trip(f):
    assert parse_linear(ll.render(f)) == f


@given(temporal_st)
def test_temporal_round_trip(f):
    assert parse_temporal(tl.render(f)) == f


@given(st.integers(0, 2**32 - 1))
def test_free_round_trip(seed):
    rng = random.Random(seed)
    formula = random_free(rng, depth=4)
    assert parse_free(fl.render(formula)) == formula
    term = random_free_term(rng, depth=4)
    assert parse_free_term(fl.render_term(term)) == term


@given(linear_st, linear_st)
def test_render_injective_up_to_equality(f, g):
    if ll.render(f) == ll.render(g):
        assert f == g


@settings(max_examples=300)
@given(st.binary(max_size=60))
def test_parser_total_on_junk(data):
    text = data.decode("utf-8", errors="replace")
    for parse in (parse_linear, parse_temporal, parse_free, parse_sequent):
        try:
            parse(text)
        except ParseError:
            pass  # rejection with a position is the contract; crashes are not
