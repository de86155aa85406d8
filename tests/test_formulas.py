"""Structural operations on the three formula families."""

import pytest

from pdlogic import atoms
from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import PronounAtom, atom
from pdlogic.monitoring import parse_trace
from pdlogic.parsing import parse_linear
from pdlogic.textcheck import LexiconError, parse_lexicon

SHE = atom("she/her")
THEY = atom("they/them")
HE = atom("he/him")


class TestPronounAtom:
    def test_canonical_key_is_lowercase(self):
        assert PronounAtom("She", "HER") == PronounAtom("she", "her")
        assert PronounAtom("She", "HER").key == "she/her"

    @pytest.mark.parametrize("bad", ["", "sh3", "she her", "Ø"])
    def test_rejects_non_letter_tokens(self, bad):
        with pytest.raises(ValueError):
            PronounAtom(bad, "her")

    def test_open_ended(self):
        # any letter pair is admissible, not just a known list
        assert atom("xe/xem").key == "xe/xem"

    def test_atom_key_requires_slash(self):
        with pytest.raises(ValueError):
            atom("she")


class TestAtomTable:
    """``atom`` keeps one object per key spelling, in a table bounded by
    ``ATOM_CAP``."""

    def test_same_spelling_same_object(self):
        assert atom("she/her") is atom("she/her")

    def test_spellings_differing_in_case_give_equal_atoms(self):
        assert atom("She/Her") == atom("she/her")
        assert atom("She/Her").key == "she/her"

    def test_lexer_builds_atoms_through_the_table(self):
        f = parse_linear("qa/qb * (QA/QB & qa/qb)")
        assert f.left.atom is f.right.right.atom is atom("qa/qb")
        assert f.right.left.atom == atom("qa/qb")

    def test_stays_within_its_cap(self):
        largest = 0
        for i in range(atoms.ATOM_CAP + 100):
            spelling = "".join(chr(ord("a") + int(d)) for d in str(i))
            atom(f"{spelling}/capx")
            largest = max(largest, len(atoms._atoms))
        assert largest == atoms.ATOM_CAP
        assert len(atoms._atoms) <= atoms.ATOM_CAP
        assert atom("she/her") is atom("she/her")

    @pytest.mark.parametrize("key, message", [
        ("she", "atom key must look like subject/object, got 'she'"),
        ("she/h3r", "pronoun token must be one or more ASCII letters, got 'h3r'"),
        ("she/her/x", "pronoun token must be one or more ASCII letters, got 'her/x'"),
        ("/her", "pronoun token must be one or more ASCII letters, got ''"),
    ])
    def test_invalid_key_raises_and_is_not_stored(self, key, message):
        before = dict(atoms._atoms)
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                atom(key)
            assert str(raised.value) == message
        assert key not in atoms._atoms
        assert atoms._atoms == before

    def test_trace_and_lexicon_messages_are_unchanged(self):
        with pytest.raises(ValueError) as raised:
            parse_trace("she/her\nthey/them she\n")
        assert str(raised.value) == (
            "trace line 2: atom key must look like subject/object, got 'she'")
        with pytest.raises(LexiconError) as raised:
            parse_lexicon("she -> she/her\n# comment\nher -> she/h3r\n")
        assert str(raised.value) == (
            "line 3: pronoun token must be one or more ASCII letters, got 'h3r'")


class TestAtoms:
    def test_temporal_nested(self):
        f = tl.Box(tl.Diamond(tl.Atom(THEY)))
        assert tl.atoms(f) == {THEY}

    def test_true_has_no_atoms(self):
        assert tl.atoms(tl.TRUE) == frozenset()


class TestRender:
    def test_with_over_tensor_parenthesizes(self):
        f = ll.With(ll.Atom(SHE), ll.Tensor(ll.Atom(SHE), ll.Atom(THEY)))
        assert ll.render(f) == "she/her & (she/her * they/them)"

    def test_box(self):
        assert tl.render(tl.Box(tl.Atom(SHE))) == "[] she/her"

    def test_atom_renders_as_key(self):
        assert ll.render(ll.Atom(atom("ze/zir"))) == "ze/zir"

    def test_right_associative_chains(self):
        a, b, c = (ll.Atom(x) for x in (SHE, THEY, HE))
        assert ll.render(ll.Lolli(a, ll.Lolli(b, c))) == "she/her -o they/them -o he/him"
        assert ll.render(ll.Lolli(ll.Lolli(a, b), c)) == "(she/her -o they/them) -o he/him"

    def test_tensor_order_is_preserved(self):
        ab = ll.Tensor(ll.Atom(SHE), ll.Atom(THEY))
        ba = ll.Tensor(ll.Atom(THEY), ll.Atom(SHE))
        assert ab != ba
        assert ll.render(ab) != ll.render(ba)

    def test_bounded_modality(self):
        assert tl.render(tl.DiamondK(5, tl.Atom(SHE))) == "<><=5 she/her"

    def test_free_description_argument_is_parenthesized(self):
        term = fl.Iota("x", fl.Pred("man", (fl.Var("x"),)))
        f = fl.Exists("y", fl.Eq(fl.Var("y"), term))
        assert fl.render(f) == "exists y. y = (iota x. man(x))"

    # For each renderer, nodes it rejects, each with the node its message
    # names and that node's place: a node of another family, a term where a
    # formula belongs or a formula where a term does, and a bad node below
    # the root.
    x, p = fl.Var("x"), fl.Pred("p", (fl.Var("x"),))
    LINEAR, TEMPORAL = "linear formula", "temporal formula"
    FORMULA, TERM = "free-logic formula", "free-logic term"
    REJECTED = {
        ll.render: [(tl.Atom(SHE), tl.Atom(SHE), LINEAR),
                    (ll.With(ll.Atom(SHE), tl.Atom(SHE)), tl.Atom(SHE), LINEAR),
                    (ll.Lolli(ll.Tensor(ll.Atom(SHE), "x"), ll.Atom(SHE)), "x", LINEAR)],
        tl.render: [(ll.Atom(SHE), ll.Atom(SHE), TEMPORAL), (fl.Not(p), fl.Not(p), TEMPORAL),
                    (tl.Box(tl.And(tl.Atom(SHE), ll.Atom(SHE))), ll.Atom(SHE), TEMPORAL),
                    (tl.BoxK(2, tl.Not(fl.Not(p))), fl.Not(p), TEMPORAL)],
        fl.render: [(tl.Not(tl.Atom(SHE)), tl.Not(tl.Atom(SHE)), FORMULA), (x, x, FORMULA),
                    (fl.Iota("x", p), fl.Iota("x", p), FORMULA), (fl.Not(x), x, FORMULA),
                    (fl.Exists("y", fl.Or(p, fl.Epsilon("x", p))), fl.Epsilon("x", p), FORMULA),
                    (fl.Pred("q", (x, p)), p, TERM), (fl.Forall("x", fl.Eq(x, "y")), "y", TERM)],
        fl.render_term: [(tl.Atom(SHE), tl.Atom(SHE), TERM), (p, p, TERM),
                         (fl.Iota("x", x), x, FORMULA),
                         (fl.Epsilon("x", fl.Pred("q", (fl.Iota("y", p), p))), p, TERM)],
    }

    @pytest.mark.parametrize("render", [ll.render, tl.render, fl.render, fl.render_term])
    def test_non_formula_is_a_type_error(self, render):
        with pytest.raises(TypeError):
            render("she/her")
        for node, bad, noun in self.REJECTED[render]:
            with pytest.raises(TypeError) as raised:
                render(node)
            assert str(raised.value) == f"not a {noun}: {bad!r}"


class TestInvariants:
    def test_bounded_k_must_be_positive(self):
        with pytest.raises(ValueError):
            tl.BoxK(0, tl.Atom(SHE))
