"""Structural operations on the three formula families."""

import pytest

from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import PronounAtom, atom

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


class TestSize:
    def test_temporal(self):
        assert tl.size(tl.Box(tl.Implies(tl.Atom(SHE), tl.Atom(THEY)))) == 4


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

    @pytest.mark.parametrize("render", [ll.render, tl.render, fl.render, fl.render_term])
    def test_non_formula_is_a_type_error(self, render):
        with pytest.raises(TypeError):
            render("she/her")


class TestInvariants:
    def test_bounded_k_must_be_positive(self):
        with pytest.raises(ValueError):
            tl.BoxK(0, tl.Atom(SHE))

    def test_free_vars(self):
        f = fl.Forall("x", fl.Pred("loves", (fl.Var("x"), fl.Var("y"))))
        assert fl.free_vars(f) == {"y"}
        term = fl.Epsilon("x", fl.Pred("man", (fl.Var("x"),)))
        assert fl.free_vars(term) == frozenset()
