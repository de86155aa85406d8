"""Finite-trace semantics, bounded-modality expansion, progression, and the
online monitor."""

import copy
import hashlib
import random
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

from pdlogic import monitoring
from pdlogic import temporal as tl
from pdlogic.atoms import PronounAtom, atom
from pdlogic.monitoring import (
    EMPTY_TRACE,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    MonitorSession,
    Trace,
    Utterance,
    evaluate,
    expand_bounded,
    monitor,
    parse_trace,
    progress,
)
from pdlogic.parsing import parse_temporal

from oracles import (
    ATOM_POOL,
    TWO_ATOMS,
    all_traces,
    direct_evaluate,
    random_temporal,
    temporal_formulas,
)
from test_acceptance import budget

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SHE = atom("she/her")
THEY = atom("they/them")
HE = atom("he/him")
A, C = TWO_ATOMS


def trace(*atom_sets):
    return Trace(tuple(Utterance(frozenset(s)) for s in atom_sets))


class TestEvaluate:
    def test_box_fails_on_late_mistake(self):
        t = trace({SHE}, {SHE}, {THEY})
        assert evaluate(tl.Box(tl.Atom(SHE)), t, 0) is False

    def test_bounded_diamond_two_tries(self):
        t = trace({THEY}, {SHE})
        assert evaluate(tl.DiamondK(2, tl.Atom(SHE)), t, 0) is True

    def test_prompt_fix_pattern(self):
        f = parse_temporal("[] (!she/her -> () she/her)")
        assert evaluate(f, trace(set(), {SHE}, {SHE}), 0) is True

    def test_empty_trace_boundaries(self):
        assert evaluate(tl.Diamond(tl.Atom(SHE)), EMPTY_TRACE, 0) is False
        assert evaluate(tl.Box(tl.Atom(SHE)), EMPTY_TRACE, 0) is True

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            evaluate(tl.Atom(SHE), trace({SHE}), 2)

    def test_vacuity_at_the_boundary(self):
        t = trace({SHE}, {THEY})
        for f in temporal_formulas(2):
            assert evaluate(tl.Box(f), t, len(t)) is True
            assert evaluate(tl.Diamond(f), t, len(t)) is False

    def test_box_diamond_duality(self):
        traces = all_traces(3)
        for f in temporal_formulas(2):
            for t in traces:
                for i in range(len(t) + 1):
                    assert evaluate(tl.Not(tl.Box(f)), t, i) == evaluate(
                        tl.Diamond(tl.Not(f)), t, i
                    )


def random_trace(rng, n, pool=ATOM_POOL[:3]):
    return Trace(tuple(
        Utterance(frozenset(a for a in pool if rng.random() < 0.5)) for _ in range(n)
    ))


class TestLabellingPass:
    """The bit-vector ``evaluate`` against the direct recursive semantics in
    ``oracles``, at every position of every trace."""

    def assert_agrees(self, f, t, expand=True):
        forms = (f, expand_bounded(f)) if expand else (f,)
        for i in range(len(t) + 1):
            expected = direct_evaluate(f, t, i)
            for g in forms:
                assert evaluate(g, t, i) == expected, (tl.render(f), t, i)

    def test_random_formulas_raw_and_expanded(self):
        rng = random.Random(6)
        for _ in range(1500):
            f = random_temporal(rng, rng.randint(1, 6))
            self.assert_agrees(f, random_trace(rng, rng.randint(0, 12)))

    def test_every_bound_up_to_past_the_end(self):
        rng = random.Random(16)
        for n in range(13):
            for _ in range(4):
                t = random_trace(rng, n)
                body = random_temporal(rng, 3)
                for k in range(1, n + 3):
                    for g in (tl.BoxK(k, body), tl.DiamondK(k, body)):
                        self.assert_agrees(g, t)
                for g in (tl.BoxK(10**40, body), tl.DiamondK(10**40, body)):
                    self.assert_agrees(g, t, expand=False)

    def test_nested_bounds_under_next(self):
        # Expansion shares each body by identity, and under () its deeper
        # copies reach the ()-depth where Next is pruned: a label taken there
        # must not stand in for a shallower copy.
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randint(0, 12)
            t = random_trace(rng, n)
            f = random_temporal(rng, 2)
            k1, k2, k = (rng.randint(1, n + 2) for _ in range(3))
            nested = tl.BoxK(k1, tl.BoxK(k2, f))
            for g in (nested, tl.Next(nested), tl.Next(tl.DiamondK(k, f)),
                      tl.DiamondK(k, tl.Next(tl.DiamondK(k2, f))),
                      tl.Or(tl.Next(tl.Next(nested)), nested)):
                self.assert_agrees(g, t)

    def test_shared_node_labelled_deep_first(self):
        # One node object read first under j Nexts on the left, then at the
        # top on the right.
        traces = all_traces(5, TWO_ATOMS[:1])
        for modality, body, k, op, negate, j in product(
            (tl.BoxK, tl.DiamondK), (tl.Atom(A), tl.Next(tl.Atom(A))), (2, 4),
            (tl.And, tl.Or, tl.Implies), (False, True), (1, 3),
        ):
            shared = expand_bounded(modality(k, body))
            deep = tl.Not(shared) if negate else shared
            for _ in range(j):
                deep = tl.Next(deep)
            for t in traces:
                self.assert_agrees(op(deep, shared), t, expand=False)

    def test_one_node_at_every_depth_around_the_horizon(self):
        # One node object under d Nexts for every d from 0 to n + 1, where n
        # is the trace length, so that from each position it is reached at
        # the ()-depths n - 2, n - 1 and n of the suffix read there. The
        # copies share their Next chains too, sit under random connectives
        # and come in a random order, so a label taken past the horizon is
        # sometimes the first one taken.
        rng = random.Random(36)
        wrappers = (lambda g: g, tl.Not, tl.Box, tl.Diamond,
                    lambda g: tl.BoxK(2, g), lambda g: tl.DiamondK(3, g))
        for _ in range(600):
            n = rng.randint(0, 8)
            t = random_trace(rng, n)
            chain = [random_temporal(rng, rng.randint(1, 4))]
            while len(chain) < n + 2:
                chain.append(tl.Next(chain[-1]))
            copies = [rng.choice(wrappers)(g) for g in chain]
            rng.shuffle(copies)
            f = copies.pop()
            while copies:
                f = rng.choice((tl.And, tl.Or, tl.Implies))(copies.pop(), f)
            self.assert_agrees(f, t, expand=False)

    def test_labels_from_shared_equal_and_unused_atom_sets(self):
        # Atom labels are read off the suffix's atom sets: one frozenset
        # object held by several utterances, equal sets held as distinct
        # objects (one of them of an atom object equal to, but not, the one
        # the formula names), and atoms that no utterance uses. Each formula
        # object is evaluated on two traces in turn, from every position, so
        # a label kept past its call would answer for the wrong trace.
        rng = random.Random(56)
        she, he = ATOM_POOL[:2]
        shared = frozenset({she, he})
        unused = tl.Atom(ATOM_POOL[4])

        def atom_set():
            pick = rng.randrange(5)
            if pick == 0:
                return shared
            if pick == 1:
                return frozenset({she, he})
            if pick == 2:
                return frozenset({PronounAtom("She", "Her")})
            return frozenset(a for a in ATOM_POOL[:3] if rng.random() < 0.5)

        def some_trace():
            return Trace(tuple(Utterance(atom_set()) for _ in range(rng.randint(0, 10))))

        for _ in range(400):
            f = tl.Or(random_temporal(rng, rng.randint(1, 5)), tl.Not(unused))
            first, second = some_trace(), some_trace()
            for i in range(max(len(first), len(second)) + 1):
                for t in (first, second):
                    if i <= len(t):
                        assert evaluate(f, t, i) == direct_evaluate(f, t, i), (
                            tl.render(f), t, i)
            assert evaluate(unused, first, 0) is False

    def test_shared_body_labels_each_atom_node_once(self, monkeypatch):
        # The expansion shares one body under up to 99 Nexts; it is first
        # reached at the top, where its label serves every deeper reader.
        f = parse_temporal("[]<=100 (c/d -> <><=5 a/b)")
        expanded = expand_bounded(f)
        t = trace(*({C, A} if i % 3 == 0 else {C} for i in range(200)))
        atom_nodes = {id(g) for g in nodes_of(expanded) if isinstance(g, tl.Atom)}
        expected = evaluate(f, t, 0)
        labelled = []
        original = monitoring._atom_label

        def counting(a, utterances, cache):
            labelled.append(a)
            return original(a, utterances, cache)

        monkeypatch.setattr(monitoring, "_atom_label", counting)
        assert evaluate(expanded, t, 0) == expected
        assert len(labelled) <= len(atom_nodes) == 2

    def test_position_outside_the_trace_raises(self):
        t = trace({A}, {C})
        for position in (-1, 3, 10):
            with pytest.raises(IndexError):
                evaluate(tl.Atom(A), t, position)
        with pytest.raises(IndexError):
            evaluate(tl.Atom(A), EMPTY_TRACE, 1)

    def test_not_a_formula_raises(self):
        with pytest.raises(TypeError):
            evaluate(tl.Box("a/b"), trace({A}), 0)


class TestLongTraces:
    """Cases the recursive evaluation was quadratic on or overflowed the stack."""

    def test_box_diamond_is_linear(self):
        t = Trace((Utterance(frozenset()),) * 3999 + (Utterance(frozenset({A})),))
        with budget(1):
            assert evaluate(parse_temporal("[] <> a/b"), t, 0) is True

    def test_deep_expansion_needs_no_recursion(self):
        t = Trace((Utterance(frozenset({A})),) * 4000)
        f = expand_bounded(parse_temporal("[]<=10000 a/b"))
        with budget(2):
            assert evaluate(f, t, 0) is True
            assert evaluate(f, Trace(t.utterances[:-1] + (Utterance(frozenset()),)), 0) is False

    def test_huge_bound_answers_at_once(self):
        t = Trace((Utterance(frozenset({A})),) * 4000)
        f = parse_temporal("[]<=" + "1" + "0" * 40 + " a/b")
        with budget(1):
            assert evaluate(f, t, 0) is True
            assert evaluate(f, t, 4000) is False  # a/b on the empty suffix
            assert evaluate(tl.DiamondK(10**40, tl.Atom(C)), t, 0) is False


class TestDescriptorPatterns:
    """Compound descriptor shapes, each against a verdict worked out by hand."""

    def test_always_she(self):
        assert evaluate(parse_temporal("[] she/her"), trace({SHE}, {SHE}, {THEY}), 0) is False

    def test_within_two(self):
        assert evaluate(parse_temporal("<><=2 she/her"), trace({THEY}, {SHE}), 0) is True

    def test_fix_must_be_prompt(self):
        f = parse_temporal("[] (!a/b -> () a/b)")
        assert evaluate(f, trace(set(), {A}, {A}), 0) is True

    def test_fix_must_continue_in_perpetuity(self):
        f = parse_temporal("[] (!a/b -> () ([] a/b))")
        assert evaluate(f, trace(set(), {A}, {A}, {A}), 0) is True
        assert evaluate(f, trace(set(), {A}, set(), {A}), 0) is False

    def test_never_they_then_never_he(self):
        f = parse_temporal("[] !they/them -> [] !he/him")
        # vacuously fine on a trace avoiding both atoms
        assert evaluate(f, trace({SHE}, set(), {SHE}), 0) is True
        assert evaluate(f, trace({THEY}, {HE}), 0) is True  # antecedent false
        assert evaluate(f, trace({SHE}, {HE}), 0) is False

    def test_liveness_recurrence(self):
        f = parse_temporal("[] <> they/them")
        assert evaluate(f, trace({SHE}, {THEY}, {SHE}, {THEY}), 0) is True
        assert evaluate(f, trace({THEY}, {SHE}, {SHE}), 0) is False

    def test_reach_avoid(self):
        f = parse_temporal("[] !he/him /\\ <> they/them")
        assert evaluate(f, trace({SHE}, {THEY}), 0) is True
        assert evaluate(f, trace({HE}, {THEY}), 0) is False


class TestExpandBounded:
    def test_k_one_collapses(self):
        assert expand_bounded(tl.DiamondK(1, tl.Atom(A))) == tl.Atom(A)

    def test_diamond_two(self):
        a = tl.Atom(A)
        assert expand_bounded(tl.DiamondK(2, a)) == tl.Or(a, tl.Next(a))

    def test_box_two_uses_weak_next(self):
        a = tl.Atom(A)
        assert expand_bounded(tl.BoxK(2, a)) == tl.And(a, tl.Not(tl.Next(tl.Not(a))))

    def test_equivalence_brute_force(self):
        # bounded modalities over small bodies against every trace of length <= 3
        traces = all_traces(3)
        for body in temporal_formulas(1):
            for k in (1, 2, 3):
                for g in (tl.BoxK(k, body), tl.DiamondK(k, body)):
                    expanded = expand_bounded(g)
                    for t in traces:
                        for i in range(len(t) + 1):
                            assert evaluate(expanded, t, i) == evaluate(g, t, i)

    def test_output_has_no_bounded_modalities(self):
        f = parse_temporal("[]<=3 (a/b \\/ <><=2 c/d)")
        def has_bounded(g):
            if isinstance(g, (tl.BoxK, tl.DiamondK)):
                return True
            return any(has_bounded(c) for c in tl.children(g))
        assert not has_bounded(expand_bounded(f))

    def test_expanded_size_counts_the_tree(self):
        for body in temporal_formulas(2):
            for k in (1, 2, 3):
                nested = tl.Not(tl.BoxK(k, tl.DiamondK(2, body)))
                for g in (tl.BoxK(k, body), tl.DiamondK(k, body), nested):
                    assert monitoring.expanded_size(g) == tree_size(expand_bounded(g))

    @pytest.mark.parametrize("text", [
        "[]<=1000000000 she/her",
        "<><=1000000000 she/her",
        "[]<=1000 []<=1000 she/her",  # nested bounds multiply
        "[]<=150000 she/her /\\ []<=150000 they/them",  # siblings add up
    ])
    def test_expansion_past_the_limit_raises(self, text):
        with pytest.raises(monitoring.ResourceLimit):
            expand_bounded(parse_temporal(text))

    def test_expansion_at_the_limit_is_built(self):
        k = (monitoring.MAX_EXPANSION + 4) // 5  # k bodies of 1 node, 4 nodes between them
        f = tl.BoxK(k, tl.Atom(A))
        assert monitoring.expanded_size(f) <= monitoring.MAX_EXPANSION
        assert monitoring.expanded_size(tl.BoxK(k + 1, tl.Atom(A))) > monitoring.MAX_EXPANSION
        assert monitor(f, [Utterance(frozenset({A}))] * 3)[-1].status == SATISFIED

    def test_equal_deep_operands_monitor_stepwise(self):
        # Two equal but distinct 25,000-node expansions side by side used to
        # overflow the stack in a structural == of the operands, which
        # recursed through both.
        f = parse_temporal("[]<=5000 a/b /\\ []<=5000 a/b")
        verdicts = monitor(f, [Utterance(frozenset({A}))] * 2)
        assert verdicts[-1].status == SATISFIED

    @pytest.mark.parametrize("j,k", [(5000, 5001), (3000, 2000)], ids=["5000-5001", "3000-2000"])
    def test_unequal_deep_operands_monitor_stepwise(self, j, k):
        # Expanded, the two residuals would be chains of different length,
        # and a structural == of the operands would recurse down both.
        f = parse_temporal(f"[]<={j} a/b /\\ []<={k} a/b")
        verdicts = monitor(f, [Utterance(frozenset({A}))] * 2)
        assert verdicts[-1].status == SATISFIED


class TestProgress:
    def test_box_survives_a_good_step(self):
        f = tl.Box(tl.Atom(A))
        assert progress(f, Utterance(frozenset({A}))) == (f, True)

    def test_box_dies_on_a_bad_step(self):
        assert progress(tl.Box(tl.Atom(A)), Utterance(frozenset())) == (tl.FALSE, False)

    def test_next_strips_one_step(self):
        f = tl.Next(tl.Atom(A))
        assert progress(f, Utterance(frozenset({C}))) == (tl.Atom(A), False)

    def test_weak_next_may_end_here(self):
        # weak next of a/b: the residual is the same as strong next's after
        # negation, but the stream may end now
        f = tl.Not(tl.Next(tl.Not(tl.Atom(A))))
        assert progress(f, Utterance(frozenset())) == (tl.Atom(A), True)

    def test_constants(self):
        u = Utterance(frozenset({A}))
        assert progress(tl.TRUE, u) == (tl.TRUE, True)
        assert progress(tl.FALSE, u) == (tl.FALSE, False)
        assert progress(tl.Implies(tl.FALSE, tl.Atom(C)), u) == (tl.TRUE, True)

    def test_bounded_modalities_take_one_step(self):
        # k = 1 is the body's own step; above it, the body now and the bound
        # one lower next. Box may end after a good step (weak next), Diamond
        # may not end before it is met (strong next).
        a, seen, silent = tl.Atom(A), Utterance(frozenset({A})), Utterance(frozenset())
        for modality in (tl.BoxK, tl.DiamondK):
            assert progress(modality(1, a), seen) == (tl.TRUE, True)
            assert progress(modality(1, a), silent) == (tl.FALSE, False)
        assert progress(tl.BoxK(2, a), seen) == (a, True)
        assert progress(tl.BoxK(3, a), seen) == (tl.BoxK(2, a), True)
        assert progress(tl.BoxK(3, a), silent) == (tl.FALSE, False)
        assert progress(tl.DiamondK(2, a), silent) == (a, False)
        assert progress(tl.DiamondK(3, a), silent) == (tl.DiamondK(2, a), False)
        assert progress(tl.DiamondK(3, a), seen) == (tl.TRUE, True)
        assert progress(tl.BoxK(3, tl.Next(a)), seen) == (
            tl.And(a, tl.BoxK(2, tl.Next(a))), False)

    def test_residuals_are_states(self):
        # A residual other than a constant is the one state of its
        # structure, down to its last node: a copy of it interns to it. That
        # holds on a formula that is not a state too, which progress interns.
        clear_table()
        letters = [Utterance(frozenset(s)) for s in ((), (A,), (C,), (A, C))]
        for f, u in product(temporal_formulas(3), letters):
            residual, _ = progress(f, u)
            if not isinstance(residual, (tl.TrueF, tl.FalseF)):
                assert monitoring._intern(copy.deepcopy(residual)) is residual, tl.render(f)

    def test_correctness_contract(self):
        # With (residual, holds) = progress(g, t[0]): on a one-utterance
        # trace, holds == evaluate(g, t, 0); on a longer one,
        # evaluate(residual, t[1:], 0) == evaluate(g, t, 0). The residual
        # alone is not enough at the very end of the stream, where it cannot
        # tell weak from strong next.
        for f, t in product(temporal_formulas(2), all_traces(3)):
            if not t.utterances:
                continue
            for g in (f, expand_bounded(f)):
                residual, holds = progress(g, t.utterances[0])
                if len(t) == 1:
                    assert holds == evaluate(g, t, 0), tl.render(f)
                else:
                    rest = Trace(t.utterances[1:])
                    assert evaluate(residual, rest, 0) == evaluate(g, t, 0), tl.render(f)


class TestBuilders:
    """The simplification rules that a progress walk applies to a residual's
    operands, one row per rule, through the public ``progress``."""

    @pytest.mark.parametrize("text, residual, holds", [
        # Not: a constant flips, a double negation cancels
        ("!a/b", "false", False),
        ("!c/d", "true", True),
        ("!() !c/d", "c/d", True),
        ("!() c/d", "!c/d", True),
        # And: false absorbs, true drops out, equal operands and a chain
        # head equal to the left operand merge
        ("c/d /\\ () c/d", "false", False),
        ("() c/d /\\ c/d", "false", False),
        ("a/b /\\ () c/d", "c/d", False),
        ("() c/d /\\ a/b", "c/d", False),
        ("a/b /\\ a/b", "true", True),
        ("() c/d /\\ () c/d", "c/d", False),
        ("() c/d /\\ () (c/d /\\ a/b)", "c/d /\\ a/b", False),
        ("() c/d /\\ () a/b", "c/d /\\ a/b", False),
        ("() a/b /\\ () (c/d /\\ a/b)", "a/b /\\ (c/d /\\ a/b)", False),
        # Or: the same rules with the constants' roles swapped
        ("a/b \\/ () c/d", "true", True),
        ("() c/d \\/ a/b", "true", True),
        ("c/d \\/ () c/d", "c/d", False),
        ("() c/d \\/ c/d", "c/d", False),
        ("c/d \\/ c/d", "false", False),
        ("() c/d \\/ () c/d", "c/d", False),
        ("() c/d \\/ () (c/d \\/ a/b)", "c/d \\/ a/b", False),
        ("() c/d \\/ () a/b", "c/d \\/ a/b", False),
        ("() a/b \\/ () (c/d \\/ a/b)", "a/b \\/ (c/d \\/ a/b)", False),
        # Implies: false before or true after is true, true before drops
        # out, and f -> false is !f; equal operands stay
        ("c/d -> () c/d", "true", True),
        ("() c/d -> a/b", "true", True),
        ("a/b -> () c/d", "c/d", False),
        ("() c/d -> c/d", "!c/d", True),
        ("() !c/d -> c/d", "c/d", True),
        ("() c/d -> () c/d", "c/d -> c/d", True),
        ("() c/d -> () a/b", "c/d -> a/b", True),
        # the modalities join their operand's residual with the rest
        ("[] a/b", "[] a/b", True),
        ("<> c/d", "<> c/d", False),
        ("[]<=3 () c/d", "c/d /\\ []<=2 () c/d", False),
        ("<><=2 c/d", "c/d", False),
    ])
    def test_one_row_per_rule(self, text, residual, holds):
        clear_table()
        assert progress(parse_temporal(text), Utterance(frozenset({A}))) == (
            parse_temporal(residual), holds)
        assert_table_consistent()

    def test_a_collapsed_step_builds_no_node(self, monkeypatch):
        # she/her /\ they/them on an utterance with both is true: the walk
        # applies the rules to the operands' states, so no And is built.
        f = monitoring._intern(parse_temporal("she/her /\\ they/them"))
        built = []
        init = tl.And.__init__

        def counting(self, *fields):
            built.append(fields)
            init(self, *fields)

        monkeypatch.setattr(tl.And, "__init__", counting)
        assert progress(f, Utterance(frozenset({SHE, THEY}))) == (tl.TRUE, True)
        assert built == []


def test_stepwise_residuals_are_pinned():
    # Every stepwise residual and ends-now answer of criterion 4's formulas
    # over every trace of length <= 3, each prefix walked once, rendered and
    # hashed. The digest was recorded once towers of like bounded modalities
    # were collapsed when interned: that moved the residual text of the 20
    # formulas such as []<=2 []<=3 a/b, and no ends-now answer.
    digest = hashlib.sha256()
    traces = all_traces(3)
    for f in temporal_formulas(3):
        walked = {(): (f, "")}
        for t in traces:
            if t.utterances:
                g, text = walked[t.utterances[:-1]]
                g, holds = progress(g, t.utterances[-1])
                walked[t.utterances] = g, f"{text} {tl.render(g)} {holds:d};"
        line = tl.render(f) + "\t" + "".join(text for _, text in walked.values()) + "\n"
        digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == (
        "1440153ce40b200b3780690dc91494ebdd81dbec75f549d815ce3e95d52fca5d")


class TestMonitor:
    def test_box_violation_position(self):
        verdicts = monitor(tl.Box(tl.Atom(SHE)), trace({SHE}, {SHE}, {THEY}).utterances)
        assert [v.status for v in verdicts] == [INCONCLUSIVE, INCONCLUSIVE, VIOLATED]
        assert verdicts[-1].witness_position == 2

    def test_diamond_satisfaction_position(self):
        verdicts = monitor(tl.Diamond(tl.Atom(THEY)), trace({SHE}, {THEY}).utterances)
        assert [v.status for v in verdicts] == [INCONCLUSIVE, SATISFIED]
        assert verdicts[-1].witness_position == 1

    def test_reach_avoid_fails_immediately(self):
        f = tl.And(tl.Box(tl.Not(tl.Atom(HE))), tl.Diamond(tl.Atom(THEY)))
        verdicts = monitor(f, trace({HE}).utterances)
        assert verdicts[0].status == VIOLATED
        assert verdicts[0].witness_position == 0

    def test_end_of_stream_forces_a_verdict(self):
        verdicts = monitor(tl.Diamond(tl.Atom(SHE)), trace({THEY}).utterances)
        assert [v.status for v in verdicts] == [INCONCLUSIVE, VIOLATED]
        verdicts = monitor(tl.Box(tl.Atom(SHE)), trace({SHE}).utterances)
        assert [v.status for v in verdicts] == [INCONCLUSIVE, SATISFIED]

    def test_empty_stream(self):
        assert monitor(tl.Box(tl.Atom(SHE)), EMPTY_TRACE.utterances)[-1].status == SATISFIED
        assert monitor(tl.Diamond(tl.Atom(SHE)), EMPTY_TRACE.utterances)[-1].status == VIOLATED

    def test_monotonicity_exhaustively(self):
        for f in temporal_formulas(2):
            for t in all_traces(3):
                verdicts = monitor(f, t.utterances)
                conclusive = None
                for v in verdicts:
                    if conclusive is not None:
                        assert v.status == conclusive
                    elif v.conclusive:
                        conclusive = v.status

    def test_true_under_strong_next_is_not_yet_satisfied(self):
        # After one utterance () true leaves true, but its next is strong:
        # the stream may not end here, so the verdict waits for a second.
        f = parse_temporal("() true")
        silent = Utterance(frozenset())
        assert [v.status for v in monitor(f, [silent])] == [INCONCLUSIVE, VIOLATED]
        assert verdict_codes(monitor(f, [silent] * 3)) == "IS1S1"

    def test_position_counts_every_utterance_fed(self):
        # A conclusive session still counts the utterances fed after it.
        session = MonitorSession(parse_temporal("<> a/b"))
        for i, atoms in enumerate(({C}, {A}, set(), {C})):
            verdict = session.feed(Utterance(frozenset(atoms)))
            assert session.position == i + 1
        assert (verdict.status, verdict.witness_position) == (SATISFIED, 1)
        assert session.finish() is verdict

    def test_feed_is_one_progress_walk(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a session must not call this")

        monkeypatch.setattr(monitoring, "expand_bounded", forbidden)
        session = MonitorSession(parse_temporal("[]<=3 (she/her \\/ () they/them)"))
        monkeypatch.setattr(monitoring, "evaluate", forbidden)
        statuses = [session.feed(Utterance(frozenset(s))).status
                    for s in ({SHE}, {SHE}, {SHE, THEY}, set())]
        assert statuses == [INCONCLUSIVE, INCONCLUSIVE, SATISFIED, SATISFIED]

    def test_residuals_deeper_than_the_recursion_limit(self):
        # A session interns each residual it takes over; on these a
        # recursive walk, like the structural ==, would go 3000 and 5000
        # levels deep.
        utterances = [Utterance(frozenset({A}))] * 5
        chain = tl.Atom(A)
        for _ in range(3000):
            chain = tl.Next(chain)
        assert [v.status for v in monitor(chain, utterances)] == [INCONCLUSIVE] * 5 + [
            VIOLATED]
        bounded = parse_temporal("[]<=5000 a/b")
        verdicts = monitor(expand_bounded(bounded), utterances)
        assert verdicts == monitor(bounded, utterances)
        assert verdicts[-1].status == SATISFIED

    def test_residual_comparison_is_structural_equality(self):
        # Two formulas intern to one object exactly when they are equal.
        forms = temporal_formulas(3)
        rng = random.Random(46)
        pairs = [(f, copy.deepcopy(f)) for f in forms]
        pairs += [(rng.choice(forms), copy.deepcopy(rng.choice(forms)))
                  for _ in range(20_000)]
        pairs += [(tl.BoxK(2, f), tl.BoxK(3, f)) for f in forms[:50]]
        pairs += [(tl.DiamondK(2, f), tl.DiamondK(3, f)) for f in forms[:50]]
        for f, g in pairs:
            same = monitoring._intern(f) is monitoring._intern(g)
            assert same == (f == g), (tl.render(f), tl.render(g))
        c1, c2 = next_chain(3000, A), next_chain(3000, A)
        assert monitoring._intern(c1) is monitoring._intern(c2)
        assert monitoring._intern(tl.BoxK(2, c1)) is not monitoring._intern(tl.BoxK(3, c2))
        for other in (next_chain(3000, C), next_chain(2999, A), next_chain(3001, A)):
            assert monitoring._intern(c1) is not monitoring._intern(other)

    def test_equal_deep_operands_built_apart(self):
        # Two 3000-deep () chains built apart: a structural comparison of
        # the two operands, like the structural ==, would recurse 3000 levels deep.
        c1, c2 = next_chain(3000, A), next_chain(3000, A)
        utterances = [Utterance(frozenset({A}))] * 5
        verdicts = monitor(tl.And(tl.Next(c1), tl.Next(c2)), utterances)
        assert [v.status for v in verdicts] == [INCONCLUSIVE] * 5 + [VIOLATED]

    def test_a_walk_merges_equal_operands_by_identity(self):
        # Without a/b, <><=3 a/b leaves <><=2 a/b and () <><=2 a/b leaves
        # its operand. The walk builds the first as the state the second
        # already is, so the conjunction of the two is that one state.
        session = MonitorSession(parse_temporal("<><=3 a/b /\\ () <><=2 a/b"))
        assert session.feed(Utterance(frozenset())).status == INCONCLUSIVE
        assert session.residual == parse_temporal("<><=2 a/b")
        assert monitoring._intern(session.residual) is session.residual

    def test_final_verdict_matches_semantics_small(self):
        for f in temporal_formulas(2):
            expanded = expand_bounded(f)
            for t in all_traces(2):
                expected = SATISFIED if evaluate(expanded, t, 0) else VIOLATED
                assert monitor(f, t.utterances)[-1].status == expected, tl.render(f)

    def test_same_verdicts_as_on_the_expansion(self):
        # Progressing []<=k and <><=k directly must give, step by step, the
        # verdicts that progressing their expansion gives: status and witness.
        rng = random.Random(8)
        for _ in range(2000):
            f = rebound(rng, random_temporal(rng, rng.randint(1, 5)))
            for _ in range(rng.randint(0, 2)):
                f = rng.choice((tl.BoxK, tl.DiamondK))(rng.randint(1, 8), f)
            t = random_trace(rng, rng.randint(0, 30))
            assert monitor(f, t.utterances) == monitor(expand_bounded(f), t.utterances), (
                tl.render(f), t)


def nodes_of(formula):
    """Every node object of ``formula``, each once, shared ones included."""
    seen, stack = {}, [formula]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(tl.children(node))
    return list(seen.values())


def tree_size(formula):
    """The number of nodes of ``formula`` as a tree, a shared part once per
    place it fills, counted without recursion."""
    count, stack = 0, [formula]
    while stack:
        count += 1
        stack.extend(tl.children(stack.pop()))
    return count


def next_chain(depth, a):
    """``a`` under ``depth`` Nexts, built afresh."""
    chain = tl.Atom(a)
    for _ in range(depth):
        chain = tl.Next(chain)
    return chain


def rebound(rng, f):
    """``f`` with every bound drawn again from 1..8."""
    parts = [rebound(rng, c) for c in tl.children(f)]
    if isinstance(f, (tl.BoxK, tl.DiamondK)):
        return type(f)(rng.randint(1, 8), *parts)
    return type(f)(*parts) if parts else f


def verdict_codes(verdicts):
    """A verdict list as text: per verdict, the status's initial, then the
    witness position if there is one. Inconclusive, then Satisfied at
    position 1 twice, reads ``IS1S1``."""
    return "".join(
        v.status[0] + ("" if v.witness_position is None else str(v.witness_position))
        for v in verdicts
    )


def test_stepwise_verdicts_are_pinned():
    # Every depth-2 formula over every trace of length <= 3: the full verdict
    # list, status and witness, recorded from the monitor that re-evaluated
    # each residual on a one-utterance trace before progressing it. One line
    # per formula, one space-separated group per trace in all_traces order.
    traces = all_traces(3)
    lines = [
        tl.render(f) + "\t" + " ".join(verdict_codes(monitor(f, t.utterances)) for t in traces)
        for f in temporal_formulas(2)
    ]
    golden = Path(__file__).with_name("monitor_verdicts.golden")
    assert lines == golden.read_text(encoding="utf-8").splitlines()


class TestResidualGrowth:
    """Progression must not pile up copies of an obligation it already holds."""

    def test_box_diamond_over_2000_steps(self):
        session = MonitorSession(parse_temporal("[] <> she/her"))
        for _ in range(2000):
            assert session.feed(Utterance(frozenset({THEY}))).status == INCONCLUSIVE
            assert tree_size(session.residual) <= 6
        session.feed(Utterance(frozenset({SHE})))
        assert session.finish().status == SATISFIED

    def test_forty_nested_boxes(self):
        session = MonitorSession(parse_temporal("[] " * 40 + "she/her"))
        sizes = []
        for _ in range(10):
            session.feed(Utterance(frozenset({SHE})))
            sizes.append(tree_size(session.residual))
        assert max(sizes) < 1000
        assert sizes[-1] == sizes[0]
        assert session.finish().status == SATISFIED


class TestTowers:
    """A bounded modality over one of its own kind is one bound when
    interned: []<=i []<=j f is []<=(i+j-1) f, and so for <><=."""

    @pytest.mark.parametrize("tower, bound", [
        ("[]<=3 []<=4 a/b", "[]<=6 a/b"),
        ("<><=3 <><=4 a/b", "<><=6 a/b"),
        ("[]<=2 []<=2 []<=2 (a/b \\/ c/d)", "[]<=4 (a/b \\/ c/d)"),
        ("<><=1 <><=5 () a/b", "<><=5 () a/b"),
        ("!<><=2 <><=2 []<=2 []<=2 a/b", "!<><=3 []<=3 a/b"),
    ])
    def test_a_tower_interns_to_one_bound(self, tower, bound):
        assert monitoring._intern(parse_temporal(tower)) is monitoring._intern(
            parse_temporal(bound))

    @pytest.mark.parametrize("text", ["[]<=2 <><=3 a/b", "<><=3 []<=2 a/b",
                                      "[]<=2 () []<=2 a/b", "[] []<=2 a/b"])
    def test_unlike_modalities_stay_apart(self, text):
        assert tl.render(monitoring._intern(parse_temporal(text))) == text

    def test_towers_against_the_direct_semantics(self):
        # Towers of random height, kind and bounds over small bodies: the
        # stepwise verdicts equal those of the expansion, which has no
        # tower, and the last one agrees with the direct semantics.
        rng = random.Random(66)
        for _ in range(1500):
            f = random_temporal(rng, rng.randint(1, 3))
            for _ in range(rng.randint(2, 5)):
                f = rng.choice((tl.BoxK, tl.DiamondK))(rng.randint(1, 4), f)
            t = random_trace(rng, rng.randint(0, 14))
            verdicts = monitor(f, t.utterances)
            assert verdicts == monitor(expand_bounded(f), t.utterances), (tl.render(f), t)
            expected = SATISFIED if direct_evaluate(f, t, 0) else VIOLATED
            assert verdicts[-1].status == expected, (tl.render(f), t)

    def test_ninety_nine_nested_bounds_answer_at_once(self):
        # []<=3 nested 99 deep is []<=199: one state per step, where the
        # uncollapsed residual kept a conjunct per combination of bounds.
        f = parse_temporal("[]<=3 " * 99 + "a/b")
        said, silent = Utterance(frozenset({A})), Utterance(frozenset())
        with budget(1):
            assert monitor(f, [said] * 50)[-1].status == SATISFIED
            verdicts = monitor(f, [said] * 30 + [silent] + [said] * 19)
        assert (verdicts[-1].status, verdicts[-1].witness_position) == (VIOLATED, 30)


def clear_table():
    """Empty the process's transition table."""
    for table in (monitoring._states, monitoring._steps):
        table.clear()


@pytest.fixture
def walks(monkeypatch):
    """Empties the transition table, then records every progress walk made
    from there on: one entry per whole walk, not per recursive call."""
    clear_table()
    made = []
    depth = [0]
    original = monitoring.progress

    def counting(formula, utterance):
        if not depth[0]:
            made.append(formula)
        depth[0] += 1
        try:
            return original(formula, utterance)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(monitoring, "progress", counting)
    return made


def assert_table_consistent():
    """Every id in a key of the transition table names an object that the
    entry holds, every state an entry reaches is a canonical one, and so is
    every state that a step leaves; a session start leaves its formula."""
    states = {id(state) for state in monitoring._states.values()}
    for key, state in monitoring._states.items():
        assert monitoring._key(state) == key
        assert all(id(kid) in states for kid in tl.children(state))
    for (key, atoms), (source, target, _) in monitoring._steps.items():
        assert key == id(source) and id(target) in states
        assert atoms is None or key in states


class TestTransitionTable:
    """One transition table per process: residuals interned by structure and
    progress walks memoized per (state, atom set), for every session."""

    def test_one_walk_per_state_and_atom_set(self, walks):
        session = MonitorSession(parse_temporal("[] (she/her \\/ they/them)"))
        for i in range(10_000):
            verdict = session.feed(Utterance(frozenset({SHE} if i % 2 else {THEY})))
            assert verdict.status == INCONCLUSIVE
        assert session.finish().status == SATISFIED
        assert len(walks) <= 4

    def test_response_pattern_walks_each_state_once(self, walks):
        # The benchmark's stepwise [] (a/b -> <><=5 c/d) over 4000 utterances
        # has 5 states; without interning it took over 800 walks.
        utterances = workloads.to_trace(
            workloads.response_trace(random.Random(12), 4000)).utterances
        verdicts = monitor(parse_temporal(workloads.RESPONSE), utterances)
        assert verdicts[-1].status == SATISFIED
        assert len(walks) <= 100
        walks.clear()
        assert monitor(parse_temporal(workloads.RESPONSE), utterances) == verdicts
        assert walks == []

    def test_a_second_session_of_one_formula_walks_nothing(self, walks, monkeypatch):
        # The states are an equal formula's, parsed apart, so interning this
        # one walks it; a start entry keyed on the formula object spares a
        # second session that walk and the empty trace's evaluation.
        text = "[] (she/her -> <><=3 they/them) /\\ <> he/him"
        utterances = [Utterance(frozenset(s)) for s in ({SHE}, {THEY}, {C}, {SHE}, {THEY})]
        first = monitor(parse_temporal(text), utterances)
        formula = parse_temporal(text)
        assert monitor(formula, utterances) == first
        calls = []
        for name in ("_intern", "_canon", "evaluate"):
            def counting(*args, original=getattr(monitoring, name), name=name):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(monitoring, name, counting)
        walks.clear()
        session = MonitorSession(formula)
        assert calls == []
        assert [session.feed(u) for u in utterances] + [session.finish()] == first
        assert (calls, walks) == ([], [])
        # a session that is never fed evaluates the empty trace at its end
        assert MonitorSession(formula).finish().status == VIOLATED
        assert calls == ["evaluate"]

    def test_table_stays_under_its_cap(self, walks):
        # <><=k a/b lowers its bound at every step without a/b, so every
        # step adds a state and a transition, and the table fills and is
        # cleared. A clear comes before the miss that would pass the cap,
        # and that miss adds one state and one transition.
        cap = MonitorSession.STEP_CAP
        session = MonitorSession(parse_temporal("<><=10000 a/b"))
        states, steps, totals = [], [], []
        for _ in range(10_000):
            session.feed(Utterance(frozenset({C})))
            states.append(len(monitoring._states))
            steps.append(len(monitoring._steps))
            totals.append(states[-1] + steps[-1])
        assert session.finish().status == VIOLATED
        assert len(walks) == 10_000
        assert max(states) <= cap // 2 + 2 and max(steps) <= cap // 2 + 1
        assert cap <= max(totals) <= cap + 1
        # cleared: the next step holds its state, that state's atom, the
        # next state and the transition between them
        assert totals[totals.index(max(totals)) + 1] == 4
        # [] <> a/b rebuilds an equal residual at every such step, which
        # interns to the same state: two walks in all.
        walks.clear()
        session = MonitorSession(parse_temporal("[] <> a/b"))
        for _ in range(10_000):
            session.feed(Utterance(frozenset({C})))
        assert session.finish().status == VIOLATED
        assert len(walks) <= 2

    def test_memoized_verdicts_match_unmemoized(self, monkeypatch):
        # Long random traces revisit states; with a cap of one, every miss
        # clears the table. Both must give the same verdicts, and the final
        # one must agree with the direct semantics.
        rng = random.Random(9)
        cases = [(random_temporal(rng, rng.randint(1, 5)), random_trace(rng, 30))
                 for _ in range(300)]
        memoized = [monitor(f, t.utterances) for f, t in cases]
        monkeypatch.setattr(MonitorSession, "STEP_CAP", 1)
        for (f, t), verdicts in zip(cases, memoized):
            assert monitor(f, t.utterances) == verdicts, tl.render(f)
            expected = SATISFIED if direct_evaluate(f, t, 0) else VIOLATED
            assert verdicts[-1].status == expected, tl.render(f)

    def test_interleaved_sessions_through_clears(self, monkeypatch):
        # Three sessions fed in turn share the table while a small cap
        # clears it under them; each gives its solo verdicts, and the table
        # stays consistent after every step.
        rng = random.Random(10)
        clears = 0
        for _ in range(200):
            cases = [(random_temporal(rng, rng.randint(2, 5)), random_trace(rng, 30))
                     for _ in range(3)]
            solo = [monitor(f, t.utterances) for f, t in cases]
            clear_table()
            monkeypatch.setattr(MonitorSession, "STEP_CAP", 8)
            sessions = [MonitorSession(f) for f, _ in cases]
            verdicts = [[] for _ in cases]
            for i in range(30):
                for session, (_, t), got in zip(sessions, cases, verdicts):
                    held = len(monitoring._steps)
                    got.append(session.feed(t.utterances[i]))
                    clears += len(monitoring._steps) < held
                    assert_table_consistent()
            monkeypatch.undo()
            for session, got in zip(sessions, verdicts):
                if not got[-1].conclusive:
                    got.append(session.finish())
            for (f, t), alone, got in zip(cases, solo, verdicts):
                assert got == alone, tl.render(f)
                expected = SATISFIED if direct_evaluate(f, t, 0) else VIOLATED
                assert got[-1].status == expected, tl.render(f)
        assert clears >= 400, clears

    def test_threads_share_the_table(self, monkeypatch):
        # More threads than cores, switching often, with a cap small enough
        # that clears race the lookups and stores of other threads.
        rng = random.Random(11)
        cases = [(random_temporal(rng, rng.randint(1, 5)), random_trace(rng, 30))
                 for _ in range(300)]
        expected = [monitor(f, t.utterances) for f, t in cases]
        monkeypatch.setattr(MonitorSession, "STEP_CAP", 32)
        results = {}

        def run(worker):
            results[worker] = [monitor(f, t.utterances) for f, t in cases]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(4)] == [expected] * 4


class TestTraceFormat:
    def test_basic(self):
        t = parse_trace("she/her they/them\n-\n# comment\n\nhe/him\n")
        assert [sorted(a.key for a in u.atoms) for u in t.utterances] == [
            ["she/her", "they/them"],
            [],
            ["he/him"],
        ]

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_trace("she her\n")

    @pytest.mark.parametrize("gap", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_a_line_ends_only_at_a_newline_or_carriage_return(self, gap):
        t = parse_trace(f"she/her{gap}they/them\r\n-\rhe/him\n")
        assert [sorted(a.key for a in u.atoms) for u in t.utterances] == [
            ["she/her", "they/them"],
            [],
            ["he/him"],
        ]

    def test_a_line_ends_at_a_hash(self):
        t = parse_trace("she/her # note\n- # silence\nthey/them#he/him\n  # indented\n")
        assert [sorted(a.key for a in u.atoms) for u in t.utterances] == [
            ["she/her"],
            [],
            ["they/them"],
        ]

    @pytest.mark.parametrize("token", ["she", "she/1", "/her", "she/her/x", "ſhe/her"])
    def test_every_bad_token_names_its_line(self, token):
        with pytest.raises(ValueError, match=r"^trace line 3: .*"):
            parse_trace(f"# header\nshe/her\nthey/them {token}\n")
