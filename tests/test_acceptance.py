"""Acceptance suite: one test per criterion, each with its runtime budget.

Every expected value here is computed against an independent oracle (naive
search, direct semantics, golden files) rather than against the code under
test. Budgets are asserted, so a pathological slowdown fails loudly.
"""

import random
import time

import pytest

from pdlogic import linear as ll
from pdlogic.atoms import atom
from pdlogic.cli import main
from pdlogic.freelogic import eval_term, parse_model
from pdlogic.monitoring import (
    SATISFIED,
    VIOLATED,
    Trace,
    Utterance,
    evaluate,
    expand_bounded,
    monitor,
)
from pdlogic.parsing import (
    ParseError,
    parse_free,
    parse_free_term,
    parse_linear,
    parse_sequent,
    parse_temporal,
)
from pdlogic.prover import check_proof, prove

from oracles import (
    all_small_sequents,
    all_traces,
    direct_evaluate,
    naive_derivable,
    random_free,
    random_free_term,
    random_linear,
    random_temporal,
    temporal_formulas,
)
from test_cli import SAMPLES


class budget:
    """Assert the block under ``with`` stays within its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s > {self.seconds}s"
            )


def test_criterion_1_safety_proof():
    """The descriptor she/her entails the choice it publishes."""
    with budget(1):
        sequent = parse_sequent(
            "|- she/her -o (she/her (+) (she/her * they/them))"
        )
        proof = prove(sequent)
        assert proof is not None
        assert check_proof(proof).ok


def test_criterion_2_linearity_suite():
    with budget(1):
        for text in (
            "she/her |- she/her * she/her",
            "a/b, c/d |- a/b",
            "a/b (+) c/d |- a/b & c/d",
        ):
            assert prove(parse_sequent(text)) is None, text
        for text in (
            "a/b & c/d |- a/b (+) c/d",
            "a/b * c/d |- c/d * a/b",
        ):
            proof = prove(parse_sequent(text))
            assert proof is not None, text
            assert check_proof(proof).ok, text


def test_criterion_3_prover_oracle_equivalence():
    """Every sequent with context <= 2 and total size <= 9 over two atoms:
    the prover agrees with the naive exhaustive oracle, and every positive
    answer carries a checkable proof."""
    with budget(60):
        memo = {}
        positives = 0
        sequents = all_small_sequents(max_total_size=9, max_context=2)
        for sequent in sequents:
            proof = prove(sequent)
            assert (proof is not None) == naive_derivable(
                list(sequent.context), sequent.goal, memo
            ), str(sequent)
            if proof is not None:
                positives += 1
                result = check_proof(proof)
                assert result.ok, f"{sequent}: {result.reason}"
        assert len(sequents) > 200_000  # the enumeration really is exhaustive
        assert positives > 0


def test_criterion_4_monitor_oracle_equivalence():
    """All temporal formulas of depth <= 3 over 2 atoms (k <= 3), all traces
    of length <= 4: the monitor's final verdict matches the direct recursive
    semantics of the oracle module."""
    with budget(120):
        traces = all_traces(4)
        formulas = temporal_formulas(3)
        for f in formulas:
            expanded = expand_bounded(f)
            for t in traces:
                expected = SATISFIED if direct_evaluate(expanded, t, 0) else VIOLATED
                assert monitor(f, t.utterances)[-1].status == expected
        assert len(formulas) * len(traces) > 1_000_000


def test_criterion_5_descriptor_pattern_suite():
    SHE, HE, THEY = atom("she/her"), atom("he/him"), atom("they/them")
    A = atom("a/b")

    def trace(*sets):
        return Trace(tuple(Utterance(frozenset(s)) for s in sets))

    cases = [
        ("[] she/her", trace({SHE}, {SHE}, {THEY}), False),
        ("<><=2 she/her", trace({THEY}, {SHE}), True),
        ("[] (!a/b -> () a/b)", trace(set(), {A}, {A}), True),
        ("[] (!a/b -> () ([] a/b))", trace(set(), {A}, {A}, {A}), True),
        ("[] (!a/b -> () ([] a/b))", trace(set(), {A}, set(), {A}), False),
        ("[] !they/them -> [] !he/him", trace({SHE}, set(), {SHE}), True),
        ("[] !they/them -> [] !he/him", trace({THEY}, {HE}), True),
        ("[] !they/them -> [] !he/him", trace({SHE}, {HE}), False),
        ("[] !he/him /\\ <> they/them", trace({SHE}, {THEY}), True),
        ("[] !he/him /\\ <> they/them", trace({HE}, {THEY}), False),
    ]
    with budget(1):
        for text, t, expected in cases:
            f = parse_temporal(text)
            # the bit-vector pass, on the formula and on its expansion, must
            # agree with the direct recursive semantics and with the
            # precomputed expectation
            labelled = evaluate(f, t, 0)
            via_expansion = evaluate(expand_bounded(f), t, 0)
            direct = direct_evaluate(f, t, 0)
            assert labelled == via_expansion == direct == expected, text


def test_criterion_6_description_terms():
    with budget(1):
        two_men = parse_model("domain: a b\npred man/1: a b\n")
        one_man = parse_model("domain: a b\npred man/1: b\n")
        iota_man = parse_free_term("iota x. man(x)")
        eps_bad = parse_free_term("eps x. (man(x) /\\ !man(x))")
        assert eval_term(two_men, {}, iota_man) is None
        assert eval_term(two_men, {}, eps_bad) is None
        assert eval_term(one_man, {}, iota_man) == "b"


def test_criterion_7_parser_round_trip_volume():
    from pdlogic import freelogic as fl
    from pdlogic import temporal as tl

    rng = random.Random(94155)
    with budget(30):
        for _ in range(10_000):
            f = random_linear(rng, 5)
            assert parse_linear(ll.render(f)) == f
        for _ in range(10_000):
            f = random_temporal(rng, 5)
            assert parse_temporal(tl.render(f)) == f
        for _ in range(10_000):
            f = random_free(rng, 4)
            assert parse_free(fl.render(f)) == f
            t = random_free_term(rng, 4)
            assert parse_free_term(fl.render_term(t)) == t
        for _ in range(10_000):
            junk = rng.randbytes(rng.randrange(40)).decode("utf-8", "replace")
            for parse in (parse_linear, parse_temporal, parse_free, parse_sequent):
                try:
                    parse(junk)
                except ParseError:
                    pass


@pytest.mark.parametrize(
    "name,expect_violation",
    [
        ("violated", True),
        ("vacuous", False),
        ("prompt_fix", False),
        ("eventually", True),
    ],
)
def test_criterion_8_golden_reports(capsys, name, expect_violation):
    with budget(1):
        code = main([
            "check", str(SAMPLES / f"{name}.spec"),
            str(SAMPLES / f"{name}_doc.txt"), "--machine",
        ])
        out = capsys.readouterr().out
        assert out.encode() == (SAMPLES / f"{name}.golden").read_bytes()
        assert code == (1 if expect_violation else 0)
