"""Description terms and formula evaluation over finite models."""

import itertools
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from pdlogic import freelogic as fl
from pdlogic.freelogic import (
    Model,
    ModelFormatError,
    UnboundVariableError,
    UnknownPredicateError,
    check_sentence,
    eval_formula,
    eval_term,
    parse_model,
)
from pdlogic.parsing import parse_free, parse_free_term
from pdlogic.prover import ResourceLimit

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402
import workloads  # noqa: E402

TWO_MEN = parse_model("domain: a b\npred man/1: a b\n")
ONE_MAN = parse_model("domain: a b\npred man/1: b\n")
ONLY_B_IS_P = parse_model("domain: a b\npred p/1: b\n")

# No scope rule splits this body, which uses all four variables.
WIDE = parse_free("forall x. forall y. forall z. forall w. !r(x, y, z, w)")
# Scoped, this one is forall x. forall y. x = y \/ !(x = y) \/ (forall z. forall w. z = w).
SPLIT = parse_free("forall x. forall y. forall z. forall w. x = y \\/ !(x = y) \\/ z = w")
# SPLIT's shape over the variables and predicates of oracles.random_free
WIDE_SMALL = parse_free("forall x. forall y. forall z. loves(x, y) \\/ !man(x) \\/ happy(z)")
VARIABLES = ("x", "y", "z")

IOTA_MAN = parse_free_term("iota x. man(x)")
EPS_CONTRADICTION = parse_free_term("eps x. (man(x) /\\ !man(x))")


class TestEvalTerm:
    def test_iota_needs_a_unique_satisfier(self):
        assert eval_term(TWO_MEN, {}, IOTA_MAN) is None

    def test_contradictory_epsilon_does_not_denote(self):
        assert eval_term(TWO_MEN, {}, EPS_CONTRADICTION) is None

    def test_epsilon_picks_first_in_domain_order(self):
        assert eval_term(TWO_MEN, {}, parse_free_term("eps x. man(x)")) == "a"

    def test_iota_with_unique_satisfier(self):
        assert eval_term(ONE_MAN, {}, IOTA_MAN) == "b"

    def test_variable_lookup(self):
        assert eval_term(TWO_MEN, {"x": "b"}, fl.Var("x")) == "b"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_term(TWO_MEN, {}, fl.Var("x"))


class TestEvalFormula:
    def test_no_witness_for_non_denoting_description(self):
        f = parse_free("exists y. y = iota x. man(x)")
        assert check_sentence(TWO_MEN, f) is False

    def test_membership_through_iota(self):
        assert check_sentence(ONE_MAN, parse_free("man(iota x. man(x))")) is True

    def test_excluded_middle_over_denoting_range(self):
        f = parse_free("forall x. man(x) \\/ !man(x)")
        assert check_sentence(TWO_MEN, f) is True
        assert check_sentence(ONE_MAN, f) is True

    def test_non_denoting_argument_makes_atom_false(self):
        f = parse_free("man(eps x. (man(x) /\\ !man(x)))")
        assert check_sentence(TWO_MEN, f) is False

    def test_identity_sentences(self):
        assert check_sentence(TWO_MEN, parse_free("exists x. x = x")) is True
        assert check_sentence(TWO_MEN, parse_free("exists x. !(x = x)")) is False

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicateError):
            check_sentence(TWO_MEN, parse_free("forall x. woman(x) \\/ !woman(x)"))

    def test_free_variable_rejected_by_check_sentence(self):
        with pytest.raises(UnboundVariableError):
            check_sentence(TWO_MEN, parse_free("man(x)"))

    def test_unknown_predicate_rejected_before_evaluation(self):
        # only the second reaches q when evaluated: the first stops at p(a), the
        # third at !(x = x)
        for text in ("forall x. p(x) /\\ q(x)", "exists x. p(x) \\/ q(x)",
                     "p(eps x. !(x = x) /\\ q(x))"):
            with pytest.raises(UnknownPredicateError, match="^model does not interpret q/1$"):
                check_sentence(ONLY_B_IS_P, parse_free(text))

    def test_first_unknown_predicate_in_reading_order_is_named(self):
        with pytest.raises(UnknownPredicateError, match="^model does not interpret r/2$"):
            check_sentence(ONLY_B_IS_P, parse_free("r(iota x. q(x), iota y. s(y))"))

    def test_free_variable_of_a_term_rejected_before_evaluation(self):
        # the body is false before p(y) is reached, for every x
        term = parse_free_term("eps x. !(x = x) /\\ p(y) /\\ p(w)")
        with pytest.raises(UnboundVariableError, match="^term has free variables: w, y$"):
            eval_term(ONLY_B_IS_P, {}, term)
        assert eval_term(ONLY_B_IS_P, {"y": "b", "w": "a"}, term) is None

    def test_nested_descriptions_answer_at_any_depth(self):
        # p(iota x. p(iota x. ... p(x))): each description is closed, so it is
        # evaluated once, not once per binding of the x around it. Evaluated
        # that way, depth 30 would take 2^30 evaluations.
        def nested(depth):
            return parse_free("p(iota x. " * depth + "p(x)" + ")" * depth)

        assert check_sentence(ONLY_B_IS_P, nested(17)) is False
        assert check_sentence(ONLY_B_IS_P, nested(30)) is False
        assert check_sentence(ONLY_B_IS_P, nested(100)) is False
        deep = nested(22)
        fastest = min(timed(check_sentence, ONLY_B_IS_P, deep) for _ in range(3))
        assert fastest < 0.01

    def test_wide_sentence_past_the_budget_raises(self):
        # No scope rule splits the body, which uses all four variables, so it
        # is evaluated past the memo once for each of the 32^4 bindings: more
        # than the 10^6 budget.
        model = Model(tuple(f"i{k}" for k in range(32)), {("r", 4): frozenset()})
        with pytest.raises(ResourceLimit, match="^free-logic evaluation budget exhausted$"):
            check_sentence(model, WIDE)
        # the budget is per call: the next one starts afresh
        assert check_sentence(model, parse_free("forall x. x = x")) is True

    def test_a_wide_sentence_that_scoping_splits_answers(self, monkeypatch):
        # Its scoped body uses two variables, and it is true at x = y or at
        # !(x = y), so each of the 32^2 bindings takes at most 9 evaluations:
        # two disjunctions, !, and each = with its two variables. forall z.
        # forall w. z = w is never reached. Unscoped, it took 32^4 bindings.
        model = Model(tuple(f"i{k}" for k in range(32)))
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 10 * 32 * 32)
        assert check_sentence(model, SPLIT) is True

    def test_budget_counts_evaluations_of_the_scoped_formula(self, monkeypatch):
        # Scoped, (forall x. man(x)) /\ (forall y. happy(y)): the conjunction
        # and two binders, then each atom and its variable once per individual.
        model = parse_model("domain: a b c d e\npred man/1: a b c d e\npred happy/1: a b c d e\n")
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 3 + 2 * 2 * 5)
        assert check_sentence(model, parse_free("forall x. forall y. man(x) /\\ happy(y)"))
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 3 + 2 * 2 * 5 - 1)
        with pytest.raises(ResourceLimit):
            check_sentence(model, parse_free("forall x. forall y. man(x) /\\ happy(y)"))

    def test_budget_counts_evaluations_past_the_memo(self, monkeypatch):
        # The 23 descriptions and the 23 atoms around them are closed, so each
        # is evaluated once; the innermost p(x) and its x once per individual.
        formula = parse_free("p(iota x. " * 23 + "p(x)" + ")" * 23)
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 50)
        assert check_sentence(ONLY_B_IS_P, formula) is False
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 49)
        with pytest.raises(ResourceLimit):
            check_sentence(ONLY_B_IS_P, formula)

    def test_memo_holds_no_more_entries_than_evaluations_spent(self, monkeypatch):
        built = []

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        real = fl._Evaluation
        monkeypatch.setattr(fl, "_Evaluation", recording)
        rng = random.Random(12)
        formulas = [parse_free("man(iota x. " * 22 + "man(x)" + ")" * 22), WIDE_SMALL]
        formulas += [oracles.random_free(rng, 5) for _ in range(200)]
        for formula in formulas:
            model = random_full_model(rng)
            env = {v: rng.choice(model.domain) for v in VARIABLES}
            eval_formula(model, env, formula)
            # the tables of the evaluation that this very call ran
            evaluation, = built
            built.clear()
            spent = fl.DEFAULT_BUDGET - evaluation.left
            entries = sum(len(table) for _, table in evaluation.marked.values())
            assert 0 < spent and entries <= spent

    def test_binders_stop_once_the_answer_is_fixed(self, monkeypatch):
        # eps stops at its first satisfier and iota at its second, so over
        # 20,000 individuals each answers in a handful of evaluations.
        model = Model(tuple(f"i{k}" for k in range(20_000)))
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 10)
        assert eval_term(model, {}, parse_free_term("eps x. x = x")) == "i0"
        assert eval_term(model, {}, parse_free_term("iota x. x = x")) is None

    def test_a_binder_that_both_conjuncts_use_stops_early(self):
        # forall x stays over both conjuncts, so it stops at its first
        # individual, where !(x = x) is false. A forall x over each conjunct
        # would first scan the 100^3 bindings of the left one, past the budget.
        model = Model(tuple(f"i{k}" for k in range(100)))
        assert check_sentence(model, parse_free(
            "forall x. forall y. forall z. !(x = y /\\ y = z /\\ !(x = z)) /\\ !(x = x)")) is False

    @pytest.mark.parametrize("text, spent", [
        ("forall x. man(x) /\\ happy(x)", 6), ("exists x. !man(x) \\/ !happy(x)", 8),
    ], ids=["forall", "exists"])
    def test_a_binder_stops_at_the_operand_that_fixes_it(self, monkeypatch, text, spent):
        # Over 1000 men, none happy, the binder stops at its first individual:
        # the binder and the connective, then each atom, its variable and any
        # ! over it once.
        domain = tuple(f"i{k}" for k in range(1000))
        model = Model(domain, {("man", 1): frozenset((i,) for i in domain),
                               ("happy", 1): frozenset()})
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", spent)
        check_sentence(model, parse_free(text))
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", spent - 1)
        with pytest.raises(ResourceLimit):
            check_sentence(model, parse_free(text))

    def test_a_part_that_two_places_share_is_evaluated_once(self, monkeypatch):
        # One object at both places: the right one is answered by the memo,
        # so the sentence costs the conjunction and one scan of the domain.
        every = parse_free("forall x. x = x")
        model = Model(tuple(f"i{k}" for k in range(1000)))
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 1 + 1 + 3 * 1000)
        assert check_sentence(model, fl.And(every, every)) is True
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 1 + 1 + 3 * 1000 - 1)
        with pytest.raises(ResourceLimit):
            check_sentence(model, fl.And(every, every))

    def test_atoms_stop_at_an_argument_that_does_not_denote(self, monkeypatch):
        # Each description scans all 20,000 individuals in 80,001 evaluations.
        # The atom is false once its first argument does not denote, so it
        # answers in 80,002; evaluating its second argument too would take
        # 160,003.
        model = Model(tuple(f"i{k}" for k in range(20_000)), {("p", 2): frozenset()})
        monkeypatch.setattr(fl, "DEFAULT_BUDGET", 100_000)
        for text in ("(eps x. !(x = x)) = (eps y. !(y = y))",
                     "p(eps x. !(x = x), eps y. !(y = y))"):
            assert check_sentence(model, parse_free(text)) is False, text

    def test_term_where_a_formula_belongs_raises(self):
        with pytest.raises(TypeError, match=r"^not a free-logic formula: Var\(name='x'\)$"):
            eval_formula(TWO_MEN, {"x": "a"}, fl.Not(fl.Var("x")))
        with pytest.raises(TypeError, match=r"^not a free-logic term: "):
            eval_term(TWO_MEN, {}, parse_free("man(iota x. man(x))"))


class TestThreads:
    def test_concurrent_evaluations_keep_their_own_budget(self):
        # Each call counts its own evaluations. With one count per process,
        # a thread that finished reset it while another still spent from it.
        formula = parse_free("p(iota x. " * 10 + "p(x)" + ")" * 10)
        expected = check_sentence(ONLY_B_IS_P, formula)
        answers, errors = [], []

        def work():
            try:
                for _ in range(300):
                    answers.append(check_sentence(ONLY_B_IS_P, formula))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [expected] * 1200


def random_model(rng):
    domain = tuple(f"d{i}" for i in range(rng.randint(1, 4)))
    extension = frozenset(
        (d,) for d in domain if rng.random() < 0.5
    )
    return Model(domain, {("p", 1): extension})


def random_full_model(rng, most=4):
    """One to ``most`` individuals, and every predicate of oracles.random_free."""
    domain = tuple(f"d{i}" for i in range(rng.randint(1, most)))
    return Model(domain, {
        (name, arity): frozenset(t for t in itertools.product(domain, repeat=arity)
                                 if rng.random() < 0.5)
        for name, arity in oracles._PREDS
    })


def timed(function, *args):
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started


class TestAgainstTheOracle:
    """The package evaluates each node once per binding of its own free
    variables; oracles.eval_formula and oracles.eval_term evaluate it once per
    binding of every variable bound around it. Each input is evaluated under
    two models and environments, so a memo kept from one call to the next
    answers wrongly."""

    def test_sentences_open_formulas_and_terms(self):
        rng = random.Random(20)
        denotations = []
        for _ in range(2000):
            formula = oracles.random_free(rng, 5)
            sentence = formula
            for name in sorted(fl._Scan(formula, fl.FreeFormula).free):
                sentence = rng.choice((fl.Forall, fl.Exists))(name, sentence)
            term = rng.choice((fl.Iota, fl.Epsilon))(rng.choice(VARIABLES),
                                                     oracles.random_free(rng, 5))
            for _ in range(2):
                model = random_full_model(rng)
                env = {name: rng.choice(model.domain) for name in VARIABLES}
                assert check_sentence(model, sentence) == oracles.eval_formula(
                    model, {}, sentence), fl.render(sentence)
                assert eval_formula(model, env, formula) == oracles.eval_formula(
                    model, env, formula), fl.render(formula)
                value = eval_term(model, env, term)
                assert value == oracles.eval_term(model, env, term), fl.render_term(term)
                denotations.append(value)
        # both kinds of answer are compared, many times
        assert denotations.count(None) > 500
        assert len(denotations) - denotations.count(None) > 500


SCOPE_VARIABLES = ("x", "y", "z", "w")


def random_scopable(rng, depth):
    """A formula over the predicates of oracles.random_free whose atoms each
    use one or two of x, y, z and w, so that a quantifier over a connective
    often has an operand to move onto. Its binders pick their variable at
    random, so some bind a variable that nothing uses and some one that a
    binder around them binds too. Some atoms hold a description whose body
    has quantifiers of its own."""
    if depth <= 1 or rng.random() < 0.2:
        roll = rng.random()
        first, second = (fl.Var(rng.choice(SCOPE_VARIABLES)) for _ in range(2))
        if roll < 0.1:
            first = rng.choice((fl.Iota, fl.Epsilon))(rng.choice(SCOPE_VARIABLES),
                                                      random_scopable(rng, 3))
        if roll < 0.3:
            return fl.Pred(rng.choice(("man", "happy")), (first,))
        if roll < 0.5:
            return fl.Eq(first, second)
        return fl.Pred("loves", (first, second))
    roll = rng.randrange(8)
    if roll == 0:
        return fl.Not(random_scopable(rng, depth - 1))
    if roll < 5:
        node = (fl.And, fl.Or, fl.Implies, fl.Implies)[roll - 1]
        return node(random_scopable(rng, depth - 1), random_scopable(rng, depth - 1))
    return rng.choice((fl.Forall, fl.Exists))(rng.choice(SCOPE_VARIABLES),
                                              random_scopable(rng, depth - 1))


def scoped(formula, kind=fl.FreeFormula):
    return fl._Scan(formula, kind).scoped


class TestScoping:
    """Evaluation scopes each quantifier tightly first. Each rule is pinned on
    the formula it builds, and formulas that the rules rewrite are evaluated
    against oracles.eval_formula and oracles.eval_term, which evaluate them as
    written."""

    @pytest.mark.parametrize("written, tight", [
        ("forall x. man(y)", "man(y)"),
        ("forall x. exists x. man(x)", "exists x. man(x)"),
        ("forall x. man(x) /\\ happy(x)", "forall x. man(x) /\\ happy(x)"),
        ("exists x. man(x) \\/ happy(x)", "exists x. man(x) \\/ happy(x)"),
        ("forall x. man(x) \\/ happy(x)", "forall x. man(x) \\/ happy(x)"),
        ("exists x. man(x) /\\ happy(x)", "exists x. man(x) /\\ happy(x)"),
        ("forall x. man(x) \\/ happy(y)", "(forall x. man(x)) \\/ happy(y)"),
        ("exists x. happy(y) /\\ man(x)", "happy(y) /\\ (exists x. man(x))"),
        ("forall x. man(x) -> happy(y)", "(exists x. man(x)) -> happy(y)"),
        ("exists x. man(x) -> happy(y)", "(forall x. man(x)) -> happy(y)"),
        ("forall x. happy(y) -> man(x)", "happy(y) -> (forall x. man(x))"),
        ("exists x. happy(y) -> man(x)", "happy(y) -> (exists x. man(x))"),
        ("forall x. man(x) -> happy(x)", "forall x. man(x) -> happy(x)"),
        ("forall x. !(man(x) /\\ happy(y))", "forall x. !(man(x) /\\ happy(y))"),
        ("forall x. (man(x) \\/ happy(y)) \\/ loves(y, y)",
         "((forall x. man(x)) \\/ happy(y)) \\/ loves(y, y)"),
        ("forall x. forall y. man(x) /\\ loves(x, y)",
         "forall x. man(x) /\\ (forall y. loves(x, y))"),
        ("forall x. forall y. (man(x) -> happy(y)) -> loves(x, x)",
         "forall x. (man(x) -> (exists y. happy(y))) -> loves(x, x)"),
        ("man(iota x. forall y. happy(y) /\\ man(x))",
         "man((iota x. (forall y. happy(y)) /\\ man(x)))"),
        (fl.render(SPLIT), "forall x. forall y. x = y \\/ !x = y \\/ (forall z. forall w. z = w)"),
    ], ids=["vacuous", "shadowed", "forall_over_and", "exists_over_or", "forall_over_or_stays",
            "exists_over_and_stays", "forall_onto_a_disjunct", "exists_onto_a_conjunct",
            "forall_onto_an_antecedent", "exists_onto_an_antecedent",
            "forall_onto_a_consequent", "exists_onto_a_consequent", "implication_stays",
            "negation_stays", "onto_an_operand_and_further", "the_inner_binder_moves_too",
            "the_dual_moves_on", "inside_a_description", "wide"])
    def test_rule(self, written, tight):
        assert fl.render(scoped(parse_free(written))) == tight

    def test_a_formula_with_no_quantifier_to_move_is_the_same_object(self):
        for formula in map(parse_free, (
                "man(iota x. loves(x, y)) /\\ !(y = y)", "forall x. man(x) \\/ happy(x)",
                "exists x. forall y. loves(x, y) -> man(x) /\\ happy(y)")):
            assert scoped(formula) is formula, fl.render(formula)
        term = parse_free_term("eps x. exists y. loves(x, y) /\\ happy(y)")
        assert scoped(term, fl.FreeTerm) is term
        rng = random.Random(41)
        kept = 0
        for _ in range(300):
            formula = oracles.random_free(rng, 5)
            if not any(word in fl.render(formula) for word in ("forall", "exists")):
                assert scoped(formula) is formula, fl.render(formula)
                kept += 1
        assert kept > 100

    def test_rewritten_formulas_against_the_oracle(self):
        rng = random.Random(41)
        rewritten = 0
        for _ in range(400):
            body = random_scopable(rng, 5)
            sentence = body
            for name in rng.sample(SCOPE_VARIABLES, 4):
                sentence = rng.choice((fl.Forall, fl.Exists))(name, sentence)
            term = rng.choice((fl.Iota, fl.Epsilon))(rng.choice(SCOPE_VARIABLES), body)
            rewritten += scoped(sentence) is not sentence
            for _ in range(2):
                model = random_full_model(rng, 3)
                env = {name: rng.choice(model.domain) for name in SCOPE_VARIABLES}
                assert check_sentence(model, sentence) == oracles.eval_formula(
                    model, {}, sentence), fl.render(sentence)
                assert eval_formula(model, env, body) == oracles.eval_formula(
                    model, env, body), fl.render(body)
                assert eval_term(model, env, term) == oracles.eval_term(
                    model, env, term), fl.render_term(term)
        assert rewritten > 300

    def test_no_part_is_evaluated_twice_with_the_same_values(self, monkeypatch):
        # Each part past the memo, but a variable, is recorded with the values
        # of its own free variables: a part whose marks are missing would be
        # recorded again with the same ones.
        def recording(ev, env, node):
            marked = ev.marked.get(id(node))
            if type(node) is not fl.Var and (marked is None or marked[0](env) not in marked[1]):
                kind = fl.FreeTerm if isinstance(node, fl.FreeTerm) else fl.FreeFormula
                names = sorted(fl._Scan(node, kind).free)
                visits.append((id(node), tuple(env[name] for name in names)))
            return real(ev, env, node)

        real = fl._eval
        monkeypatch.setattr(fl, "_eval", recording)
        rng = random.Random(42)
        for _ in range(150):
            sentence = random_scopable(rng, 5)
            for name in rng.sample(SCOPE_VARIABLES, 4):
                sentence = rng.choice((fl.Forall, fl.Exists))(name, sentence)
            visits = []
            check_sentence(random_full_model(rng, 3), sentence)
            assert len(visits) == len(set(visits)), fl.render(sentence)

    def test_the_benchmark_sentences_cost_no_more_evaluations(self, monkeypatch):
        # The eval sentences of the cli workload, built as perfbench/workloads.py
        # builds them from seeds 0-599: a scope rule that costs evaluations on
        # them shows here.
        built = []

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        real = fl._Evaluation
        monkeypatch.setattr(fl, "_Evaluation", recording)
        spent = []
        for seed in range(600):
            rng = random.Random(seed)
            for depth, size in workloads.EVAL_GRID:
                _, _, text = workloads.random_model(rng, size)
                variables = ["x", "y", "z", "w"][:depth]
                f = workloads.random_free(rng, 3, variables)
                for var in reversed(variables):
                    f = (rng.choice(("forall", "exists")), var, f)
                check_sentence(parse_model(text), parse_free(reference.free_text(f)))
                spent.append(fl.DEFAULT_BUDGET - built.pop().left)
        assert sum(spent) <= 81_660 and max(spent) <= 625


class TestLaws:
    def test_iota_uniqueness_law(self):
        rng = random.Random(7)
        body = parse_free("p(x)")
        for _ in range(200):
            model = random_model(rng)
            satisfiers = [
                d for d in model.domain if eval_formula(model, {"x": d}, body)
            ]
            value = eval_term(model, {}, fl.Iota("x", body))
            if len(satisfiers) == 1:
                assert value == satisfiers[0]
            else:
                assert value is None

    def test_epsilon_deterministic_and_order_sensitive(self):
        rng = random.Random(8)
        term = fl.Epsilon("x", parse_free("p(x)"))
        for _ in range(100):
            model = random_model(rng)
            first = eval_term(model, {}, term)
            assert eval_term(model, {}, term) == first
            for perm in itertools.permutations(model.domain):
                permuted = Model(tuple(perm), model.predicates)
                # the witness may move, but denoting-or-not never changes
                assert (eval_term(permuted, {}, term) is None) == (first is None)

    def test_negative_free_law(self):
        rng = random.Random(9)
        for _ in range(100):
            model = random_model(rng)
            satisfiers = [
                d
                for d in model.domain
                if eval_formula(model, {"x": d}, parse_free("p(x)"))
            ]
            if len(satisfiers) == 1:
                continue  # denoting case; the law is about non-denoting terms
            f = parse_free("p(iota x. p(x))")
            assert check_sentence(model, f) is False
            assert check_sentence(model, fl.Not(f)) is True

    def test_quantifiers_bind_exactly_the_domain(self):
        # The extension records each tuple that evaluation looks up in it. A
        # non-denoting binding would make man(x) false, and so forall false.
        bindings = []

        class Recording(frozenset):
            def __contains__(self, args):
                bindings.append(args)
                return super().__contains__(args)

        everyone = Recording({("a",), ("b",), ("c",)})
        model = Model(("a", "b", "c"), {("man", 1): everyone})
        assert eval_formula(model, {}, parse_free("forall x. man(x)")) is True
        # one binding per domain individual, in domain order
        assert bindings == [("a",), ("b",), ("c",)]
        bindings.clear()
        model = Model(("a", "b", "c"), {("man", 1): Recording()})
        assert eval_formula(model, {}, parse_free("exists x. man(x)")) is False
        assert bindings == [("a",), ("b",), ("c",)]


class TestModelFormat:
    def test_binary_predicate_tuples(self):
        model = parse_model("domain: a b\npred loves/2: a,b b,a\n")
        assert check_sentence(model, parse_free("forall x. exists y. loves(x, y)"))

    def test_unknown_individual_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("domain: a\npred man/1: b\n")

    def test_an_unknown_individual_names_its_pred_line(self):
        # the domain line comes last, so the individual is checked after it
        text = "pred p/1: a\n# q follows\n\npred q/1: a b\ndomain: a\n"
        with pytest.raises(ModelFormatError,
                           match="^line 4: predicate q/1 mentions unknown individual 'b'$"):
            parse_model(text)

    def test_repeated_individuals_name_the_domain_line(self):
        with pytest.raises(ModelFormatError,
                           match="^line 3: model domain individuals must be distinct$"):
            parse_model("pred p/1: a\n\ndomain: a b a\n")

    def test_a_model_built_in_python_names_no_line(self):
        with pytest.raises(ModelFormatError, match="^model domain individuals must be distinct$"):
            Model(("a", "a"))
        with pytest.raises(ModelFormatError,
                           match="^predicate q/1 mentions unknown individual 'b'$"):
            Model(("a",), {("q", 1): frozenset({("b",)})})

    def test_empty_domain_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("domain:\n")

    def test_duplicate_individuals_rejected(self):
        with pytest.raises(ModelFormatError):
            Model(("a", "a"))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("domain: a b\npred man/1: a,b\n")

    def test_comments_and_blank_lines(self):
        model = parse_model("# m\n\ndomain: a b  # inline\npred man/1: a\n")
        assert model.domain == ("a", "b")

    @pytest.mark.parametrize("line", [
        "predicate man/1: a", "predman/1: a", "pred m4n/1: a", "pred /1: a", "pred: a",
    ])
    def test_pred_keyword_and_name_are_strict(self, line):
        with pytest.raises(ModelFormatError, match="^line 2: "):
            parse_model(f"domain: a\n{line}\n")

    def test_a_line_ends_only_at_a_newline_or_carriage_return(self):
        model = parse_model("domain: a b\npred p/1: a\fb\n")
        assert model.predicates == {("p", 1): frozenset({("a",), ("b",)})}
        model = parse_model("domain: a b\rpred p/1: a\x85b\r\npred q/1: b")
        assert model.predicates == {("p", 1): frozenset({("a",), ("b",)}),
                                    ("q", 1): frozenset({("b",)})}

    def test_pred_keyword_takes_any_whitespace(self):
        model = parse_model("domain: a\npred\tman/1:a\n")
        assert model.predicates == {("man", 1): frozenset({("a",)})}

    def test_arity_past_the_digit_limit_names_its_line(self):
        with pytest.raises(ModelFormatError, match="^line 2: arity of 5000 digits"):
            parse_model("domain: a\npred p/" + "1" * 5000 + ": a\n")

    def test_non_ascii_digit_arity_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("domain: a\npred man/\u00b2: a\n")
