"""Derivability, proof checking, and agreement with the naive search oracle."""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path
from string import ascii_lowercase

import pytest

from pdlogic import linear as ll
from pdlogic.atoms import atom
from pdlogic.cli import main
from pdlogic.parsing import ParseError, _FormulaMemo, parse_sequent
from pdlogic.prover import (
    RULES,
    CheckResult,
    ProofTextError,
    ProofTree,
    ResourceLimit,
    _numbering,
    _unbalanced,
    check_proof,
    proof_from_text,
    proof_to_text,
    prove,
)

from oracles import (
    TWO_ATOMS,
    all_small_sequents,
    linear_formulas_up_to,
    naive_derivable,
    per_line_proof_from_text,
    random_linear,
)

SAFETY = "|- she/her -o (she/her (+) (she/her * they/them))"


def prove_text(text, **kw):
    return prove(parse_sequent(text), **kw)


def plain_proof_text(proof):
    """``proof_to_text`` without its memo: each line as ``f"{rule} |
    {sequent}"`` prints it, indented two spaces a level."""
    lines = []
    stack = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(f"{'  ' * depth}{node.rule} | {node.conclusion}\n")
        stack.extend((p, depth + 1) for p in reversed(node.premises))
    return "".join(lines)


class TestProve:
    def test_safety_protocol_is_derivable(self):
        proof = prove_text(SAFETY)
        assert proof is not None
        assert check_proof(proof).ok
        assert proof.conclusion == parse_sequent(SAFETY)

    def test_no_duplication(self):
        assert prove_text("she/her |- she/her * she/her") is None

    def test_with_entails_plus(self):
        proof = prove_text("a/b & c/d |- a/b (+) c/d")
        assert proof is not None
        assert check_proof(proof).ok

    def test_plus_does_not_entail_with(self):
        assert prove_text("a/b (+) c/d |- a/b & c/d") is None

    def test_no_weakening(self):
        assert prove_text("a/b, c/d |- a/b") is None

    def test_tensor_commutative_as_derivability(self):
        proof = prove_text("a/b * c/d |- c/d * a/b")
        assert proof is not None
        assert check_proof(proof).ok

    def test_resource_limit_is_distinct_from_not_derivable(self):
        with pytest.raises(ResourceLimit):
            prove_text(SAFETY, budget=2)

    def test_a_search_past_the_recursion_limit_is_a_resource_limit(self):
        # pa/q, pa/q -o pb/q, ... |- ...: 1000 links, no formula deeper than 2.
        names = ["p" + "".join(t) + "/q" for t in product(ascii_lowercase, repeat=3)]
        chain = [f"{x} -o {y}" for x, y in zip(names[:1000], names[1:1001])]
        sequent = ", ".join([names[0]] + chain) + " |- " + names[1000]
        with pytest.raises(ResourceLimit) as raised:
            prove_text(sequent)
        assert str(raised.value) == "proof search too deep (recursion limit reached)"

    def test_a_formula_past_the_recursion_limit_is_a_resource_limit(self):
        # Only a library caller builds one: the parser stops at 100 levels.
        deep = deep_tensor(3000)
        with pytest.raises(ResourceLimit) as raised:
            prove(ll.Sequent((deep,), deep))
        assert str(raised.value) == "proof search too deep (recursion limit reached)"


def deep_tensor(depth):
    """``a/b * a/b * ...``, ``depth`` tensors deep on the left."""
    formula = ll.Atom(atom("a/b"))
    for _ in range(depth):
        formula = ll.Tensor(formula, ll.Atom(atom("a/b")))
    return formula


class TestDerivable:
    """Goals proved from the empty context."""

    def test_identity_implication(self):
        goal = ll.Lolli(ll.Atom(atom("she/her")), ll.Atom(atom("she/her")))
        assert prove(ll.Sequent((), goal)) is not None

    def test_safety_goal(self):
        assert prove(ll.Sequent((), parse_sequent(SAFETY).goal)) is not None

    def test_choice_without_resource(self):
        goal = parse_sequent(SAFETY).goal.consequent  # she/her (+) (she/her * they/them)
        assert prove(ll.Sequent((), goal)) is None


class TestProperties:
    def test_tensor_commutativity_small_scale(self):
        formulas = linear_formulas_up_to(3)
        for a in formulas:
            for b in formulas:
                s = ll.Sequent((ll.Tensor(a, b),), ll.Tensor(b, a))
                proof = prove(s)
                assert proof is not None, ll.render(s.goal)
                assert check_proof(proof).ok

    def test_with_plus_asymmetry(self):
        a, c = (ll.Atom(x) for x in TWO_ATOMS)
        assert prove(ll.Sequent((ll.With(a, c),), ll.Plus(a, c))) is not None
        assert prove(ll.Sequent((ll.Plus(a, c),), ll.With(a, c))) is None

    def test_no_contraction_or_weakening_on_atoms(self):
        a, c = (ll.Atom(x) for x in TWO_ATOMS)
        assert prove(ll.Sequent((a,), ll.Tensor(a, a))) is None
        assert prove(ll.Sequent((a, c), a)) is None

    def test_oracle_agreement_random(self):
        rng = random.Random(20240817)
        for _ in range(300):
            context = tuple(
                random_linear(rng, 2) for _ in range(rng.randrange(3))
            )
            goal = random_linear(rng, 3)
            proof = prove(ll.Sequent(context, goal))
            assert (proof is not None) == naive_derivable(list(context), goal)
            if proof is not None:
                result = check_proof(proof)
                assert result.ok, result.reason
                assert proof_to_text(proof) == plain_proof_text(proof)



def consequence(rng, formula):
    """A random formula derivable from ``formula`` alone."""
    match formula:
        case ll.With(left, right):
            return rng.choice((formula, consequence(rng, left), consequence(rng, right)))
        case ll.Tensor(left, right):
            return ll.Tensor(consequence(rng, right), consequence(rng, left))
        case ll.Plus(left, right):
            return ll.Plus(consequence(rng, left), consequence(rng, right))
        case ll.Lolli(antecedent, consequent):
            return ll.Lolli(antecedent, consequence(rng, consequent))
    if rng.random() < 0.3:
        return ll.Plus(formula, random_linear(rng, 1))
    return formula


def wide_sequent(rng):
    """A sequent with 3-5 context formulas whose goal is often, not always,
    derivable: consequences of the context formulas, mostly tensored together
    in shuffled order. Sometimes the goal is behind a lolli, a context formula
    is only reachable through a LolliL, or the goal is replaced at random."""
    width = rng.randint(3, 5)
    hide = rng.random() < 0.5
    context = [random_linear(rng, 2) for _ in range(width - hide)]
    extra = random_linear(rng, 2)
    lolli = rng.random() < 0.4
    parts = [consequence(rng, f) for f in context + [extra] * lolli]
    rng.shuffle(parts)
    goal = parts[0]
    for part in parts[1:]:
        join = ll.Tensor if rng.random() < 0.85 else rng.choice((ll.With, ll.Plus))
        goal = join(part, goal)
    if lolli:
        goal = ll.Lolli(extra, goal)
    if hide:
        i = rng.randrange(len(context))
        key = random_linear(rng, 1)
        context[i] = ll.Lolli(key, context[i])
        context.append(key)
    if rng.random() < 0.2:
        goal = random_linear(rng, 3)
    return ll.Sequent(tuple(context), goal)


def tensor_family(n, derivable):
    """``x1..xn |- xn*...*x1`` when derivable, else ``x1..xn |- x1*...*x(n-1)*z``."""
    atoms = [ll.Atom(atom(f"{c}{c}/{c}{c}")) for c in "abcdefghijklmnopqrstuvwxy"[:n]]
    parts = atoms[::-1] if derivable else atoms[:-1] + [ll.Atom(atom("zz/zz"))]
    goal = parts[-1]
    for part in reversed(parts[:-1]):
        goal = ll.Tensor(part, goal)
    return ll.Sequent(tuple(atoms), goal)


class TestWideContexts:
    """Resources handed on from one premise to the next only go wrong when
    there is more than one formula to hand on."""

    def test_oracle_agreement(self):
        rng = random.Random(20261018)
        verdicts = Counter()
        for _ in range(300):
            sequent = wide_sequent(rng)
            assert 3 <= len(sequent.context) <= 5
            expected = naive_derivable(list(sequent.context), sequent.goal)
            proof = prove(sequent)
            assert (proof is not None) == expected, str(sequent)
            if proof is not None:
                result = check_proof(proof)
                assert result.ok, f"{sequent}: {result.reason}"
                assert proof.conclusion == sequent
                text = proof_to_text(proof)
                assert text == plain_proof_text(proof)
                assert proof_from_text(text) == proof
            verdicts[expected] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    @pytest.mark.parametrize("derivable", [False, True])
    def test_tensor_family_n24_within_budget(self, derivable):
        sequent = tensor_family(24, derivable)
        proof = prove(sequent, budget=10_000)
        assert (proof is not None) == derivable
        if proof is not None:
            assert check_proof(proof).ok

    def test_cli_budget_still_counts_search_nodes(self, capsys):
        text = str(tensor_family(6, True))
        assert main(["prove", text, "--budget", "5"]) == 3
        assert "budget" in capsys.readouterr().err
        assert main(["prove", text]) == 0


def refuted(sequent):
    """Whether ``prove`` answers the sequent from its atom counts alone."""
    number, _, parts = _numbering()
    return _unbalanced(parts, tuple(map(number, sequent.context)), number(sequent.goal))


def atom_intervals(sequent):
    """Each atom's least and greatest supply less demand over the choices at
    ``&`` and ``(+)``, each copy of a formula choosing on its own: counted on
    the formula trees, keyed by ``PronounAtom``."""
    def add(left, right):
        out = dict(left)
        for key, (lo, hi) in right.items():
            low, high = out.get(key, (0, 0))
            out[key] = (low + lo, high + hi)
        return out

    def count(formula, sign):
        match formula:
            case ll.Atom(key):
                return {key: (sign, sign)}
            case ll.Tensor(left, right):
                return add(count(left, sign), count(right, sign))
            case ll.Lolli(antecedent, consequent):
                return add(count(antecedent, -sign), count(consequent, sign))
        left, right = count(formula.left, sign), count(formula.right, sign)
        return {key: (min(left.get(key, (0, 0))[0], right.get(key, (0, 0))[0]),
                      max(left.get(key, (0, 0))[1], right.get(key, (0, 0))[1]))
                for key in left.keys() | right.keys()}

    total = count(sequent.goal, -1)
    for formula in sequent.context:
        total = add(total, count(formula, 1))
    return total


class TestAtomCounts:
    """A sequent in which some atom's supply can never equal its demand is
    refuted before the proof search starts."""

    @pytest.mark.parametrize("text, expected", [
        ("a/b |- c/d", True),
        ("a/b, c/d |- a/b", True),
        ("a/b |- a/b * a/b", True),
        ("|- a/b -o a/b", False),
        ("a/b, a/b -o c/d |- c/d", False),
        ("a/b & c/d |- a/b", False),
        ("(a/b & c/d) -o e/f, a/b |- e/f", False),
        # Underivable, but some choice balances every atom.
        ("a/b (+) c/d |- a/b & c/d", False),
        # The supplied and the demanded copy of a/b & c/d cancel, leaving
        # c/d supplied and a/b demanded.
        ("a/b & c/d, c/d |- (a/b & c/d) * a/b", True),
    ])
    def test_examples(self, text, expected):
        sequent = parse_sequent(text)
        assert refuted(sequent) == expected
        if expected:
            assert prove(sequent) is None

    def test_refuted_sequent_spends_no_budget(self):
        assert prove(parse_sequent("a/b |- c/d"), budget=0) is None
        with pytest.raises(ResourceLimit):
            prove(parse_sequent("a/b |- a/b"), budget=0)

    def test_no_small_derivable_sequent_is_refuted(self):
        # Every sequent of criterion 3. The count with the copies of each
        # formula choosing on their own refutes 118,544 of them; cancelling
        # a formula's supplied and demanded copies refutes more.
        memo = {}
        count = 0
        for sequent in all_small_sequents():
            if refuted(sequent):
                count += 1
                assert not naive_derivable(list(sequent.context), sequent.goal, memo), \
                    str(sequent)
        assert count == 118_812

    @pytest.mark.parametrize("family", ["random_linear", "wide_sequent"])
    def test_refutation_agrees_with_the_oracles(self, family):
        rng = random.Random(20261019)
        verdicts = Counter()
        for _ in range(300):
            if family == "wide_sequent":
                sequent = wide_sequent(rng)
            else:
                context = tuple(random_linear(rng, 3) for _ in range(rng.randrange(4)))
                sequent = ll.Sequent(context, random_linear(rng, 4))
            unbalanced = any(lo > 0 or hi < 0 for lo, hi in atom_intervals(sequent).values())
            verdict = refuted(sequent)
            assert verdict or not unbalanced, str(sequent)
            if verdict:
                assert not naive_derivable(list(sequent.context), sequent.goal), str(sequent)
                assert prove(sequent, budget=0) is None
            verdicts[verdict] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50


def test_proof_texts_are_pinned():
    # The first 120 sequents of TestWideContexts's seed, then the derivable
    # tensor permutations n = 2..8: each proof's text as `pdlogic prove`
    # prints it, or `not derivable | <sequent>`. Recorded from the prover
    # that rebuilt each node's context from its premises' contexts.
    rng = random.Random(20261018)
    sequents = [wide_sequent(rng) for _ in range(120)]
    sequents += [tensor_family(n, True) for n in range(2, 9)]
    chunks = []
    for sequent in sequents:
        proof = prove(sequent)
        if proof is None:
            chunks.append(f"not derivable | {sequent}\n")
        else:
            assert check_proof(proof).ok, str(sequent)
            chunks.append(proof_to_text(proof))
    golden = Path(__file__).with_name("prove_proofs.golden")
    assert "".join(chunks) == golden.read_text(encoding="utf-8")


class TestCheckProof:
    def test_id_axiom(self):
        s = parse_sequent("she/her |- she/her")
        assert check_proof(ProofTree("Id", s)).ok

    def test_id_requires_atomic_goal(self):
        s = parse_sequent("a/b & c/d |- a/b & c/d")
        result = check_proof(ProofTree("Id", s))
        assert not result.ok
        assert "atomic" in result.reason

    def test_tensor_r_requires_partition(self):
        a = ll.Atom(atom("a/b"))
        id_a = ProofTree("Id", ll.Sequent((a,), a))
        bogus = ProofTree(
            "TensorR", ll.Sequent((a,), ll.Tensor(a, a)), (id_a, id_a)
        )
        result = check_proof(bogus)
        assert not result.ok
        assert "partition" in result.reason

    def test_reject_reports_offending_path(self):
        a, c = (ll.Atom(x) for x in TWO_ATOMS)
        bad_leaf = ProofTree("Id", ll.Sequent((a,), c))  # wrong axiom
        wrapped = ProofTree(
            "LolliR", ll.Sequent((), ll.Lolli(a, c)), (bad_leaf,)
        )
        result = check_proof(wrapped)
        assert not result.ok
        assert result.path == (0,)

    def test_unknown_rule(self):
        s = parse_sequent("she/her |- she/her")
        assert not check_proof(ProofTree("Cut", s)).ok

    def test_lolli_l_consequent_belongs_to_the_second_premise(self):
        # The consequent a/b is in the first premise's context only.
        assert prove_text("a/b -o a/b, e/f |- e/f") is None
        proof = ProofTree("LolliL", parse_sequent("a/b -o a/b, e/f |- e/f"), (
            ProofTree("Id", parse_sequent("a/b |- a/b")),
            ProofTree("Id", parse_sequent("e/f |- e/f")),
        ))
        assert check_proof(proof) == CheckResult(
            False, (), "no lolli in the context matches the premises")

    def test_lolli_l_uses_up_its_lolli(self):
        # The first premise keeps the principal a/b -o c/d in its context.
        assert prove_text("a/b -o c/d, c/d -o a/b, a/b |- c/d") is None
        first = prove_text("a/b -o c/d, c/d -o a/b, a/b |- a/b")
        assert check_proof(first).ok
        proof = ProofTree("LolliL", parse_sequent("a/b -o c/d, c/d -o a/b, a/b |- c/d"), (
            first, ProofTree("Id", parse_sequent("c/d |- c/d")),
        ))
        assert check_proof(proof) == CheckResult(
            False, (), "no lolli in the context matches the premises")

    @staticmethod
    def lolli_chain_proof(n, leaf_rule):
        """A proof of ``p0, p0 -o p1, ..., p(n-1) -o pn |- pn``, n levels
        deep: each LolliL's first premise is the proof one link shorter and
        its second an Id. Its deepest node, ``p0 |- p0``, has ``leaf_rule``."""
        letters = str.maketrans("0123456789", "abcdefghij")  # p12 is pbc/p
        atoms = [ll.Atom(atom(f"p{i}/p".translate(letters))) for i in range(n + 1)]
        context = [atoms[0]]
        proof = ProofTree(leaf_rule, ll.Sequent((atoms[0],), atoms[0]))
        for k in range(1, n + 1):
            context.append(ll.Lolli(atoms[k - 1], atoms[k]))
            proof = ProofTree("LolliL", ll.Sequent(tuple(context), atoms[k]), (
                proof, ProofTree("Id", ll.Sequent((atoms[k],), atoms[k]))))
        return proof

    def test_a_proof_deeper_than_the_recursion_limit_is_checked(self):
        n = 1100
        assert n > sys.getrecursionlimit()
        assert check_proof(self.lolli_chain_proof(n, "Id")).ok
        assert check_proof(self.lolli_chain_proof(n, "Cut")) == CheckResult(
            False, (0,) * n, "unknown rule 'Cut'")

    def test_a_formula_deeper_than_the_recursion_limit_is_checked(self):
        # The recursive numbering runs out of frames; the check is redone
        # with a numbering on a stack, and answers.
        deep = deep_tensor(3000)
        assert check_proof(ProofTree("Id", ll.Sequent((deep,), deep))) == CheckResult(
            False, (), "Id requires an atomic goal")
        goal = ll.Atom(atom("a/b"))
        assert check_proof(ProofTree("Id", ll.Sequent((deep,), goal))) == CheckResult(
            False, (), "Id requires context equal to the goal atom")

    def test_equal_proofs_deeper_than_the_recursion_limit_compare_and_hash_alike(self):
        n = 1100
        assert n > sys.getrecursionlimit()
        proof, twin = self.lolli_chain_proof(n, "Id"), self.lolli_chain_proof(n, "Id")
        assert proof is not twin
        assert proof == twin and not proof != twin
        assert hash(proof) == hash(twin)
        # they differ only in the rule of the deepest node
        assert proof != self.lolli_chain_proof(n, "Cut")

    def test_a_proof_deeper_than_the_recursion_limit_reads_back_from_its_text(self):
        proof = self.lolli_chain_proof(sys.getrecursionlimit() + 100, "Id")
        back = proof_from_text(proof_to_text(proof))
        assert back is not proof and back == proof
        assert check_proof(back).ok


# --- the checker on corrupted proofs -------------------------------------------

# Every way check_proof rejects a node, but the two TestCheckProof covers
# ("Id requires an atomic goal", "unknown rule ..."). Each rule's premise
# count check ("<rule> needs <n> premise(s), has <m>") is counted apart.
REJECTIONS = (
    "Id takes no premises",
    "Id requires context equal to the goal atom",
    "TensorR requires a tensor goal",
    "first premise goal must be the left operand",
    "second premise goal must be the right operand",
    "premise contexts do not partition the conclusion context",
    "no tensor in the context decomposes to the premise",
    "WithR requires a with goal",
    "first premise goal must be the first operand",
    "second premise goal must be the second operand",
    "first premise must keep the conclusion context",
    "second premise must keep the conclusion context",
    "no with in the context decomposes to the premise (left)",
    "no with in the context decomposes to the premise (right)",
    "PlusR1 requires a plus goal",
    "PlusR2 requires a plus goal",
    "premise goal must be the chosen operand",
    "premise must keep the conclusion context",
    "no plus in the context decomposes to both premises",
    "LolliR requires a lolli goal",
    "premise goal must be the consequent",
    "premise context must add the antecedent",
    "second premise must keep the conclusion goal",
    "no lolli in the context matches the premises",
)

EDITS = ("rename", "reverse", "add-context", "drop-context", "goal",
         "drop-premise", "add-premise")


def proof_nodes(proof, path=()):
    yield path, proof
    for i, premise in enumerate(proof.premises):
        yield from proof_nodes(premise, path + (i,))


def replaced(proof, path, node):
    """``proof`` with its subproof at ``path`` replaced by ``node``."""
    if not path:
        return node
    premises = list(proof.premises)
    premises[path[0]] = replaced(premises[path[0]], path[1:], node)
    return ProofTree(proof.rule, proof.conclusion, tuple(premises))


def corrupted(rng, proof, edit):
    """``proof`` with one edit at one random node."""
    path, node = rng.choice(list(proof_nodes(proof)))
    rule, premises = node.rule, node.premises
    context, goal = list(node.conclusion.context), node.conclusion.goal
    if edit == "rename":
        rule = rng.choice([r for r in RULES if r != rule])
    elif edit == "reverse":
        premises = premises[::-1]
    elif edit == "add-context":
        context.insert(rng.randint(0, len(context)), random_linear(rng, 2))
    elif edit == "drop-context" and context:
        del context[rng.randrange(len(context))]
    elif edit == "goal":
        goal = random_linear(rng, 3)
    elif edit == "drop-premise" and premises:
        i = rng.randrange(len(premises))
        premises = premises[:i] + premises[i + 1:]
    elif edit == "add-premise":
        _, extra = rng.choice(list(proof_nodes(proof)))
        i = rng.randint(0, len(premises))
        premises = premises[:i] + (extra,) + premises[i:]
    node = ProofTree(rule, ll.Sequent(tuple(context), goal), premises)
    return replaced(proof, path, node)


def corrupted_proofs():
    """3500 corrupted proofs, 500 per edit, of 400 proofs of random derivable
    sequents, as ``(edit, proof)`` pairs."""
    rng = random.Random(14)
    proofs = []
    while len(proofs) < 400:
        context = tuple(random_linear(rng, 3) for _ in range(rng.randint(1, 3)))
        proof = prove(ll.Sequent(context, random_linear(rng, 3)))
        if proof is not None:
            proofs.append(proof)
    for k in range(3500):
        edit = EDITS[k % len(EDITS)]
        yield edit, corrupted(rng, proofs[k % len(proofs)], edit)


def test_checker_verdicts_on_corrupted_proofs_are_pinned():
    # Each verdict on corrupted_proofs() as `pdlogic prove --check` prints it.
    # Recorded from the checker that wrote out each rule's case by hand.
    lines, reasons = [], Counter()
    for edit, proof in corrupted_proofs():
        result = check_proof(proof)
        if result.ok:
            verdict = "accepted"
        else:
            path = ".".join(map(str, result.path)) or "root"
            verdict = f"rejected at {path}: {result.reason}"
            reasons[result.reason] += 1
        lines.append(f"{edit}\t{verdict}\n")
    golden = Path(__file__).with_name("check_proof_results.golden")
    assert "".join(lines) == golden.read_text(encoding="utf-8")
    assert all(reasons[reason] for reason in REJECTIONS)
    for rule in RULES[1:]:
        assert any(reason.startswith(f"{rule} needs ") for reason in reasons), rule


def test_checker_verdicts_through_proof_text_are_the_same():
    # A proof read back from its text shares a formula object wherever the
    # text repeats one; the prover's and the corrupting edits' proofs share
    # objects where they were built together. The checker numbers formulas
    # by object, so both must number equal formulas alike.
    verdicts = Counter()
    for _, proof in corrupted_proofs():
        result = check_proof(proof)
        assert check_proof(proof_from_text(proof_to_text(proof))) == result
        verdicts[result.ok] += 1
    assert verdicts[True] and verdicts[False]


class TestSerialization:
    def test_round_trip(self):
        proof = prove_text(SAFETY)
        text = proof_to_text(proof)
        assert proof_from_text(text) == proof

    def test_text_of_a_parsed_proof_is_the_text_it_came_from(self):
        # The prover's proof shares formula objects between its lines where
        # the search built them once; the parsed one shares an object wherever
        # its text repeats a formula, and has none of the prover's. The memo,
        # keyed on object identity, must give both the same text.
        proof = prove(tensor_family(6, True))
        text = proof_to_text(proof)
        back = proof_from_text(text)
        assert back == proof
        assert back.conclusion.goal is not proof.conclusion.goal
        assert back.premises[1].conclusion.goal is not proof.premises[1].conclusion.goal
        assert proof_to_text(back) == text

    def test_a_formula_deeper_than_the_recursion_limit_is_written(self):
        # the recursive render runs out of frames and is redone on a stack
        deep = deep_tensor(3000)
        text = "(" * 2999 + "a/b * a/b" + ") * a/b" * 2999
        assert proof_to_text(ProofTree("Id", ll.Sequent((deep,), deep))) == (
            f"Id | {text} |- {text}\n")

    BAD_THIRD_LINE = ("TensorR | a/b, c/d |- a/b * c/d\n"
                      "  Id | a/b |- a/b\n"
                      "  Id | c/d |- c/d &\n")

    @pytest.mark.parametrize("text, line, column", [
        (BAD_THIRD_LINE, 3, 20),
        # extra spaces after the bar
        (BAD_THIRD_LINE.replace("Id | c/d", "Id |   c/d"), 3, 22),
        # a deeper, indented line after a non-ASCII operator
        ("TensorR | a/b, c/d, e/f |- a/b ⊗ c/d * e/f\n"
         "  Id | a/b |- a/b\n"
         "  TensorR | c/d, e/f |- c/d * e/f\n"
         "    Id | c/d |- c/d\n"
         "    Id | e/f |-  e/f (+)\n", 5, 25),
        ("TensorR | a/b, c/d, e/f |- a/b * c/d * e/f\n"
         "  Id | a/b |- a/b\n"
         "\n"
         "  TensorR | c/d, e/f |- c/d * e/f\n"
         "    Id | c/d |- c/d\n"
         "    Id |  \tc/d , |- c/d\n", 6, 18),
        # \x85 is whitespace, not a line end
        (BAD_THIRD_LINE.replace("\n", "\x85\n", 1), 3, 20),
    ])
    def test_bad_sequent_names_its_place_in_the_proof(self, text, line, column):
        with pytest.raises(ParseError) as raised:
            proof_from_text(text)
        err = raised.value
        assert (err.line, err.column) == (line, column)
        start = sum(len(t) + 1 for t in text.split("\n")[:line - 1]) + column - 1
        assert err.byte_offset == len(text[:start].encode("utf-8"))
        assert str(err).startswith(f"line {line}, column {column}: expected formula")

    @pytest.mark.parametrize("text, message", [
        # a line two levels below the one before
        ("TensorR | a/b, c/d |- a/b * c/d\n    Id | a/b |- a/b\n",
         "line 2: unexpected indentation"),
        # an indented first line, named by its line and not its place among lines
        ("\n  Id | a/b |- a/b\n", "line 2: unexpected indentation"),
        ("TensorR | a/b, c/d |- a/b * c/d\n  Id | a/b |- a/b\n\n"
         "  Id | c/d |- c/d\nId | a/b |- a/b\n",
         "line 5: trailing proof lines outside the root tree"),
        # a rule or parse error on a later line comes before any of structure
        ("    Id | a/b |- a/b\nFoo | a/b |- a/b\n", "line 2: unknown rule 'Foo'"),
    ], ids=["two_levels_deeper", "indented_first_line", "second_root", "rule_error_first"])
    def test_a_structural_error_names_its_line(self, text, message):
        with pytest.raises(ProofTextError) as raised:
            proof_from_text(text)
        assert str(raised.value) == message

    def test_only_a_line_end_ends_a_line(self):
        # a form feed is whitespace within its line, so three "lines" joined
        # by form feeds are one, whose sequent has trailing input
        text = "TensorR | a/b, c/d |- a/b * c/d\f  Id | a/b |- a/b\f  Id | c/d |- c/d\n"
        with pytest.raises(ParseError, match="^line 1, column 35: unexpected trailing input"):
            proof_from_text(text)
        back = proof_from_text(text.replace("\f", "\r"))
        assert back == proof_from_text(text.replace("\f", "\r\n"))
        assert [p.rule for p in back.premises] == ["Id", "Id"]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            proof_from_text("no separator here\n")
        with pytest.raises(ValueError):
            proof_from_text("Bogus | she/her |- she/her\n")

    def test_format_shape(self):
        text = proof_to_text(prove_text("a/b & c/d |- a/b (+) c/d"))
        lines = text.splitlines()
        assert all(" | " in line for line in lines)
        assert lines[0].startswith("WithL1") or lines[0].startswith("PlusR1")


def golden_proofs():
    """Each proof text of ``prove_proofs.golden``."""
    golden = Path(__file__).with_name("prove_proofs.golden").read_text(encoding="utf-8")
    chunks = []
    for line in golden.splitlines(keepends=True):
        if not line.startswith(" "):
            chunks.append("")
        chunks[-1] += line
    return [chunk for chunk in chunks if not chunk.startswith("not derivable | ")]


def reading(read, text):
    """What ``read(text)`` gives: the tree, or the error in full."""
    try:
        return read(text)
    except ParseError as err:
        return ("ParseError", err.line, err.column, err.byte_offset, err.message,
                err.expected, str(err))
    except ValueError as err:
        return ("ValueError", str(err))


# Single characters that a corruption inserts or puts in place of another:
# token characters, whitespace and line ends, a comment, a Unicode operator
# and characters the lexer rejects.
NOISE = "ab/*&(+)-o|,# \t\n\r\u2297$1"


def corrupted_text(rng, text):
    """``text`` with one to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert" or i == len(chars):
            chars.insert(i, rng.choice(NOISE))
        elif edit == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(NOISE)
    return "".join(chars)


def ending_operands(formula):
    """Each right operand of ``formula`` whose text ends the text of
    ``formula``, outermost first: the right operands not in parentheses."""
    text, operands = ll.render(formula), []
    while not isinstance(formula, ll.Atom):
        symbol, right = ll.INFIX[type(formula)][0], ll.children(formula)[1]
        if not text.endswith(f" {symbol} {ll.render(right)}"):
            break
        formula = right
        operands.append(formula)
    return operands


def traced_peak(read, text):
    """The most memory that tracemalloc saw allocated while ``read(text)`` ran."""
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReading:
    """``proof_from_text`` parses each distinct formula text once; a reader
    that parses each line with ``parse_sequent`` must agree with it."""

    def test_golden_proofs_read_back_to_their_text(self):
        proofs = golden_proofs()
        assert len(proofs) == 68
        for text in proofs:
            back = proof_from_text(text)
            assert back == per_line_proof_from_text(text)
            assert proof_to_text(back) == text

    def test_corrupted_proofs_read_as_line_by_line(self):
        rng = random.Random(16)
        outcomes = Counter()
        for text in golden_proofs():
            for _ in range(40):
                bad = corrupted_text(rng, text)
                expected = reading(per_line_proof_from_text, bad)
                assert reading(proof_from_text, bad) == expected, repr(bad)
                outcomes[expected[0] if isinstance(expected, tuple) else "tree"] += 1
        assert min(outcomes[kind] for kind in ("tree", "ParseError", "ValueError")) >= 100

    def test_a_right_operand_is_read_once(self):
        # A TensorR goal's right operand is its second premise's goal, and
        # its text ends the goal's text: reading gives one object for both.
        back = proof_from_text(proof_to_text(prove(tensor_family(13, True))))
        for node in (back, back.premises[1], back.premises[1].premises[1]):
            assert node.rule == "TensorR"
            assert node.premises[1].conclusion.goal is node.conclusion.goal.right

    def test_a_kept_operand_serves_no_operand_of_a_later_text(self):
        # The first goal keeps "b/b * c/c" as a right operand. After "-o" it
        # would bind too loosely: the second goal is (x/x -o b/b) * c/c. The
        # third goal's operand is read anew, to an equal formula.
        text = ("Id | a/a |- a/a * b/b * c/c\n"
                "  Id | a/a |- x/x -o b/b * c/c\n"
                "  Id | a/a |- x/x * b/b * c/c\n")
        back = proof_from_text(text)
        assert back == per_line_proof_from_text(text)
        first, second, third = (node.conclusion.goal for node in (back, *back.premises))
        assert isinstance(second, ll.Tensor) and isinstance(second.left, ll.Lolli)
        assert third.right == first.right

    def test_a_whole_text_serves_no_operand_of_a_later_text(self):
        # Read first as a whole goal, "b/b * c/c" does not serve as the
        # operand of a later goal; each such operand is read anew.
        text = ("Id | a/a |- b/b * c/c\n"
                "  Id | a/a |- a/a * b/b * c/c\n"
                "  Id | a/a |- x/x * b/b * c/c\n")
        back = proof_from_text(text)
        assert back == per_line_proof_from_text(text)
        first, second, third = (node.conclusion.goal for node in (back, *back.premises))
        assert second.right is not first
        assert third.right == second.right

    def test_a_remembered_formula_still_counts_its_nesting(self):
        # 95 parentheses parse as a whole piece, but not as the operand of a
        # seventh '*', nested 101 deep: the memo must not lift the limit.
        deep = "(" * 95 + "a/b" + ")" * 95
        text = f"Id | {deep} |- {deep}\n  Id | a/b |- {'a/b * ' * 7}{deep}\n"
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            per_line_proof_from_text(text)
        assert reading(proof_from_text, text) == reading(per_line_proof_from_text, text)

    def test_kept_operands_read_as_line_by_line(self):
        # Each operand that ends the root goal's text serves the later goal
        # whose whole text it is, past equal operands kept by later lines.
        rng = random.Random(17)
        hits = 0
        for _ in range(1000):
            goal = random_linear(rng, 6)
            operands = ending_operands(goal)
            lines = [f"Id | |- {ll.render(goal)}\n"]
            lines += [f"  Id | |- x/x {symbol} {ll.render(operand)}\n"
                      for operand in operands for symbol, _ in ll.INFIX.values()]
            lines += [f"  Id | |- {ll.render(operand)}\n" for operand in operands]
            text = "".join(lines)
            back = proof_from_text(text)
            assert back == per_line_proof_from_text(text), text
            hit_lines = back.premises[len(back.premises) - len(operands):]
            for operand, node in zip(ending_operands(back.conclusion.goal), hit_lines):
                assert node.conclusion.goal is operand, text
                hits += 1
        assert hits >= 750

    def test_an_operand_that_stops_short_is_not_kept(self):
        # '&' binds tighter than '*': the operand of '&' in the first goal is
        # "b/b" alone, and "b/b * c/c", the text after the '&', is none.
        text = ("Id | a/a |- x/x & b/b * c/c\n"
                "  Id | a/a |- b/b * c/c\n")
        assert proof_from_text(text) == per_line_proof_from_text(text)

    def test_a_text_that_does_not_parse_is_not_kept(self):
        memo = _FormulaMemo()
        for _ in range(2):
            with pytest.raises(ParseError, match="trailing input"):
                memo.formula("a/b * c/d e/f")

    def test_kept_operands_are_sliced_only_when_looked_up(self):
        # A goal of 99 top-level operators whose operands run to its end: were
        # each sliced off as it is kept, the suffixes would take several times
        # the memory of parsing the line (85 trees of 128 atoms, then 15 atoms
        # in parentheses, stay within the nesting limit).
        tree = "a/b"
        for _ in range(7):
            tree = f"({tree} * {tree})"
        line = "a/b |- " + " * ".join([tree] * 85 + ["(a/b)"] * 15)
        reading_peak = traced_peak(proof_from_text, f"Id | {line}\n")
        assert reading_peak <= 1.5 * traced_peak(parse_sequent, line)
