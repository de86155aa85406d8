"""The four seeded workloads: prove, monitor, check and cli.

A workload is a sequence of passes. Pass ``i`` is a fixed list of operations:
the same ladder of deterministic families in every pass, plus seeded random
inputs drawn fresh from ``(seed, workload, i)``. Every operation returns an
answer, which is compared after timing with an answer from ``reference.py``,
from ``tests/oracles.py`` or from the input's construction.

Operations call the package through ``api`` (see ``tracing.plain_api``), so a
traced run can swap in timed wrappers without touching the package.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from oracles import naive_derivable
from pdlogic import linear as ll
from pdlogic import textcheck
from pdlogic.atoms import atom
from pdlogic.monitoring import SATISFIED, Trace, Utterance
from pdlogic.prover import check_proof, proof_from_text


@dataclass
class Op:
    """One timed operation: ``run`` produces the answer, ``check`` (called
    after timing) returns a mismatch description or None."""

    name: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None
    curve: str | None = None  # per-layer metric this op's untraced time is recorded as


class Workload:
    name = ""
    limit_s = 0.0  # per-op time limit
    pass_s = 1.0  # nominal pass length at the parent commit; sets the pass count
    warm_families: tuple[str, ...] = ()

    def __init__(self, seed: int, api, root: Path, workdir: Path):
        self.seed = seed
        self.api = api
        self.root = root
        self.workdir = workdir

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{index}")

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def ladder(self) -> list[Op]:
        """Scaling-curve operations: each one call on one input, so that its
        time is the named path's time. A traced run runs them untraced."""
        return []

    def end_pass(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"p{index}", ignore_errors=True)


def graded(lo: float, hi: float, k: int) -> float:
    """The k-th size of a family whose sizes spread evenly over [lo, hi).

    The median and the tail latency each fall inside one family. On a host
    whose speed switches between two levels, a family of equal ops makes such
    a percentile jump between the two speeds of one op as the share of the
    run spent slow crosses a threshold; over graded sizes it moves smoothly
    with that share. Successive k step by the golden ratio, so any number of
    passes covers the interval evenly."""
    return lo + (hi - lo) * (k * 0.6180339887498949 % 1.0)


def interleave(ops: list[Op]) -> list[Op]:
    """The ops of a pass with every family spread evenly over it.

    The host's speed changes from second to second. Listed family by family,
    the cheap ops that set the median would all run in one short stretch of
    each pass and see the host in that stretch only; spread between the
    heavy ops they sample it across the whole run."""
    families: dict[str, list[Op]] = {}
    for op in ops:
        families.setdefault(op.family, []).append(op)
    keyed = [((j + 0.5) / len(members), rank, op)
             for rank, members in enumerate(families.values())
             for j, op in enumerate(members)]
    return [op for *_, op in sorted(keyed, key=lambda k: k[:2])]


def _equal(expected):
    def check(answer):
        return None if answer == expected else f"expected {expected!r}, got {answer!r}"
    return check


# --- prove ----------------------------------------------------------------------

PRONOUNS = ("she/her", "he/him", "they/them", "ze/zir", "vae/vem")


def _distinct_atoms(rng: random.Random, n: int) -> list[str]:
    seen: set[str] = set()
    while len(seen) < n:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxy") for _ in range(3))
        seen.add(f"{word}/{word}")
    return sorted(seen)


def _tensor(keys):
    f = ("atom", keys[-1])
    for key in reversed(keys[:-1]):
        f = ("*", ("atom", key), f)
    return f


def random_linear(rng: random.Random, depth: int):
    """Same shape as ``tests/oracles.random_linear``."""
    if depth <= 1 or rng.random() < 0.3:
        return ("atom", rng.choice(PRONOUNS))
    op = rng.choice(("&", "(+)", "*", "-o"))
    return (op, random_linear(rng, depth - 1), random_linear(rng, depth - 1))


_LL = {"*": ll.Tensor, "&": ll.With, "(+)": ll.Plus, "-o": ll.Lolli}


def to_linear(f) -> ll.LinearFormula:
    if f[0] == "atom":
        return ll.Atom(atom(f[1]))
    return _LL[f[0]](to_linear(f[1]), to_linear(f[2]))


class ProveWorkload(Workload):
    """Linear sequents through parse -> prove -> check_proof -> proof text."""

    name = "prove"
    limit_s = 20.0
    pass_s = 0.95
    warm_families = ("prove/tensor_perm",)
    UNDER = range(8, 14)
    PERM_N = range(6, 14)
    PERM_COUNT = 16
    RANDOM = 12

    @staticmethod
    def _sequent(family, n, keys=None):
        """Context, goal and derivability of the n-th member of a tensor
        family, over ``keys`` or fixed atoms. Atoms listed in sorted order
        make the search, and so the cost, the same whatever their names."""
        keys = keys or [f"{c}{c}/{c}{c}" for c in "abcdefghijklmnopqrstuvwxy"[:n]]
        if family == "tensor_under":
            return [("atom", k) for k in keys], _tensor(keys[:-1] + ["zz/zz"]), False
        return [("atom", k) for k in keys], _tensor(keys[::-1]), True

    def _op(self, name, family, context, goal, derivable):
        api = self.api
        text = ref.sequent_text(context, goal)
        sequent = ll.Sequent(tuple(to_linear(f) for f in context), to_linear(goal))

        def run():
            parsed = api.parse_sequent(text)
            proof = api.prove(parsed)
            if proof is None:
                return parsed, None, None, None
            accepted = api.check_proof(proof).ok
            back = api.proof_from_text(api.proof_to_text(proof))
            return parsed, proof, accepted, back

        def check(answer):
            parsed, proof, accepted, back = answer
            expected = derivable
            if expected is None:
                expected = naive_derivable(list(sequent.context), sequent.goal)
            if parsed != sequent:
                return "sequent parsed to a different tree"
            if (proof is not None) != expected:
                return f"derivable should be {expected}"
            if proof is not None:
                if not accepted:
                    return "check_proof rejected the prover's proof"
                if back != proof:
                    return "proof text did not round-trip"
                if proof.conclusion != sequent:
                    return "proof concludes a different sequent"
            return None

        return Op(name, family, run, check)

    def make_pass(self, index):
        rng = self.rng(index)
        ops = [self._op(f"prove/tensor_under_n{n}", "prove/tensor_under",
                        *self._sequent("tensor_under", n)) for n in self.UNDER]
        # The derivable family, many times over fresh atoms: its proofs keep
        # checking and proof text busy. Its sizes are graded, so that the
        # median latency, which falls inside this block, moves smoothly with
        # the share of the run the host is slow, instead of jumping between
        # two speeds of one op (see ``graded``).
        for i in range(self.PERM_COUNT):
            n = self.PERM_N[i % len(self.PERM_N)]
            ops.append(self._op(f"prove/tensor_perm_n{n}/p{index}.{i}", "prove/tensor_perm",
                                *self._sequent("tensor_perm", n, _distinct_atoms(rng, n))))
        for i in range(self.RANDOM):
            context = [random_linear(rng, 3) for _ in range(rng.randint(0, 3))]
            ops.append(self._op(f"prove/random/p{index}.{i}", "prove/random",
                                context, random_linear(rng, 4), None))
        return ops

    def ladder(self):
        api = self.api
        ops = []
        for family in ("tensor_under", "tensor_perm"):
            for n in self.UNDER:
                context, goal, derivable = self._sequent(family, n)
                sequent = ll.Sequent(tuple(to_linear(f) for f in context), to_linear(goal))

                def check(proof, derivable=derivable):
                    if (proof is not None) != derivable:
                        return f"derivable should be {derivable}"
                    if proof is not None and not check_proof(proof).ok:
                        return "check_proof rejected the prover's proof"
                    return None

                ops.append(Op(f"prove/ladder/{family}_n{n}", "prove/ladder",
                              lambda sequent=sequent: api.prove(sequent), check,
                              curve=f"prover.prove_ms.{family}_n{n}"))
        return ops


# --- monitor --------------------------------------------------------------------

EVENTUALLY = "[] <> a/b"
RESPONSE = "[] (a/b -> <><=5 c/d)"
FILLER_ATOMS = ("she/her", "they/them", "he/him")


def _filler(rng: random.Random) -> set[str]:
    return {a for a in FILLER_ATOMS if rng.random() < 0.3}


def to_trace(keys) -> Trace:
    return Trace(tuple(Utterance(frozenset(atom(k) for k in u)) for u in keys))


def eventually_trace(rng, n, last_has=True):
    trace = [_filler(rng) for _ in range(n)]
    if n and last_has:
        trace[-1].add("a/b")
    return trace


def response_trace(rng, n, violate=False):
    """A trigger a/b every five utterances, answered by c/d 0-4 utterances
    later; ``violate`` adds, in the last five utterances, a trigger whose
    window holds no c/d."""
    trace = [_filler(rng) for _ in range(n)]
    for i in range(0, n - 4, 5):
        trace[i].add("a/b")
        trace[i + rng.randint(0, 4)].add("c/d")
    if violate and n:
        i = rng.randrange(max(0, n - 5), n)
        trace[i].add("a/b")
        for u in trace[i:i + 5]:
            u.discard("c/d")
    return trace


def boxk_trace(rng, n, violate_at=None):
    trace = [_filler(rng) | {"she/her"} for _ in range(n)]
    if violate_at is not None:
        trace[violate_at].discard("she/her")
    return trace


class MonitorWorkload(Workload):
    """Temporal descriptors over generated traces, batch and stepwise."""

    name = "monitor"
    limit_s = 3.0
    pass_s = 2.0
    warm_families = ("monitor/random",)
    EVENTUALLY_BATCH = (250, 500, 1000)
    # Per pass, batch n = 1000 is replaced by TAIL_COPIES batch runs at graded
    # lengths: the 11th-largest latency falls among them.
    TAIL_COPIES, TAIL_N = 2, (800, 1200)
    EVENTUALLY_STEPWISE = (250, 500)
    EVENTUALLY_DEFECT = 2000
    RESPONSE_N = (250, 500, 1000, 2000, 4000)
    BOXK_K = (10, 100, 1000, 10000)
    BOXK_LEN = 200
    RANDOM_LENGTHS = tuple(range(4, 49, 4))

    def _op(self, name, family, spec, keys, mode, expected, curve=None,
            known_defect=None):
        api = self.api
        trace = to_trace(keys)

        if mode == "batch":
            def run():
                return api.evaluate(api.expand_bounded(api.parse_temporal(spec)), trace, 0)
        else:
            def run():
                session = api.MonitorSession(api.parse_temporal(spec))
                for u in trace.utterances:
                    session.feed(u)
                return session.finish().status == SATISFIED

        return Op(name, family, run, _equal(expected), known_defect=known_defect,
                  curve=curve)

    def _ladder_ops(self, rng, index=None):
        """The deterministic families of pass ``index``; with no index, the
        ladder, where each op records its time as the scaling-curve point it is."""
        curves = index is None

        def curve(name):
            return name if curves else None

        ops = []
        lengths = list(self.EVENTUALLY_BATCH)
        if not curves:
            lengths[-1:] = [round(graded(*self.TAIL_N, self.TAIL_COPIES * index + i))
                            for i in range(self.TAIL_COPIES)]
        for n in lengths:
            keys = eventually_trace(rng, n)
            ops.append(self._op(f"monitor/batch/eventually_n{n}", "monitor/eventually",
                                EVENTUALLY, keys, "batch", True,
                                curve=curve(f"monitoring.batch_ms.eventually_n{n}")))
        # Stepwise n = 500 takes 1.1-2 s, too near the per-op limit for the
        # timed passes: it is a curve point only.
        for n in self.EVENTUALLY_STEPWISE if curves else self.EVENTUALLY_STEPWISE[:1]:
            keys = eventually_trace(rng, n)
            ops.append(self._op(f"monitor/stepwise/eventually_n{n}", "monitor/eventually",
                                EVENTUALLY, keys, "stepwise", True,
                                curve=curve(f"monitoring.stepwise_ms.eventually_n{n}")))
        for n in self.RESPONSE_N:
            keys = response_trace(rng, n)
            expected = ref.response_within(keys, "a/b", "c/d", 5)
            for mode in ("batch", "stepwise"):
                ops.append(self._op(f"monitor/{mode}/response_n{n}", "monitor/response",
                                    RESPONSE, keys, mode, expected,
                                    curve=curve(f"monitoring.{mode}_ms.response_n{n}")))
        for k in self.BOXK_K:
            keys = boxk_trace(rng, self.BOXK_LEN)
            expected = ref.bounded_always(keys, "she/her", k)
            for mode in ("batch", "stepwise"):
                ops.append(self._op(f"monitor/{mode}/boxk_k{k}", "monitor/boxk",
                                    f"[]<={k} she/her", keys, mode, expected,
                                    curve=curve(f"monitoring.{mode}_ms.boxk_k{k}")))
        return ops

    def make_pass(self, index):
        # The families' traces depend on the pass index, not on the seed, so
        # they cost the same on every seed; the short random traces do not.
        fixed = random.Random(f"{self.name}:ladder")
        ops = self._ladder_ops(fixed, index)
        if index == 0:
            # Once per run: the op ends at the time limit, which would
            # otherwise be most of every pass's time.
            n = self.EVENTUALLY_DEFECT
            ops.append(self._op(
                f"monitor/stepwise/eventually_n{n}", "monitor/eventually", EVENTUALLY,
                eventually_trace(fixed, n), "stepwise", True,
                known_defect="stepwise [] <> a/b keeps one more conjunct per utterance "
                "without a/b: quadratic, and RecursionError near utterance 994",
            ))
        rng = self.rng(index)
        for i, n in enumerate(self.RANDOM_LENGTHS):
            for mode in ("batch", "stepwise"):
                tag = f"p{index}.{mode}{i}"
                keys = eventually_trace(rng, n, last_has=rng.random() < 0.5)
                ops.append(self._op(f"monitor/random/eventually/{tag}", "monitor/random",
                                    EVENTUALLY, keys, mode,
                                    ref.eventually_always(keys, "a/b")))
                keys = response_trace(rng, n, violate=rng.random() < 0.5)
                ops.append(self._op(f"monitor/random/response/{tag}", "monitor/random",
                                    RESPONSE, keys, mode,
                                    ref.response_within(keys, "a/b", "c/d", 5)))
                k = max(1, n // 2)  # a violation, if any, ends the window
                keys = boxk_trace(rng, n, k - 1 if rng.random() < 0.5 else None)
                ops.append(self._op(f"monitor/random/boxk/{tag}", "monitor/random",
                                    f"[]<={k} she/her", keys, mode,
                                    ref.bounded_always(keys, "she/her", k)))
        return ops

    def ladder(self):
        return self._ladder_ops(random.Random(f"{self.name}:ladder"))


# --- check ----------------------------------------------------------------------

SPECS = {
    "always_she": "[] she/her",
    "she_or_they": "[] (she/her \\/ they/them)",
    "often_they": "[] <> they/them",
    "prompt_fix": "[] (!she/her -> () she/her)",
}
FORMS = {
    "she/her": ("she", "her", "hers", "herself"),
    "they/them": ("they", "them", "their", "themselves"),
    "he/him": ("he", "him", "his", "himself"),
}
WORDS = (
    "the report was filed after lunch and the team met in a quiet room near "
    "window with coffee data plan review early late river garden before during "
    "new old city road minutes budget draft sketch letter table chair north "
    "south summer winter bright careful slowly quickly today tomorrow café "
    "naïve über façade jalapeño smörgåsbord"
).split()
TERMINATORS = ".!?"


@dataclass
class Document:
    """A generated document and what checking it must report."""

    text: str
    machine: str  # expected ``--machine`` report
    status: str
    sentence_index: int | None  # of the diagnostic, if any
    sentences: int
    utterances: int


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parts: list[str] = []
        self.size = 0
        self.sentences = 0
        self.utterances = 0

    def sentence(self, pronoun_atom=None):
        """Append one sentence, with one form of ``pronoun_atom`` if given;
        return its byte span and sentence index."""
        rng = self.rng
        words = [rng.choice(WORDS) for _ in range(rng.randint(4, 12))]
        if pronoun_atom is not None:
            words.insert(rng.randrange(len(words) + 1), rng.choice(FORMS[pronoun_atom]))
            self.utterances += 1
        text = " ".join(words)
        text = text[0].upper() + text[1:] + rng.choice(TERMINATORS)
        sep = "\n\n" if rng.random() < 0.1 else rng.choice((" ", " ", "\n"))
        start = self.size
        end = start + len(text.encode("utf-8"))
        self.parts.append(text + sep)
        self.size = end + len(sep)
        self.sentences += 1
        return start, end, self.sentences - 1


def make_document(rng: random.Random, target_bytes: int, spec: str, violate: bool) -> Document:
    """About ``target_bytes`` of prose whose only pronouns are planted here.

    Pronoun sentences follow ``SPECS[spec]``; with ``violate`` one violation
    is planted past the document's midpoint (for ``often_they``, at its end).
    """
    doc = _Writer(rng)
    plant_at = int(target_bytes * rng.uniform(0.5, 0.95))
    witness = None
    since_they = 0
    pending_fix = False  # prompt_fix: a slip the next pronoun sentence repairs
    while doc.size < target_bytes:
        if rng.random() < 0.5:
            doc.sentence()
            continue
        if (violate and witness is None and not pending_fix and spec != "often_they"
                and doc.size >= plant_at):
            if spec == "prompt_fix":
                doc.sentence("he/him")  # a slip, then a second one: unrepaired
            witness = doc.sentence("he/him")
            continue
        if pending_fix:
            chosen, pending_fix = "she/her", False
        elif spec == "prompt_fix" and rng.random() < 0.05:
            chosen, pending_fix = "he/him", True
        elif spec == "she_or_they":
            chosen = rng.choice(("she/her", "they/them"))
        elif spec == "often_they" and (since_they >= 3 or rng.random() < 0.3):
            chosen = "they/them"
        else:
            chosen = "she/her"
        since_they = 0 if chosen == "they/them" else since_they + 1
        doc.sentence(chosen)
    end_violation = violate and witness is None
    if spec == "often_they":
        doc.sentence("she/her" if violate else "they/them")
    elif pending_fix:
        doc.sentence("she/her")
    if end_violation and spec != "often_they":
        if spec == "prompt_fix":
            doc.sentence("he/him")  # a slip in the last pronoun sentence
        else:
            witness = doc.sentence("he/him")
            end_violation = False
    text = "".join(doc.parts)
    if witness is not None:
        start, end, index = witness
        return Document(text, f"{start}\t{end}\tViolated\the/him\n", "Violated", index,
                        doc.sentences, doc.utterances)
    if end_violation:
        return Document(text, f"{doc.size}\t{doc.size}\tViolated\t-\n", "Violated",
                        doc.sentences, doc.sentences, doc.utterances)
    return Document(text, f"0\t{doc.size}\tSatisfied\t-\n", "Satisfied", None,
                    doc.sentences, doc.utterances)


class CheckWorkload(Workload):
    """Generated prose documents through check_document and the machine report."""

    name = "check"
    limit_s = 5.0
    pass_s = 3.2
    warm_families = ("check/sample",)
    SPEC = "she_or_they"  # the spec of every document but one per other spec
    MEDIAN_KB, MEDIAN_COUNT = (100, 150), 12  # graded sizes, see ``graded``
    TAIL_KB, TAIL_COUNT = (400, 600), 8
    BIG_KB = 2000
    LADDER_KB = (100, 500, 2000)
    SAMPLES = ("eventually", "prompt_fix", "vacuous", "violated")

    def __init__(self, seed, api, root, workdir):
        super().__init__(seed, api, root, workdir)
        self.spec_paths = {}
        for key, descriptor in SPECS.items():
            path = workdir / f"{key}.spec"
            path.write_text(f"referent: Mara\ndescriptor: {descriptor}\n", encoding="utf-8")
            self.spec_paths[key] = path

    def _op(self, name, family, spec_path, text, check):
        api = self.api

        def run():
            report = api.check_document(text, api.load_referent_spec(spec_path))
            machine = api.render_report_machine(report, text)
            index = report.diagnostics[0].sentence_index if report.diagnostics else None
            return report.verdict.status, machine, index

        return Op(name, family, run, check)

    def _doc_op(self, rng, name, family, kb, spec, violate):
        doc = make_document(rng, kb * 1000, spec, violate)
        return self._op(name, family, self.spec_paths[spec], doc.text,
                        _equal((doc.status, doc.machine, doc.sentence_index)))

    def make_pass(self, index):
        rng = self.rng(index)
        samples = self.root / "samples"
        ops = []
        for name in self.SAMPLES:
            golden = (samples / f"{name}.golden").read_text("utf-8")
            ops.append(self._op(f"check/sample/{name}", "check/sample", samples / f"{name}.spec",
                                (samples / f"{name}_doc.txt").read_text("utf-8"),
                                _sample_check(golden)))
        # Every spec checks one 100 kB document. The rest are under one spec,
        # so that the median latency falls in a block of 100-150 kB documents
        # and the 11th-largest in a block of 400-600 kB ones.
        jobs = [(spec, 100, "kb100") for spec in SPECS if spec != self.SPEC]
        for (lo, hi), count, family in ((self.MEDIAN_KB, self.MEDIAN_COUNT, "kb100"),
                                        (self.TAIL_KB, self.TAIL_COUNT, "kb500")):
            jobs += [(self.SPEC, round(graded(lo, hi, count * index + i)), family)
                     for i in range(count)]
        jobs.append((self.SPEC, self.BIG_KB, "kb2000"))
        for i, (spec, kb, family) in enumerate(jobs):
            ops.append(self._doc_op(rng, f"check/doc/p{index}.kb{kb}.{spec}.{i}",
                                    f"check/{family}", kb, spec, rng.random() < 0.5))
        return ops

    def ladder(self):
        """check_document on one satisfied document per size, under
        ``[] (she/her \\/ they/them)``."""
        api = self.api
        rng = self.rng("ladder")
        spec = textcheck.load_referent_spec(self.spec_paths["she_or_they"])
        ops = []
        for kb in self.LADDER_KB:
            doc = make_document(rng, kb * 1000, "she_or_they", False)

            def check(report, doc=doc):
                if len(report.trace) != doc.utterances:
                    return f"expected {doc.utterances} utterances, got {len(report.trace)}"
                return _equal(doc.status)(report.verdict.status)

            ops.append(Op(f"check/ladder/check_document_kb{kb}", "check/ladder",
                          lambda text=doc.text: api.check_document(text, spec), check,
                          curve=f"textcheck.check_ms.doc_kb{kb}"))
        return ops


def _sample_check(golden):
    def check(answer):
        status, machine, _ = answer
        if machine != golden or status != golden.split("\t")[2]:
            return f"expected {golden!r}, got {machine!r}"
        return None
    return check


# --- cli ------------------------------------------------------------------------

PREDICATES = (("man", 1), ("happy", 1), ("loves", 2))
EVAL_GRID = ((1, 12), (2, 10), (3, 8), (4, 6))  # (quantifier depth, domain size)


def random_temporal(rng: random.Random, depth: int):
    if depth <= 1 or rng.random() < 0.25:
        return rng.choice((("atom", rng.choice(PRONOUNS)),) * 4 + (("true",), ("false",)))
    choice = rng.randrange(9)
    if choice < 3:
        op = ("->", "\\/", "/\\")[choice]
        return (op, random_temporal(rng, depth - 1), random_temporal(rng, depth - 1))
    if choice < 7:
        return (("!", "[]", "<>", "()")[choice - 3], random_temporal(rng, depth - 1))
    return (("[]<=", "<><=")[choice - 7], rng.randint(1, 5), random_temporal(rng, depth - 1))


def random_free(rng: random.Random, depth: int, bound: list[str]):
    """A formula whose free variables are all in ``bound``."""
    fresh = [v for v in ("x", "y", "z", "w") if v not in bound]
    if depth <= 1 or rng.random() < 0.3:
        if rng.random() < 0.8 or not bound:
            name, arity = rng.choice(PREDICATES)
            return ("pred", name, tuple(_random_term(rng, depth - 1, bound)
                                        for _ in range(arity)))
        return ("eq", _random_term(rng, depth - 1, bound), _random_term(rng, depth - 1, bound))
    choice = rng.randrange(6)
    if choice == 0:
        return ("!", random_free(rng, depth - 1, bound))
    if choice < 4 or not fresh:
        op = ("/\\", "\\/", "->")[choice % 3]
        return (op, random_free(rng, depth - 1, bound), random_free(rng, depth - 1, bound))
    var = fresh[0]
    return (rng.choice(("forall", "exists")), var, random_free(rng, depth - 1, bound + [var]))


def _random_term(rng, depth, bound):
    fresh = [v for v in ("x", "y", "z", "w") if v not in bound]
    if bound and (depth <= 1 or not fresh or rng.random() < 0.8):
        return ("var", rng.choice(bound))
    var = fresh[0]
    return (rng.choice(("iota", "eps")), var, random_free(rng, 1, bound + [var]))


def random_model(rng: random.Random, size: int):
    domain = [f"i{n}" for n in range(size)]
    preds = {}
    lines = [f"domain: {' '.join(domain)}"]
    for name, arity in PREDICATES:
        tuples = set()
        while not tuples:
            for _ in range(size * arity):
                if rng.random() < 0.4:
                    tuples.add(tuple(rng.choice(domain) for _ in range(arity)))
        preds[(name, arity)] = tuples
        lines.append(f"pred {name}/{arity}: " + " ".join(",".join(t) for t in sorted(tuples)))
    return domain, preds, "\n".join(lines) + "\n"


def _cli_check(code, out=None, out_prefix=None, proof_of=None, one_error=False):
    def check(answer):
        got_code, got_out, got_err = answer
        if got_code != code:
            return f"exit {got_code}, expected {code}; stderr {got_err[:200]!r}"
        if out is not None and got_out != out:
            return f"stdout {got_out[:200]!r}, expected {out[:200]!r}"
        if out_prefix is not None and not got_out.startswith(out_prefix):
            return f"stdout {got_out[:200]!r} does not start with {out_prefix!r}"
        if proof_of is not None:
            try:
                proof = proof_from_text(got_out)
            except ValueError as exc:
                return f"stdout is not a proof: {exc}"
            if proof.conclusion != proof_of:
                return f"proof concludes {proof.conclusion}, expected {proof_of}"
            result = check_proof(proof)
            if not result.ok:
                return f"check_proof rejected the printed proof: {result.reason}"
        if one_error and (got_out or got_err.count("\n") != 1
                          or not got_err.startswith("error:")):
            return f"expected one 'error:' line, got {got_err[:200]!r}"
        return None
    return check


class CliWorkload(Workload):
    """Many small in-process ``pdlogic`` calls, stdout captured."""

    name = "cli"
    limit_s = 2.0
    pass_s = 0.08
    warm_families = ("cli/parse", "cli/check")
    PARSE_EACH = 4
    PROVE = 6
    MONITOR_LENGTHS = (5, 10, 15, 20, 25, 30)
    TERMS = 2
    DEEP = (1000, 3000)

    def _call(self, name, family, argv, check, known_defect=None):
        api = self.api

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = api.cli_main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return Op(name, family, run, check, known_defect=known_defect)

    def make_pass(self, index):
        rng = self.rng(index)
        folder = self.workdir / f"p{index}"
        folder.mkdir(parents=True, exist_ok=True)
        tag = f"p{index}"
        ops = []

        def write(name, data):
            path = folder / name
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")
            return str(path)

        for i in range(self.PARSE_EACH):
            f = random_linear(rng, 4)
            ops.append(self._call(f"cli/parse/linear/{tag}.{i}", "cli/parse",
                                  ["parse", "--kind", "linear", ref.linear_text(f, loose=True)],
                                  _cli_check(0, ref.linear_text(f) + "\n")))
            f = random_temporal(rng, 4)
            ops.append(self._call(f"cli/parse/temporal/{tag}.{i}", "cli/parse",
                                  ["parse", "--kind", "temporal",
                                   ref.temporal_text(f, loose=True)],
                                  _cli_check(0, ref.temporal_text(f) + "\n")))
            f = random_free(rng, 4, [])
            ops.append(self._call(f"cli/parse/free/{tag}.{i}", "cli/parse",
                                  ["parse", "--kind", "free", ref.free_text(f, loose=True)],
                                  _cli_check(0, ref.free_text(f) + "\n")))

        for i in range(self.PROVE):
            context = [random_linear(rng, 2) for _ in range(rng.randint(0, 2))]
            goal = random_linear(rng, 3)
            text = ref.sequent_text(context, goal)
            sequent = ll.Sequent(tuple(to_linear(f) for f in context), to_linear(goal))
            derivable = naive_derivable(list(sequent.context), sequent.goal)
            check = (_cli_check(0, proof_of=sequent) if derivable
                     else _cli_check(1, "not derivable\n"))
            ops.append(self._call(f"cli/prove/{tag}.{i}", "cli/prove", ["prove", text], check))
        keys = _distinct_atoms(rng, rng.randint(2, 5))
        proof = ref.tensor_perm_proof(keys)
        good = write("proof.txt", proof)
        bad = write("tampered.txt", proof.replace(f"Id | {keys[0]} |- {keys[0]}",
                                                  f"Id | {keys[0]} |- {keys[1]}"))
        ops.append(self._call(f"cli/prove_check/{tag}", "cli/prove_check",
                              ["prove", "--check", good], _cli_check(0, "accepted\n")))
        ops.append(self._call(f"cli/prove_check_tampered/{tag}", "cli/prove_check",
                              ["prove", "--check", bad], _cli_check(1, out_prefix="rejected at ")))

        context, goal, _ = ProveWorkload._sequent("tensor_perm", 6)
        ops.append(self._call(f"cli/prove_budget/{tag}", "cli/prove_budget",
                              ["prove", ref.sequent_text(context, goal), "--budget", "5"],
                              _cli_check(3, one_error=True)))

        for i, n in enumerate(self.MONITOR_LENGTHS):
            mode, spec, keys, expected = self._monitor_case(rng, i, n)
            argv = ["monitor", write(f"spec{i}.txt", spec + "\n"), write(f"trace{i}.txt", "".join(
                (" ".join(sorted(u)) or "-") + "\n" for u in keys))]
            if mode == "stepwise":
                argv += ["--mode", "stepwise"]
                out, code = expected
            else:
                out, code = ("Satisfied\n", 0) if expected else ("Violated\n", 1)
            ops.append(self._call(f"cli/monitor/{mode}/{tag}.{i}", "cli/monitor", argv,
                                  _cli_check(code, out)))

        for i, (depth, size) in enumerate(EVAL_GRID):
            domain, preds, text = random_model(rng, size)
            model = write(f"model{i}.txt", text)
            variables = ["x", "y", "z", "w"][:depth]
            f = random_free(rng, 3, variables)
            for var in reversed(variables):
                f = (rng.choice(("forall", "exists")), var, f)
            ok = ref.free_eval(domain, preds, {}, f)
            ops.append(self._call(f"cli/eval/q{depth}_d{size}/{tag}", "cli/eval",
                                  ["eval", model, ref.free_text(f)],
                                  _cli_check(0 if ok else 1, "true\n" if ok else "false\n")))
        for i in range(self.TERMS):
            domain, preds, text = random_model(rng, rng.randint(4, 12))
            model = write(f"term_model{i}.txt", text)
            term = (rng.choice(("iota", "eps")), "x", random_free(rng, 2, ["x"]))
            value = ref.free_denote(domain, preds, {}, term)
            ops.append(self._call(f"cli/eval_term/{tag}.{i}", "cli/eval",
                                  ["eval", model, "--term", ref.free_term_text(term)],
                                  _cli_check(1, "non-denoting\n") if value is None
                                  else _cli_check(0, value + "\n")))

        samples = self.root / "samples"
        for name in CheckWorkload.SAMPLES:
            golden = (samples / f"{name}.golden").read_text("utf-8")
            code = 1 if golden.split("\t")[2] == "Violated" else 0
            ops.append(self._call(f"cli/check/{name}/{tag}", "cli/check",
                                  ["check", str(samples / f"{name}.spec"),
                                   str(samples / f"{name}_doc.txt"), "--machine"],
                                  _cli_check(code, golden)))

        for depth in self.DEEP:
            ops.append(self._call(
                f"cli/hostile/linear_parens_d{depth}", "cli/hostile",
                ["parse", "--kind", "linear", "(" * depth + "a/b" + ")" * depth],
                _cli_check(2, one_error=True),
                known_defect="deeply nested linear input raises RecursionError "
                "instead of exiting 2 with a parse error"))
        junk = bytes(rng.randrange(256) for _ in range(64))
        ops.append(self._call("cli/hostile/junk_text", "cli/hostile",
                              ["parse", "--kind", "temporal", "$" + junk.decode("latin-1")],
                              _cli_check(2, one_error=True)))
        ops.append(self._call(
            "cli/hostile/non_utf8_file", "cli/hostile",
            ["parse", "--kind", "linear", "--file", write("junk.bin", b"\xff\xfe" + junk)],
            _cli_check(2, one_error=True),
            known_defect="a file that is not UTF-8 raises UnicodeDecodeError "
            "instead of exiting 2 (ROADMAP exit contract)"))
        return ops

    @staticmethod
    def _monitor_case(rng, i, n):
        """Mode, spec, trace and expected answer of the i-th monitor call:
        batch calls cycle through the three benchmark shapes, stepwise calls
        through the shapes ``reference.stepwise_lines`` knows."""
        violate = rng.random() < 0.5
        if i == 0:
            keys = eventually_trace(rng, n, last_has=not violate)
            return "batch", EVENTUALLY, keys, ref.eventually_always(keys, "a/b")
        if i == 2:
            keys = response_trace(rng, n, violate)
            return "batch", RESPONSE, keys, ref.response_within(keys, "a/b", "c/d", 5)
        if i == 4:
            k = rng.randint(1, 8)
            keys = boxk_trace(rng, n, rng.randrange(n) if violate else None)
            return "batch", f"[]<={k} she/her", keys, ref.bounded_always(keys, "she/her", k)
        if i == 1:
            keys = boxk_trace(rng, n, rng.randrange(n) if violate else None)
            return "stepwise", "[] she/her", keys, ref.stepwise_lines("always", keys, "she/her")
        if i == 3:
            keys = [_filler(rng) for _ in range(n)]
            if violate:
                keys[rng.randrange(n)].add("a/b")
            return "stepwise", "<> a/b", keys, ref.stepwise_lines("eventually", keys, "a/b")
        keys = eventually_trace(rng, n, last_has=not violate)
        return "stepwise", EVENTUALLY, keys, ref.stepwise_lines("always_eventually", keys, "a/b")

    def ladder(self):
        """One call of each kind, so every layer the CLI reaches is traced."""
        seen = set()
        ops = []
        for op in self.make_pass("ladder"):
            if op.family not in seen and op.known_defect is None:
                seen.add(op.family)
                ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (ProveWorkload, MonitorWorkload, CheckWorkload, CliWorkload)}
