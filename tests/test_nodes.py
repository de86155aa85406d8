"""The contract every value class keeps, the formula nodes of the three
families and the package's records alike: its fields in order, construction
by position or by name, structural equality and hashing that survive copying
and pickling, immutability, and no per-value ``__dict__``; and ``fold``, the
one walk over a DAG of nodes."""

import copy
import importlib
import pickle
import pkgutil
from itertools import product

import pytest

import pdlogic
from pdlogic import atoms, monitoring, prover, textcheck
from pdlogic import freelogic as fl
from pdlogic import linear as ll
from pdlogic import temporal as tl
from pdlogic.atoms import atom
from pdlogic.monitoring import expand_bounded
from pdlogic.node import Node, fold
from pdlogic.parsing import parse_temporal

SHE = atom("she/her")
THEY = atom("they/them")
T_A, T_B = tl.Atom(SHE), tl.Atom(THEY)
L_A, L_B = ll.Atom(SHE), ll.Atom(THEY)
X, Y = fl.Var("x"), fl.Var("y")
P, Q = fl.Pred("p", (X,)), fl.Pred("q", (X, Y))

# Each concrete class: its fields in order, and one set of field values.
FIELDS = {
    tl: {
        "Atom": (("atom",), (SHE,)),
        "TrueF": ((), ()),
        "FalseF": ((), ()),
        "Not": (("operand",), (T_A,)),
        "And": (("left", "right"), (T_A, T_B)),
        "Or": (("left", "right"), (T_A, T_B)),
        "Implies": (("left", "right"), (T_A, T_B)),
        "Box": (("operand",), (T_A,)),
        "Diamond": (("operand",), (T_A,)),
        "Next": (("operand",), (T_A,)),
        "BoxK": (("k", "operand"), (3, T_A)),
        "DiamondK": (("k", "operand"), (3, T_A)),
    },
    ll: {
        "Atom": (("atom",), (SHE,)),
        "With": (("left", "right"), (L_A, L_B)),
        "Plus": (("left", "right"), (L_A, L_B)),
        "Tensor": (("left", "right"), (L_A, L_B)),
        "Lolli": (("antecedent", "consequent"), (L_A, L_B)),
    },
    fl: {
        "Var": (("name",), ("x",)),
        "Iota": (("var", "body"), ("x", P)),
        "Epsilon": (("var", "body"), ("x", P)),
        "Pred": (("name", "args"), ("p", (X,))),
        "Eq": (("left", "right"), (X, Y)),
        "Not": (("operand",), (P,)),
        "And": (("left", "right"), (P, Q)),
        "Or": (("left", "right"), (P, Q)),
        "Implies": (("left", "right"), (P, Q)),
        "Forall": (("var", "body"), ("x", P)),
        "Exists": (("var", "body"), ("x", P)),
    },
}
BASES = {tl: (tl.TemporalFormula,), ll: (ll.LinearFormula,), fl: (fl.FreeTerm, fl.FreeFormula)}

SHE_ONLY = frozenset({SHE})
SEQUENT = ll.Sequent((L_A,), L_A)
UTTERANCE = monitoring.Utterance(SHE_ONLY, (0, 4))
VERDICT = monitoring.Verdict("Violated", 1)
LEXICON = textcheck.Lexicon({"she": SHE_ONLY, "her": SHE_ONLY})
DIAGNOSTIC = textcheck.Diagnostic((0, 4), 1, SHE_ONLY, "she/her used")
# Each record class: its fields in order, and one set of field values.
RECORDS = {
    atoms: {"PronounAtom": (("subject", "object"), ("she", "her"))},
    ll: {"Sequent": (("context", "goal"), ((L_A, L_B), L_A))},
    prover: {
        "ProofTree": (("rule", "conclusion", "premises"),
                      ("WithL1", SEQUENT, (prover.ProofTree("Id", SEQUENT),))),
        "CheckResult": (("ok", "path", "reason"), (False, (0, 1), "not an axiom")),
    },
    monitoring: {
        "Utterance": (("atoms", "source_span"), (SHE_ONLY, (0, 4))),
        "Trace": (("utterances",), ((UTTERANCE, UTTERANCE),)),
        "Verdict": (("status", "witness_position"), ("Violated", 1)),
    },
    fl: {"Model": (("domain", "predicates"), (("a", "b"), {("p", 1): frozenset({("a",)})}))},
    textcheck: {
        "Lexicon": (("entries",), (LEXICON.entries,)),
        "ReferentSpec": (("referent_names", "descriptor", "lexicon"),
                         (frozenset({"Mara"}), tl.Box(T_A), LEXICON)),
        "Diagnostic": (("byte_span", "sentence_index", "atoms_found", "message"),
                       ((0, 4), 1, SHE_ONLY, "she/her used")),
        "Report": (("verdict", "diagnostics", "trace"),
                   (VERDICT, [DIAGNOSTIC], monitoring.Trace((UTTERANCE,)))),
    },
}
CASES = [(getattr(module, name), fields, values)
         for tables in (FIELDS, RECORDS)
         for module, table in tables.items() for name, (fields, values) in table.items()]
IDS = [f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}" for cls, _, _ in CASES]
SAMPLES = [cls(*values) for cls, _, values in CASES]
MODULES = [importlib.import_module(f"pdlogic.{info.name}")
           for info in pkgutil.iter_modules(pdlogic.__path__)]


def hash_of(value):
    """The hash of ``value``, or "unhashable" for a record over a dict or list."""
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


@pytest.mark.parametrize("module", FIELDS, ids=lambda m: m.__name__)
def test_the_table_names_every_concrete_class(module):
    public = {name for name, value in vars(module).items()
              if isinstance(value, type) and issubclass(value, BASES[module])
              and value not in BASES[module] and not name.startswith("_")}
    assert public == set(FIELDS[module])


def test_the_record_table_names_every_other_value_class():
    records = {(module, name) for module in MODULES for name, value in vars(module).items()
               if isinstance(value, type) and value.__module__ == module.__name__
               and issubclass(value, Node) and value is not Node
               and not issubclass(value, sum(BASES.values(), ()))}
    assert records == {(module, name) for module, table in RECORDS.items() for name in table}


def test_no_class_of_the_package_is_a_dataclass():
    classes = [value for module in MODULES for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__]
    assert len(classes) > len(CASES)
    assert [cls for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


@pytest.mark.parametrize(("cls", "fields", "values"), CASES, ids=IDS)
class TestEachClass:
    def test_match_args_are_the_fields_in_order(self, cls, fields, values):
        assert cls.__match_args__ == fields

    def test_positional_and_keyword_construction_agree(self, cls, fields, values):
        node = cls(*values)
        assert node == cls(**dict(zip(fields, values)))
        assert tuple(getattr(node, name) for name in fields) == values

    def test_hash_is_the_hash_of_the_fields(self, cls, fields, values):
        assert hash_of(cls(*values)) == hash_of(values)

    def test_copies_and_pickles_are_equal_and_hash_alike(self, cls, fields, values):
        node = cls(*values)
        for other in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(other) is cls
            assert other == node and hash_of(other) == hash_of(node)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, values):
        node = cls(*values)
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(node, name, values[0] if values else None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert tuple(getattr(node, name) for name in fields) == values

    def test_a_node_has_no_dict(self, cls, fields, values):
        assert not hasattr(cls(*values), "__dict__")


def test_nodes_are_equal_only_within_one_class():
    # tl.And(a, b) != tl.Or(a, b), tl.TRUE != tl.FALSE, tl.Atom(a) != ll.Atom(a)
    for (i, x), (j, y) in product(enumerate(SAMPLES), repeat=2):
        assert (x == y) is (i == j), (x, y)
        assert (x != y) is (i != j), (x, y)


def test_every_node_of_an_expansion_has_no_dict():
    seen, stack = set(), [expand_bounded(parse_temporal("[]<=50 she/her"))]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert not hasattr(node, "__dict__"), node
            stack.extend(tl.children(node))
    assert len(seen) == 1 + 4 * 49  # the body once, and And, Not, Next, Not per step


def test_a_node_class_must_list_its_fields():
    with pytest.raises(TypeError, match="must list its fields as __slots__"):
        class Until(tl.TemporalFormula):
            pass


def test_defaults_must_be_for_the_last_fields_in_order():
    with pytest.raises(TypeError, match="defaults must be for its last fields, in order"):
        class Until(tl.TemporalFormula, defaults={"left": None}):
            __slots__ = ("left", "right")


# A record built from fewer values, and the fields it then has: the defaults
# of the last fields, and PronounAtom's lowercasing.
FILLED = [
    (monitoring.Utterance, (SHE_ONLY,), (SHE_ONLY, None)),
    (monitoring.Verdict, ("Satisfied",), ("Satisfied", None)),
    (prover.ProofTree, ("Id", SEQUENT), ("Id", SEQUENT, ())),
    (prover.CheckResult, (True,), (True, (), "")),
    (fl.Model, (("a",),), (("a",), {})),
    (atoms.PronounAtom, ("She", "HER"), ("she", "her")),
]


@pytest.mark.parametrize(("cls", "given", "values"), FILLED,
                         ids=[cls.__name__ for cls, _, _ in FILLED])
def test_defaults_and_lowercasing_fill_the_fields(cls, given, values):
    record = cls(*given)
    assert tuple(getattr(record, name) for name in cls.__match_args__) == values
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is cls and other == record


@pytest.mark.parametrize(("cls", "given", "values"), FILLED,
                         ids=[cls.__name__ for cls, _, _ in FILLED])
def test_a_record_reduces_to_its_fields_less_the_trailing_defaults(cls, given, values):
    assert cls(*given).__reduce__() == (cls, values[:len(given)])


def test_the_default_model_predicates_cannot_be_changed():
    with pytest.raises(TypeError):
        fl.Model(("a",)).predicates["p", 1] = frozenset()
    assert fl.Model(("b",)).predicates == {}


def test_repr_names_each_field():
    assert repr(tl.BoxK(3, tl.And(T_A, tl.TRUE))) == (
        "BoxK(k=3, operand=And(left=Atom(atom=PronounAtom(subject='she', object='her')),"
        " right=TrueF()))")
    assert repr(ll.Lolli(L_A, L_B)) == (
        "Lolli(antecedent=Atom(atom=PronounAtom(subject='she', object='her')),"
        " consequent=Atom(atom=PronounAtom(subject='they', object='them')))")
    assert repr(fl.Iota("x", fl.Eq(X, Y))) == (
        "Iota(var='x', body=Eq(left=Var(name='x'), right=Var(name='y')))")


@pytest.mark.parametrize("cls", [tl.BoxK, tl.DiamondK])
def test_a_bound_below_one_is_rejected(cls):
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"^bounded modality requires k >= 1, got {k}$"):
            cls(k, T_A)
    with pytest.raises(ValueError, match="got 0$"):
        cls(k=0, operand=T_A)


def test_fold_visits_each_shared_node_once():
    # And(f, f) nested 60 deep over <> she/her: 62 objects, and a tree of
    # 3 * 2**60 - 1 nodes, each object reached by 2**i paths
    f = tl.Diamond(T_A)
    for _ in range(60):
        f = tl.And(f, f)
    visited = []

    def size(node, sizes):
        visited.append(node)
        return 1 + sum(sizes)

    assert fold(f, size, tl.children) == 3 * 2**60 - 1
    assert len(visited) == 62 and len(set(map(id, visited))) == 62
    assert visited[:2] == [T_A, tl.Diamond(T_A)] and visited[-1] is f


def test_fold_passes_each_node_its_kids_values_in_order():
    # a chain deeper than the recursion limit, as a left-to-right reading
    f = tl.Atom(THEY)
    for _ in range(3000):
        f = tl.Or(T_A, f)
    text = fold(f, lambda node, below: " ".join(below) or node.atom.subject, tl.children)
    assert text == "she " * 3000 + "they"
