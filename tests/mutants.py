"""Mutation checks: small faults put into a copy of the package, each of which
some test must catch.

Run from anywhere:  python tests/mutants.py

Each row of ``MUTANTS`` names a fault and gives the file under ``src/``, the
exact text to replace (it must occur in that file exactly once), the text to
put in its place, and the narrowest test selection that catches the fault.
For each row the run copies ``src/`` into a temporary directory, makes the
one replacement there, and runs ``python -m pytest -x`` on the selection with
the copy first on the import path (``-o pythonpath=`` overrides the
``pythonpath`` setting of ``pyproject.toml``). The selection must fail. The
repository's own ``src/`` is never written.

The run exits 1 when a mutant survives (its selection passes), when a row's
old text is gone or ambiguous, or when a selection errors instead of failing
(a typo in it, or a timeout); it names each such row. It prints the seconds
each row took and the total, and exits 1 too when the total passes
``BUDGET_S``. Before the rows, it checks that the tests import the copy and
not an installed package, by running one selection on a copy whose
``pdlogic/__init__.py`` raises.

The selections never include ``tests/test_installed.py``, whose subprocesses
import the repository's own ``src/``. pytest does not collect this file, and
it uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
BUDGET_S = 300  # the whole run, the import check and every row

PROVER = "pdlogic/prover.py"
CHECK = "tests/test_prover.py::TestCheckProof::"
GOLDEN = "tests/test_prover.py::test_checker_verdicts_on_corrupted_proofs_are_pinned"
PINNED = "tests/test_prover.py::test_proof_texts_are_pinned"
PARSING = "pdlogic/parsing.py"
NESTING = "tests/test_parsing.py::TestNestingLimit::"
LEXING = "tests/test_parsing.py::TestLexOnDemand::"
FREE = "tests/test_parsing.py::TestParseFree::"
READING = "tests/test_prover.py::TestReading::"
SERIAL = "tests/test_prover.py::TestSerialization::"
MONITORING = "pdlogic/monitoring.py"
LABELS = "tests/test_monitoring.py::TestLabellingPass::"
SESSION = "tests/test_monitoring.py::TestMonitor::"
TOWERS = "tests/test_monitoring.py::TestTowers::"
FREELOGIC = "pdlogic/freelogic.py"
EVALUATING = "tests/test_freelogic.py::TestEvalFormula::"
SCOPING = "tests/test_freelogic.py::TestScoping::"
NOTATION = "pdlogic/notation.py"
RENDER = "tests/test_formulas.py::TestRender::"
TEXTCHECK = "pdlogic/textcheck.py"
ORACLE = "tests/test_textcheck.py::TestSegmentAgainstOracle::"
BLOCKWISE = "tests/test_textcheck.py::TestBlockwise::test_every_pass_matches_the_whole_text"
BYTES = "tests/test_textcheck.py::TestBytePath::"

# (name, file under src/, old text, new text, test selection)
MUTANTS = (
    ("LolliL looks for its consequent in either premise's context", PROVER,
     "                if places[i] not in own:\n"
     "                    return -1 if split else check\n"
     "                own.remove(places[i])\n",
     "                if places[i] not in own + merged:\n"
     "                    return -1 if split else check\n"
     "                (own if places[i] in own else merged).remove(places[i])\n",
     [CHECK + "test_lolli_l_consequent_belongs_to_the_second_premise"]),
    ("a split also fits when the premises keep the principal", PROVER,
     "    return -1 if split and sorted(merged) != ctx else 0\n",
     "    return -1 if split and sorted(merged) != ctx and not (\n"
     "        row[1] and sorted(merged[1:]) == ctx) else 0\n",
     [CHECK + "test_lolli_l_uses_up_its_lolli"]),
    ("PlusL's second premise adds the left operand", PROVER,
     "((0, (1,)), (0, (2,)))", "((0, (1,)), (0, (1,)))", [PINNED]),
    ("TensorL adds only the left operand", PROVER,
     "((0, (1, 2)),)", "((0, (1,)),)", [PINNED]),
    ("WithR's second premise context is not checked", PROVER,
     "        elif (sorted(merged + own) if merged else own) != ctx:\n",
     "        elif check != 4 and (sorted(merged + own) if merged else own) != ctx:\n",
     [GOLDEN]),
    ("LolliR does not add the antecedent", PROVER,
     "((2, (1,)),)", "((2, ()),)", [CHECK + "test_reject_reports_offending_path"]),
    ("a left rule's premise goal is not checked", PROVER,
     "    if any(not place and premise_goal != goal for (place, _), premise_goal in"
     " zip(shapes, goals)):\n"
     "        return reasons[0]\n",
     "", [GOLDEN]),
    ("a split is compared as sets", PROVER,
     "    return -1 if split and sorted(merged) != ctx else 0\n",
     "    return -1 if split and set(merged) != set(ctx) else 0\n",
     [CHECK + "test_tensor_r_requires_partition"]),
    ("PlusR1 and PlusR2 accept either operand", PROVER,
     "            if premise_goal != places[place]:\n",
     "            if premise_goal != places[place] and not (\n"
     "                    row[0] is Plus and premise_goal in places[1:]):\n",
     [GOLDEN]),
    ("LolliL does not check the antecedent", PROVER,
     "        if place:\n            check += 1\n",
     "        if place and not row[1]:\n            check += 1\n",
     [GOLDEN]),
    ("the walk visits only the first premise", PROVER,
     "        for i in range(len(premises) - 1, -1, -1):\n",
     "        for i in range(min(len(premises), 1) - 1, -1, -1):\n",
     [GOLDEN]),
    ("a formula one level too deep is let in", PARSING,
     "        if depth > MAX_DEPTH:\n            raise cur.error(_TOO_DEEP)\n"
     "        kind, value, start = cur.tok\n",
     "        if depth > MAX_DEPTH + 1:\n            raise cur.error(_TOO_DEEP)\n"
     "        kind, value, start = cur.tok\n",
     [NESTING + "test_error_points_at_the_first_token_too_deep"]),
    ("a term one level too deep is let in", PARSING,
     "    if depth > MAX_DEPTH:\n        raise cur.error(_TOO_DEEP)\n"
     "    kind, value, _ = cur.tok\n",
     "    if depth > MAX_DEPTH + 1:\n        raise cur.error(_TOO_DEEP)\n"
     "    kind, value, _ = cur.tok\n",
     [NESTING + "test_deeper_nesting_is_a_positioned_parse_error"]),
    ("operators inside '(' are cut at the precedence outside it", PARSING,
     "floor = 0 if opened else min_prec", "floor = min_prec",
     ["tests/test_parsing.py::test_linear_round_trip"]),
    ("infix operators associate to the left", PARSING,
     "rhs = _expr(cur, grammar, prec, depth + 1)",
     "rhs = _expr(cur, grammar, prec + 1, depth + 1)",
     ["tests/test_parsing.py::TestParseTemporal::test_implies_right_associative_and_weakest"]),
    ("a prefix operator's operand takes infix operators", PARSING,
     "_expr(cur, grammar, TIGHTEST, depth + 1)", "_expr(cur, grammar, 1, depth + 1)",
     ["tests/test_parsing.py::TestParseTemporal::test_unary_binds_tighter_than_binary"]),
    ("a term stands for a formula outside parentheses", PARSING,
     "        elif not opened:  #", "        elif False:  #",
     [FREE + "test_bare_description_is_not_a_formula"]),
    ("a term's ')' is not read", PARSING,
     "        term = _term(cur, depth + 1)\n        _close(cur)\n",
     "        term = _term(cur, depth + 1)\n",
     [FREE + "test_loosely_parenthesized_formulas_round_trip"]),
    ("a predicate's arity is not kept", PARSING,
     "known = cur.pred_arities.setdefault(name, len(args))",
     "known = cur.pred_arities.get(name, len(args))",
     [FREE + "test_arity_mismatch"]),
    ("the memo keeps an operand that stops short of the end", PARSING,
     'if kept is not None and cur.tok[0] == "eof":', "if kept is not None:",
     [READING + "test_an_operand_that_stops_short_is_not_kept"]),
    ("kept operands are sliced as they are kept", PARSING,
     "append((cur.text, tok[2], rhs))", "append((cur.text[tok[2]:], 0, rhs))",
     [READING + "test_kept_operands_are_sliced_only_when_looked_up"]),
    ("an alias of a keyword is lexed as a symbol", PARSING,
     '            value = _ALIASES[value]\n'
     '            kind = "kw" if value in _KEYWORDS else "sym"\n',
     '            value = _ALIASES[value]\n            kind = "sym"\n',
     [LEXING + "test_agrees_with_eager_lexing"]),
    ("'\\r\\n' ends two lines", PARSING,
     '- text.count("\\r\\n", 0, offset) + 1', "+ 1",
     [LEXING + "test_every_line_end_starts_a_line"]),
    ("proof text may put a line two levels below the one before", PROVER,
     "        if level > previous + 1:\n", "        if level > previous + 2:\n",
     [SERIAL + "test_a_structural_error_names_its_line"]),
    ("a line read back takes the siblings after it as premises", PROVER,
     "while stack and stack[-1][0] > level:", "while stack and stack[-1][0] >= level:",
     [SERIAL + "test_text_of_a_parsed_proof_is_the_text_it_came_from"]),
    ("proof text lists the premises last first", PROVER,
     "for premise in reversed(node.premises):", "for premise in node.premises:",
     [SERIAL + "test_text_of_a_parsed_proof_is_the_text_it_came_from"]),
    ("a search past the recursion limit raises RecursionError", PROVER,
     "    except RecursionError:\n        raise ResourceLimit(\"proof search",
     "    except ():\n        raise ResourceLimit(\"proof search",
     ["tests/test_prover.py::TestProve::"
      "test_a_search_past_the_recursion_limit_is_a_resource_limit"]),
    ("a check past the recursion limit is not redone on a stack", PROVER,
     "    except RecursionError:\n        return _check(",
     "    except ():\n        return _check(",
     [CHECK + "test_a_formula_deeper_than_the_recursion_limit_is_checked"]),
    ("a formula is numbered outside the search's recursion guard", PROVER,
     "    try:  # numbering and build recurse one frame per level, the search a few per step\n"
     "        context = tuple(map(searcher.number, sequent.context))\n",
     "    context = tuple(map(searcher.number, sequent.context))\n"
     "    try:  # numbering and build recurse one frame per level, the search a few per step\n",
     ["tests/test_prover.py::TestProve::"
      "test_a_formula_past_the_recursion_limit_is_a_resource_limit"]),
    ("a subgoal's input multiset is not sorted", PROVER,
     "whole = tuple(sorted(pool + entering))", "whole = pool + entering", [PINNED]),
    ("equal formulas of distinct objects get distinct numbers", PROVER,
     "n = by_parts.setdefault(key, len(formulas))", "n = len(formulas)",
     [CHECK + "test_id_axiom"]),
    ("a stepwise residual is not interned", MONITORING,
     "(state, _intern(residual), holds)", "(state, residual, holds)",
     ["tests/test_monitoring.py::TestTransitionTable::test_interleaved_sessions_through_clears"]),
    ("an atom label's digits are swapped", MONITORING,
     'bytes.maketrans(b"\\x00\\x01", b"10")', 'bytes.maketrans(b"\\x00\\x01", b"01")',
     [LABELS + "test_labels_from_shared_equal_and_unused_atom_sets"]),
    ("a residual true under a strong next is Satisfied", MONITORING,
     "        if holds:\n", "        if holds or type(residual) is TrueF:\n",
     [SESSION + "test_true_under_strong_next_is_not_yet_satisfied"]),
    ("a conclusive session does not count the utterances fed", MONITORING,
     "            self.position += 1\n            return self.verdict\n",
     "            return self.verdict\n",
     [SESSION + "test_position_counts_every_utterance_fed"]),
    ("a session stays open after its verdict", MONITORING,
     "        self._open = False\n", "",
     [SESSION + "test_position_counts_every_utterance_fed"]),
    ("a tower of like bounds adds its bounds", MONITORING,
     "cls(node.k + states[0].k - 1, states[0].operand)",
     "cls(node.k + states[0].k, states[0].operand)",
     [TOWERS + "test_a_tower_interns_to_one_bound"]),
    ("a tower of unlike bounds is collapsed", MONITORING,
     "and type(states[0]) is cls:", "and type(states[0]) in (BoxK, DiamondK):",
     [TOWERS + "test_unlike_modalities_stay_apart"]),
    ("a free-logic memo key leaves out a variable", FREELOGIC,
     "            self.marked[id(node)] = tuple(sorted(names))\n",
     "            self.marked[id(node)] = tuple(sorted(names))[1:]\n",
     ["tests/test_freelogic.py::TestAgainstTheOracle::test_sentences_open_formulas_and_terms"]),
    ("a free-logic evaluation past the memo spends no budget", FREELOGIC,
     "            return value\n    ev.left -= 1\n", "            return value\n",
     ["tests/test_freelogic.py::TestEvalFormula::test_budget_counts_evaluations_past_the_memo"]),
    ("a variable read in place spends no budget", FREELOGIC,
     "            if type(arg) is Var:\n                ev.left -= 1\n",
     "            if type(arg) is Var:\n",
     [EVALUATING + "test_budget_counts_evaluations_of_the_scoped_formula"]),
    ("a part that two places share is left unmarked", FREELOGIC,
     "if id(node) in placed or not needed <= names:", "if not needed <= names:",
     [EVALUATING + "test_a_part_that_two_places_share_is_evaluated_once"]),
    ("a quantifier moved onto an antecedent keeps its kind", FREELOGIC,
     "_DUALS[cls] if kind is Implies else cls", "cls",
     [SCOPING + "test_rule[forall_onto_an_antecedent]"]),
    ("a binder's variable is left out of what its body needs", FREELOGIC,
     "            needed = needed | {node.var}\n", "",
     [EVALUATING + "test_budget_counts_evaluations_past_the_memo"]),
    ("a model's own error names the domain's line for a predicate", FREELOGIC,
     'f"line {lines[exc.part]}: {exc}"', 'f"line {lines[\'domain\']}: {exc}"',
     ["tests/test_freelogic.py::TestModelFormat::test_an_unknown_individual_names_its_pred_line"]),
    ("a binder does not widen the variables bound below it", FREELOGIC,
     "            bound = bound | {node.var}\n", "",
     [SCOPING + "test_no_part_is_evaluated_twice_with_the_same_values"]),
    ("a model's default predicates can be changed", FREELOGIC,
     'defaults={"predicates": MappingProxyType({})}', 'defaults={"predicates": {}}',
     ["tests/test_nodes.py::test_the_default_model_predicates_cannot_be_changed"]),
    ("a reduced value keeps its trailing defaults", "pdlogic/node.py",
     "            values.pop()\n", "            break\n",
     ["tests/test_nodes.py::test_a_record_reduces_to_its_fields_less_the_trailing_defaults"]),
    ("a left operand that binds as tight as its parent is not parenthesized", NOTATION,
     "wrap(getattr(node, left), syntax, prec + 1, memo)",
     "wrap(getattr(node, left), syntax, prec, memo)",
     [RENDER + "test_right_associative_chains"]),
    ("a right operand that binds as tight as its parent is parenthesized", NOTATION,
     "wrap(getattr(node, right), syntax, prec, memo)",
     "wrap(getattr(node, right), syntax, prec + 1, memo)",
     [RENDER + "test_right_associative_chains"]),
    ("'!' stands apart from its operand", NOTATION,
     '        if head != "!":\n            head += " "\n', '        head += " "\n',
     ["tests/test_precedence.py::test_render_matches_golden[free]"]),
    ("a prefix operator's operand may be a connective unparenthesized", NOTATION,
     "wrap(node.operand, syntax, TIGHTEST, memo)", "wrap(node.operand, syntax, 1, memo)",
     ["tests/test_precedence.py::test_render_matches_golden[temporal]"]),
    ("a binder binds as tight as a leaf", NOTATION,
     "prec = op[1] if op else 0 if", "prec = op[1] if op else TIGHTEST if",
     [RENDER + "test_free_description_argument_is_parenthesized"]),
    ("a variable renders where a formula belongs", FREELOGIC,
     '}, "free-logic formula", None)\n',
     '}, "free-logic formula", None)\n_FORMULAS[3][Var] = lambda t: t.name\n',
     [RENDER + "test_non_formula_is_a_type_error"]),
    ("the scanner finds a form that ends a word", TEXTCHECK,
     "(?<!{_LETTER}.)(?<={_LETTER})", "(?<={_LETTER})",
     [ORACLE + "test_hostile_lexicon_matches_direct_extraction"]),
    ("the scanner finds a form that starts with no letter", TEXTCHECK,
     "(?<!{_LETTER}.)(?<={_LETTER})", "(?<!{_LETTER}.)",
     [ORACLE + "test_hostile_lexicon_matches_direct_extraction"]),
    ("the scanner's leading class holds only the forms' own first characters", TEXTCHECK,
     "if c.lower() not in rests", "if c not in rests",
     [ORACLE + "test_hostile_lexicon_matches_direct_extraction"]),
    ("the scanner's leading class holds no character outside ASCII", TEXTCHECK,
     'f"[^{cannot_start}]', 'f"[^{cannot_start}\\x80-\\U0010ffff]',
     [ORACLE + "test_every_first_letter_of_a_form_is_found"]),
    ("the dot after a form's i is not optional", TEXTCHECK,
     '.replace("i\\u0307", "i\\u0307?")', "",
     [ORACLE + "test_every_first_letter_of_a_form_is_found"]),
    ("a byte hit beside a letter outside ASCII before it is kept", TEXTCHECK,
     "if start and data[start - 1] > 127 and", "if False and",
     [BYTES + "test_matches_direct_extraction"]),
    ("a byte hit beside a letter outside ASCII after it is kept", TEXTCHECK,
     "if end < size and data[end] > 127 and", "if False and",
     [BYTES + "test_matches_direct_extraction"]),
    ("a byte pattern finds a form that ends a word", TEXTCHECK,
     "{head}(?<![A-Za-z]{head})(?:", "{head}(?:",
     [BYTES + "test_matches_direct_extraction"]),
    ("a lexicon with a k form takes the byte path", TEXTCHECK,
     'form.isascii() and "k" not in form', "form.isascii()",
     [BYTES + "test_a_k_form_finds_the_kelvin_sign"]),
    ("a sentence keeps only its last byte hit", TEXTCHECK,
     "words.setdefault(bisect_right(ends, start), []).append(names[match[0]])\n",
     "words[bisect_right(ends, start)] = [names[match[0]]]\n",
     [BYTES + "test_matches_direct_extraction"]),
    ("the byte path's spaces leave out the ideographic space", TEXTCHECK,
     '|\\xe2\\x81\\x9f|\\xe3\\x80\\x80"', '|\\xe2\\x81\\x9f"',
     [BYTES + "test_sentence_ends_agree_with_the_str_pattern"]),
    ("the byte fold leaves ? as it is", TEXTCHECK,
     'b"!?",\n                        string.ascii_lowercase.encode() + b".."',
     'b"!",\n                        string.ascii_lowercase.encode() + b"."',
     [BYTES + "test_sentence_ends_agree_with_the_str_pattern"]),
    ("a byte span ends one byte before its terminator's end", TEXTCHECK,
     "end = ends[index] if index < last", "end = ends[index] - 1 if index < last",
     [BYTES + "test_matches_direct_extraction"]),
    ("a byte span keeps the whitespace before its sentence", TEXTCHECK,
     "start = _byte_lead(data, ends[index - 1] if index else 0).end()",
     "start = ends[index - 1] if index else 0",
     [BYTES + "test_spaces_before_a_sentence_stay_out_of_its_span"]),
    ("a span counts the whitespace before a sentence in characters", TEXTCHECK,
     "offsets[2 * index] + len(chunk[:lead].encode())", "offsets[2 * index] + lead",
     [ORACLE + "test_matches_direct_segmentation"]),
    ("the last sentence's span keeps the whitespace after it", TEXTCHECK,
     "return start, offsets[-1] - len(chunk[len(chunk.rstrip()):].encode())",
     "return start, offsets[-1]",
     [ORACLE + "test_matches_direct_segmentation"]),
    ("a sentence's atoms are its last form's", TEXTCHECK,
     "found = atoms if found is None else found | atoms", "found = atoms",
     [ORACLE + "test_matches_direct_segmentation"]),
    ("a blank last chunk counts as a sentence", TEXTCHECK,
     "return count + bool(pieces[-1].strip())", "return count + 1",
     [ORACLE + "test_end_of_document_names_the_sentence_count"]),
    ("a block is cut before its last sentence's terminator", TEXTCHECK,
     "cut = end.end() if end else len(text)", "cut = end.start() if end else len(text)",
     [BLOCKWISE]),
    ("a sentence's index is not carried across blocks", TEXTCHECK,
     "first + index))", "index))", [BLOCKWISE]),
    ("a sentence's byte offset is not carried across blocks", TEXTCHECK,
     "hits.append((index, (base + start, base + end), forms))",
     "hits.append((index, (start, end), forms))", [BLOCKWISE]),
    ("a sentence's byte offset is not carried across blocks by the scanner", TEXTCHECK,
     "pieces, offsets = _split(block, base)", "pieces, offsets = _split(block)",
     [BLOCKWISE + "_under_a_hostile_lexicon"]),
    ("the UTF-8 length drops the last block", TEXTCHECK,
     "return sum(len(block.encode()) for block in _blocks(text))",
     "return sum(list(map(len, map(str.encode, _blocks(text))))[:-1])", [BLOCKWISE]),
    ("a line and column count a block's characters one short", TEXTCHECK,
     "        offset += len(block)\n", "        offset += len(block) - 1\n", [BLOCKWISE]),
    ("a render past the recursion limit is not redone on a stack", "pdlogic/linear.py",
     "    except RecursionError:\n", "    except ():\n",
     [RENDER + "test_a_formula_deeper_than_the_recursion_limit"]),
    ("proof text ends lines wherever str.splitlines does", PROVER,
     "enumerate(_line_starts(text), start=1)",
     "enumerate(zip(text.splitlines(), __import__('itertools').accumulate(\n"
     "            map(len, text.splitlines(keepends=True)), initial=0)), start=1)",
     [SERIAL + "test_only_a_line_end_ends_a_line"]),
    ("proof trees that differ in a premise are equal", PROVER,
     "            pairs.extend(zip(mine.premises, theirs.premises))\n", "",
     [CHECK + "test_equal_proofs_deeper_than_the_recursion_limit_compare_and_hash_alike"]),
    ("a class's own __eq__ and __hash__ are replaced", "pdlogic/node.py",
     "            if name not in cls.__dict__:", "            if True:",
     [CHECK + "test_equal_proofs_deeper_than_the_recursion_limit_compare_and_hash_alike"]),
    ("a bug below main escapes it", "pdlogic/cli.py",
     "    except Exception:  # a bug", "    except ():  # a bug",
     ["tests/test_cli.py::TestHostileInput::test_a_value_error_below_main_is_not_bad_input"]),
    ("fold visits a node that was pushed twice a second time", "pdlogic/node.py",
     "        elif id(node) not in values:  # else a shared node, pushed twice\n",
     "        else:\n",
     ["tests/test_nodes.py::test_fold_visits_each_shared_node_once"]),
    ("a proof's hash ignores its premises' hashes", PROVER,
     "_Hashed(hash(tuple(map(_Hashed, premises))))", "_Hashed(hash(()))",
     ["tests/test_nodes.py::TestEachClass::test_hash_is_the_hash_of_the_fields"
      "[prover.ProofTree]"]),
    ("atoms keeps only its first operand's atoms", "pdlogic/temporal.py",
     "frozenset().union(*below)", "frozenset().union(*below[:1])",
     ["tests/test_formulas.py::TestAtoms::test_a_chain_deeper_than_the_recursion_limit"]),
    ("a pronoun atom keeps its case", "pdlogic/atoms.py",
     '        object.__setattr__(self, "subject", self.subject.lower())\n', "",
     ["tests/test_formulas.py::TestPronounAtom::test_canonical_key_is_lowercase"]),
)


def stale() -> dict[str, int]:
    """Each row whose old text does not occur exactly once in its file, by
    name, with the number of times it does."""
    counts = {name: (ROOT / "src" / file).read_text(encoding="utf-8").count(old)
              for name, file, old, _, _ in MUTANTS}
    return {name: count for name, count in counts.items() if count != 1}


def run(file: str, old: str, new: str, selection: list[str]) -> tuple[int, str]:
    """pytest's exit status and output on ``selection``, with ``old``
    replaced by ``new`` in a copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="pdlogic-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "-o", f"pythonpath={src}", *selection]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {TIMEOUT_S} s"
        return done.returncode, done.stdout + done.stderr


def main() -> int:
    start = time.perf_counter()
    failing = stale()
    for name, count in failing.items():
        print(f"STALE     {name}: its old text occurs {count} times")
    marker = "the tests import the mutated copy"
    init = (ROOT / "src/pdlogic/__init__.py").read_text(encoding="utf-8")
    status, output = run("pdlogic/__init__.py", init,
                         f"raise ImportError({marker!r})\n" + init, [CHECK + "test_id_axiom"])
    if status == 0 or marker not in output:
        print("ERROR     the tests did not import the copy of src/, so no row can be trusted")
        return 1
    for name, file, old, new, selection in MUTANTS:
        if name in failing:
            continue
        began = time.perf_counter()
        status, output = run(file, old, new, selection)
        took = f"({time.perf_counter() - began:.1f} s)"
        if status == 1:
            print(f"killed    {name} {took}")
            continue
        failing[name] = status
        if status == 0:
            print(f"SURVIVED  {name} {took}: {' '.join(selection)} passes")
        else:
            print(f"ERROR     {name} {took}: pytest exit {status}\n{output[-2000:]}")
    total = time.perf_counter() - start
    print(f"{len(MUTANTS)} mutants, {len(failing)} not killed, {total:.0f} s")
    if total > BUDGET_S:
        print(f"SLOW      the run took {total:.0f} s, past its budget of {BUDGET_S} s")
        return 1
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
