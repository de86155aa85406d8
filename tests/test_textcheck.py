"""Sentence segmentation, trace extraction, and document checking."""

import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdlogic import temporal as tl
from pdlogic import textcheck
from pdlogic.atoms import atom
from pdlogic.monitoring import Utterance, expand_bounded
from pdlogic.parsing import ParseError, parse_temporal
from pdlogic.textcheck import (
    ConfigError,
    Lexicon,
    LexiconError,
    ReferentSpec,
    check_document,
    default_lexicon,
    parse_lexicon,
    parse_referent_spec,
    render_report,
    render_report_machine,
    segment,
)

from oracles import direct_evaluate, direct_segment, direct_utterances

SHE = atom("she/her")
HE = atom("he/him")
THEY = atom("they/them")


def spec_for(descriptor_text):
    return ReferentSpec(frozenset(["Mara"]), parse_temporal(descriptor_text),
                        default_lexicon())


class TestSegment:
    def test_two_sentences_with_byte_spans(self):
        text = "She left. They agreed."
        assert segment(text) == [
            ("She left.", (0, 9)),
            ("They agreed.", (10, 22)),
        ]

    def test_no_terminator(self):
        assert segment("no terminator") == [("no terminator", (0, 13))]

    def test_empty(self):
        assert segment("") == []

    def test_delimiter_needs_following_whitespace(self):
        # "3.5" style dots do not split
        assert len(segment("Version one. Version two")) == 2
        assert len(segment("See 3.5 here.")) == 1

    def test_spans_are_byte_offsets(self):
        text = "Café visit. She left."
        sentences = segment(text)
        assert sentences[0][1] == (0, 12)  # é is two bytes
        assert sentences[1][1] == (13, 22)

    def test_spans_ordered_and_disjoint(self):
        text = "One. Two! Three? Four"
        spans = [span for _, span in segment(text)]
        assert spans == sorted(spans)
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end <= b_start


# Every character str.isspace() accepts, the ASCII separators \x1c-\x1f, NEL,
# NBSP, U+2028 and the ideographic space among them.
SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# Letters whose lowercase is longer (İ), differs by context (Σ) or is not
# ASCII (ſ, the Kelvin sign), next to the lexicon's forms in mixed case.
PIECES = SPACES + list(".!?") + [
    "she", "Her", "THEY", "them", "he", "HIS", "It", "ze", "vaer", "x",
    "é", "ü", "ß", "日本", "𝔘", "İ", "İt", "hİm", "ı", "ſ", "ſhe", "\u212a",
    "Σ", "ς", "σ", "ΟΣ", "\u0307", "'", "3", "_", "a1b", "3.5", "-",
]
hostile_text = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)

XE = atom("xe/xem")
HOSTILE_FORMS = ["ος", "οσ", "σα", "i\u0307", "i\u0307t", "t", "o'er", "er", "o", "foo bar",
                 "ια", "α", "ſhe", "k", "ß", "ss", "ﬁ", "'em"]
HOSTILE_SPEC = ReferentSpec(
    frozenset(["Kit"]), parse_temporal("[] xe/xem"),
    Lexicon({**default_lexicon().entries,
             **dict.fromkeys(HOSTILE_FORMS + ["xe", "xem"], frozenset({XE}))}))
# The Kelvin sign lowers to k, ẞ to ß, İT to i̇t; U+0345 matches ι under
# IGNORECASE but is no letter.
HOSTILE_PIECES = PIECES + ["ΟΣ'", "ΣΑ", "İT", "O'ER", "\u0345α", "ẞ", "FI", "\u212a"]


class TestSegmentAgainstOracle:
    """``segment`` and ``_utterances`` against the character-loop oracle:
    sentence texts, byte spans, atoms and sentence indices all equal."""

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(hostile_text)
    @example("")
    @example("".join(SPACES))
    @example(". she.!? her?" + "".join(SPACES) + "!")
    @example("\x1c\x1dShe.\x1e\x1fThey!\x85He?\xa0It.\u2028Ze\u3000.")
    @example("İt. ſhe. \u212aHE. ΟΣ'Σ her. Café her. 日本 they")
    # forms after whitespace of more bytes than characters, two in a sentence
    @example("Hi.\u3000She saw it. \x85Her? \xa0they. \u3000\x85\xa0he")
    # an unterminated last sentence with whitespace after it
    @example("She left. her \u3000\x85\n")
    # a document that ends right at a terminator
    @example("She left. Her book.")
    @example("She left.\r\nHer book.\r\n\r\nthey\r\n")
    def test_matches_direct_segmentation(self, text):
        spec = spec_for("[] she/her")
        assert segment(text) == direct_segment(text)
        assert (textcheck._utterances(text, spec)
                == direct_utterances(direct_segment(text), spec))

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(st.lists(st.sampled_from(HOSTILE_PIECES), max_size=40).map("".join))
    @example("ΟΣ' ΣΑ. İT O'ER ͅα. ẞ FI \u212a. foo bar. ΟΣ.")
    def test_hostile_lexicon_matches_direct_extraction(self, text):
        # Forms with a character that is no letter (o'er, foo bar, the dot of
        # i̇t), a letter that matches a non-letter under IGNORECASE (ι and
        # U+0345), and forms that begin or end others (o, er, t): the scan
        # must give the same utterances as a lookup of every word.
        assert (textcheck._utterances(text, HOSTILE_SPEC)
                == direct_utterances(direct_segment(text), HOSTILE_SPEC))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(hostile_text)
    @example("She left. It rained. \n")
    @example("She left. It rained.")
    @example("She left. It rained")
    def test_end_of_document_names_the_sentence_count(self, text):
        # no piece holds a form of hy/hym, so every document is violated at its end
        (diag,) = check_document(text, spec_for("<> hy/hym")).diagnostics
        assert "end of document" in diag.message
        assert diag.sentence_index == len(direct_segment(text))

    def test_each_letter_lowers_to_one_letter_that_matches_it(self):
        # The scan finds a form where str.lower() of a run equals it, by
        # matching the form under IGNORECASE; that holds letter by letter
        # but for U+0130, whose lowercase is i and a combining dot above.
        letter = re.compile(textcheck._LETTER)
        exceptions = []
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            if letter.fullmatch(ch):
                lower = ch.lower()
                if not (len(lower) == 1 and letter.fullmatch(lower)
                        and re.fullmatch(re.escape(lower), ch, re.IGNORECASE)):
                    exceptions.append(ch)
        assert exceptions == ["\u0130"]
        assert "\u0130".lower() == "i\u0307"
        assert re.fullmatch("i", "\u0130", re.IGNORECASE)
        # str.lower() gives σ or ς by context; under IGNORECASE each matches
        # both and Σ, so a form's σ or ς matches as the class [σς]
        for form in "σς":
            assert [c for c in "σςΣ" if re.fullmatch(form, c, re.IGNORECASE)] == list("σςΣ")

    def test_every_first_letter_of_a_form_is_found(self):
        # The scan skips to the characters its leading class admits; every
        # letter that lowers to the start of a form, capitals, the Kelvin
        # sign, İ and ſ among them, must be admitted and then matched.
        letter = re.compile(textcheck._LETTER)
        by_lower = {}
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            if letter.fullmatch(ch):
                by_lower.setdefault(ch.lower(), []).append(ch)
        forms = frozenset(HOSTILE_SPEC.lexicon.entries)
        findall = textcheck._scanner(forms).findall
        runs = set()
        for form in forms:
            for size in range(1, min(len(form), 3) + 1):  # a lowercase is 1-3 long
                for ch in by_lower.get(form[:size], ()):
                    run = ch + form[size:]
                    if re.fullmatch(f"{textcheck._LETTER}+", run) and run.lower() == form:
                        runs.add(run)
                        assert findall(run) == [run], (form, run)
        assert {"She", "\u212a", "\u0130t", "ſhe", "ẞ", "Σα"} <= runs

    def test_whitespace_sets_agree(self):
        # segment finds ends with re's \s and trims with str.strip; both must
        # accept exactly the characters str.isspace() does, and so must the
        # byte path's spaces, in UTF-8
        every = "".join(chr(c) for c in range(sys.maxunicode + 1))
        assert re.findall(r"\s", every) == SPACES
        assert "".join(SPACES).strip() == ""
        assert all(ch.strip() == ch for ch in every if not ch.isspace())
        space = b"%s|%s" % (textcheck._ASCII_SPACE, textcheck._WIDE_SPACE)
        encoded = every.encode(errors="surrogatepass")
        assert re.findall(space, encoded) == [ch.encode() for ch in SPACES]
        for run in ("".join(SPACES), "".join(reversed(SPACES))):
            assert textcheck._byte_lead(run.encode() + b"x").end() == len(run.encode())


def whole_text_line_column(text, byte_offset):
    """The line and column at ``byte_offset``, from the decoded prefix of the
    whole encoded text: the computation before the passes went blockwise."""
    prefix = text.encode("utf-8")[:byte_offset].decode("utf-8", errors="replace")
    line = prefix.count("\n") + prefix.count("\r") - prefix.count("\r\n") + 1
    return line, len(prefix) - max(prefix.rfind("\n"), prefix.rfind("\r"))


class TestBlockwise:
    """Each whole-document pass, with blocks of 1 to 9 characters, against
    the oracle's segmentation and the whole-text computations. A block then
    ends just past nearly every sentence end, and a sentence longer than the
    block is held whole."""

    @staticmethod
    def check(text, spec, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textcheck, "_BLOCK", block)
            sentences = direct_segment(text)
            assert textcheck._utterances(text, spec) == direct_utterances(sentences, spec)
            assert textcheck._utf8_length(text) == len(text.encode())
            # no piece holds a form of hy/hym, so every document is violated at its end
            (diag,) = check_document(text, spec_for("<> hy/hym")).diagnostics
            assert diag.message.startswith("descriptor violated at end of document")
            assert diag.sentence_index == len(sentences)
            assert diag.byte_span == (len(text.encode()),) * 2
            for offset in range(len(text) + 1):
                byte_offset = len(text[:offset].encode())
                assert (textcheck._line_column(text, byte_offset)
                        == whole_text_line_column(text, byte_offset)), offset

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(hostile_text, st.integers(1, 9))
    @example("She left. Her book.", 1)
    @example("She left.\r\nHer book.\r\n\r\nthey\r\n", 3)
    @example("a.\rb.\r\nc.\n", 1)
    @example("Hi.\u3000She saw it. \x85Her? \xa0they. \u3000\x85\xa0he", 2)
    def test_every_pass_matches_the_whole_text(self, text, block):
        self.check(text, spec_for("[] she/her"), block)

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(st.lists(st.sampled_from(HOSTILE_PIECES), max_size=40).map("".join),
           st.integers(1, 9))
    def test_every_pass_matches_the_whole_text_under_a_hostile_lexicon(self, text, block):
        self.check(text, HOSTILE_SPEC, block)

    def test_a_document_of_one_block_is_not_copied(self):
        text = "She left. They agreed."
        assert list(textcheck._blocks(text)) == [text]
        assert next(textcheck._blocks(text)) is text


# Pieces that sit next to the bundled lexicon's forms at the byte level:
# quotes, a dash and NBSP (no letters, of several bytes), a combining accent
# (no letter), ² (a letter to re, not to str.isalpha), letters outside ASCII,
# İ and the Kelvin sign (which lower to text with an ASCII letter), ſ, digits
# and _, and forms and words that share their letters, in mixed case.
BYTE_PIECES = [
    " ", "\n", ".", "!", "?", "\u201c", "\u201d", "\u2014", "\xa0", "\u0301", "\xb2", "\xe9",
    "\u65e5\u672c", "3", "_", "\u0130", "\u017f", "\u212a", "she", "Her", "HERS", "hErself",
    "he", "Him", "HIS", "hir", "THEY", "Them", "their", "it", "ITS", "Itself", "ze", "Zir",
    "vaer", "hy", "the", "T", "h", "x",
]
# A terminator before each space of two or three bytes in UTF-8.
WIDE_ENDS = [end + space for end in ".!?" for space in SPACES if len(space.encode()) > 1]
byte_text = st.lists(st.one_of(st.sampled_from(BYTE_PIECES), st.sampled_from(WIDE_ENDS)),
                     max_size=40).map("".join)
KI = atom("ki/kit")
# An ASCII lexicon with a form that holds a k: the Kelvin sign lowers to k.
KELVIN_SPEC = ReferentSpec(frozenset(["Kit"]), parse_temporal("[] !ki/kit"),
                           Lexicon({"ki": frozenset({KI}), "kit": frozenset({KI})}))


class TestBytePath:
    """The bundled lexicon's forms are ASCII letters, none a k, so its
    forms are found in each block's lowercased UTF-8 bytes; these pin that
    this gives what a lookup of every word gives."""

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(byte_text)
    @example("\u201cHer\u201d book. Caf\u00e9her went. He\u00b2 stayed. Her\u0301 too. "
             "\u00a0them\u2014he left.\n")
    @example("\u212aIT. \u0130t. \u017fhe. her3 _his \u65e5\u672cthey\u65e5\u672c.")
    def test_matches_direct_extraction(self, text):
        spec = spec_for("[] she/her")
        assert (textcheck._utterances(text, spec)
                == direct_utterances(direct_segment(text), spec))

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(byte_text, st.integers(1, 9))
    @example("She left. \u201cHer\u201d book. Them\u2014he left.", 1)
    def test_matches_direct_extraction_in_small_blocks(self, text, block):
        spec = spec_for("[] she/her")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textcheck, "_BLOCK", block)
            assert (textcheck._utterances(text, spec)
                    == direct_utterances(direct_segment(text), spec))

    def test_sentence_ends_agree_with_the_str_pattern(self):
        # Each of . ! ? before every code point in turn, and at the end of
        # the block: the byte pattern must cut the folded bytes where
        # _SENTENCE_END cuts the text.
        fold = textcheck._FOLD
        for end in ".!?":
            for first in range(0, sys.maxunicode + 1, 1 << 16):
                text = "".join(end + chr(c) for c in range(first, first + (1 << 16))
                               if not 0xD800 <= c < 0xE000) + end
                chunks = textcheck._SENTENCE_END.split(text)[::2]
                assert (textcheck._BYTE_SENTENCE_END.split(text.encode().translate(fold))
                        == [chunk.encode().translate(fold) for chunk in chunks])

    def test_spaces_before_a_sentence_stay_out_of_its_span(self):
        text = ("Hi.\u00a0She left.\u2028Her book!\u3000They came?\x1cHe sat.\x1c"
                "\u3000\x85her too\u2029\u3000")
        data = text.encode()
        spans = []
        for sentence in ("She left.", "Her book!", "They came?", "He sat.", "her too"):
            start = data.index(sentence.encode())
            spans.append((start, start + len(sentence.encode())))
        utterances = textcheck._utterances(text, spec_for("[] she/her"))
        assert [(u.source_span, index) for u, index in utterances] == list(
            zip(spans, range(1, 6)))
        assert utterances == direct_utterances(direct_segment(text), spec_for("[] she/her"))

    def test_a_k_form_finds_the_kelvin_sign(self):
        text = "The kettle sang. \u212aIT left.\n"
        assert textcheck._utterances(text, KELVIN_SPEC) == [
            (Utterance(frozenset({KI}), (17, 28)), 1)]
        assert textcheck._utterances(text, KELVIN_SPEC) == direct_utterances(
            direct_segment(text), KELVIN_SPEC)

    def test_the_path_depends_only_on_the_forms(self, monkeypatch):
        def no_scanner(forms):
            raise AssertionError("_scanner was called")

        monkeypatch.setattr(textcheck, "_scanner", no_scanner)
        assert textcheck._utterances(generated_document(10**6), spec_for("[] she/her"))
        for spec in (HOSTILE_SPEC, KELVIN_SPEC):
            with pytest.raises(AssertionError, match="^_scanner was called$"):
                textcheck._utterances("She left.", spec)

    def test_only_two_characters_outside_ascii_lower_to_an_ascii_letter(self):
        # so a run whose str.lower() is a form of ASCII letters, none a k,
        # is a run of ASCII letters, and bytes.lower() finds it
        ascii_letter = re.compile("[A-Za-z]").search
        found = [chr(c) for c in range(128, sys.maxunicode + 1)
                 if ascii_letter(chr(c).lower())]
        assert found == ["\u0130", "\u212a"]
        assert ["\u0130".lower(), "\u212a".lower()] == ["i\u0307", "k"]


def generated_document(size: int, pronouns: bool = True) -> str:
    """About ``size`` bytes of prose, half the sentences with a pronoun, or
    none without ``pronouns``."""
    rng = random.Random(7)
    words = "the report was filed after lunch near the café in a quiet room".split()
    parts, total = [], 0
    while total < size:
        sentence = [rng.choice(words) for _ in range(rng.randint(4, 12))]
        if pronouns and rng.random() < 0.5:
            sentence.insert(rng.randrange(len(sentence)), rng.choice(("she", "they", "her")))
        text = " ".join(sentence).capitalize() + rng.choice(".!?") + rng.choice((" ", "\n"))
        parts.append(text)
        total += len(text.encode("utf-8"))
    return "".join(parts)


def test_checking_a_megabyte_allocates_little():
    text = generated_document(10**6)
    spec = spec_for("[] (she/her \\/ they/them)")
    tracemalloc.start()
    try:
        report = check_document(text, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict.status == "Satisfied"
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("descriptor", ["[] she/her", "<> she/her"])
def test_checking_four_megabytes_without_a_pronoun_allocates_under_two(descriptor):
    # Satisfied, the machine report spans the whole document; violated at its
    # end, the diagnostic counts its sentences and the prose report its lines.
    # Each pass holds one block at a time, never the whole document's pieces
    # or bytes.
    text = generated_document(4 * 2**20, pronouns=False)
    spec = spec_for(descriptor)
    tracemalloc.start()
    try:
        report = check_document(text, spec)
        machine = render_report_machine(report, text)
        prose = render_report(report, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.trace.utterances == ()
    assert machine.startswith(f"{0 if descriptor[0] == '[' else len(text.encode())}\t")
    assert prose.count("\n") == (2 if descriptor[0] == "[" else 3)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestExtractTrace:
    def test_pronounless_sentences_are_skipped(self):
        trace = check_document(
            "She left. The weather was nice. They agreed.", spec_for("[] she/her")
        ).trace
        assert [u.atoms for u in trace.utterances] == [
            frozenset({SHE}),
            frozenset({THEY}),
        ]

    def test_forms_union_within_a_sentence(self):
        trace = check_document("Her book. She read it to her.", spec_for("[] she/her")).trace
        # 'it' is a tracked form of it/it, so the second sentence unions two atoms
        assert trace.utterances[0].atoms == frozenset({SHE})
        assert SHE in trace.utterances[1].atoms

    def test_nothing_tracked(self):
        assert check_document("Nothing here.", spec_for("[] she/her")).trace.utterances == ()

    def test_an_empty_lexicon_finds_nothing(self):
        spec = ReferentSpec(frozenset(["Mara"]), parse_temporal("true"), Lexicon({}))
        assert check_document("She left. They agreed.", spec).trace.utterances == ()

    def test_spans_point_at_the_sentence(self):
        text = "Intro words. She left."
        trace = check_document(text, spec_for("[] she/her")).trace
        start, end = trace.utterances[0].source_span
        assert text.encode()[start:end].decode() == "She left."

    def test_case_insensitive(self):
        spec = spec_for("[] she/her")
        lower = check_document("she left. SHE WON.".lower(), spec).trace
        shouty = check_document("she left. SHE WON.", spec).trace
        assert lower == shouty


class TestCheckDocument:
    def test_violation_with_diagnostic(self):
        report = check_document("She left. He agreed.", spec_for("[] she/her"))
        assert report.verdict.status == "Violated"
        (diag,) = report.diagnostics
        assert diag.byte_span == (10, 20)
        assert diag.sentence_index == 1
        assert diag.atoms_found == frozenset({HE})

    def test_unmet_diamond_is_violated_at_end(self):
        report = check_document("She left.", spec_for("<> they/them"))
        assert report.verdict.status == "Violated"
        (diag,) = report.diagnostics
        assert diag.byte_span == (9, 9)
        assert "end of document" in diag.message

    @pytest.mark.parametrize("text, descriptor", [
        ("She left. It rained.", "<> they/them"),  # violated at end of document
        ("She left. He agreed.", "[] she/her"),  # violated at a sentence
    ])
    def test_segments_once(self, monkeypatch, text, descriptor):
        # the one split of the document is _utterances' own: it is called
        # once, with the whole text, and segment is never called
        calls = []
        utterances = textcheck._utterances

        def counting_utterances(text, spec):
            calls.append(text)
            return utterances(text, spec)

        def no_segment(text):
            raise AssertionError("check_document called segment")

        monkeypatch.setattr(textcheck, "_utterances", counting_utterances)
        monkeypatch.setattr(textcheck, "segment", no_segment)
        check_document(text, spec_for(descriptor))
        assert calls == [text]

    def test_prompt_fix_is_satisfied(self):
        report = check_document(
            "He arrived. She sat. She spoke.", spec_for("[] (!she/her -> () she/her)")
        )
        assert report.verdict.status == "Satisfied"
        assert report.diagnostics == []

    def test_vacuous_satisfaction(self):
        report = check_document("The weather was nice.", spec_for("[] she/her"))
        assert report.verdict.status == "Satisfied"

    def test_agrees_with_direct_semantics(self):
        docs = [
            "She left. He agreed.",
            "They spoke. She answered. They left.",
            "Nothing here at all.",
            "He won. He won again. She clapped.",
        ]
        descriptors = ["[] she/her", "<> they/them", "[] !he/him /\\ <> they/them",
                       "[] (!she/her -> () she/her)", "[]<=2 she/her"]
        for text in docs:
            for d in descriptors:
                spec = spec_for(d)
                report = check_document(text, spec)
                expected = direct_evaluate(expand_bounded(spec.descriptor), report.trace, 0)
                assert report.verdict.status == ("Satisfied" if expected else "Violated")

    def test_determinism(self):
        spec = spec_for("[] she/her")
        text = "She left. He agreed."
        first = check_document(text, spec)
        second = check_document(text, spec)
        assert first == second
        assert render_report_machine(first, text) == render_report_machine(second, text)


class TestLexicon:
    @pytest.mark.parametrize("bad", ["she", "she/h3r", "she/her/x"])
    def test_bad_atom_names_its_line(self, bad):
        with pytest.raises(LexiconError, match=r"^line 3: "):
            parse_lexicon(f"# comment\nshe -> she/her\nher -> {bad}\n")

    def test_a_form_feed_does_not_end_a_line(self):
        # so the words of what looks like a second entry follow the first atom
        with pytest.raises(LexiconError) as raised:
            parse_lexicon("# comment\rher -> she/her\fthey -> they/them\n")
        assert str(raised.value) == (
            "line 2: atom key must look like subject/object, got 'they'")

    def test_parse_and_lookup(self):
        lex = parse_lexicon("XE -> xe/xem\nxem -> xe/xem\nxyrself -> xe/xem\n")
        xe = frozenset({atom("xe/xem")})
        assert lex.entries == {"xe": xe, "xem": xe, "xyrself": xe}

    def test_every_atom_has_subject_and_object_forms(self):
        lex = default_lexicon()
        for a in lex.atoms():
            assert a in lex.entries[a.subject]
            assert a in lex.entries[a.object]

    def test_ambiguous_surface_form(self):
        lex = default_lexicon()
        assert lex.entries["ze"] == frozenset({atom("ze/zir"), atom("ze/zem")})

    def test_missing_form_rejected(self):
        with pytest.raises(LexiconError):
            Lexicon({"xe": frozenset({atom("xe/xem")})})  # no 'xem' entry

    def test_default_covers_the_common_atom_set(self):
        lex = default_lexicon()
        for key in ("she/her", "he/him", "they/them", "ze/zir", "hir/hir",
                    "hy/hym", "ze/zem", "it/it", "vae/vem"):
            assert atom(key) in lex.atoms()


class TestDefaultLexicon:
    PACKAGED = Path(textcheck.__file__).parent / "data" / "english_lexicon.txt"

    def test_mutating_one_lexicon_leaves_the_next_unchanged(self):
        packaged = parse_lexicon(self.PACKAGED.read_text("utf-8"))
        mutated = default_lexicon()
        mutated.entries["she"] = frozenset({HE})
        del mutated.entries["they"]
        mutated.entries["xe"] = frozenset({atom("xe/xem")})
        assert default_lexicon() == packaged

    def test_the_bundled_file_is_parsed_once(self, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_lexicon(text)

        monkeypatch.setattr(textcheck, "parse_lexicon", counting_parse)
        textcheck._default_entries.cache_clear()
        try:
            lexicons = [default_lexicon() for _ in range(3)]
        finally:
            textcheck._default_entries.cache_clear()
        assert len(parsed) == 1
        assert lexicons[0] == lexicons[1] == lexicons[2]
        assert lexicons[0].entries is not lexicons[1].entries


class TestReferentSpec:
    def test_descriptor_atom_must_be_in_lexicon(self):
        with pytest.raises(ConfigError):
            spec_for("[] xe/xem")

    def test_a_descriptor_deeper_than_the_recursion_limit(self):
        # a library-built conjunction: every atom is looked up, the deepest too
        f = tl.Atom(SHE)
        for _ in range(3000):
            f = tl.And(tl.Atom(SHE), f)
        spec = ReferentSpec(frozenset(["Mara"]), f, default_lexicon())
        assert check_document("She left.", spec).verdict.status == "Satisfied"
        with pytest.raises(ConfigError, match="^descriptor atoms missing from lexicon: xe/xem$"):
            ReferentSpec(frozenset(["Mara"]), tl.And(tl.Atom(SHE), tl.And(f, tl.Atom(
                atom("xe/xem")))), default_lexicon())

    def test_parse_spec_text(self):
        spec = parse_referent_spec("referent: Mara M\ndescriptor: [] she/her\n")
        assert spec.referent_names == {"Mara", "M"}
        assert spec.descriptor == parse_temporal("[] she/her")

    def test_missing_descriptor(self):
        with pytest.raises(ConfigError):
            parse_referent_spec("referent: Mara\n")

    @pytest.mark.parametrize("text, key", [
        ("referent: Mara\ndescriptor: [] she/her\nreferent: Ren\n", "referent"),
        ("referent: Mara\ndescriptor: [] she/her\n\ndescriptor: [] he/him\n", "descriptor"),
        ("referent: Mara\nlexicon: lex.txt\ndescriptor: [] she/her\n  lexicon : lex.txt\n",
         "lexicon"),
    ], ids=["referent", "descriptor", "lexicon"])
    def test_repeated_key_is_rejected(self, tmp_path, text, key):
        (tmp_path / "lex.txt").write_text("she -> she/her\nher -> she/her\n", encoding="utf-8")
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"^line {line}: duplicate key '{key}'$"):
            parse_referent_spec(text, base_dir=tmp_path)

    def test_custom_lexicon_path(self, tmp_path):
        (tmp_path / "lex.txt").write_text(
            "xe -> xe/xem\nxem -> xe/xem\n", encoding="utf-8"
        )
        spec_text = "referent: Kit\ndescriptor: [] xe/xem\nlexicon: lex.txt\n"
        spec = parse_referent_spec(spec_text, base_dir=tmp_path)
        assert spec.lexicon.atoms() == frozenset({atom("xe/xem")})

    def test_a_line_ends_at_a_hash(self, tmp_path):
        (tmp_path / "lex.txt").write_text("she -> she/her\nher -> she/her\n", encoding="utf-8")
        spec = parse_referent_spec(
            "referent: Mara M # the author\n"
            "descriptor: [] she/her  # in every sentence\n"
            "lexicon: lex.txt   # surface -> atom lines\n", base_dir=tmp_path)
        assert spec.referent_names == {"Mara", "M"}
        assert spec.descriptor == parse_temporal("[] she/her")
        assert spec.lexicon.atoms() == frozenset({SHE})

    @pytest.mark.parametrize("value", ["", "   ", "  # no path"])
    def test_empty_lexicon_value_names_its_line(self, value):
        text = f"referent: Mara\ndescriptor: [] she/her\nlexicon:{value}\n"
        with pytest.raises(ConfigError, match="^line 3: empty value for 'lexicon'$"):
            parse_referent_spec(text, base_dir=Path("."))

    @pytest.mark.parametrize("text, line, column", [
        ("referent: Mara\n# the descriptor\ndescriptor:   [] (she/her /\\ )\n", 3, 30),
        # CRLF line ends, spaces before the key, a non-ASCII operator
        ("referent: Mara\r\n\r\n  descriptor :\t□ (she/her ∧ )\r\n", 3, 29),
        # after a comment line with non-ASCII text; the error is at the end
        ("# Mara’s spec\ndescriptor: [] she/her /\\\nreferent: Mara\n", 2, 26),
        # an empty descriptor: the error is right after the colon
        ("referent: Mara\n\ndescriptor:\n", 3, 12),
        # a comment after the formula: the error is at the end of the line,
        # as the parser reads the comment itself
        ("referent: Mara\ndescriptor: [] (she/her /\\  # a note\n", 2, 37),
        # \x85 is whitespace, not a line end
        ("referent: Mara\x85\ndescriptor: [] she/\n", 2, 16),
    ])
    def test_bad_descriptor_names_its_place_in_the_spec(self, text, line, column):
        with pytest.raises(ParseError) as raised:
            parse_referent_spec(text)
        err = raised.value
        assert (err.line, err.column) == (line, column)
        start = sum(len(t) + 1 for t in text.split("\n")[:line - 1]) + column - 1
        assert err.byte_offset == len(text[:start].encode("utf-8"))
        assert str(err).startswith(f"line {line}, column {column}: expected formula")

    def test_only_a_line_end_ends_a_line(self):
        # a form feed is whitespace inside the referent line, not a line end
        with pytest.raises(ConfigError, match="^spec file has no 'descriptor:' line$"):
            parse_referent_spec("referent: Mara\fdescriptor: [] she/her\n")
        spec = parse_referent_spec("referent: Mara\fM\x85\rdescriptor: [] she/her\u2028\n")
        assert spec.referent_names == {"Mara", "M"}


class TestReportRendering:
    def test_machine_format(self):
        text = "She left. He agreed."
        report = check_document(text, spec_for("[] she/her"))
        assert render_report_machine(report, text) == "10\t20\tViolated\the/him\n"

    def test_machine_format_satisfied_summary(self):
        text = "She left."
        report = check_document(text, spec_for("[] she/her"))
        assert render_report_machine(report, text) == "0\t9\tSatisfied\t-\n"

    def test_human_format_mentions_position_and_caveat(self):
        text = "She left.\nHe agreed."
        report = check_document(text, spec_for("[] she/her"))
        rendered = render_report(report, text)
        assert "2:1" in rendered
        assert "no coreference" in rendered
