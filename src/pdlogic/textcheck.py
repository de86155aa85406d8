"""Plain-text document checking against a temporal descriptor.

The pipeline is deliberately thin: split the document into sentences, turn
every sentence bearing a tracked pronoun form into one utterance, and hand
the resulting trace to the monitor. It makes one pass, whose steps run in C:
one split at every sentence end, one running sum of byte lengths and one scan
per sentence; Python handles only the sentences in which the scan found a
word. A word is a run of letters, and it is a form when its ``str.lower()``
is a lexicon entry. One compiled pattern per lexicon finds, in each sentence,
the words that could be forms, so Python looks up only those. The pattern
starts with a case-sensitive class of the characters that can begin a form,
so ``re`` skips to them in C and tries its case-insensitive test only there.
No coreference resolution is attempted: every pronoun in the document is
attributed to the single referent, because a wrong coreference heuristic
would manufacture false accusations of misgendering. This limitation is
surfaced in the report output.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from itertools import accumulate
from operator import itemgetter

from . import notation, parsing, temporal
from .atoms import PronounAtom, atom
from .monitoring import VIOLATED, Trace, Utterance, monitor
from .monitoring import expand_bounded  # noqa: F401  (perfbench/tracing.py patches it)
from .node import Node

SINGLE_REFERENT_NOTE = (
    "note: every pronoun in the document is attributed to the referent; "
    "no coreference resolution is performed"
)


class LexiconError(Exception):
    pass


class ConfigError(Exception):
    pass


class InputError(Exception):
    """An input that cannot be read as UTF-8 text, or that is given twice."""


def read_utf8(path: str | os.PathLike | None) -> str:
    """The text of the UTF-8 file at ``path``, or of standard input if None,
    decoded strictly and with its line ends as stored, so that a byte offset
    into the text is one into the file."""
    try:
        if path is None:
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as file:
                data = file.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        source = "standard input" if path is None else path
        raise InputError(f"{source}: not UTF-8 text (bad byte at offset {exc.start})") from None
    except UnicodeEncodeError:  # a name such as a lone surrogate, from an in-process caller
        raise InputError(f"file name cannot be encoded: {os.fspath(path)!r}") from None
    except ValueError:  # open() refuses a name that holds a NUL byte
        raise InputError(f"file name holds a NUL byte: {os.fspath(path)!r}") from None


class Lexicon(Node):
    """Map from lowercase surface token to the atoms it can realize."""

    __slots__ = ("entries",)  # a dict from str to a frozenset of PronounAtoms

    def __post_init__(self):
        for token in self.entries:
            if token != token.lower():
                raise LexiconError(f"lexicon tokens must be lowercase: {token!r}")
        for a in self.atoms():
            for form in (a.subject, a.object):
                if a not in self.entries.get(form, frozenset()):
                    raise LexiconError(
                        f"atom {a} is referenced but its form {form!r} is missing"
                    )

    def atoms(self) -> frozenset[PronounAtom]:
        if not self.entries:
            return frozenset()
        return frozenset().union(*self.entries.values())


def parse_lexicon(text: str) -> Lexicon:
    """Lexicon file format: ``<surface-token> -> <atom> [<atom>...]`` per line,
    ``#`` comments."""
    entries: dict[str, set[PronounAtom]] = {}
    for lineno, raw in enumerate(notation._lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        surface, arrow, atoms_text = line.partition("->")
        surface = surface.strip().lower()
        if not arrow or not surface:
            raise LexiconError(f"line {lineno}: expected '<token> -> <atom>...'")
        keys = atoms_text.split()
        if not keys:
            raise LexiconError(f"line {lineno}: entry for {surface!r} lists no atoms")
        try:
            entries.setdefault(surface, set()).update(atom(k) for k in keys)
        except ValueError as exc:
            raise LexiconError(f"line {lineno}: {exc}") from None
    return Lexicon({k: frozenset(v) for k, v in entries.items()})


@functools.cache
def _default_entries() -> dict[str, frozenset[PronounAtom]]:
    from importlib import resources  # here, so that importing the CLI skips it

    text = (resources.files("pdlogic") / "data" / "english_lexicon.txt").read_text(
        "utf-8"
    )
    return parse_lexicon(text).entries


def default_lexicon() -> Lexicon:
    """The bundled English lexicon. The file is read and parsed once per
    process; each call returns a new ``Lexicon`` with its own dict."""
    return Lexicon(dict(_default_entries()))


class ReferentSpec(Node):
    """A referent's names paired with their descriptor and the lexicon that
    grounds the descriptor's atoms in surface forms."""

    # a frozenset of strs, a TemporalFormula, a Lexicon
    __slots__ = ("referent_names", "descriptor", "lexicon")

    def __post_init__(self):
        if not self.referent_names:
            raise ConfigError("referent must have at least one name")
        missing = temporal.atoms(self.descriptor) - self.lexicon.atoms()
        if missing:
            keys = ", ".join(sorted(a.key for a in missing))
            raise ConfigError(f"descriptor atoms missing from lexicon: {keys}")


def parse_referent_spec(text: str, base_dir: str | os.PathLike | None = None) -> ReferentSpec:
    """Spec file format: ``referent:`` and ``descriptor:`` lines, optional
    ``lexicon: <path>`` (relative to the spec file). Each key appears at
    most once, and a line ends at ``#``, as well as at ``\\n``, ``\\r\\n``
    or a lone ``\\r``."""
    seen: set[str] = set()
    names: frozenset[str] | None = None
    descriptor = None
    lexicon = None
    end = 0
    for lineno, raw in enumerate(notation._lines(text), start=1):
        start = end
        end = start + len(raw)
        end += 2 if text.startswith("\r\n", end) else 1  # past the line's end
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ConfigError(f"line {lineno}: expected '<key>: <value>'")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "referent":
            names = frozenset(value.split())
        elif key == "descriptor":
            # the span runs on over a comment, which the parser skips itself:
            # an error at the end of the formula is placed at the line's end
            at = start + raw.index(value, raw.index(":") + 1)
            descriptor = parsing._parse_span(parsing.parse_temporal, text, at,
                                             start + len(raw.rstrip()), splitlines=False)
        elif key == "lexicon":
            if not value:
                raise ConfigError(f"line {lineno}: empty value for 'lexicon'")
            # join keeps an absolute value as it is
            path = value if base_dir is None else os.path.join(base_dir, value)
            lexicon = parse_lexicon(read_utf8(path))
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if names is None:
        raise ConfigError("spec file has no 'referent:' line")
    if descriptor is None:
        raise ConfigError("spec file has no 'descriptor:' line")
    return ReferentSpec(names, descriptor, lexicon or default_lexicon())


def load_referent_spec(path: str | os.PathLike) -> ReferentSpec:
    return parse_referent_spec(read_utf8(path), os.path.dirname(path))


# --- segmentation ------------------------------------------------------------

_LETTER = r"[^\W\d_]"


@functools.lru_cache(maxsize=16)
def _scanner(forms: frozenset[str]) -> re.Pattern:
    """A pattern whose ``findall`` gives the runs of letters at whose start
    some form matches, case-insensitively, up to the run's end: a superset of
    the runs whose ``str.lower()`` is a form, and only whole runs.

    The pattern begins with a case-sensitive class, so that ``re`` skips in C
    to the characters that can start such a run; only there does it try the
    rest, under ``(?i:...)``. The class keeps every non-ASCII character and
    each ASCII character whose ``str.lower()`` is the first character of a
    form. That loses no run: an ASCII character lowers to one ASCII
    character, so a run that lowers to a form and starts with one starts with
    a character that lowers to the form's first. (A class under IGNORECASE
    would hand ``re`` no such prefix.) After the class, ``(?<!L.)(?<=L)``
    keeps only the first letter of a run; most of the class's hits in prose
    are inside a word, and the first test rejects them at once. A lookahead
    then holds one branch per first character, ``(?<=h)(?:e|er|im|...)``,
    before the run is consumed.

    It relies on ``str.lower()`` mapping each letter to one letter that
    matches it under ``re.IGNORECASE`` (σ and ς match each other there). The
    one exception is U+0130, which lowers to ``i`` and a combining dot above:
    that dot, after an ``i`` in a form, is optional. The rule is applied to
    the whole form before its first character is split off, so that ``İt``
    still finds ``i̇t``. A match is always a whole run, so a form that holds
    a character that is no letter, such as ``o'er``, can select the run it
    starts in but never reach into the next.
    """
    rests: dict[str, list[str]] = {}  # escaped, by first character
    for form in sorted(filter(None, forms)):
        escaped = re.escape(form).replace("i\u0307", "i\u0307?")
        rests.setdefault(form[0], []).append(escaped[len(re.escape(form[0])):])
    if not rests:
        return re.compile(r"(?!)")
    # a negated set: the class written as "[\x80-\U0010ffff...]" compiles 30 times slower
    cannot_start = "".join(re.escape(c) for c in map(chr, range(128)) if c.lower() not in rests)
    branches = "|".join(f"(?<={re.escape(first)})(?:{'|'.join(rest)})"
                        for first, rest in rests.items())
    return re.compile(
        f"[^{cannot_start}](?<!{_LETTER}.)(?<={_LETTER})"
        f"(?i:(?=(?:{branches})(?!{_LETTER})){_LETTER}*)"
    )


# ``\s`` here and ``str.strip`` below accept exactly the characters that
# ``str.isspace`` does.
_SENTENCE_END = re.compile(r"([.!?])(?=\s|\Z)")


def _split(text: str) -> tuple[list[str], list[int]]:
    """The document cut once at its sentence ends, and the byte offset at
    which each piece starts, with the document's length in bytes last.

    The pieces alternate, a chunk and its terminator, and end with a chunk
    that has none. Chunk ``i``, ``pieces[2 * i]``, is sentence ``i`` with the
    whitespace before it (and, for the last, after it). Every chunk but the
    last precedes a terminator, so only the last can be blank. The split,
    the encoding and the running sum all run in C."""
    pieces = _SENTENCE_END.split(text)
    return pieces, list(accumulate(map(len, map(str.encode, pieces)), initial=0))


def _span(pieces: list[str], offsets: list[int], index: int) -> tuple[int, int]:
    """The byte span of sentence ``index``: its chunk less the whitespace
    around it, with its terminator."""
    chunk = pieces[2 * index]
    lead = len(chunk) - len(chunk.lstrip())
    start = offsets[2 * index] + len(chunk[:lead].encode())
    if 2 * index + 1 < len(pieces):
        return start, offsets[2 * index + 2]
    return start, offsets[-1] - len(chunk[len(chunk.rstrip()):].encode())


def _sentence_count(text: str) -> int:
    """``len(segment(text))``, without the spans."""
    pieces = _SENTENCE_END.split(text)
    return len(pieces) // 2 + bool(pieces[-1].strip())


def segment(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Sentences with byte spans. A sentence ends at '.', '!', or '?' followed
    by whitespace or end of input; the terminator belongs to the sentence."""
    pieces, offsets = _split(text)
    sentences = [(chunk.lstrip() + end, _span(pieces, offsets, index))
                 for index, (chunk, end) in enumerate(zip(pieces[::2], pieces[1::2]))]
    if last := pieces[-1].strip():
        sentences.append((last, _span(pieces, offsets, len(sentences))))
    return sentences


# --- trace extraction and checking -------------------------------------------


class Diagnostic(Node):
    # a (start, end) in bytes, an int, a frozenset of PronounAtoms, a str
    __slots__ = ("byte_span", "sentence_index", "atoms_found", "message")


class Report(Node):
    __slots__ = ("verdict", "diagnostics", "trace")  # a Verdict, a list of Diagnostics, a Trace


def _utterances(text: str, spec: ReferentSpec) -> list[tuple[Utterance, int]]:
    """Each sentence of ``text`` with a lexicon form, as an utterance of the
    union of its forms' atoms, paired with the sentence's index.

    The document is split once (``_split``) and each chunk is scanned, in C,
    by the lexicon's ``_scanner``. Python visits only the chunks where the
    scan found a run: it looks up those runs, and computes a span only for a
    chunk with a form. A chunk's index is its sentence's, since a blank chunk
    holds no run."""
    entries = spec.lexicon.entries
    lookup = entries.get
    pieces, offsets = _split(text)
    scans = map(_scanner(frozenset(entries)).findall, pieces[::2])
    result = []
    for index, tokens in filter(itemgetter(1), enumerate(scans)):
        found = None
        for token in tokens:
            atoms = lookup(token.lower())
            if atoms:
                found = atoms if found is None else found | atoms
        if found:
            result.append((Utterance(found, _span(pieces, offsets, index)), index))
    return result


def extract_trace(text: str, spec: ReferentSpec) -> Trace:
    """One utterance per sentence containing at least one tracked pronoun
    form; pronoun-free sentences produce no utterance."""
    return Trace(tuple(u for u, _ in _utterances(text, spec)))


def check_document(text: str, spec: ReferentSpec) -> Report:
    """Monitor the extracted trace against the descriptor; the verdict is
    always forced conclusive at end of document."""
    pairs = _utterances(text, spec)
    trace = Trace(tuple(u for u, _ in pairs))
    final = monitor(spec.descriptor, trace.utterances)[-1]
    diagnostics: list[Diagnostic] = []
    if final.status == VIOLATED:
        if final.witness_position is not None:
            utterance, sentence_index = pairs[final.witness_position]
            atoms_text = ", ".join(sorted(a.key for a in utterance.atoms))
            diagnostics.append(
                Diagnostic(
                    utterance.source_span,
                    sentence_index,
                    utterance.atoms,
                    f"descriptor violated here (pronouns found: {atoms_text})",
                )
            )
        else:
            doc_end = len(text.encode("utf-8"))
            diagnostics.append(
                Diagnostic(
                    (doc_end, doc_end),
                    _sentence_count(text),
                    frozenset(),
                    "descriptor violated at end of document "
                    "(an outstanding obligation was never met)",
                )
            )
    return Report(final, diagnostics, trace)


# --- report rendering --------------------------------------------------------


def _line_column(text: str, byte_offset: int) -> tuple[int, int]:
    data = text.encode("utf-8")[:byte_offset].decode("utf-8", errors="replace")
    _, line, column = parsing._position(data, len(data))
    return line, column


def render_report(report: Report, text: str) -> str:
    """Human-readable report with line:column positions."""
    lines = [f"verdict: {report.verdict.status}"]
    for diag in report.diagnostics:
        line, column = _line_column(text, diag.byte_span[0])
        lines.append(f"  {line}:{column}: {diag.message}")
    lines.append(SINGLE_REFERENT_NOTE)
    return "\n".join(lines) + "\n"


def render_report_machine(report: Report, text: str) -> str:
    """One diagnostic per line: ``<byte_start>\\t<byte_end>\\t<verdict-or-note>\\t<atoms>``.

    A report with no diagnostics emits a single summary line covering the
    whole document.
    """
    lines = []
    for diag in report.diagnostics:
        atoms_text = " ".join(sorted(a.key for a in diag.atoms_found)) or "-"
        lines.append(
            f"{diag.byte_span[0]}\t{diag.byte_span[1]}\t{report.verdict.status}\t{atoms_text}"
        )
    if not lines:
        doc_end = len(text.encode("utf-8"))
        lines.append(f"0\t{doc_end}\t{report.verdict.status}\t-")
    return "\n".join(lines) + "\n"
