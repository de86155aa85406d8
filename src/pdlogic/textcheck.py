"""Plain-text document checking against a temporal descriptor.

The pipeline is deliberately thin: split the document into sentences, turn
every sentence bearing a tracked pronoun form into one utterance, and hand
the resulting trace to the monitor. It makes one pass, whose steps run in C:
one split at every sentence end, one running sum of byte lengths and one scan
for lexicon forms; Python handles only the sentences in which the scan found
a word. That pass, and every other pass over the whole document (its length
in bytes, its sentence count, a line and column in it), takes the document in
blocks of about ``_BLOCK`` characters that end at sentence ends, so that its
working memory grows with the utterances found and one block, not with the
document. A word is a run of letters, and it is a form when its ``str.lower()``
is a lexicon entry. The scan finds the words that could be forms, so Python
looks up only those, and it takes one of two paths, by the lexicon's forms
alone. When every form is ASCII and none holds a ``k`` (the bundled lexicon's
are), each block is encoded once, in the same C call that lowers A-Z and
turns '!' and '?' into '.'. Those bytes are split at sentence ends by a search
for the literal '.', the chunks' lengths give each sentence's end, and one
bytes pattern per first letter of the forms scans the same bytes; each starts
with the literal its forms share, so ``re`` searches for that literal and
tests a word only where it occurs. No piece is encoded and no hit decoded.
Any other lexicon has each block split as text, its pieces encoded for their
byte lengths, and one pattern that scans each sentence; it starts with a
case-sensitive class of the characters that can begin a form, so ``re``
skips to them in C and tries its case-insensitive test only there.
No coreference resolution is attempted: every pronoun in the document is
attributed to the single referent, because a wrong coreference heuristic
would manufacture false accusations of misgendering. This limitation is
surfaced in the report output.
"""

from __future__ import annotations

import functools
import os
import re
import string
import sys
from bisect import bisect_right
from itertools import accumulate

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
    for lineno, (raw, start) in enumerate(notation._line_starts(text), start=1):
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
                                             start + len(raw.rstrip()))
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
    the runs whose ``str.lower()`` is a form, and only whole runs. It scans
    one sentence at a time, for a lexicon that ``_byte_scanner`` does not
    take: one with a form outside ASCII, or with a ``k``.

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


_is_letter = re.compile(_LETTER).match


@functools.lru_cache(maxsize=16)
def _byte_scanner(forms: frozenset[str]) -> tuple | None:
    """The ``finditer`` of one bytes pattern per first letter of the forms,
    to run on a text's folded UTF-8 bytes (``_FOLD``), and a map from each
    form's bytes to the form; or None when some form is not ASCII or holds a
    ``k``, for ``_scanner`` to take.

    The fold lowers only A-Z, as ``bytes.lower`` does, so a position in the
    folded bytes is a byte offset into the text. A run of letters whose
    ``str.lower()`` is an ASCII form is a run of ASCII letters: the only
    characters that lower to text holding an ASCII letter are those letters,
    U+0130 (to ``i`` and a combining dot, which no ASCII form holds) and the
    Kelvin sign (to ``k``). A form that holds a character that is no letter
    never matches a run, so it is left out. Each pattern starts with the
    literal that its forms share, so ``re`` searches for that literal and
    enters the matcher nowhere else; its lookbehind and lookahead then keep
    only a whole run of ASCII letters:
    ``the(?<![A-Za-z]the)(?:mselves|mself|irs|ir|m|y)(?![A-Za-z])``. A
    neighbouring letter outside ASCII is ruled out by ``_byte_hits``. The
    map is built here, once per lexicon, so that a hit is looked up by its
    bytes, never decoded."""
    if not all(form.isascii() and "k" not in form for form in forms):
        return None
    groups: dict[str, list[str]] = {}  # by first letter
    for form in sorted(filter(str.isalpha, forms)):
        groups.setdefault(form[0], []).append(form)
    finditers = []
    for group in groups.values():
        head = os.path.commonprefix(group)
        rests = "|".join(sorted((form[len(head):] for form in group), key=len, reverse=True))
        finditers.append(
            re.compile(f"{head}(?<![A-Za-z]{head})(?:{rests})(?![A-Za-z])".encode()).finditer)
    return tuple(finditers), {form.encode(): form for form in forms}


# ``\s`` here and ``str.strip`` below accept exactly the characters that
# ``str.isspace`` does.
_SENTENCE_END = re.compile(r"([.!?])(?=\s|\Z)")

# Those 29 characters in UTF-8, for the byte path: the ASCII ones, and the
# rest, of two or three bytes.
_ASCII_SPACE = rb"[\t-\r\x1c- ]"
_WIDE_SPACE = (rb"\xc2[\x85\xa0]|\xe1\x9a\x80|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]"
               rb"|\xe2\x81\x9f|\xe3\x80\x80")
# Lowers A-Z, as ``bytes.lower`` does, and folds '!' and '?' into '.', so
# that a sentence end in the folded bytes starts with a literal, which ``re``
# searches for in C.
_FOLD = bytes.maketrans(string.ascii_uppercase.encode() + b"!?",
                        string.ascii_lowercase.encode() + b"..")
_BYTE_SENTENCE_END = re.compile(rb"\.(?=%s|%s|\Z)" % (_ASCII_SPACE, _WIDE_SPACE))
# Whitespace as runs of ASCII spaces between wide ones: twice as fast as
# ``(?:<space>)*``, which tries every branch at every character.
_byte_lead = re.compile(rb"%s*(?:(?:%s)%s*)*" % (_ASCII_SPACE, _WIDE_SPACE, _ASCII_SPACE)).match

# The characters a pass over the document takes at a time, up to the next
# sentence end: no pass holds more than one block's pieces, bytes or prefix.
_BLOCK = 1 << 16


def _blocks(text: str):
    """``text`` in blocks of about ``_BLOCK`` characters. Each block but the
    last ends just past a sentence end, so no sentence straddles two, and each
    block's sentence ends are the document's. A document of one block is
    yielded as it is, not copied; a sentence longer than a block is held
    whole."""
    at = 0
    while True:
        end = _SENTENCE_END.search(text, at + _BLOCK)
        cut = end.end() if end else len(text)
        yield text[at:cut]
        if cut == len(text):
            return
        at = cut


def _utf8_length(text: str) -> int:
    """``len(text.encode())``, one block at a time."""
    return sum(len(block.encode()) for block in _blocks(text))


def _split(text: str, base: int = 0) -> tuple[list[str], list[int]]:
    """The text cut once at its sentence ends, and the byte offset at which
    each piece starts, counted from ``base``, with the text's end last.

    The pieces alternate, a chunk and its terminator, and end with a chunk
    that has none. Chunk ``i``, ``pieces[2 * i]``, is sentence ``i`` with the
    whitespace before it (and, for the last, after it). Every chunk but the
    last precedes a terminator, so only the last can be blank; in a block
    that ends at a sentence end it is empty. The split, the encoding and the
    running sum all run in C."""
    pieces = _SENTENCE_END.split(text)
    return pieces, list(accumulate(map(len, map(str.encode, pieces)), initial=base))


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
    """``len(segment(text))``, without the spans, one block at a time. A
    block's sentences are its terminators, and the last block's last chunk
    if it is not blank."""
    count = 0
    for block in _blocks(text):
        pieces = _SENTENCE_END.split(block)
        count += len(pieces) // 2
    return count + bool(pieces[-1].strip())


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


def _str_hits(block: str, base: int, findall) -> tuple[list, int, int]:
    """Each chunk of ``block`` in which ``findall`` (a ``_scanner``'s) finds
    a run, as its sentence's index in the block, byte span and lowercased
    runs; the block's count of terminators; and the byte offset of its end.
    Byte offsets count from ``base``."""
    pieces, offsets = _split(block, base)
    hits = [(index, _span(pieces, offsets, index), [run.lower() for run in runs])
            for index, runs in enumerate(map(findall, pieces[::2])) if runs]
    return hits, len(pieces) // 2, offsets[-1]


def _byte_hits(block: str, base: int, scanner: tuple) -> tuple[list, int, int]:
    """As ``_str_hits``, for ``_byte_scanner``'s patterns, which give forms.

    The block is encoded and folded (``_FOLD``) once, in C, and its bytes are
    split at sentence ends by a literal search. A sentence's end is the
    running sum of the lengths of the chunks up to it, each plus its
    terminator's byte. A hit lies in the first sentence that ends after it,
    since no form holds a terminator; it is kept only when the character of
    a neighbouring byte outside ASCII is no letter. A span drops the
    whitespace before its sentence, by one match (``_byte_lead``)."""
    finditers, names = scanner
    data = block.encode().translate(_FOLD)
    chunks = _BYTE_SENTENCE_END.split(data)
    ends = list(accumulate(map((1).__add__, map(len, chunks))))
    size = len(data)
    words: dict[int, list] = {}
    for finditer in finditers:
        for match in finditer(data):
            start, end = match.span()
            if start and data[start - 1] > 127 and _is_letter(
                    data[max(start - 4, 0):start].decode(errors="ignore")[-1]):
                continue
            if end < size and data[end] > 127 and _is_letter(
                    data[end:end + 4].decode(errors="ignore")[0]):
                continue
            words.setdefault(bisect_right(ends, start), []).append(names[match[0]])
    last = len(chunks) - 1  # the chunk after the last terminator
    hits = []
    for index, forms in sorted(words.items()):
        start = _byte_lead(data, ends[index - 1] if index else 0).end()
        end = ends[index] if index < last else start + len(data[start:].decode().rstrip().encode())
        hits.append((index, (base + start, base + end), forms))
    return hits, last, base + size


def _utterances(text: str, spec: ReferentSpec) -> list[tuple[Utterance, int]]:
    """Each sentence of ``text`` with a lexicon form, as an utterance of the
    union of its forms' atoms, paired with the sentence's index.

    The document is taken one block at a time (``_blocks``). When
    ``_byte_scanner`` takes the lexicon's forms, ``_byte_hits`` splits the
    block's folded bytes and its patterns scan them; otherwise ``_str_hits``
    splits the block (``_split``) and the lexicon's ``_scanner`` scans each
    chunk. Both run in C, and Python visits only the sentences where the scan
    found a run: it looks up those runs, and keeps a sentence with a form.
    A sentence's index in its block is its index in the document, less the
    sentences of the blocks before, since a block but the last ends with an
    empty chunk. Each block carries its first sentence's index and its byte
    offset to the next."""
    entries = spec.lexicon.entries
    lookup = entries.get
    forms = frozenset(entries)
    scanner = _byte_scanner(forms)
    if scanner is None:  # a form outside ASCII, or one with a k
        hits_of, scanner = _str_hits, _scanner(forms).findall
    else:
        hits_of = _byte_hits
    result = []
    first = base = 0  # the block's first sentence index and byte offset
    for block in _blocks(text):
        hits, sentences, end = hits_of(block, base, scanner)
        for index, span, tokens in hits:
            found = None
            for token in tokens:
                atoms = lookup(token)
                if atoms:
                    found = atoms if found is None else found | atoms
            if found:
                result.append((Utterance(found, span), first + index))
        first += sentences
        base = end
    return result


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
            doc_end = _utf8_length(text)
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
    """The line and column of the character at ``byte_offset``. The byte
    offset is turned into a character offset one block at a time, and
    ``parsing._line_column`` counts the lines before it in ``text`` itself,
    so no prefix of the document is copied."""
    offset = 0  # the characters before byte_offset
    for block in _blocks(text):
        data = block.encode()
        if byte_offset <= len(data):
            offset += len(data[:byte_offset].decode("utf-8", errors="replace"))
            break
        byte_offset -= len(data)
        offset += len(block)
    return parsing._line_column(text, offset)


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
        lines.append(f"0\t{_utf8_length(text)}\t{report.verdict.status}\t-")
    return "\n".join(lines) + "\n"
