"""Concrete ASCII syntax for every formula family, plus sequents.

This is the only module that turns raw text into formulas. The token table is
pure ASCII (``&``, ``(+)``, ``*``, ``-o``, ``[]``, ``<>``, ``()``, ``[]<=k``,
``<><=k``, ``!``, ``/\\``, ``\\/``, ``->``, ``iota x.``, ``eps x.``); the usual
Unicode operator symbols are accepted on input but never emitted by render.
``#`` starts a comment running to end of line, so a one-formula spec file can
be fed to any parse function directly. A line ends at ``\\n``, ``\\r\\n`` or a
lone ``\\r``.

The lexer is one regular expression built from ``_SYMBOLS`` and ``_ALIASES``,
run as a generator: the parser pulls the next token only when it moves past
the current one, so input is read only as far as the first error.
Operators are not listed here: each formula module declares its binary
connectives once in ``INFIX`` (``temporal.PREFIX`` holds the modalities,
``freelogic.QUANTIFIERS``/``DESCRIPTIONS`` the binders), and the renderers
read the same tables. One precedence-climbing loop, ``_expr``, parses the
binary connectives of every family. ``prover.proof_from_text`` reads linear
formulas through a memo (``_FormulaMemo``) that shares two kinds of text:
whole piece texts, and right operands that end a text, which ``_expr`` keeps
as it parses. Nothing is looked up in the middle of a parse.
"""

from __future__ import annotations

import re

from . import freelogic, linear, temporal
from .atoms import atom


class ParseError(Exception):
    """Input rejected at a specific position: the first error in reading
    order, lexical or grammatical. No recovery; nothing after it is read."""

    def __init__(self, byte_offset, line, column, message, expected=()):
        self.byte_offset = byte_offset
        self.line = line
        self.column = column
        self.message = message
        self.expected = list(expected)
        detail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {column}: {message}{detail}")


# Deepest nesting of parentheses, unary operators, binders and right operands
# that the parser accepts. The recursive-descent parser and the recursive
# functions over formulas take a few stack frames per level, so this stays
# well below Python's default recursion limit of 1000 frames.
MAX_DEPTH = 100


_KEYWORDS = {"iota", "eps", "forall", "exists", "true", "false"}

# Unicode spellings accepted on input, each standing for one ASCII token.
_ALIASES = {
    "⊕": "(+)",   # ⊕
    "⊗": "*",     # ⊗
    "⊸": "-o",    # ⊸
    "□": "[]",    # □
    "◇": "<>",    # ◇
    "○": "()",    # ○
    "¬": "!",     # ¬
    "∧": "/\\",   # ∧
    "∨": "\\/",   # ∨
    "→": "->",    # →
    "ι": "iota",  # ι
    "ε": "eps",   # ε
}

# Longest first where one symbol is a prefix of another.
_SYMBOLS = [
    "[]<=", "<><=", "(+)", "()", "/\\", "\\/", "->", "-o", "|-", "[]", "<>",
    "&", "*", "(", ")", "!", "=", ",", ".",
]

# One alternative per token kind, tried in order after any whitespace; "bad"
# catches any other character, and "skip" a comment or whitespace at the end.
# Letters and digits are ASCII only.
_TOKEN = re.compile(r"\s*(?:" + "|".join([
    r"(?P<atom>[A-Za-z]+/[A-Za-z]+)",
    r"(?P<word>[A-Za-z]+)",
    r"(?P<int>[0-9]+)",
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    "(?P<alias>[" + "".join(_ALIASES) + "])",
    r"(?P<skip>\s+|#[^\r\n]*)",
    r"(?P<bad>(?s:.))",
]) + ")")


def _position(text: str, offset: int) -> tuple[int, int, int]:
    """The byte offset, line and column of character ``offset``. A line ends at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, as a file read in text mode has it."""
    prefix = text[:offset]
    byte_offset = len(prefix.encode("utf-8"))
    line = prefix.count("\n") + prefix.count("\r") - prefix.count("\r\n") + 1
    column = offset - max(prefix.rfind("\n"), prefix.rfind("\r"))
    return byte_offset, line, column


def _error(text: str, offset: int, message: str, expected=()) -> ParseError:
    byte_offset, line, column = _position(text, offset)
    return ParseError(byte_offset, line, column, message, expected)


def _lex(text: str):
    """The tokens of ``text`` as ``(kind, value, start)`` tuples, lexed one at
    a time as the parser asks for them and ending with the eof token. ``kind``
    is atom, ident, int, sym, kw or eof; ``start`` is a character offset."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, start = m[kind], m.start(kind)
        if kind == "atom":  # the commonest kinds first
            value = atom(value)
        elif kind == "sym":
            pass
        elif kind == "skip":
            continue
        elif kind == "word":
            kind = "kw" if value in _KEYWORDS else "ident"
        elif kind == "alias":
            value = _ALIASES[value]
            kind = "kw" if value in _KEYWORDS else "sym"
        elif kind == "int":
            try:
                value = int(value)
            except ValueError:  # Python converts at most 4300 digits
                message = f"number of {len(value)} digits is too long"
                raise _error(text, start, message) from None
        else:
            raise _error(text, start, f"unexpected character {value!r}")
        yield kind, value, start
    yield "eof", None, len(text)


class _Cursor:
    """The parser's place in ``text``: ``tok``, the current token. Tokens are
    lexed only as the parser reaches them."""

    __slots__ = ("text", "tok", "_next", "pred_arities", "depth", "memo")

    def __init__(self, text: str, memo: _FormulaMemo | None = None):
        self.text = text
        self._next = _lex(text).__next__
        self.tok = self._next()
        self.pred_arities: dict[str, int] = {}
        self.depth = 0
        self.memo = memo  # keeps the right operands that end the text

    def advance(self) -> tuple:
        """The current token; the next one becomes current. Eof stays current."""
        tok = self.tok
        if tok[0] != "eof":
            self.tok = self._next()
        return tok

    def at_sym(self, *symbols: str) -> bool:
        kind, value, _ = self.tok
        return kind == "sym" and value in symbols

    def take_sym(self, symbol: str) -> None:
        if not self.at_sym(symbol):
            raise self.error(f"expected {symbol!r}", expected=[repr(symbol)])
        self.advance()

    def nested(self, parse, *args):
        """``parse(self, *args)`` one nesting level deeper, or a positioned
        ParseError past MAX_DEPTH instead of a RecursionError."""
        if self.depth >= MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        result = parse(self, *args)
        self.depth -= 1
        return result

    def expect_eof(self) -> None:
        kind, value, _ = self.tok
        if kind != "eof":
            raise self.error(f"unexpected trailing input at {str(value)!r}")

    def error(self, message: str, expected=()) -> ParseError:
        return _error(self.text, self.tok[2], message, expected)


def _whole(text: str, parse, *args):
    """``parse(cursor, *args)`` over all of ``text``."""
    cur = _Cursor(text)
    result = parse(cur, *args)
    cur.expect_eof()
    return result


def _parse_span(parse, text: str, start: int, end: int):
    """``parse(text[start:end])``, a formula or sequent within one line of a
    file. A ParseError names its place in ``text``: the line, numbered as
    ``str.splitlines`` numbers them, the column within it and the byte offset."""
    span = text[start:end]
    try:
        return parse(span)
    except ParseError as exc:
        prefix = text[:start] + span.encode("utf-8")[:exc.byte_offset].decode("utf-8")
        lines = (prefix + "|").splitlines()  # the error starts the last line
        raise ParseError(len(prefix.encode("utf-8")), len(lines), len(lines[-1]),
                         exc.message, exc.expected) from None


def _operators(infix: dict) -> dict[str, tuple[type, int]]:
    """A formula module's ``INFIX`` table keyed by symbol: (node type, precedence)."""
    return {symbol: (node, prec) for node, (symbol, prec) in infix.items()}


def _inverse(table: dict) -> dict:
    return {symbol: node for node, symbol in table.items()}


def _expr(cur: _Cursor, family, min_prec: int = 1, lhs=None):
    """Precedence climbing over one formula family, a pair (operators from
    ``_operators``, operand parser). ``lhs`` is the first operand if it is
    already parsed. With ``cur.memo``, a right operand that runs to the end of
    the text is kept there: it has taken every operator after it, so parsed
    alone it is the same formula."""
    operators, operand = family
    if lhs is None:
        lhs = operand(cur)
    while True:
        kind, value, _ = cur.tok
        if kind != "sym" or value not in operators:
            return lhs
        node, prec = operators[value]
        if prec < min_prec:
            return lhs
        cur.advance()
        start = cur.tok[2]
        rhs = cur.nested(_expr, family, prec)  # same level recursion: right-associative
        if cur.memo is not None and cur.tok[0] == "eof":
            kept = cur.memo.unsliced.setdefault(len(cur.text) - start, [])
            kept.append((cur.text, start, rhs))
        lhs = node(lhs, rhs)


def _parenthesized(cur: _Cursor, parse, *args):
    cur.advance()  # '('
    inner = cur.nested(parse, *args)
    cur.take_sym(")")
    return inner


# --- linear formulas and sequents ---------------------------------------------


def parse_linear(text: str) -> linear.LinearFormula:
    return _whole(text, _expr, _LINEAR)


def _linear_primary(cur: _Cursor) -> linear.LinearFormula:
    kind, value, _ = cur.tok
    if kind == "atom":
        cur.advance()
        return linear.Atom(value)
    if cur.at_sym("("):
        return _parenthesized(cur, _expr, _LINEAR)
    raise cur.error("expected formula", expected=["atom", "'('"])


_LINEAR = (_operators(linear.INFIX), _linear_primary)


class _FormulaMemo:
    """The linear formulas read so far, for reading many sequents that repeat
    their formulas (``prover.proof_from_text``). Two kinds of text are
    shared, and nothing is looked up in the middle of a parse: ``formulas``
    maps each whole text read (without comments or surrounding whitespace)
    to its formula, and ``_expr`` keeps each right operand that runs to the
    end of its text in ``unsliced``, by length, as that text and the
    operand's start. Operands are sliced off and hashed only when a text as
    long is looked up, so a long text pays nothing for its operands unless a
    later text can be one of them."""

    __slots__ = ("formulas", "unsliced")

    def __init__(self):
        self.formulas: dict[str, linear.LinearFormula] = {}
        self.unsliced: dict[int, list[tuple[str, int, linear.LinearFormula]]] = {}

    def formula(self, text: str) -> linear.LinearFormula:
        """``parse_linear(text)``, each distinct text parsed once: equal texts
        give one object, and so does a text equal to a right operand that
        ended an earlier text."""
        formula = self.formulas.get(text)
        if formula is None:
            for whole, start, operand in self.unsliced.pop(len(text), ()):
                self.formulas.setdefault(whole[start:], operand)
            formula = self.formulas.get(text)
            if formula is None:
                cur = _Cursor(text, self)
                formula = _expr(cur, _LINEAR)
                cur.expect_eof()
                self.formulas[text] = formula
        return formula

    def sequent(self, text: str) -> linear.Sequent | None:
        """``parse_sequent(text)`` with each formula read by ``formula``. The
        text is split at its first '|-' and at each ',', neither of which
        occurs within a linear formula. None if the text holds a comment or a
        piece does not parse: ``parse_sequent`` alone says where errors are."""
        if "#" in text:
            return None
        head, turnstile, goal = text.partition("|-")
        if not turnstile:
            return None
        try:
            context = tuple(self.formula(piece.strip())
                            for piece in head.split(",")) if head.strip() else ()
            return linear.Sequent(context, self.formula(goal.strip()))
        except ParseError:
            return None


def parse_sequent(text: str) -> linear.Sequent:
    return _whole(text, _sequent)


def _sequent(cur: _Cursor) -> linear.Sequent:
    context: list[linear.LinearFormula] = []
    if cur.at_sym("|-"):
        cur.advance()
    else:
        while True:
            context.append(_expr(cur, _LINEAR))
            if cur.at_sym(","):
                cur.advance()
                continue
            if cur.at_sym("|-"):
                cur.advance()
                break
            raise cur.error("expected ',' or '|-'", expected=["','", "'|-'"])
    return linear.Sequent(tuple(context), _expr(cur, _LINEAR))


# --- temporal formulas --------------------------------------------------------


def parse_temporal(text: str) -> temporal.TemporalFormula:
    return _whole(text, _expr, _TEMPORAL)


def _temporal_unary(cur: _Cursor) -> temporal.TemporalFormula:
    kind, value, _ = cur.tok
    if kind == "sym" and value in _PREFIX:
        cur.advance()
        bound = (_bound(cur),) if value.endswith("<=") else ()  # []<=k, <><=k
        return _PREFIX[value](*bound, cur.nested(_temporal_unary))
    if cur.at_sym("("):
        return _parenthesized(cur, _expr, _TEMPORAL)
    if kind == "atom":
        cur.advance()
        return temporal.Atom(value)
    if kind == "kw" and value in ("true", "false"):
        cur.advance()
        return temporal.TRUE if value == "true" else temporal.FALSE
    raise cur.error("expected formula", expected=["atom", "modality", "'('"])


_PREFIX = _inverse(temporal.PREFIX)
_TEMPORAL = (_operators(temporal.INFIX), _temporal_unary)


def _bound(cur: _Cursor) -> int:
    kind, value, _ = cur.tok
    if kind != "int":
        raise cur.error("expected bound k", expected=["positive integer"])
    if value < 1:
        raise cur.error(f"bounded modality requires k >= 1, got {value}")
    cur.advance()
    return value


# --- free-logic formulas and terms -------------------------------------------


def parse_free(text: str) -> freelogic.FreeFormula:
    return _whole(text, _expr, _FREE)


def parse_free_term(text: str) -> freelogic.FreeTerm:
    return _whole(text, _free_term)


def _free_unary(cur: _Cursor, term_ok: bool = False):
    """A formula with no infix operator on top. With ``term_ok``, a term that
    no '=' follows is returned as it is: inside a '(' it may be the
    parenthesized left side of an equation."""
    kind, value, start = cur.tok
    if cur.at_sym("!"):
        cur.advance()
        return freelogic.Not(cur.nested(_free_unary))
    if kind == "kw" and value in _QUANTIFIERS:
        return _binder(cur, _QUANTIFIERS)
    if cur.at_sym("("):
        left = _parenthesized(cur, _free_group)
        if isinstance(left, freelogic.FreeFormula):
            return left
    elif kind == "ident":
        cur.advance()
        if cur.at_sym("("):
            return _free_pred(cur, value, start)
        left = freelogic.Var(value)
    elif kind == "kw" and value in _DESCRIPTIONS:
        left = _binder(cur, _DESCRIPTIONS)
    else:
        raise cur.error(
            "expected formula",
            expected=["predicate", "term", "'!'", "quantifier", "'('"],
        )
    if term_ok and not cur.at_sym("="):
        return left
    return _free_equation(cur, left)


def _free_group(cur: _Cursor):
    """What a '(' in place of a formula encloses: a formula, or a term."""
    first = _free_unary(cur, term_ok=True)
    if isinstance(first, freelogic.FreeTerm):
        return first
    return _expr(cur, _FREE, lhs=first)


_QUANTIFIERS = _inverse(freelogic.QUANTIFIERS)
_DESCRIPTIONS = _inverse(freelogic.DESCRIPTIONS)
_FREE = (_operators(freelogic.INFIX), _free_unary)


def _free_pred(cur: _Cursor, name: str, start: int) -> freelogic.FreeFormula:
    cur.take_sym("(")
    args = [_free_term(cur)]
    while cur.at_sym(","):
        cur.advance()
        args.append(_free_term(cur))
    cur.take_sym(")")
    known = cur.pred_arities.get(name)
    if known is not None and known != len(args):
        raise _error(
            cur.text,
            start,
            f"predicate {name!r} used with arity {len(args)} but earlier with arity {known}",
        )
    cur.pred_arities[name] = len(args)
    return freelogic.Pred(name, tuple(args))


def _free_equation(cur: _Cursor, left: freelogic.FreeTerm) -> freelogic.FreeFormula:
    if not cur.at_sym("="):
        raise cur.error("expected '=' after term", expected=["'='"])
    cur.advance()
    right = _free_term(cur)
    return freelogic.Eq(left, right)


def _free_term(cur: _Cursor) -> freelogic.FreeTerm:
    kind, value, _ = cur.tok
    if kind == "ident":
        cur.advance()
        return freelogic.Var(value)
    if kind == "kw" and value in _DESCRIPTIONS:
        return _binder(cur, _DESCRIPTIONS)
    if cur.at_sym("("):
        return _parenthesized(cur, _free_term)
    raise cur.error("expected term", expected=["variable", "'iota'", "'eps'", "'('"])


def _binder(cur: _Cursor, binders: dict):
    """A keyword of ``binders``, its bound variable, '.', and the body."""
    node = binders[cur.advance()[1]]
    kind, var, _ = cur.tok
    if kind != "ident":
        raise cur.error("expected bound variable name", expected=["identifier"])
    cur.advance()
    if not cur.at_sym("."):
        raise cur.error("expected '.' after bound variable", expected=["'.'"])
    cur.advance()
    return node(var, cur.nested(_expr, _FREE))
