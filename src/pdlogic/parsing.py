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
the current one, so input is read only as far as the first error. The
parser's ``_Cursor`` holds the current token, ``tok``, and the generator,
``tokens``; the parse functions read and replace ``tok`` themselves, with no
method call per token. Operators are not listed here: each formula module
declares its binary connectives once in ``INFIX`` (``temporal.PREFIX`` holds
the modalities, ``freelogic.QUANTIFIERS``/``DESCRIPTIONS`` the binders), and
``notation.render`` reads the same tables. A prefix operator's operand is
read at ``notation.TIGHTEST``, the precedence the renderer gives every node
that is not a connective, so it takes no infix operator. One
precedence-climbing function, ``_expr``, parses every family from its
grammar tuple. It reads atoms, parentheses, prefix operators and binders in
its own frame; the depth is an argument, checked there against
``MAX_DEPTH``. Parentheses are counted, not recursed into, so a nesting
level costs at most one Python frame: a prefix operator's operand, a right
operand or a binder's body. A free-logic term (``_term``) takes one frame
per '(' around it, and one more where it holds a description.
``prover.proof_from_text`` reads linear formulas through a memo
(``_FormulaMemo``) that shares two kinds of text: whole piece texts, and
right operands that end a text, which ``_expr`` keeps as it parses. Nothing
is looked up in the middle of a parse.
"""

from __future__ import annotations

import re

from . import freelogic, linear, temporal
from .atoms import atom
from .notation import TIGHTEST


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
# that the parser accepts. The parser takes at most one stack frame per level
# (two for a description in a predicate's argument or an equation's right
# side), and the recursive functions over formulas a few, so this stays well
# below Python's default recursion limit of 1000 frames.
MAX_DEPTH = 100
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"


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


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The line and column of character ``offset``, counted in ``text`` itself,
    which is not copied. A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``,
    as a file read in text mode has it."""
    line = (text.count("\n", 0, offset) + text.count("\r", 0, offset)
            - text.count("\r\n", 0, offset) + 1)
    return line, offset - max(text.rfind("\n", 0, offset), text.rfind("\r", 0, offset))


def _position(text: str, offset: int) -> tuple[int, int, int]:
    """The byte offset, line and column of character ``offset``."""
    return (len(text[:offset].encode("utf-8")), *_line_column(text, offset))


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
    """The parser's place in ``text``: ``tok``, the current token, and
    ``tokens``, which lexes the ones after it. The parser moves on with
    ``cur.tok = next(cur.tokens)``, and only past a token it has seen is not
    eof."""

    __slots__ = ("text", "tok", "tokens", "pred_arities")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.tok = next(self.tokens)
        self.pred_arities: dict[str, int] = {}

    def error(self, message: str, expected=()) -> ParseError:
        return _error(self.text, self.tok[2], message, expected)


def _whole(text: str, parse, *args):
    """``parse(cursor, *args)`` over all of ``text``."""
    cur = _Cursor(text)
    result = parse(cur, *args)
    kind, value, _ = cur.tok
    if kind != "eof":
        raise cur.error(f"unexpected trailing input at {str(value)!r}")
    return result


def _parse_span(parse, text: str, start: int, end: int):
    """``parse(text[start:end])``, a formula or sequent within one line of a
    file. A ParseError names its place in ``text``: the line, the column within
    it and the byte offset, as ``_position`` counts them."""
    span = text[start:end]
    try:
        return parse(span)
    except ParseError as exc:
        offset = start + len(span.encode("utf-8")[:exc.byte_offset].decode("utf-8"))
        raise _error(text, offset, exc.message, exc.expected) from None


def _operators(infix: dict) -> dict[str, tuple[type, int]]:
    """A formula module's ``INFIX`` table keyed by symbol: (node type, precedence)."""
    return {symbol: (node, prec) for node, (symbol, prec) in infix.items()}


def _inverse(table: dict) -> dict:
    return {symbol: node for node, symbol in table.items()}


def _expr(cur: _Cursor, grammar, min_prec: int = 1, depth: int = 0):
    """A formula of ``grammar``, ``depth`` levels down, by precedence climbing
    over its operators of precedence ``min_prec`` or more. A grammar is
    (operators from ``_operators``, the node of an atom token or None in
    free logic, which reads terms instead, prefix operators by symbol,
    keywords: constants or binders, the ``expected`` list of a missing
    formula, a table of kept operands or None). The '(' that open the
    formula are counted, each one level down, and closed here; ``depth`` is
    checked against ``MAX_DEPTH`` on entry and at each '('. A right
    operand that runs to the end of the text is kept in the table: it has
    taken every operator after it, so parsed alone it is the same."""
    operators, atoms, prefixes, words, expected, kept = grammar
    opened = 0
    while True:
        if depth > MAX_DEPTH:
            raise cur.error(_TOO_DEEP)
        kind, value, start = cur.tok
        if kind != "sym" or value != "(":
            break
        cur.tok = next(cur.tokens)
        depth += 1
        opened += 1
    if kind == "atom" and atoms is not None:
        cur.tok = next(cur.tokens)
        lhs = atoms(value)
    elif kind == "sym" and value in prefixes:
        cur.tok = next(cur.tokens)
        bound = (_bound(cur),) if value.endswith("<=") else ()  # []<=k, <><=k
        lhs = prefixes[value](*bound, _expr(cur, grammar, TIGHTEST, depth + 1))
    elif kind == "kw" and value in words:
        if atoms is not None:  # true, false
            cur.tok = next(cur.tokens)
            lhs = words[value]
        else:  # a quantifier's formula, or a description's term
            lhs = words[value](_binding(cur), _expr(cur, grammar, 1, depth + 1))
    elif kind == "ident" and atoms is None:
        cur.tok = next(cur.tokens)
        if cur.tok[0] == "sym" and cur.tok[1] == "(":
            cur.tok = next(cur.tokens)
            args = [_term(cur, depth)]
            while cur.tok[0] == "sym" and cur.tok[1] == ",":
                cur.tok = next(cur.tokens)
                args.append(_term(cur, depth))
            lhs = _predicate(cur, value, start, args)
        else:
            lhs = freelogic.Var(value)
    else:
        raise cur.error("expected formula", expected=expected)
    while True:  # one pass per '(' still open, and one outside them
        if atoms is not None or not isinstance(lhs, freelogic.FreeTerm):
            floor = 0 if opened else min_prec
            while True:
                # Only a symbol's value can name an operator.
                operator = operators.get(cur.tok[1])
                if operator is None or operator[1] < floor:
                    break
                node, prec = operator
                cur.tok = tok = next(cur.tokens)
                rhs = _expr(cur, grammar, prec, depth + 1)  # same prec: right-associative
                if kept is not None and cur.tok[0] == "eof":
                    kept.setdefault(len(cur.text) - tok[2], []).append((cur.text, tok[2], rhs))
                lhs = node(lhs, rhs)
        elif cur.tok[0] == "sym" and cur.tok[1] == "=":
            cur.tok = next(cur.tokens)
            lhs = freelogic.Eq(lhs, _term(cur, depth))
            continue
        elif not opened:  # else a term, the left side of an equation, in '(' ')'
            raise cur.error("expected '=' after term", expected=["'='"])
        if not opened:
            return lhs
        _close(cur)
        opened -= 1
        depth -= 1


def _close(cur: _Cursor) -> None:
    kind, value, _ = cur.tok
    if kind != "sym" or value != ")":
        raise cur.error("expected ')'", expected=["')'"])
    cur.tok = next(cur.tokens)


# --- linear formulas and sequents ---------------------------------------------


def parse_linear(text: str) -> linear.LinearFormula:
    return _whole(text, _expr, _LINEAR)


_LINEAR = (_operators(linear.INFIX), linear.Atom, {}, {}, ["atom", "'('"], None)


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

    __slots__ = ("formulas", "unsliced", "grammar")

    def __init__(self):
        self.formulas: dict[str, linear.LinearFormula] = {}
        self.unsliced: dict[int, list[tuple[str, int, linear.LinearFormula]]] = {}
        self.grammar = _LINEAR[:-1] + (self.unsliced,)

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
                formula = _whole(text, _expr, self.grammar)
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
    if cur.tok[0] != "sym" or cur.tok[1] != "|-":
        while True:
            context.append(_expr(cur, _LINEAR))
            kind, value, _ = cur.tok
            if kind == "sym" and value == "|-":
                break
            if kind != "sym" or value != ",":
                raise cur.error("expected ',' or '|-'", expected=["','", "'|-'"])
            cur.tok = next(cur.tokens)
    cur.tok = next(cur.tokens)  # '|-'
    return linear.Sequent(tuple(context), _expr(cur, _LINEAR))


# --- temporal formulas --------------------------------------------------------


def parse_temporal(text: str) -> temporal.TemporalFormula:
    return _whole(text, _expr, _TEMPORAL)


_TEMPORAL = (_operators(temporal.INFIX), temporal.Atom, _inverse(temporal.PREFIX),
             {"true": temporal.TRUE, "false": temporal.FALSE},
             ["atom", "modality", "'('"], None)


def _bound(cur: _Cursor) -> int:
    kind, value, _ = cur.tok
    if kind != "int":
        raise cur.error("expected bound k", expected=["positive integer"])
    if value < 1:
        raise cur.error(f"bounded modality requires k >= 1, got {value}")
    cur.tok = next(cur.tokens)
    return value


# --- free-logic formulas and terms -------------------------------------------


def parse_free(text: str) -> freelogic.FreeFormula:
    return _whole(text, _expr, _FREE)


def parse_free_term(text: str) -> freelogic.FreeTerm:
    return _whole(text, _term, 0)


_DESCRIPTIONS = _inverse(freelogic.DESCRIPTIONS)
_FREE = (_operators(freelogic.INFIX), None, {"!": freelogic.Not},
         {**_inverse(freelogic.QUANTIFIERS), **_DESCRIPTIONS},
         ["predicate", "term", "'!'", "quantifier", "'('"], None)


def _term(cur: _Cursor, depth: int) -> freelogic.FreeTerm:
    """A term ``depth`` levels down; a '(' around it is one level more."""
    if depth > MAX_DEPTH:
        raise cur.error(_TOO_DEEP)
    kind, value, _ = cur.tok
    if kind == "ident":
        cur.tok = next(cur.tokens)
        return freelogic.Var(value)
    if kind == "kw" and value in _DESCRIPTIONS:
        return _DESCRIPTIONS[value](_binding(cur), _expr(cur, _FREE, 1, depth + 1))
    if kind == "sym" and value == "(":
        cur.tok = next(cur.tokens)
        term = _term(cur, depth + 1)
        _close(cur)
        return term
    raise cur.error("expected term", expected=["variable", "'iota'", "'eps'", "'('"])


def _predicate(cur: _Cursor, name: str, start: int, args: list) -> freelogic.FreeFormula:
    """``name(args)``, its ')' next, if ``name`` keeps its arity in ``cur``."""
    _close(cur)
    known = cur.pred_arities.setdefault(name, len(args))
    if known != len(args):
        message = f"predicate {name!r} used with arity {len(args)} but earlier with arity {known}"
        raise _error(cur.text, start, message)
    return freelogic.Pred(name, tuple(args))


def _binding(cur: _Cursor) -> str:
    """The variable after a binder keyword, read up to its '.'. The body,
    one level down, is next."""
    cur.tok = next(cur.tokens)  # the keyword
    kind, var, _ = cur.tok
    if kind != "ident":
        raise cur.error("expected bound variable name", expected=["identifier"])
    cur.tok = next(cur.tokens)
    kind, value, _ = cur.tok
    if kind != "sym" or value != ".":
        raise cur.error("expected '.' after bound variable", expected=["'.'"])
    cur.tok = next(cur.tokens)
    return var
