"""Concrete ASCII syntax for every formula family, plus sequents.

This is the only module that turns raw text into formulas. The token table is
pure ASCII (``&``, ``(+)``, ``*``, ``-o``, ``[]``, ``<>``, ``()``, ``[]<=k``,
``<><=k``, ``!``, ``/\\``, ``\\/``, ``->``, ``iota x.``, ``eps x.``); the usual
Unicode operator symbols are accepted on input but never emitted by render.
``#`` starts a comment running to end of line, so a one-formula spec file can
be fed to any parse function directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import freelogic, linear, temporal
from .atoms import PronounAtom


class ParseError(Exception):
    """Input rejected at a specific position. First error wins; no recovery."""

    def __init__(self, byte_offset, line, column, message, expected=()):
        self.byte_offset = byte_offset
        self.line = line
        self.column = column
        self.message = message
        self.expected = list(expected)
        detail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {column}: {message}{detail}")


class _TooDeep(ParseError):
    """Nesting past MAX_DEPTH. Free-logic backtracking must not retry it."""


# Deepest nesting of parentheses, unary operators, binders and right operands
# that the parser accepts. The recursive-descent parser and the recursive
# functions over formulas take a few stack frames per level, so this stays
# well below Python's default recursion limit of 1000 frames.
MAX_DEPTH = 100


@dataclass
class _Token:
    kind: str  # atom | ident | int | sym | kw | eof
    value: object
    start: int  # character offset into the source


_KEYWORDS = {"iota", "eps", "forall", "exists", "true", "false"}

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
}
_ALIAS_KEYWORDS = {"ι": "iota", "ε": "eps"}  # ι, ε

_SYMBOLS = [
    "[]<=", "<><=", "(+)", "()", "/\\", "\\/", "->", "-o", "|-", "[]", "<>",
    "&", "*", "(", ")", "!", "=", ",", ".",
]


def _position(text: str, offset: int) -> tuple[int, int, int]:
    prefix = text[:offset]
    byte_offset = len(prefix.encode("utf-8"))
    line = prefix.count("\n") + 1
    column = offset - (prefix.rfind("\n") + 1) + 1
    return byte_offset, line, column


def _error(text: str, offset: int, message: str, expected=()) -> ParseError:
    byte_offset, line, column = _position(text, offset)
    return ParseError(byte_offset, line, column, message, expected)


def _is_letter(ch: str) -> bool:
    return ch.isascii() and ch.isalpha()


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch in _ALIAS_KEYWORDS:
            tokens.append(_Token("kw", _ALIAS_KEYWORDS[ch], i))
            i += 1
            continue
        if ch in _ALIASES:
            tokens.append(_Token("sym", _ALIASES[ch], i))
            i += 1
            continue
        if _is_letter(ch):
            j = i
            while j < n and _is_letter(text[j]):
                j += 1
            word = text[i:j]
            if j < n and text[j] == "/" and j + 1 < n and _is_letter(text[j + 1]):
                k = j + 1
                while k < n and _is_letter(text[k]):
                    k += 1
                tokens.append(_Token("atom", PronounAtom(word, text[j + 1:k]), i))
                i = k
            elif word in _KEYWORDS:
                tokens.append(_Token("kw", word, i))
                i = j
            else:
                tokens.append(_Token("ident", word, i))
                i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, i))
                i += len(sym)
                break
        else:
            raise _error(text, i, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", None, n))
    return tokens


@dataclass
class _Cursor:
    text: str
    tokens: list[_Token]
    pos: int = 0
    pred_arities: dict[str, int] = field(default_factory=dict)
    depth: int = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value in symbols

    def take_sym(self, symbol: str) -> None:
        if not self.at_sym(symbol):
            raise self.error(f"expected {symbol!r}", expected=[repr(symbol)])
        self.advance()

    def nested(self, parse, *args):
        """``parse(self, *args)`` one nesting level deeper, or a positioned
        ParseError past MAX_DEPTH instead of a RecursionError."""
        if self.depth >= MAX_DEPTH:
            byte_offset, line, column = _position(self.text, self.peek().start)
            raise _TooDeep(byte_offset, line, column,
                           f"formula nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        result = parse(self, *args)
        self.depth -= 1
        return result

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input at {self._describe(tok)}")

    def error(self, message: str, expected=()) -> ParseError:
        return _error(self.text, self.peek().start, message, expected)

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(str(tok.value))


def _cursor(text: str) -> _Cursor:
    return _Cursor(text, _lex(text))


# --- linear formulas ---------------------------------------------------------

_LINEAR_PREC = {"*": 1, "&": 2, "(+)": 3, "-o": 4}
_LINEAR_NODE = {"*": linear.Tensor, "&": linear.With, "(+)": linear.Plus,
                "-o": linear.Lolli}


def parse_linear(text: str) -> linear.LinearFormula:
    cur = _cursor(text)
    formula = _linear_expr(cur, 1)
    cur.expect_eof()
    return formula


def _linear_expr(cur: _Cursor, min_prec: int) -> linear.LinearFormula:
    lhs = _linear_primary(cur)
    while True:
        tok = cur.peek()
        if tok.kind != "sym" or tok.value not in _LINEAR_PREC:
            return lhs
        prec = _LINEAR_PREC[tok.value]
        if prec < min_prec:
            return lhs
        cur.advance()
        rhs = cur.nested(_linear_expr, prec)  # same level recursion: right-associative
        lhs = _LINEAR_NODE[tok.value](lhs, rhs)


def _linear_primary(cur: _Cursor) -> linear.LinearFormula:
    tok = cur.peek()
    if tok.kind == "atom":
        cur.advance()
        return linear.Atom(tok.value)
    if cur.at_sym("("):
        cur.advance()
        inner = cur.nested(_linear_expr, 1)
        cur.take_sym(")")
        return inner
    raise cur.error("expected formula", expected=["atom", "'('"])


# --- sequents ---------------------------------------------------------------


def parse_sequent(text: str) -> linear.Sequent:
    cur = _cursor(text)
    context: list[linear.LinearFormula] = []
    if cur.at_sym("|-"):
        cur.advance()
    else:
        while True:
            context.append(_linear_expr(cur, 1))
            if cur.at_sym(","):
                cur.advance()
                continue
            if cur.at_sym("|-"):
                cur.advance()
                break
            raise cur.error("expected ',' or '|-'", expected=["','", "'|-'"])
    goal = _linear_expr(cur, 1)
    cur.expect_eof()
    return linear.Sequent(tuple(context), goal)


# --- temporal formulas --------------------------------------------------------

_TEMPORAL_PREC = {"->": 1, "\\/": 2, "/\\": 3}
_TEMPORAL_NODE = {"->": temporal.Implies, "\\/": temporal.Or, "/\\": temporal.And}


def parse_temporal(text: str) -> temporal.TemporalFormula:
    cur = _cursor(text)
    formula = _temporal_expr(cur, 1)
    cur.expect_eof()
    return formula


def _temporal_expr(cur: _Cursor, min_prec: int) -> temporal.TemporalFormula:
    lhs = _temporal_unary(cur)
    while True:
        tok = cur.peek()
        if tok.kind != "sym" or tok.value not in _TEMPORAL_PREC:
            return lhs
        prec = _TEMPORAL_PREC[tok.value]
        if prec < min_prec:
            return lhs
        cur.advance()
        rhs = cur.nested(_temporal_expr, prec)
        lhs = _TEMPORAL_NODE[tok.value](lhs, rhs)


def _temporal_unary(cur: _Cursor) -> temporal.TemporalFormula:
    tok = cur.peek()
    if tok.kind == "sym":
        if tok.value == "!":
            cur.advance()
            return temporal.Not(cur.nested(_temporal_unary))
        if tok.value == "[]":
            cur.advance()
            return temporal.Box(cur.nested(_temporal_unary))
        if tok.value == "<>":
            cur.advance()
            return temporal.Diamond(cur.nested(_temporal_unary))
        if tok.value == "()":
            cur.advance()
            return temporal.Next(cur.nested(_temporal_unary))
        if tok.value in ("[]<=", "<><="):
            cur.advance()
            k = _bound(cur)
            operand = cur.nested(_temporal_unary)
            return (temporal.BoxK if tok.value == "[]<=" else temporal.DiamondK)(
                k, operand
            )
        if tok.value == "(":
            cur.advance()
            inner = cur.nested(_temporal_expr, 1)
            cur.take_sym(")")
            return inner
    if tok.kind == "atom":
        cur.advance()
        return temporal.Atom(tok.value)
    if tok.kind == "kw" and tok.value in ("true", "false"):
        cur.advance()
        return temporal.TRUE if tok.value == "true" else temporal.FALSE
    raise cur.error("expected formula", expected=["atom", "modality", "'('"])


def _bound(cur: _Cursor) -> int:
    tok = cur.peek()
    if tok.kind != "int":
        raise cur.error("expected bound k", expected=["positive integer"])
    if tok.value < 1:
        raise cur.error(f"bounded modality requires k >= 1, got {tok.value}")
    cur.advance()
    return tok.value


# --- free-logic formulas and terms -------------------------------------------

_FREE_PREC = {"->": 1, "\\/": 2, "/\\": 3}
_FREE_NODE = {"->": freelogic.Implies, "\\/": freelogic.Or, "/\\": freelogic.And}


def parse_free(text: str) -> freelogic.FreeFormula:
    cur = _cursor(text)
    formula = _free_expr(cur, 1)
    cur.expect_eof()
    return formula


def parse_free_term(text: str) -> freelogic.FreeTerm:
    cur = _cursor(text)
    term = _free_term(cur)
    cur.expect_eof()
    return term


def _free_expr(cur: _Cursor, min_prec: int) -> freelogic.FreeFormula:
    lhs = _free_unary(cur)
    while True:
        tok = cur.peek()
        if tok.kind != "sym" or tok.value not in _FREE_PREC:
            return lhs
        prec = _FREE_PREC[tok.value]
        if prec < min_prec:
            return lhs
        cur.advance()
        rhs = cur.nested(_free_expr, prec)
        lhs = _FREE_NODE[tok.value](lhs, rhs)


def _free_unary(cur: _Cursor) -> freelogic.FreeFormula:
    tok = cur.peek()
    if cur.at_sym("!"):
        cur.advance()
        return freelogic.Not(cur.nested(_free_unary))
    if tok.kind == "kw" and tok.value in ("forall", "exists"):
        cur.advance()
        var = _binder_var(cur)
        body = cur.nested(_free_expr, 1)
        node = freelogic.Forall if tok.value == "forall" else freelogic.Exists
        return node(var, body)
    if cur.at_sym("("):
        # Could open a parenthesized formula or a parenthesized term on the
        # left of '='; try the formula reading first and backtrack.
        saved = cur.pos
        saved_arities = dict(cur.pred_arities)
        saved_depth = cur.depth
        try:
            cur.advance()
            inner = cur.nested(_free_expr, 1)
            cur.take_sym(")")
            return inner
        except _TooDeep:
            raise
        except ParseError:
            cur.pos = saved
            cur.pred_arities = saved_arities
            cur.depth = saved_depth
            return _free_equation(cur)
    if tok.kind == "ident":
        after = cur.tokens[cur.pos + 1]
        if after.kind == "sym" and after.value == "(":
            return _free_pred(cur)
        return _free_equation(cur)
    if tok.kind == "kw" and tok.value in ("iota", "eps"):
        return _free_equation(cur)
    raise cur.error(
        "expected formula",
        expected=["predicate", "term", "'!'", "quantifier", "'('"],
    )


def _free_pred(cur: _Cursor) -> freelogic.FreeFormula:
    name_tok = cur.advance()
    name = name_tok.value
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
            name_tok.start,
            f"predicate {name!r} used with arity {len(args)} but earlier with arity {known}",
        )
    cur.pred_arities[name] = len(args)
    return freelogic.Pred(name, tuple(args))


def _free_equation(cur: _Cursor) -> freelogic.FreeFormula:
    left = _free_term(cur)
    if not cur.at_sym("="):
        raise cur.error("expected '=' after term", expected=["'='"])
    cur.advance()
    right = _free_term(cur)
    return freelogic.Eq(left, right)


def _free_term(cur: _Cursor) -> freelogic.FreeTerm:
    tok = cur.peek()
    if tok.kind == "ident":
        cur.advance()
        return freelogic.Var(tok.value)
    if tok.kind == "kw" and tok.value in ("iota", "eps"):
        cur.advance()
        var = _binder_var(cur)
        body = cur.nested(_free_expr, 1)
        node = freelogic.Iota if tok.value == "iota" else freelogic.Epsilon
        return node(var, body)
    if cur.at_sym("("):
        cur.advance()
        inner = cur.nested(_free_term)
        cur.take_sym(")")
        return inner
    raise cur.error("expected term", expected=["variable", "'iota'", "'eps'", "'('"])


def _binder_var(cur: _Cursor) -> str:
    tok = cur.peek()
    if tok.kind != "ident":
        raise cur.error("expected bound variable name", expected=["identifier"])
    cur.advance()
    if not cur.at_sym("."):
        raise cur.error("expected '.' after bound variable", expected=["'.'"])
    cur.advance()
    return tok.value
