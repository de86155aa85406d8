"""The one parenthesization rule of the three formula renderers.

Each formula module declares its binary connectives once, as ``INFIX = {node
type: (symbol, precedence)}`` with larger numbers binding tighter; the parser
reads the same tables. Every binary connective is right-associative, so ``a op
b op c`` is ``a op (b op c)``: a left operand is parenthesized when it binds no
tighter than its parent, a right operand (and the operand of a prefix
operator) only when it binds strictly looser.
"""

from __future__ import annotations


def operand(child, min_prec: int, render, prec) -> str:
    """``render(child)``, parenthesized when ``prec(child) < min_prec``."""
    text = render(child)
    return text if prec(child) >= min_prec else f"({text})"


def infix(op: tuple[str, int], left, right, render, prec) -> str:
    symbol, p = op
    return f"{operand(left, p + 1, render, prec)} {symbol} {operand(right, p, render, prec)}"
