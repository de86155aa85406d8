"""The one renderer of the three formula families, and the line ends of the
input files.

Each formula module declares its syntax once, in tables that the parser reads
too: ``INFIX = {node type: (symbol, precedence)}``, larger numbers binding
tighter, and its prefix symbols and binder keywords by node type. ``render``
writes a node of any family from those tables and a text function per leaf
class, with the fewest parentheses that read back as the same tree:

- Every binary connective is right-associative, so ``a op b op c`` is ``a op
  (b op c)``: a left operand is parenthesized when it binds no tighter than
  its parent, a right operand only when it binds strictly looser.
- A binder binds loosest, as its body runs as far right as it can.
- Every node that is not a connective binds ``TIGHTEST``, tighter than any
  connective, and so must a prefix operator's operand and an argument.
- ``!`` hugs its operand; a modality, with its bound, stands apart.
"""

from __future__ import annotations

TIGHTEST = 99  # the precedence of a leaf, a prefix operator or an argument


def render(node, syntax: tuple, memo: dict | None = None) -> str:
    """``node`` as text, from ``syntax``: (``INFIX``, prefix symbols, binder
    keywords, leaf texts, the noun of the TypeError for any other node, the
    syntax of a binder's body or None for ``syntax`` itself). With ``memo``,
    each node object is rendered once: its text is kept under ``id(node)``,
    so the caller keeps every node alive as long as the memo."""
    if memo is not None:
        text = memo.get(id(node))
        if text is not None:
            return text
    infix, prefix, binders, leaves, noun, body = syntax
    cls = type(node)
    if cls in leaves:
        text = leaves[cls](node)
    elif cls in infix:
        symbol, prec = infix[cls]
        left, right = cls.__match_args__
        text = (f"{wrap(getattr(node, left), syntax, prec + 1, memo)} {symbol} "
                f"{wrap(getattr(node, right), syntax, prec, memo)}")
    elif cls in prefix:
        head = prefix[cls] + str(getattr(node, "k", ""))
        if head != "!":
            head += " "
        text = head + wrap(node.operand, syntax, TIGHTEST, memo)
    elif cls in binders:
        text = f"{binders[cls]} {node.var}. {render(node.body, body or syntax, memo)}"
    else:
        raise TypeError(f"not a {noun}: {node!r}")
    if memo is not None:
        memo[id(node)] = text
    return text


def wrap(node, syntax: tuple, min_prec: int, memo: dict | None = None) -> str:
    """``render(node, syntax, memo)``, parenthesized when ``node`` binds looser
    than ``min_prec``: a connective at its precedence, a binder at 0."""
    text = render(node, syntax, memo)
    op = syntax[0].get(type(node))
    prec = op[1] if op else 0 if type(node) in syntax[2] else TIGHTEST
    return f"({text})" if prec < min_prec else text


def _lines(text: str) -> list[str]:
    """The lines of a trace, model, lexicon or spec file or of proof text. A
    line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, not at the other ends
    of ``str.splitlines``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _line_starts(text: str):
    """Each line of ``_lines(text)`` with the offset in ``text`` at which it
    starts: the next starts past its line end, of 2 characters for ``\\r\\n``
    and 1 for the others."""
    start = 0
    for line in _lines(text):
        yield line, start
        start += len(line)
        start += 2 if text.startswith("\r\n", start) else 1
