"""Whole-text matching of LIKE patterns.

Two independent implementations are kept side by side on purpose.
``match_greedy`` is the fast path: the pattern's tokens are cut at every
``%`` into ``%``-free parts P0 % P1 % ... % Pk, each of fixed length. P0
must fit at the start of the text and Pk at its end, and the parts between
go left to right, each at its earliest fit after the previous one. The
exchange argument for why the earliest placement never hurts: moving a
part further right only shrinks the room for the parts after it. The
argument needs no normal form: a ``_`` beside a ``%`` is one more fixed
position of its part, and an empty part (from a leading, trailing or
doubled ``%``) fits anywhere, so the cut reads the tokens as given.
``match_oracle`` is a direct dynamic program over (pattern position, text
position) reachability and serves as the reference the rest of the test
suite trusts.
"""

from __future__ import annotations

from typing import Iterable

from .pattern import ANY_STRING, AnyOne, AnyString, Literal, Pattern, Symbol, Token

Text = tuple[Symbol, ...]


def as_text(value: str | Iterable[Symbol]) -> Text:
    """Coerce to a symbol tuple; a plain string is one symbol per character."""
    return tuple(value)


def _fits(toks: tuple[Token, ...], t: Text, at: int) -> bool:
    """Whether a part, which holds no ``%``, matches the text at ``at``."""
    if at < 0 or at + len(toks) > len(t):
        return False
    for k, tok in enumerate(toks):
        if isinstance(tok, Literal) and tok.symbol != t[at + k]:
            return False
    return True


def _find(toks: tuple[Token, ...], t: Text, start: int) -> int | None:
    for at in range(start, len(t) - len(toks) + 1):
        if _fits(toks, t, at):
            return at
    return None


def match_greedy(p: Pattern, t: Text | str) -> bool:
    """Decide whether the whole text matches the pattern, in linear passes."""
    t = as_text(t)
    toks = p.tokens
    # Tokens are interned, so count and index find the % cuts in C.
    cuts = toks.count(ANY_STRING)
    if not cuts:
        # No %: every match has exactly the pattern's length.
        return len(toks) == len(t) and _fits(toks, t, 0)
    hi = toks.index(ANY_STRING)
    if not _fits(toks[:hi], t, 0):
        return False
    pos = hi
    for _ in range(cuts - 1):
        lo = hi + 1
        hi = toks.index(ANY_STRING, lo)
        at = _find(toks[lo:hi], t, pos)
        if at is None:
            return False
        pos = at + hi - lo
    # The last part may not overlap what the earlier parts used.
    tail = toks[hi + 1 :]
    start = len(t) - len(tail)
    return start >= pos and _fits(tail, t, start)


def match_oracle(p: Pattern, t: Text | str) -> bool:
    """Reference matcher: tabulated reachability, no shortcuts."""
    t = as_text(t)
    n = len(t)
    prev = [False] * (n + 1)
    prev[0] = True
    for tok in p.tokens:
        cur = [False] * (n + 1)
        if isinstance(tok, AnyString):
            seen = False
            for j in range(n + 1):
                if prev[j]:
                    seen = True
                if seen:
                    cur[j] = True
        elif isinstance(tok, AnyOne):
            for j in range(1, n + 1):
                if prev[j - 1]:
                    cur[j] = True
        else:
            sym = tok.symbol
            for j in range(1, n + 1):
                if prev[j - 1] and t[j - 1] == sym:
                    cur[j] = True
        prev = cur
    return prev[n]
