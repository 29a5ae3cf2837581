"""Whole-text matching of LIKE patterns.

Two independent implementations are kept side by side on purpose.
``match_greedy`` is the fast path: the pattern is cut at its ``%``
wildcards and the resulting fixed-length parts are placed left to right,
each at its earliest possible position. The exchange argument for why the
earliest placement never hurts: moving a part further right only shrinks
the room for the parts after it. ``match_oracle`` is a direct dynamic
program over (pattern position, text position) reachability and serves as
the reference the rest of the test suite trusts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .normalize import normalize
from .pattern import AnyOne, AnyString, Literal, Pattern, Symbol, Token

Text = tuple[Symbol, ...]


def as_text(value: str | Iterable[Symbol]) -> Text:
    """Coerce to a symbol tuple; a plain string is one symbol per character."""
    return tuple(value)


@dataclass(frozen=True)
class Segments:
    """A normalized pattern cut at its any-string wildcards.

    ``parts`` are the maximal wildcard-free factors (each free of ``%``,
    possibly containing ``_``). Absent anchors stand for a leading or
    trailing ``%``; both anchors with no parts is the empty pattern, no
    anchors with no parts is a lone ``%``.
    """

    parts: tuple[Pattern, ...]
    anchored_start: bool
    anchored_end: bool


def split_segments(p: Pattern) -> Segments:
    """Cut a pattern at ``%``; normalizes first so parts are never empty."""
    q = normalize(p)
    toks = q.tokens
    anchored_start = not (toks and isinstance(toks[0], AnyString))
    anchored_end = not (toks and isinstance(toks[-1], AnyString))
    parts: list[Pattern] = []
    run: list[Token] = []
    for tok in toks:
        if isinstance(tok, AnyString):
            if run:
                parts.append(Pattern(tuple(run)))
                run = []
        else:
            run.append(tok)
    if run:
        parts.append(Pattern(tuple(run)))
    return Segments(tuple(parts), anchored_start, anchored_end)


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
    seg = split_segments(p)
    parts = [part.tokens for part in seg.parts]
    if seg.anchored_start and seg.anchored_end and len(parts) <= 1:
        # No %: every match has exactly the pattern's length.
        toks = parts[0] if parts else ()
        return len(toks) == len(t) and _fits(toks, t, 0)
    pos = 0
    if seg.anchored_start and parts:
        first = parts[0]
        if not _fits(first, t, 0):
            return False
        pos = len(first)
        parts = parts[1:]
    tail: tuple[Token, ...] | None = None
    if seg.anchored_end and parts:
        tail = parts[-1]
        parts = parts[:-1]
    for part in parts:
        at = _find(part, t, pos)
        if at is None:
            return False
        pos = at + len(part)
    if tail is not None:
        # The suffix placement may not overlap what the earlier parts used.
        start = len(t) - len(tail)
        return start >= pos and _fits(tail, t, start)
    return True


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
