"""Wildcard-run normalization.

A pattern is normalized when no ``%`` is immediately followed by ``%`` or
``_``. Any maximal run of wildcards is equivalent to all its ``_`` tokens
first and a single trailing ``%`` when the run contained one, so one pass
that copies the slices between runs and rewrites each run from its first
``%`` produces the normal form. Normalization preserves the matched
language and never grows the token count.
"""

from __future__ import annotations

from .pattern import ANY_ONE, ANY_STRING, Pattern, Token


def is_normalized(p: Pattern) -> bool:
    toks = p.tokens
    n = len(toks)
    i = 0
    # Tokens are interned, so index and count find the % positions by
    # identity without leaving C; only their successors are inspected.
    for _ in range(toks.count(ANY_STRING)):
        i = toks.index(ANY_STRING, i) + 1
        if i < n and (toks[i] is ANY_STRING or toks[i] is ANY_ONE):
            return False
    return True


def normalize(p: Pattern) -> Pattern:
    """The normal form of ``p``; an already normalized ``p`` is returned as is."""
    if is_normalized(p):
        return p
    toks = p.tokens
    n = len(toks)
    out: list[Token] = []
    lo = 0
    stars = toks.count(ANY_STRING)
    # Each wildcard run from its first %: the _ before that % are already
    # in place, and the rest of the run becomes its _ count and one %.
    while stars:
        at = toks.index(ANY_STRING, lo)
        hi = at + 1
        while hi < n and (toks[hi] is ANY_ONE or toks[hi] is ANY_STRING):
            hi += 1
        run = toks[at:hi]
        ones = run.count(ANY_ONE)
        stars -= len(run) - ones
        out += toks[lo:at]
        out += [ANY_ONE] * ones
        out.append(ANY_STRING)
        lo = hi
    out += toks[lo:]
    return Pattern(tuple(out))
