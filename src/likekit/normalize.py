"""Wildcard-run normalization.

A pattern is normalized when no ``%`` is immediately followed by ``%`` or
``_``. Any maximal run of wildcards is equivalent to all its ``_`` tokens
first and a single trailing ``%`` when the run contained one, so a single
left-to-right pass produces the normal form. Normalization preserves the
matched language and never grows the token count.
"""

from __future__ import annotations

from .pattern import ANY_ONE, ANY_STRING, AnyOne, AnyString, Pattern, Token


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
    out: list[Token] = []
    ones = 0
    star = False

    def flush() -> None:
        nonlocal ones, star
        out.extend([ANY_ONE] * ones)
        if star:
            out.append(ANY_STRING)
        ones = 0
        star = False

    for tok in p.tokens:
        if isinstance(tok, AnyOne):
            ones += 1
        elif isinstance(tok, AnyString):
            star = True
        else:
            flush()
            out.append(tok)
    flush()
    return Pattern(tuple(out))
