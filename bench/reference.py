"""Independent oracles for the benchmark's output checks.

Nothing here imports likekit, and nothing here is timed. Patterns are
tuples of symbols in which the strings ``"%"`` and ``"_"`` stand for the
two wildcards (the generators never use those characters as literal
symbols). Expressions are nested tuples:

    ("atom", pattern) | ("not", e) | ("and", (e, ...)) | ("or", (e, ...))
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

ANY = "%"
ONE = "_"


# --- matching -----------------------------------------------------------------


def text_masks(text: Sequence[str]) -> tuple[dict[str, int], int]:
    """Per-symbol bitmasks over text positions 1..n, and the all-positions mask."""
    n = len(text)
    masks: dict[str, int] = {}
    for sym in set(text):
        bits = "".join("1" if s == sym else "0" for s in reversed(text))
        masks[sym] = int(bits, 2) << 1
    return masks, (1 << (n + 1)) - 1


def dp_match(pattern: Sequence[str], text: Sequence[str], prepared=None) -> bool:
    """Tabulated reachability, one pattern token per row: bit j of ``reach``
    says the pattern prefix read so far can consume the first j symbols.
    A row is a Python integer, so a 100k-symbol text costs one pass of big
    integer operations per pattern token."""
    masks, full = prepared if prepared is not None else text_masks(text)
    reach = 1
    for tok in pattern:
        if not reach:
            return False
        if tok == ANY:
            low = reach & -reach
            reach = full & ~(low - 1)
        elif tok == ONE:
            reach = (reach << 1) & full
        else:
            reach = (reach << 1) & masks.get(tok, 0)
    return bool(reach >> len(text) & 1)


def normal_form(pattern: Sequence[str]) -> tuple[str, ...]:
    """Each maximal wildcard run becomes its ``_`` tokens, then one ``%`` if it had any."""
    out: list[str] = []
    run_one = 0
    run_any = False
    for tok in tuple(pattern) + (None,):
        if tok == ONE:
            run_one += 1
        elif tok == ANY:
            run_any = True
        else:
            out.extend([ONE] * run_one)
            if run_any:
                out.append(ANY)
            run_one, run_any = 0, False
            if tok is not None:
                out.append(tok)
    return tuple(out)


# --- expressions ----------------------------------------------------------------


def atoms(e) -> Iterable[tuple[str, ...]]:
    kind = e[0]
    if kind == "atom":
        yield e[1]
    elif kind == "not":
        yield from atoms(e[1])
    else:
        for c in e[1]:
            yield from atoms(c)


def evaluate(e, truth: dict) -> bool:
    """Value of ``e`` given each atom pattern's match result in ``truth``."""
    kind = e[0]
    if kind == "atom":
        return truth[e[1]]
    if kind == "not":
        return not evaluate(e[1], truth)
    if kind == "and":
        return all(evaluate(c, truth) for c in e[1])
    return any(evaluate(c, truth) for c in e[1])


def eval_on_text(e, text: Sequence[str]) -> bool:
    prepared = text_masks(text)
    truth = {p: dp_match(p, text, prepared) for p in set(atoms(e))}
    return evaluate(e, truth)


def source(e) -> str:
    """Surface syntax accepted by ``likekit.parse_expression``."""
    kind = e[0]
    if kind == "atom":
        return 'LIKE "' + "".join(e[1]) + '"'
    if kind == "not":
        return "NOT " + source(e[1])
    word = " AND " if kind == "and" else " OR "
    return "(" + word.join(source(c) for c in e[1]) + ")"


# --- bounded enumeration --------------------------------------------------------


class _Column:
    """DP column of one pattern, advanced one text symbol at a time: bit i
    set means the first i tokens can consume the text read so far."""

    def __init__(self, pattern: tuple[str, ...]) -> None:
        self.pattern = pattern
        self.accept = 1 << len(pattern)
        self.start = self._close(1)

    def _close(self, col: int) -> int:
        for i, tok in enumerate(self.pattern):
            if tok == ANY and col >> i & 1:
                col |= 1 << (i + 1)
        return col

    def advance(self, col: int, sym: str) -> int:
        out = 0
        for i, tok in enumerate(self.pattern):
            if col >> i & 1:
                if tok == ANY:
                    out |= 1 << i
                elif tok == ONE or tok == sym:
                    out |= 1 << (i + 1)
        return self._close(out)


def first_text(exprs: Sequence, symbols: Sequence[str], max_len: int, accept) -> tuple[str, ...] | None:
    """The first text in shortest-then-alphabet order, up to ``max_len``
    symbols, on which ``accept(values)`` holds, where ``values`` are the
    expressions' truth values on that text."""
    pats = sorted({p for e in exprs for p in atoms(e)})
    cols = [_Column(p) for p in pats]
    level = [((), tuple(c.start for c in cols))]
    for depth in range(max_len + 1):
        for text, state in level:
            truth = {p: bool(s & c.accept) for p, s, c in zip(pats, state, cols)}
            if accept([evaluate(e, truth) for e in exprs]):
                return text
        if depth == max_len:
            break
        level = [
            (text + (sym,), tuple(c.advance(s, sym) for c, s in zip(cols, state)))
            for text, state in level
            for sym in symbols
        ]
    return None


def shortest_witness(e, symbols, max_len):
    return first_text([e], symbols, max_len, lambda v: v[0])


def shortest_separator(e1, e2, symbols, max_len):
    return first_text([e1, e2], symbols, max_len, lambda v: v[0] != v[1])


def dnf_size(e, n_symbols: int, positive: bool = True) -> tuple[int, int]:
    """(clauses, signed atoms) of the DNF that pushes negations to atoms,
    expands each ``_`` over the alphabet and distributes AND over OR."""
    kind = e[0]
    if kind == "atom":
        k = n_symbols ** e[1].count(ONE)
        return (k, k) if positive else (1, k)
    if kind == "not":
        return dnf_size(e[1], n_symbols, not positive)
    parts = [dnf_size(c, n_symbols, positive) for c in e[1]]
    if (kind == "and") != positive:
        return sum(c for c, _ in parts), sum(a for _, a in parts)
    clauses, total = 1, 0
    for c, a in parts:
        total = total * c + a * clauses
        clauses *= c
    return clauses, total


# --- 3-CNF ------------------------------------------------------------------------


def satisfying_assignments(n_vars: int, clauses) -> list[tuple[bool, ...]]:
    return [
        bits
        for bits in itertools.product((False, True), repeat=n_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
    ]


def sat_witness(n_vars: int, clauses) -> tuple[str, ...] | None:
    """The 3-CNF gadget's first witness in shortest-then-alphabet order.

    Over the alphabet x1..xn, ~x1..~xn a witness holds exactly one literal
    per variable, so for one assignment the earliest text lists its
    literals in alphabet order; the answer is the earliest such text over
    all satisfying assignments."""
    best = None
    for bits in satisfying_assignments(n_vars, clauses):
        idx = sorted(v if b else n_vars + v for v, b in enumerate(bits))
        if best is None or idx < best:
            best = idx
    if best is None:
        return None
    names = [f"x{v}" for v in range(1, n_vars + 1)] + [f"~x{v}" for v in range(1, n_vars + 1)]
    return tuple(names[i] for i in best)


# --- bounded-space machine --------------------------------------------------------


def bouncer_history(space: int, ones: int, names: dict) -> tuple[str, ...]:
    """The run history of the bouncer machine written out by hand.

    The machine walks right over ``ones`` 1s, turns at the first blank,
    walks left erasing, and accepts at cell 0. Blocks are separated by
    ``#``; each block lists the tape with the state name before the head
    cell. A left move at cell 0 keeps the head in place."""
    one, blank = names["one"], names["blank"]
    q0, q1, qa = names["q0"], names["q1"], names["qa"]
    tape = [one] * ones + [blank] * (space - ones)
    head, state = 0, q0
    out = ["#"]
    while True:
        out.extend(tape[:head] + [state] + tape[head:] + ["#"])
        if state == qa:
            return tuple(out)
        read = tape[head]
        if state == q0 and read == one:
            head += 1
        elif state == q0:
            state = q1
            head = max(head - 1, 0)
        elif read == one:
            tape[head] = blank
            head = max(head - 1, 0)
        else:
            state = qa
            head = max(head - 1, 0)


def self_test() -> None:
    """Pinned answers the enumeration must reproduce before it checks anything."""
    e1, e2 = ("atom", tuple("%01%")), ("atom", tuple("%0%1%"))
    if shortest_separator(e1, e2, "01", 9) is not None:
        raise AssertionError("%01% and %0%1% must agree on every text over 01")
    if shortest_separator(e1, e2, "012", 6) != ("0", "2", "1"):
        raise AssertionError("021 must be the first text separating %01% and %0%1% over 012")
    if not dp_match(tuple("%0%1%"), tuple("021")) or dp_match(tuple("%01%"), tuple("021")):
        raise AssertionError("DP matcher disagrees with the pinned pair on 021")
    if sat_witness(2, ((1, 2, 2), (-1, -1, -2))) != ("x1", "~x2"):
        raise AssertionError("3-CNF reference picked the wrong first witness")
    names = {"one": "1", "blank": "b", "q0": "q0", "q1": "q1", "qa": "qa"}
    if bouncer_history(1, 0, names) != ("#", "q0", "b", "#", "q1", "b", "#", "qa", "b", "#"):
        raise AssertionError("bouncer history is wrong at space 1")
