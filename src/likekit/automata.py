"""Position automata for patterns and searches over expression states.

A pattern with m tokens becomes an automaton whose states are the
positions 0..m, position i meaning "the first i tokens are consumed".
A ``%`` token both self-loops and advances for free, so the reachable
configurations are sets of positions, held here as bitmasks.

Equivalence and emptiness questions about boolean combinations of
patterns reduce to graph search: a breadth-first scan over the product
of the atoms' automata that either finds a witness text or exhausts the
reachable state space. Every distinct normalized atom owns a block of
m+1 bits in one Python int, and one search state is that int. A step
reads a symbol in all atoms at once, Shift-And style (Baeza-Yates and
Gonnet, 1992) with ``_`` classes and ``%`` gaps (Navarro and Raffinot,
2002, ch. 4)::

    D' = ((D & B[symbol]) << 1) | (D & S)
    D' |= (D' & S) << 1

where ``B[symbol]`` marks the positions holding that symbol or ``_`` and
``S`` marks the ``%`` positions. One closure shift suffices because a
normalized pattern never has ``%`` before ``%`` or ``_``, and no bit
crosses into the next block because accept bits are in neither mask.

The masks come from one byte tape: the distinct normal forms side by
side, each followed by its accept slot, highest bit first, one code per
bit (accept slot, ``%``, ``_``, one per sigma literal, literal outside
sigma; 252 literals to a tape). A mask is one ``bytes.translate`` to
``0``/``1`` digits and one ``int(digits, 2)``; the rest is int algebra.
Exploration is capped by a state budget; exceeding it raises rather
than guessing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable

from .expression import (
    And,
    Atom,
    LikeExpression,
    Not,
    atom_patterns,
    expression_size,
    is_monotone,
)
from .matcher import Text
from .normalize import normalize
from .pattern import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    AnyOne,
    AnyString,
    Literal,
    Pattern,
    Symbol,
    Token,
)

DEFAULT_STATE_BUDGET = 1 << 20


class SearchBudgetExceeded(RuntimeError):
    """The search hit its state budget before reaching a verdict."""

    def __init__(self, explored: int) -> None:
        super().__init__(f"state budget exceeded after exploring {explored} states")
        self.explored = explored


class PatternNfa:
    """Nondeterministic position automaton for one pattern.

    The state set after reading a text prefix is a bitmask over positions
    0..size; bit ``size`` set means the whole pattern can consume the
    prefix. Transition results are memoized per (mask, symbol). It works
    on the pattern as given, normalized or not, and serves as the
    per-atom reference for the packed search.
    """

    __slots__ = ("pattern", "size", "_tokens", "_memo", "initial_mask", "accept_bit")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.size = len(pattern.tokens)
        self._tokens = pattern.tokens
        self._memo: dict[tuple[int, Symbol], int] = {}
        self.accept_bit = 1 << self.size
        self.initial_mask = self._close(1)

    def _close(self, mask: int) -> int:
        for i in range(self.size):
            if mask >> i & 1 and isinstance(self._tokens[i], AnyString):
                mask |= 1 << (i + 1)
        return mask

    def _step(self, mask: int, symbol: Symbol) -> int:
        key = (mask, symbol)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if i == self.size:
                continue
            tok = self._tokens[i]
            if isinstance(tok, AnyString):
                out |= low
            elif isinstance(tok, AnyOne) or (
                isinstance(tok, Literal) and tok.symbol == symbol
            ):
                out |= low << 1
        out = self._close(out)
        self._memo[key] = out
        return out

    def accepts(self, t: Text) -> bool:
        mask = self.initial_mask
        for sym in t:
            mask = self._step(mask, sym)
            if not mask:
                return False
        return bool(mask & self.accept_bit)


class Verdict(Enum):
    FOUND = "found"
    EXHAUSTED_EQUIVALENT = "exhausted-equivalent"
    EXHAUSTED_EMPTY = "exhausted-empty"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a witness or separator search.

    ``complete`` is false when an explicit ``max_len`` cut off states
    that could still have led to a witness, so an EXHAUSTED verdict holds
    only for texts up to that length. ``atoms`` counts the distinct
    normalized atoms packed into the state and ``state_bits`` its width.
    """

    verdict: Verdict
    witness: Text | None
    explored: int
    complete: bool
    atoms: int = 0
    state_bits: int = 0


_TRUE_FOREVER = 1
_FALSE_FOREVER = -1
_UNDECIDED = 0


# Tape codes. One chunk of sigma's literals takes the codes from _LITERAL
# up; a literal outside the chunk codes as _OUT.
_ACCEPT, _GAP, _ANY_ONE, _LITERAL = range(4)
_OUT = 255
_CHUNK = _OUT - _LITERAL
_SLOT = object()  # stands for an accept slot in the token stream


def _mask(tape: bytes, c: int) -> int:
    """The int with a bit set wherever the tape, top bit first, holds c."""
    return int(tape.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2)


class _CompiledSearch:
    """All distinct normalized atoms packed into one int, with evaluators
    and three-valued forecasts compiled to mask tests on that int."""

    def __init__(self, exprs: list[LikeExpression], sigma: Alphabet) -> None:
        # Keyed by id() so that each Pattern object is normalized once, and
        # its normal form deduped on the token tuple, which hashes in C.
        # The expressions keep every keyed object alive while this runs.
        self._slot: dict[int, int] = {}
        slot_of_form: dict[tuple[Token, ...], int] = {}
        stream: list[object] = []
        # Atom slot i owns bits bounds[i] up to bounds[i + 1] - 1, the
        # last being its accept slot.
        bounds = [0]
        for e in exprs:
            for p in atom_patterns(e):
                if id(p) in self._slot:
                    continue
                toks = normalize(p).tokens
                slot = slot_of_form.setdefault(toks, len(bounds) - 1)
                if slot == len(bounds) - 1:
                    stream += toks
                    stream.append(_SLOT)
                    bounds.append(len(stream))
                self._slot[id(p)] = slot
        self._bounds = bounds
        self.atoms = len(bounds) - 1
        self.state_bits = width = len(stream)
        symbols = sigma.symbols
        at_literal: list[int] = []
        outside = -1
        for lo in range(0, len(symbols), _CHUNK):
            chunk = map(Literal, symbols[lo : lo + _CHUNK])
            code = dict(zip((_SLOT, ANY_STRING, ANY_ONE, *chunk), range(_OUT)))
            tape = bytes(map(code.get, reversed(stream), repeat(_OUT)))
            outside &= _mask(tape, _OUT)
            at_literal += [_mask(tape, c) for c in range(_LITERAL, len(code))]
        any_one = _mask(tape, _ANY_ONE)
        self.moves = tuple((sym, at | any_one) for sym, at in zip(symbols, at_literal))
        self.gaps = gaps = _mask(tape, _GAP)
        self._accept = accept = _mask(tape, _ACCEPT)
        full = (1 << width) - 1
        starts = ((accept << 1) | 1) & full
        self.initial = starts | ((starts & gaps) << 1)
        # In normal form only a trailing % absorbs every extension.
        self._absorb = gaps & (accept >> 1)
        # Only positions past a block's last literal outside sigma can still
        # reach acceptance; the loop visits one such literal per block.
        reach = full
        while outside:
            top = outside.bit_length() - 1
            first = bounds[bisect_right(bounds, top) - 1]
            reach &= ~((2 << top) - (1 << first))
            outside &= (1 << first) - 1
        self._reach = reach
        self.deciders = [self._compile(e) for e in exprs]

    def _masks(self, slots: list[int]) -> tuple[int, int, int]:
        """The accept, absorb and reach masks cut to these atoms' blocks,
        with one range mask per run of consecutive slots."""
        member = set(slots)
        firsts = sorted(i for i in member if i - 1 not in member)
        ends = sorted(i + 1 for i in member if i + 1 not in member)
        span = 0
        for lo, hi in zip(firsts, ends):
            span |= (1 << self._bounds[hi]) - (1 << self._bounds[lo])
        return self._accept & span, self._absorb & span, self._reach & span

    def _flat_atoms(self, e: LikeExpression) -> tuple[list[int], bool] | None:
        """The slots of an And/Or whose children are all atoms, or all
        negated atoms, with the polarity; None for any other shape."""
        if isinstance(e, (Atom, Not)):
            return None
        children = e.children
        negated = isinstance(children[0], Not)
        slots = []
        for c in children:
            if negated:
                if not isinstance(c, Not):
                    return None
                c = c.child
            if not isinstance(c, Atom):
                return None
            slots.append(self._slot[id(c.pattern)])
        return slots, negated

    def _compile(
        self, e: LikeExpression
    ) -> tuple[Callable[[int], bool], Callable[[int], int]]:
        """Evaluator and three-valued forecast for e: does its value stay
        fixed on every extension of the current text?"""
        if isinstance(e, Atom):
            bit, absorb, reach = self._masks([self._slot[id(e.pattern)]])
            return (lambda d: d & bit != 0), _any_atom_fate(absorb, reach)
        if isinstance(e, Not):
            # A run of NOTs compiles to its parity, without recursion.
            negated = False
            while isinstance(e, Not):
                e = e.child
                negated = not negated
            ev, fate = self._compile(e)
            if not negated:
                return ev, fate
            return (lambda d: not ev(d)), (lambda d: -fate(d))
        is_and = isinstance(e, And)
        flat = self._flat_atoms(e)
        if flat is not None:
            slots, negated = flat
            acc, absorb, reach = self._masks(slots)
            if is_and == negated:
                # An Or of atoms, or its negation, an And of negated atoms:
                # union masks decide both the value and the forecast.
                some = _any_atom_fate(absorb, reach)
                if negated:
                    return (lambda d: d & acc == 0), (lambda d: -some(d))
                return (lambda d: d & acc != 0), some
        subs = [self._compile(c) for c in e.children]
        evs = [ev for ev, _ in subs]
        fates = [fate for _, fate in subs]
        if flat is not None:
            ev = (lambda d: d & acc == acc) if is_and else (lambda d: d & acc != acc)
        elif is_and:
            ev = lambda d: all(f(d) for f in evs)
        else:
            ev = lambda d: any(f(d) for f in evs)
        win = _FALSE_FOREVER if is_and else _TRUE_FOREVER

        def fate_gate(d: int) -> int:
            undecided = False
            for f in fates:
                v = f(d)
                if v == win:
                    return win
                if v == _UNDECIDED:
                    undecided = True
            return _UNDECIDED if undecided else -win

        return ev, fate_gate


def _any_atom_fate(absorb: int, reach: int) -> Callable[[int], int]:
    """Forecast of "some of these atoms matches" from their union masks."""

    def fate(d: int) -> int:
        if d & absorb:
            return _TRUE_FOREVER
        if not d & reach:
            return _FALSE_FOREVER
        return _UNDECIDED

    return fate


def _bfs(
    comp: _CompiledSearch,
    accept: Callable[[int], bool],
    prune: Callable[[int], bool],
    budget: int,
    max_len: int | None,
) -> tuple[Text | None, int, bool]:
    """Shortest-first, alphabet-order-first scan over reachable states.

    Returns (witness, explored, complete) with witness None when the
    space was exhausted without hitting an accepting state. ``complete``
    is false when a state at depth ``max_len`` still had an unvisited,
    unpruned successor, so the cap, not the state space, ended the scan.
    """
    start = comp.initial
    visited: dict[int, tuple[int | None, Symbol | None]] = {start: (None, None)}
    queue: deque[tuple[int, int]] = deque([(start, 0)])
    moves = comp.moves
    gaps = comp.gaps
    complete = True
    while queue:
        state, depth = queue.popleft()
        if accept(state):
            parts: list[Symbol] = []
            cur: int | None = state
            while cur is not None:
                parent, sym = visited[cur]
                if sym is not None:
                    parts.append(sym)
                cur = parent
            parts.reverse()
            return tuple(parts), len(visited), True
        at_cap = max_len is not None and depth >= max_len
        if at_cap and not complete:
            continue
        kept = state & gaps
        for sym, on_sym in moves:
            nxt = ((state & on_sym) << 1) | kept
            nxt |= (nxt & gaps) << 1
            if nxt in visited:
                continue
            if prune(nxt):
                continue
            if at_cap:
                complete = False
                break
            if len(visited) >= budget:
                raise SearchBudgetExceeded(len(visited))
            visited[nxt] = (state, sym)
            queue.append((nxt, depth + 1))
    return None, len(visited), complete


def find_witness(
    e: LikeExpression,
    sigma: Alphabet,
    budget: int = DEFAULT_STATE_BUDGET,
    max_len: int | None = None,
) -> SearchOutcome:
    """Shortest text over sigma satisfying e, or a proof there is none.

    Ties between equal-length witnesses break toward the alphabet's
    declaration order. For a monotone expression an unset max_len is
    replaced by the total token count, which is known to bound the
    shortest witness; otherwise the reachable state space itself is
    finite and exploration terminates without a depth bound.
    """
    bound_is_proof = max_len is None and is_monotone(e)
    if bound_is_proof:
        max_len = expression_size(e)
    comp = _CompiledSearch([e], sigma)
    ev, fate = comp.deciders[0]
    witness, explored, complete = _bfs(
        comp, ev, lambda d: fate(d) == _FALSE_FOREVER, budget, max_len
    )
    verdict = Verdict.EXHAUSTED_EMPTY if witness is None else Verdict.FOUND
    complete = complete or bound_is_proof
    return SearchOutcome(
        verdict, witness, explored, complete, comp.atoms, comp.state_bits
    )


def find_separating_string(
    e1: LikeExpression,
    e2: LikeExpression,
    sigma: Alphabet,
    budget: int = DEFAULT_STATE_BUDGET,
    max_len: int | None = None,
) -> SearchOutcome:
    """Shortest text on which the two expressions disagree, if any."""
    comp = _CompiledSearch([e1, e2], sigma)
    (ev1, fate1), (ev2, fate2) = comp.deciders

    def prune(d: int) -> bool:
        g1 = fate1(d)
        return g1 != _UNDECIDED and g1 == fate2(d)

    witness, explored, complete = _bfs(
        comp, lambda d: ev1(d) != ev2(d), prune, budget, max_len
    )
    verdict = Verdict.EXHAUSTED_EQUIVALENT if witness is None else Verdict.FOUND
    return SearchOutcome(
        verdict, witness, explored, complete, comp.atoms, comp.state_bits
    )
