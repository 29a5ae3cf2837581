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
Exploration is capped by a state budget; exceeding it raises rather
than guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

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


class _Block(NamedTuple):
    """One atom's place in the packed state, with its masks kept local
    (unshifted) so that wide products hold no per-atom full-width ints.

    ``absorb``: positions from which every extension matches.
    ``reach``: positions from which some extension over sigma matches."""

    offset: int
    size: int
    absorb: int
    reach: int


def _bits(positions: list[int], width: int) -> int:
    """The int with exactly these bits set, built in time linear in width."""
    digits = bytearray(b"0") * width
    for pos in positions:
        digits[pos] = 49  # ord("1")
    return int(digits[::-1], 2)


class _CompiledSearch:
    """All distinct normalized atoms packed into one int, with evaluators
    and three-valued forecasts compiled to mask tests on that int."""

    def __init__(self, exprs: list[LikeExpression], sigma: Alphabet) -> None:
        literal_at: list[list[int]] = [[] for _ in sigma.symbols]
        any_one_at: list[int] = []
        gap_at: list[int] = []
        start_at: list[int] = []
        # The position list of each token kind; a literal outside sigma has
        # none. Tokens are interned, so a lookup hashes by identity.
        where: dict[Token, list[int]] = {
            Literal(sym): at for sym, at in zip(sigma.symbols, literal_at)
        }
        where[ANY_ONE] = any_one_at
        where[ANY_STRING] = gap_at
        # Keyed by id() so that each Pattern object is hashed at most
        # once, as its normal form: a Pattern does not cache its hash,
        # and hashing one walks every token. The expressions keep every
        # keyed object alive while this runs.
        self._blocks: dict[int, _Block] = {}
        blocks: list[_Block] = []
        slot_of_form: dict[Pattern, int] = {}
        offset = 0
        for e in exprs:
            for p in atom_patterns(e):
                if id(p) in self._blocks:
                    continue
                form = normalize(p)
                slot = slot_of_form.setdefault(form, len(blocks))
                if slot == len(blocks):
                    toks = form.tokens
                    size = len(toks)
                    reach_from = offset
                    for pos, tok in enumerate(toks, offset):
                        at = where.get(tok)
                        if at is None:
                            reach_from = pos + 1
                        else:
                            at.append(pos)
                    ends_open = size > 0 and toks[-1] is ANY_STRING
                    start_at.append(offset)
                    if size > 0 and toks[0] is ANY_STRING:
                        start_at.append(offset + 1)
                    # Only positions past the last literal outside sigma
                    # can still reach acceptance, and in normal form only
                    # a trailing % absorbs every extension.
                    blocks.append(
                        _Block(
                            offset,
                            size,
                            1 << (size - 1) if ends_open else 0,
                            (1 << (size + 1)) - (1 << (reach_from - offset)),
                        )
                    )
                    offset += size + 1
                self._blocks[id(p)] = blocks[slot]
        self.atoms = len(blocks)
        self.state_bits = offset
        any_one = _bits(any_one_at, offset)
        self.moves = tuple(
            (sym, _bits(at, offset) | any_one)
            for sym, at in zip(sigma.symbols, literal_at)
        )
        self.gaps = _bits(gap_at, offset)
        self.initial = _bits(start_at, offset)
        self.deciders = [self._compile(e) for e in exprs]

    def _flat_atoms(self, e: LikeExpression) -> tuple[list[_Block], bool] | None:
        """The blocks of an And/Or whose children are all atoms, or all
        negated atoms, with the polarity; None for any other shape."""
        if isinstance(e, (Atom, Not)):
            return None
        children = e.children
        negated = isinstance(children[0], Not)
        blocks = []
        for c in children:
            if negated:
                if not isinstance(c, Not):
                    return None
                c = c.child
            if not isinstance(c, Atom):
                return None
            blocks.append(self._blocks[id(c.pattern)])
        return blocks, negated

    def _compile(
        self, e: LikeExpression
    ) -> tuple[Callable[[int], bool], Callable[[int], int]]:
        """Evaluator and three-valued forecast for e: does its value stay
        fixed on every extension of the current text?"""
        if isinstance(e, Atom):
            b = self._blocks[id(e.pattern)]
            bit = 1 << (b.offset + b.size)
            return (lambda d: d & bit != 0), self._any_atom_fate([b])
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
            blocks, negated = flat
            acc = _bits([b.offset + b.size for b in blocks], self.state_bits)
            if is_and == negated:
                # An Or of atoms, or its negation, an And of negated atoms:
                # union masks decide both the value and the forecast.
                some = self._any_atom_fate(blocks)
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

    def _any_atom_fate(self, blocks: list[_Block]) -> Callable[[int], int]:
        """Forecast of "some of these atoms matches"."""
        absorb = reach = 0
        for b in blocks:
            absorb |= b.absorb << b.offset
            reach |= b.reach << b.offset

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
