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

Pruning rests on two forecasts per expression, compiled like its value
to mask tests on the packed int: *dead* (false on every extension of the
text read so far) and *settled* (true on every extension). An atom is
dead when no bit of its reach (the positions past its last literal
outside sigma) is set, and settled when its absorb bit (a trailing
``%``) is. ``dead(AND)`` is "some child is dead", ``dead(OR)`` "every
child is dead", ``dead(NOT x)`` is ``settled(x)``, and settled is the
dual. Static immortality: a block that starts with ``%`` and holds no
literal outside sigma never dies, because its first bit is set from the
start, loops on itself and lies in reach, so its dead test is the
constant false; in the 3-CNF gadget only the ``_^n`` atom is left to
test. Tests merge at compile time (zero tests under an all, and nonzero
tests under an any, share one union mask; constants drop out), and
nested groups run as a jump program, so evaluation loops instead of
recursing. The witness search prunes dead states; the separator prunes
states where both expressions are dead or both are settled.

No mask test sees that too few symbols are left to meet every conjunct,
so the witness search adds a *counting* forecast, found once per compile
among the direct conjuncts of a top-level AND. A *length atom* is a
conjunct atom with no ``%``: it matches only after exactly ``room``
symbols, its token count, so a live state at depth k has ``room - k``
left. A *member* is a conjunct ``%x%``, or an OR of such atoms; it is
settled once one of its symbols has been read, and members are taken in
conjunct order while their symbol sets stay pairwise disjoint. A symbol
settles at most one member, so a state with more unsettled members than
room left is dead; its *slack* is the difference. A successor has one
symbol less room and at most one member more settled, so a move that
settles no member costs one slack, and only a *tight* state (slack 0)
has successors dead by count: all but those on a symbol of an unsettled
member, which stay tight.

A tight state also fixes what can still be read: the rest of the text is
exactly one symbol of each unsettled member. A *bound conjunct* is a
direct conjunct of the member shape that is not taken as a member, each
of whose symbols in sigma some member holds. It is dead in a tight state
when it is unsettled and every member holding one of its symbols is
settled: the conflict test of DPLL (Davis, Logemann and Loveland, 1962)
on packed states. The witness search tests it on every tight successor
before queueing it.

Every state of a counting search is queued with two small ints, its
unsettled member set and its settled bound set; the start carries every
member unsettled and no bound conjunct settled, since a ``%x%`` block's
trailing ``%`` is set only once x has been read. Each move is tested on
them alone: the successor's unsettled set drops the move's member, its
slack is the state's less one unless the move settles a member, and when
that slack is 0 the bound conjuncts no member of the new set holds must
each be settled, before or by the move. The set a member set holds, the
OR of its members' bound sets, is memoized per search, each set from the
one without its lowest member. So no state needs a count scan, and a
tight successor's bound test is a few operations on small ints.

Most such Ands cannot tell one order of a text from another. The search
is *ordered* when the length atom is all ``_``, every direct conjunct is
the length atom, a member or a bound conjunct, and the start is tight (so
every queued state is tight). Then each queued state also carries the
column (alphabet index) of the last symbol read, expands only the moves
in later columns, and a successor is dead when some unsettled member has
no symbol in a later column: per column, the member set whose highest
column is at or below it, one AND of small ints. This breaks the symmetry
of reordering a text (Crawford, Ginsberg, Luks and Roy, 1996) and keeps
one text per set of symbols read. It is sound for three reasons:

1. Every conjunct depends only on the text's length and its set of
   symbols, so the language is closed under permutation. If it is not
   empty, its least witness (shortest first, then alphabet order) is
   sorted, since sorting a text keeps it in the language and is never
   later in alphabet order; a search of sorted texts alone finds the same
   verdict and the same witness.
2. A tight-from-start search reads only member symbols, each at most
   once, and each has its own ``%x%`` block, whose trailing ``%`` is set
   once it is read. So the packed state fixes the set of symbols read, and
   with it the last column: a state reached twice is reached with the
   same column, and deduplicating on the packed state alone stays sound.
3. ``complete`` stays sound: a witness longer than ``max_len`` has a
   sorted permutation, itself a witness, whose prefix of length
   ``max_len`` is queued, so a cut that drops a live successor is seen.

Any other And, such as the machine gadget or one with a conjunct like
``%ab%``, ``NOT %a%`` or ``a_``, is searched in every order as before. In
the 3-CNF gadget (``_^n``, the n per-variable members, and the clauses as
bound conjuncts) the search is ordered: it visits the sorted literal
sequences that are consistent, falsify no clause and still have a later
literal for every unset variable: a median of 27 / 54.5 / 111 states at
4-6 variables over 60 random formulas of 4.3n clauses each (the partial
assignments that falsify no clause, read in every order, are 53 / 140 /
368.5 on the same formulas, out of 3^n, and about 4.15^n states with no
counting rule at all). The rules are skipped when no length atom or no
member is found; on the machine gadget, whose conjuncts are all negated,
one scan of their types tells.

``PatternNfa`` is the one-atom view of the same compile: one pattern's
block, over an alphabet of its own literals, so a text symbol it never
names steps on the ``_`` mask alone. There is no second automaton.

Exploration is capped by a state budget; exceeding it raises rather
than guessing. The start state counts, so a budget of 0 explores nothing.
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
    Or,
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
    """The position automaton of one pattern, as a one-atom view of the
    packed search compile: the pattern's block of bits, stepped by the
    same Shift-And masks the searches use. Its alphabet is the pattern's
    own literals; any other text symbol steps on the ``_`` mask alone.
    """

    __slots__ = ("pattern", "_moves", "_any_one", "_gaps", "_initial", "_accept")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        # An alphabet cannot be empty. A pattern with no literal gets a
        # placeholder symbol, whose move is the _ mask like any other's.
        symbols = tuple(dict.fromkeys(pattern.literals())) or ("_",)
        comp = _CompiledSearch([Atom(pattern)], Alphabet(symbols))
        self._moves = dict(comp.moves)
        self._any_one = comp.any_one
        self._gaps = comp.gaps
        self._initial = comp.initial
        self._accept = comp.accept

    def accepts(self, t: Text) -> bool:
        moves, any_one, gaps = self._moves, self._any_one, self._gaps
        state = self._initial
        for sym in t:
            state = ((state & moves.get(sym, any_one)) << 1) | (state & gaps)
            state |= (state & gaps) << 1
            if not state:
                return False
        return bool(state & self._accept)


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


# Tape codes. One chunk of sigma's literals takes the codes from _LITERAL
# up; a literal outside the chunk codes as _OUT.
_ACCEPT, _GAP, _ANY_ONE, _LITERAL = range(4)
_OUT = 255
_CHUNK = _OUT - _LITERAL
_SLOT = object()  # stands for an accept slot in the token stream


def _mask(tape: bytes, c: int) -> int:
    """The int with a bit set wherever the tape, top bit first, holds c."""
    return int(tape.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2)


class _Counting:
    """The counting forecast of an And (see the module docstring). The
    length atom's block is ``span``, ending below bit ``end``; each of
    ``members`` is a member's settled mask, the OR of its atoms' trailing
    ``%`` bits. Member i is named by the bit ``1 << i`` in a *member set*,
    and bound conjunct j by ``1 << j`` in a *bound set*. Each of ``bound``
    is a bound conjunct's settled mask and the member set holding its
    symbols. Per move (alphabet column), ``owners`` gives the member set
    holding its symbol (one bit, or 0) and ``settles`` the bound set
    holding it. Per member, ``guards`` gives the bound set it holds.
    ``room`` is the length atom's token count, so a state at depth k has
    slack ``room - k`` less its unsettled members. ``ordered`` tells
    whether the search may read in alphabet order only; then per column
    ``spent`` gives the member set with no symbol in a later column, else
    it is all 0. The search carries the member and bound sets on its
    queue; ``slack``, ``unsettled``, ``settled`` and ``bound_dead`` read
    them off one packed state, for tests."""

    __slots__ = (
        "span",
        "end",
        "room",
        "members",
        "owners",
        "bound",
        "settles",
        "guards",
        "ordered",
        "spent",
    )

    def __init__(
        self,
        span: int,
        end: int,
        members: tuple[int, ...],
        owners: tuple[int, ...],
        bound: tuple[tuple[int, int], ...],
        settles: tuple[int, ...],
        guards: tuple[int, ...],
        ordered: bool,
    ) -> None:
        self.span = span
        self.end = end
        self.room = end - (span & -span).bit_length()
        self.members = members
        self.owners = owners
        self.bound = bound
        self.settles = settles
        self.guards = guards
        # Only a tight start, with every member unsettled, keeps every
        # queued state tight.
        self.ordered = ordered = ordered and self.room == len(members)
        self.spent = (0,) * len(owners)
        if ordered:
            # A member's highest column, or -1 when sigma holds none of its
            # symbols; it is spent at every column at or past that one.
            top = [-1] * len(members)
            for col, owner in enumerate(owners):
                if owner:
                    top[owner.bit_length() - 1] = col
            self.spent = tuple(
                sum(1 << i for i, last in enumerate(top) if last <= col)
                for col in range(len(owners))
            )

    def slack(self, d: int) -> int:
        """Room left minus unsettled members; negative when d is dead by
        count or its length block is empty."""
        block = d & self.span
        if not block:
            return -1
        unsettled = [*map(d.__and__, self.members)].count(0)
        return self.end - block.bit_length() - unsettled

    def bound_dead(self, d: int) -> bool:
        """Whether some bound conjunct is dead in d, valid when slack(d) is
        0: it is unsettled, and every member holding one of its symbols is
        settled. The rest of the text is then one symbol of each unsettled
        member, so none of its symbols can still be read."""
        unsettled = self.unsettled(d)
        return any(
            not d & mask and not holders & unsettled for mask, holders in self.bound
        )

    def unsettled(self, d: int) -> int:
        """The member set of the members unsettled in d."""
        return sum(1 << i for i, mask in enumerate(self.members) if not d & mask)

    def settled(self, d: int) -> int:
        """The bound set of the bound conjuncts settled in d."""
        return sum(1 << j for j, (mask, _) in enumerate(self.bound) if d & mask)

    def held(self, unsettled: int, memo: dict[int, int]) -> int:
        """The bound set these members hold, the OR of their ``guards``,
        memoized in memo (which must map 0 to 0) along the chain of sets
        that drop the lowest member one at a time."""
        chain = []
        while unsettled not in memo:
            chain.append(unsettled)
            unsettled &= unsettled - 1
        held = memo[unsettled]
        for u in reversed(chain):
            held |= self.guards[(u & -u).bit_length() - 1]
            memo[u] = held
        return held


class _CompiledSearch:
    """All distinct normalized atoms packed into one int. ``deciders`` holds
    each expression's value, dead and settled groups, mask tests on that
    int that ``_predicate`` turns into callables."""

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
        self._stream = stream
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
        self.any_one = any_one = _mask(tape, _ANY_ONE)
        self.moves = tuple((sym, at | any_one) for sym, at in zip(symbols, at_literal))
        self.gaps = gaps = _mask(tape, _GAP)
        self.accept = accept = _mask(tape, _ACCEPT)
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
        # A block whose first bit is a % inside reach never dies: that bit
        # is set from the start, self-loops, and stays in reach.
        self._immortal = starts & gaps & reach
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
        return self.accept & span, self._absorb & span, self._reach & span

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

    def _any_atom(
        self, accept: int, absorb: int, reach: int
    ) -> tuple[_Group, _Group, _Group]:
        """Value, dead and settled groups of "some of these atoms matches"
        from their masks, each one union-mask test."""
        dead = _FALSE if self._immortal & reach else (False, reach, 0, (), ())
        return (True, accept, 0, (), ()), dead, (True, absorb, 0, (), ())

    def _compile(self, e: LikeExpression) -> tuple[_Group, _Group, _Group]:
        """The value of e and its two forecasts as groups: dead (false on
        every extension of the current text) and settled (true on every
        extension). Built bottom-up with an explicit stack, so nesting
        depth costs no recursion."""
        slot_of, bounds = self._slot, self._bounds
        absorb, reach = self._absorb, self._reach
        done: list[tuple[_Group, _Group, _Group]] = []
        # (expression, negated, children done): a gate comes back once its
        # children's groups are on top of ``done``.
        todo: list[tuple[LikeExpression, bool, bool]] = [(e, False, False)]
        while todo:
            node, negated, ready = todo.pop()
            # A run of NOTs compiles to its parity.
            while isinstance(node, Not):
                node = node.child
                negated = not negated
            if isinstance(node, Atom):
                slot = slot_of[id(node.pattern)]
                hi = bounds[slot + 1]
                span = (1 << hi) - (1 << bounds[slot])
                parts = self._any_atom(1 << hi - 1, absorb & span, reach & span)
            elif ready:
                k = len(node.children)
                value, dead, settled = zip(*done[-k:])
                del done[-k:]
                is_or = isinstance(node, Or)
                parts = (
                    _gate(value, is_or),
                    _gate(dead, not is_or),
                    _gate(settled, is_or),
                )
            else:
                flat = self._flat_atoms(node)
                if flat is None or isinstance(node, And) != flat[1]:
                    todo.append((node, negated, True))
                    todo += [(c, False, False) for c in reversed(node.children)]
                    continue
                # An Or of atoms, or an And of negated atoms: its negation.
                slots, flip = flat
                parts = self._any_atom(*self._masks(slots))
                negated = negated != flip
            if negated:
                value, dead, settled = parts
                parts = ((not value[0], *value[1:]), settled, dead)
            done.append(parts)
        return done[0]

    def counting(self, e: LikeExpression) -> _Counting | None:
        """e's counting forecast, or None unless e is an And with a length
        atom and a member among its direct conjuncts. Members are read off
        the normal forms and taken in conjunct order, each only when its
        symbols are disjoint from every earlier member's. A conjunct of the
        same shape that is not taken is bound when a member holds each of
        its symbols in sigma."""
        # The length atom is a plain Atom conjunct. Without one, as in the
        # machine gadget's And of negated atoms, the type scan bails before
        # any per-conjunct work.
        if not isinstance(e, And) or Atom not in set(map(type, e.children)):
            return None
        slot_of, bounds, stream = self._slot, self._bounds, self._stream
        length: tuple[int, int] | None = None
        owner: dict[Symbol, int] = {}
        members: list[int] = []
        others: list[tuple[list[Symbol], int]] = []
        # Whether every conjunct is the length atom, all _, or of the member
        # shape: then e depends only on the length and the set of symbols.
        ordered = True
        for c in e.children:
            if isinstance(c, Atom):
                atoms: tuple[LikeExpression, ...] = (c,)
            elif isinstance(c, Or):
                atoms = c.children
            else:
                ordered = False
                continue
            symbols: list[Symbol] = []
            settled = 0
            for a in atoms:
                if not isinstance(a, Atom):
                    ordered = False
                    break
                slot = slot_of[id(a.pattern)]
                lo, hi = bounds[slot], bounds[slot + 1]
                form = stream[lo : hi - 1]
                if not (
                    len(form) == 3
                    and form[0] is ANY_STRING
                    and form[2] is ANY_STRING
                    and isinstance(form[1], Literal)
                ):
                    if length is None and a is c and ANY_STRING not in form:
                        length = ((1 << hi) - (1 << lo), hi)
                        ordered = ordered and form.count(ANY_ONE) == len(form)
                    else:
                        ordered = False
                    break
                symbols.append(form[1].symbol)
                # The trailing %, set once the literal has been read.
                settled |= 1 << hi - 2
            else:
                if owner.keys().isdisjoint(symbols):
                    owner.update(dict.fromkeys(symbols, len(members)))
                    members.append(settled)
                else:
                    others.append((symbols, settled))
        if length is None or not members:
            return None
        column = {sym: i for i, (sym, _) in enumerate(self.moves)}
        settles = [0] * len(column)
        guards = [0] * len(members)
        bound: list[tuple[int, int]] = []
        for symbols, settled in others:
            readable = [sym for sym in symbols if sym in column]
            if not all(map(owner.__contains__, readable)):
                ordered = False
                continue
            bit = 1 << len(bound)
            holders = 0
            for sym in readable:
                i = owner[sym]
                holders |= 1 << i
                guards[i] |= bit
                settles[column[sym]] |= bit
            bound.append((settled, holders))
        owners = tuple(1 << owner[sym] if sym in owner else 0 for sym in column)
        return _Counting(
            *length,
            tuple(members),
            owners,
            tuple(bound),
            tuple(settles),
            tuple(guards),
            ordered,
        )


# A value or forecast compiles to a group, the tuple
#     (negated, zero, ones, meets, subs)
# which holds on a packed state d, before the optional negation, when
# d & (zero | ones) == ones, every mask in meets has a bit in d, and every
# group in subs holds. A group in subs is always negated, since a positive
# one merges into its parent. The empty group is true; negated, false.
_Group = tuple[bool, int, int, tuple[int, ...], tuple]
_FALSE: _Group = (True, 0, 0, (), ())


def _gate(parts: tuple[_Group, ...], disjunction: bool) -> _Group:
    """The group for all of parts, or for any of them as the negation of all
    of their negations, merged at compile time: zero tests under an all and
    nonzero tests under an any share one union mask, and constants drop out.
    """
    zero = ones = 0
    meets: list[int] = []
    subs: list[_Group] = []
    for negated, z, o, m, s in parts:
        if negated == disjunction:
            # A conjunct that is itself an all: merge its tests.
            zero |= z
            ones |= o
            meets += m
            subs += s
            continue
        # A negated conjunct. With no test it is false, and so is the all;
        # a lone test in it flips into this group's masks; the rest stay a
        # nested group.
        if not (z or o or m or s):
            return (not disjunction, 0, 0, (), ())
        if s or len(m) + (z != 0) + (o != 0) > 1 or o & (o - 1):
            subs.append((True, z, o, m, s))
        elif z:
            # not d & z == 0: d meets z, one bit of ones when z is one bit.
            if z & (z - 1):
                meets.append(z)
            else:
                ones |= z
        elif m:
            # not d meets m: d & m == 0.
            zero |= m[0]
        else:
            # not d & o == o for one bit o: d & o == 0.
            zero |= o
    if zero & ones:
        # Some bit must be both clear and set.
        return (not disjunction, 0, 0, (), ())
    if len(subs) == 1 and not (zero or ones or meets):
        negated, z, o, m, s = subs[0]
        return (negated != disjunction, z, o, m, s)
    return (disjunction, zero, ones, tuple(meets), tuple(subs))


def _agree_forever(
    first: tuple[_Group, _Group, _Group], second: tuple[_Group, _Group, _Group]
) -> _Group:
    """Both expressions stay false, or both stay true, on every extension:
    from (value, dead, settled) groups, (dead1 and dead2) or (settled1 and
    settled2)."""
    both_dead = _gate((first[1], second[1]), False)
    return _gate((both_dead, _gate((first[2], second[2]), False)), True)


def _test(
    negated: bool, zero: int, ones: int, meets: tuple[int, ...]
) -> Callable[[int], bool]:
    """A group without subs as one callable."""
    care = zero | ones
    if not meets:
        if negated:
            return lambda d: d & care != ones
        return lambda d: d & care == ones
    if not care and len(meets) == 1:
        (m,) = meets
        if negated:
            return lambda d: d & m == 0
        return lambda d: d & m != 0
    if care:
        test = lambda d: d & care == ones and all(map(d.__and__, meets))
    else:
        test = lambda d: all(map(d.__and__, meets))
    if negated:
        return lambda d: not test(d)
    return test


def _predicate(g: _Group) -> Callable[[int], bool]:
    """A group as one callable. Nested groups run as a jump program over
    their tests, which loops rather than recursing however deep they nest."""
    negated, zero, ones, meets, subs = g
    if not subs:
        return _test(negated, zero, ones, meets)
    # Labels 0 and 1 end a run false and true; label i > 1 is the step
    # (test, label if it holds, label if not). Steps are laid out last
    # first, and ``last`` is where the group being laid out goes when it
    # holds; a group's own masks are tested before its subs.
    steps: list = [None, None]
    last = 1
    todo = [(g, 0)]
    while todo:
        (negated, zero, ones, meets, subs), no = todo.pop()
        if not subs:
            steps.append((_test(negated, zero, ones, meets), last, no))
            last = len(steps) - 1
            continue
        if negated:
            last, no = no, last
        if zero or ones or meets:
            todo.append(((False, zero, ones, meets, ()), no))
        todo += [(s, no) for s in subs]
    entry = last
    program = tuple(steps)

    def run(d: int) -> bool:
        at = entry
        while at > 1:
            test, yes, no = program[at]
            at = yes if test(d) else no
        return at == 1

    return run


def _bfs(
    comp: _CompiledSearch,
    accept: Callable[[int], bool],
    forecast: _Group,
    budget: int,
    max_len: int | None,
    counting: _Counting | None = None,
) -> tuple[Text | None, int, bool]:
    """Shortest-first, alphabet-order-first scan over reachable states.

    Returns (witness, explored, complete) with witness None when the
    space was exhausted without hitting an accepting state. ``complete``
    is false when a state at depth ``max_len`` still had an unvisited,
    unpruned successor, so the cap, not the state space, ended the scan.

    States where the ``forecast`` group holds are pruned. With a
    ``counting`` forecast (whose length atom's dead test the ``forecast``
    must hold), every state is queued with its unsettled member set and
    its settled bound set, the start with every member unsettled and no
    bound conjunct settled, and its slack is the room left after its depth
    less its unsettled members (see the module docstring). A move that
    settles no member costs one slack; a successor whose slack would go
    below zero is dead by count, and a tight one (slack 0) is dead when a
    bound conjunct is, which the small sets tell in a few operations. When
    the forecast is ordered, each queued state also carries the column of
    the last symbol read, and expands only the moves in later columns. The
    start state counts against the budget, so a budget below one explores
    nothing.
    """
    if budget < 1:
        raise SearchBudgetExceeded(0)
    start = comp.initial
    visited: dict[int, tuple[int | None, Symbol | None]] = {start: (None, None)}
    moves = comp.moves
    gaps = comp.gaps
    prune = _predicate(forecast)
    every_member = 0
    if counting is not None:
        room, owners = counting.room, counting.owners
        settles, spent = counting.settles, counting.spent
        every_member = (1 << len(counting.members)) - 1
        every_bound = (1 << len(counting.bound)) - 1
        ordered = counting.ordered
        # The bound set each tight successor's unsettled members hold.
        held = {0: 0}
    # Each queued state carries its depth, its unsettled member set and
    # settled bound set (0 with no counting forecast), and the column of its
    # last symbol in an ordered search, else -1.
    queue: deque[tuple[int, int, int, int, int]] = deque(
        [(start, 0, every_member, 0, -1)]
    )
    complete = True
    while queue:
        state, depth, unsettled, settled, last = queue.popleft()
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
        if counting is None:
            # Every move, untested. A loop of its own, since the per-move
            # counting tests below cost the machine gadget's search (no
            # counting forecast) about 3%.
            for sym, on_sym in moves:
                nxt = ((state & on_sym) << 1) | kept
                nxt |= (nxt & gaps) << 1
                if nxt in visited or prune(nxt):
                    continue
                if at_cap:
                    complete = False
                    break
                if len(visited) >= budget:
                    raise SearchBudgetExceeded(len(visited))
                visited[nxt] = (state, sym)
                queue.append((nxt, depth + 1, 0, 0, -1))
            continue
        slack = room - depth - unsettled.bit_count()
        for col in range(last + 1, len(moves)):
            # The member the move settles, if any; a move that settles none
            # costs one slack.
            owner = owners[col] & unsettled
            left = slack if owner else slack - 1
            if left < 0:
                continue
            rest = unsettled ^ owner
            now = settled | settles[col]
            if not left:
                # A tight successor. In an ordered search it is dead when an
                # unsettled member has no symbol in a later column.
                if rest & spent[col]:
                    continue
                # Dead by a bound conjunct: no unsettled member holds it,
                # and it is still unsettled.
                if every_bound:
                    hold = held.get(rest)
                    if hold is None:
                        hold = counting.held(rest, held)
                    if every_bound & ~(hold | now):
                        continue
            sym, on_sym = moves[col]
            nxt = ((state & on_sym) << 1) | kept
            nxt |= (nxt & gaps) << 1
            if nxt in visited or prune(nxt):
                continue
            if at_cap:
                complete = False
                break
            if len(visited) >= budget:
                raise SearchBudgetExceeded(len(visited))
            visited[nxt] = (state, sym)
            queue.append((nxt, depth + 1, rest, now, col if ordered else -1))
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
    finite and exploration terminates without a depth bound. Dead states
    are pruned by the mask forecasts and, when e has one, the counting
    forecast and its bound conjuncts. When e depends only on the length
    and the set of symbols of a text and its start is tight, texts are
    read in alphabet order only: the verdict, the witness and ``complete``
    are those of the search in every order, with fewer states explored.
    """
    bound_is_proof = max_len is None and is_monotone(e)
    if bound_is_proof:
        max_len = expression_size(e)
    comp = _CompiledSearch([e], sigma)
    value, dead, _ = comp.deciders[0]
    witness, explored, complete = _bfs(
        comp, _predicate(value), dead, budget, max_len, comp.counting(e)
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
    """Shortest text on which the two expressions disagree, if any.

    States where both expressions are dead, or both settled, are pruned.
    None of the counting rules (the count, the bound conjuncts, the
    alphabet order) is applied here, though a state where they find both
    expressions dead could be pruned too.
    """
    comp = _CompiledSearch([e1, e2], sigma)
    first, second = comp.deciders
    ev1, ev2 = _predicate(first[0]), _predicate(second[0])
    witness, explored, complete = _bfs(
        comp,
        lambda d: ev1(d) != ev2(d),
        _agree_forever(first, second),
        budget,
        max_len,
    )
    verdict = Verdict.EXHAUSTED_EQUIVALENT if witness is None else Verdict.FOUND
    return SearchOutcome(
        verdict, witness, explored, complete, comp.atoms, comp.state_bits
    )
