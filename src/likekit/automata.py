"""Position automata for patterns and searches over expression states.

A pattern with m tokens becomes an automaton whose states are the
positions 0..m, position i meaning "the first i tokens are consumed".
A ``%`` token both self-loops and advances for free, so the reachable
configurations are sets of positions, held here as bitmasks.

Equivalence and emptiness questions about boolean combinations of
patterns reduce to graph search: a breadth-first scan over the product
of the atoms' automata that either finds a witness text or exhausts the
reachable state space. Every distinct normalized atom owns a block of
m+1 bits in one Python int (sibling atoms may share one, see below), and
one search state is that int. A step
reads a symbol in all atoms at once, Shift-And style (Baeza-Yates and
Gonnet, 1992) with ``_`` classes and ``%`` gaps (Navarro and Raffinot,
2002, ch. 4)::

    D' = ((D & B[symbol]) << 1) | (D & S)
    D' |= (D' & S) << 1

where ``B[symbol]`` marks the positions holding that symbol or ``_`` and
``S`` marks the ``%`` positions. One closure shift suffices because a
normalized pattern never has ``%`` before ``%`` or ``_``, and no bit
crosses into the next block because accept bits are in neither mask.

The masks come from one byte tape: the blocks side by side, each
followed by its accept slot, highest bit first, one code per bit. Each
distinct token the blocks hold gets a code when it is first read (the
accept slot, ``%`` and ``_`` first), so the layout never depends on
sigma's size; past 255 codes there is one tape per 255 of them, 255
standing for every other token. A mask is one ``bytes.translate`` to
``0``/``1`` digits and one ``int(digits, 2)``, one per token held; the
rest is int algebra. A literal's mask goes to its symbol's move if the
symbol is in sigma, and otherwise to the literals outside sigma, which
cut reach (below); a symbol that no block holds steps on the ``_`` mask
alone, the "other" class of symbolic automata (D'Antoni and Veanes,
2017).

*Class blocks.* When the compile holds one expression, an OR of atoms or
an AND of negated atoms (``find_witness`` on the machine gadget, say),
distinct normal forms alike but for their last literal, which is in
sigma, share one block: a private class entry, the set of those
literals, stands at that position. A class is a token of the tape like a
literal, and a symbol's move mask marks its own literal and every class
holding it, as Shift-And reads a character class. After every step the
class block is the bitwise OR of its members' blocks: the bits up to the
class position agree in every member, the class bit is the OR of the
members' bits, and every later bit follows the same masks, which
distribute over OR. So the block's accept, absorb and reach tests are
the "some member" tests the gate needs, and the verdict, the witness and
``complete`` are those of the unmerged search; only ``explored`` can
fall, as states get coarser. The machine gadget's rule families (``% a b
c _^s d %`` for every wrong d, and the like) are such siblings: the
bouncer's state at space 4 narrows from 4102 to 882 bits, and the
counter machine's at space 5 from 43274 to 4915. Every other compile
keeps one block per normal form: two expressions (the separator) or any
other shape (the 3-CNF gadget, ``PatternNfa``). No counting forecast
reads a class block, since a merged AND has no plain atom conjunct to be
its length atom.

*Reading the atoms.* ``_flat_atoms`` reads a lone expression whose
children are all atoms, or all negated atoms, once; an OR of atoms or an
AND of negated atoms holds every block, so its forecasts are the whole
masks, and it keeps no block per form (``_masks`` refuses it). Any other
shape is read by ``atom_patterns``, and ``forecasts`` cuts the masks to
each inner gate's blocks, an atom being a one-pattern OR. The distinct
forms are keyed by their tokens in one C-level pass, and a block is
looked up by a pattern's tokens, never by the object. The forms are laid
out once, a pass over them (``_Families``) giving each its family's
block, and again, each distinct non-normal one through ``normalize``
once, only when the first tape shows ``%%`` or ``%_``. The machine
gadget comes read: ``encode_tm`` builds it normal, keys each rule family
as it builds it by the tokens around the varying literal, sends its few
single forms through the same pass, and leaves the distinct forms, their
blocks and the families' keys on the AND it returns (``_Read``), which
builds its negated atoms only when its children are first read. An
``and_`` of that AND and negated atoms hands the read on
(``_Read.conjoin``): each further form is keyed by the same rule
(``_family``) and is dropped if the read holds it, joins its family or
starts one, and the new AND builds its children, the gadget's and then
the very items passed, only when they are first read. The compile takes
a read when it holds that very AND alone, over a sigma with every symbol
the read was keyed over, and the tape shows the forms normal; then it
reads no atom, runs no pass, and no record is built. A copy, a pickle, an
``and_`` with anything but negated atoms over those symbols after the
gadget, or a narrower sigma is read afresh. At bouncer spaces 2-4
(370-395 atoms; best of 7 x 200, Python 3.11, 2 shared cores) the
compile of the gadget's read takes 81-94 us and of its read fenced by
the run's history 83-99 us, against 413-440 us for the fenced AND read
afresh, 237-249 us of it the family pass; ``encode_tm`` takes 194-206
us, the ``and_`` 6-7 us, and building the records they defer would take
276-281 us more.

Pruning rests on two forecasts per expression, compiled like its value
to mask tests on the packed int: *dead* (false on every extension of the
text read so far) and *settled* (true on every extension). An atom is
dead when no bit of its reach (the positions past its last literal
outside sigma) is set, and settled when its absorb bit (a trailing
``%``) is. ``dead(AND)`` is "some child is dead", ``dead(OR)`` "every
child is dead", ``dead(NOT x)`` is ``settled(x)``, and settled is the
dual. ``forecasts`` is a fold by the expression module's ``_fold``,
which pushes each NOT down to the atoms: there it flips the value and
swaps dead and settled, and a negated AND or OR compiles as its dual,
which gives the same groups as compiling the gate and negating it.
Static immortality: a block that starts with ``%`` and holds no literal
outside sigma never dies, because its first bit is set from the start,
loops on itself and lies in reach, so its dead test is the constant
false; in the 3-CNF gadget only the ``_^n`` atom is left to test. Tests
merge at compile time (zero tests under an all, and nonzero tests under
an any, share one union mask; constants drop out), and nested groups run
as a jump program, so evaluation loops instead of recursing. The witness
search prunes dead states. The separator is the lesser witness of the
witness searches for ``e1 AND NOT e2`` and ``e2 AND NOT e1``, where a
state of the first is dead when e1 is dead or e2 settled.

A search with no counting forecast also tests each move before stepping
it. When the dead forecast is a negated group (see ``_Group`` below), a
state that sets one of the bits its inner test needs clear is dead, and
every successor on a symbol holds the bits of ``(D & B[symbol]) << 1``.
So a state that meets ``B[symbol]`` one bit below such a bit steps to a
dead state on that symbol, and one AND with a mask built per move and per
search skips the step. This is exact: the skipped successor is one the
prune would reject, and a dead state is never visited (only the start
could be, and a step back to it is skipped either way), so the visit
order, ``explored``, the witness and ``complete`` stay as they were. On
the machine gadget the dead group is "some forbidden pattern's trailing
``%`` is set", so the test catches every move the prune would reject: at
bouncer space 4, 999 of the 1206 unvisited successors, and the prune then
rejects none.

No mask test sees that too few symbols are left to meet every conjunct,
so the witness search adds a *counting* forecast, found once per search
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
exactly one symbol of each unsettled member. So a symbol that no member
holds, like one outside sigma, is never read from a tight state. Every
direct conjunct of the member shape that is not taken as a member is a
*bound conjunct*, held by the members that hold its symbols in sigma. It
is dead in a tight state when it is unsettled and every member holding
it is settled: the conflict test of DPLL (Davis, Logemann and Loveland,
1962) on packed states. The witness search tests it on every tight
successor before queueing it.

``_CompiledSearch.counting`` decides the whole forecast once per search,
into a plain record (``_Counting``) that the scan only reads. It reads
symbols off the normal forms, never a bit position: the length atom's
token count, each member's symbol set and each bound conjunct's symbols,
laid out per member and per alphabet column. Every state of a counting
search is queued with two small ints, its unsettled member set and its
settled bound set; the start carries every member unsettled and no bound
conjunct settled, since a ``%x%`` block's trailing ``%`` is set only once
x has been read. Each move is tested on them alone: the successor's
unsettled set drops the move's member, its slack is the state's less one
unless the move settles a member, and when that slack is 0 the bound
conjuncts no member of the new set holds must each be settled, before or
by the move. A member's bound set is kept per column, the row of the
move's column: in an ordered search (below) it counts only the member's
symbols in later columns, otherwise every column. The set a member set
holds, the OR of its members' bound sets in a row, is memoized per
search and per distinct row, each set from the one without its lowest
member. So no state needs a count scan, and a tight successor's bound
test is a few operations on small ints.

Most such Ands cannot tell one order of a text from another. The search
is *ordered* when the start is tight (so every queued state is tight) and
every distinct normal form in the compile is ``%x%`` or all ``_``. Then
each queued state also carries the column (alphabet index) of the last
symbol read, expands only the moves in later columns, and a successor is
dead when some unsettled member has no symbol in a later column (per
column, the member set whose highest column is at or below it, one AND
of small ints), or when an unsettled bound conjunct has no unsettled
holder in a later column (the bound test on the column's row). This
breaks the symmetry of reordering a text (Crawford, Ginsberg, Luks and
Roy, 1996) and keeps one text per set of symbols read. It is sound for
four reasons:

1. Every atom, and so every boolean combination of atoms, depends only
   on the text's length and its set of symbols, so the language is
   closed under permutation. If it is not empty, its least witness
   (shortest first, then alphabet order) is sorted, since sorting a text
   keeps it in the language and is never later in alphabet order; a
   search of sorted texts alone finds the same verdict and witness.
2. A tight-from-start search reads only member symbols, each at most
   once, and each has its own ``%x%`` block, whose trailing ``%`` is set
   once it is read. So the packed state fixes the set of symbols read, and
   with it the last column: a state reached twice is reached with the
   same column, and deduplicating on the packed state alone stays sound.
3. ``complete`` stays sound: a witness longer than ``max_len`` has a
   sorted permutation, itself a witness, whose prefix of length
   ``max_len`` is queued, so a cut that drops a live successor is seen.
4. The later-column bound test kills no state with a witness below it.
   An ordered search reads only later columns, and a tight state reads
   only symbols of unsettled members, so an unsettled bound conjunct
   with no such symbol in a later column is never settled. The verdict,
   the witness and the visit order of the live states stay those of the
   any-column test; only ``explored`` falls, and under ``max_len`` a cut
   that met only such states now reports ``complete`` true, where the
   any-column test reported it false.

A compile holding any other form, as the machine gadget does, or ``%ab%``
or ``a_``, is searched in every order. ``NOT %a%``, or any nesting of
``%x%`` and all-``_`` atoms, keeps the order, and so does a separator of
two such expressions: the half ``e1 AND NOT e2`` has e1's counting
forecast, as a NOT conjunct adds nothing to it. In the 3-CNF gadget
(``_^n``, the n per-variable members, and the clauses as bound
conjuncts) the search is ordered: it visits the sorted literal
sequences that are consistent, falsify no clause, still have a later
literal for every unset variable, and still have, for every clause they
leave unsatisfied, a later literal of an unset variable: a median of
10.5 / 14 / 22 states at 4-6 variables over 60 random formulas of 4.3n
clauses each (28 / 55 / 109 with the any-column bound test; the partial
assignments that falsify no clause, read in every order, are 53 / 139 /
369 on the same formulas, out of 3^n, and about 4.15^n states with no
counting rule at all). One 12-variable formula of 52 clauses takes 138
states (5698 with the any-column test, 134572 in every order), one
16-variable formula of 69 clauses 585 (65477), and one 24-variable
formula of 103 clauses 2655 in 41 ms, where the any-column test passed
the default budget after 3.8 s (Python 3.11, 2 shared cores). The rules
are skipped when no length atom or no member is found; on the machine
gadget, whose conjuncts are all negated, one scan of their types tells.

``PatternNfa`` is the one-atom view of the same compile, with no
forecast: one pattern's block, over an alphabet of its own literals, so
a text symbol it never names steps on the ``_`` mask alone. There is no
second automaton.

The reachable states are finite, so a search with no ``max_len`` ends by
itself, and its EXHAUSTED verdict is a proof. Exploration is capped by a
state budget; exceeding it raises rather than guessing. The start state
counts, so a budget of 0 explores nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from enum import Enum
from itertools import count, islice
from operator import attrgetter
from typing import Callable, Collection, NamedTuple

from .expression import (
    And,
    Atom,
    LikeExpression,
    Not,
    Or,
    _deferred,
    _fold,
    atom_patterns,
)
from .matcher import Text
from .normalize import is_normalized, normalize
from .pattern import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    Pattern,
    Symbol,
    Token,
    _Record,
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


class SearchOutcome(_Record):
    """Result of a witness or separator search.

    ``complete`` is false when an explicit ``max_len`` cut off states
    that could still have led to a witness, so an EXHAUSTED verdict holds
    only for texts up to that length. ``atoms`` counts the distinct
    normalized atoms packed into the state and ``state_bits`` its width.
    """

    __slots__ = __match_args__ = (
        "verdict",
        "witness",
        "explored",
        "complete",
        "atoms",
        "state_bits",
    )
    verdict: Verdict
    witness: Text | None
    explored: int
    complete: bool
    atoms: int
    state_bits: int

    def __init__(
        self,
        verdict: Verdict,
        witness: Text | None,
        explored: int,
        complete: bool,
        atoms: int = 0,
        state_bits: int = 0,
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "explored", explored)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "state_bits", state_bits)


_SLOT = object()  # stands for an accept slot in the token stream
# Per code, the table that translates a tape to 1 where it holds the code.
_DIGITS = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(255)]
_tokens = attrgetter("tokens")
_GAPS = frozenset((ANY_STRING, ANY_ONE))


def _normal_tokens(form: tuple[Token, ...]) -> tuple[Token, ...]:
    """The normal form of a form, normalizing only one that is not."""
    p = Pattern(form)
    return form if is_normalized(p) else normalize(p).tokens


def _tape(codes: list[int], lo: int) -> bytes:
    """The tape that holds codes lo up to lo + 254 as 0 up to 254, and
    every other code as 255."""
    table = b"\xff" * lo + bytes(range(255)) + b"\xff" * len(codes)
    return bytes(map(table.__getitem__, codes))


def _mask(tape: bytes, c: int) -> int:
    """The int with a bit set wherever the tape, top bit first, holds c."""
    return int(tape.translate(_DIGITS[c]), 2)


def _join(blocks: list[tuple[object, ...]]) -> tuple[list[object], list[int]]:
    """The blocks side by side, each followed by its accept slot, and the
    bounds: block i owns bits bounds[i] up to bounds[i + 1] - 1."""
    stream: list[object] = []
    bounds = [0]
    for toks in blocks:
        stream += toks
        stream.append(_SLOT)
        bounds.append(len(stream))
    return stream, bounds


def _lay_out(
    blocks: list[tuple[object, ...]],
) -> tuple[list[object], list[int], dict[object, int], list[int], bytes]:
    """The blocks' stream and bounds (see ``_join``), each distinct token's
    code, the reversed stream's codes and the first tape (see ``_tape``)."""
    stream, bounds = _join(blocks)
    # Each distinct token gets a code as the reversed stream is read, the
    # accept slot, % and _ first.
    code = defaultdict(count(3).__next__, {_SLOT: 0, ANY_STRING: 1, ANY_ONE: 2})
    codes = [*map(code.__getitem__, reversed(stream))]
    tape = bytes(codes) if len(code) <= 255 else _tape(codes, 0)
    return stream, bounds, code, codes, tape


def _normal_tape(tape: bytes) -> bool:
    """Whether a first tape, read backwards, shows no % before % or _ (as
    \\x01\\x01 or \\x02\\x01): whether every form laid out is normal."""
    return b"\x01\x01" not in tape and b"\x02\x01" not in tape


def _family(toks: tuple[Token, ...], column: Collection[Symbol]) -> tuple[object, Symbol | None]:
    """The one family rule: a form whose last literal is in sigma (column)
    is keyed by the tokens before and after that literal, with its symbol;
    any other form is a family of its own, keyed by itself, with None."""
    at = len(toks) - 1
    while at >= 0 and (toks[at] is ANY_STRING or toks[at] is ANY_ONE):
        at -= 1
    if at >= 0:
        sym = toks[at].symbol
        if sym in column:
            return (toks[:at], toks[at + 1 :]), sym
    return toks, None


class _Families:
    """Sibling families of forms, in the order of their first forms, keyed by
    ``_family``. ``blocks`` gives each family's block: its first form, with
    the set of its literals at the literal's place when it has two or more.
    ``keys`` gives each key's family and ``sibs`` each family's literals."""

    __slots__ = ("keys", "heads", "sibs")

    def __init__(self) -> None:
        self.keys: dict[object, int] = {}
        self.heads: list[tuple[object, ...]] = []
        self.sibs: list[list[Symbol]] = []

    def add_forms(self, forms: list[tuple[Token, ...]], column: dict[Symbol, int]) -> None:
        """Add each distinct form to its family, sigma being column's keys."""
        keys, heads, sibs = self.keys, self.heads, self.sibs
        for toks in forms:
            key, sym = _family(toks, column)
            i = keys.setdefault(key, len(heads))
            if i == len(heads):
                heads.append(toks)
                sibs.append([])
            if sym is not None:
                sibs[i].append(sym)

    def add_family(
        self,
        key: tuple[tuple[Token, ...], tuple[Token, ...]],
        first: tuple[Token, ...],
        symbols: list[Symbol],
    ) -> None:
        """Add the distinct forms ``before + (Literal(y),) + after`` for y in
        symbols, all in sigma, where key is (before, after), after holds no
        literal and first is the first of the forms: the key ``add_forms``
        gives each of them, found without reading them."""
        heads = self.heads
        i = self.keys.setdefault(key, len(heads))
        if i == len(heads):
            heads.append(first)
            self.sibs.append([*symbols])
        else:
            self.sibs[i] += symbols

    def blocks(self) -> list[tuple[object, ...]]:
        heads, sibs = self.heads, self.sibs
        # Families with the same literals in the same order share one class.
        classes: dict[tuple[Symbol, ...], frozenset[Symbol]] = {}
        for key, i in self.keys.items():
            if len(sibs[i]) > 1:
                members = tuple(sibs[i])
                cls = classes.get(members)
                if cls is None:
                    cls = classes[members] = frozenset(members)
                heads[i] = key[0] + (cls,) + key[1]
        return heads


class _Read(NamedTuple):
    """What a builder knows of an AND of negated atoms it built: its
    distinct forms, in order, the blocks of their sibling families
    (``_Families.blocks``), the symbols the families were keyed over, and
    the families' ``keys`` and ``sibs``, never changed once the read is
    made (``conjoin`` extends copies). ``_CompiledSearch`` lays it out as the expression's own read when
    it compiles the expression alone over a sigma holding those symbols,
    and the tape shows the forms normal. The AND holds only its read until
    its children are first read; they are then built as the negated atoms
    of the forms, or, for a read ``conjoin`` made, as ``base.children +
    tail``."""

    forms: tuple[tuple[Token, ...], ...]
    blocks: tuple[tuple[object, ...], ...]
    symbols: frozenset[Symbol]
    keys: dict[object, int]
    sibs: list[list[Symbol]]
    base: And | None = None
    tail: tuple[LikeExpression, ...] = ()

    def conjoin(self, gate: And, tail: tuple[LikeExpression, ...]) -> And | None:
        """``and_(gate, *tail)``, gate being the AND this is the read of, as
        an AND holding only a read: this one with each distinct tail form
        added to its family, so its blocks are those of a fresh family pass
        over all the forms. None, for the caller to build the AND itself,
        unless every tail item is a negated atom whose literals are all in
        the symbols."""
        symbols = self.symbols
        added: list[tuple[Token, ...]] = []
        blocks, keys, sibs = [*self.blocks], dict(self.keys), [*self.sibs]
        joined: dict[int, tuple[tuple[Token, ...], tuple[Token, ...]]] = {}
        for item in tail:
            if not (isinstance(item, Not) and isinstance(item.child, Atom)):
                return None
            toks = item.child.pattern.tokens
            if not symbols.issuperset(t.symbol for t in {*toks} - _GAPS):
                return None
            key, sym = _family(toks, symbols)
            i = keys.setdefault(key, len(blocks))
            if i == len(blocks):
                blocks.append(toks)
                sibs.append([] if sym is None else [sym])
            elif sym is None or sym in sibs[i]:
                continue  # a form the read holds
            else:
                # A new list: the sibs this read shares stay as they are.
                sibs[i] = sibs[i] + [sym]
                joined[i] = key
            added.append(toks)
        for i, (before, after) in joined.items():
            blocks[i] = before + (frozenset(sibs[i]),) + after
        forms = self.forms + tuple(added)
        base = gate if self.base is None else self.base
        tail = self.tail + tail
        return _deferred(_Read(forms, tuple(blocks), symbols, keys, sibs, base, tail))


def _flat_atoms(e: LikeExpression) -> tuple[list[Pattern], bool] | None:
    """The patterns of an And/Or whose children are all atoms, or all
    negated atoms, with the polarity; an atom reads as a one-pattern Or,
    and any other shape gives None."""
    if isinstance(e, Atom):
        return [e.pattern], False
    children = e.children
    negated = isinstance(children[0], Not)
    patterns = []
    for c in children:
        if negated:
            if not isinstance(c, Not):
                return None
            c = c.child
        if not isinstance(c, Atom):
            return None
        patterns.append(c.pattern)
    return patterns, negated


class _Counting(NamedTuple):
    """The counting forecast of an And (see the module docstring), as
    ``_CompiledSearch.counting`` decides it: what the scan reads, and
    nothing else. ``room`` is the length atom's token count, so a state at
    depth k has slack ``room - k`` less its unsettled members. Member i is
    named by the bit ``1 << i`` in a *member set*, and bound conjunct j of
    the ``bound`` bound conjuncts by ``1 << j`` in a *bound set*. Per move
    (alphabet column), ``owners`` gives the member set holding its symbol
    (one bit, or 0) and ``settles`` the bound set holding it. ``ordered``
    tells whether the search reads in alphabet order only: the start is
    tight and every normal form of the compile is ``%x%`` or all ``_``.
    Per column, ``guards`` has a row with one entry per member, the bound
    set that member holds after a move in that column: bound conjunct j is
    held by the members whose entries have bit j. In an ordered search the
    row counts only the member's symbols in later columns, and ``spent``
    gives the member set with no symbol in a later column. Otherwise every
    row is the holder relation over every column, one shared tuple, and
    ``spent`` is all 0."""

    room: int
    owners: tuple[int, ...]
    bound: int
    settles: tuple[int, ...]
    guards: tuple[int, ...]
    ordered: bool
    spent: tuple[int, ...]


def _is_member(form: tuple[Token, ...]) -> bool:
    """Whether a normal form (no ``%`` before ``%`` or ``_``) is ``%x%``."""
    return len(form) == 3 and form[0] is form[2] is ANY_STRING


def _held(row: tuple[int, ...], unsettled: int, memo: dict[int, int]) -> int:
    """The bound set these members hold, the OR of their entries in a row
    of ``guards``, memoized in memo (which must map 0 to 0, and serve that
    row alone) along the chain of sets that drop the lowest member one at
    a time."""
    chain = []
    while unsettled not in memo:
        chain.append(unsettled)
        unsettled &= unsettled - 1
    held = memo[unsettled]
    for u in reversed(chain):
        held |= row[(u & -u).bit_length() - 1]
        memo[u] = held
    return held


class _CompiledSearch:
    """All distinct normalized atoms packed into one int, siblings in a
    class block when the compile allows it: the block layout, taken from
    the builder's read when the expression carries one that holds, laid
    out again normalized only if the first tape shows a non-normal form,
    and the step, accept, absorb and reach masks. ``forecasts`` compiles an
    expression's value, dead and settled groups to mask tests on that int."""

    def __init__(self, exprs: list[LikeExpression], sigma: Alphabet) -> None:
        symbols = sigma.symbols
        # Each symbol's column, its index in sigma and in moves.
        self.column = column = sigma._index
        e = exprs[0]
        laid = None
        # The machine gadget comes read, fenced by and_ or not: encode_tm
        # hands its forms and their families' blocks over, and they hold
        # while sigma has every symbol they were keyed over and the forms
        # are normal.
        read = getattr(e, "_read", None) if len(exprs) == 1 else None
        if read is not None and column.keys() >= read.symbols:
            forms = read.forms
            laid = _lay_out(read.blocks)
            if _normal_tape(laid[4]):
                # The gadget is an AND of negated atoms.
                self._top, merge, normal = (e, True), True, False
            else:
                laid = None
        if laid is None:
            # A lone gate of atoms, or of negated atoms, is read once, and
            # forecasts reuses the read; any other shape goes to the walker.
            flat = len(exprs) == 1 and isinstance(e, (And, Or)) and _flat_atoms(e)
            patterns = flat[0] if flat else [p for x in exprs for p in atom_patterns(x)]
            # Forms are token tuples, which hash and compare in C. The distinct
            # raw forms are keyed once, and every lookup goes by a pattern's
            # tokens, so equal patterns share a slot whatever object holds them.
            raw = forms = list(dict.fromkeys(map(_tokens, patterns)))
            merge = bool(flat) and flat[1] == isinstance(e, And)
            self._top = (e, merge) if flat else (None, False)
            for normal in (False, True):
                if normal:
                    # Each distinct raw form is normalized once, if it is not normal.
                    normal_of = [*map(_normal_tokens, raw)]
                    forms = list(dict.fromkeys(normal_of))
                blocks = forms
                if merge:
                    # One pass gives each form its family's block.
                    families = _Families()
                    families.add_forms(forms, column)
                    blocks = families.blocks()
                # Past 255 codes each tape holds 255 of them, 255 standing for
                # every other. Only when the first tape shows a form that is not
                # normal are the forms laid out again, normalized.
                laid = _lay_out(blocks)
                if _normal_tape(laid[4]):
                    break
        stream, bounds, code, codes, tape = laid
        # A merged gate is a leaf of forecasts holding every block, and
        # counting never reads it, so it keeps no block per form. Otherwise
        # each raw form has its block, through its normal form when laid out
        # again.
        slot: dict[tuple[Token, ...], int] | None = None
        if not merge:
            slot = dict(zip(forms, count()))
            if normal:
                slot = dict(zip(raw, map(slot.__getitem__, normal_of)))
        self.atoms = len(forms)
        self._slot, self._bounds = slot, bounds
        # Read by ``counting`` alone, which never sees a class block.
        self._forms = forms
        self.state_bits = width = len(stream)
        tapes = [tape, *(_tape(codes, lo) for lo in range(255, len(code), 255))]
        # A token's mask goes to the move of each symbol it holds, a
        # literal's one or a class's members, or to the literals outside
        # sigma for a symbol outside it.
        at_literal = [0] * len(symbols)
        outside = 0
        for tok, c in islice(code.items(), 3, None):
            on_token = _mask(tapes[c // 255], c % 255)
            for sym in tok if isinstance(tok, frozenset) else (tok.symbol,):
                if sym in column:
                    at_literal[column[sym]] |= on_token
                else:
                    outside |= on_token
        self.any_one = any_one = _mask(tape, code[ANY_ONE])
        self.moves = tuple((sym, at | any_one) for sym, at in zip(symbols, at_literal))
        self.gaps = gaps = _mask(tape, code[ANY_STRING])
        self.accept = accept = _mask(tape, code[_SLOT])
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

    def _masks(self, patterns: list[Pattern]) -> tuple[int, int, int]:
        """The accept, absorb and reach masks cut to these atoms' blocks."""
        slot_of, bounds = self._slot, self._bounds
        if slot_of is None:
            raise RuntimeError("a merged compile keeps no block per form")
        span = 0
        for p in patterns:
            i = slot_of[p.tokens]
            span |= (1 << bounds[i + 1]) - (1 << bounds[i])
        return self.accept & span, self._absorb & span, self._reach & span

    def _any_atom(
        self, accept: int, absorb: int, reach: int
    ) -> tuple[_Group, _Group, _Group]:
        """Value, dead and settled groups of "some of these atoms matches"
        from their masks, each one union-mask test."""
        dead = _FALSE if self._immortal & reach else (False, reach, 0, (), ())
        return (True, accept, 0, (), ()), dead, (True, absorb, 0, (), ())

    def forecasts(self, e: LikeExpression) -> tuple[_Group, _Group, _Group]:
        """The value of e and its two forecasts as groups: dead (false on
        every extension of the current text) and settled (true on every
        extension). A fold pushes each NOT down to the atoms, where it
        flips the value and swaps dead and settled."""
        top, merged = self._top

        def leaf(
            node: LikeExpression, positive: bool
        ) -> tuple[_Group, _Group, _Group] | None:
            # One atom, an Or of atoms, or an And of negated atoms (its negation).
            # The lone gate the compile read is one only when merged, and then
            # holds every block.
            if node is top:
                if not merged:
                    return None
                flip = isinstance(node, And)
                masks = self.accept, self._absorb, self._reach
            else:
                flat = _flat_atoms(node)
                if not flat or isinstance(node, And) != flat[1]:
                    return None
                patterns, flip = flat
                masks = self._masks(patterns)
            value, dead, settled = self._any_atom(*masks)
            if positive == flip:
                return (not value[0], *value[1:]), settled, dead
            return value, dead, settled

        def gate(disjunction: bool, parts: list) -> tuple[_Group, _Group, _Group]:
            value, dead, settled = zip(*parts)
            return (
                _gate(value, disjunction),
                _gate(dead, not disjunction),
                _gate(settled, disjunction),
            )

        return _fold(e, leaf, gate)

    def counting(self, e: LikeExpression) -> _Counting | None:
        """e's counting forecast, or None unless e is an And with a length
        atom and a member among its direct conjuncts. Members are read off
        the normal forms and taken in conjunct order, each only when its
        symbols are disjoint from every earlier member's. Every other
        conjunct of the same shape is bound, held by the members that hold
        its symbols in sigma. Only symbols are read, never the layout."""
        # The length atom is a plain Atom conjunct. A merged top (an Or of
        # atoms, or an And of negated atoms such as the machine gadget) has
        # none, and is declined without reading its children, which the
        # gadget builds only when read. Elsewhere, without one the type scan
        # bails before any per-conjunct work.
        top, merged = self._top
        if merged and e is top:
            return None
        if not isinstance(e, And) or Atom not in set(map(type, e.children)):
            return None
        slot_of, forms = self._slot, self._forms
        room = -1
        owner: dict[Symbol, int] = {}
        members = 0
        others: list[list[Symbol]] = []
        for c in e.children:
            atoms = c.children if isinstance(c, Or) else (c,)
            symbols: list[Symbol] = []
            for a in atoms:
                if not isinstance(a, Atom):
                    break
                form = forms[slot_of[a.pattern.tokens]]
                if not _is_member(form):
                    if room < 0 and a is c and ANY_STRING not in form:
                        room = len(form)
                    break
                symbols.append(form[1].symbol)
            else:
                if owner.keys().isdisjoint(symbols):
                    owner.update(dict.fromkeys(symbols, members))
                    members += 1
                else:
                    others.append(symbols)
        if room < 0 or not members:
            return None
        column = self.column
        settles = [0] * len(column)
        for j, symbols in enumerate(others):
            # A symbol outside sigma is never read.
            for sym in symbols:
                if sym in column:
                    settles[column[sym]] |= 1 << j
        owners = tuple(1 << owner[sym] if sym in owner else 0 for sym in column)
        # Only a tight start keeps every queued state tight. Forms that are
        # each %x% or all _ make every expression over them depend on the
        # length and the set of symbols alone; their scan runs second.
        ordered = room == members and all(
            _is_member(f) or f.count(ANY_ONE) == len(f) for f in forms
        )
        # Right to left, per column: each member's bound set from its
        # symbols in later columns, and the members with none there. A
        # symbol that no member holds is never read in a tight state.
        every = (1 << members) - 1
        row, later = (0,) * members, 0
        rows, spent = [], []
        for held_by, bits in zip(reversed(owners), reversed(settles)):
            rows.append(row)
            spent.append(every & ~later)
            later |= held_by
            if held_by:
                i = held_by.bit_length() - 1
                if bits & ~row[i]:
                    row = (*row[:i], row[i] | bits, *row[i + 1 :])
        if ordered:
            guards, spent = tuple(reversed(rows)), tuple(reversed(spent))
        else:
            # Read in every order, every column counts: row is the bound set
            # from each member's symbols in sigma.
            guards, spent = (row,) * len(owners), (0,) * len(owners)
        return _Counting(
            room, owners, len(others), tuple(settles), guards, ordered, spent
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
    counting: _Counting | None,
) -> tuple[Text | None, int, bool]:
    """Shortest-first, alphabet-order-first scan over reachable states.

    Returns (witness, explored, complete) with witness None when the
    space was exhausted without hitting an accepting state. ``complete``
    is false when a state at depth ``max_len`` still had an unvisited,
    unpruned successor, so the cap, not the state space, ended the scan.

    States where the ``forecast`` group holds are pruned. Without a
    ``counting`` forecast, a move that would set a zero bit of a negated
    ``forecast`` is skipped before it is stepped. With a
    ``counting`` forecast (whose length atom's dead test the ``forecast``
    must hold), every state is queued with its unsettled member set and
    its settled bound set, the start with every member unsettled and no
    bound conjunct settled, and its slack is the room left after its depth
    less its unsettled members (see the module docstring). A move that
    settles no member costs one slack; a successor whose slack would go
    below zero is dead by count, and a tight one (slack 0) is dead when a
    bound conjunct is unsettled and its unsettled members hold none of it
    in the move's row of ``guards``, which the small sets tell in a few
    operations. When the forecast is ordered, each queued state also
    carries the column of the last symbol read, and expands only the moves
    in later columns, whose rows count only the symbols after them. The
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
        room, owners, bound, settles, guards, ordered, spent = counting
        every_member = (1 << len(guards[0])) - 1
        every_bound = (1 << bound) - 1
        # Per column, the bound set each tight successor's unsettled members
        # hold, memoized once per distinct row of guards: one memo for every
        # column unless ordered.
        memos: dict[tuple[int, ...], dict[int, int]] = {}
        held = [memos.setdefault(row, {0: 0}) for row in guards]
    else:
        # A negated forecast holds wherever a zero bit that is not a ones
        # bit is set, and every successor has the bits of
        # (state & on_sym) << 1. A move's edge is on_sym one bit below
        # those bits: a state that meets it steps to a dead state.
        negated, zero, ones = forecast[:3]
        dead_below = (zero & ~ones) >> 1 if negated else 0
        edges = [(sym, on_sym, on_sym & dead_below) for sym, on_sym in moves]
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
            # A loop of its own, since the per-move counting tests below
            # cost the machine gadget's search (no counting forecast) about
            # 3%. A move whose edge meets the state is skipped unstepped.
            for sym, on_sym, edge in edges:
                if state & edge:
                    continue
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
                # Dead by a bound conjunct: it is still unsettled, and no
                # unsettled member holds it in a column that can still be read.
                if every_bound:
                    memo = held[col]
                    hold = memo.get(rest)
                    if hold is None:
                        hold = _held(guards[col], rest, memo)
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


def _least_witness(
    comp: _CompiledSearch,
    searches: list[tuple[_Group, _Group, _Counting | None]],
    budget: int,
    max_len: int | None,
    exhausted: Verdict,
) -> SearchOutcome:
    """The least witness (shortest, then first in alphabet order) of the
    searches, each a value group, dead group and counting forecast run by
    ``_bfs`` in turn, capped at the witness found so far. They share the
    start and the budget: ``explored`` counts the start once, also in a
    budget stop. ``complete`` holds with a witness, else if all searches do.
    A negative ``budget`` or ``max_len`` is refused with ``ValueError``."""
    if budget < 0:
        raise ValueError("budget must not be negative")
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must not be negative")
    column = comp.column.get
    best: Text | None = None
    explored = 1  # the start, which every search visits
    complete = True
    for value, dead, counting in searches:
        try:
            witness, n, done = _bfs(
                comp, _predicate(value), dead, budget + 1 - explored, max_len, counting
            )
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(explored - 1 + exc.explored) from None
        explored += n - 1
        complete = complete and done
        if witness is not None:
            rank = (len(witness), [*map(column, witness)])
            if best is None or rank < best_rank:
                best, best_rank, max_len = witness, rank, len(witness)
    verdict = exhausted if best is None else Verdict.FOUND
    complete = complete or best is not None
    return SearchOutcome(verdict, best, explored, complete, comp.atoms, comp.state_bits)


def _separator_halves(
    comp: _CompiledSearch, e1: LikeExpression, e2: LikeExpression
) -> list[tuple[_Group, _Group, _Counting | None]]:
    """The searches for ``e1 AND NOT e2`` and ``e2 AND NOT e1``: value "v1 and
    not v2" and dead "d1 or s2" gated from the two expressions' groups, and
    the first expression's counting forecast: a NOT conjunct adds no length
    atom, member or bound conjunct."""
    f1, f2 = comp.forecasts(e1), comp.forecasts(e2)
    return [
        (
            _gate((v, (not w[0], *w[1:])), False),
            _gate((d, s), True),
            comp.counting(a),
        )
        for a, (v, d, _), (w, _, s) in ((e1, f1, f2), (e2, f2, f1))
    ]


def find_witness(
    e: LikeExpression,
    sigma: Alphabet,
    budget: int = DEFAULT_STATE_BUDGET,
    max_len: int | None = None,
) -> SearchOutcome:
    """Shortest text over sigma satisfying e, or a proof there is none.

    Ties between equal-length witnesses break toward the alphabet's
    declaration order. The reachable state space is finite, so a search
    with no max_len ends by itself, and ``complete`` is false only when an
    explicit max_len cut off an unpruned state. Dead states
    are pruned by the mask forecasts and, when e has one, the counting
    forecast and its bound conjuncts. When every atom of e is ``%x%`` or
    all ``_`` in normal form and its start is tight, texts are read in
    alphabet order only: the verdict, the witness and ``complete``
    are those of the search in every order, with fewer states explored.
    """
    comp = _CompiledSearch([e], sigma)
    value, dead, _ = comp.forecasts(e)
    searches = [(value, dead, comp.counting(e))]
    return _least_witness(comp, searches, budget, max_len, Verdict.EXHAUSTED_EMPTY)


def find_separating_string(
    e1: LikeExpression,
    e2: LikeExpression,
    sigma: Alphabet,
    budget: int = DEFAULT_STATE_BUDGET,
    max_len: int | None = None,
) -> SearchOutcome:
    """Shortest text on which the two expressions disagree, if any: the
    lesser of the witnesses of ``e1 AND NOT e2`` and ``e2 AND NOT e1``, two
    searches over one compile, each pruned as by ``find_witness`` and read
    in alphabet order when every atom of both is ``%x%`` or all ``_`` and
    its first expression starts tight. They share the start state and the
    budget, so ``explored`` is their sum with the start counted once.
    """
    comp = _CompiledSearch([e1, e2], sigma)
    halves = _separator_halves(comp, e1, e2)
    return _least_witness(comp, halves, budget, max_len, Verdict.EXHAUSTED_EQUIVALENT)
