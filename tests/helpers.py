"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals it
is used to check: the regex engine is a plain backtracker, satisfiability
is brute forced, and shortest witnesses come from direct enumeration.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import deque
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    And,
    AnyOne,
    AnyString,
    Atom,
    Cnf,
    DEFAULT_STATE_BUDGET,
    ExplosionCapError,
    LikeExpression,
    Literal,
    Not,
    Or,
    Pattern,
    SearchBudgetExceeded,
    SignedAtom,
    Symbol,
    Text,
    TmRule,
    TmSpec,
    Token,
    and_,
    atom_patterns,
    evaluate,
    expand_underscores,
    normalize,
    or_,
)


def all_texts(symbols: Sequence[str], max_len: int) -> Iterator[Text]:
    for n in range(max_len + 1):
        for combo in itertools.product(symbols, repeat=n):
            yield combo


def all_patterns(symbols: Sequence[str], max_len: int) -> Iterator[Pattern]:
    tokens: list[Token] = [Literal(s) for s in symbols]
    tokens.extend([ANY_ONE, ANY_STRING])
    for n in range(max_len + 1):
        for combo in itertools.product(tokens, repeat=n):
            yield Pattern(combo)


def normalize_reference(p: Pattern) -> Pattern:
    """The normal form of p, rebuilt token by token: each wildcard run
    becomes its _ count, then one % when it held any."""
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


def random_text(rng: random.Random, symbols: Sequence[str], max_len: int) -> Text:
    n = rng.randint(0, max_len)
    return tuple(rng.choice(symbols) for _ in range(n))


def random_pattern(rng: random.Random, symbols: Sequence[str], max_len: int) -> Pattern:
    n = rng.randint(0, max_len)
    out: list[Token] = []
    for _ in range(n):
        r = rng.random()
        if r < 0.2:
            out.append(ANY_STRING)
        elif r < 0.4:
            out.append(ANY_ONE)
        else:
            out.append(Literal(rng.choice(symbols)))
    return Pattern(tuple(out))


def realize(rng: random.Random, p: Pattern, symbols: Sequence[str]) -> Text:
    """A text the pattern matches, built token by token."""
    out: list[str] = []
    for tok in p.tokens:
        if isinstance(tok, Literal):
            out.append(tok.symbol)
        elif tok == ANY_ONE:
            out.append(rng.choice(symbols))
        else:
            for _ in range(rng.randint(0, 2)):
                out.append(rng.choice(symbols))
    return tuple(out)


def random_monotone_expression(
    rng: random.Random, symbols: Sequence[str], budget: int
) -> LikeExpression:
    """Negation-free expression whose patterns hold at most ``budget`` tokens."""
    if budget <= 1 or rng.random() < 0.3:
        return Atom(random_pattern(rng, symbols, max(budget, 1)))
    left = rng.randint(1, budget - 1)
    a = random_monotone_expression(rng, symbols, left)
    b = random_monotone_expression(rng, symbols, budget - left)
    return and_(a, b) if rng.random() < 0.5 else or_(a, b)


def shortest_satisfying(
    e: LikeExpression, sigma: Alphabet, max_len: int
) -> Text | None:
    """First satisfying text in shortest-then-alphabet order, if any."""
    for t in all_texts(sigma.symbols, max_len):
        if evaluate(e, t):
            return t
    return None


def alternating_chain(
    depth: int, leaf: LikeExpression, negated: bool = False
) -> LikeExpression:
    """AND(%a%, OR(%b%, AND(%a%, ... leaf))) with ``depth`` gates, built in
    the library, past any nesting limit of the parser; with ``negated``,
    every gate under a NOT."""
    a = Atom(Pattern((ANY_STRING, Literal("a"), ANY_STRING)))
    b = Atom(Pattern((ANY_STRING, Literal("b"), ANY_STRING)))
    e = leaf
    for i in reversed(range(depth)):
        e = And((a, e)) if i % 2 == 0 else Or((b, e))
        if negated:
            e = Not(e)
    return e


def reference_dnf_clauses(
    e: LikeExpression, sigma: Alphabet, cap: int
) -> list[list[SignedAtom]]:
    """The DNF rewrite's clauses by recursion over the expression, one
    level per gate, raising ExplosionCapError with the same counts: the
    reference for the stack-walking rewrite."""

    def check(count: int) -> None:
        if count > cap:
            raise ExplosionCapError(count, cap)

    def rec(node: LikeExpression, positive: bool) -> list[list[SignedAtom]]:
        if isinstance(node, Not):
            return rec(node.child, not positive)
        if isinstance(node, Atom):
            expanded = expand_underscores(node.pattern, sigma, cap)
            pats = [normalize(q) for q in atom_patterns(expanded)]
            if positive:
                return [[SignedAtom(q, True)] for q in pats]
            return [[SignedAtom(q, False) for q in pats]]
        parts = [rec(c, positive) for c in node.children]
        if isinstance(node, And) != positive:
            merged = [clause for part in parts for clause in part]
            check(sum(map(len, merged)))
            return merged
        result: list[list[SignedAtom]] = [[]]
        for part in parts:
            left_atoms, right_atoms = sum(map(len, result)), sum(map(len, part))
            check(len(result) * right_atoms + len(part) * left_atoms)
            result = [left + right for left in result for right in part]
        return result

    return rec(e, True)


def brute_force_sat(formula: Cnf) -> tuple[bool, ...] | None:
    for bits in itertools.product((False, True), repeat=formula.n_vars):
        ok = True
        for clause in formula.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return bits
    return None


def unfalsified_partial_assignments(formula: Cnf) -> int:
    """How many partial assignments (each variable unset, false or true)
    leave no clause with every literal set and false.

    Variables are set in order, as two bit sets (those set false and those
    set true), and a clause is checked once its last variable is set. A
    falsified clause stays falsified on every extension, so a prefix that
    falsifies one is counted out with all its extensions.
    """
    n = formula.n_vars
    # Per clause, the variables that must be false and those that must be
    # true for it to be falsified, filed under its last variable.
    last: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for clause in formula.clauses:
        need_false = need_true = 0
        for lit in clause:
            if lit > 0:
                need_false |= 1 << lit
            else:
                need_true |= 1 << -lit
        last[max(map(abs, clause))].append((need_false, need_true))

    def count(v: int, false: int, true: int) -> int:
        if v > n:
            return 1
        # Leaving v unset falsifies no clause that ends at v.
        total = count(v + 1, false, true)
        for f, t in ((false | 1 << v, true), (false, true | 1 << v)):
            if not any(f & nf == nf and t & nt == nt for nf, nt in last[v]):
                total += count(v + 1, f, t)
        return total

    return count(1, 0, 0)


def sorted_kept_prefixes(formula: Cnf, later_holders: bool = True) -> list[list[int]]:
    """The literal sequences, read in the 3-CNF gadget's alphabet order
    (x1..xn, then ~x1..~xn), that are consistent, falsify no clause, and
    still have a later literal for every unset variable, each as its run
    of increasing positions in that order, parents before children.

    With ``later_holders`` a sequence is also dropped when a clause that
    no read literal satisfies has no literal of an unset variable after
    the last one read: nothing left to read can satisfy it. Without it a
    clause counts as lost only once every variable it names is set, in
    whatever column its literals stand (the older, any-column rule). A
    sequence failing a condition fails it on every extension, so the
    walk does not extend it.
    """
    n = formula.n_vars
    order = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    position = {lit: i for i, lit in enumerate(order)}
    clauses = [({abs(lit) for lit in c}, set(c)) for c in formula.clauses]
    # The variables with a literal at each position or later.
    later = [{abs(lit) for lit in order[i:]} for i in range(2 * n + 1)]
    every = set(range(1, n + 1))

    def kept(seq: list[int]) -> bool:
        lits = {order[i] for i in seq}
        if any(-lit in lits for lit in lits):
            return False
        set_vars = {abs(lit) for lit in lits}
        last = seq[-1] if seq else -1
        for vs, c in clauses:
            if lits & c:
                continue
            if vs <= set_vars:
                return False
            if later_holders and all(
                abs(lit) in set_vars or position[lit] <= last for lit in c
            ):
                return False
        return every <= set_vars | later[last + 1]

    found: list[list[int]] = []
    todo: list[list[int]] = [[]]
    while todo:
        seq = todo.pop()
        if kept(seq):
            found.append(seq)
            todo += [seq + [i] for i in range(seq[-1] + 1 if seq else 0, 2 * n)]
    return found


def sorted_unfalsified_prefixes(formula: Cnf) -> int:
    """How many literal sequences ``sorted_kept_prefixes`` keeps."""
    return len(sorted_kept_prefixes(formula))


def ordered_3sat_reference(
    formula: Cnf, later_holders: bool = True
) -> Callable[[int | None], tuple[Text | None, bool]]:
    """The ordered counting search on the 3-CNF gadget, read off the kept
    sequences of ``sorted_kept_prefixes``: a function from ``max_len`` to
    (witness, complete). The scan keeps one state per kept sequence and
    reads each depth in alphabet order, so the witness is the least kept
    sequence of n literals, if n is within ``max_len``; without a witness
    the scan is complete unless a kept sequence is longer than
    ``max_len``."""
    n = formula.n_vars
    symbols = [f"x{v}" for v in range(1, n + 1)] + [f"~x{v}" for v in range(1, n + 1)]
    kept = sorted_kept_prefixes(formula, later_holders)
    full = [seq for seq in kept if len(seq) == n]
    witness = tuple(symbols[i] for i in min(full)) if full else None
    longest = max(map(len, kept))

    def search(max_len: int | None) -> tuple[Text | None, bool]:
        if witness is not None and (max_len is None or max_len >= n):
            return witness, True
        return None, max_len is None or longest <= max_len

    return search


def assignment_satisfies(formula: Cnf, bits: Sequence[bool]) -> bool:
    return all(
        any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in formula.clauses
    )


def naive_packed_masks(
    exprs: Sequence[LikeExpression], sigma: Alphabet
) -> dict[str, object]:
    """The packed search's layout filed token by token, as a reference.

    Each distinct normal form gets a block of len+1 bits in order of first
    appearance. ``blocks`` pairs every atom occurrence, in preorder, with
    its block's (accept, absorb, reach) masks in place.
    """
    literal_at: dict[str, list[int]] = {sym: [] for sym in sigma.symbols}
    any_one_at: list[int] = []
    gap_at: list[int] = []
    start_at: list[int] = []
    block_of_form: dict[Pattern, tuple[int, int, int]] = {}
    blocks: list[tuple[Pattern, tuple[int, int, int]]] = []
    offset = 0
    for e in exprs:
        for p in atom_patterns(e):
            form = normalize(p)
            if form not in block_of_form:
                toks = form.tokens
                size = len(toks)
                reach_from = offset
                for pos, tok in enumerate(toks, offset):
                    if tok == ANY_ONE:
                        any_one_at.append(pos)
                    elif tok == ANY_STRING:
                        gap_at.append(pos)
                    elif tok.symbol in literal_at:
                        literal_at[tok.symbol].append(pos)
                    else:
                        reach_from = pos + 1
                start_at.append(offset)
                if size > 0 and toks[0] == ANY_STRING:
                    start_at.append(offset + 1)
                accept = 1 << (offset + size)
                ends_open = size > 0 and toks[-1] == ANY_STRING
                block_of_form[form] = (
                    accept,
                    accept >> 1 if ends_open else 0,
                    (accept << 1) - (1 << reach_from),
                )
                offset += size + 1
            blocks.append((p, block_of_form[form]))

    def bits(positions: list[int]) -> int:
        return sum(1 << pos for pos in set(positions))

    any_one = bits(any_one_at)
    return {
        "moves": tuple((sym, bits(at) | any_one) for sym, at in literal_at.items()),
        "gaps": bits(gap_at),
        "initial": bits(start_at),
        "atoms": len(block_of_form),
        "state_bits": offset,
        "blocks": blocks,
    }


def naive_class_layout(
    exprs: Sequence[LikeExpression], sigma: Alphabet
) -> dict[str, object]:
    """``naive_packed_masks`` with sibling atoms sharing one block, filed
    position by position from explicit symbol sets, as a reference.

    Only a lone expression that is an OR of atoms or an AND of negated atoms
    merges. One that carries a builder's read, every atom normal, takes the
    read's blocks over any sigma: each is a form with a set of symbols at
    its class positions, and expanding every block over its sets
    (``itertools.product``) must give each distinct normal form exactly
    once and nothing else. Otherwise the distinct normal forms are grouped
    by the tokens before and after their last literal, in sigma or not, and
    a group of two or more is one block whose position there is the set of
    the group's literals. Each block is placed where its first form would
    be, and each of its positions admits a class's members in sigma, one
    literal, every symbol (``_``), every symbol and itself (``%``) or
    nothing (a literal outside sigma, or a class with no member in it). The
    layout is ``naive_packed_masks``'s when nothing merges. ``blocks`` pairs
    every atom occurrence, in preorder, with its shared block's masks.
    """
    unmerged = naive_packed_masks(exprs, sigma)
    if len(exprs) != 1:
        return unmerged
    (e,) = exprs
    if isinstance(e, Or):
        atoms = list(e.children)
    elif isinstance(e, And) and all(isinstance(c, Not) for c in e.children):
        atoms = [c.child for c in e.children]
    else:
        return unmerged
    if not all(isinstance(a, Atom) for a in atoms):
        return unmerged
    forms = list(dict.fromkeys(normalize(a.pattern) for a in atoms))
    in_sigma = set(sigma.symbols)

    def admits(tok) -> object:
        if tok == ANY_STRING:
            return "%"
        if tok == ANY_ONE:
            return "_"
        if isinstance(tok, frozenset):
            return set(tok) & in_sigma
        return {tok.symbol} & in_sigma

    # Per distinct normal form, its block's key and positions.
    block_of: dict[Pattern, tuple[object, list[object]]] = {}
    read = e._read
    if read is not None and all(normalize(a.pattern) == a.pattern for a in atoms):
        distinct = set(forms)
        for i, block in enumerate(read.blocks):
            positions = [admits(tok) for tok in block]
            choices = [
                [Literal(y) for y in sorted(tok)] if isinstance(tok, frozenset) else [tok]
                for tok in block
            ]
            for tokens in itertools.product(*choices):
                form = Pattern(tokens)
                assert form in distinct and form not in block_of, (block, form)
                block_of[form] = i, positions
        assert len(block_of) == len(forms)
    else:
        groups: dict[tuple, list[Pattern]] = {}
        for form in forms:
            literals = [i for i, tok in enumerate(form.tokens) if isinstance(tok, Literal)]
            if literals:
                last = literals[-1]
                key = form.tokens[:last], form.tokens[last + 1 :]
                groups.setdefault(key, []).append(form)
        for key, group in groups.items():
            if len(group) > 1:
                # The group's literals in sigma at the literal's place.
                lits = {form.tokens[len(key[0])].symbol for form in group} & in_sigma
                positions = [*map(admits, key[0]), lits, *map(admits, key[1])]
                for form in group:
                    block_of[form] = key, positions
        if not block_of:
            return unmerged
        for form in forms:
            block_of.setdefault(form, (form, [*map(admits, form.tokens)]))

    literal_at: dict[str, list[int]] = {sym: [] for sym in sigma.symbols}
    any_one_at: list[int] = []
    gap_at: list[int] = []
    start_at: list[int] = []
    masks_of_key: dict[object, tuple[int, int, int]] = {}
    masks_of_form: dict[Pattern, tuple[int, int, int]] = {}
    offset = 0
    for form in forms:
        key, block = block_of[form]
        if key not in masks_of_key:
            reach_from = offset
            for pos, admitted in enumerate(block, offset):
                if admitted == "_":
                    any_one_at.append(pos)
                elif admitted == "%":
                    gap_at.append(pos)
                else:
                    for sym in admitted:
                        literal_at[sym].append(pos)
                    if not admitted:
                        reach_from = pos + 1
            start_at.append(offset)
            if block and block[0] == "%":
                start_at.append(offset + 1)
            accept = 1 << (offset + len(block))
            masks_of_key[key] = (
                accept,
                accept >> 1 if block and block[-1] == "%" else 0,
                (accept << 1) - (1 << reach_from),
            )
            offset += len(block) + 1
        masks_of_form[form] = masks_of_key[key]

    def bits(at: list[int]) -> int:
        return sum(1 << pos for pos in set(at))

    any_one = bits(any_one_at)
    return {
        "moves": tuple((sym, bits(at) | any_one) for sym, at in literal_at.items()),
        "gaps": bits(gap_at),
        "initial": bits(start_at),
        "atoms": len(forms),
        "state_bits": offset,
        "blocks": [(a.pattern, masks_of_form[normalize(a.pattern)]) for a in atoms],
    }


def flat_search_reference(
    e: LikeExpression, layout: dict, max_len: int | None = None
) -> tuple[Text | None, int, bool]:
    """``reference_bfs`` for an OR of atoms or an AND of negated atoms over
    a layout of ``naive_packed_masks`` or ``naive_class_layout``: (witness,
    explored, complete). The OR holds when some block accepts and is dead
    when no bit of any block's reach is set; the AND holds when no block
    accepts and is dead once some block's absorb bit is set."""
    accept = absorb = reach = 0
    for _, (a, b, r) in layout["blocks"]:
        accept, absorb, reach = accept | a, absorb | b, reach | r
    space = SimpleNamespace(
        initial=layout["initial"], moves=layout["moves"], gaps=layout["gaps"]
    )
    if isinstance(e, Or):
        holds, dead = (lambda d: d & accept != 0), (lambda d: d & reach == 0)
    else:
        holds, dead = (lambda d: d & accept == 0), (lambda d: d & absorb != 0)
    return reference_bfs(space, holds, dead, DEFAULT_STATE_BUDGET, max_len)


TRUE_FOREVER, FALSE_FOREVER, UNDECIDED = 1, -1, 0


def naive_forecasts(
    exprs: Sequence[LikeExpression], sigma: Alphabet
) -> tuple[list[tuple[Callable[[int], bool], Callable[[int], int]]], dict]:
    """Each expression's value and three-valued forecast as closures over
    the packed state, compiled node by node with recursion, as a reference.

    A forecast is TRUE_FOREVER or FALSE_FOREVER when the expression keeps
    that value on every extension of the text read so far, and UNDECIDED
    otherwise. An atom is true forever once its absorb bit is set and false
    forever once no bit of its reach is; NOT flips a forecast; AND is false
    forever when a child is and true forever when all are, OR dually. The
    masks come from ``naive_class_layout``, the layout the search compiles,
    which is returned too; an atom in a shared block reads that block's
    masks, which tell the OR of its siblings. Deep expressions need a raised
    recursion limit.
    """
    layout = naive_class_layout(exprs, sigma)
    blocks = iter(layout["blocks"])

    def compile_(e: LikeExpression):
        if isinstance(e, Atom):
            _, (accept, absorb, reach) = next(blocks)

            def atom_fate(d: int) -> int:
                if d & absorb:
                    return TRUE_FOREVER
                if not d & reach:
                    return FALSE_FOREVER
                return UNDECIDED

            return (lambda d: d & accept != 0), atom_fate
        if isinstance(e, Not):
            ev, fate = compile_(e.child)
            return (lambda d: not ev(d)), (lambda d: -fate(d))
        subs = [compile_(c) for c in e.children]
        if isinstance(e, And):
            win, combine = FALSE_FOREVER, all
        else:
            win, combine = TRUE_FOREVER, any

        def gate_fate(d: int) -> int:
            fates = [fate(d) for _, fate in subs]
            if win in fates:
                return win
            return UNDECIDED if UNDECIDED in fates else -win

        return (lambda d: combine(ev(d) for ev, _ in subs)), gate_fate

    return [compile_(e) for e in exprs], layout


def reachable_states(layout: dict, limit: int) -> list[int]:
    """Up to ``limit`` packed states reachable from the start of a
    ``naive_packed_masks`` layout, breadth first, nothing pruned."""
    gaps = layout["gaps"]
    seen = {layout["initial"]: None}
    queue = [layout["initial"]]
    for d in queue:
        for _, on_sym in layout["moves"]:
            nxt = ((d & on_sym) << 1) | (d & gaps)
            nxt |= (nxt & gaps) << 1
            if nxt not in seen and len(seen) < limit:
                seen[nxt] = None
                queue.append(nxt)
    return queue


def reference_bfs(
    comp,
    accept: Callable[[int], bool],
    prune: Callable[[int], bool],
    budget: int,
    max_len: int | None,
    spent: Callable[[int, int], bool] | None = None,
) -> tuple[Text | None, int, bool]:
    """The witness scan over a compiled search, every state expanded: each
    successor is computed and tested with ``prune`` on its own bits, as a
    reference for the search loop, which expands only the moves that the
    counting forecast's carried sets leave. Returns (witness, explored,
    complete) and raises SearchBudgetExceeded at the same point.

    With ``spent``, the scan reads in alphabet order: each state records
    the column of the symbol that reached it and expands only the later
    columns, and a successor reached on column c is pruned too when
    spent(successor, c) holds."""
    start = comp.initial
    visited: dict[int, tuple[int | None, Symbol | None]] = {start: (None, None)}
    queue: deque[tuple[int, int, int]] = deque([(start, 0, -1)])
    complete = True
    while queue:
        state, depth, last = queue.popleft()
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
        for col, (sym, on_sym) in enumerate(comp.moves):
            if spent is not None and col <= last:
                continue
            nxt = ((state & on_sym) << 1) | (state & comp.gaps)
            nxt |= (nxt & comp.gaps) << 1
            if nxt in visited or prune(nxt):
                continue
            if spent is not None and spent(nxt, col):
                continue
            if at_cap:
                complete = False
                break
            if len(visited) >= budget:
                raise SearchBudgetExceeded(len(visited))
            visited[nxt] = (state, sym)
            queue.append((nxt, depth + 1, col))
    return None, len(visited), complete


def reference_separator(
    e1: LikeExpression, e2: LikeExpression, sigma: Alphabet, max_len: int | None
) -> tuple[Text | None, bool]:
    """The shortest text on which e1 and e2 disagree, first in alphabet order
    among those, as (witness, complete): one joint ``reference_bfs`` over
    the ``naive_packed_masks`` states that accepts where the two values
    differ and prunes where the three-valued forecasts of ``naive_forecasts``
    say both are false forever or both true forever. That prune never cuts
    a separator; without it any state a ``max_len`` cut off, dead or not,
    would make the scan incomplete."""
    (ev1, fate1), (ev2, fate2) = naive_forecasts([e1, e2], sigma)[0]
    layout = naive_packed_masks([e1, e2], sigma)
    space = SimpleNamespace(
        initial=layout["initial"], moves=layout["moves"], gaps=layout["gaps"]
    )

    def agree_forever(d: int) -> bool:
        f1 = fate1(d)
        return f1 != UNDECIDED and f1 == fate2(d)

    witness, _, complete = reference_bfs(
        space,
        lambda d: ev1(d) != ev2(d),
        agree_forever,
        DEFAULT_STATE_BUDGET,
        max_len,
    )
    return witness, complete


# --- the counting forecast on one packed state -------------------------------
#
# A naive reference for the counting forecast the search compiles (see the
# module docstring of likekit.automata). ``naive_counting`` builds a record
# of its own from the expression's family, read off ``normalize``, and from
# the bits the compile gives each normal form; it never reads the library's
# counting record. The others read that naive record and one packed state
# bit by bit.


def naive_family(
    e: LikeExpression,
) -> tuple[tuple[Token, ...], list[set[Symbol]], list[set[Symbol]]] | None:
    """The counting family read off ``normalize``: the length atom's normal
    form and the symbol sets of the members and of the bound conjuncts
    (every conjunct of the member shape not taken as a member), or None."""
    if not isinstance(e, And):
        return None
    length, members, others, used = None, [], [], set()
    for c in e.children:
        atoms = c.children if isinstance(c, Or) else (c,)
        if not all(isinstance(a, Atom) for a in atoms):
            continue
        forms = [normalize(a.pattern).tokens for a in atoms]
        if all(
            len(f) == 3
            and f[0] is ANY_STRING
            and f[2] is ANY_STRING
            and isinstance(f[1], Literal)
            for f in forms
        ):
            symbols = {f[1].symbol for f in forms}
            if not symbols & used:
                members.append(symbols)
                used |= symbols
            else:
                others.append(symbols)
        elif length is None and isinstance(c, Atom) and ANY_STRING not in forms[0]:
            length = forms[0]
    if length is None or not members:
        return None
    return length, members, others


def naive_counting(comp, e: LikeExpression) -> SimpleNamespace | None:
    """e's ``naive_family`` laid out on the compile's blocks, or None. The
    length atom's block is ``span`` and ``room`` its token count. Each of
    ``members`` is a member's settled mask, the trailing % bits of the
    ``%x%`` blocks of its symbols, and ``symbols`` holds its symbol set.
    Each of ``bound`` is a bound conjunct's settled mask and the member set
    holding one of its symbols in sigma, the symbols of the compile's
    moves, and ``clauses`` holds each one's symbol set. Block i of the
    compile owns bits ``_bounds[i]`` up to ``_bounds[i + 1] - 1``, its
    accept bit last."""
    family = naive_family(e)
    if family is None:
        return None
    length, members, others = family
    forms, bounds = comp._forms, comp._bounds

    def trailing(symbols: set[Symbol]) -> int:
        return sum(
            1 << bounds[forms.index((ANY_STRING, Literal(x), ANY_STRING)) + 1] - 2
            for x in symbols
        )

    at = forms.index(length)
    readable = {sym for sym, _ in comp.moves}
    in_sigma = [m & readable for m in members]
    return SimpleNamespace(
        span=(1 << bounds[at + 1]) - (1 << bounds[at]),
        room=len(length),
        members=[trailing(m) for m in members],
        symbols=members,
        bound=[
            (trailing(s), sum(1 << i for i, m in enumerate(in_sigma) if m & s))
            for s in others
        ],
        clauses=others,
    )


def _bit_positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _any_bit(d: int, mask: int) -> bool:
    return any(d >> i & 1 for i in _bit_positions(mask))


def counting_unsettled(ref, d: int) -> int:
    """The member set (bit i for member i) of the members that no symbol
    read in d has settled: none of a member's trailing % bits is set."""
    return sum(1 << i for i, mask in enumerate(ref.members) if not _any_bit(d, mask))


def counting_settled(ref, d: int) -> int:
    """The bound set (bit j for bound conjunct j) of the bound conjuncts
    settled in d: one of the conjunct's trailing % bits is set."""
    return sum(1 << j for j, (mask, _) in enumerate(ref.bound) if _any_bit(d, mask))


def counting_slack(ref, d: int) -> int:
    """The symbols the length atom still needs after d, less the members
    still unsettled; -1 when the length atom's block has no bit set. The
    length atom has no %, so its block holds one bit at most: the position
    after the symbols read so far."""
    read = [k for k, i in enumerate(_bit_positions(ref.span)) if d >> i & 1]
    if not read:
        return -1
    (depth,) = read
    return ref.room - depth - bin(counting_unsettled(ref, d)).count("1")


def counting_dead_bound(ref, d: int) -> int:
    """The bound set of the bound conjuncts dead in d, read as a tight
    state (slack 0), where the rest of the text is one symbol of each
    unsettled member: the conjunct is unsettled, and no member that holds
    one of its symbols is unsettled."""
    unsettled = counting_unsettled(ref, d)
    return sum(
        1 << j
        for j, (mask, holders) in enumerate(ref.bound)
        if not _any_bit(d, mask)
        and not any(unsettled >> i & 1 for i in _bit_positions(holders))
    )


def counting_bound_dead(ref, d: int) -> bool:
    """Whether some bound conjunct is dead in d, read as a tight state."""
    return counting_dead_bound(ref, d) != 0


# --- a small classical regex engine ------------------------------------------
#
# Grammar of the notation the package emits: union with +, grouping with
# parentheses, Kleene star, juxtaposition for concatenation, single
# characters as symbols. Matching is a memoized end-position search.


def _regex_parse(src: str) -> tuple[list[tuple], int]:
    nodes: list[tuple] = []

    def add(node: tuple) -> int:
        nodes.append(node)
        return len(nodes) - 1

    pos = 0

    def parse_alt() -> int:
        nonlocal pos
        branches = [parse_cat()]
        while pos < len(src) and src[pos] == "+":
            pos += 1
            branches.append(parse_cat())
        if len(branches) == 1:
            return branches[0]
        return add(("alt", tuple(branches)))

    def parse_cat() -> int:
        nonlocal pos
        items: list[int] = []
        while pos < len(src) and src[pos] not in ")+":
            items.append(parse_rep())
        if len(items) == 1:
            return items[0]
        return add(("cat", tuple(items)))

    def parse_rep() -> int:
        nonlocal pos
        if src[pos] == "(":
            pos += 1
            inner = parse_alt()
            assert pos < len(src) and src[pos] == ")", "unbalanced parentheses"
            pos += 1
            node = inner
        else:
            assert src[pos] != "*", "stray star"
            node = add(("sym", src[pos]))
            pos += 1
        while pos < len(src) and src[pos] == "*":
            node = add(("star", node))
            pos += 1
        return node

    root = parse_alt()
    assert pos == len(src), f"trailing regex input at {pos}"
    return nodes, root


def regex_matches(regex: str, text: Sequence[str]) -> bool:
    nodes, root = _regex_parse(regex)
    memo: dict[tuple[int, int], frozenset[int]] = {}

    def ends(node_id: int, start: int) -> frozenset[int]:
        key = (node_id, start)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = frozenset()  # cycle guard for star
        kind = nodes[node_id][0]
        if kind == "sym":
            sym = nodes[node_id][1]
            out = (
                frozenset((start + 1,))
                if start < len(text) and text[start] == sym
                else frozenset()
            )
        elif kind == "cat":
            fronts = {start}
            for child in nodes[node_id][1]:
                fronts = {e for f in fronts for e in ends(child, f)}
            out = frozenset(fronts)
        elif kind == "alt":
            out = frozenset(
                e for child in nodes[node_id][1] for e in ends(child, start)
            )
        else:
            child = nodes[node_id][1]
            reached = {start}
            frontier = {start}
            while frontier:
                step = {e for f in frontier for e in ends(child, f)}
                frontier = step - reached
                reached |= frontier
            out = frozenset(reached)
        memo[key] = out
        return out

    if not regex:
        return len(text) == 0
    return len(text) in ends(root, 0)


# --- machines used across tests -----------------------------------------------


def m_one_step() -> tuple[TmSpec, tuple[str, ...], int]:
    """Reads the single 1, blanks it, accepts. One rule, one cell."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("1", "_blank"),
        input_alphabet=("1",),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "1", "qa", "_blank", "L"),),
    )
    return spec, ("1",), 1


def m_bouncer(space: int) -> tuple[TmSpec, tuple[str, ...], int]:
    """Walks right over the 1s, then walks left erasing them, accepts."""
    spec = TmSpec(
        states=("q0", "q1", "qa"),
        tape_alphabet=("1", "b"),
        input_alphabet=("1",),
        start="q0",
        accept="qa",
        rules=(
            TmRule("q0", "1", "q0", "1", "R"),
            TmRule("q0", "b", "q1", "b", "L"),
            TmRule("q1", "1", "q1", "b", "L"),
            TmRule("q1", "b", "qa", "b", "L"),
        ),
        blank="b",
    )
    return spec, ("1",) * (space - 1), space


def m_counter(space: int) -> tuple[TmSpec, tuple[str, ...], int]:
    """Counts in binary between a start and an end marker, lowest bit
    first, until the carry reaches the end marker; then erases the tape
    and accepts. The run takes 2^space - 1 steps."""
    spec = TmSpec(
        states=("inc", "back", "erase", "qa"),
        tape_alphabet=("s", "0", "1", "e", "b"),
        input_alphabet=("s", "0", "e"),
        start="inc",
        accept="qa",
        rules=(
            TmRule("inc", "s", "inc", "s", "R"),
            TmRule("inc", "0", "back", "1", "L"),
            TmRule("inc", "1", "inc", "0", "R"),
            TmRule("inc", "e", "erase", "b", "L"),
            TmRule("back", "0", "back", "0", "L"),
            TmRule("back", "1", "back", "1", "L"),
            TmRule("back", "s", "inc", "s", "R"),
            TmRule("erase", "0", "erase", "b", "L"),
            TmRule("erase", "s", "qa", "b", "L"),
        ),
        blank="b",
    )
    return spec, ("s",) + ("0",) * (space - 2) + ("e",), space


def m_loop() -> tuple[TmSpec, tuple[str, ...], int]:
    """Spins in place forever at cell 0."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("b",),
        input_alphabet=(),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "b", "q0", "b", "L"),),
        blank="b",
    )
    return spec, (), 1


def m_stuck() -> tuple[TmSpec, tuple[str, ...], int]:
    """Halts immediately: no rule covers the starting read."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("1", "b"),
        input_alphabet=("1",),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "1", "qa", "b", "L"),),
        blank="b",
    )
    return spec, (), 1


def m_edge_fall() -> tuple[TmSpec, tuple[str, ...], int]:
    """Runs right off the last cell and halts without accepting."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("b",),
        input_alphabet=(),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "b", "q0", "b", "R"),),
        blank="b",
    )
    return spec, (), 2


def m_dirty_accept() -> tuple[TmSpec, tuple[str, ...], int]:
    """Enters the accept state with a 1 still on the tape."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("1", "b"),
        input_alphabet=("1",),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "1", "qa", "1", "R"),),
        blank="b",
    )
    return spec, ("1",), 2


def m_wide(symbols: int) -> tuple[TmSpec, tuple[str, ...], int]:
    """Two states and this many tape symbols; blanks its first cell and
    accepts. Its gadget grows with the fourth power of the alphabet."""
    spec = TmSpec(
        states=("q0", "qa"),
        tape_alphabet=("b", *(f"t{i}" for i in range(1, symbols))),
        input_alphabet=("t1",),
        start="q0",
        accept="qa",
        rules=(TmRule("q0", "b", "qa", "b", "L"),),
        blank="b",
    )
    return spec, (), 1


def random_machine(rng: random.Random) -> tuple[TmSpec, tuple[str, ...], int]:
    """A machine of 2-4 states and 1-3 tape symbols whose rules cover each
    (state, symbol) pair off the accept state with probability 0.8, with a
    random input word at a random space of 1-4 cells."""
    states = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
    tape = ("b", *(f"t{i}" for i in range(1, rng.randint(1, 3))))
    rules = tuple(
        TmRule(q, y, rng.choice(states), rng.choice(tape), rng.choice("LR"))
        for q in states[:-1]
        for y in tape
        if rng.random() < 0.8
    )
    spec = TmSpec(states, tape, tape[1:], states[0], states[-1], rules, blank="b")
    space = rng.randint(1, 4)
    word = tuple(rng.choice(tape[1:]) for _ in range(rng.randint(0, space))) if tape[1:] else ()
    return spec, word, space


def machine_json(spec: TmSpec) -> str:
    """The machine as ``tm_from_json`` reads it, its blank named ``_blank``."""

    def name(sym: str) -> str:
        return "_blank" if sym == spec.blank else sym

    rules = [
        dict(state=r.state, read=name(r.read), next=r.next, write=name(r.write), move=r.move)
        for r in spec.rules
    ]
    return json.dumps(
        {
            "states": list(spec.states),
            "tape_alphabet": [name(y) for y in spec.tape_alphabet],
            "input_alphabet": list(spec.input_alphabet),
            "start": spec.start,
            "accept": spec.accept,
            "delta": rules,
        }
    )


def reference_encode_tm(
    spec: TmSpec, word: Sequence[str], space: int
) -> tuple[LikeExpression, Alphabet]:
    """The machine-history gadget with every wrong window triple listed.

    Same families and order as ``encode_tm``, except that the window
    around the head forbids each of the |lam|^3 - 1 wrong triples
    ``(d, e, f)`` by its own pattern. Valid arguments are assumed.
    """
    s = space
    sep = "#"
    gamma = tuple(spec.tape_alphabet)
    lam = gamma + tuple(spec.states) + (sep,)
    delta = {(r.state, r.read) for r in spec.rules}
    lit = {y: Literal(y) for y in lam}
    one, gap = ANY_ONE, ANY_STRING
    forbidden: list[tuple[Token, ...]] = []

    for j in range(s + 3):
        forbidden.append((one,) * j)
    head = (sep, spec.start) + tuple(word) + (spec.blank,) * (s - len(word))
    for j, want in enumerate(head):
        for y in lam:
            if y != want:
                forbidden.append((one,) * j + (lit[y], gap))
    tail = (sep,) + (spec.blank,) * s + (spec.accept,)
    for i, want in enumerate(tail, start=1):
        for y in lam:
            if y != want:
                forbidden.append((gap, lit[y]) + (one,) * (i - 1))
    for j in range(1, s + 2):
        forbidden.append((gap, lit[sep]) + (one,) * (j - 1) + (lit[sep], gap))
    for y in lam:
        if y != sep:
            forbidden.append((gap, lit[sep]) + (one,) * (s + 1) + (lit[y], gap))
    for rule in spec.rules:
        for a in (sep,) + gamma:
            if rule.move == "R":
                target = (a, rule.write, rule.next)
            elif a == sep:
                target = (sep, rule.next, rule.write)
            else:
                target = (rule.next, a, rule.write)
            for triple in itertools.product(lam, repeat=3):
                if triple != target:
                    forbidden.append(
                        (gap, lit[a], lit[rule.state], lit[rule.read])
                        + (one,) * (s - 1)
                        + tuple(lit[y] for y in triple)
                        + (gap,)
                    )
    quiet = (sep,) + gamma
    for a, b, c in itertools.product(quiet, repeat=3):
        for d in lam:
            if d != b:
                forbidden.append(
                    (gap, lit[a], lit[b], lit[c]) + (one,) * s + (lit[d], gap)
                )
    for q in spec.states:
        if q != spec.accept:
            for b in gamma:
                if (q, b) not in delta:
                    forbidden.append((gap, lit[q], lit[b], gap))
    for rule in spec.rules:
        if rule.move == "R":
            forbidden.append((gap, lit[rule.state], lit[rule.read], lit[sep], gap))
    forbidden.append((gap, lit[spec.accept], gap, lit[sep], gap, lit[sep], gap))
    return and_(*[Not(Atom(Pattern(t))) for t in forbidden]), Alphabet(lam)


def short_digest(lines: Iterable[str]) -> str:
    """The first 16 hex digits of the SHA-256 of ``lines``, one per line."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
