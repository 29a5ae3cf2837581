"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals it
is used to check: the regex engine is a plain backtracker, satisfiability
is brute forced, and shortest witnesses come from direct enumeration.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Iterator, Sequence

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    And,
    Atom,
    Cnf,
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


def alternating_chain(depth: int, leaf: LikeExpression) -> LikeExpression:
    """AND(%a%, OR(%b%, AND(%a%, ... leaf))) with ``depth`` gates, built in
    the library, past any nesting limit of the parser."""
    a = Atom(Pattern((ANY_STRING, Literal("a"), ANY_STRING)))
    b = Atom(Pattern((ANY_STRING, Literal("b"), ANY_STRING)))
    e = leaf
    for i in reversed(range(depth)):
        e = And((a, e)) if i % 2 == 0 else Or((b, e))
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


def sorted_unfalsified_prefixes(formula: Cnf) -> int:
    """How many literal sequences, read in the 3-CNF gadget's alphabet
    order (x1..xn, then ~x1..~xn), are consistent, falsify no clause, and
    still have a later literal for every unset variable.

    Each sequence is a run of increasing positions in that order. A
    sequence failing one of the three conditions fails it on every
    extension, so the walk does not extend it.
    """
    n = formula.n_vars
    order = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    clauses = [({abs(lit) for lit in c}, set(c)) for c in formula.clauses]
    # The variables with a literal at each position or later.
    later = [{abs(lit) for lit in order[i:]} for i in range(2 * n + 1)]
    every = set(range(1, n + 1))

    def kept(seq: list[int]) -> bool:
        lits = {order[i] for i in seq}
        if any(-lit in lits for lit in lits):
            return False
        set_vars = {abs(lit) for lit in lits}
        if any(vs <= set_vars and not lits & c for vs, c in clauses):
            return False
        return every <= set_vars | later[seq[-1] + 1 if seq else 0]

    total = 0
    todo: list[list[int]] = [[]]
    while todo:
        seq = todo.pop()
        if kept(seq):
            total += 1
            start = seq[-1] + 1 if seq else 0
            todo += [seq + [i] for i in range(start, 2 * n)]
    return total


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
    masks come from ``naive_packed_masks``, which is returned too. Deep
    expressions need a raised recursion limit.
    """
    layout = naive_packed_masks(exprs, sigma)
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
