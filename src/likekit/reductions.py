"""Hardness gadgets: pattern encodings of counting, satisfiability, and
bounded-space machine acceptance.

Three constructions live here. The majority gadget is a single pattern
whose matches among length-n bit strings are exactly those with more
ones than zeros. The 3-CNF encoding turns a formula into a monotone
expression whose witnesses are satisfying assignments. The machine
encoding turns a deterministic single-tape machine restricted to s tape
cells into a conjunction of negated patterns whose language is either
exactly the accepting computation history or empty.

A history is written as token blocks separated by ``#``:

    # c0 # c1 # ... # ck #

where each config lists the s tape cells with the state symbol inserted
just before the head cell, giving s+1 symbols per block. A move left at
cell 0 leaves the head in place; a move right off the last cell halts
the machine without accepting. Acceptance requires the accept state on
an all-blank tape with the head at cell 0.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .automata import _Read
from .expression import Atom, LikeExpression, _deferred, and_, or_
from .pattern import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    Literal,
    Pattern,
    Symbol,
    Token,
    _Record,
)

# --- 3-CNF ------------------------------------------------------------------


class Cnf(_Record):
    """A 3-CNF formula: clauses are triples of nonzero literal integers.
    A count or literal whose type is not ``int`` (``bool`` included) is
    refused with ``ValueError``."""

    __slots__ = __match_args__ = ("n_vars", "clauses")
    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __init__(self, n_vars: int, clauses: Iterable[Iterable[int]]) -> None:
        if type(n_vars) is not int:
            raise ValueError(f"variable count {n_vars!r} is not an integer")
        if n_vars < 1:
            raise ValueError("formula needs at least one variable")
        clauses = tuple(map(tuple, clauses))
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} does not have three literals")
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(f"literal {lit!r} is not an integer")
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} out of range")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "clauses", clauses)


def _dimacs_int(token: str) -> int:
    """A DIMACS number: ASCII digits with an optional leading ``-``."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a DIMACS integer: {token!r}")
    return int(token)


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF with exactly three literals per clause. One problem
    line ``p cnf <variables> <clauses>``, with counts not below zero, comes
    before every clause. Counts and literals are ASCII digits with an
    optional leading ``-``."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"second problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            header = _dimacs_int(parts[2]), _dimacs_int(parts[3])
            if min(header) < 0:
                raise ValueError(f"negative count in problem line: {line!r}")
            continue
        if header is None:
            raise ValueError(f"clause before the problem line: {line!r}")
        # A 0 closes the clause; Cnf checks that it has three literals.
        for lit in map(_dimacs_int, line.split()):
            if lit:
                current.append(lit)
            else:
                clauses.append(tuple(current))
                current = []
    if header is None:
        raise ValueError("missing problem line")
    if current:
        raise ValueError("unterminated clause")
    n_vars, n_clauses = header
    if len(clauses) != n_clauses:
        raise ValueError(f"expected {n_clauses} clauses, found {len(clauses)}")
    return Cnf(n_vars, clauses)


def _lit_symbol(lit: int) -> Symbol:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


def encode_3sat(formula: Cnf) -> tuple[LikeExpression, Alphabet]:
    """Monotone expression satisfiable over the literal alphabet iff the
    formula is satisfiable.

    Witnesses have length n_vars and carry one literal symbol per
    variable; a clause conjunct demands one of its literals somewhere in
    the text, and the per-variable conjuncts rule out texts that skip or
    contradict a variable.
    """
    n = formula.n_vars
    lits = (*range(1, n + 1), *range(-1, -n - 1, -1))
    # One %x% atom per literal, shared by every conjunct that names it.
    contains = {
        lit: Atom(Pattern((ANY_STRING, Literal(_lit_symbol(lit)), ANY_STRING)))
        for lit in lits
    }
    parts: list[LikeExpression] = [Atom(Pattern((ANY_ONE,) * n))]
    for v in range(1, n + 1):
        parts.append(or_(contains[v], contains[-v]))
    for clause in formula.clauses:
        parts.append(or_(*[contains[lit] for lit in clause]))
    return and_(*parts), Alphabet(tuple(map(_lit_symbol, lits)))


def decode_3sat_witness(formula: Cnf, witness: Sequence[Symbol]) -> tuple[bool, ...]:
    """Read an assignment off a witness text; raises on inconsistent input."""
    present = set(witness)
    values: list[bool] = []
    for v in range(1, formula.n_vars + 1):
        pos = _lit_symbol(v) in present
        neg = _lit_symbol(-v) in present
        if pos == neg:
            raise ValueError(f"witness does not decide variable {v}")
        values.append(pos)
    return tuple(values)


# --- majority ---------------------------------------------------------------


def encode_majority(n: int) -> Pattern:
    """Pattern matching exactly the length-n bit strings with ones in the
    majority, i.e. at least (n+2)//2 of them."""
    if n < 1:
        raise ValueError("text length must be positive")
    need = (n + 2) // 2
    tokens: list[Token] = [ANY_STRING]
    for _ in range(need):
        tokens.append(Literal("1"))
        tokens.append(ANY_STRING)
    return Pattern(tuple(tokens))


# --- bounded-space machines ---------------------------------------------------

_MOVES = ("L", "R")
_SEPARATOR = "#"


def _check_name(name: str, what: str) -> None:
    if not name or name in ("%", "_"):
        raise ValueError(f"bad {what} name {name!r}")
    for ch in name:
        if ch.isspace() or ch in '"\\':
            raise ValueError(f"bad {what} name {name!r}")


class TmRule(_Record):
    __slots__ = __match_args__ = ("state", "read", "next", "write", "move")
    state: str
    read: str
    next: str
    write: str
    move: str

    def __init__(self, state: str, read: str, next: str, write: str, move: str) -> None:
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "next", next)
        object.__setattr__(self, "write", write)
        object.__setattr__(self, "move", move)


class TmSpec(_Record):
    """Deterministic single-tape machine with a distinguished accept state.

    The accept state has no outgoing rules; states and tape symbols are
    disjoint name sets, and the separator ``#`` is reserved.
    """

    __match_args__ = (
        "states",
        "tape_alphabet",
        "input_alphabet",
        "start",
        "accept",
        "rules",
        "blank",
    )
    # delta: (state, read) -> rule, built from ``rules``.
    __slots__ = (*__match_args__, "delta")
    states: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    start: str
    accept: str
    rules: tuple[TmRule, ...]
    blank: str
    delta: dict[tuple[str, str], TmRule]

    def __init__(
        self,
        states: Iterable[str],
        tape_alphabet: Iterable[str],
        input_alphabet: Iterable[str],
        start: str,
        accept: str,
        rules: Iterable[TmRule],
        blank: str = "_blank",
    ) -> None:
        states, tape_alphabet, input_alphabet, rules = (
            v if isinstance(v, tuple) else tuple(v)
            for v in (states, tape_alphabet, input_alphabet, rules)
        )
        state_set, tape = set(states), set(tape_alphabet)
        if len(state_set) != len(states) or len(tape) != len(tape_alphabet):
            raise ValueError("duplicate state or tape symbol names")
        if state_set & tape:
            raise ValueError("states and tape symbols must use disjoint names")
        if _SEPARATOR in state_set | tape:
            raise ValueError(f"{_SEPARATOR!r} is reserved for the history separator")
        for name in states:
            _check_name(name, "state")
        for name in tape_alphabet:
            _check_name(name, "tape symbol")
        if start not in state_set or accept not in state_set:
            raise ValueError("start and accept must be listed states")
        if blank not in tape:
            raise ValueError("blank symbol must be in the tape alphabet")
        if not set(input_alphabet) <= tape:
            raise ValueError("input alphabet must be part of the tape alphabet")
        if blank in input_alphabet:
            raise ValueError("blank cannot be an input symbol")
        delta: dict[tuple[str, str], TmRule] = {}
        for rule in rules:
            if rule.state not in state_set or rule.next not in state_set:
                raise ValueError(f"rule {rule} uses an unknown state")
            if rule.read not in tape or rule.write not in tape:
                raise ValueError(f"rule {rule} uses an unknown tape symbol")
            if rule.move not in _MOVES:
                raise ValueError(f"rule {rule} has move {rule.move!r}")
            if rule.state == accept:
                raise ValueError("the accept state cannot have outgoing rules")
            key = (rule.state, rule.read)
            if key in delta:
                raise ValueError(f"duplicate rule for {key}")
            delta[key] = rule
        values = (states, tape_alphabet, input_alphabet, start, accept, rules, blank, delta)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


def tm_from_json(text: str) -> TmSpec:
    """Machine description as a JSON object.

    Keys: the lists states, tape_alphabet (must contain "_blank"),
    input_alphabet and delta (of {state, read, next, write, move}), and
    the names start and accept. A value of the wrong JSON type is refused.
    """
    import json

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("machine description nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("machine description must be a JSON object")
    for key in ("states", "tape_alphabet", "input_alphabet", "delta"):
        if not isinstance(data.get(key, []), list):
            raise ValueError(f"machine description: {key!r} must be a JSON list")
    try:
        rules = tuple(
            TmRule(r["state"], r["read"], r["next"], r["write"], r["move"])
            for r in data["delta"]
        )
        spec = TmSpec(
            states=tuple(data["states"]),
            tape_alphabet=tuple(data["tape_alphabet"]),
            input_alphabet=tuple(data["input_alphabet"]),
            start=data["start"],
            accept=data["accept"],
            rules=rules,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad machine description: {exc}") from exc
    return spec


class TmRunResult(_Record):
    """A bounded-space run: ``complete`` is false only when ``max_steps``
    stopped a run that had not accepted, halted or repeated a
    configuration."""

    __slots__ = __match_args__ = ("accepted", "history", "steps", "complete")
    accepted: bool
    history: tuple[Symbol, ...]
    steps: int
    complete: bool

    def __init__(
        self, accepted: bool, history: tuple[Symbol, ...], steps: int, complete: bool = True
    ) -> None:
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "history", history)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "complete", complete)


def _check_run_args(spec: TmSpec, word: Sequence[str], space: int) -> tuple[str, ...]:
    w = tuple(word)
    if space < 1:
        raise ValueError("space must be positive")
    if len(w) > space:
        raise ValueError("input longer than the available space")
    for sym in w:
        if sym not in spec.input_alphabet:
            raise ValueError(f"input symbol {sym!r} not in the input alphabet")
    return w


def simulate_tm(
    spec: TmSpec, word: Sequence[str], space: int, max_steps: int | None = None
) -> TmRunResult:
    """Run the machine on ``word`` using exactly ``space`` tape cells.

    The run halts on accept, on a missing rule, on moving right off the
    last cell, on revisiting a configuration, or after max_steps rules;
    only the last leaves the result incomplete. The history lists every
    configuration reached, a repeat excluded.
    """
    w = _check_run_args(spec, word, space)
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must not be negative")
    # The configuration as its history block: the tape with the state
    # at ``cells[at]``, just before the head cell, then the separator.
    # States and tape symbols are disjoint, so a block names exactly one
    # configuration, and the blocks reached, in order, are the history.
    cells = [spec.start, *w, *(spec.blank,) * (space - len(w)), _SEPARATOR]
    at = 0
    delta = spec.delta
    blocks: dict[tuple[Symbol, ...], None] = {}
    steps = 0
    complete = True
    while True:
        block = tuple(cells)
        if block in blocks:
            break
        blocks[block] = None
        # The accept state has no rules, so an accepted run stops here.
        rule = delta.get((cells[at], cells[at + 1]))
        if rule is None or (rule.move == "R" and at == space - 1):
            break
        if max_steps is not None and steps >= max_steps:
            complete = False
            break
        if rule.move == "R":
            cells[at] = rule.write
            at += 1
        else:
            cells[at + 1] = rule.write
            if at > 0:
                cells[at] = cells[at - 1]
                at -= 1
        cells[at] = rule.next
        steps += 1
    accepted = block == (spec.accept, *(spec.blank,) * space, _SEPARATOR)
    history = tuple(chain((_SEPARATOR,), *blocks))
    return TmRunResult(accepted, history, steps, complete)


def _tm_gadget_tokens(spec: TmSpec, space: int) -> int:
    """The number of tokens in ``encode_tm``'s patterns for this machine
    and space, in closed form, so that a caller can refuse an oversized
    gadget before building it. It grows with the square of the space and
    the fourth power of the machine's alphabet."""
    s, g, rules = space, len(spec.tape_alphabet), len(spec.rules)
    right = sum(rule.move == "R" for rule in spec.rules)
    # The tokens of forbid_other's patterns, one pattern per wrong symbol of
    # lam: for the first and last blocks, the separators' period, the
    # window around the state and the cells away from it.
    per_wrong = (s + 3) * (s + 5) + 3 * rules * (g + 1) * (s + 7) + (g + 1) ** 3 * (s + 6)
    # Then the patterns for too short a text, too short a separator period,
    # halts, falls off the last cell and the accept state too early.
    rest = (s + 2) ** 2 + 3 * (s + 1) + 4 * ((len(spec.states) - 1) * g - rules)
    return (g + len(spec.states)) * per_wrong + rest + 5 * right + 7


def _tm_gadget_patterns(spec: TmSpec, space: int) -> int:
    """The number of patterns in ``encode_tm``'s gadget for this machine and
    space, in closed form, so that a caller can refuse an oversized gadget
    before building it. Each pattern costs records and a token tuple
    whatever its length, so a gadget of many short patterns takes far more
    memory than its token count tells. It grows linearly with the space and
    with the fourth power of the machine's alphabet."""
    s, g, rules = space, len(spec.tape_alphabet), len(spec.rules)
    right = sum(rule.move == "R" for rule in spec.rules)
    # forbid_other's families, one pattern per wrong symbol of lam each: the
    # first and last blocks, the separators' period, the window around the
    # state and the cells away from it.
    families = 2 * (s + 2) + 1 + 3 * rules * (g + 1) + (g + 1) ** 3
    # Then the patterns for too short a text, too short a separator period,
    # halts, falls off the last cell and the accept state too early.
    rest = (s + 3) + (s + 1) + (len(spec.states) - 1) * g - rules + right + 1
    return (g + len(spec.states)) * families + rest


def encode_tm(
    spec: TmSpec, word: Sequence[str], space: int
) -> tuple[LikeExpression, Alphabet]:
    """Conjunction of negated patterns whose language over the returned
    alphabet is the accepting history of the run, or empty.

    Every generated pattern forbids one way a string can fail to be that
    history: wrong first or last configuration, misplaced separators,
    tape cells changing away from the head, a window around the head not
    following the machine's rule, a non-accepting halt, or the accept
    state before the final block.

    A window that breaks the rule is forbidden by its first wrong symbol,
    with ``_`` after it, so each (rule, left neighbour) costs
    3 x (|alphabet| - 1) patterns rather than one per wrong triple. The
    language is exact over the returned alphabet; over a larger one the
    ``_`` positions also forbid foreign symbols.

    The returned AND also carries what was known as it was built, for the
    search compile: a read (``automata._Read``) filled as the patterns are
    made, holding their token tuples, distinct and normal, in order, and
    their families over the returned alphabet, each one block: a rule
    family alike but for its last literal, keyed by the tokens around it,
    and three product families with a class wherever they vary, namely
    the carry-over rule per middle symbol, a left move's first window
    piece, and the first window pieces after ``#`` when the rules'
    (state, read) keys form a full product. It is held outside the
    record's fields, so equality, hashing, repr and pickling are those of
    ``And(children)``, and a copy or pickle drops it. The AND holds only
    that read until its children are first read, and then builds them
    once, as the negated atoms of those forms: a ``find_witness`` over the
    returned alphabet never reads them, so it never builds them. Nor does
    one of ``and_(expr, *fences)``, fences being negated atoms over that
    alphabet: that AND holds a copy of the read with the fences' forms
    added, and builds no record either.
    """
    w = _check_run_args(spec, word, space)
    s = space
    gamma = spec.tape_alphabet
    lam = tuple(gamma) + tuple(spec.states) + (_SEPARATOR,)
    delta = spec.delta

    sigma = Alphabet(lam)
    lit = {y: Literal(y) for y in lam}
    # No set is needed to keep the patterns distinct. The families below
    # differ in length or in where % and _ stand, but for "% q b %" against
    # "% # # %", and no state is the separator. Within a family the loops
    # range over distinct names: lam has no duplicates, delta keys are unique.
    # The window rule's three pieces per (rule, left neighbour) differ in how
    # many `_` close them, so they are distinct too.
    # The forbidden token tuples, in order, and their families' blocks over
    # lam; they become records only when the And's children are read.
    read = _Read(frozenset(lam))

    # Per wanted symbol, every other symbol of lam and its one-token run.
    others = {
        want: ([(lit[y],) for y in lam if y != want], tuple(y for y in lam if y != want))
        for want in lam
    }

    def forbid_other(before: tuple[Token, ...], want: Symbol, after: tuple[Token, ...]) -> None:
        # Every symbol of lam but the wanted one, between the two runs. The
        # runs after are all % and _, so these forms are one family, keyed
        # by the runs.
        ones, symbols = others[want]
        read.add_family((before, after), [before + one + after for one in ones], symbols)

    # Strings shorter than one full block cannot be histories.
    read.add_forms([(ANY_ONE,) * j for j in range(s + 3)])

    # The first block spells the starting configuration.
    head_template = (_SEPARATOR, spec.start) + w + (spec.blank,) * (s - len(w))
    for j, want in enumerate(head_template):
        forbid_other((ANY_ONE,) * j, want, (ANY_STRING,))

    # The last block spells the accepting configuration, read from the end.
    tail_template = (_SEPARATOR,) + (spec.blank,) * s + (spec.accept,)
    for i, want in enumerate(tail_template, start=1):
        forbid_other((ANY_STRING,), want, (ANY_ONE,) * (i - 1))

    # Separators recur at period s+2 and never sooner.
    sep = lit[_SEPARATOR]
    read.add_forms([(ANY_STRING, sep) + (ANY_ONE,) * j + (sep, ANY_STRING) for j in range(s + 1)])
    forbid_other((ANY_STRING, sep) + (ANY_ONE,) * (s + 1), _SEPARATOR, (ANY_STRING,))

    # The three tokens around the state must evolve by the machine's rule.
    # Two kinds of first pieces (k = 0) are products, one block each
    # with a class wherever its forms differ: a left move's over every a in
    # gamma, whose first target symbol is the next state whatever a is, and,
    # when the rules' (state, read) keys form a full product, every rule's
    # with a = #, whose first target symbol is #.
    states = tuple(dict.fromkeys(rule.state for rule in spec.rules))
    reads = tuple(dict.fromkeys(rule.read for rule in spec.rules))
    across = len(states) * len(reads) == len(spec.rules)

    def one_of(ys: tuple[Symbol, ...]) -> object:
        return lit[ys[0]] if len(ys) == 1 else frozenset(ys)

    late = (ANY_ONE,) * (s - 1)
    afters = [(ANY_ONE,) * (2 - k) + (ANY_STRING,) for k in range(3)]
    for n, rule in enumerate(spec.rules):
        for a in (_SEPARATOR,) + tuple(gamma):
            if rule.move == "R":
                target = (a, rule.write, rule.next)
            elif a == _SEPARATOR:
                target = (_SEPARATOR, rule.next, rule.write)
            else:
                target = (rule.next, a, rule.write)
            # A wrong triple is cut at its first wrong symbol: the target's
            # first k symbols, a wrong one, then 2-k `_`. Over lam the 3 x
            # (|lam| - 1) patterns forbid exactly the |lam|^3 - 1 wrong triples.
            lead = (ANY_STRING, lit[a], lit[rule.state], lit[rule.read]) + late
            if (across if a == _SEPARATOR else rule.move == "L"):
                # A product's piece; the block comes with its first forms.
                ones, symbols = others[target[0]]
                block = None
                if a == _SEPARATOR and not n:
                    block = (ANY_STRING, lit[a], one_of(states), one_of(reads))
                elif a == gamma[0]:
                    block = (ANY_STRING, one_of(gamma), lit[rule.state], lit[rule.read])
                if block is not None:
                    block += late + (frozenset(symbols),) + afters[0]
                read.add_product(block, [lead + one + afters[0] for one in ones])
            else:
                forbid_other(lead, target[0], afters[0])
            lead += (lit[target[0]],)
            forbid_other(lead, target[1], afters[1])
            forbid_other(lead + (lit[target[1]],), target[2], afters[2])

    # Tokens away from the state carry over to the next block unchanged: per
    # b, one product block, with a class at a, at c and at the wrong d.
    quiet = (_SEPARATOR,) + tuple(gamma)
    around, gap = frozenset(quiet), (ANY_ONE,) * s
    for a in quiet:
        for b in quiet:
            ones, symbols = others[b]
            # The block comes with its first forms, at a = c = #.
            block = None
            if a == _SEPARATOR:
                block = (ANY_STRING, around, lit[b], around) + gap
                block += (frozenset(symbols), ANY_STRING)
            for c in quiet:
                before = (ANY_STRING, lit[a], lit[b], lit[c]) + gap
                read.add_product(block, [before + one + (ANY_STRING,) for one in ones])
                block = None

    # Halting anywhere but the accept state has no continuation.
    read.add_forms(
        [
            (ANY_STRING, lit[q], lit[b], ANY_STRING)
            for q in spec.states
            if q != spec.accept
            for b in gamma
            if (q, b) not in delta
        ]
    )
    read.add_forms(
        [
            (ANY_STRING, lit[rule.state], lit[rule.read], sep, ANY_STRING)
            for rule in spec.rules
            if rule.move == "R"
        ]
    )

    # The accept state appears in the final block only.
    read.add_forms([(ANY_STRING, lit[spec.accept], ANY_STRING, sep, ANY_STRING, sep, ANY_STRING)])

    return _deferred(read), sigma
