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

import json
from dataclasses import dataclass, field
from typing import Sequence

from .expression import Atom, LikeExpression, Not, and_, or_
from .pattern import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    Literal,
    Pattern,
    Symbol,
    Token,
)

# --- 3-CNF ------------------------------------------------------------------


@dataclass(frozen=True)
class Cnf:
    """A 3-CNF formula: clauses are triples of nonzero literal integers."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError("formula needs at least one variable")
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} does not have three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF with exactly three literals per clause. One problem
    line ``p cnf <variables> <clauses>``, with counts not below zero, comes
    before every clause."""
    header: tuple[int, int] | None = None
    body: list[int] = []
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
            header = int(parts[2]), int(parts[3])
            if min(header) < 0:
                raise ValueError(f"negative count in problem line: {line!r}")
            continue
        if header is None:
            raise ValueError(f"clause before the problem line: {line!r}")
        body.extend(int(tok) for tok in line.split())
    if header is None:
        raise ValueError("missing problem line")
    n_vars, n_clauses = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lit in body:
        if lit == 0:
            if len(current) != 3:
                raise ValueError(f"clause {current!r} does not have three literals")
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise ValueError("unterminated clause")
    if len(clauses) != n_clauses:
        raise ValueError(f"expected {n_clauses} clauses, found {len(clauses)}")
    return Cnf(n_vars, tuple(clauses))


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


@dataclass(frozen=True)
class TmRule:
    state: str
    read: str
    next: str
    write: str
    move: str


@dataclass(frozen=True)
class TmSpec:
    """Deterministic single-tape machine with a distinguished accept state.

    The accept state has no outgoing rules; states and tape symbols are
    disjoint name sets, and the separator ``#`` is reserved.
    """

    states: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    start: str
    accept: str
    rules: tuple[TmRule, ...]
    blank: str = "_blank"
    # (state, read) -> rule, built from ``rules``.
    delta: dict[tuple[str, str], TmRule] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for attr in ("states", "tape_alphabet", "input_alphabet", "rules"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        states, tape = set(self.states), set(self.tape_alphabet)
        if len(states) != len(self.states) or len(tape) != len(self.tape_alphabet):
            raise ValueError("duplicate state or tape symbol names")
        if states & tape:
            raise ValueError("states and tape symbols must use disjoint names")
        if _SEPARATOR in states | tape:
            raise ValueError(f"{_SEPARATOR!r} is reserved for the history separator")
        for name in self.states:
            _check_name(name, "state")
        for name in self.tape_alphabet:
            _check_name(name, "tape symbol")
        if self.start not in states or self.accept not in states:
            raise ValueError("start and accept must be listed states")
        if self.blank not in tape:
            raise ValueError("blank symbol must be in the tape alphabet")
        if not set(self.input_alphabet) <= tape:
            raise ValueError("input alphabet must be part of the tape alphabet")
        if self.blank in self.input_alphabet:
            raise ValueError("blank cannot be an input symbol")
        delta: dict[tuple[str, str], TmRule] = {}
        for rule in self.rules:
            if rule.state not in states or rule.next not in states:
                raise ValueError(f"rule {rule} uses an unknown state")
            if rule.read not in tape or rule.write not in tape:
                raise ValueError(f"rule {rule} uses an unknown tape symbol")
            if rule.move not in _MOVES:
                raise ValueError(f"rule {rule} has move {rule.move!r}")
            if rule.state == self.accept:
                raise ValueError("the accept state cannot have outgoing rules")
            key = (rule.state, rule.read)
            if key in delta:
                raise ValueError(f"duplicate rule for {key}")
            delta[key] = rule
        object.__setattr__(self, "delta", delta)


def tm_from_json(text: str) -> TmSpec:
    """Machine description as a JSON object.

    Keys: the lists states, tape_alphabet (must contain "_blank"),
    input_alphabet and delta (of {state, read, next, write, move}), and
    the names start and accept. A value of the wrong JSON type is refused.
    """
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


@dataclass(frozen=True)
class TmRunResult:
    accepted: bool
    history: tuple[Symbol, ...]
    steps: int


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
    last cell, on revisiting a configuration, or after max_steps rules.
    The history lists every configuration reached, a repeat excluded.
    """
    w = _check_run_args(spec, word, space)
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must not be negative")
    tape = list(w) + [spec.blank] * (space - len(w))
    head = 0
    state = spec.start
    delta = spec.delta
    seen: set[tuple[str, int, tuple[str, ...]]] = set()
    configs: list[tuple[str, int, tuple[str, ...]]] = []
    steps = 0
    accepted = False
    while True:
        snapshot = (state, head, tuple(tape))
        if snapshot in seen:
            break
        seen.add(snapshot)
        configs.append(snapshot)
        if state == spec.accept:
            accepted = head == 0 and all(cell == spec.blank for cell in tape)
            break
        rule = delta.get((state, tape[head]))
        if rule is None:
            break
        if max_steps is not None and steps >= max_steps:
            break
        if rule.move == "R" and head == space - 1:
            break
        tape[head] = rule.write
        state = rule.next
        if rule.move == "R":
            head += 1
        elif head > 0:
            head -= 1
        steps += 1
    tokens: list[Symbol] = [_SEPARATOR]
    for st, hd, tp in configs:
        tokens.extend(tp[:hd])
        tokens.append(st)
        tokens.extend(tp[hd:])
        tokens.append(_SEPARATOR)
    return TmRunResult(accepted, tuple(tokens), steps)


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
    """
    w = _check_run_args(spec, word, space)
    s = space
    gamma = spec.tape_alphabet
    lam = tuple(gamma) + tuple(spec.states) + (_SEPARATOR,)
    delta = spec.delta

    lit = {y: Literal(y) for y in lam}
    # No set is needed to keep the patterns distinct. The families below
    # differ in length or in where % and _ stand, but for "% q b %" against
    # "% # # %", and no state is the separator. Within a family the loops
    # range over distinct names: lam has no duplicates, delta keys are unique.
    # The window rule's three pieces per (rule, left neighbour) differ in how
    # many `_` close them, so they are distinct too.
    forbidden: list[Pattern] = []

    def forbid(tokens: tuple[Token, ...]) -> None:
        forbidden.append(Pattern(tokens))

    # Strings shorter than one full block cannot be histories.
    for j in range(s + 3):
        forbid((ANY_ONE,) * j)

    # The first block spells the starting configuration.
    head_template = (_SEPARATOR, spec.start) + w + (spec.blank,) * (s - len(w))
    for j, want in enumerate(head_template):
        for y in lam:
            if y != want:
                forbid((ANY_ONE,) * j + (lit[y], ANY_STRING))

    # The last block spells the accepting configuration, read from the end.
    tail_template = (_SEPARATOR,) + (spec.blank,) * s + (spec.accept,)
    for i, want in enumerate(tail_template, start=1):
        for y in lam:
            if y != want:
                forbid((ANY_STRING, lit[y]) + (ANY_ONE,) * (i - 1))

    # Separators recur at period s+2 and never sooner.
    for j in range(1, s + 2):
        forbid((ANY_STRING, lit[_SEPARATOR]) + (ANY_ONE,) * (j - 1) + (lit[_SEPARATOR], ANY_STRING))
    for y in lam:
        if y != _SEPARATOR:
            forbid((ANY_STRING, lit[_SEPARATOR]) + (ANY_ONE,) * (s + 1) + (lit[y], ANY_STRING))

    # The three tokens around the state must evolve by the machine's rule.
    for rule in spec.rules:
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
            lead = (ANY_STRING, lit[a], lit[rule.state], lit[rule.read]) + (ANY_ONE,) * (s - 1)
            for k, want in enumerate(target):
                prefix = lead + tuple(lit[t] for t in target[:k])
                rest = (ANY_ONE,) * (2 - k) + (ANY_STRING,)
                for y in lam:
                    if y != want:
                        forbid(prefix + (lit[y],) + rest)

    # Tokens away from the state carry over to the next block unchanged.
    quiet = (_SEPARATOR,) + tuple(gamma)
    for a in quiet:
        for b in quiet:
            for c in quiet:
                for d in lam:
                    if d != b:
                        forbid(
                            (ANY_STRING, lit[a], lit[b], lit[c])
                            + (ANY_ONE,) * s
                            + (lit[d], ANY_STRING)
                        )

    # Halting anywhere but the accept state has no continuation.
    for q in spec.states:
        if q == spec.accept:
            continue
        for b in gamma:
            if (q, b) not in delta:
                forbid((ANY_STRING, lit[q], lit[b], ANY_STRING))
    for rule in spec.rules:
        if rule.move == "R":
            forbid((ANY_STRING, lit[rule.state], lit[rule.read], lit[_SEPARATOR], ANY_STRING))

    # The accept state appears in the final block only.
    forbid(
        (
            ANY_STRING,
            lit[spec.accept],
            ANY_STRING,
            lit[_SEPARATOR],
            ANY_STRING,
            lit[_SEPARATOR],
            ANY_STRING,
        )
    )

    expr = and_(*[Not(Atom(p)) for p in forbidden])
    return expr, Alphabet(lam)
