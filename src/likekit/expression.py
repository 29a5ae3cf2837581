"""Boolean combinations of LIKE patterns.

The expression language is the SQL-flavored fragment

    expr  := or
    or    := and { "OR" and }
    and   := unary { "AND" unary }
    unary := "NOT" unary | "(" expr ")" | "LIKE" quoted-pattern

with double-quoted patterns (backslash escapes the quote and itself) and
the usual precedence NOT over AND over OR. Keywords are case-insensitive.

Besides parsing and evaluation this module hosts the two syntactic
rewrites: expansion of ``_`` wildcards into alternatives over a declared
alphabet, and the disjunctive normal form whose atoms contain constants
separated by ``%`` only.

Evaluation, the DNF rewrite and the search's forecasts (in ``automata``)
are folds by one walker, ``_fold``, which pushes each NOT down to the
atoms: a run of NOTs counts by its parity, and a negated AND or OR is
read as its De Morgan dual.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, TypeVar

from .matcher import Text, as_text, match_greedy
from .normalize import normalize
from .pattern import (
    AnyOne,
    Alphabet,
    Literal,
    Pattern,
    _Record,
    parse_pattern,
    render_pattern,
)

DEFAULT_EXPANSION_CAP = 4096

# Open NOTs plus open parentheses a parsed expression may nest, which keeps the
# recursive parser, and hash, == and repr of the tree it builds, inside the
# recursion limit. The DNF rewrite, evaluate and render walk it without recursing.
MAX_NESTING = 200


class ExpressionSyntaxError(ValueError):
    """Expression text that cannot be parsed; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


class ExplosionCapError(RuntimeError):
    """A rewrite refused to generate more atoms than the configured cap."""

    def __init__(self, required: int, cap: int) -> None:
        # Past 64 bits the count is written as a power of two: decimal
        # conversion of a huge int is slow and, past Python's digit
        # limit, raises.
        bits = required.bit_length()
        count = required if bits <= 64 else f"at least 2^{bits - 1}"
        super().__init__(
            f"rewrite would generate {count} atoms, above the cap of {cap}"
        )
        self.required = required
        self.cap = cap


class Atom(_Record):
    __slots__ = __match_args__ = ("pattern",)
    pattern: Pattern

    def __init__(self, pattern: Pattern) -> None:
        _set_pattern(self, pattern)


_set_pattern = Atom.pattern.__set__


class Not(_Record):
    __slots__ = __match_args__ = ("child",)
    child: "LikeExpression"

    def __init__(self, child: "LikeExpression") -> None:
        _set_child(self, child)


_set_child = Not.child.__set__


class _Gate(_Record):
    __match_args__ = ("children",)
    # _read: what a gadget builder knew of the gate as it built it, for the
    # search compile (``automata._Read``); None on every other gate. The
    # machine gadget's And is made from its read alone (``encode_tm``), and
    # so is and_ of it and negated atoms (``_flatten``); their children stay
    # unset until And's hook fills them on first read.
    __slots__ = ("children", "_read")
    children: tuple["LikeExpression", ...]

    def __init__(self, children: Iterable["LikeExpression"]) -> None:
        if not isinstance(children, tuple):
            children = tuple(children)
        if len(children) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two children")
        _set_children(self, children)
        _set_read(self, None)


_set_children = _Gate.children.__set__
_set_read = _Gate._read.__set__


class And(_Gate):
    __slots__ = ()

    # Python calls this only when a slot is unset, that is for children of
    # an And built from its read: the negated atoms of the read's forms, or
    # for a read and_ extended its base gate's children and then the items
    # passed, are built once, here, and kept, so equality, hashing, repr,
    # pickling and every walker see the same record as an And built from
    # them. The hook sits on And alone: a class with __getattr__ gets no
    # specialised slot reads in CPython 3.11, and a .children read in a
    # loop takes 49-51 ns on And against 18-19 ns on Or (35-38 against 3 ns
    # net of the loop). Two threads reading first at once may each build
    # the tuple; they are equal, and the later write stays.
    def __getattr__(self, name: str) -> tuple["LikeExpression", ...]:
        if name != "children":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}",
                name=name,
                obj=self,
            )
        read = self._read
        if read.base is None:
            children = tuple(map(Not, map(Atom, map(Pattern, read.forms))))
        else:
            children = read.base.children + read.tail
        _set_children(self, children)
        return children


def _deferred(read: object) -> And:
    """An And that holds only a builder's read; its children are unset
    until And's hook builds them on first read."""
    gate = object.__new__(And)
    _set_read(gate, read)
    return gate


class Or(_Gate):
    __slots__ = ()


LikeExpression = Atom | Not | And | Or

_R = TypeVar("_R")


def _flatten(gate: type[_Gate], items: tuple[LikeExpression, ...]) -> LikeExpression:
    flat: list[LikeExpression] = []
    for item in items:
        if isinstance(item, gate):
            # A first item that holds a builder's read conjoins the rest
            # through it (``automata._Read.conjoin``) and builds no child;
            # None means the rest does not fit the read.
            if item._read is not None and not flat:
                joined = item._read.conjoin(item, items[1:])
                if joined is not None:
                    return joined
            flat.extend(item.children)
        else:
            flat.append(item)
    if not flat:
        raise ValueError(f"{gate.__name__.lower()}_ needs at least one item")
    if len(flat) == 1:
        return flat[0]
    return gate(tuple(flat))


def and_(*items: LikeExpression) -> LikeExpression:
    """Conjunction with flattening; a single item passes through unchanged."""
    return _flatten(And, items)


def or_(*items: LikeExpression) -> LikeExpression:
    """Disjunction with flattening; a single item passes through unchanged."""
    return _flatten(Or, items)


def atom_patterns(e: LikeExpression) -> Iterator[Pattern]:
    """Every atom's pattern, in preorder, duplicates included."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node.pattern
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            stack.extend(reversed(node.children))


def expression_size(e: LikeExpression) -> int:
    """Total number of pattern tokens across all atoms."""
    return sum(len(p) for p in atom_patterns(e))


def is_monotone(e: LikeExpression) -> bool:
    """True when the expression contains no negation."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            return False
        if not isinstance(node, Atom):
            stack.extend(node.children)
    return True


def _fold(
    e: LikeExpression,
    leaf: Callable[[LikeExpression, bool], _R | None],
    gate: Callable[[bool, list[_R]], _R],
) -> _R:
    """Fold e bottom-up with its NOTs pushed down to the leaves: a NOT run
    is unwound to its parity, and a negated And or Or folds as its dual.
    ``leaf(node, positive)`` gives the result for an atom, or for a whole
    And or Or, under that polarity; None opens the gate, whose children
    ``gate(disjunction, results)`` combines, ``disjunction`` telling whether
    it is an Or after the push. A child whose result is the gate's
    absorbing constant (True under an Or, False under an And) ends the gate
    as its result. Open gates sit on a stack, so depth costs no recursion.
    """
    # Open gates as (remaining children, disjunction, polarity, results).
    open_gates: list[tuple[Iterator[LikeExpression], bool, bool, list[_R]]] = []
    node, positive = e, True
    while True:
        while isinstance(node, Not):
            node = node.child
            positive = not positive
        result = leaf(node, positive)
        if result is None:
            children = iter(node.children)
            disjunction = isinstance(node, Or) == positive
            open_gates.append((children, disjunction, positive, []))
            node = next(children)
            continue
        while open_gates:
            children, disjunction, positive, results = open_gates[-1]
            if result is not disjunction:
                results.append(result)
                node = next(children, None)
                if node is not None:
                    break
                result = gate(disjunction, results)
            open_gates.pop()
        else:
            return result


def evaluate(e: LikeExpression, t: Text | str) -> bool:
    t = as_text(t)

    def leaf(node: LikeExpression, positive: bool) -> bool | None:
        if isinstance(node, Atom):
            return match_greedy(node.pattern, t) == positive
        return None

    # A gate that no child decided holds the other constant.
    return _fold(e, leaf, lambda disjunction, results: not disjunction)


# --- parsing ---------------------------------------------------------------

_KEYWORDS = {"NOT", "AND", "OR", "LIKE"}


def _lex(text: str) -> list[tuple[str, str, int]]:
    out: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            out.append(("lparen", "(", i))
            i += 1
            continue
        if ch == ")":
            out.append(("rparen", ")", i))
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            closed = False
            while j < n:
                cj = text[j]
                if cj == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if cj == '"':
                    closed = True
                    break
                buf.append(cj)
                j += 1
            if not closed:
                raise ExpressionSyntaxError("unterminated pattern string", i)
            out.append(("pattern", "".join(buf), i))
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in '()"':
            j += 1
        word = text[i:j]
        if word.upper() in _KEYWORDS:
            out.append((word.upper().lower(), word, i))
        else:
            raise ExpressionSyntaxError(f"unexpected token {word!r}", i)
        i = j
    return out


class _Parser:
    def __init__(
        self,
        toks: list[tuple[str, str, int]],
        escape: str | None,
        tokens: bool,
        length: int,
    ) -> None:
        self.toks = toks
        self.i = 0
        self.escape = escape
        self.tokens = tokens
        self.length = length
        self.depth = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self, kind: str) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None or tok[0] != kind:
            pos = tok[2] if tok is not None else self.length
            raise ExpressionSyntaxError(f"expected {kind}", pos)
        self.i += 1
        return tok

    def parse_or(self) -> LikeExpression:
        items = [self.parse_and()]
        while (tok := self._peek()) is not None and tok[0] == "or":
            self.i += 1
            items.append(self.parse_and())
        return or_(*items)

    def parse_and(self) -> LikeExpression:
        items = [self.parse_unary()]
        while (tok := self._peek()) is not None and tok[0] == "and":
            self.i += 1
            items.append(self.parse_unary())
        return and_(*items)

    def parse_unary(self) -> LikeExpression:
        tok = self._peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of input", self.length)
        kind, _, pos = tok
        if kind in ("not", "lparen"):
            if self.depth >= MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"nested deeper than {MAX_NESTING} NOTs and parentheses", pos
                )
            self.depth += 1
            self.i += 1
            if kind == "not":
                inner: LikeExpression = Not(self.parse_unary())
            else:
                inner = self.parse_or()
                self._take("rparen")
            self.depth -= 1
            return inner
        if kind == "like":
            self.i += 1
            _, raw, _ = self._take("pattern")
            return Atom(parse_pattern(raw, self.escape, self.tokens))
        raise ExpressionSyntaxError("expected NOT, '(' or LIKE", pos)


def parse_expression(
    text: str, escape: str | None = None, tokens: bool = False
) -> LikeExpression:
    """Parse the expression grammar; connectives come out flattened.

    Each quoted pattern is read by ``parse_pattern`` with ``escape`` and
    ``tokens``.
    """
    toks = _lex(text)
    parser = _Parser(toks, escape, tokens, len(text))
    expr = parser.parse_or()
    left = parser._peek()
    if left is not None:
        raise ExpressionSyntaxError("unexpected trailing input", left[2])
    return expr


def _quote(p: Pattern, escape: str | None, tokens: bool) -> str:
    surface = render_pattern(p, escape, tokens)
    return '"' + surface.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_expression(
    e: LikeExpression, escape: str | None = None, tokens: bool = False
) -> str:
    """Inverse of parse_expression, up to flattening of nested connectives.

    Each pattern is written by ``render_pattern`` with ``escape`` and
    ``tokens``.
    """

    # Pieces are written left to right from a stack of pending strings and
    # (node, context) pairs, so nesting depth costs no recursion.
    out: list[str] = []
    todo: list[str | tuple[LikeExpression, int]] = [(e, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, context = item
        if isinstance(node, Atom):
            out.append("LIKE " + _quote(node.pattern, escape, tokens))
            continue
        if isinstance(node, Not):
            run = 0
            while isinstance(node, Not):
                node = node.child
                run += 1
            out.append("NOT " * run)
            todo.append((node, 2))
            continue
        # Precedence: OR 0, AND 1, NOT and atoms 2; a child binding looser
        # than its context is parenthesized.
        if isinstance(node, And):
            sep, own, inner = " AND ", 1, 2
        else:
            sep, own, inner = " OR ", 0, 1
        wrap = own < context
        if wrap:
            todo.append(")")
        for i, c in enumerate(reversed(node.children)):
            if i:
                todo.append(sep)
            todo.append((c, inner))
        if wrap:
            out.append("(")
    return "".join(out)


# --- rewrites ---------------------------------------------------------------


def _expansions(p: Pattern, sigma: Alphabet, cap: int) -> list[Pattern]:
    if cap < 0:
        raise ValueError(f"cap must not be negative: {cap}")
    holes = [i for i, tok in enumerate(p.tokens) if isinstance(tok, AnyOne)]
    required = len(sigma) ** len(holes)
    if required > cap:
        raise ExplosionCapError(required, cap)
    if not holes:
        return [p]
    out: list[Pattern] = []
    for combo in itertools.product(sigma.symbols, repeat=len(holes)):
        toks = list(p.tokens)
        for hole, sym in zip(holes, combo):
            toks[hole] = Literal(sym)
        out.append(Pattern(tuple(toks)))
    return out


def expand_underscores(
    p: Pattern, sigma: Alphabet, cap: int = DEFAULT_EXPANSION_CAP
) -> LikeExpression:
    """Replace every ``_`` by each alphabet symbol, one atom per combination.

    The result has the same matches as ``p`` on texts over ``sigma``. The
    number of generated atoms is ``|sigma|`` to the power of the wildcard
    count, so a cap guards against blowup.
    """
    return or_(*[Atom(q) for q in _expansions(p, sigma, cap)])


class SignedAtom(_Record):
    __slots__ = __match_args__ = ("pattern", "positive")
    pattern: Pattern
    positive: bool

    def __init__(self, pattern: Pattern, positive: bool) -> None:
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "positive", positive)


class Dnf(_Record):
    """Disjunction of conjunctions of possibly negated atoms.

    Every atom is free of ``_``: it consists of constant factors separated
    by ``%``, with anchoring recorded by the presence or absence of leading
    and trailing ``%`` tokens in the pattern itself.
    """

    __slots__ = __match_args__ = ("clauses",)
    clauses: tuple[tuple[SignedAtom, ...], ...]

    def __init__(self, clauses: tuple[tuple[SignedAtom, ...], ...]) -> None:
        object.__setattr__(self, "clauses", clauses)

    def to_expression(self) -> LikeExpression:
        def clause_expr(clause: tuple[SignedAtom, ...]) -> LikeExpression:
            parts = [
                Atom(sa.pattern) if sa.positive else Not(Atom(sa.pattern))
                for sa in clause
            ]
            return and_(*parts)

        return or_(*[clause_expr(c) for c in self.clauses])


def to_dot_depth1_dnf(
    e: LikeExpression, sigma: Alphabet, cap: int = DEFAULT_EXPANSION_CAP
) -> Dnf:
    """Rewrite to disjunctive normal form with wildcard-free atoms.

    The steps: push negations down to atoms, expand every ``_`` over the
    alphabet, then distribute conjunction over disjunction. Evaluation is
    preserved on texts over ``sigma``. The cap bounds the total number of
    signed atoms the distribution may generate. The tree is walked
    bottom-up by ``_fold``, so nesting depth costs no recursion.
    """

    def check(count: int) -> None:
        if count > cap:
            raise ExplosionCapError(count, cap)

    def leaf(node: LikeExpression, positive: bool) -> list[list[SignedAtom]] | None:
        if not isinstance(node, Atom):
            return None
        pats = [normalize(q) for q in _expansions(node.pattern, sigma, cap)]
        if positive:
            return [[SignedAtom(q, True)] for q in pats]
        return [[SignedAtom(q, False) for q in pats]]

    def gate(disjunction: bool, parts: list) -> list[list[SignedAtom]]:
        if disjunction:
            merged = [clause for part in parts for clause in part]
            check(sum(len(c) for c in merged))
            return merged
        result: list[list[SignedAtom]] = [[]]
        for part in parts:
            # Sized before it is built: each clause of one side meets
            # every clause of the other.
            check(
                len(result) * sum(map(len, part)) + len(part) * sum(map(len, result))
            )
            result = [left + right for left in result for right in part]
        return result

    return Dnf(tuple(tuple(c) for c in _fold(e, leaf, gate)))
