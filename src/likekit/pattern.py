"""Core data model for LIKE patterns.

A pattern is a sequence of tokens over an abstract symbol space: literal
symbols, a single-symbol wildcard (surface syntax ``_``) and an any-string
wildcard (surface syntax ``%``). Symbols are opaque nonempty strings, not
necessarily single characters. The wildcard meaning of ``%`` and ``_``
exists only in the surface syntax; parsed tokens are plain values, so a
literal percent sign is representable and unambiguous.

Two surface syntaxes are supported, and the ``tokens`` flag of
``parse_pattern`` and ``render_pattern`` is the one place that picks
between them. In character mode every character of the input is one
symbol. In token mode symbols are whitespace-separated names, which is
required when symbol names are longer than one character
(machine-encoding alphabets, for example).

A pattern matches a whole text, never a substring of it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

Symbol = str

WILDCARD_ANY_STRING = "%"
WILDCARD_ANY_ONE = "_"
_METACHARS = (WILDCARD_ANY_STRING, WILDCARD_ANY_ONE)


class PatternSyntaxError(ValueError):
    """Pattern text that cannot be parsed; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


class RenderError(ValueError):
    """Pattern that cannot be written back in the requested surface syntax."""


class _Record:
    """Base of the package's immutable records.

    A record is a slotted class whose ``__match_args__`` names its fields
    in constructor order. Equality (between records of the same class
    only), hashing, repr and pickling read those fields alone, so a slot
    built from them, such as a lookup table, stays out. Each subclass
    writes its own ``__init__`` (an interned token, its ``__new__``) and
    sets its slots with ``object.__setattr__``, or, in the records built
    hundreds at a time (``Pattern``, ``Atom``, ``Not``, the gates), with
    the slot's member descriptor, bound once after the class; assigning or
    deleting an attribute afterwards raises ``AttributeError``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # One field gives the bare value, several give a tuple. The
        # fieldless token classes compare by identity and need no key.
        if cls.__match_args__:
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self._key(self), self._key(other)
        # Identity first, as a tuple of fields compares its items.
        return mine is theirs or mine == theirs

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        # A loop, not a generator: nesting then costs repr no more depth than hash.
        fields = []
        for f in self.__match_args__:
            fields.append(f"{f}={getattr(self, f)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class _Token(_Record):
    """Base of the three token classes.

    Tokens are interned and immutable: equal symbols give the same object,
    ``AnyOne()`` and ``AnyString()`` are singletons, and equality and
    hashing are identity's. Assigned in the class body, ``object``'s own
    methods keep their C slots, so token tuples hash and compare in C.
    """

    __slots__ = ()
    __match_args__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


# One Literal per symbol for the life of the process.
_LITERALS: dict[Symbol, "Literal"] = {}


class Literal(_Token):
    """Token matching exactly one fixed symbol, a nonempty string; any other
    symbol is refused with ``ValueError``."""

    __slots__ = __match_args__ = ("symbol",)
    symbol: Symbol

    def __new__(cls, symbol: Symbol) -> "Literal":
        try:
            tok = _LITERALS.get(symbol)
        except TypeError:
            # Unhashable, so not a string: refused below with the rest.
            tok = None
        if tok is None:
            # Checked on a miss only: only nonempty strings are interned.
            if not isinstance(symbol, str) or not symbol:
                raise ValueError("a literal's symbol must be a nonempty string")
            tok = object.__new__(cls)
            object.__setattr__(tok, "symbol", symbol)
            # setdefault keeps whichever of two racing constructors came first.
            tok = _LITERALS.setdefault(symbol, tok)
        return tok


class AnyOne(_Token):
    """Token matching an arbitrary single symbol (surface ``_``); a singleton."""

    __slots__ = ()

    def __new__(cls) -> "AnyOne":
        return ANY_ONE


class AnyString(_Token):
    """Token matching any run of zero or more symbols (surface ``%``); a singleton."""

    __slots__ = ()

    def __new__(cls) -> "AnyString":
        return ANY_STRING


Token = Literal | AnyOne | AnyString

ANY_ONE: AnyOne = object.__new__(AnyOne)
ANY_STRING: AnyString = object.__new__(AnyString)
_WILDCARDS: dict[str, Token] = {
    WILDCARD_ANY_STRING: ANY_STRING,
    WILDCARD_ANY_ONE: ANY_ONE,
}


class Pattern(_Record):
    """Immutable token sequence. The empty pattern matches only the empty text."""

    __slots__ = __match_args__ = ("tokens",)
    tokens: tuple[Token, ...]

    def __init__(self, tokens: Iterable[Token] = ()) -> None:
        _set_tokens(self, tokens if isinstance(tokens, tuple) else tuple(tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def literals(self) -> Iterator[Symbol]:
        for tok in self.tokens:
            if isinstance(tok, Literal):
                yield tok.symbol


_set_tokens = Pattern.tokens.__set__


class Alphabet(_Record):
    """Nonempty ordered collection of distinct symbols.

    Declaration order is significant: searches enumerate candidate texts in
    this order, which makes every reported witness deterministic.
    """

    __match_args__ = ("symbols",)
    # _index: each symbol's position, built from ``symbols``, so membership is O(1).
    __slots__ = ("symbols", "_index")
    symbols: tuple[Symbol, ...]
    _index: dict[Symbol, int]

    def __init__(self, symbols: Iterable[Symbol]) -> None:
        if not isinstance(symbols, tuple):
            symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must contain at least one symbol")
        for sym in symbols:
            if not isinstance(sym, str) or not sym:
                raise ValueError("alphabet symbols must be nonempty strings")
        index = dict(zip(symbols, range(len(symbols))))
        if len(index) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._index

    @classmethod
    def from_chars(cls, text: str) -> "Alphabet":
        """Inline form: every character one symbol. Whitespace is rejected."""
        for ch in text:
            if ch.isspace():
                raise ValueError("inline alphabet may not contain whitespace")
        return cls(tuple(text))

    @classmethod
    def from_lines(cls, text: str) -> "Alphabet":
        """File form: one symbol token per line, order significant, blank lines skipped."""
        symbols = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if any(ch.isspace() for ch in line):
                raise ValueError(f"alphabet symbol {line!r} contains whitespace")
            symbols.append(line)
        return cls(tuple(symbols))


def _check_escape(escape: str | None) -> None:
    if escape is None:
        return
    if len(escape) != 1 or escape in _METACHARS:
        raise ValueError("escape must be a single character other than % and _")


def parse_pattern(
    text: str, escape: str | None = None, tokens: bool = False
) -> Pattern:
    """Parse surface syntax, in token mode with ``tokens``.

    Each unit (a character, or a whitespace-separated word in token mode)
    is one symbol, and the bare units ``%`` and ``_`` are wildcards. The
    escape character, when declared, makes the next character literal, or
    in token mode the rest of the word, so an escaped ``%`` names a literal
    percent symbol. An escape with nothing to quote is an error at its
    character index, or at its word index in token mode.
    """
    _check_escape(escape)
    out: list[Token] = []
    units = enumerate(text.split() if tokens else text)
    for i, unit in units:
        if escape is not None and unit[0] == escape:
            quoted = unit[1:] if tokens else next(units, (i, ""))[1]
            if not quoted:
                raise PatternSyntaxError("dangling escape", i)
            out.append(Literal(quoted))
        else:
            # A hit in the intern table skips Literal's Python-level __new__.
            out.append(_WILDCARDS.get(unit) or _LITERALS.get(unit) or Literal(unit))
    return Pattern(tuple(out))


def render_pattern(
    p: Pattern, escape: str | None = None, tokens: bool = False
) -> str:
    """Write a pattern back as surface syntax, in token mode with ``tokens``.

    A literal metacharacter, or a symbol beginning with the escape
    character, needs the escape to be declared. Character mode takes only
    one-character symbols, token mode only symbols without whitespace.
    """
    _check_escape(escape)
    out: list[str] = []
    for tok in p.tokens:
        if tok is ANY_STRING:
            out.append(WILDCARD_ANY_STRING)
        elif tok is ANY_ONE:
            out.append(WILDCARD_ANY_ONE)
        else:
            sym = tok.symbol
            if tokens:
                if any(map(str.isspace, sym)):
                    raise RenderError(f"symbol {sym!r} contains whitespace")
            elif len(sym) != 1:
                raise RenderError(
                    f"symbol {sym!r} is not a single character; use token mode"
                )
            if sym in _METACHARS or (escape is not None and sym.startswith(escape)):
                if escape is None:
                    raise RenderError(
                        f"literal {sym!r} needs an escape character to render"
                    )
                out.append(escape + sym)
            else:
                out.append(sym)
    return (" " if tokens else "").join(out)


def to_classical_regex(p: Pattern, sigma: Alphabet) -> str:
    """Translate into classical regular-expression notation over ``sigma``.

    ``%`` becomes a starred union of all alphabet symbols, ``_`` the union
    itself, literals stand for themselves and concatenation is
    juxtaposition. The empty pattern yields the empty expression. Every
    literal must belong to the alphabet, and every alphabet symbol must be
    one character other than ``(``, ``)``, ``+`` and ``*``, or the output
    would be ambiguous.
    """
    for sym in sigma.symbols:
        if len(sym) != 1 or sym in "()+*":
            raise ValueError(f"symbol {sym!r} cannot be written unambiguously")
    union = "(" + "+".join(sigma.symbols) + ")"
    out: list[str] = []
    for tok in p.tokens:
        if isinstance(tok, AnyString):
            out.append(union + "*")
        elif isinstance(tok, AnyOne):
            out.append(union)
        else:
            if tok.symbol not in sigma:
                raise ValueError(
                    f"literal {tok.symbol!r} is not in the declared alphabet"
                )
            out.append(tok.symbol)
    return "".join(out)
