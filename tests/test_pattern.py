import copy
import pickle
import sys
import threading

import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    AnyOne,
    AnyString,
    Literal,
    Pattern,
    PatternSyntaxError,
    RenderError,
    atom_patterns,
    encode_tm,
    expand_underscores,
    match_oracle,
    parse_pattern,
    render_pattern,
    to_classical_regex,
)

from helpers import all_patterns, all_texts, m_bouncer, regex_matches


def test_parse_basic_tokens():
    p = parse_pattern("a%b_c")
    assert p.tokens == (
        Literal("a"),
        ANY_STRING,
        Literal("b"),
        ANY_ONE,
        Literal("c"),
    )


def test_parse_empty():
    assert parse_pattern("") == Pattern(())


def test_escape_makes_metachars_literal():
    p = parse_pattern("a!%!_!!b", escape="!")
    assert p.tokens == (
        Literal("a"),
        Literal("%"),
        Literal("_"),
        Literal("!"),
        Literal("b"),
    )


def test_dangling_escape_rejected():
    with pytest.raises(PatternSyntaxError) as exc:
        parse_pattern("ab!", escape="!")
    assert exc.value.position == 2


@pytest.mark.parametrize("bad", ["%", "_", "", "!!"])
def test_bad_escape_declaration(bad):
    with pytest.raises(ValueError):
        parse_pattern("a", escape=bad)


def test_render_round_trip_with_escape():
    for text in ["", "a", "a!%b", "!_!!", "%%__", "x!%!_y"]:
        p = parse_pattern(text, escape="!")
        assert parse_pattern(render_pattern(p, escape="!"), escape="!") == p


def test_render_metachar_without_escape_fails():
    with pytest.raises(RenderError):
        render_pattern(Pattern((Literal("%"),)))


def test_render_multichar_symbol_fails():
    with pytest.raises(RenderError):
        render_pattern(Pattern((Literal("ab"),)))


def test_token_mode_multichar_symbols():
    p = parse_pattern("# q0 _blank % _", tokens=True)
    assert p.tokens == (
        Literal("#"),
        Literal("q0"),
        Literal("_blank"),
        ANY_STRING,
        ANY_ONE,
    )
    assert render_pattern(p, tokens=True) == "# q0 _blank % _"


def test_token_mode_escape():
    p = parse_pattern("!% x !_", escape="!", tokens=True)
    assert p.tokens == (Literal("%"), Literal("x"), Literal("_"))
    assert render_pattern(p, escape="!", tokens=True) == "!% x !_"


def test_token_mode_render_needs_escape_for_metachar_names():
    with pytest.raises(RenderError):
        render_pattern(Pattern((Literal("%"),)), tokens=True)


@pytest.mark.parametrize("escape", [None, "!"])
def test_token_mode_render_refuses_the_empty_symbol(escape):
    # The empty symbol is refused when its token is built, so no pattern
    # that render meets can hold it; its neighbours still render.
    with pytest.raises(ValueError, match="nonempty"):
        Pattern((Literal("a"), Literal(""), Literal("b")))
    p = Pattern((Literal("a"), Literal("b")))
    assert render_pattern(p, escape=escape) == "ab"
    assert render_pattern(p, escape=escape, tokens=True) == "a b"


@pytest.mark.parametrize("symbol", [1, None, b"a", ("a",), ["a"]], ids=repr)
def test_literal_refuses_a_symbol_that_is_not_a_string(symbol):
    # Refused when the token is built, so no pattern holds a symbol that the
    # NFA's alphabet would refuse while the greedy matcher and the oracle
    # compare it as a text symbol.
    with pytest.raises(ValueError, match="nonempty"):
        Literal(symbol)
    assert Literal("a").symbol == "a"


def test_pattern_helpers():
    p = parse_pattern("a%_b")
    assert len(p) == 4
    assert list(p.literals()) == ["a", "b"]


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
    with pytest.raises(ValueError):
        Alphabet.from_chars("a b")
    sigma = Alphabet.from_lines("x1\n\n~x1\n")
    assert sigma.symbols == ("x1", "~x1")
    assert "x1" in sigma and "x2" not in sigma
    with pytest.raises(ValueError):
        Alphabet.from_lines("a b\n")


def test_classical_regex_shapes():
    sigma = Alphabet.from_chars("ab")
    assert to_classical_regex(parse_pattern("a%b"), sigma) == "a(a+b)*b"
    assert to_classical_regex(parse_pattern("_"), sigma) == "(a+b)"
    assert to_classical_regex(Pattern(()), sigma) == ""
    with pytest.raises(ValueError):
        to_classical_regex(parse_pattern("c"), sigma)


@pytest.mark.parametrize(
    "symbols",
    [("a", "+", "*"), ("a", "("), ("a", "b", "ab")],
    ids=["operators", "paren", "multichar"],
)
def test_classical_regex_refuses_ambiguous_alphabets(symbols):
    with pytest.raises(ValueError):
        to_classical_regex(parse_pattern("a%"), Alphabet(symbols))


def test_classical_regex_agrees_with_matching():
    sigma = Alphabet.from_chars("ab")
    for p in all_patterns("ab", 3):
        regex = to_classical_regex(p, sigma)
        for t in all_texts("ab", 4):
            assert regex_matches(regex, t) == match_oracle(p, t), (p, t)


def test_literals_are_interned_however_made():
    made = {
        "character mode": parse_pattern("a!%").tokens[0],
        "escaped character": parse_pattern("!%", escape="!").tokens[0],
        "token mode": parse_pattern("q0 %", tokens=True).tokens[0],
        "escaped token": parse_pattern("!_", escape="!", tokens=True).tokens[0],
        "expand_underscores": expand_underscores(
            parse_pattern("_"), Alphabet.from_chars("ab")
        ).children[1].pattern.tokens[0],
        "keyword": Literal(symbol="a"),
    }
    want = {
        "character mode": "a",
        "escaped character": "%",
        "token mode": "q0",
        "escaped token": "_",
        "expand_underscores": "b",
        "keyword": "a",
    }
    for how, tok in made.items():
        assert tok is Literal(want[how]), how
        assert tok == Literal(want[how]) and hash(tok) == hash(Literal(want[how]))
    spec, word, space = m_bouncer(2)
    expr, _ = encode_tm(spec, word, space)
    literals = [
        tok for p in atom_patterns(expr) for tok in p.tokens if isinstance(tok, Literal)
    ]
    assert literals
    assert all(tok is Literal(tok.symbol) for tok in literals)
    assert len({id(tok) for tok in literals}) == len({tok.symbol for tok in literals})
    assert Literal("a") != Literal("b")


def test_wildcards_are_singletons():
    assert AnyOne() is ANY_ONE
    assert AnyString() is ANY_STRING
    assert parse_pattern("_%").tokens == (ANY_ONE, ANY_STRING)
    assert parse_pattern("_").tokens[0] is ANY_ONE
    assert parse_pattern("%", tokens=True).tokens[0] is ANY_STRING
    assert ANY_ONE != ANY_STRING


@pytest.mark.parametrize(
    "tok",
    [Literal("a"), Literal("q0"), Literal("%"), ANY_ONE, ANY_STRING],
    ids=["a", "q0", "percent", "any_one", "any_string"],
)
def test_tokens_survive_pickle_and_copy(tok):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(tok, protocol)) is tok
    assert copy.copy(tok) is tok
    assert copy.deepcopy(tok) is tok


def test_patterns_compare_equal_after_a_round_trip():
    p = parse_pattern("# q0 _ % 1 !%", escape="!", tokens=True)
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p)
        assert all(a is b for a, b in zip(clone.tokens, p.tokens))
    built = Pattern((Literal("a"), AnyString(), AnyOne(), Literal("b")))
    assert parse_pattern("a%_b") == built and hash(parse_pattern("a%_b")) == hash(built)
    assert len({parse_pattern("a%b"), parse_pattern("a%b"), parse_pattern("a%c")}) == 2


def test_token_reprs_and_immutability():
    assert repr(Literal("a")) == "Literal(symbol='a')"
    assert repr(ANY_ONE) == "AnyOne()"
    assert repr(ANY_STRING) == "AnyString()"
    assert repr(parse_pattern("a%")) == (
        "Pattern(tokens=(Literal(symbol='a'), AnyString()))"
    )
    tok = Literal("a")
    with pytest.raises(AttributeError):
        tok.symbol = "b"
    with pytest.raises(AttributeError):
        del tok.symbol
    with pytest.raises(AttributeError):
        ANY_ONE.symbol = "b"
    assert tok.symbol == "a" and Literal("a") is tok


def test_concurrent_constructors_agree():
    symbols = [f"concurrent-{i}" for i in range(20000)]
    workers = 8
    start = threading.Barrier(workers)
    made: list[list[Literal]] = [[] for _ in range(workers)]

    def build(k: int) -> None:
        start.wait(timeout=10)
        made[k] = [Literal(s) for s in symbols]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for tokens in made:
        assert len(tokens) == len(symbols)
        assert all(tok is Literal(s) for tok, s in zip(tokens, symbols))
