import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    Literal,
    Pattern,
    PatternSyntaxError,
    RenderError,
    match_oracle,
    parse_pattern,
    parse_pattern_tokens,
    render_pattern,
    render_pattern_tokens,
    to_classical_regex,
)

from helpers import all_patterns, all_texts, regex_matches


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
    p = parse_pattern_tokens("# q0 _blank % _")
    assert p.tokens == (
        Literal("#"),
        Literal("q0"),
        Literal("_blank"),
        ANY_STRING,
        ANY_ONE,
    )
    assert render_pattern_tokens(p) == "# q0 _blank % _"


def test_token_mode_escape():
    p = parse_pattern_tokens("!% x !_", escape="!")
    assert p.tokens == (Literal("%"), Literal("x"), Literal("_"))
    assert render_pattern_tokens(p, escape="!") == "!% x !_"


def test_token_mode_render_needs_escape_for_metachar_names():
    with pytest.raises(RenderError):
        render_pattern_tokens(Pattern((Literal("%"),)))


def test_pattern_helpers():
    p = parse_pattern("a%_b")
    assert len(p) == 4
    assert p.has_any_string()
    assert list(p.literals()) == ["a", "b"]
    assert not parse_pattern("ab_").has_any_string()


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
