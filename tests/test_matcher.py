import random

import pytest

from likekit import (
    PatternNfa,
    as_text,
    match_greedy,
    match_oracle,
    parse_pattern,
)

from helpers import all_patterns, all_texts, random_pattern, random_text, realize


@pytest.mark.parametrize(
    "pattern,text,expected",
    [
        ("abc", "abc", True),
        ("abc", "abd", False),
        ("abc", "ab", False),
        ("", "", True),
        ("", "a", False),
        ("%", "", True),
        ("%", "anything", True),
        ("_", "", False),
        ("_", "a", True),
        ("_", "ab", False),
        ("a%", "a", True),
        ("a%", "ba", False),
        ("%a", "ba", True),
        ("%a", "ab", False),
        ("%ab%", "xxabyy", True),
        ("%ab%", "xxayy", False),
        ("a_c", "abc", True),
        ("a_c", "ac", False),
        ("%a%b%", "xaxbx", True),
        ("%a%b%", "bxa", False),
        ("a%a", "a", False),
        ("a%a", "aa", True),
        ("%aa%", "aba", False),
    ],
)
def test_fixed_cases(pattern, text, expected):
    p = parse_pattern(pattern)
    assert match_greedy(p, text) is expected
    assert match_oracle(p, text) is expected


def test_escaped_metachars_match_literally():
    p = parse_pattern("a!%b", escape="!")
    assert match_greedy(p, "a%b")
    assert not match_greedy(p, "axb")


def test_as_text_coercion():
    assert as_text("abc") == ("a", "b", "c")
    assert as_text(("ab", "c")) == ("ab", "c")
    assert as_text([]) == ()


def test_multichar_symbols():
    p = parse_pattern("# q0 % _blank", tokens=True)
    assert match_greedy(p, ("#", "q0", "_blank"))
    assert match_greedy(p, ("#", "q0", "x", "y", "_blank"))
    assert not match_greedy(p, ("#", "q0", "x"))


def test_greedy_agrees_with_oracle_exhaustively():
    for p in all_patterns("ab", 4):
        for t in all_texts("ab", 5):
            assert match_greedy(p, t) == match_oracle(p, t), (p, t)


@pytest.mark.parametrize("symbols", ["abc", ("q0", "q1", "#")], ids=["abc", "tokens"])
def test_greedy_agrees_with_oracle_random(symbols):
    rng = random.Random(20240811)
    # Texts over abz hold a symbol that no pattern uses.
    outside = random.Random(7717)
    for _ in range(4000):
        p = random_pattern(rng, symbols, 8)
        nfa = PatternNfa(p)
        for t in (random_text(rng, symbols, 12), random_text(outside, "abz", 12)):
            want = match_oracle(p, t)
            assert match_greedy(p, t) == want == nfa.accepts(t), (p, t)
        hit = realize(rng, p, symbols)
        assert match_greedy(p, hit), (p, hit)
        assert match_oracle(p, hit), (p, hit)

