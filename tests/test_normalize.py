import pytest

from likekit import is_normalized, match_oracle, normalize, parse_pattern, render_pattern

from helpers import all_patterns, all_texts, normalize_reference


@pytest.mark.parametrize(
    "before,after",
    [
        ("%_", "_%"),
        ("%%", "%"),
        ("%_%", "_%"),
        ("_%_%_", "___%"),
        ("%%%__", "__%"),
        ("a%%b", "a%b"),
        ("a%_b%%", "a_%b%"),
        ("", ""),
        ("abc", "abc"),
        ("_%", "_%"),
    ],
)
def test_known_normal_forms(before, after):
    assert render_pattern(normalize(parse_pattern(before))) == after


def test_is_normalized_flags_offending_pairs():
    assert is_normalized(parse_pattern("_%"))
    assert not is_normalized(parse_pattern("%_"))
    assert not is_normalized(parse_pattern("%%"))
    assert is_normalized(parse_pattern("a%b%c"))


def test_normalize_properties_exhaustive():
    for p in all_patterns("a", 5):
        q = normalize(p)
        assert is_normalized(q), p
        assert normalize(q) == q, p
        assert len(q) <= len(p), p


def test_normalize_preserves_matching():
    for p in all_patterns("ab", 4):
        q = normalize(p)
        if q == p:
            continue
        for t in all_texts("ab", 5):
            assert match_oracle(p, t) == match_oracle(q, t), (p, t)


def test_normalize_matches_the_token_rebuild():
    # Every pattern over a b _ % of up to 8 tokens: 87381 of them.
    count = 0
    for p in all_patterns("ab", 8):
        assert normalize(p) == normalize_reference(p), p
        count += 1
    assert count == 87381
