import random
import tracemalloc

import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    And,
    AnyOne,
    Atom,
    ExplosionCapError,
    ExpressionSyntaxError,
    Literal,
    Not,
    Or,
    Pattern,
    RenderError,
    SignedAtom,
    and_,
    atom_patterns,
    evaluate,
    expand_underscores,
    expression_size,
    is_monotone,
    is_normalized,
    match_greedy,
    or_,
    parse_expression,
    parse_pattern,
    render_expression,
    to_dot_depth1_dnf,
)

from helpers import (
    all_texts,
    alternating_chain,
    random_pattern,
    reference_dnf_clauses,
)


def P(text):
    return parse_pattern(text)


def test_parse_precedence():
    e = parse_expression('LIKE "a" OR LIKE "b" AND NOT LIKE "c"')
    assert e == Or((Atom(P("a")), And((Atom(P("b")), Not(Atom(P("c")))))))


def test_parse_parentheses_and_case():
    e = parse_expression('not (like "a" or LIKE "b") and Like "c"')
    assert e == And((Not(Or((Atom(P("a")), Atom(P("b"))))), Atom(P("c"))))


def test_parse_flattens_chains():
    e = parse_expression('LIKE "a" AND LIKE "b" AND LIKE "c"')
    assert isinstance(e, And) and len(e.children) == 3


def test_quoted_pattern_escapes():
    e = parse_expression('LIKE "a\\"b\\\\c"')
    assert e == Atom(P('a"b\\c'))


def test_pattern_escape_inside_expression():
    e = parse_expression('LIKE "a!%b"', escape="!")
    assert evaluate(e, "a%b")
    assert not evaluate(e, "ab")


def test_tokens_mode_expression():
    e = parse_expression('LIKE "# q0 %"', tokens=True)
    assert evaluate(e, ("#", "q0", "_blank"))
    assert not evaluate(e, ("#", "q1"))


@pytest.mark.parametrize(
    "bad,pos",
    [
        ('LIKE "a', 5),
        ('LIKE "a" banana', 9),
        ("LIKE", 4),
        ('("a")', 1),
        ('LIKE "a" OR', 11),
        ('LIKE "a")', 8),
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(bad)
    assert exc.value.position == pos


def test_render_round_trip():
    rng = random.Random(7)

    def build(depth):
        if depth == 0 or rng.random() < 0.35:
            return Atom(random_pattern(rng, "ab", 4))
        kind = rng.random()
        if kind < 0.25:
            return Not(build(depth - 1))
        parts = [build(depth - 1) for _ in range(rng.randint(2, 3))]
        return and_(*parts) if kind < 0.6 else or_(*parts)

    for _ in range(300):
        e = build(3)
        assert parse_expression(render_expression(e)) == e, render_expression(e)


@pytest.mark.parametrize("escape", [None, "!"])
def test_token_mode_render_raises_or_round_trips(escape):
    rng = random.Random(11)
    symbols = ("a", "q0", "a b", "%", "!x")
    refused = 0
    for _ in range(300):
        e = and_(*[Atom(random_pattern(rng, symbols, 4)) for _ in range(2)])
        try:
            text = render_expression(e, escape=escape, tokens=True)
        except RenderError:
            refused += 1
            continue
        assert parse_expression(text, escape=escape, tokens=True) == e, text
    assert 0 < refused < 300
    with pytest.raises(ValueError, match="nonempty"):
        Literal("")


def test_render_quotes_special_characters():
    e = Atom(P('a"b\\c'))
    assert parse_expression(render_expression(e)) == e


def test_smart_constructors():
    a, b, c = Atom(P("a")), Atom(P("b")), Atom(P("c"))
    assert and_(a) == a
    assert or_(a) == a
    assert and_(a, and_(b, c)) == And((a, b, c))
    assert or_(or_(a, b), c) == Or((a, b, c))
    assert and_(or_(a, b), c) == And((Or((a, b)), c))
    assert And((a, b)) != Or((a, b)) and And([a, b]) == And((a, b))
    assert repr(Or((a, b))) == f"Or(children=({a!r}, {b!r}))"
    with pytest.raises(ValueError, match="^and_ needs at least one item$"):
        and_()
    with pytest.raises(ValueError, match="^or_ needs at least one item$"):
        or_()
    with pytest.raises(ValueError, match="^And needs at least two children$"):
        And((a,))
    with pytest.raises(ValueError, match="^Or needs at least two children$"):
        Or((a,))


def test_evaluate_connectives():
    e = parse_expression('LIKE "%a%" AND NOT LIKE "%b%"')
    assert evaluate(e, "xax")
    assert not evaluate(e, "ab")
    assert not evaluate(e, "x")
    e = parse_expression('LIKE "a" OR LIKE "b"')
    assert evaluate(e, "a") and evaluate(e, "b") and not evaluate(e, "c")


def test_size_monotonicity_atoms():
    e = parse_expression('LIKE "a%" AND (NOT LIKE "bb" OR LIKE "_")')
    assert expression_size(e) == 5
    assert not is_monotone(e)
    assert is_monotone(parse_expression('LIKE "a" AND (LIKE "b" OR LIKE "c")'))
    assert list(atom_patterns(e)) == [P("a%"), P("bb"), P("_")]


@pytest.mark.parametrize("run", [3000, 3001])
def test_deep_not_chain_built_in_library(run):
    core = Atom(P("a%b"))
    reduced = core if run % 2 == 0 else Not(core)
    e = core
    for _ in range(run):
        e = Not(e)
    for t in all_texts("ab", 4):
        assert evaluate(e, t) == evaluate(reduced, t), t
    assert render_expression(e) == "NOT " * run + 'LIKE "a%b"'
    assert expression_size(e) == len(core.pattern) == 3
    assert list(atom_patterns(e)) == [core.pattern]
    sigma = Alphabet.from_chars("ab")
    assert to_dot_depth1_dnf(e, sigma) == to_dot_depth1_dnf(reduced, sigma)


@pytest.mark.parametrize("gate", [And, Or])
def test_deep_gate_chain_built_in_library_is_walked_without_recursion(gate):
    # Far past the recursion limit; the only NOT sits at the bottom.
    core = Atom(P("a"))
    e, negated = core, Not(core)
    for _ in range(3000):
        e = gate((e, Atom(P("b%"))))
        negated = gate((negated, Atom(P("b%"))))
    assert is_monotone(e)
    assert not is_monotone(negated)
    assert expression_size(e) == expression_size(negated) == 1 + 3000 * 2


def test_deep_alternating_chain_evaluates_and_renders_without_recursion():
    e = alternating_chain(3000, Not(Atom(P("aaa"))))
    # A text holding a and no b reaches the leaf; one holding b stops at
    # the first OR.
    for t in all_texts("ab", 4):
        want = "a" in t and ("b" in t or t != ("a", "a", "a"))
        assert evaluate(e, t) == want, t
    pairs = 1500
    assert render_expression(e) == (
        'LIKE "%a%" AND (LIKE "%b%" OR ' * pairs + 'NOT LIKE "aaa"' + ")" * pairs
    )
    shallow = alternating_chain(5, Atom(P("aaa")))
    assert parse_expression(render_expression(shallow)) == shallow


def test_evaluate_stops_at_the_first_deciding_child(monkeypatch):
    import likekit.expression as expression

    seen = []

    def counting(p, t):
        seen.append(p)
        return match_greedy(p, t)

    monkeypatch.setattr(expression, "match_greedy", counting)
    e = alternating_chain(3000, Atom(P("aaa")))
    # b stops the first OR, after %a% and %b%.
    assert evaluate(e, "ab")
    assert seen == [P("%a%"), P("%b%")]
    seen.clear()
    # No a stops the top AND at once.
    assert not evaluate(e, "b")
    assert seen == [P("%a%")]
    seen.clear()
    # aaa walks the whole chain down to the leaf.
    assert evaluate(e, "aaa")
    assert len(seen) == 3000 + 1
    # With every gate under a NOT, each gate is its dual once the NOT is
    # pushed down, decided by the same child: the same atoms are read in
    # the same order. Past the gates, an even run of NOTs leaves the leaf.
    negated = alternating_chain(3000, Atom(P("aaa")), negated=True)
    for t, want in (("ab", True), ("b", True), ("aaa", True), ("a", False)):
        seen.clear()
        evaluate(e, t)
        plain = seen[:]
        seen.clear()
        assert evaluate(negated, t) == want, t
        assert seen == plain, t


def test_expand_underscores_equivalence():
    sigma = Alphabet.from_chars("ab")
    p = P("_a_")
    expanded = expand_underscores(p, sigma)
    assert isinstance(expanded, Or) and len(expanded.children) == 4
    for t in all_texts("ab", 4):
        assert evaluate(expanded, t) == evaluate(Atom(p), t), t
    assert expand_underscores(P("ab"), sigma) == Atom(P("ab"))


def test_expand_underscores_cap():
    sigma = Alphabet.from_chars("ab")
    with pytest.raises(ExplosionCapError) as exc:
        expand_underscores(P("_____"), sigma, cap=16)
    assert exc.value.required == 32 and exc.value.cap == 16
    assert str(exc.value) == "rewrite would generate 32 atoms, above the cap of 16"


def test_expansion_cap_reports_a_count_past_the_int_digit_limit():
    # 2**15000 has 4516 decimal digits, past Python's default limit of 4300
    # for int to str conversion.
    sigma = Alphabet.from_chars("ab")
    with pytest.raises(ExplosionCapError) as exc:
        expand_underscores(Pattern((ANY_ONE,) * 15000), sigma)
    assert exc.value.required == 2**15000 and exc.value.cap == 4096
    assert str(exc.value) == (
        "rewrite would generate at least 2^15000 atoms, above the cap of 4096"
    )


def test_dnf_atoms_are_wildcard_free_and_normalized():
    sigma = Alphabet.from_chars("01")
    e = parse_expression('NOT (LIKE "%_0" AND NOT LIKE "_%%1") OR LIKE "__"')
    dnf = to_dot_depth1_dnf(e, sigma)
    assert dnf.clauses
    for clause in dnf.clauses:
        for sa in clause:
            assert not any(isinstance(t, AnyOne) for t in sa.pattern.tokens)
            assert is_normalized(sa.pattern)


@pytest.mark.parametrize(
    "text",
    [
        'LIKE "0_1"',
        'NOT LIKE "%0_"',
        'LIKE "_%" AND NOT LIKE "%11%"',
        'NOT (LIKE "_" OR NOT LIKE "0%_")',
        '(LIKE "%0" OR LIKE "1_") AND NOT (LIKE "01" AND LIKE "_%_")',
        'NOT NOT LIKE "_1%"',
    ],
)
def test_dnf_preserves_evaluation(text):
    sigma = Alphabet.from_chars("01")
    e = parse_expression(text)
    back = to_dot_depth1_dnf(e, sigma).to_expression()
    for t in all_texts("01", 5):
        assert evaluate(e, t) == evaluate(back, t), (text, t)


def test_dnf_cap():
    sigma = Alphabet.from_chars("01")
    e = parse_expression('LIKE "_____________"')
    with pytest.raises(ExplosionCapError):
        to_dot_depth1_dnf(e, sigma, cap=64)


def test_dnf_cap_fires_before_the_product_is_built():
    sigma = Alphabet.from_chars("ab")
    words = [format(n, "b").replace("0", "a").replace("1", "b") for n in range(1500)]
    left = or_(*[Atom(P(w + "%")) for w in words])
    right = or_(*[Atom(P("%" + w)) for w in words])
    tracemalloc.start()
    try:
        with pytest.raises(ExplosionCapError) as exc:
            to_dot_depth1_dnf(And((left, right)), sigma, cap=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.required == 4_500_000 and exc.value.cap == 4096
    assert peak < 10 * 2**20


def test_dnf_agrees_with_recursive_reference():
    rng = random.Random(1066)
    for i in range(600):
        sigma = Alphabet.from_chars("ab" if i % 2 else "abc")
        e = _random_nested(rng, "abz", 3)
        cap = rng.choice((4, 16, 64, 4096))
        try:
            want = reference_dnf_clauses(e, sigma, cap)
        except ExplosionCapError as exc:
            with pytest.raises(ExplosionCapError) as got:
                to_dot_depth1_dnf(e, sigma, cap=cap)
            assert (got.value.required, got.value.cap) == (exc.required, exc.cap)
            continue
        dnf = to_dot_depth1_dnf(e, sigma, cap=cap)
        assert dnf.clauses == tuple(map(tuple, want)), e


def _random_nested(rng, symbols, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Atom(random_pattern(rng, symbols, 3))
    if r < 0.45:
        return Not(_random_nested(rng, symbols, depth - 1))
    gate = And if rng.random() < 0.5 else Or
    n = rng.randint(2, 3)
    return gate(tuple(_random_nested(rng, symbols, depth - 1) for _ in range(n)))


def test_dnf_of_a_deep_or_chain():
    # 3000 atoms under 2999 right-nested binary ORs, built in the library.
    sigma = Alphabet.from_chars("ab")
    atoms = [Atom(Pattern((Literal(f"s{i}"), ANY_STRING))) for i in range(3000)]
    e = atoms[-1]
    for a in reversed(atoms[:-1]):
        e = Or((a, e))
    dnf = to_dot_depth1_dnf(e, sigma)
    assert dnf.clauses == tuple((SignedAtom(a.pattern, True),) for a in atoms)
    # Under a NOT the chain becomes one clause of 3000 negated atoms.
    (clause,) = to_dot_depth1_dnf(Not(e), sigma).clauses
    assert clause == tuple(SignedAtom(a.pattern, False) for a in atoms)


def test_dnf_refuses_a_negative_cap():
    sigma = Alphabet.from_chars("ab")
    with pytest.raises(ValueError, match="negative"):
        to_dot_depth1_dnf(Atom(P("a%")), sigma, cap=-1)
    for text in ("_", "a%"):
        with pytest.raises(ValueError, match="negative"):
            expand_underscores(P(text), sigma, cap=-1)
