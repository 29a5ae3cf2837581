import random
import sys
import threading
from collections import deque
from operator import attrgetter

import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    And,
    Atom,
    Cnf,
    DEFAULT_STATE_BUDGET,
    Literal,
    Not,
    Or,
    Pattern,
    PatternNfa,
    SearchBudgetExceeded,
    Verdict,
    and_,
    atom_patterns,
    decode_3sat_witness,
    encode_3sat,
    encode_tm,
    evaluate,
    expression_size,
    find_separating_string,
    find_witness,
    is_normalized,
    match_greedy,
    match_oracle,
    normalize,
    or_,
    parse_expression,
    parse_pattern,
    render_pattern,
    simulate_tm,
)
from likekit import automata
from likekit.automata import (
    _CompiledSearch,
    _bfs,
    _flat_atoms,
    _gate,
    _join,
    _predicate,
    _separator_halves,
)
from likekit.expression import _Gate

from helpers import (
    FALSE_FOREVER,
    TRUE_FOREVER,
    UNDECIDED,
    all_patterns,
    all_texts,
    alternating_chain,
    assignment_satisfies,
    brute_force_sat,
    counting_bound_dead,
    counting_dead_bound,
    counting_settled,
    counting_slack,
    counting_unsettled,
    flat_search_reference,
    m_bouncer,
    m_counter,
    m_dirty_accept,
    m_edge_fall,
    m_loop,
    m_one_step,
    m_stuck,
    m_wide,
    naive_class_layout,
    naive_counting,
    naive_family,
    naive_forecasts,
    naive_packed_masks,
    ordered_3sat_reference,
    random_monotone_expression,
    random_machine,
    random_pattern,
    random_text,
    reachable_states,
    realize,
    reference_bfs,
    reference_encode_tm,
    reference_separator,
    shortest_satisfying,
    sorted_kept_prefixes,
    sorted_unfalsified_prefixes,
    unfalsified_partial_assignments,
)


def P(text):
    return parse_pattern(text)


def test_nfa_agrees_with_oracle():
    for p in all_patterns("ab", 4):
        nfa = PatternNfa(p)
        # z is no literal of any pattern, so it steps on the _ mask alone.
        for t in (*all_texts("ab", 5), *all_texts("abz", 4)):
            assert nfa.accepts(t) == match_oracle(p, t) == match_greedy(p, t), (p, t)
    # Literals spelled % and _, names longer than one character, one with a
    # space, and text symbols the pattern never names. Half the texts are
    # built to match.
    rng = random.Random(24)
    symbols = ("%", "_", "a", "ab", "a b", "!")
    for _ in range(3000):
        p = random_pattern(rng, rng.sample(symbols, rng.randint(1, 3)), 5)
        if rng.random() < 0.5:
            t = realize(rng, p, symbols)
        else:
            t = random_text(rng, symbols, 6)
        nfa = PatternNfa(p)
        assert nfa.accepts(t) == match_oracle(p, t) == match_greedy(p, t), (p, t)


def test_witness_shortest_and_alphabet_order():
    sigma = Alphabet.from_chars("ab")
    out = find_witness(Atom(P("%a%")), sigma)
    assert out.verdict is Verdict.FOUND and out.witness == ("a",)

    out = find_witness(Atom(P("__")), sigma)
    assert out.witness == ("a", "a")

    out = find_witness(or_(Atom(P("b")), Atom(P("a"))), sigma)
    assert out.witness == ("a",)

    out = find_witness(Atom(P("")), sigma)
    assert out.witness == ()


def test_witness_respects_alphabet_declaration_order():
    sigma = Alphabet.from_chars("ba")
    out = find_witness(Atom(P("_")), sigma)
    assert out.witness == ("b",)


def test_unsatisfiable_conjunction():
    sigma = Alphabet.from_chars("ab")
    out = find_witness(and_(Atom(P("a")), Atom(P("b"))), sigma)
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.witness is None


def test_negation_search():
    sigma = Alphabet.from_chars("ab")
    e = and_(Atom(P("%a%")), Not(Atom(P("a"))))
    out = find_witness(e, sigma)
    assert out.witness == ("a", "a")


def test_max_len_below_the_shortest_witness_is_incomplete():
    e1 = Atom(P("%01%"))
    e2 = Atom(P("%0%1%"))
    sigma = Alphabet.from_chars("012")
    out = find_separating_string(e1, e2, sigma, max_len=2)
    assert out.verdict is Verdict.EXHAUSTED_EQUIVALENT and not out.complete
    assert find_separating_string(e1, e2, sigma, max_len=3).witness == ("0", "2", "1")
    # Over 01 the pair is equivalent; the product closes within two symbols.
    out = find_separating_string(e1, e2, Alphabet.from_chars("01"), max_len=2)
    assert out.verdict is Verdict.EXHAUSTED_EQUIVALENT and out.complete

    neg = and_(Not(Atom(P("a%"))), Atom(P("%a%")))
    out = find_witness(neg, Alphabet.from_chars("ab"), max_len=1)
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and not out.complete
    # With no max_len the search exhausts the state space, which is a proof.
    out = find_witness(Atom(P("a_")), Alphabet.from_chars("b"))
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.complete


def test_explicit_max_len_is_a_hard_cap():
    sigma = Alphabet.from_chars("ab")
    e = Atom(P("___"))
    assert find_witness(e, sigma, max_len=2).verdict is Verdict.EXHAUSTED_EMPTY
    assert find_witness(e, sigma, max_len=3).witness == ("a", "a", "a")


def test_negative_max_len_is_refused():
    # The empty pattern's witness () is longer than a cap of -1.
    sigma = Alphabet.from_chars("ab")
    e = Atom(P(""))
    for search, exprs in ((find_witness, [e]), (find_separating_string, [e, Not(e)])):
        assert search(*exprs, sigma, max_len=0).witness == ()
        with pytest.raises(ValueError, match="max_len"):
            search(*exprs, sigma, max_len=-1)
        # A budget below one still stops before the start state.
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(*exprs, sigma, budget=0, max_len=0)
        assert exc.value.explored == 0


def test_negative_budget_is_refused():
    # As with max_len, a negative budget is a bad argument, not a stop;
    # a budget of 0 still stops before the start state.
    sigma = Alphabet.from_chars("ab")
    e = Atom(P("%"))
    for search, exprs in ((find_witness, [e]), (find_separating_string, [e, e])):
        for budget in (-1, -(1 << 70)):
            with pytest.raises(ValueError, match="budget"):
                search(*exprs, sigma, budget=budget)
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(*exprs, sigma, budget=0)
        assert exc.value.explored == 0


def test_budget_exceeded():
    sigma = Alphabet.from_chars("ab")
    e = Not(Atom(P("%aaaa%")))
    with pytest.raises(SearchBudgetExceeded) as exc:
        find_witness(and_(e, Atom(P("bbbbbbbb"))), sigma, budget=3)
    assert exc.value.explored >= 3


def test_budget_zero_explores_nothing():
    # Even a search the start state alone would decide stops before it.
    sigma = Alphabet.from_chars("ab")
    e = Atom(P("%"))
    for search, exprs in ((find_witness, [e]), (find_separating_string, [e, e])):
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(*exprs, sigma, budget=0)
        assert exc.value.explored == 0
        assert search(*exprs, sigma, budget=1).explored == 1


def test_separator_halves_share_the_start_and_the_budget():
    # Equivalent over 01, so both halves exhaust. Each half explores what
    # find_witness explores on its And, and the start is counted once.
    e1, e2 = Atom(P("%01%")), Atom(P("%0%1%"))
    sigma = Alphabet.from_chars("01")
    first = find_witness(and_(e1, Not(e2)), sigma).explored
    second = find_witness(and_(e2, Not(e1)), sigma).explored
    total = first + second - 1
    assert first > 1 and second > 1
    assert find_separating_string(e1, e2, sigma).explored == total
    assert find_separating_string(e1, e2, sigma, budget=total).explored == total
    # A budget stop in either half reports the shared total, which is the
    # budget; from a budget of first on, the second half is the one stopped.
    for budget in range(total):
        with pytest.raises(SearchBudgetExceeded) as exc:
            find_separating_string(e1, e2, sigma, budget=budget)
        assert exc.value.explored == budget


def test_separator_is_incomplete_when_a_cap_cuts_one_half():
    # % is true on every text, so the half for NOT ___% AND NOT % is dead
    # from the start and complete; the other half's witnesses are the texts
    # of length 3 or more, which max_len 2 cuts off.
    sigma = Alphabet.from_chars("ab")
    e1, e2 = Atom(P("%")), Not(Atom(P("___%")))
    cut = find_witness(and_(e1, Not(e2)), sigma, max_len=2)
    whole = find_witness(and_(e2, Not(e1)), sigma, max_len=2)
    assert not cut.complete and whole.complete
    for pair in ((e1, e2), (e2, e1)):
        out = find_separating_string(*pair, sigma, max_len=2)
        assert (out.verdict, out.complete) == (Verdict.EXHAUSTED_EQUIVALENT, False)
        out = find_separating_string(*pair, sigma, max_len=3)
        assert (out.witness, out.complete) == (("a", "a", "a"), True)


def test_separator_applies_the_counting_rules_to_each_half():
    # A 5-variable gadget against the same gadget without its last clause.
    # Each half is an And of a gadget's conjuncts and a NOT, so it has that
    # gadget's counting forecast. Every normal form of both gadgets is %x%
    # or all _, so each half is read in alphabet order. The joint search
    # with no counting rule explored 1263 states here, the halves read in
    # every order 276, and read in order with a clause kept alive by a
    # holder in any column 115. The reference scan, which expands every
    # state, explores as many.
    rng = random.Random(2)
    n = 5
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(round(4.3 * n))
    )
    e, sigma = encode_3sat(Cnf(n, clauses))
    fewer, _ = encode_3sat(Cnf(n, clauses[:-1]))
    halves = _separator_halves(_CompiledSearch([e, fewer], sigma), e, fewer)
    assert all(counting.ordered for _, _, counting in halves)
    out = find_separating_string(e, fewer, sigma)
    assert out.witness == ("x1", "x2", "x5", "~x3", "~x4")
    assert (out.explored, out.complete) == (22, True)
    want = _reference_search([e, fewer], sigma, DEFAULT_STATE_BUDGET, None)
    assert want == (out.witness, 22, True)


def test_equivalence_known_pair():
    e1 = Atom(P("%01%"))
    e2 = Atom(P("%0%1%"))
    out = find_separating_string(e1, e2, Alphabet.from_chars("01"))
    assert out.verdict is Verdict.EXHAUSTED_EQUIVALENT and out.witness is None

    out = find_separating_string(e1, e2, Alphabet.from_chars("012"))
    assert out.verdict is Verdict.FOUND
    assert out.witness == ("0", "2", "1")
    assert evaluate(e2, out.witness) and not evaluate(e1, out.witness)


def test_equivalence_distinguishes_near_miss():
    sigma = Alphabet.from_chars("ab")
    out = find_separating_string(
        Atom(P("a")), parse_expression('LIKE "a" OR LIKE "aa"'), sigma
    )
    assert out.verdict is Verdict.FOUND and out.witness == ("a", "a")


def test_normal_form_equivalences():
    sigma = Alphabet.from_chars("ab")
    for before, after in [("%_", "_%"), ("%%", "%"), ("_%_%_", "___%")]:
        out = find_separating_string(Atom(P(before)), Atom(P(after)), sigma)
        assert out.verdict is Verdict.EXHAUSTED_EQUIVALENT, (before, after)


def test_census_of_small_normal_forms():
    # Over 012, the normal forms of up to 4 tokens that agree on every text
    # of up to 3 symbols fall into buckets. Each bucket is split by the
    # separator's witness for two of its forms, a longer text, until every
    # part holds one form, so no two of them are equivalent.
    sigma = Alphabet.from_chars("012")
    forms = list(dict.fromkeys(normalize(p) for p in all_patterns("012", 4)))
    texts = list(all_texts("012", 3))
    buckets = {}
    for form in forms:
        language = tuple(match_oracle(form, t) for t in texts)
        buckets.setdefault(language, []).append(form)
    collisions = [bucket for bucket in buckets.values() if len(bucket) > 1]
    assert len(collisions) > 50
    while collisions:
        p, q, *_ = bucket = collisions.pop()
        out = find_separating_string(Atom(p), Atom(q), sigma)
        assert out.verdict is Verdict.FOUND and len(out.witness) > 3, (p, q)
        assert match_oracle(p, out.witness) != match_oracle(q, out.witness)
        for side in (True, False):
            part = [f for f in bucket if match_oracle(f, out.witness) == side]
            if len(part) > 1:
                collisions.append(part)
    # Over 01 the substring order collapses some distinct forms.
    sigma = Alphabet.from_chars("01")
    for p, q in (("%01%", "%0%1%"), ("%001%", "%00%1%")):
        out = find_separating_string(Atom(P(p)), Atom(P(q)), sigma)
        assert (out.verdict, out.complete) == (Verdict.EXHAUSTED_EQUIVALENT, True)


def test_search_agrees_with_enumeration():
    rng = random.Random(991)
    sigma = Alphabet.from_chars("ab")
    for _ in range(150):
        e1 = Atom(random_pattern(rng, "ab", 4))
        e2 = Atom(random_pattern(rng, "ab", 4))
        out = find_separating_string(e1, e2, sigma)
        expected = shortest_satisfying(
            or_(
                and_(e1, Not(e2)),
                and_(e2, Not(e1)),
            ),
            sigma,
            max_len=9,
        )
        if out.verdict is Verdict.FOUND:
            assert evaluate(e1, out.witness) != evaluate(e2, out.witness)
            if expected is not None:
                assert out.witness == expected, (e1, e2)
            else:
                assert len(out.witness) > 9, (e1, e2)
        else:
            assert expected is None, (e1, e2)


def test_monotone_witness_matches_enumeration():
    rng = random.Random(313)
    sigma = Alphabet.from_chars("ab")
    for _ in range(150):
        e = random_monotone_expression(rng, "ab", 6)
        out = find_witness(e, sigma)
        expected = shortest_satisfying(e, sigma, max_len=8)
        if out.verdict is Verdict.FOUND:
            assert out.witness == expected
        else:
            assert expected is None


def test_monotone_search_needs_no_state_past_the_token_count():
    # A negation-free expression with a witness has one no longer than its
    # token count. The search does not use that bound: it exhausts the
    # state space. Capped at the token count it cuts off no live state, so
    # both searches explore the same states and both are complete.
    rng = random.Random(1515)
    cases = []
    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        e = random_monotone_expression(rng, syms, rng.randint(2, 10))
        cases.append((e, Alphabet.from_chars(chars)))
    for n in range(3, 9):
        for _ in range(4):
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                for _ in range(round(4.3 * n))
            )
            cases.append(encode_3sat(Cnf(n, clauses)))
    for e, sigma in cases:
        free = find_witness(e, sigma)
        capped = find_witness(e, sigma, max_len=expression_size(e))
        assert free.complete and capped.complete, e
        got = (free.verdict, free.witness, free.explored)
        assert got == (capped.verdict, capped.witness, capped.explored), e


def test_outcome_reports_exploration():
    sigma = Alphabet.from_chars("ab")
    out = find_witness(Atom(P("ab")), sigma)
    assert out.explored >= 1


def test_outcome_reports_packed_size():
    sigma = Alphabet.from_chars("ab")
    # %%_ and _% share one normal form, so they share one block of bits.
    e = and_(Atom(P("%%_")), Atom(P("_%")), Not(Atom(P("ab"))))
    out = find_witness(e, sigma)
    assert out.witness == ("a",)
    assert (out.atoms, out.state_bits) == (2, 3 + 3)


@pytest.mark.parametrize("run", [3000, 3001])
def test_deep_not_chain_search(run):
    core = and_(Atom(P("%a%")), Not(Atom(P("%bb"))))
    reduced = core if run % 2 == 0 else Not(core)
    e = core
    for _ in range(run):
        e = Not(e)
    sigma = Alphabet.from_chars("ab")
    got, want = find_witness(e, sigma), find_witness(reduced, sigma)
    assert got.verdict is want.verdict is Verdict.FOUND
    assert (got.witness, got.explored) == (want.witness, want.explored)
    sep = find_separating_string(e, reduced, sigma)
    assert sep.verdict is Verdict.EXHAUSTED_EQUIVALENT and sep.complete


def test_literal_outside_alphabet_prunes_at_once():
    # %z can never match over ab, so the conjunction is decided false in
    # every successor of the start state, however many texts %aaa% allows.
    e = and_(Atom(P("%z")), Not(Atom(P("%aaa%"))))
    out = find_witness(e, Alphabet.from_chars("ab"))
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.explored == 1


# --- packed search against independent references ----------------------------


def _random_expr(rng, symbols, depth):
    """Expression of depth <= ``depth`` whose atoms come from
    ``random_pattern``: un-normalized runs, the empty pattern and literals
    outside the search alphabet all occur."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Atom(random_pattern(rng, symbols, 4))
    if r < 0.45:
        return Not(_random_expr(rng, symbols, depth - 1))
    gate = And if rng.random() < 0.5 else Or
    if r < 0.65:
        # Flat gates over atoms of one polarity take the union-mask path.
        n = rng.randint(2, 3)
        atoms = [Atom(random_pattern(rng, symbols, 4)) for _ in range(n)]
        if rng.random() < 0.5:
            atoms = [Not(a) for a in atoms]
        return gate(tuple(atoms))
    n = rng.randint(2, 3)
    return gate(tuple(_random_expr(rng, symbols, depth - 1) for _ in range(n)))


# Alphabet, pattern symbols (one outside the alphabet), enumeration bound.
_DIFF_SETTINGS = (("ab", "abz", 6), ("abc", "abcz", 4))


def test_packed_witness_agrees_with_enumeration():
    rng = random.Random(4242)
    for i in range(400):
        chars, syms, bound = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_expr(rng, syms, 3)
        max_len = rng.choice((None, None, 1, 2))
        out = find_witness(e, sigma, max_len=max_len)
        limit = bound if max_len is None else max_len
        expected = shortest_satisfying(e, sigma, max_len=limit)
        if out.verdict is Verdict.FOUND:
            assert evaluate(e, out.witness), e
            if expected is None:
                assert len(out.witness) > limit, e
            else:
                assert out.witness == expected, e
        else:
            assert expected is None, e
            if out.complete:
                assert shortest_satisfying(e, sigma, max_len=bound) is None, e
        assert out.complete or max_len is not None, e


def test_packed_separator_agrees_with_brute_force():
    # Random pairs, then pairs of Ands that the order guard often admits:
    # a half is read in alphabet order when every form of both is %x% or
    # all _ and its first expression starts tight.
    rng = random.Random(2424)
    cases = []
    for i in range(400):
        chars, syms, bound = _DIFF_SETTINGS[i % 2]
        e1 = _random_expr(rng, syms, 3)
        cases.append((chars, bound, e1, _random_expr(rng, syms, 3)))
    rng = random.Random(2425)
    for i in range(300):
        chars, syms, bound = _DIFF_SETTINGS[i % 2]
        e1 = _random_ordered_expr(rng, syms)
        cases.append((chars, bound, e1, _random_ordered_expr(rng, syms)))
    ordered = 0
    for chars, bound, e1, e2 in cases:
        sigma = Alphabet.from_chars(chars)
        halves = _separator_halves(_CompiledSearch([e1, e2], sigma), e1, e2)
        ordered += sum(c is not None and c.ordered for _, _, c in halves)
        out = find_separating_string(e1, e2, sigma)
        first = next(
            (t for t in all_texts(chars, bound) if evaluate(e1, t) != evaluate(e2, t)),
            None,
        )
        assert out.complete, (e1, e2)
        if out.verdict is Verdict.FOUND:
            assert evaluate(e1, out.witness) != evaluate(e2, out.witness), (e1, e2)
            if first is None:
                assert len(out.witness) > bound, (e1, e2)
            else:
                assert out.witness == first, (e1, e2)
        else:
            assert first is None, (e1, e2)
    assert ordered >= 250


def _assert_separator_matches_joint_reference(e1, e2, sigma, max_len):
    """The separator's verdict, witness and ``complete`` against one joint
    scan on the naive forecasts. Where a counting rule shows that a cap cut
    off only dead states, the separator alone may be complete; then no
    separator exists at any length. Returns whether that happened."""
    out = find_separating_string(e1, e2, sigma, max_len=max_len)
    witness, complete = reference_separator(e1, e2, sigma, max_len)
    assert out.witness == witness, (e1, e2, max_len)
    found = Verdict.EXHAUSTED_EQUIVALENT if witness is None else Verdict.FOUND
    assert out.verdict is found, (e1, e2, max_len)
    if out.complete == complete:
        return False
    assert out.complete and reference_separator(e1, e2, sigma, None)[0] is None
    return True


def test_separator_agrees_with_the_joint_reference():
    rng = random.Random(6611)
    for i in range(1500):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        make = _random_expr if i % 3 else _random_expr_with_not_runs
        e1, e2 = make(rng, syms, 3), make(rng, syms, 3)
        max_len = rng.choice((None, 0, 1, 2, 3, 4))
        sigma = Alphabet.from_chars(chars)
        assert not _assert_separator_matches_joint_reference(e1, e2, sigma, max_len)


def test_every_small_separator_pair_agrees_with_the_joint_reference():
    # Small scope: every ordered pair of the 69 normal forms over {a, b} of
    # at most 3 tokens, decided over {a, b, c}, with no cap and with a cap
    # of 2. An atom has no counting forecast, so the cap's complete is the
    # joint scan's too.
    forms = [Atom(p) for p in dict.fromkeys(all_patterns("ab", 3)) if is_normalized(p)]
    assert len(forms) == 69
    sigma = Alphabet.from_chars("abc")
    for e1 in forms:
        for e2 in forms:
            for max_len in (None, 2):
                out = find_separating_string(e1, e2, sigma, max_len=max_len)
                want = reference_separator(e1, e2, sigma, max_len)
                assert (out.witness, out.complete) == want, (e1, e2, max_len)


def test_separator_agrees_with_the_joint_reference_on_gadgets():
    # 3-CNF gadgets against the same gadget without its last clause, both
    # ways round. A cap one symbol short of n on an unsatisfiable gadget
    # cuts off only states dead by count, so there the separator is
    # complete and the joint scan is not.
    rng = random.Random(7)
    sharper = 0
    for n, count in ((3, 4), (4, 4), (5, 1)):
        vs = range(1, n + 1)
        for _ in range(count):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(vs, 3))
                for _ in range(round(4.3 * n))
            )
            e, sigma = encode_3sat(Cnf(n, clauses))
            fewer, _ = encode_3sat(Cnf(n, clauses[:-1]))
            for max_len in (None, n - 1, n):
                for pair in ((e, fewer), (fewer, e)):
                    sharper += _assert_separator_matches_joint_reference(
                        *pair, sigma, max_len
                    )
    assert sharper
    # The machine gadget against its reference with every wrong window
    # triple listed: equivalent, and so within every cap too.
    spec, word, space = m_one_step()
    expr, sigma = encode_tm(spec, word, space)
    ref, _ = reference_encode_tm(spec, word, space)
    for max_len in (None, 1, 3):
        _assert_separator_matches_joint_reference(ref, expr, sigma, max_len)


def test_packed_atom_acceptance_agrees_with_nfa_and_oracle():
    # A search for "p and exactly the literal text t", capped at |t|,
    # finds t exactly when the packed automaton accepts t on p's block.
    rng = random.Random(77)
    sigma = Alphabet.from_chars("ab")
    texts = list(all_texts("ab", 4))
    for _ in range(200):
        p = random_pattern(rng, "abz", 5)
        nfa = PatternNfa(p)
        for t in texts:
            pinned = and_(Atom(p), Atom(Pattern(tuple(Literal(s) for s in t))))
            out = find_witness(pinned, sigma, max_len=len(t))
            packed = out.verdict is Verdict.FOUND
            assert packed == nfa.accepts(t) == match_oracle(p, t), (p, t)
            assert out.witness in (None, t)


def _assert_compile_matches_reference(exprs, sigma):
    comp = _CompiledSearch(exprs, sigma)
    want = naive_class_layout(exprs, sigma)
    assert comp.moves == want["moves"]
    assert (comp.gaps, comp.initial) == (want["gaps"], want["initial"])
    assert (comp.atoms, comp.state_bits) == (want["atoms"], want["state_bits"])
    if comp._slot is None:
        # A merged compile keeps no block per form, and _masks refuses it.
        # Its blocks, in order, are the reference's, which are laid out in
        # the order of their first atoms.
        bounds = comp._bounds
        spans = [(1 << hi) - (1 << lo) for lo, hi in zip(bounds, bounds[1:])]
        got = [(comp.accept & s, comp._absorb & s, comp._reach & s) for s in spans]
        assert got == list(dict.fromkeys(masks for _, masks in want["blocks"]))
        with pytest.raises(RuntimeError, match="merged"):
            comp._masks([want["blocks"][0][0]])
        return
    # A block is found by a pattern's tokens, so a fresh copy finds it too.
    for p, masks in want["blocks"]:
        assert comp._masks([Pattern(p.tokens)]) == masks, p
    # A group's masks are the union of its atoms' masks.
    for group in (want["blocks"], want["blocks"][::2], want["blocks"][1::3]):
        union = [0, 0, 0]
        for _, masks in group:
            union = [u | m for u, m in zip(union, masks)]
        assert comp._masks([p for p, _ in group]) == tuple(union)


def test_compile_agrees_with_token_by_token_reference():
    rng = random.Random(6060)
    for i in range(300):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        exprs = [_random_expr(rng, syms, 3) for _ in range(rng.randint(1, 2))]
        _assert_compile_matches_reference(exprs, Alphabet.from_chars(chars))
    # The empty pattern, un-normalized runs, and literals outside the
    # alphabet at the start, in the middle and at the end of a block.
    atoms = ["", "%%_", "_%_%", "zab", "a%z_b", "ab%z", "z_z%a%", "z", "%"]
    e = and_(*[Atom(P(a)) for a in atoms])
    _assert_compile_matches_reference([e, Not(Atom(P("%_%")))], Alphabet.from_chars("ab"))


def test_compile_of_a_wide_alphabet_agrees_with_reference():
    # Over 600 symbols, literals late in sigma and outside it are coded as
    # the compile meets them, like any other token.
    symbols = [f"s{i}" for i in range(600)]
    sigma = Alphabet(tuple(symbols))
    pool = symbols[252:] + ["out1", "out2"]
    rng = random.Random(600)
    for _ in range(40):
        exprs = [_random_expr(rng, pool, 2) for _ in range(2)]
        _assert_compile_matches_reference(exprs, sigma)


def test_compiles_of_more_than_255_tokens_agree_with_reference(monkeypatch):
    # Each distinct token gets a code, 255 to a tape, so these compiles take
    # a second tape: sigma's literals, literals outside sigma, classes, and
    # forms with % before % or _, which are laid out again normalized.
    symbols = tuple(f"s{i}" for i in range(400))
    sigma = Alphabet(symbols)
    pool = [*symbols[:300], *(f"out{i}" for i in range(40))]
    rng = random.Random(255)
    tails = [(), (ANY_ONE,), (ANY_STRING,), (ANY_STRING, ANY_ONE)]
    tails.append((ANY_STRING, ANY_STRING))

    def siblings(families, size):
        """Families of siblings, each a head of pool literals and wildcards,
        a last literal that varies (a few outside sigma), and a tail."""
        atoms = []
        for _ in range(families):
            head = random_pattern(rng, pool, 3).tokens
            head += tuple(map(Literal, rng.sample(pool, 2)))
            tail = rng.choice(tails)
            for last in rng.sample([*symbols, "out0"], size):
                atoms.append(Atom(Pattern((*head, Literal(last), *tail))))
        return atoms

    cases = [
        and_(*[Atom(random_pattern(rng, pool, 6)) for _ in range(350)]),
        or_(*siblings(150, 6)),
        And(tuple(map(Not, siblings(100, 2)))),
    ]
    tapes = []
    tape = automata._tape

    def counted(codes, lo):
        tapes.append(lo)
        return tape(codes, lo)

    monkeypatch.setattr(automata, "_tape", counted)
    for e in cases:
        assert not all(map(is_normalized, atom_patterns(e)))
        tapes.clear()
        _assert_compile_matches_reference([e], sigma)
        assert 255 in tapes, tapes
    # The sibling families merge, and the search is the class layout's scan.
    for e in cases[1:]:
        out = _assert_search_is_the_class_layout_scan(e, sigma)
        assert out.state_bits < naive_packed_masks([e], sigma)["state_bits"]


def test_wide_compile_masks_the_tokens_it_holds_not_sigma(monkeypatch):
    # Over 20000 symbols, a compile that names two literals makes one mask
    # per token its blocks hold (the accept slot, %, _, a and b); a symbol
    # it never names steps on the _ mask alone.
    calls = []
    mask = automata._mask

    def counted(tape, c):
        calls.append(c)
        return mask(tape, c)

    monkeypatch.setattr(automata, "_mask", counted)
    sigma = Alphabet(("a", "b", *(f"s{i}" for i in range(19998))))
    e = and_(Atom(P("%a%")), Atom(P("%b%")))
    comp = _CompiledSearch([e], sigma)
    assert len(calls) == 5
    assert comp.moves[2:] == tuple((s, comp.any_one) for s in sigma.symbols[2:])
    _assert_compile_matches_reference([e], sigma)
    assert find_witness(e, sigma).witness == ("a", "b")


# --- class blocks for sibling atoms -------------------------------------------


def _random_flat_family(rng, pool="abcz"):
    """An OR of atoms or an AND of negated atoms over the pool, for a search
    over the pool less z: a few sibling families, each a shared frame around
    a last literal that varies (z, outside the alphabet, among them) with a
    tail of ``_`` and ``%`` only, and a few unrelated atoms."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        head = random_pattern(rng, pool, 3).tokens
        wild = (ANY_ONE, ANY_STRING)
        tail = tuple(rng.choice(wild) for _ in range(rng.randint(0, 2)))
        for last in rng.sample(pool, rng.randint(1, len(pool))):
            atoms.append(Atom(Pattern((*head, Literal(last), *tail))))
    atoms += [Atom(random_pattern(rng, pool, 4)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(atoms)
    if len(atoms) < 2:
        atoms.append(Atom(random_pattern(rng, "abcz", 4)))
    if rng.random() < 0.5:
        return Or(tuple(atoms))
    return And(tuple(Not(a) for a in atoms))


def _assert_search_is_the_class_layout_scan(e, sigma, max_len=None):
    """The search's verdict, witness, explored count and complete are the
    scan's over the naive class layout, and its atoms and state bits the
    layout's; returns the outcome."""
    out = find_witness(e, sigma, max_len=max_len)
    plain = naive_packed_masks([e], sigma)
    classes = naive_class_layout([e], sigma)
    witness, explored, complete = flat_search_reference(e, classes, max_len)
    found = Verdict.EXHAUSTED_EMPTY if witness is None else Verdict.FOUND
    assert (out.verdict, out.witness, out.explored, out.complete) == (
        found,
        witness,
        explored,
        complete,
    )
    assert (out.atoms, out.state_bits) == (plain["atoms"], classes["state_bits"])
    _assert_compile_matches_reference([e], sigma)
    return out


def test_class_blocks_agree_with_the_unmerged_reference():
    # Each family of siblings shares one block, whose state is the OR of
    # its members' blocks, so the verdict, witness and complete are the
    # unmerged scan's; only coarser states can make explored fall, and it
    # is the scan's over the naive class layout.
    rng = random.Random(1717)
    sigma = Alphabet.from_chars("abc")
    merged = fell = faulty = 0
    for i in range(1200):
        e = _random_flat_family(rng)
        max_len = rng.choice((None, None, 0, 1, 2, 3))
        out = find_witness(e, sigma, max_len=max_len)
        plain = naive_packed_masks([e], sigma)
        classes = naive_class_layout([e], sigma)
        witness, explored, complete = flat_search_reference(e, plain, max_len)
        found = Verdict.EXHAUSTED_EMPTY if witness is None else Verdict.FOUND
        assert (out.verdict, out.witness, out.complete) == (found, witness, complete), i
        assert out.explored <= explored, i
        assert flat_search_reference(e, classes, max_len) == (
            witness,
            out.explored,
            complete,
        ), i
        assert (out.atoms, out.state_bits) == (plain["atoms"], classes["state_bits"]), i
        _assert_compile_matches_reference([e], sigma)
        merged += classes["state_bits"] < plain["state_bits"]
        fell += out.explored < explored
        # A merged compile holding a non-normal form is laid out twice,
        # the second time through the class pass on the normal forms.
        faulty += classes["state_bits"] < plain["state_bits"] and not all(
            map(is_normalized, atom_patterns(e))
        )
    assert merged > 800 and fell > 100, (merged, fell)
    assert faulty > 400, faulty
    # Over two to four symbols, from draws of their own.
    rng = random.Random(1818)
    for _ in range(400):
        pool = "abcd"[: rng.randint(2, 4)] + "z"
        e = _random_flat_family(rng, pool)
        sigma = Alphabet.from_chars(pool[:-1])
        _assert_search_is_the_class_layout_scan(e, sigma, rng.choice((None, None, 2)))


def test_every_small_sibling_gate_merges_and_searches_as_unmerged():
    # Small scope: the 136 normal forms over {a, b, c} of at most 3 tokens
    # fall into 43 families of three alike but for their last literal, and
    # every pair and the triple of each family, as an OR of atoms and as an
    # AND of negated atoms, is one class block. Over abc, ab and a its class
    # lies inside, partly outside and wholly outside sigma; the verdict,
    # witness and complete are the unmerged scan's, and the width the naive
    # class layout's.
    forms = [p for p in dict.fromkeys(all_patterns("abc", 3)) if is_normalized(p)]
    assert len(forms) == 136
    families = {}
    for p in forms:
        at = max((i for i, t in enumerate(p.tokens) if isinstance(t, Literal)), default=None)
        if at is not None:
            families.setdefault((p.tokens[:at], p.tokens[at + 1 :]), []).append(p)
    assert len(families) == 43 and {len(f) for f in families.values()} == {3}
    gates = []
    for family in families.values():
        for group in (family[:2], family[::2], family[1:], family):
            atoms, width = tuple(map(Atom, group)), len(group[0].tokens) + 1
            gates += [(Or(atoms), width), (And(tuple(map(Not, atoms))), width)]
    searches = 0
    for chars in ("abc", "ab", "a"):
        sigma = Alphabet.from_chars(chars)
        for e, width in gates:
            plain = naive_packed_masks([e], sigma)
            bits = naive_class_layout([e], sigma)["state_bits"]
            for max_len in (None, 2):
                out = find_witness(e, sigma, max_len=max_len)
                witness, _, complete = flat_search_reference(e, plain, max_len)
                found = Verdict.EXHAUSTED_EMPTY if witness is None else Verdict.FOUND
                assert (out.verdict, out.witness, out.complete) == (
                    found,
                    witness,
                    complete,
                ), (e, chars, max_len)
                assert out.state_bits == bits == width, (e, chars)
                searches += 1
    assert searches == 2064


def test_siblings_merge_at_any_alphabet_width_and_other_shapes_stay_unmerged():
    # Siblings over 300 symbols, and three classes over 250: whether they
    # merge depends on the expression's shape alone, not on sigma's size.
    symbols = tuple(f"s{i}" for i in range(300))
    e = or_(*[Atom(Pattern((ANY_STRING, Literal(s), ANY_ONE))) for s in symbols[:40]])
    near = symbols[:250]
    tight = or_(
        *[
            Atom(Pattern((Literal(head), Literal(s))))
            for head, group in (("s0", near[:2]), ("s1", near[:3]), ("s2", near[1:3]))
            for s in group
        ]
    )
    for expr, sigma in ((e, Alphabet(symbols)), (tight, Alphabet(near))):
        out = _assert_search_is_the_class_layout_scan(expr, sigma)
        assert out.state_bits < naive_packed_masks([expr], sigma)["state_bits"]
    assert find_witness(e, Alphabet(symbols)).state_bits == 4
    # The 3-CNF gadget is an AND with plain atoms among its conjuncts.
    gadget, gadget_sigma = encode_3sat(Cnf(3, ((1, 2, 3), (-1, -2, -3))))
    out = find_witness(gadget, gadget_sigma)
    plain = naive_packed_masks([gadget], gadget_sigma)
    assert (out.atoms, out.state_bits) == (plain["atoms"], plain["state_bits"])
    _assert_compile_matches_reference([gadget], gadget_sigma)


def _machine_runs():
    """Every machine at tape sizes 1-6 that its input fits."""
    for space in range(1, 7):
        for build in (m_bouncer, m_counter):
            spec, word, _ = build(space)
            if len(word) <= space:
                yield pytest.param(spec, word, space, id=f"{build.__name__}-{space}")
        for build in (m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept):
            spec, word, _ = build()
            if len(word) <= space:
                yield pytest.param(spec, word, space, id=f"{build.__name__}-{space}")


def _fenced_and_unfenced(spec, word, space):
    """The machine gadget, and the gadget that also forbids the run's history."""
    expr, sigma = encode_tm(spec, word, space)
    history = Pattern(tuple(map(Literal, simulate_tm(spec, word, space).history)))
    return [(expr, sigma), (and_(expr, Not(Atom(history))), sigma)]


@pytest.mark.parametrize("spec, word, space", list(_machine_runs()))
def test_class_blocks_agree_with_the_unmerged_reference_on_machines(spec, word, space):
    # Fenced, the gadget forbids the run's history too; for an accepting
    # machine the search then exhausts every state the history's prefixes
    # reach. The search is the scan over the naive class layout, and it
    # explores no more states than the scan over the unmerged one.
    for e, sigma in _fenced_and_unfenced(spec, word, space):
        witness, explored, complete = flat_search_reference(
            e, naive_packed_masks([e], sigma)
        )
        out = _assert_search_is_the_class_layout_scan(e, sigma)
        assert (out.witness, out.complete) == (witness, complete)
        assert out.explored <= explored


# --- reading the atoms once --------------------------------------------------


def _count_normalize(monkeypatch):
    """The list that every pattern the compile normalizes is appended to."""
    calls = []

    def counted(p):
        calls.append(p)
        return normalize(p)

    monkeypatch.setattr(automata, "normalize", counted)
    return calls


def _count_joins(monkeypatch):
    """The list that the block count of every join the compile makes is
    appended to."""
    joins = []

    def counted(blocks):
        joins.append(len(blocks))
        return _join(blocks)

    monkeypatch.setattr(automata, "_join", counted)
    return joins


def test_machine_gadgets_are_read_once_and_never_normalized(monkeypatch):
    # encode_tm builds every pattern in normal form, so the first tape shows
    # no %% or %_, and the compile lays the forms out once and calls
    # normalize on none. The gadget comes read: its own compile neither
    # reads its atoms nor runs the family pass. Fenced by and_, the gadget
    # hands its read on, the fence's form joined to it, so that compile
    # reads no atom and runs no pass either. Either way its blocks, class
    # blocks or not, are joined into one stream once.
    calls = _count_normalize(monkeypatch)
    joins = _count_joins(monkeypatch)
    reads, passes = [], []

    def flat_atoms(e):
        reads.append(e)
        return _flat_atoms(e)

    add_forms = automata._Read.add_forms

    def family_pass(read, forms):
        passes.append(len(forms))
        return add_forms(read, forms)

    monkeypatch.setattr(automata, "_flat_atoms", flat_atoms)
    monkeypatch.setattr(automata._Read, "add_forms", family_pass)
    for param in _machine_runs():
        (gadget, sigma), (fenced, _) = _fenced_and_unfenced(*param.values)
        # and_ runs the pass once, over the fence's form alone.
        passes.clear()
        fenced = and_(gadget, fenced.children[-1])
        assert passes == [1], param.id
        for e in (gadget, fenced):
            # encode_tm sends its single forms through the pass as it builds.
            reads.clear()
            joins.clear()
            passes.clear()
            find_witness(e, sigma)
            assert reads == [], param.id
            assert passes == [], param.id
            assert len(joins) == 1, param.id
    assert calls == []


def test_only_the_non_normal_forms_are_normalized(monkeypatch):
    # Only the patterns not in normal form go through normalize, after the
    # first tape shows a %% or %_ and the forms are laid out again.
    calls = _count_normalize(monkeypatch)
    joins = _count_joins(monkeypatch)
    # %_a and _%a share a normal form, counted once; %a and %b, and _%a and
    # _%b, are siblings that share a class block.
    texts = ("%%a", "%b", "%_a", "_%a", "_%b", "a%%")
    e = and_(*[Not(Atom(P(t))) for t in texts])
    sigma = Alphabet.from_chars("ab")
    comp = _CompiledSearch([e], sigma)
    assert sorted(map(render_pattern, calls)) == ["%%a", "%_a", "a%%"]
    # Two layouts, one join each: the first keys the six forms as written
    # (five blocks, _%a and _%b a class), the second their normal forms.
    assert joins == [5, 3]
    assert comp.atoms == naive_packed_masks([e], sigma)["atoms"] == 5
    assert comp.state_bits == naive_class_layout([e], sigma)["state_bits"] == 10
    _assert_compile_matches_reference([e], sigma)
    # Merged, the compile keeps no block per form. Beside a second
    # expression nothing merges, and each raw form reaches the block of its
    # normal form: %_a and _%a share one.
    twin = _CompiledSearch([e, e], sigma)
    assert twin._masks([P("%_a")]) == twin._masks([P("_%a")])
    _assert_compile_matches_reference([e, e], sigma)


def _gadget_runs():
    """Every helper machine whose run fits its space, and 60 seeded random
    machines, as (spec, word, space)."""
    runs = [m_bouncer(space) for space in range(1, 9)]
    runs += [m_counter(space) for space in range(2, 7)]
    runs += [b() for b in (m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept)]
    runs.append(m_wide(4))
    rng = random.Random(3232)
    runs += [random_machine(rng) for _ in range(60)]
    return [(spec, word, space) for spec, word, space in runs if len(word) <= space]


def _gadget_alphabets(sigma):
    """Sigma, sigma with two symbols more and sigma without its next-to-last
    symbol: a read holds over each of them."""
    symbols = sigma.symbols
    return sigma, Alphabet(("y0", *symbols, "y1")), Alphabet(symbols[:-2] + symbols[-1:])


_LAYOUT = attrgetter(
    *("moves", "gaps", "accept", "initial", "_absorb", "_reach", "_immortal"),
    *("state_bits", "atoms", "_bounds"),
)
_OUTCOME = attrgetter("verdict", "witness", "complete", "atoms")


def _read_searches_as_afresh(gate, fresh, alphabet, outcome=None):
    """Whether the compile of gate over alphabet takes its read, after
    checking it against fresh, the same And built from its children: both
    compiles hold the same forms in the same order. Where the read is
    taken, the two find the same verdict, witness and complete over the
    same atoms, and since the read's product blocks are coarser than the
    fresh family pass's, the read's state is no wider and its search
    explores no more states. Elsewhere both compile afresh, to the same
    layout, and find the same outcome."""
    read, afresh = _CompiledSearch([gate], alphabet), _CompiledSearch([fresh], alphabet)
    assert tuple(read._forms) == tuple(afresh._forms), alphabet
    if outcome is None:
        outcome = find_witness(gate, alphabet)
    want = find_witness(fresh, alphabet)
    if gate._read is None or read._forms is not gate._read.forms:
        assert _LAYOUT(read) == _LAYOUT(afresh), alphabet
        assert outcome == want, alphabet
        return False
    assert _OUTCOME(outcome) == _OUTCOME(want), alphabet
    assert outcome.state_bits <= want.state_bits and outcome.explored <= want.explored
    return True


def test_the_gadget_read_compiles_as_a_fresh_read():
    # The gadget as encode_tm returns it carries the builder's read; the same
    # gate built again from its children does not, and is read by the
    # compile. Over the three alphabets of _gadget_alphabets the two
    # compiles search alike (_read_searches_as_afresh). Searched over any of
    # them, the gadget never builds its records; the counting forecast
    # declines it without reading them, and declines it fenced by and_ too.
    runs = _gadget_runs()
    reads = 0
    for spec, word, space in runs:
        expr, sigma = encode_tm(spec, word, space)
        alphabets = _gadget_alphabets(sigma)
        outcomes = [find_witness(expr, alphabet) for alphabet in alphabets]
        assert _CompiledSearch([expr], sigma).counting(expr) is None
        with pytest.raises(AttributeError):
            _Gate.children.__get__(expr)
        fenced = and_(expr, Not(Atom(Pattern((Literal(sigma.symbols[0]),) * 2))))
        assert _CompiledSearch([fenced], sigma).counting(fenced) is None
        fresh = And(expr.children)
        assert expr._read is not None and fresh._read is None
        for alphabet, outcome in zip(alphabets, outcomes):
            reads += _read_searches_as_afresh(expr, fresh, alphabet, outcome)
    # The read is taken over every alphabet, the narrower one included.
    assert reads == 3 * len(runs)


def test_the_fenced_gadget_read_compiles_as_a_fresh_read():
    # and_ hands the gadget's read on, each negated atom after it joined by
    # the family rule, so the fenced gate searches as And(gadget.children +
    # tail) over the three alphabets of _gadget_alphabets
    # (_read_searches_as_afresh). The tails: the run's history (a family of
    # its own), a gadget form again, the middle one and one of the carry-over
    # rule, which a product block holds (each deduped), a text's first symbol,
    # which its forbid_other family leaves out (it joins that class), a
    # form with %% (not normal, so the compile lays the read out again,
    # normalized, as a fresh compile would), a literal outside the gadget's
    # symbols (it joins a gadget family, and the class steps on its members
    # in sigma), two fences (the second joins the first's family), and the
    # same through and_ of and_.
    runs = _gadget_runs()
    reads = 0
    for spec, word, space in runs:
        history = simulate_tm(spec, word, space).history
        expr, sigma = encode_tm(spec, word, space)
        symbols, forms = sigma.symbols, expr._read.forms
        before = _CompiledSearch([expr], sigma)
        before_forms, before_blocks = [*before._forms], [*expr._read.blocks]
        last = next(y for y in symbols if y != history[-1])
        fence, twin = (
            Not(Atom(Pattern(tuple(map(Literal, text)))))
            for text in (history, history[:-1] + (last,))
        )
        first = Literal(history[0])
        # % # b # _^space # %: the separator carried over past a tape symbol.
        sep, tape = Literal("#"), Literal(spec.tape_alphabet[0])
        carry = (ANY_STRING, sep, tape, sep) + (ANY_ONE,) * space + (sep, ANY_STRING)
        assert carry in forms
        tails = {
            "fence": (fence,),
            "dedupe": (Not(Atom(Pattern(forms[len(forms) // 2]))),),
            "carried": (Not(Atom(Pattern(carry))),),
            "join": (Not(Atom(Pattern((first, ANY_STRING)))),),
            "loose": (Not(Atom(Pattern((ANY_STRING, ANY_STRING, first)))),),
            "outside": (Not(Atom(Pattern((Literal("y0"), ANY_STRING)))),),
            "fences": (fence, twin),
        }
        gates = {name: and_(expr, *tail) for name, tail in tails.items()}
        gates["nested"], tails["nested"] = and_(and_(expr, fence), twin), (fence, twin)
        # No gate changed the read it extends: the gadget compiles as it did
        # before they were built.
        after = _CompiledSearch([expr], sigma)
        assert _LAYOUT(after) == _LAYOUT(before) and after._forms == before_forms
        assert expr._read.blocks == before_blocks
        assert [name for name, gate in gates.items() if gate._read is None] == []
        # A deduped gate adds no form and no block; the join changes one
        # block, whose class then holds every symbol.
        for name in ("dedupe", "carried"):
            assert gates[name]._read.forms == forms
            assert gates[name]._read.blocks == before_blocks
        changed = set(gates["join"]._read.blocks) - set(expr._read.blocks)
        assert [frozenset(symbols) in block for block in changed] == [True]
        # "loose" is laid out again from its read's forms, normalized, and
        # its compile builds no child.
        _CompiledSearch([gates["loose"]], sigma)
        with pytest.raises(AttributeError):
            _Gate.children.__get__(gates["loose"])
        for name, gate in gates.items():
            fresh = And(expr.children + tails[name])
            assert gate == fresh and gate.children[-1] is tails[name][-1], name
            for alphabet in _gadget_alphabets(sigma):
                reads += _read_searches_as_afresh(gate, fresh, alphabet)
        # Any other shape is built from the children: the gadget not first,
        # a positive atom, an Or, or two gadgets.
        other, _ = encode_tm(spec, word, space)
        for items in ((fence, expr), (expr, fence.child), (expr, or_(fence, twin)), (expr, other)):
            gate = and_(*items)
            assert gate._read is None
            assert gate.children == tuple(
                c for item in items for c in (item.children if isinstance(item, And) else (item,))
            )
    # Seven gates take the read over each of the three alphabets; "loose" is
    # laid out again, normalized.
    assert reads == 21 * len(runs)


def test_a_read_builds_its_blocks_once():
    # The read keeps the blocks it lays out: compiling the gadget twice, or
    # over two alphabets, joins the one list, and a gate and_ makes of it
    # builds a list of its own, one block longer, which the gadget's
    # compile never sees.
    spec, word, space = m_bouncer(3)
    expr, sigma = encode_tm(spec, word, space)
    joined = []

    def join(blocks):
        joined.append(blocks)
        return _join(blocks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_join", join)
        for alphabet in _gadget_alphabets(sigma)[:2] * 2:
            _CompiledSearch([expr], alphabet)
        history = simulate_tm(spec, word, space).history
        fenced = and_(expr, Not(Atom(Pattern(tuple(map(Literal, history))))))
        _CompiledSearch([fenced], sigma)
        _CompiledSearch([expr], sigma)
    assert len(joined) == 6
    assert all(blocks is joined[0] for blocks in joined[:4] + joined[5:])
    assert joined[4] is not joined[0] and joined[4][:-1] == joined[0]


@pytest.mark.parametrize("build, space, bits", [(m_bouncer, 4, 546), (m_counter, 5, 2083)])
def test_the_read_holds_over_any_alphabet(build, space, bits):
    # Over sigma without its next-to-last symbol, and fenced by NOT LIKE
    # "y0 %" (a literal outside sigma, which joins the class of the first
    # block's family), the compile takes the read, product blocks and all:
    # a class steps on its members in sigma. The verdict, witness and
    # complete are those of the same And built from its children, and the
    # search builds no child.
    spec, word, _ = build(space)
    expr, sigma = encode_tm(spec, word, space)
    outside = (Not(Atom(Pattern((Literal("y0"), ANY_STRING)))),)
    cases = [(expr, (), _gadget_alphabets(sigma)[2]), (and_(expr, *outside), outside, sigma)]
    outcomes = []
    for gate, _, alphabet in cases:
        comp = _CompiledSearch([gate], alphabet)
        assert comp._forms is gate._read.forms and comp.state_bits == bits
        outcomes.append(find_witness(gate, alphabet))
        with pytest.raises(AttributeError):
            _Gate.children.__get__(gate)
    for (gate, tail, alphabet), out in zip(cases, outcomes):
        want = find_witness(And(expr.children + tail), alphabet)
        assert _OUTCOME(out) == _OUTCOME(want)
        assert out.state_bits <= want.state_bits and out.explored <= want.explored


# --- forecasts compiled to mask tests ----------------------------------------


def _in_deep_thread(fn):
    """Run fn in a thread with room for deep recursion, for the references."""
    result = []
    limit = sys.getrecursionlimit()
    old_size = threading.stack_size(64 * 2**20)
    try:
        sys.setrecursionlimit(20_000)
        worker = threading.Thread(target=lambda: result.append(fn()))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(old_size)
    assert not worker.is_alive() and result, "the reference did not finish"
    return result[0]


def _reference_table(exprs, sigma, limit):
    """For each reachable state, every expression's (value, forecast) from
    the three-valued reference."""
    reference, layout = naive_forecasts(exprs, sigma)
    states = reachable_states(layout, limit)
    return {d: [(ev(d), fate(d)) for ev, fate in reference] for d in states}


def _assert_forecasts_match_reference(exprs, sigma, limit=3000, table=None):
    if table is None:
        table = _reference_table(exprs, sigma, limit)
    comp = _CompiledSearch(exprs, sigma)
    compiled = [tuple(map(_predicate, comp.forecasts(e))) for e in exprs]
    # A pair's separator halves, for e1 AND NOT e2 and e2 AND NOT e1: value
    # and dead groups, each gated from the two expressions' groups.
    halves = []
    if len(exprs) == 2:
        halves = [
            (_predicate(value), _predicate(dead))
            for value, dead, _ in _separator_halves(comp, *exprs)
        ]
    for d, row in table.items():
        for (value, dead, settled), (ev, fate) in zip(compiled, row):
            assert value(d) == ev, (exprs, d)
            assert dead(d) == (fate == FALSE_FOREVER), (exprs, d)
            assert settled(d) == (fate == TRUE_FOREVER), (exprs, d)
        for (value, dead), (ev, fate), (other_ev, other_fate) in zip(
            halves, row, row[::-1]
        ):
            assert value(d) == (ev and not other_ev), (exprs, d)
            want = fate == FALSE_FOREVER or other_fate == TRUE_FOREVER
            assert dead(d) == want, (exprs, d)


def _not_run(rng, e):
    for _ in range(rng.randint(0, 4)):
        e = Not(e)
    return e


def _random_expr_with_not_runs(rng, symbols, depth):
    """An AND or OR of ``_random_expr`` children, each under a run of up to
    four NOTs, and itself under one."""
    gate = And if rng.random() < 0.5 else Or
    n = rng.randint(2, 3)
    children = [_not_run(rng, _random_expr(rng, symbols, depth - 1)) for _ in range(n)]
    return _not_run(rng, gate(tuple(children)))


def test_forecasts_agree_with_three_valued_reference():
    rng = random.Random(5150)
    for i in range(1000):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        make = _random_expr if i % 3 else _random_expr_with_not_runs
        exprs = [make(rng, syms, 3) for _ in range(1 + i % 2)]
        _assert_forecasts_match_reference(exprs, sigma)


def test_a_not_flips_the_value_and_swaps_dead_and_settled():
    # forecasts pushes each NOT down to the atoms. That gives the groups of
    # the un-negated expression with the NOT applied on top, because _gate
    # on flipped parts under the other connective is the flipped _gate.
    rng = random.Random(6021)

    def flip(g):
        return (not g[0], *g[1:])

    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        make = _random_expr if i % 3 else _random_expr_with_not_runs
        x = make(rng, syms, 3)
        comp = _CompiledSearch([x], Alphabet.from_chars(chars))
        value, dead, settled = comp.forecasts(x)
        assert comp.forecasts(Not(x)) == (flip(value), settled, dead), x
        assert comp.forecasts(Not(Not(x))) == (value, dead, settled), x
    for _ in range(3000):
        bits = rng.randint(1, 10)
        n = rng.randint(1, 4)
        parts = tuple(_random_group(rng, bits, 2, rng.random() < 0.5) for _ in range(n))
        for disjunction in (False, True):
            want = flip(_gate(parts, disjunction))
            assert _gate(tuple(map(flip, parts)), not disjunction) == want, parts


def test_forecasts_agree_with_reference_on_the_3cnf_gadget():
    rng = random.Random(31)
    for n in (3, 4):
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(4 * n)
        ]
        e, sigma = encode_3sat(Cnf(n, tuple(clauses)))
        _assert_forecasts_match_reference([e], sigma)
        # Every %x% atom self-loops on its first bit, so only _^n can die.
        comp = _CompiledSearch([e], sigma)
        reach = comp._masks([e.children[0].pattern])[2]
        assert comp.forecasts(e)[1] == (True, 0, 0, (reach,), ())


def test_forecasts_agree_with_reference_on_deep_chains():
    sigma = Alphabet.from_chars("ab")
    deep = alternating_chain(3000, Atom(P("aaa")))
    negated = alternating_chain(3000, Not(Or((Atom(P("a%")), Not(Atom(P("%bb")))))))
    every = alternating_chain(3000, Atom(P("aaa")), negated=True)
    for exprs in (
        [deep],
        [deep, negated],
        [Not(Not(Not(negated)))],
        [every],
        [every, deep],
    ):
        table = _in_deep_thread(lambda: _reference_table(exprs, sigma, 3000))
        _assert_forecasts_match_reference(exprs, sigma, table=table)


def test_deep_and_or_chain_search():
    # Over ab the chain is %a% AND (%b% OR aaa): past the first gate, a
    # text holding a reaches the leaf only when it holds no b.
    sigma = Alphabet.from_chars("ab")
    e = alternating_chain(3000, Atom(P("aaa")))
    out = find_witness(e, sigma)
    assert (out.verdict, out.witness, out.complete) == (Verdict.FOUND, ("a", "b"), True)
    assert out.atoms == 3
    plain = parse_expression('LIKE "%a%" AND (LIKE "%b%" OR LIKE "aaa")')
    sep = find_separating_string(e, plain, sigma)
    assert sep.verdict is Verdict.EXHAUSTED_EQUIVALENT and sep.complete
    sep = find_separating_string(e, parse_expression('LIKE "%a%" AND LIKE "%b%"'), sigma)
    assert sep.witness == ("a", "a", "a")
    for max_len in (2, 3):
        got = find_separating_string(e, plain, sigma, max_len=max_len)
        want = find_separating_string(plain, plain, sigma, max_len=max_len)
        assert (got.verdict, got.complete) == (want.verdict, want.complete)
    # With the leaf negated, a text holding a and no b needs to differ
    # from aaa.
    out = find_witness(alternating_chain(3001, Not(Atom(P("aaa")))), sigma)
    assert out.witness == ("a",)
    no_b = Not(Atom(P("%b%")))
    out = find_witness(And((no_b, alternating_chain(3000, Not(Atom(P("a")))))), sigma)
    assert out.witness == ("a", "a")


def test_3cnf_gadget_explores_every_assignment_prefix():
    # The counting forecast keeps only the consistent partial assignments:
    # each state at depth d has set d distinct variables, one literal each.
    # The clauses are bound conjuncts, so a clause whose variables are all
    # set and whose literals are all false kills its state. The gadget is
    # ordered, so each assignment is read in alphabet order only, and a
    # state dies once an unset variable has no literal left in a later
    # column, or an unsatisfied clause has no literal of an unset variable
    # left there. The search visits every other sorted prefix before it
    # pops a state at depth n: fewer than the unfalsified partial
    # assignments, themselves fewer than the 3^n consistent ones.
    rng = random.Random(2718)
    for n in (4, 5, 6):
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(round(4.3 * n))
        )
        formula = Cnf(n, clauses)
        e, sigma = encode_3sat(formula)
        out = find_witness(e, sigma)
        explored = sorted_unfalsified_prefixes(formula)
        assert out.explored == explored < unfalsified_partial_assignments(formula) < 3**n
        assert (out.witness is None) == (brute_force_sat(formula) is None), n


def test_or_holding_a_self_looping_atom_never_dies():
    sigma = Alphabet.from_chars("ab")
    # %a% keeps its first bit set on every text, so the OR is never false
    # forever: its dead test is the constant false group.
    gate = or_(Atom(P("%a%")), Atom(P("b")))
    assert _CompiledSearch([gate], sigma).forecasts(gate)[1] == (True, 0, 0, (), ())
    # Under an AND only the other conjunct's reach is tested.
    e = and_(gate, Atom(P("a_")))
    comp = _CompiledSearch([e], sigma)
    reach = comp._masks([e.children[1].pattern])[2]
    assert comp.forecasts(e)[1] == (True, 0, 0, (reach,), ())
    # A literal outside sigma still kills its atom in the first step.
    out = find_witness(and_(gate, Atom(P("a%z"))), sigma)
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.explored == 1


# --- the search against a scan that expands every state ----------------------


def _full_prune(comp, e):
    """find_witness's prunes as (prune, spent). prune is one test per
    state: the dead forecast, the counting forecast's slack below zero, or
    a tight state with a dead bound conjunct. spent, for an ordered
    counting forecast (else None), tests a state reached on column c, read
    as tight, as every state of an ordered search is: some unsettled member
    has no symbol in a later column, or some bound conjunct that no symbol
    read has settled has no symbol in a later column that an unsettled
    member holds."""
    dead = _predicate(comp.forecasts(e)[1])
    ref = naive_counting(comp, e)
    if ref is None:
        return dead, None

    def prune(d):
        if dead(d):
            return True
        slack = counting_slack(ref, d)
        return slack < 0 or slack == 0 and counting_bound_dead(ref, d)

    if not comp.counting(e).ordered:
        return prune, None
    columns = [
        [c for c, (sym, _) in enumerate(comp.moves) if sym in symbols]
        for symbols in ref.symbols
    ]

    column = {sym: c for c, (sym, _) in enumerate(comp.moves)}

    def spent(d, col):
        unsettled = [not d & settled for settled in ref.members]
        if any(
            left and all(c <= col for c in cols)
            for left, cols in zip(unsettled, columns)
        ):
            return True
        # The symbols an unsettled member holds in a later column.
        later = {
            sym
            for left, symbols in zip(unsettled, ref.symbols)
            if left
            for sym in symbols
            if column.get(sym, -1) > col
        }
        return any(
            not d & settled and not symbols & later
            for (settled, _), symbols in zip(ref.bound, ref.clauses)
        )

    return prune, spent


def _reference_search(exprs, sigma, budget, max_len):
    """find_witness (one expression) or find_separating_string (two) run
    on the reference scan that expands every state and tests every
    successor with the full prune: (witness, explored, complete), or the
    explored count a budget stop reports. A pair runs as two witness
    scans, for e1 AND NOT e2 and then e2 AND NOT e1, each compiled from
    that And; they share the start and the budget, the second is capped
    at the first witness's length, and the lesser witness wins."""
    comp = _CompiledSearch(exprs, sigma)
    searches = exprs
    if len(exprs) == 2:
        e1, e2 = exprs
        searches = [and_(e1, Not(e2)), and_(e2, Not(e1))]
    best, explored, complete = None, 1, True
    for e in searches:
        accept = _predicate(comp.forecasts(e)[0])
        prune, spent = _full_prune(comp, e)
        try:
            witness, n, done = reference_bfs(
                comp, accept, prune, budget - explored + 1, max_len, spent
            )
        except SearchBudgetExceeded as exc:
            return explored - 1 + exc.explored
        explored += n - 1
        complete = complete and done
        if witness is not None and (
            best is None or _alphabet_rank(witness, sigma) < _alphabet_rank(best, sigma)
        ):
            best, max_len = witness, len(witness)
    return best, explored, complete or best is not None


def _alphabet_rank(text, sigma):
    """Shortest first, then first in the alphabet's declaration order."""
    return len(text), [sigma.symbols.index(sym) for sym in text]


def _library_search(exprs, sigma, budget, max_len):
    search = find_witness if len(exprs) == 1 else find_separating_string
    try:
        out = search(*exprs, sigma, budget=budget, max_len=max_len)
    except SearchBudgetExceeded as exc:
        return exc.explored
    return out.witness, out.explored, out.complete


def test_skipping_search_agrees_with_full_expansion():
    rng = random.Random(8086)
    for i in range(1200):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        make = _random_expr if i % 3 else _random_expr_with_not_runs
        exprs = [make(rng, syms, 3) for _ in range(1 + i // 600)]
        max_len = rng.choice((None, None, 0, 1, 2, 3, 4))
        budget = rng.choice((1, 2, 3, 5, 8, 13, DEFAULT_STATE_BUDGET))
        want = _reference_search(exprs, sigma, budget, max_len)
        assert _library_search(exprs, sigma, budget, max_len) == want, (exprs, i)


def test_skipping_search_agrees_with_full_expansion_on_the_3cnf_gadget():
    rng = random.Random(1999)
    for n in (3, 4, 5):
        vs = range(1, n + 1)
        for _ in range(4):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(vs, 3))
                for _ in range(round(4.3 * n))
            )
            e, sigma = encode_3sat(Cnf(n, clauses))
            for budget in (7, 50, DEFAULT_STATE_BUDGET):
                for max_len in (None, n - 1, n):
                    want = _reference_search([e], sigma, budget, max_len)
                    assert _library_search([e], sigma, budget, max_len) == want


def test_search_agrees_with_full_expansion_on_any_built_forecast():
    # Built forecasts test single positions, such as the bit the % closure
    # sets, which compiled forecasts never tell apart from the gap bit.
    rng = random.Random(6510)
    for i in range(400):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_expr(rng, syms, 2)
        comp = _CompiledSearch([e], sigma)
        forecast = _random_group(rng, comp.state_bits, 1, rng.random() < 0.5)
        accept = _predicate(comp.forecasts(e)[0])
        max_len = rng.choice((None, 2, 4))
        budget = rng.choice((3, 20, DEFAULT_STATE_BUDGET))
        results = []
        for scan, prune in ((_bfs, forecast), (reference_bfs, _predicate(forecast))):
            try:
                results.append(scan(comp, accept, prune, budget, max_len, None))
            except SearchBudgetExceeded as exc:
                results.append(exc.explored)
        assert results[0] == results[1], (forecast, i)


def _random_group(rng, bits, depth, negated):
    """A group over ``bits`` bits in the shape ``_gate`` builds: random
    zero, ones and meets masks, and subs that are always negated."""

    def mask():
        return rng.getrandbits(bits) & rng.getrandbits(bits)

    zero = mask() if rng.random() < 0.5 else 0
    ones = mask() & ~zero if rng.random() < 0.4 else 0
    meets = tuple(mask() or 1 for _ in range(rng.choice((0, 0, 1, 2))))
    subs = ()
    if depth:
        width = rng.choice((0, 1, 2))
        subs = tuple(_random_group(rng, bits, depth - 1, True) for _ in range(width))
    return (negated, zero, ones, meets, subs)


def _open_atom(rng, symbols):
    """An atom whose pattern ends in %, so its settled test is a bit."""
    return Atom(Pattern(random_pattern(rng, symbols, 3).tokens + (ANY_STRING,)))


def _negated_dead_expr(rng, symbols):
    """NOT of an atom ending in %, or an AND of negated atoms, most of them
    ending in %, at times with a plain atom that asks for a longer text:
    expressions whose dead forecast is a negated group."""
    if rng.random() < 0.3:
        return Not(_open_atom(rng, symbols))
    conjuncts = [
        Not(_open_atom(rng, symbols) if rng.random() < 0.8 else Atom(P("a_")))
        for _ in range(rng.randint(2, 4))
    ]
    if rng.random() < 0.6:
        conjuncts.append(Atom(Pattern((ANY_ONE,) * rng.randint(2, 5) + (ANY_STRING,))))
    return and_(*conjuncts)


def test_search_skips_only_what_the_negated_dead_forecast_prunes():
    # Where the dead group is negated, the search skips a move whose
    # successor would set one of its zero bits without stepping it; the
    # reference steps every move and tests each successor with the group.
    # The cases are witness searches of such expressions and separator
    # halves that hold one, and the skip must fire in a third of them.
    rng = random.Random(2718)
    cases = fired = 0
    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _negated_dead_expr(rng, syms)
        if i % 3:
            comp = _CompiledSearch([e], sigma)
            searches = [comp.forecasts(e)[:2]]
        else:
            # e against e with one more atom forbidden, or a random expression.
            other = and_(e, Not(_open_atom(rng, syms)))
            pair = [e, other if rng.random() < 0.7 else _random_expr(rng, syms, 2)]
            rng.shuffle(pair)
            comp = _CompiledSearch(pair, sigma)
            searches = [(v, d) for v, d, _ in _separator_halves(comp, *pair)]
        for value, dead in searches:
            if not dead[0]:
                continue
            cases += 1
            max_len = rng.choice((None, None, 0, 1, 2, 3))
            budget = rng.choice((1, 2, 3, 5, 8, 13, DEFAULT_STATE_BUDGET))
            accept = _predicate(value)
            seen = []

            def watched(d):
                seen.append(d)
                return accept(d)

            results = []
            for scan, test, prune in (
                (_bfs, accept, dead),
                (reference_bfs, watched, _predicate(dead)),
            ):
                try:
                    results.append(scan(comp, test, prune, budget, max_len, None))
                except SearchBudgetExceeded as exc:
                    results.append(exc.explored)
            assert results[0] == results[1], (e, i)
            below = dead[1] >> 1
            fired += any(d & on & below for d in seen for _, on in comp.moves)
    assert cases >= 500
    assert 3 * fired >= cases, (fired, cases)


@pytest.mark.parametrize(
    "build, space",
    [(m_bouncer, 2), (m_bouncer, 3), (m_bouncer, 4), (m_counter, 2), (m_counter, 3)],
)
def test_machine_search_agrees_with_full_expansion(build, space):
    # On the machine gadget the dead group is "some forbidden pattern's
    # trailing % is set", and the search steps none of the moves that set
    # it. The reference steps every move and tests each successor with the
    # whole dead group: same witness, explored, complete and budget stops.
    spec, word, _ = build(space)
    length = len(simulate_tm(spec, word, space).history)
    for e, sigma in _fenced_and_unfenced(spec, word, space):
        # No counting family, so the reference prunes by the dead group alone.
        assert naive_counting(_CompiledSearch([e], sigma), e) is None
        for max_len in (None, length - 1):
            states = _reference_search([e], sigma, DEFAULT_STATE_BUDGET, max_len)[1]
            for budget in (1, 2, states // 2, states - 1, states):
                want = _reference_search([e], sigma, budget, max_len)
                assert _library_search([e], sigma, budget, max_len) == want


# --- the counting forecast ----------------------------------------------------


def _member_pattern(rng, x):
    """%x%, at times with its % runs doubled, so that only its normal form
    shows it is a member."""
    left, right = rng.randint(1, 2), rng.randint(1, 2)
    return Pattern((ANY_STRING,) * left + (Literal(x),) + (ANY_STRING,) * right)


def _random_counting_expr(rng, syms):
    """An And of a %-free length atom, members %x% alone or in an Or over
    symbol sets that often overlap, clauses of the same shape over one to
    three symbols drawn with repeats, and other conjuncts. At times the
    length atom holds a % or sits under an Or, and the others are atoms
    %xy% or %x_%, negated members or random expressions. Every clause or
    overlapping member is bound; its holders are the members that hold
    one of its symbols in sigma."""
    toks = [
        ANY_ONE if rng.random() < 0.6 else Literal(rng.choice(syms))
        for _ in range(rng.randint(0, 4))
    ]
    if rng.random() < 0.15:
        toks.insert(rng.randint(0, len(toks)), ANY_STRING)
    length = Atom(Pattern(tuple(toks)))
    if rng.random() < 0.1:
        length = Or((length, Atom(random_pattern(rng, syms, 3))))
    conjuncts = [length]
    for _ in range(rng.randint(1, 3)):
        group = rng.sample(syms, rng.randint(1, 2))
        atoms = [Atom(_member_pattern(rng, x)) for x in group]
        conjuncts.append(atoms[0] if len(atoms) == 1 else Or(tuple(atoms)))
    for _ in range(rng.randint(0, 2)):
        group = rng.choices(syms, k=rng.randint(1, 3))
        atoms = [Atom(_member_pattern(rng, x)) for x in group]
        conjuncts.append(atoms[0] if len(atoms) == 1 else Or(tuple(atoms)))
    for _ in range(rng.randint(0, 2)):
        x, y = rng.choice(syms), rng.choice(syms)
        conjuncts.append(
            rng.choice(
                (
                    Atom(Pattern((ANY_STRING, Literal(x), Literal(y), ANY_STRING))),
                    Atom(Pattern((ANY_STRING, Literal(x), ANY_ONE, ANY_STRING))),
                    Not(Atom(_member_pattern(rng, x))),
                    _random_expr(rng, syms, 2),
                )
            )
        )
    rng.shuffle(conjuncts)
    return And(tuple(conjuncts))


def _members(counting):
    """How many members the counting record names: the width of a row."""
    return len(counting.guards[0])


def _holders(counting):
    """Per bound conjunct, the member set holding it: the owners of the
    moves that settle it."""
    holders = [0] * counting.bound
    for owner, settles in zip(counting.owners, counting.settles):
        for j in range(counting.bound):
            if settles >> j & 1:
                holders[j] |= owner
    return holders


def _assert_guard_rows(counting):
    """Row c of ``guards`` gives each member the bound set that the moves
    on its symbols settle: in the columns after c when the search is
    ordered, in every column otherwise."""
    moves = [*zip(counting.owners, counting.settles)]
    for c, row in enumerate(counting.guards):
        want = [0] * _members(counting)
        for owner, settles in moves[c + 1 :] if counting.ordered else moves:
            if owner:
                want[owner.bit_length() - 1] |= settles
        assert list(row) == want, (c, counting)


def _assert_family_matches_naive(e, sigma):
    comp = _CompiledSearch([e], sigma)
    counting, want = comp.counting(e), naive_family(e)
    assert (counting is None) == (want is None), e
    if counting is None:
        return False
    length, members, bound = want
    assert _members(counting) == len(members), e
    _assert_guard_rows(counting)
    assert counting.room == len(length), e
    # At the start the length atom has read nothing and no member is settled.
    start = counting_slack(naive_counting(comp, e), comp.initial)
    assert start == counting.room - _members(counting), e
    # Each alphabet symbol's move names the member that holds it.
    readable = set(sigma.symbols)
    in_sigma = [m & readable for m in members]
    for (sym, _), owner in zip(comp.moves, counting.owners):
        assert owner == sum(1 << i for i, m in enumerate(in_sigma) if sym in m), e
    # Each bound conjunct is settled by the moves on its symbols and held by
    # the members that hold them.
    assert counting.bound == len(bound), e
    for j, (holders, symbols) in enumerate(zip(_holders(counting), bound)):
        settled_by = {
            sym for (sym, _), s in zip(comp.moves, counting.settles) if s >> j & 1
        }
        assert settled_by == symbols & readable, e
        assert holders == sum(1 << i for i, m in enumerate(in_sigma) if m & symbols), e
    return len(bound) + 1


def test_counting_family_matches_naive_detection():
    rng = random.Random(1993)
    found = with_bound = 0
    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        e = _random_counting_expr(rng, syms)
        got = _assert_family_matches_naive(e, Alphabet.from_chars(chars))
        found += got > 0
        with_bound += got > 1
    # Both outcomes are common, and so are bound conjuncts.
    assert 200 < found < 550
    assert with_bound > 330


def test_counting_family_is_found_only_where_it_holds():
    sigma = Alphabet.from_chars("abc")

    def compiled(text):
        e = parse_expression(text)
        comp = _CompiledSearch([e], sigma)
        return comp, comp.counting(e)

    # Members are read off normal forms, and taken greedily in conjunct
    # order: (%b% OR %c%) overlaps the earlier (%a% OR %b%) and is left out.
    for text, slack in (
        ('LIKE "__" AND LIKE "%%a%%"', 1),
        ('LIKE "a_" AND LIKE "%a%" AND LIKE "%b%"', 0),
        ('LIKE "__" AND (LIKE "%a%" OR LIKE "%b%") AND (LIKE "%b%" OR LIKE "%c%")', 1),
        ('LIKE "_" AND LIKE "%a%" AND (LIKE "%a%" OR LIKE "%b%") AND LIKE "%c%"', -1),
        ('LIKE "%a%" AND (LIKE "__" OR LIKE "%b%") AND LIKE "___"', 2),
    ):
        _, counting = compiled(text)
        assert counting.room - _members(counting) == slack, text
    for text in (
        'LIKE "_%_" AND LIKE "%a%" AND LIKE "%b%"',  # a % in the length atom
        'LIKE "__" AND NOT LIKE "%a%"',  # a negated member
        'LIKE "__" AND LIKE "%ab%"',  # a member atom with two literals
        'LIKE "__" AND LIKE "%a_%"',  # or with a _
        'LIKE "__" AND (LIKE "%a%" OR LIKE "%a_%")',
        '(LIKE "__" OR LIKE "%a%") AND LIKE "%b%"',  # the length atom under an Or
        'NOT (LIKE "__" AND LIKE "%a%")',  # no And on top
        'LIKE "__" OR LIKE "%a%"',
        'LIKE "__" AND LIKE "a%"',
    ):
        assert compiled(text)[1] is None, text


def _live_states(comp, e, sigma):
    """The whole reachable state graph of e's compile with nothing pruned,
    as (every reachable state, the states with a path to acceptance)."""
    value = naive_forecasts([e], sigma)[0][0][0]
    succ = {}
    todo = [comp.initial]
    while todo:
        d = todo.pop()
        if d in succ:
            continue
        nxt = [((d & on) << 1) | (d & comp.gaps) for _, on in comp.moves]
        succ[d] = [n | (n & comp.gaps) << 1 for n in nxt]
        todo += succ[d]
    live = {d for d in succ if value(d)}
    grown = True
    while grown:
        more = {d for d, ns in succ.items() if d not in live and live.intersection(ns)}
        live |= more
        grown = bool(more)
    return succ.keys(), live


def _counting_cases(seed, count):
    """Random counting expressions that have a family, with their sigma,
    compile, forecast and ``naive_counting`` record."""
    rng = random.Random(seed)
    for i in range(count):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_counting_expr(rng, syms)
        comp = _CompiledSearch([e], sigma)
        counting = comp.counting(e)
        if counting is not None:
            yield e, sigma, comp, counting, naive_counting(comp, e)


def test_counting_forecast_is_sound():
    # Every state the rule calls dead has no path to acceptance, over the
    # whole reachable state graph with nothing pruned.
    dead_by_count = 0
    for e, sigma, comp, _, ref in _counting_cases(2024, 300):
        states, live = _live_states(comp, e, sigma)
        for d in states:
            if counting_slack(ref, d) < 0:
                dead_by_count += 1
                assert d not in live, (e, d)
    assert dead_by_count > 100


def test_bound_conjunct_rule_is_sound():
    # Every tight state the bound rule calls dead has no path to
    # acceptance, over the whole reachable state graph with nothing pruned.
    # Many are tight states that the count alone keeps, and some are dead
    # by a conjunct with a symbol in sigma that no member holds.
    tight = dead_by_bound = by_unheld = 0
    for e, sigma, comp, counting, ref in _counting_cases(2025, 600):
        states, live = _live_states(comp, e, sigma)
        # The bound set of the conjuncts settled by a move no member owns.
        unheld = 0
        for settles, owner in zip(counting.settles, counting.owners):
            if not owner:
                unheld |= settles
        for d in states:
            if counting_slack(ref, d) == 0:
                tight += 1
                dead = counting_dead_bound(ref, d)
                if dead:
                    dead_by_bound += 1
                    by_unheld += dead & unheld != 0
                    assert d not in live, (e, d)
    assert dead_by_bound > 100 and tight > 2 * dead_by_bound
    assert by_unheld > 0


def test_bound_conjuncts_are_found_only_where_they_hold():
    sigma = Alphabet.from_chars("abc")

    def compiled(text):
        e = parse_expression(text)
        comp = _CompiledSearch([e], sigma)
        return e, comp, comp.counting(e)

    # Members %a% and (%b% OR %c%); a conjunct after them that overlaps
    # them is bound, with the member set that holds its symbols in sigma.
    members = 'LIKE "__" AND LIKE "%a%" AND (LIKE "%b%" OR LIKE "%c%")'
    for conjunct, bound in (
        ('LIKE "%%a%"', 0b01),
        ('(LIKE "%a%" OR LIKE "%b%")', 0b11),
        ('(LIKE "%a%" OR LIKE "%z%")', 0b01),
        ('(LIKE "%c%" OR LIKE "%c%" OR LIKE "%z%")', 0b10),
        ('NOT LIKE "%a%"', None),
        ('(LIKE "%a%" OR LIKE "%b_%")', None),
    ):
        _, _, counting = compiled(f"{members} AND {conjunct}")
        assert _holders(counting) == ([] if bound is None else [bound]), conjunct
    # c is in sigma and held by no member: a conjunct on it is still bound,
    # held by %a% alone, and the moves on a and on c settle it.
    _, _, counting = compiled(
        'LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND (LIKE "%a%" OR LIKE "%c%")'
    )
    assert _holders(counting) == [0b01]
    assert counting.settles == (1, 0, 1)

    e, comp, counting = compiled(f"{members} AND LIKE \"%b%\"")
    ref = naive_counting(comp, e)
    assert counting.owners == (0b01, 0b10, 0b10)
    assert counting.settles == (0, 1, 0)

    def after(text):
        d = comp.initial
        for sym in text:
            d = ((d & dict(comp.moves)[sym]) << 1) | (d & comp.gaps)
            d |= (d & comp.gaps) << 1
        return d

    # Every state here is tight. Once c is read, the one symbol left must
    # be a, so b can never be read.
    for text, dead in (("", False), ("a", False), ("b", False), ("c", True)):
        d = after(text)
        assert counting_slack(ref, d) == 0, text
        assert counting_bound_dead(ref, d) == dead, text
    # The start, a and ab: ac and c are dead by the rule, and the search is
    # ordered, so b, whose member %a% has no symbol after it, is dead too.
    assert counting.ordered
    out = find_witness(e, sigma)
    assert (out.witness, out.explored) == (("a", "b"), 3)


def _read_in_order(comp, state):
    """The columns of the symbols x whose %x% block has read x in the
    state, in alphabet order, when reading them so from the start reaches
    that very state; else None."""
    forms, bounds = comp._forms, comp._bounds
    read = []
    for col, (sym, _) in enumerate(comp.moves):
        trailing = [
            bounds[i + 1] - 2
            for i, form in enumerate(forms)
            if form == (ANY_STRING, Literal(sym), ANY_STRING)
        ]
        if any(state >> bit & 1 for bit in trailing):
            read.append(col)
    d = comp.initial
    for col in read:
        d = ((d & comp.moves[col][1]) << 1) | (d & comp.gaps)
        d |= (d & comp.gaps) << 1
    return read if d == state else None


def test_carried_tight_states_agree_with_the_state_level_rule(monkeypatch):
    # The scan queues every state with its unsettled member set and settled
    # bound set, reads its slack off its depth and those sets, and tests its
    # successors on them alone. On the same searches, a scan of each queued
    # state's bits must give the same sets and the same slack, and the
    # state-level rule must keep it. In an ordered search every queued state
    # is reached by reading its member symbols in alphabet order, each
    # once, carries the column of the last, and keeps a holder in a later
    # column for every unsettled bound conjunct. That rule leaves fewer
    # tight states than the any-column rule, so 1200 expressions and 3-CNF
    # gadgets up to 8 variables are drawn.
    queued = []

    class Recording(deque):
        def append(self, item):
            queued.append(item)
            super().append(item)

    monkeypatch.setattr(automata, "deque", Recording)
    rng = random.Random(3031)
    cases = [
        (e, sigma, rng.choice((None, None, 1, 2)))
        for e, sigma, _, _, _ in _counting_cases(3030, 1200)
    ]
    for n in (3, 4, 5, 6, 7, 8):
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(round(4.3 * n))
        )
        cases.append((*encode_3sat(Cnf(n, clauses)), None))
    tight = loose = ordered = 0
    for e, sigma, max_len in cases:
        comp = _CompiledSearch([e], sigma)
        counting, ref = comp.counting(e), naive_counting(comp, e)
        spent = _full_prune(comp, e)[1]
        queued.clear()
        find_witness(e, sigma, max_len=max_len)
        for state, depth, unsettled, settled, last in queued:
            if counting.ordered:
                ordered += 1
                read = _read_in_order(comp, state)
                assert read is not None and len(read) == depth, e
                assert last == read[-1], e
                assert not spent(state, last), e
            else:
                assert last == -1, e
            assert unsettled == counting_unsettled(ref, state), e
            assert settled == counting_settled(ref, state), e
            slack = counting_slack(ref, state)
            assert slack == counting.room - depth - unsettled.bit_count(), e
            if slack > 0:
                loose += 1
                continue
            tight += 1
            assert slack == 0, e
            assert not counting_bound_dead(ref, state), e
    assert tight > 300 and loose > 100 and ordered > 100


def test_search_starts_with_every_member_unsettled_and_no_bound_settled():
    # The scan queues its start with these sets without reading its bits:
    # a %x% block's trailing % is set only once x has been read.
    for _, _, comp, counting, ref in _counting_cases(2000, 2000):
        every_member = (1 << _members(counting)) - 1
        assert counting_unsettled(ref, comp.initial) == every_member
        assert counting_settled(ref, comp.initial) == 0


def test_counting_record_is_the_same_in_any_compile_that_holds_the_expression():
    # The record is read off symbols, not off the layout, so a compile that
    # also holds a second expression, before or after, gives the first the
    # same record. Only the order follows every form of the compile: more
    # forms can break its guard, never make it. Where they break it, the
    # guard rows count every column, so each is the first column's row
    # joined with what that column's move gives its owner.
    rng = random.Random(4041)
    cases = []
    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        make = (_random_counting_expr, _random_ordered_expr)[i % 3 == 0]
        other = rng.choice(
            (
                lambda: _random_counting_expr(rng, syms),
                lambda: _random_ordered_expr(rng, syms),
                lambda: _random_expr(rng, syms, 2),
            )
        )
        cases.append((make(rng, syms), other(), Alphabet.from_chars(chars)))
    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(3):
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                for _ in range(round(4.3 * n))
            )
            gadget, sigma = encode_3sat(Cnf(n, clauses))
            less = encode_3sat(Cnf(n, clauses[:-1]))[0]
            cases += [(gadget, less, sigma), (less, gadget, sigma)]
    found = broken = 0
    for e1, e2, sigma in cases:
        alone = _CompiledSearch([e1], sigma).counting(e1)
        for exprs in ([e1, e2], [e2, e1]):
            shared = _CompiledSearch(exprs, sigma).counting(e1)
            assert (shared is None) == (alone is None), (e1, e2)
            if alone is None:
                continue
            found += 1
            same = shared._replace(
                ordered=alone.ordered, spent=alone.spent, guards=alone.guards
            )
            assert same == alone, (e1, e2)
            assert alone.ordered or not shared.ordered, (e1, e2)
            if shared.ordered or not alone.ordered:
                assert shared.spent == alone.spent, (e1, e2)
                assert shared.guards == alone.guards, (e1, e2)
            else:
                broken += 1
                every = list(alone.guards[0])
                if alone.owners[0]:
                    every[alone.owners[0].bit_length() - 1] |= alone.settles[0]
                assert shared.guards == (tuple(every),) * len(sigma), (e1, e2)
    assert found > 900 and broken > 100, (found, broken)


def test_order_is_used_only_where_the_guard_holds():
    # Each And below is outside the guard, so its search reads every order
    # and explores what the scan before the order rule explored.
    sigma = Alphabet.from_chars("abc")
    for text, witness, explored in (
        # A length atom with a literal: the witness ba is not sorted.
        ('LIKE "b_" AND LIKE "%a%" AND LIKE "%b%"', ("b", "a"), 3),
        # A length atom holding %: no counting family at all.
        ('LIKE "_%_" AND LIKE "%a%" AND LIKE "%b%"', ("a", "b"), 8),
        # A second length-shaped conjunct, holding %.
        ('LIKE "__" AND LIKE "_%" AND LIKE "%a%" AND LIKE "%b%"', ("a", "b"), 4),
        # A conjunct that reads order: ab and ba differ on it.
        ('LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND LIKE "%ab%"', ("a", "b"), 5),
        ('LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND LIKE "%ba%"', ("b", "a"), 5),
        # A start with slack: aab is read, so symbols repeat.
        ('LIKE "___" AND LIKE "%a%" AND LIKE "%b%"', ("a", "a", "b"), 8),
    ):
        e = parse_expression(text)
        counting = _CompiledSearch([e], sigma).counting(e)
        assert counting is None or not counting.ordered, text
        out = find_witness(e, sigma)
        assert (out.witness, out.explored, out.complete) == (witness, explored, True)
        assert _reference_search([e], sigma, DEFAULT_STATE_BUDGET, None) == (
            witness,
            explored,
            True,
        )
    # Inside the guard, b is dead by order: %a% has no symbol after it. A
    # conjunct on c, which no member holds, is bound and keeps the guard. A
    # negated %x% conjunct depends only on the set of symbols too, so it
    # keeps the guard, and c is dead by order: %b% has no symbol after it.
    for text, witness in (
        ('LIKE "__" AND LIKE "%a%" AND LIKE "%b%"', ("a", "b")),
        (
            'LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND (LIKE "%a%" OR LIKE "%c%")',
            ("a", "b"),
        ),
        ('LIKE "__" AND LIKE "%b%" AND LIKE "%c%" AND NOT LIKE "%a%"', ("b", "c")),
    ):
        e = parse_expression(text)
        assert _CompiledSearch([e], sigma).counting(e).ordered, text
        out = find_witness(e, sigma)
        assert (out.witness, out.explored) == (witness, 3), text


def _random_ordered_expr(rng, syms):
    """An And that the order guard often admits: an all-_ length atom as
    long as the members, one to three members over disjoint symbol groups
    (the symbol outside sigma among them), and clauses of one to three
    member-shaped atoms over symbols drawn with repeats, in any order. At
    times the length atom has one _ more, or one other conjunct is added:
    %xy%, which breaks the guard, a random expression, which mostly does,
    or a negated member or a ``_random_symmetric_expr``, which keep it."""
    pool = list(syms)
    rng.shuffle(pool)
    conjuncts = []
    while pool and len(conjuncts) < 3 and (not conjuncts or rng.random() < 0.7):
        k = rng.randint(1, 2)
        group, pool = pool[:k], pool[k:]
        atoms = [Atom(_member_pattern(rng, x)) for x in group]
        conjuncts.append(atoms[0] if len(atoms) == 1 else Or(tuple(atoms)))
    room = len(conjuncts) + (rng.random() < 0.15)
    conjuncts.append(Atom(Pattern((ANY_ONE,) * room)))
    for _ in range(rng.randint(0, 3)):
        group = rng.choices(syms, k=rng.randint(1, 3))
        atoms = [Atom(_member_pattern(rng, x)) for x in group]
        conjuncts.append(atoms[0] if len(atoms) == 1 else Or(tuple(atoms)))
    if rng.random() < 0.3:
        x, y = rng.choice(syms), rng.choice(syms)
        conjuncts.append(
            rng.choice(
                (
                    Atom(Pattern((ANY_STRING, Literal(x), Literal(y), ANY_STRING))),
                    Not(Atom(_member_pattern(rng, x))),
                    _random_expr(rng, syms, 2),
                    _random_symmetric_expr(rng, syms, 3),
                )
            )
        )
    rng.shuffle(conjuncts)
    return And(tuple(conjuncts))


def _random_symmetric_expr(rng, syms, depth):
    """A NOT/AND/OR of depth <= ``depth`` over %x% atoms, at times with
    their % runs doubled, and all-_ atoms of up to three _: it depends only
    on the length and the set of symbols of a text."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.7:
            return Atom(_member_pattern(rng, rng.choice(syms)))
        return Atom(Pattern((ANY_ONE,) * rng.randint(0, 3)))
    if r < 0.5:
        return Not(_random_symmetric_expr(rng, syms, depth - 1))
    gate = And if rng.random() < 0.5 else Or
    n = rng.randint(2, 3)
    return gate(tuple(_random_symmetric_expr(rng, syms, depth - 1) for _ in range(n)))


def test_witnesses_agree_with_enumeration_of_every_text():
    # The ground truth reads every text up to length 4, in any order, not
    # only sorted ones: the witness is the first accepted text in
    # shortest-then-alphabet order, and the verdicts agree. No witness of
    # these cases is longer than 4.
    rng = random.Random(6174)
    ordered = 0
    for i in range(4000):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        if i < 2000:
            e = _random_counting_expr(rng, syms)
        else:
            e = _random_ordered_expr(rng, syms)
        counting = _CompiledSearch([e], sigma).counting(e)
        ordered += counting is not None and counting.ordered
        max_len = rng.choice((None, 4))
        out = find_witness(e, sigma, max_len=max_len)
        assert out.witness == shortest_satisfying(e, sigma, 4), (e, i)
        if max_len is None and out.witness is None:
            assert out.complete, (e, i)
    assert ordered >= 1150


def _least_gadget_text(formula, e, sigma):
    """The first length-n text in alphabet order that the gadget e of the
    formula accepts, by enumeration. An accepted text names each of the n
    variables and satisfies each clause, so a prefix that repeats a
    variable, or names every variable of a clause and none of its
    literals, is skipped with all its extensions."""
    n = formula.n_vars
    clauses = [
        ({abs(lit) for lit in c}, {f"x{lit}" if lit > 0 else f"~x{-lit}" for lit in c})
        for c in formula.clauses
    ]
    var = {sym: int(sym.lstrip("~x")) for sym in sigma.symbols}
    todo = [()]
    while todo:
        t = todo.pop()
        used = {var[sym] for sym in t}
        if len(used) < len(t) or any(
            vs <= used and not lits.intersection(t) for vs, lits in clauses
        ):
            continue
        if len(t) == n:
            if evaluate(e, t):
                return t
            continue
        todo += [t + (sym,) for sym in reversed(sigma.symbols)]
    return None


def test_3cnf_witnesses_agree_with_enumeration_of_every_text():
    # Formulas with repeated variables, so a clause can name one literal
    # twice or a variable and its negation. Up to 4 variables every text up
    # to length n is read; past that, every length-n text in alphabet order
    # up to the first accepted one, skipping only prefixes that no accepted
    # text extends.
    rng = random.Random(2357)
    for n in range(3, 8):
        for _ in range(6):
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                for _ in range(round(4.3 * n))
            )
            formula = Cnf(n, clauses)
            e, sigma = encode_3sat(formula)
            out = find_witness(e, sigma)
            assert out.complete
            satisfiable = brute_force_sat(formula) is not None
            assert (out.witness is not None) == satisfiable
            if n <= 4:
                want = shortest_satisfying(e, sigma, n)
            else:
                want = _least_gadget_text(formula, e, sigma)
            assert out.witness == want, formula


def _witness_scan(e, sigma, max_len, counting):
    """find_witness's scan with the counting forecast on or off."""
    comp = _CompiledSearch([e], sigma)
    value, dead, _ = comp.forecasts(e)
    return _bfs(
        comp,
        _predicate(value),
        dead,
        DEFAULT_STATE_BUDGET,
        max_len,
        comp.counting(e) if counting else None,
    )


def test_counting_search_agrees_with_full_expansion():
    rng = random.Random(4004)
    for i in range(800):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_counting_expr(rng, syms)
        max_len = rng.choice((None, None, 0, 1, 2, 3))
        budget = rng.choice((1, 2, 3, 5, 8, 13, DEFAULT_STATE_BUDGET))
        want = _reference_search([e], sigma, budget, max_len)
        assert _library_search([e], sigma, budget, max_len) == want, (e, i)


def test_counting_rule_on_and_off_agree():
    # The rule removes only dead states, and a dead state's successors are
    # dead, so the scan meets the live states in the same order: the same
    # witness, never more states. The rule may show that a max_len cut
    # nothing live off, so ``complete`` can only turn false into true.
    rng = random.Random(1999)
    fewer = flipped = 0
    for n in (3, 4, 5):
        vs = range(1, n + 1)
        for _ in range(4):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(vs, 3))
                for _ in range(round(4.3 * n))
            )
            e, sigma = encode_3sat(Cnf(n, clauses))
            for max_len in (None, n - 1, n):
                on = _witness_scan(e, sigma, max_len, True)
                off = _witness_scan(e, sigma, max_len, False)
                assert on[0] == off[0] and on[1] < off[1]
                assert on[2] or not off[2]
                flipped += on[2] and not off[2]
    # On an unsatisfiable formula every full assignment falsifies a clause,
    # so a cut one symbol short of full length cuts off nothing live.
    assert flipped
    for i in range(600):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_counting_expr(rng, syms)
        max_len = rng.choice((None, None, 1, 2, 3))
        on = _witness_scan(e, sigma, max_len, True)
        off = _witness_scan(e, sigma, max_len, False)
        assert on[0] == off[0] and on[1] <= off[1], (e, i)
        assert on[2] or not off[2], (e, i)
        fewer += on[1] < off[1]
    assert fewer > 50


def test_counting_forecast_decides_3cnf_like_brute_force():
    rng = random.Random(3311)
    for n in range(3, 8):
        for k in range(6):
            clauses = []
            for _ in range(round(4.3 * n)):
                # Half the formulas draw variables with repeats, so a clause
                # can name one literal twice, or a variable and its negation.
                if k % 2:
                    vs = rng.sample(range(1, n + 1), 3)
                else:
                    vs = [rng.randint(1, n) for _ in range(3)]
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
            formula = Cnf(n, tuple(clauses))
            e, sigma = encode_3sat(formula)
            out = find_witness(e, sigma)
            explored = sorted_unfalsified_prefixes(formula)
            assert (out.explored, out.complete) == (explored, True)
            if brute_force_sat(formula) is None:
                assert out.verdict is Verdict.EXHAUSTED_EMPTY
            else:
                assert out.verdict is Verdict.FOUND
                bits = decode_3sat_witness(formula, out.witness)
                assert assignment_satisfies(formula, bits)


def _assert_3cnf_search_matches_brute_force(formula):
    e, sigma = encode_3sat(formula)
    out = find_witness(e, sigma)
    assert out.complete
    assert (out.verdict is Verdict.FOUND) == (brute_force_sat(formula) is not None)
    if out.witness is not None:
        bits = decode_3sat_witness(formula, out.witness)
        assert assignment_satisfies(formula, bits)
        assert list(out.witness) == sorted(out.witness, key=sigma.symbols.index)
    return out


def test_3cnf_gadget_at_twelve_variables_fits_the_default_budget():
    # Without the counting forecast the scan visits about 4.15^n states
    # whatever the clauses, past the default budget of 2^20 at n = 10. With
    # the count and the bound conjuncts the scan visits the partial
    # assignments that falsify no clause, reached along every order; read
    # in alphabet order only, each is reached once, and far fewer are left:
    # 5698 with a clause kept alive by a holder in any column, 138 when
    # only a holder in a later column keeps it.
    rng = random.Random(7919)
    n = 12
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(52)
    )
    formula = Cnf(n, clauses)
    out = _assert_3cnf_search_matches_brute_force(formula)
    assert out.explored == sorted_unfalsified_prefixes(formula) == 138
    assert len(sorted_kept_prefixes(formula, later_holders=False)) == 5698
    assert out.explored < unfalsified_partial_assignments(formula) // 10


def test_3cnf_gadget_at_sixteen_variables_fits_the_default_budget():
    # Read along every order, this formula's 7007193 unfalsified partial
    # assignments pass the default budget of 2^20; in alphabet order the
    # search keeps 65477 states with a clause kept alive by a holder in any
    # column, and 585 when only a holder in a later column keeps it.
    rng = random.Random(1601)
    n = 16
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(69)
    )
    formula = Cnf(n, clauses)
    out = _assert_3cnf_search_matches_brute_force(formula)
    assert out.explored == sorted_unfalsified_prefixes(formula) == 585


def test_3cnf_gadget_at_twenty_four_variables_fits_the_default_budget():
    # Too many assignments to brute force, so the witness is checked on the
    # formula itself, and the count against the naive walk of sorted
    # prefixes.
    rng = random.Random(2403)
    n = 24
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(103)
    )
    formula = Cnf(n, clauses)
    e, sigma = encode_3sat(formula)
    out = find_witness(e, sigma)
    assert (out.verdict, out.complete) == (Verdict.FOUND, True)
    assert assignment_satisfies(formula, decode_3sat_witness(formula, out.witness))
    assert out.explored == sorted_unfalsified_prefixes(formula) == 2655


def test_later_holder_rule_keeps_the_any_column_verdicts():
    # Seeded 3-CNF formulas of 1 to 8 variables, a variable at times named
    # twice in a clause, searched with and without a length cap, against
    # the ordered search that keeps a clause alive by a holder in any
    # column (the naive walk of sorted prefixes). The verdict and witness
    # agree. The rule prunes a clause no later symbol can settle, so a cap
    # can only cut fewer live states: complete turns from False to True,
    # and only where the formula has no witness at all. The library's
    # complete is the naive walk's under the later-holder rule.
    rng = random.Random(1962)
    searches = turned = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        repeats = n < 3 or rng.random() < 0.5
        clauses = []
        for _ in range(rng.randint(1, round(4.3 * n) + 2)):
            if repeats:
                vs = [rng.randint(1, n) for _ in range(3)]
            else:
                vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        formula = Cnf(n, tuple(clauses))
        e, sigma = encode_3sat(formula)
        any_column = ordered_3sat_reference(formula, later_holders=False)
        later = ordered_3sat_reference(formula)
        uncapped = any_column(None)
        for max_len in (None, *range(n + 1)):
            old, new = any_column(max_len), later(max_len)
            out = find_witness(e, sigma, max_len=max_len)
            searches += 1
            assert out.witness == old[0] == new[0], (formula, max_len)
            assert (out.verdict is Verdict.FOUND) == (old[0] is not None)
            assert out.complete == new[1], (formula, max_len)
            if out.complete != old[1]:
                assert out.complete and uncapped[0] is None, (formula, max_len)
                turned += 1
    assert searches > 3000 and turned > 20, (searches, turned)
