import random
import sys
import threading
from collections import deque

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
    decode_3sat_witness,
    encode_3sat,
    evaluate,
    expression_size,
    find_separating_string,
    find_witness,
    is_monotone,
    match_oracle,
    normalize,
    or_,
    parse_expression,
    parse_pattern,
)
from likekit import automata
from likekit.automata import (
    _CompiledSearch,
    _agree_forever,
    _bfs,
    _predicate,
)

from helpers import (
    FALSE_FOREVER,
    TRUE_FOREVER,
    UNDECIDED,
    all_patterns,
    all_texts,
    alternating_chain,
    assignment_satisfies,
    brute_force_sat,
    naive_forecasts,
    naive_packed_masks,
    random_pattern,
    reachable_states,
    reference_bfs,
    shortest_satisfying,
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
            assert nfa.accepts(t) == match_oracle(p, t), (p, t)


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
    # Monotone expressions get the token-count bound, which is a proof.
    out = find_witness(Atom(P("a_")), Alphabet.from_chars("b"))
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.complete


def test_explicit_max_len_is_a_hard_cap():
    sigma = Alphabet.from_chars("ab")
    e = Atom(P("___"))
    assert find_witness(e, sigma, max_len=2).verdict is Verdict.EXHAUSTED_EMPTY
    assert find_witness(e, sigma, max_len=3).witness == ("a", "a", "a")


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
    from helpers import random_monotone_expression

    for _ in range(150):
        e = random_monotone_expression(rng, "ab", 6)
        out = find_witness(e, sigma)
        expected = shortest_satisfying(e, sigma, max_len=8)
        if out.verdict is Verdict.FOUND:
            assert out.witness == expected
        else:
            assert expected is None


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
    rng = random.Random(2424)
    for i in range(400):
        chars, syms, bound = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e1 = _random_expr(rng, syms, 3)
        e2 = _random_expr(rng, syms, 3)
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
    want = naive_packed_masks(exprs, sigma)
    assert comp.moves == want["moves"]
    assert (comp.gaps, comp.initial) == (want["gaps"], want["initial"])
    assert (comp.atoms, comp.state_bits) == (want["atoms"], want["state_bits"])
    for p, masks in want["blocks"]:
        assert comp._masks([comp._slot[id(p)]]) == masks, p
    # A group's masks are the union of its atoms' masks, runs of slots or not.
    for group in (want["blocks"], want["blocks"][::2], want["blocks"][1::3]):
        union = [0, 0, 0]
        for _, masks in group:
            union = [u | m for u, m in zip(union, masks)]
        assert comp._masks([comp._slot[id(p)] for p, _ in group]) == tuple(union)


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
    # 600 symbols take three tapes; the literals come from the second and
    # third chunks, with symbols outside the alphabet mixed in.
    symbols = [f"s{i}" for i in range(600)]
    sigma = Alphabet(tuple(symbols))
    pool = symbols[252:] + ["out1", "out2"]
    rng = random.Random(600)
    for _ in range(40):
        exprs = [_random_expr(rng, pool, 2) for _ in range(2)]
        _assert_compile_matches_reference(exprs, sigma)


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
    compiled = [tuple(map(_predicate, groups)) for groups in comp.deciders]
    both = _predicate(_agree_forever(*comp.deciders)) if len(exprs) == 2 else None
    for d, row in table.items():
        for (value, dead, settled), (ev, fate) in zip(compiled, row):
            assert value(d) == ev, (exprs, d)
            assert dead(d) == (fate == FALSE_FOREVER), (exprs, d)
            assert settled(d) == (fate == TRUE_FOREVER), (exprs, d)
        if both is not None:
            (_, f1), (_, f2) = row
            assert both(d) == (f1 != UNDECIDED and f1 == f2), (exprs, d)


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
        reach = comp._masks([comp._slot[id(e.children[0].pattern)]])[2]
        assert comp.deciders[0][1] == (True, 0, 0, (reach,), ())


def test_forecasts_agree_with_reference_on_deep_chains():
    sigma = Alphabet.from_chars("ab")
    deep = alternating_chain(3000, Atom(P("aaa")))
    negated = alternating_chain(3000, Not(Or((Atom(P("a%")), Not(Atom(P("%bb")))))))
    for exprs in ([deep], [deep, negated], [Not(Not(Not(negated)))]):
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
    # column. The search visits every other sorted prefix before it pops a
    # state at depth n: fewer than the unfalsified partial assignments,
    # themselves fewer than the 3^n consistent ones.
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
    assert _CompiledSearch([gate], sigma).deciders[0][1] == (True, 0, 0, (), ())
    # Under an AND only the other conjunct's reach is tested.
    e = and_(gate, Atom(P("a_")))
    comp = _CompiledSearch([e], sigma)
    reach = comp._masks([comp._slot[id(e.children[1].pattern)]])[2]
    assert comp.deciders[0][1] == (True, 0, 0, (reach,), ())
    # A literal outside sigma still kills its atom in the first step.
    out = find_witness(and_(gate, Atom(P("a%z"))), sigma)
    assert out.verdict is Verdict.EXHAUSTED_EMPTY and out.explored == 1


# --- the search against a scan that expands every state ----------------------


def _full_prune(comp, e):
    """find_witness's prunes as (prune, spent). prune is one test per
    state: the dead forecast, the counting forecast's slack below zero, or
    a tight state with a dead bound conjunct. spent, for an ordered
    counting forecast (else None), tests a state reached on column c: some
    unsettled member has no symbol in a later column."""
    dead = _predicate(comp.deciders[0][1])
    counting = comp.counting(e)
    if counting is None:
        return dead, None

    def prune(d):
        if dead(d):
            return True
        slack = counting.slack(d)
        return slack < 0 or slack == 0 and counting.bound_dead(d)

    if not counting.ordered:
        return prune, None
    columns = [
        [c for c, owner in enumerate(counting.owners) if owner >> i & 1]
        for i in range(len(counting.members))
    ]

    def spent(d, col):
        return any(
            not d & settled and all(c <= col for c in cols)
            for settled, cols in zip(counting.members, columns)
        )

    return prune, spent


def _reference_search(exprs, sigma, budget, max_len):
    """find_witness (one expression) or find_separating_string (two) run
    on the reference scan that expands every state and tests every
    successor with the full prune: (witness, explored, complete), or the
    explored count a budget stop reports."""
    comp = _CompiledSearch(exprs, sigma)
    if len(exprs) == 1:
        (e,) = exprs
        bound_is_proof = max_len is None and is_monotone(e)
        if bound_is_proof:
            max_len = expression_size(e)
        accept = _predicate(comp.deciders[0][0])
        prune, spent = _full_prune(comp, e)
    else:
        bound_is_proof = False
        ev1, ev2 = (_predicate(groups[0]) for groups in comp.deciders)
        accept = lambda d: ev1(d) != ev2(d)
        prune, spent = _predicate(_agree_forever(*comp.deciders)), None
    try:
        witness, explored, complete = reference_bfs(
            comp, accept, prune, budget, max_len, spent
        )
    except SearchBudgetExceeded as exc:
        return exc.explored
    return witness, explored, complete or bound_is_proof


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
        comp = _CompiledSearch([_random_expr(rng, syms, 2)], sigma)
        forecast = _random_group(rng, comp.state_bits, 1, rng.random() < 0.5)
        accept = _predicate(comp.deciders[0][0])
        max_len = rng.choice((None, 2, 4))
        budget = rng.choice((3, 20, DEFAULT_STATE_BUDGET))
        results = []
        for scan, prune in ((_bfs, forecast), (reference_bfs, _predicate(forecast))):
            try:
                results.append(scan(comp, accept, prune, budget, max_len))
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
    %xy% or %x_%, negated members or random expressions. A clause or
    overlapping member is bound when members hold its symbols; a symbol
    outside sigma does not count, and one that no member holds rules it
    out."""
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


def _naive_family(e, sigma):
    """The counting family read off ``normalize``: the length atom's token
    count and the symbol sets of the members and of the bound conjuncts,
    or None."""
    if not isinstance(e, And):
        return None
    length, members, others, used = None, [], [], set()
    for c in e.children:
        atoms = c.children if isinstance(c, Or) else (c,)
        if not all(isinstance(a, Atom) for a in atoms):
            continue
        forms = [normalize(a.pattern).tokens for a in atoms]
        if all(
            len(f) == 3
            and f[0] is ANY_STRING
            and f[2] is ANY_STRING
            and isinstance(f[1], Literal)
            for f in forms
        ):
            symbols = {f[1].symbol for f in forms}
            if not symbols & used:
                members.append(symbols)
                used |= symbols
            else:
                others.append(symbols)
        elif length is None and isinstance(c, Atom) and ANY_STRING not in forms[0]:
            length = len(forms[0])
    if length is None or not members:
        return None
    bound = [b for b in others if b & set(sigma.symbols) <= used]
    return length, members, bound


def _assert_family_matches_naive(e, sigma):
    comp = _CompiledSearch([e], sigma)
    counting, want = comp.counting(e), _naive_family(e, sigma)
    assert (counting is None) == (want is None), e
    if counting is None:
        return False
    length, members, bound = want
    assert len(counting.members) == len(members), e
    # At the start the length atom has read nothing and no member is settled.
    assert counting.slack(comp.initial) == length - len(members), e
    # Each alphabet symbol's move names the member that holds it.
    readable = set(sigma.symbols)
    in_sigma = [m & readable for m in members]
    for (sym, _), owner in zip(comp.moves, counting.owners):
        assert owner == sum(1 << i for i, m in enumerate(in_sigma) if sym in m), e
    # Each bound conjunct is settled by the moves on its symbols and held by
    # the members that hold them.
    assert len(counting.bound) == len(bound), e
    for j, ((_, holders), symbols) in enumerate(zip(counting.bound, bound)):
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
    assert with_bound > 100


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
        comp, counting = compiled(text)
        assert counting.slack(comp.initial) == slack, text
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
    compile and forecast."""
    rng = random.Random(seed)
    for i in range(count):
        chars, syms, _ = _DIFF_SETTINGS[i % 2]
        sigma = Alphabet.from_chars(chars)
        e = _random_counting_expr(rng, syms)
        comp = _CompiledSearch([e], sigma)
        counting = comp.counting(e)
        if counting is not None:
            yield e, sigma, comp, counting


def test_counting_forecast_is_sound():
    # Every state the rule calls dead has no path to acceptance, over the
    # whole reachable state graph with nothing pruned.
    dead_by_count = 0
    for e, sigma, comp, counting in _counting_cases(2024, 300):
        states, live = _live_states(comp, e, sigma)
        for d in states:
            if counting.slack(d) < 0:
                dead_by_count += 1
                assert d not in live, (e, d)
    assert dead_by_count > 100


def test_bound_conjunct_rule_is_sound():
    # Every tight state the bound rule calls dead has no path to
    # acceptance, over the whole reachable state graph with nothing pruned.
    # Many are tight states that the count alone keeps.
    tight = dead_by_bound = 0
    for e, sigma, comp, counting in _counting_cases(2025, 600):
        states, live = _live_states(comp, e, sigma)
        for d in states:
            if counting.slack(d) == 0:
                tight += 1
                if counting.bound_dead(d):
                    dead_by_bound += 1
                    assert d not in live, (e, d)
    assert dead_by_bound > 100 and tight > 2 * dead_by_bound


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
        holders = [h for _, h in counting.bound]
        assert holders == ([] if bound is None else [bound]), conjunct
    # c is in sigma and held by no member, so a conjunct on it is not bound.
    _, _, counting = compiled(
        'LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND (LIKE "%a%" OR LIKE "%c%")'
    )
    assert counting.bound == ()

    e, comp, counting = compiled(f"{members} AND LIKE \"%b%\"")
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
        assert counting.slack(d) == 0, text
        assert counting.bound_dead(d) == dead, text
    # The start, a and ab: ac and c are dead by the rule, and the search is
    # ordered, so b, whose member %a% has no symbol after it, is dead too.
    assert counting.ordered
    out = find_witness(e, sigma)
    assert (out.witness, out.explored) == (("a", "b"), 3)


def _read_in_order(comp, state):
    """The columns of the symbols x whose %x% block has read x in the
    state, in alphabet order, when reading them so from the start reaches
    that very state; else None."""
    stream = comp._stream
    read = []
    for col, (sym, _) in enumerate(comp.moves):
        trailing = [
            i + 1
            for i in range(1, len(stream) - 2)
            if stream[i - 1 : i + 2] == [ANY_STRING, Literal(sym), ANY_STRING]
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
    # once, and carries the column of the last.
    queued = []

    class Recording(deque):
        def append(self, item):
            queued.append(item)
            super().append(item)

    monkeypatch.setattr(automata, "deque", Recording)
    rng = random.Random(3031)
    cases = [
        (e, sigma, rng.choice((None, None, 1, 2)))
        for e, sigma, _, _ in _counting_cases(3030, 600)
    ]
    for n in (3, 4, 5, 6):
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(round(4.3 * n))
        )
        cases.append((*encode_3sat(Cnf(n, clauses)), None))
    tight = loose = ordered = 0
    for e, sigma, max_len in cases:
        comp = _CompiledSearch([e], sigma)
        counting = comp.counting(e)
        queued.clear()
        find_witness(e, sigma, max_len=max_len)
        for state, depth, unsettled, settled, last in queued:
            if counting.ordered:
                ordered += 1
                read = _read_in_order(comp, state)
                assert read is not None and len(read) == depth, e
                assert last == read[-1], e
            else:
                assert last == -1, e
            assert unsettled == counting.unsettled(state), e
            assert settled == counting.settled(state), e
            slack = counting.slack(state)
            assert slack == counting.room - depth - unsettled.bit_count(), e
            if slack > 0:
                loose += 1
                continue
            tight += 1
            assert slack == 0, e
            assert not counting.bound_dead(state), e
    assert tight > 300 and loose > 100 and ordered > 100


def test_search_starts_with_every_member_unsettled_and_no_bound_settled():
    # The scan queues its start with these sets without reading its bits:
    # a %x% block's trailing % is set only once x has been read.
    for _, _, comp, counting in _counting_cases(2000, 2000):
        every_member = (1 << len(counting.members)) - 1
        assert counting.unsettled(comp.initial) == every_member
        assert counting.settled(comp.initial) == 0


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
        # A negated conjunct is not of the member shape.
        ('LIKE "__" AND LIKE "%b%" AND LIKE "%c%" AND NOT LIKE "%a%"', ("b", "c"), 4),
        # A conjunct on c, which no member holds, is not bound.
        (
            'LIKE "__" AND LIKE "%a%" AND LIKE "%b%" AND (LIKE "%a%" OR LIKE "%c%")',
            ("a", "b"),
            4,
        ),
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
    # Inside the guard, b is dead by order: %a% has no symbol after it.
    e = parse_expression('LIKE "__" AND LIKE "%a%" AND LIKE "%b%"')
    assert _CompiledSearch([e], sigma).counting(e).ordered
    out = find_witness(e, sigma)
    assert (out.witness, out.explored) == (("a", "b"), 3)


def _random_ordered_expr(rng, syms):
    """An And that the order guard often admits: an all-_ length atom as
    long as the members, one to three members over disjoint symbol groups
    (the symbol outside sigma among them), and clauses of one to three
    member-shaped atoms over symbols drawn with repeats, in any order. At
    times the length atom has one _ more, or one other conjunct breaks
    the guard."""
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
    if rng.random() < 0.15:
        x, y = rng.choice(syms), rng.choice(syms)
        conjuncts.append(
            rng.choice(
                (
                    Atom(Pattern((ANY_STRING, Literal(x), Literal(y), ANY_STRING))),
                    Not(Atom(_member_pattern(rng, x))),
                    _random_expr(rng, syms, 2),
                )
            )
        )
    rng.shuffle(conjuncts)
    return And(tuple(conjuncts))


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
    assert ordered >= 200


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
    bound_is_proof = max_len is None and is_monotone(e)
    if bound_is_proof:
        max_len = expression_size(e)
    value, dead, _ = comp.deciders[0]
    witness, explored, complete = _bfs(
        comp,
        _predicate(value),
        dead,
        DEFAULT_STATE_BUDGET,
        max_len,
        comp.counting(e) if counting else None,
    )
    return witness, explored, complete or bound_is_proof


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
    # in alphabet order only, each is reached once, and far fewer are left.
    rng = random.Random(7919)
    n = 12
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(52)
    )
    formula = Cnf(n, clauses)
    out = _assert_3cnf_search_matches_brute_force(formula)
    assert out.explored == sorted_unfalsified_prefixes(formula)
    assert out.explored < unfalsified_partial_assignments(formula) // 10


def test_3cnf_gadget_at_sixteen_variables_fits_the_default_budget():
    # Read along every order, this formula's 7007193 unfalsified partial
    # assignments pass the default budget of 2^20; in alphabet order the
    # search keeps 65477 states.
    rng = random.Random(1601)
    n = 16
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(69)
    )
    out = _assert_3cnf_search_matches_brute_force(Cnf(n, clauses))
    assert out.explored == 65477
