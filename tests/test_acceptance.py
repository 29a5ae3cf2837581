"""Acceptance battery.

Each test covers one headline guarantee, prints a single PASS/FAIL line
(visible under ``pytest -s``), and enforces a wall-clock ceiling. Run as

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from likekit import (
    Alphabet,
    And,
    AnyOne,
    Atom,
    Cnf,
    Literal,
    Not,
    Pattern,
    PatternNfa,
    Verdict,
    and_,
    atom_patterns,
    decode_3sat_witness,
    encode_3sat,
    encode_majority,
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
    parse_pattern,
    simulate_tm,
    to_dot_depth1_dnf,
)

from helpers import (
    all_patterns,
    all_texts,
    assignment_satisfies,
    brute_force_sat,
    m_bouncer,
    m_dirty_accept,
    m_edge_fall,
    m_loop,
    m_one_step,
    m_stuck,
    random_monotone_expression,
    random_pattern,
    random_text,
    realize,
    shortest_satisfying,
)


def _report(name: str, ok: bool, elapsed: float) -> None:
    print(f"\nACCEPTANCE: {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")


def test_normal_form_soundness():
    """normalize() is idempotent, non-growing, produces normal forms, and
    preserves the matched language: patterns up to 6 tokens over {0,1},
    texts up to length 8."""
    t0 = time.perf_counter()
    limit = 60.0
    texts = list(all_texts("01", 8))
    bits_cache: dict[Pattern, int] = {}

    def language_bits(p: Pattern) -> int:
        got = bits_cache.get(p)
        if got is None:
            got = 0
            for i, t in enumerate(texts):
                if match_oracle(p, t):
                    got |= 1 << i
            bits_cache[p] = got
        return got

    problems = []
    checked = changed = 0
    for p in all_patterns("01", 6):
        checked += 1
        q = normalize(p)
        if not is_normalized(q):
            problems.append(("not-normalized", p))
        if normalize(q) != q:
            problems.append(("not-idempotent", p))
        if len(q) > len(p):
            problems.append(("grew", p))
        if q != p:
            changed += 1
            if language_bits(p) != language_bits(q):
                problems.append(("language-changed", p))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < limit
    _report("normal_form_soundness", ok, elapsed)
    assert checked == 5461 and changed > 0
    assert not problems, problems[:3]
    assert elapsed < limit


def test_matcher_agreement():
    """The greedy matcher, the reference dynamic program, and the position
    automaton agree: exhaustively for patterns up to 4 tokens and binary
    texts up to length 6, then on 100000 random pairs over a three-symbol
    alphabet with patterns up to 10 tokens and texts up to length 14."""
    t0 = time.perf_counter()
    limit = 120.0
    problems = []

    for p in all_patterns("01", 4):
        nfa = PatternNfa(p)
        for t in all_texts("01", 6):
            a, b, c = match_greedy(p, t), match_oracle(p, t), nfa.accepts(t)
            if not (a == b == c):
                problems.append((p, t, a, b, c))

    rng = random.Random(66211)
    pairs = 0
    while pairs < 100_000:
        p = random_pattern(rng, "abc", 10)
        nfa = PatternNfa(p)
        for t in (random_text(rng, "abc", 14), realize(rng, p, "abc")):
            a, b, c = match_greedy(p, t), match_oracle(p, t), nfa.accepts(t)
            if not (a == b == c):
                problems.append((p, t, a, b, c))
        pairs += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < limit
    _report("matcher_agreement", ok, elapsed)
    assert not problems, problems[:3]
    assert elapsed < limit


def test_substring_order_equivalence():
    """%01% and %0%1% agree on binary texts but are separated over
    {0,1,2}, with 021 as the shortest, first-in-order separator."""
    t0 = time.perf_counter()
    limit = 1.0
    e1 = Atom(parse_pattern("%01%"))
    e2 = Atom(parse_pattern("%0%1%"))

    binary = find_separating_string(e1, e2, Alphabet.from_chars("01"))
    ternary = find_separating_string(e1, e2, Alphabet.from_chars("012"))
    elapsed = time.perf_counter() - t0

    ok = (
        binary.verdict is Verdict.EXHAUSTED_EQUIVALENT
        and ternary.verdict is Verdict.FOUND
        and ternary.witness == ("0", "2", "1")
        and evaluate(e2, ternary.witness)
        and not evaluate(e1, ternary.witness)
        and elapsed < limit
    )
    _report("substring_order_equivalence", ok, elapsed)
    assert binary.verdict is Verdict.EXHAUSTED_EQUIVALENT
    assert ternary.verdict is Verdict.FOUND
    assert ternary.witness == ("0", "2", "1")
    assert elapsed < limit


def test_majority_gadget():
    """The majority pattern for n matches exactly the length-n bit strings
    whose ones are in the majority, for every n up to 12."""
    t0 = time.perf_counter()
    limit = 60.0
    problems = []
    for n in range(1, 13):
        p = encode_majority(n)
        need = (n + 2) // 2
        for t in all_texts("01", n):
            if len(t) != n:
                continue
            if match_greedy(p, t) != (t.count("1") >= need):
                problems.append((n, t))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < limit
    _report("majority_gadget", ok, elapsed)
    assert not problems, problems[:3]
    assert elapsed < limit


def test_sat_gadget():
    """The 3-CNF encoding agrees with brute-force satisfiability on 200
    random formulas plus crafted satisfiable and unsatisfiable ones, and
    found witnesses decode to satisfying assignments."""
    t0 = time.perf_counter()
    limit = 120.0
    rng = random.Random(424344)
    problems = []
    sat_seen = unsat_seen = 0
    crafted = [
        Cnf(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3))),
        Cnf(1, ((1, 1, 1),)),
        Cnf(1, ((1, 1, 1), (-1, -1, -1))),
        Cnf(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2))),
    ]
    formulas = list(crafted)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(m)
        )
        formulas.append(Cnf(n, clauses))
    for f in formulas:
        n = f.n_vars
        expr, sigma = encode_3sat(f)
        out = find_witness(expr, sigma)
        truth = brute_force_sat(f)
        if truth is None:
            unsat_seen += 1
            if out.verdict is not Verdict.EXHAUSTED_EMPTY:
                problems.append(("should-be-empty", f))
        else:
            sat_seen += 1
            if out.verdict is not Verdict.FOUND:
                problems.append(("should-be-satisfiable", f))
                continue
            if len(out.witness) != n or not evaluate(expr, out.witness):
                problems.append(("bad-witness", f, out.witness))
                continue
            bits = decode_3sat_witness(f, out.witness)
            if not assignment_satisfies(f, bits):
                problems.append(("bad-assignment", f, bits))
    elapsed = time.perf_counter() - t0
    ok = not problems and sat_seen and unsat_seen and elapsed < limit
    _report("sat_gadget", ok, elapsed)
    assert sat_seen > 0 and unsat_seen > 0
    assert not problems, problems[:3]
    assert elapsed < limit


def test_monotone_witness_bound():
    """Negation-free expressions with a satisfying text have one no longer
    than their total token count; the search returns exactly the shortest,
    first-in-order witness. 500 random expressions of size up to 10 over
    alphabets of one, two, and three symbols, cross-checked by exhaustive
    enumeration up to the token-count bound."""
    t0 = time.perf_counter()
    limit = 120.0
    rng = random.Random(8675309)
    problems = []
    found = empty = 0
    for _ in range(500):
        symbols = rng.choice(("a", "ab", "abc"))
        sigma = Alphabet.from_chars(symbols)
        e = random_monotone_expression(rng, symbols, 10)
        size = expression_size(e)
        out = find_witness(e, sigma)
        expected = shortest_satisfying(e, sigma, max_len=size)
        if out.verdict is Verdict.FOUND:
            found += 1
            if len(out.witness) > size:
                problems.append(("bound-exceeded", e, out.witness))
            if out.witness != expected:
                problems.append(("not-shortest", e, out.witness, expected))
            if not evaluate(e, out.witness):
                problems.append(("not-a-witness", e, out.witness))
        else:
            empty += 1
            if expected is not None:
                problems.append(("missed-witness", e, expected))
    elapsed = time.perf_counter() - t0
    ok = not problems and found and empty and elapsed < limit
    _report("monotone_witness_bound", ok, elapsed)
    assert found > 0 and empty > 0
    assert not problems, problems[:3]
    assert elapsed < limit


def test_machine_history_gadget():
    """Machine runs in bounded space reduce to pattern expressions: the
    expression's language is exactly the accepting history (or empty when
    the machine loops, gets stuck, falls off, or halts dirty), and the
    number of forbidden patterns grows at most quadratically with the
    space bound."""
    t0 = time.perf_counter()
    limit = 120.0
    problems = []

    for build in (m_one_step, lambda: m_bouncer(2), lambda: m_bouncer(3)):
        spec, word, space = build()
        run = simulate_tm(spec, word, space)
        if not run.accepted:
            problems.append(("should-accept", spec))
            continue
        expr, sigma = encode_tm(spec, word, space)
        out = find_witness(expr, sigma)
        if out.verdict is not Verdict.FOUND or out.witness != run.history:
            problems.append(("wrong-witness", spec, out.verdict))
            continue
        fence = Not(Atom(Pattern(tuple(Literal(s) for s in run.history))))
        again = find_witness(and_(expr, fence), sigma)
        if again.verdict is not Verdict.EXHAUSTED_EMPTY:
            problems.append(("second-witness", spec, again.verdict))

    for build in (m_loop, m_stuck, m_edge_fall, m_dirty_accept):
        spec, word, space = build()
        if simulate_tm(spec, word, space).accepted:
            problems.append(("should-reject", spec))
            continue
        expr, sigma = encode_tm(spec, word, space)
        out = find_witness(expr, sigma)
        if out.verdict is not Verdict.EXHAUSTED_EMPTY:
            problems.append(("should-be-empty", spec, out.verdict))

    atoms = {}
    for space in (2, 3, 4, 5):
        spec, word, _ = m_bouncer(space)
        run = simulate_tm(spec, word, space)
        expr, sigma = encode_tm(spec, word, space)
        out = find_witness(expr, sigma)
        if out.witness != run.history:
            problems.append(("growth-wrong-witness", space))
            continue
        atoms[space] = sum(1 for _ in atom_patterns(expr))
    if len(atoms) == 4:
        scale = atoms[2] / 4
        for space in (3, 4, 5):
            if atoms[space] > 2 * scale * space * space:
                problems.append(("super-quadratic", atoms))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < limit
    _report("machine_history_gadget", ok, elapsed)
    assert not problems, problems[:3]
    assert elapsed < limit


def test_dnf_rewrite_preservation():
    """Rewriting to wildcard-free DNF preserves evaluation on every binary
    text up to length 6, across expressions of at most 3 atoms whose
    patterns have at most 3 tokens: every connective shape and sign
    placement, filled from graded pattern pools."""
    t0 = time.perf_counter()
    limit = 120.0
    sigma = Alphabet.from_chars("01")
    texts = list(all_texts("01", 6))
    full = (1 << len(texts)) - 1
    bits_cache: dict[Pattern, int] = {}
    problems = []

    def pattern_bits(p: Pattern) -> int:
        got = bits_cache.get(p)
        if got is None:
            got = 0
            for i, t in enumerate(texts):
                if match_greedy(p, t):
                    got |= 1 << i
            bits_cache[p] = got
        return got

    def expr_bits(e) -> int:
        if isinstance(e, Atom):
            return pattern_bits(e.pattern)
        if isinstance(e, Not):
            return full & ~expr_bits(e.child)
        vals = [expr_bits(c) for c in e.children]
        out = vals[0]
        for v in vals[1:]:
            out = out & v if isinstance(e, And) else out | v
        return out

    checked = 0

    def check(e) -> None:
        nonlocal checked
        checked += 1
        dnf = to_dot_depth1_dnf(e, sigma)
        for clause in dnf.clauses:
            for sa in clause:
                if any(isinstance(tok, AnyOne) for tok in sa.pattern.tokens):
                    problems.append(("wildcard-left", e, sa.pattern))
                    return
                if not is_normalized(sa.pattern):
                    problems.append(("not-normalized", e, sa.pattern))
                    return
        if expr_bits(dnf.to_expression()) != expr_bits(e):
            problems.append(("language-changed", e))

    ident = lambda x: x
    pool1 = [Atom(p) for p in all_patterns("01", 1)]
    pool2 = [Atom(p) for p in all_patterns("01", 2)]
    pool3 = [Atom(p) for p in all_patterns("01", 3)]

    for a in pool3:
        check(a)
        check(Not(a))

    for conn in (and_, or_):
        for s1 in (ident, Not):
            for s2 in (ident, Not):
                for root in (ident, Not):
                    for a in pool2:
                        for b in pool2:
                            check(root(conn(s1(a), s2(b))))

    def flat3(conn, smask, root):
        signs = [Not if smask >> i & 1 else ident for i in range(3)]
        return lambda x, y, z: root(conn(signs[0](x), signs[1](y), signs[2](z)))

    def nested3(outer, inner, smask, mid, root):
        signs = [Not if smask >> i & 1 else ident for i in range(3)]
        return lambda x, y, z: root(
            outer(mid(inner(signs[0](x), signs[1](y))), signs[2](z))
        )

    shapes3 = []
    for conn in (and_, or_):
        for smask in range(8):
            for root in (ident, Not):
                shapes3.append(flat3(conn, smask, root))
    for outer, inner in ((and_, or_), (or_, and_)):
        for smask in range(8):
            for mid in (ident, Not):
                for root in (ident, Not):
                    shapes3.append(nested3(outer, inner, smask, mid, root))

    for shape in shapes3:
        for a in pool1:
            for b in pool1:
                for c in pool1:
                    check(shape(a, b, c))

    rich_shapes = [
        lambda x, y, z: and_(x, y, z),
        lambda x, y, z: or_(x, y, z),
        lambda x, y, z: and_(or_(x, y), z),
        lambda x, y, z: or_(and_(x, y), z),
        lambda x, y, z: Not(and_(or_(x, y), z)),
        lambda x, y, z: Not(or_(and_(x, y), z)),
        lambda x, y, z: and_(Not(or_(x, y)), z),
        lambda x, y, z: or_(Not(and_(x, y)), Not(z)),
    ]
    for shape in rich_shapes:
        for rich in pool3:
            for a in pool1:
                for b in pool1:
                    check(shape(rich, a, b))
                    check(shape(a, rich, b))
                    check(shape(a, b, rich))

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < limit
    _report("dnf_rewrite_preservation", ok, elapsed)
    assert checked > 50_000
    assert not problems, problems[:3]
    assert elapsed < limit
