import itertools
import json
import random
import tracemalloc

import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    Atom,
    Cnf,
    Literal,
    Not,
    Pattern,
    TmRule,
    TmSpec,
    Verdict,
    and_,
    decode_3sat_witness,
    encode_3sat,
    encode_majority,
    encode_tm,
    evaluate,
    find_separating_string,
    find_witness,
    match_greedy,
    or_,
    parse_dimacs,
    render_expression,
    render_pattern,
    simulate_tm,
    tm_from_json,
)
from likekit.cli import dispatch
from likekit.reductions import _tm_gadget_patterns, _tm_gadget_tokens

from helpers import (
    all_texts,
    assignment_satisfies,
    brute_force_sat,
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
    naive_packed_masks,
    reference_encode_tm,
    short_digest,
)


# --- 3-CNF --------------------------------------------------------------------


def test_cnf_validation():
    Cnf(2, ((1, -2, 2),))
    with pytest.raises(ValueError):
        Cnf(0, ())
    with pytest.raises(ValueError):
        Cnf(2, ((1, 2),))
    with pytest.raises(ValueError):
        Cnf(2, ((1, 2, 0),))
    with pytest.raises(ValueError):
        Cnf(2, ((1, 2, 3),))
    # A count or literal that is not an int is refused here, as a bad
    # value, not later by encode_3sat as a TypeError or KeyError.
    for bad in (2.5, 2.0, "3", True, None):
        with pytest.raises(ValueError, match="variable count"):
            Cnf(bad, ())
    for lit in (1.5, 1.0, "1", True, None):
        with pytest.raises(ValueError, match="not an integer"):
            Cnf(2, [(lit, 2, -1)])
    # Clauses given as lists, inside a tuple or not, are kept as tuples, so
    # the value hashes and compares like one built from tuples.
    for clauses in (([1, 2, 3],), [[1, 2, 3]], [(1, 2, 3)]):
        f = Cnf(3, clauses)
        assert f.clauses == ((1, 2, 3),)
        assert f == Cnf(3, ((1, 2, 3),))
        assert hash(f) == hash(Cnf(3, ((1, 2, 3),)))


def test_parse_dimacs():
    text = """c example
p cnf 3 2
1 -2 3 0
-1 2
-3 0
"""
    f = parse_dimacs(text)
    assert f.n_vars == 3
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))
    # Comments and blank lines may follow the header, and a formula may
    # have no clause.
    text = "c a\n\np cnf 3 2\nc b\n1 -2 3 0\n\n-1 2 -3 0\nc c\n"
    assert parse_dimacs(text) == f
    assert parse_dimacs("p cnf 1 0\n") == Cnf(1, ())
    # Leading zeros and a negative zero count are plain ASCII integers.
    assert parse_dimacs("p cnf 03 -0\n") == Cnf(3, ())


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3 0\n",
        "p cnf 3 2\n1 2 3 0\n",
        "p cnf 3 1\n1 2 0\n",
        "p cnf 3 1\n1 2 3\n",
        "p cnf 3 1\n1 2 3 4 0\n",
        # Only ASCII digits with an optional leading -, in counts and
        # literals alike.
        "p cnf 1_0 1\n1 2 3 0\n",
        "p cnf 3 +1\n1 2 3 0\n",
        "p cnf ٣ 1\n1 2 3 0\n",
        "p cnf 3 1\n+1 2 3 0\n",
        "p cnf 3 1\n1 2 ٣ 0\n",
        "p cnf 3 1\n1 2 3 0_0\n",
        "p cnf 3 1\n1 2 -\n3 0\n",
        "p cnf 3 1\n1 2 --3 0\n",
        "p cnf 3 1\n1 2 ³ 0\n",
    ],
)
def test_parse_dimacs_rejects(text):
    with pytest.raises(ValueError):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # -1 is a clause count, not a missing header.
        ("p cnf 2 -1\n", "negative count"),
        ("p cnf -3 0\n", "negative count"),
        # A clause before the header, whole or in part.
        ("1 2 3 0\np cnf 3 1\n", "clause before the problem line"),
        ("c ok\n1 2\np cnf 3 1\n3 0\n", "clause before the problem line"),
        # A second header, equal to the first or not.
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "second problem line"),
        ("p cnf 3 1\n1 2 3 0\np cnf 3 0\n", "second problem line"),
    ],
)
def test_parse_dimacs_rejects_bad_headers(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(text)


def test_3sat_encoding_satisfiable():
    f = Cnf(2, ((1, 2, 2), (-1, -2, -2)))
    expr, sigma = encode_3sat(f)
    assert sigma.symbols == ("x1", "x2", "~x1", "~x2")
    out = find_witness(expr, sigma)
    assert out.verdict is Verdict.FOUND
    bits = decode_3sat_witness(f, out.witness)
    assert assignment_satisfies(f, bits)


def test_3sat_encoding_unsatisfiable():
    f = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
    expr, sigma = encode_3sat(f)
    assert find_witness(expr, sigma).verdict is Verdict.EXHAUSTED_EMPTY


def test_3sat_random_agreement():
    rng = random.Random(52)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(m)
        )
        f = Cnf(n, clauses)
        expr, sigma = encode_3sat(f)
        out = find_witness(expr, sigma)
        truth = brute_force_sat(f)
        if truth is None:
            assert out.verdict is Verdict.EXHAUSTED_EMPTY, f
        else:
            assert out.verdict is Verdict.FOUND, f
            assert len(out.witness) == n
            assert assignment_satisfies(f, decode_3sat_witness(f, out.witness))


def _encode_3sat_atom_per_occurrence(formula):
    """encode_3sat as it was built before its atoms were shared: a new
    %x% atom for every occurrence of a literal."""

    def sym(lit):
        return f"x{lit}" if lit > 0 else f"~x{-lit}"

    def contains(lit):
        return Atom(Pattern((ANY_STRING, Literal(sym(lit)), ANY_STRING)))

    n = formula.n_vars
    parts = [Atom(Pattern((ANY_ONE,) * n))]
    parts += [or_(contains(v), contains(-v)) for v in range(1, n + 1)]
    parts += [or_(*map(contains, clause)) for clause in formula.clauses]
    lits = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    return and_(*parts), Alphabet(tuple(map(sym, lits)))


def test_3sat_encoding_shares_one_atom_per_literal(tmp_path, capsys):
    rng = random.Random(4711)
    for n in range(1, 7):
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 3 * n))
        )
        formula = Cnf(n, clauses)
        expr, sigma = encode_3sat(formula)
        want, want_sigma = _encode_3sat_atom_per_occurrence(formula)
        assert (expr, sigma) == (want, want_sigma)
        # Every occurrence of a literal is the one atom of its variable's Or.
        length, *rest = expr.children
        per_var, per_clause = rest[:n], rest[n:]
        shared = {}
        for gate in per_var:
            for atom in gate.children:
                shared[atom.pattern.tokens[1].symbol] = atom
        assert len(shared) == 2 * n
        for gate, clause in zip(per_clause, clauses):
            atoms = gate.children if len(clause) > 1 else (gate,)
            for atom in atoms:
                assert atom is shared[atom.pattern.tokens[1].symbol]
        # The CLI renders the same text as before.
        cnf = tmp_path / "f.cnf"
        body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
        cnf.write_text(f"p cnf {n} {len(clauses)}\n{body}")
        assert dispatch(["reduce", "3sat", "--dimacs", str(cnf)]) == 0
        out = capsys.readouterr().out
        assert out == render_expression(want, tokens=True) + "\n"


def test_decode_rejects_undecided_witness():
    f = Cnf(2, ((1, 2, 2),))
    with pytest.raises(ValueError):
        decode_3sat_witness(f, ("x1", "x1"))
    with pytest.raises(ValueError):
        decode_3sat_witness(f, ("x1", "~x1"))


# --- majority -----------------------------------------------------------------


def test_majority_pattern_shape():
    p = encode_majority(3)
    assert p.tokens[0] == ANY_STRING and p.tokens[-1] == ANY_STRING
    assert sum(1 for t in p.tokens if isinstance(t, Literal)) == 2
    assert all(t == ANY_STRING or t == Literal("1") for t in p.tokens)


def test_majority_exhaustive_small():
    for n in range(1, 9):
        p = encode_majority(n)
        need = (n + 2) // 2
        for t in all_texts("01", n):
            if len(t) != n:
                continue
            assert match_greedy(p, t) == (t.count("1") >= need), (n, t)


def test_majority_rejects_bad_length():
    with pytest.raises(ValueError):
        encode_majority(0)


# --- machines -------------------------------------------------------------------


def test_tm_spec_validation():
    good, _, _ = m_one_step()
    assert good.delta[("q0", "1")].next == "qa"
    with pytest.raises(ValueError):
        TmSpec(("q0",), ("b",), (), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa", "b"), ("b",), (), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa", "#"), ("b",), (), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), (), "q0", "qa", (), blank="x")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), ("1",), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), ("b",), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "q 1", "qa"), ("b",), (), "q0", "qa", (), blank="b")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b", "%"), (), "q0", "qa", (), blank="b")
    rule = TmRule("qa", "b", "q0", "b", "L")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), (), "q0", "qa", (rule,), blank="b")
    dup = TmRule("q0", "b", "q0", "b", "L")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), (), "q0", "qa", (dup, dup), blank="b")
    bad_move = TmRule("q0", "b", "q0", "b", "X")
    with pytest.raises(ValueError):
        TmSpec(("q0", "qa"), ("b",), (), "q0", "qa", (bad_move,), blank="b")


def test_tm_from_json():
    text = """
    {
      "states": ["q0", "qa"],
      "tape_alphabet": ["1", "_blank"],
      "input_alphabet": ["1"],
      "start": "q0",
      "accept": "qa",
      "delta": [
        {"state": "q0", "read": "1", "next": "qa", "write": "_blank", "move": "L"}
      ]
    }
    """
    spec = tm_from_json(text)
    assert spec == m_one_step()[0]
    with pytest.raises(ValueError):
        tm_from_json("[1, 2]")
    with pytest.raises(ValueError):
        tm_from_json('{"states": ["q0"]}')
    # A string where a list belongs is refused, not split into characters.
    for key in ("states", "tape_alphabet", "input_alphabet", "delta"):
        data = json.loads(text)
        data[key] = "10"
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON list"):
            tm_from_json(json.dumps(data))


def test_simulate_one_step():
    spec, word, space = m_one_step()
    r = simulate_tm(spec, word, space)
    assert r.accepted and r.steps == 1
    assert r.history == ("#", "q0", "1", "#", "qa", "_blank", "#")


def test_simulate_bouncer():
    spec, word, space = m_bouncer(2)
    r = simulate_tm(spec, word, space)
    assert r.accepted and r.steps == 4
    assert r.history == (
        "#", "q0", "1", "b",
        "#", "1", "q0", "b",
        "#", "q1", "1", "b",
        "#", "q1", "b", "b",
        "#", "qa", "b", "b",
        "#",
    )


def test_simulate_halting_flavors():
    spec, word, space = m_loop()
    r = simulate_tm(spec, word, space)
    assert not r.accepted and r.history == ("#", "q0", "b", "#")

    spec, word, space = m_stuck()
    r = simulate_tm(spec, word, space)
    assert not r.accepted and r.steps == 0 and len(r.history) == 4

    spec, word, space = m_edge_fall()
    r = simulate_tm(spec, word, space)
    assert not r.accepted
    assert r.history[-5:] == ("#", "b", "q0", "b", "#")

    spec, word, space = m_dirty_accept()
    r = simulate_tm(spec, word, space)
    assert not r.accepted  # accept state, but head moved and a 1 remains
    assert r.history[-4] == "1" and r.history[-3] == "qa"


def test_simulate_max_steps():
    spec, word, space = m_bouncer(3)
    r = simulate_tm(spec, word, space, max_steps=2)
    assert not r.accepted and r.steps == 2 and not r.complete
    full = simulate_tm(spec, word, space)
    assert full.accepted and full.complete
    # A cap the run reaches only as it accepts leaves it complete.
    assert simulate_tm(spec, word, space, max_steps=full.steps) == full
    assert simulate_tm(spec, word, space, max_steps=full.steps - 1).complete is False


@pytest.mark.parametrize(
    "build, cap",
    [(m_stuck, 0), (m_edge_fall, 1), (m_dirty_accept, 1), (m_loop, 1), (m_one_step, 1)],
)
def test_a_run_that_stops_on_its_own_at_the_cap_is_complete(build, cap):
    # A halt, a fall off the last cell, an accept state or a repeat at the
    # cap ends the run before the cap does.
    spec, word, space = build()
    run = simulate_tm(spec, word, space)
    assert run.steps == cap and run.complete
    assert simulate_tm(spec, word, space, max_steps=cap) == run
    if cap:
        cut = simulate_tm(spec, word, space, max_steps=cap - 1)
        assert not cut.complete and not cut.accepted


def test_simulate_rejects_bad_input():
    spec, _, _ = m_one_step()
    with pytest.raises(ValueError):
        simulate_tm(spec, ("1",), 0)
    with pytest.raises(ValueError):
        simulate_tm(spec, ("1", "1"), 1)
    with pytest.raises(ValueError):
        simulate_tm(spec, ("x",), 1)


def test_encode_accepting_machine_language_is_the_history():
    spec, word, space = m_one_step()
    run = simulate_tm(spec, word, space)
    expr, sigma = encode_tm(spec, word, space)
    assert evaluate(expr, run.history)

    out = find_witness(expr, sigma)
    assert out.verdict is Verdict.FOUND and out.witness == run.history

    fence = Not(Atom(Pattern(tuple(Literal(s) for s in run.history))))
    again = find_witness(and_(expr, fence), sigma)
    assert again.verdict is Verdict.EXHAUSTED_EMPTY


# Explored counts of the counter machine's search, whose sibling atoms
# share class blocks: the scan over the naive class layout.
COUNTER_CLASS_EXPLORED = {3: 374, 4: 906, 5: 1986}


@pytest.mark.parametrize("space, plain_explored", [(3, 394), (4, 958), (5, 2102)])
def test_counter_machine_witness_is_its_history(space, plain_explored):
    # A long run over wide states: 2^space - 1 steps, about 3500 atoms, and
    # no counting family. With one block per atom a state is 36k-43k bits
    # and the scan explores plain_explored states; the search shares class
    # blocks, so its state is 4k-5k bits and it explores fewer.
    spec, word, s = m_counter(space)
    run = simulate_tm(spec, word, s)
    assert run.accepted and run.steps == 2**space - 1
    expr, sigma = encode_tm(spec, word, s)
    out = find_witness(expr, sigma)
    explored = COUNTER_CLASS_EXPLORED[space]
    assert out.verdict is Verdict.FOUND and out.witness == run.history
    assert out.explored == explored
    for layout, count in (
        (naive_packed_masks, plain_explored),
        (naive_class_layout, explored),
    ):
        scan = flat_search_reference(expr, layout([expr], sigma))
        assert scan == (run.history, count, True)


def test_encoded_history_is_fragile():
    spec, word, space = m_bouncer(2)
    run = simulate_tm(spec, word, space)
    expr, _ = encode_tm(spec, word, space)
    assert evaluate(expr, run.history)
    assert not evaluate(expr, run.history[:-1])
    assert not evaluate(expr, run.history + ("#",))
    mangled = list(run.history)
    mangled[10], mangled[11] = mangled[11], mangled[10]
    assert not evaluate(expr, tuple(mangled))


def _order_digest(forbidden):
    return short_digest(render_pattern(p, tokens=True) for p in forbidden)


# (state bits, explored) of the bouncer's search, whose sibling atoms
# share class blocks: the naive class layout and its scan.
BOUNCER_CLASS_PINS = {2: (694, 62), 3: (786, 130), 4: (882, 202)}


@pytest.mark.parametrize(
    "space, atoms, plain_bits, plain_explored, digest",
    [
        (2, 370, 3282, 62, "fbfd59fdbd1a43aa"),
        (3, 382, 3686, 133, "9c823f556078fbd9"),
        (4, 394, 4102, 208, "ad54e3d764591234"),
    ],
)
def test_bouncer_gadget_size_is_pinned(space, atoms, plain_bits, plain_explored, digest):
    spec, word, s = m_bouncer(space)
    expr, sigma = encode_tm(spec, word, s)
    forbidden = [c.child.pattern for c in expr.children]
    assert len(set(forbidden)) == len(forbidden) == atoms
    # Generation order: the too-short texts come first, the accept state's
    # placement last; the digest pins the order of everything in between.
    assert [len(p) for p in forbidden[: s + 3]] == list(range(s + 3))
    assert render_pattern(forbidden[-1], tokens=True) == "% qa % # % # %"
    assert _order_digest(forbidden) == digest
    out = find_witness(expr, sigma)
    assert out.verdict is Verdict.FOUND
    state_bits, explored = BOUNCER_CLASS_PINS[space]
    assert (out.atoms, out.state_bits, out.explored) == (atoms, state_bits, explored)
    # One block per atom gives the plain pins; sibling atoms sharing class
    # blocks give the search's.
    for layout, bits, count in (
        (naive_packed_masks, plain_bits, plain_explored),
        (naive_class_layout, state_bits, explored),
    ):
        laid = layout([expr], sigma)
        assert (laid["atoms"], laid["state_bits"]) == (atoms, bits)
        assert flat_search_reference(expr, laid)[1:] == (count, True)


@pytest.mark.parametrize(
    "build, atoms, digest",
    [
        (lambda: m_counter(3), 3521, "4716bf6aabbc082c"),
        (m_one_step, 180, "c986894fd34ffeb3"),
        (m_loop, 70, "5c63faaf94cb2239"),
        (m_stuck, 180, "daccb84b78b57e5b"),
        (m_edge_fall, 79, "1dad7450bef9ab6b"),
        (m_dirty_accept, 191, "70d3ddbc9dec0043"),
    ],
    ids=["m_counter-3", "m_one_step", "m_loop", "m_stuck", "m_edge_fall", "m_dirty_accept"],
)
def test_machine_gadget_order_is_pinned(build, atoms, digest):
    # The bouncer's order pin, on the other helper machines.
    spec, word, space = build()
    expr, _ = encode_tm(spec, word, space)
    forbidden = [c.child.pattern for c in expr.children]
    assert len(forbidden) == atoms
    assert _order_digest(forbidden) == digest


def _gadget_digest_cases():
    for space in range(1, 9):
        yield f"m_bouncer-{space}", lambda space=space: m_bouncer(space)
    for space in range(2, 7):
        yield f"m_counter-{space}", lambda space=space: m_counter(space)
    for build in (m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept):
        yield build.__name__, build


# The digest of repr(expr) and repr(sigma) for each machine gadget: every
# conjunct, its record types, tokens and place, and the alphabet.
GADGET_DIGESTS = {
    "m_bouncer-1": "9b348cd3f47fbfc8",
    "m_bouncer-2": "ba47e8dcbb230a2c",
    "m_bouncer-3": "38cc5f6bc33134aa",
    "m_bouncer-4": "721f1dc92748b7de",
    "m_bouncer-5": "7181c8ddadf1a6c3",
    "m_bouncer-6": "c7750500b49810d3",
    "m_bouncer-7": "9acbfe7f8b924574",
    "m_bouncer-8": "57c1a5094f4269c4",
    "m_counter-2": "fba51f00dd6357b9",
    "m_counter-3": "a24d2aabab3ee112",
    "m_counter-4": "63e7b056a0cbc9d9",
    "m_counter-5": "2165ae75b5de1de4",
    "m_counter-6": "ee9ca81b9f47565e",
    "m_one_step": "393ba84f838bccdb",
    "m_loop": "4d07d9c411933ba8",
    "m_stuck": "7a55a7288e60d400",
    "m_edge_fall": "e2bb13d151fb0563",
    "m_dirty_accept": "6ed20d887e8f8afe",
}


def test_machine_gadget_output_is_pinned():
    # The whole expression and alphabet, so building the conjuncts in bulk
    # can neither reorder, merge nor drop one.
    got = {}
    for name, build in _gadget_digest_cases():
        expr, sigma = encode_tm(*build())
        got[name] = short_digest([repr(expr), repr(sigma)])
    assert got == GADGET_DIGESTS


@pytest.mark.parametrize(
    "build",
    [m_one_step, m_bouncer, m_loop, m_stuck, m_edge_fall, m_dirty_accept, m_counter, m_wide],
)
def test_forbidden_patterns_are_pairwise_distinct(build):
    # encode_tm keeps no set, so distinctness rests on its rule families,
    # and the read it hands the compile takes its forms as distinct.
    spaces = {m_counter: range(2, 7), m_wide: (1, 2)}.get(build, range(1, 5))
    for space in spaces:
        if build is m_wide:
            spec, word, _ = build(4)
        else:
            spec, word, _ = build(space) if build in (m_bouncer, m_counter) else build()
        if len(word) > space:
            continue
        expr, _ = encode_tm(spec, word, space)
        forbidden = [c.child.pattern for c in expr.children]
        assert len(set(forbidden)) == len(forbidden), space


def test_gadget_token_count_is_the_closed_form():
    # The CLI refuses a machine gadget by this count before building it, so
    # it must be exact: every helper machine at spaces 1-8, and the counter
    # machine at 256 cells, the largest gadget the tests build.
    def built(spec, word, space):
        expr, _ = encode_tm(spec, word, space)
        return sum(len(c.child.pattern.tokens) for c in expr.children)

    others = [m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept]
    for space in range(1, 9):
        runs = [m_bouncer(space), m_counter(space), m_wide(3), *(b() for b in others)]
        for spec, word, _ in runs:
            if len(word) <= space:
                assert built(spec, word, space) == _tm_gadget_tokens(spec, space)
    spec, word, _ = m_counter(256)
    assert built(spec, word, 256) == _tm_gadget_tokens(spec, 256) == 1568554
    # Twenty tape symbols, counted but not built: about 205000 tokens a cell.
    wide = m_wide(20)[0]
    assert [_tm_gadget_tokens(wide, s) for s in (1, 4)] == [1437908, 2054186]


def test_gadget_pattern_count_is_the_closed_form():
    # The CLI refuses a machine gadget by this count too, before building it:
    # every helper machine at spaces 1-8, and the counter machine at 256.
    others = [m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept]
    for space in range(1, 9):
        runs = [m_bouncer(space), m_counter(space), m_wide(3), *(b() for b in others)]
        for spec, word, _ in runs:
            if len(word) <= space:
                expr, _ = encode_tm(spec, word, space)
                assert len(expr.children) == _tm_gadget_patterns(spec, space)
    spec, word, _ = m_counter(256)
    assert len(encode_tm(spec, word, 256)[0].children) == 8581
    assert _tm_gadget_patterns(spec, 256) == 8581
    # Twenty tape symbols at one cell, counted but not built.
    assert _tm_gadget_patterns(m_wide(20)[0], 1) == 205308


@pytest.mark.parametrize("build", [m_loop, m_stuck, m_edge_fall, m_dirty_accept])
def test_encode_non_accepting_machine_language_is_empty(build):
    spec, word, space = build()
    assert not simulate_tm(spec, word, space).accepted
    expr, sigma = encode_tm(spec, word, space)
    out = find_witness(expr, sigma)
    assert out.verdict is Verdict.EXHAUSTED_EMPTY


def test_simulate_runs_are_pinned():
    # Every helper machine at every cap, down to the history's last token:
    # a rewrite of the simulator must reproduce these runs exactly.
    runs = [m_one_step(), m_loop(), m_stuck(), m_edge_fall(), m_dirty_accept()]
    runs += [m_bouncer(space) for space in range(1, 8)]
    runs += [m_counter(space) for space in range(2, 9)]
    caps = (None, 0, 1, 2, 5, 50, 1000)
    results = [simulate_tm(*run, max_steps=cap) for run in runs for cap in caps]
    assert short_digest(map(repr, results)) == "790f9eac5afd2df8"


def test_simulate_holds_each_configuration_once():
    # A configuration is kept as its history block, and the history is
    # those blocks: about 4.2 KiB per step at 256 cells. A snapshot tuple,
    # a token list and a copy of it took 6.3 KiB.
    spec, word, space = m_counter(256)
    steps = 4000
    tracemalloc.start()
    run = simulate_tm(spec, word, space, max_steps=steps)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert run.steps == steps and len(run.history) == 1 + (steps + 1) * (space + 2)
    assert peak <= 4.6 * 1024 * steps, peak / 1024 / steps


def test_simulate_refuses_negative_max_steps():
    spec, word, space = m_bouncer(2)
    with pytest.raises(ValueError, match="max_steps"):
        simulate_tm(spec, word, space, max_steps=-1)
    assert simulate_tm(spec, word, space, max_steps=0).steps == 0


def _gadget_cases():
    for space in range(1, 6):
        yield pytest.param(*m_bouncer(space), id=f"m_bouncer-{space}")
    for build in (m_one_step, m_loop, m_stuck, m_edge_fall, m_dirty_accept):
        spec, word, _ = build()
        for space in range(max(1, len(word)), 6):
            yield pytest.param(spec, word, space, id=f"{build.__name__}-{space}")


GADGET_CASES = list(_gadget_cases())


def _expand_closing_underscores(p, symbols):
    """Every pattern ``p`` names once the ``_`` run just before its final
    ``%`` is spelled out; any other pattern is returned alone."""
    toks = p.tokens
    if not toks or toks[-1] is not ANY_STRING:
        return [p]
    k = len(toks) - 1
    while k > 0 and toks[k - 1] is ANY_ONE:
        k -= 1
    return [
        Pattern(toks[:k] + tuple(Literal(y) for y in fill) + (ANY_STRING,))
        for fill in itertools.product(symbols, repeat=len(toks) - 1 - k)
    ]


@pytest.mark.parametrize("spec, word, space", GADGET_CASES)
def test_split_window_expands_to_the_reference_patterns(spec, word, space):
    expr, sigma = encode_tm(spec, word, space)
    ref, ref_sigma = reference_encode_tm(spec, word, space)
    assert sigma == ref_sigma
    expanded = [
        q
        for c in expr.children
        for q in _expand_closing_underscores(c.child.pattern, sigma.symbols)
    ]
    reference = [c.child.pattern for c in ref.children]
    # Same set, and no wrong triple is forbidden by two pieces.
    assert len(expanded) == len(reference)
    assert set(expanded) == set(reference)


@pytest.mark.parametrize("spec, word, space", GADGET_CASES)
def test_split_gadget_is_equivalent_to_the_reference(spec, word, space):
    expr, sigma = encode_tm(spec, word, space)
    ref, _ = reference_encode_tm(spec, word, space)
    assert find_separating_string(ref, expr, sigma).verdict is Verdict.EXHAUSTED_EQUIVALENT
    out, ref_out = find_witness(expr, sigma), find_witness(ref, sigma)
    assert (out.verdict, out.witness) == (ref_out.verdict, ref_out.witness)
    # Class blocks coarsen the two gadgets' states differently, so the two
    # explore alike only as the scan over the unmerged layout.
    scan = flat_search_reference(expr, naive_packed_masks([expr], sigma))
    ref_scan = flat_search_reference(ref, naive_packed_masks([ref], sigma))
    assert scan == ref_scan == (out.witness, scan[1], True)
    assert out.explored <= scan[1] and ref_out.explored <= scan[1]


@pytest.mark.parametrize("spec, word, space", GADGET_CASES)
def test_split_gadget_evaluates_like_the_reference(spec, word, space):
    expr, sigma = encode_tm(spec, word, space)
    ref, _ = reference_encode_tm(spec, word, space)
    history = simulate_tm(spec, word, space).history
    texts = [history] + [
        history[:i] + (y,) + history[i + 1 :]
        for i in range(len(history))
        for y in sigma.symbols
        if y != history[i]
    ]
    for t in texts:
        assert evaluate(expr, t) == evaluate(ref, t), t
