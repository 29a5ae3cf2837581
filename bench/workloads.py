"""Seeded workloads: their inputs, the timed operations, and the checks.

A workload is a pool of operations built from a seed. One round runs
every operation of the pool once, in an order shuffled per round, so
every round does the same work and its exact counts must repeat.

Each operation has three parts. ``run(tracer)`` is the timed part: it
calls the library through ``tracer.call`` so a traced run can record a
span around each call. ``check(out)`` compares the output with a
reference from ``reference.py`` and returns None or the reason it is
wrong. ``counts(out)`` returns the exact counts the output carries.
Checks and counts run outside the timed part.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import likekit as lk
from likekit import cli

import reference as ref

ROADMAP_ITEM_4 = "truncated search reported as exhausted (ROADMAP item 4)"


class Op:
    __slots__ = ("kind", "run", "check", "counts", "known_defect", "verified")

    def __init__(self, kind, run, check, counts, known_defect=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.counts = counts
        self.known_defect = known_defect
        self.verified = None


class Budget:
    """Marker output: a search stopped at its state budget."""

    def __init__(self, explored):
        self.explored = explored

    def __eq__(self, other):
        return isinstance(other, Budget) and other.explored == self.explored


class Cap:
    """Marker output: a rewrite stopped at its expansion cap."""

    def __eq__(self, other):
        return isinstance(other, Cap)


# --- converting between the reference's tuples and library objects -------------


def lk_pattern(p):
    return lk.Pattern(
        tuple(
            lk.ANY_STRING if t == ref.ANY else lk.ANY_ONE if t == ref.ONE else lk.Literal(t)
            for t in p
        )
    )


def own_pattern(p):
    return tuple(
        ref.ANY if isinstance(t, lk.AnyString) else ref.ONE if isinstance(t, lk.AnyOne) else t.symbol
        for t in p.tokens
    )


def lk_expr(e):
    kind = e[0]
    if kind == "atom":
        return lk.Atom(lk_pattern(e[1]))
    if kind == "not":
        return lk.Not(lk_expr(e[1]))
    parts = [lk_expr(c) for c in e[1]]
    return lk.and_(*parts) if kind == "and" else lk.or_(*parts)


def expr_size(e):
    """(atoms, pattern tokens) of a library expression, duplicates included."""
    stack, n_atoms, n_tokens = [e], 0, 0
    while stack:
        node = stack.pop()
        if isinstance(node, lk.Atom):
            n_atoms += 1
            n_tokens += len(node.pattern.tokens)
        elif isinstance(node, lk.Not):
            stack.append(node.child)
        else:
            stack.extend(node.children)
    return n_atoms, n_tokens


def dnf_ast(clauses):
    """Reference expression for DNF clauses given as (pattern, positive) pairs."""
    return (
        "or",
        tuple(
            ("and", tuple(("atom", p) if pos else ("not", ("atom", p)) for p, pos in clause))
            for clause in clauses
        ),
    )


# --- random inputs ------------------------------------------------------------------


def rand_pattern(rng, syms, lo, hi, p_any=0.25, p_one=0.15):
    out = []
    for _ in range(rng.randint(lo, hi)):
        r = rng.random()
        out.append(ref.ANY if r < p_any else ref.ONE if r < p_any + p_one else rng.choice(syms))
    return tuple(out)


def rand_expr(rng, syms, n_atoms, p_not=0.3, max_tokens=4):
    if n_atoms == 1:
        e = ("atom", rand_pattern(rng, syms, 1, max_tokens))
    else:
        left = rng.randint(1, n_atoms - 1)
        kids = (rand_expr(rng, syms, left, p_not, max_tokens), rand_expr(rng, syms, n_atoms - left, p_not, max_tokens))
        e = (rng.choice(("and", "or")), kids)
    return ("not", e) if rng.random() < p_not else e


def relabel(e, names):
    """The expression with its literal symbols renamed through ``names``."""
    kind = e[0]
    if kind == "atom":
        return ("atom", tuple(names.get(t, t) for t in e[1]))
    if kind == "not":
        return ("not", relabel(e[1], names))
    return (kind, tuple(relabel(c, names) for c in e[1]))


def realize(rng, p, syms, extra):
    """A text the pattern matches, with ``extra`` symbols spread over its ``%``s."""
    slots = sum(1 for t in p if t == ref.ANY)
    fill = [0] * slots
    for _ in range(extra if slots else 0):
        fill[rng.randrange(slots)] += 1
    out, k = [], 0
    for t in p:
        if t == ref.ANY:
            out.extend(rng.choice(syms) for _ in range(fill[k]))
            k += 1
        else:
            out.append(rng.choice(syms) if t == ref.ONE else t)
    return tuple(out)


# --- match_scan ------------------------------------------------------------------------


def _equals_check(expected_fn):
    cache = []

    def check(out):
        if not cache:
            cache.append(expected_fn())
        return None if out == cache[0] else f"got {out!r}, reference says {cache[0]!r}"

    return check


def _match_op(p, text, kind="match"):
    lp = lk_pattern(p)
    counts = {"matcher.calls": 1, "matcher.symbols_scanned": len(text)}
    return Op(
        kind,
        lambda tr: tr.call("matcher.match_greedy", lk.match_greedy, lp, text),
        _equals_check(lambda: ref.dp_match(p, text)),
        lambda out: counts,
    )


# Shapes of the reused patterns: L is a literal drawn from the seed, and
# _ and % are wildcards. Fixing the shapes and the text lengths keeps the
# work per round the same for every seed.
REUSED_SHAPES = ("LL%L_L%", "%LLL%L%", "L_%LL%L%", "%L_L%LL_%", "LL%LLL%L_L%", "%LL_LL%LLL%L%")


def build_match_scan(rng, warm=False):
    syms = "abcd"
    ops = []
    reused = [tuple(rng.choice(syms) if t == "L" else t for t in shape) for shape in REUSED_SHAPES]
    # Three in four short texts are built to match; the rest are random and
    # mostly fail early. The pool's median latency then falls among the
    # full matches instead of on the edge between the two groups.
    for i in range(4 if warm else 80):
        p = reused[i % len(reused)]
        n = 10 + (7 * i) % 21
        if i % 4 != 3:
            text = realize(rng, p, syms, max(0, n - len(p)))
        else:
            text = tuple(rng.choice(syms) for _ in range(n))
        ops.append(_match_op(p, text))

    # Long texts, with their sizes and the place of the planted parts fixed,
    # so that only their content depends on the seed. Chance occurrences of
    # a planted part elsewhere are broken up: the greedy scan then stops at
    # the same places for every seed.
    def plant(n, placed, absent=()):
        text = [rng.choice(syms) for _ in range(n)]
        kept = set()
        for at, part in placed:
            text[at:at + len(part)] = part
            kept.update(range(at, at + len(part)))
        starts = {at for at, _ in placed}
        parts = list(dict.fromkeys([part for _, part in placed] + list(absent)))
        changed = True
        while changed:
            changed = False
            for part in parts:
                needle = "".join(part)
                at = "".join(text).find(needle)
                while at >= 0:
                    free = [k for k in range(at, at + len(part)) if k not in kept]
                    if at not in starts and free:
                        k = free[0]
                        text[k] = rng.choice([c for c in syms if c != text[k]])
                        changed = True
                        at = "".join(text).find(needle, max(0, k - len(part) + 1))
                    else:
                        at = "".join(text).find(needle, at + 1)
        return text

    def lit(n):
        return tuple(rng.choice(syms) for _ in range(n))

    scale = 100 if warm else 1
    a = lit(13)
    n1 = 10_000 // scale
    t1 = plant(n1, [(n1 - len(a) - 100 // scale, a)])
    b, c = lit(8), lit(5)
    n2 = 30_000 // scale
    t2 = plant(n2, [(n2 // 2, b), (n2 - 6, c)])
    d = lit(13)
    t3 = plant(100_000 // scale, [], absent=[d])
    e1, e2 = lit(6), lit(6)
    n4 = 100_000 // scale
    t4 = plant(n4, [(n4 * 2 // 5, e1), (n4 - n4 // 20, e2)])
    long_cases = [
        ((ref.ANY,) + a + (ref.ANY,), t1),
        ((ref.ANY,) + b + (ref.ANY,) + c + (ref.ONE,), t2),
        ((ref.ANY,) + d + (ref.ANY,), t3),
        ((t4[0], ref.ANY) + e1 + (ref.ANY,) + e2 + (ref.ANY,), t4),
    ]
    for p, text in long_cases[: 1 if warm else 4]:
        ops.append(_match_op(p, tuple(text), "match.long"))

    for _ in range(1 if warm else 16):
        p = rand_pattern(rng, syms, 3, 16, p_any=0.3, p_one=0.25)
        src = "".join(p)
        ops.append(
            Op(
                "parse",
                lambda tr, src=src: tr.call("pattern.parse_pattern", lk.parse_pattern, src),
                _pattern_check(p),
                lambda out: {"pattern.parse_calls": 1},
            )
        )

    for _ in range(1 if warm else 16):
        p = rand_pattern(rng, syms, 3, 16, p_any=0.3, p_one=0.25)
        lp = lk_pattern(p)

        def run(tr, lp=lp):
            q = tr.call("normalize.normalize", lk.normalize, lp)
            return tr.call("pattern.render_pattern", lk.render_pattern, q)

        ops.append(
            Op(
                "normalize",
                run,
                _equals_check(lambda p=p: "".join(ref.normal_form(p))),
                lambda out: {"normalize.calls": 1, "pattern.render_calls": 1},
            )
        )

    for _ in range(1 if warm else 24):
        k = rng.randint(2, 4)
        pats = [rng.choice(reused) if rng.random() < 0.5 else rand_pattern(rng, syms, 2, 8) for _ in range(k)]
        e = ("atom", pats[0])
        for p in pats[1:]:
            e = (rng.choice(("and", "or")), (e, ("not", ("atom", p)) if rng.random() < 0.3 else ("atom", p)))
        n = rng.randint(10, 30)
        text = realize(rng, pats[0], syms, max(0, n - len(pats[0])))
        le = lk_expr(e)
        ops.append(
            Op(
                "evaluate",
                lambda tr, le=le, text=text: tr.call("expression.evaluate", lk.evaluate, le, text),
                _equals_check(lambda e=e, text=text: ref.eval_on_text(e, text)),
                lambda out: {"expression.evaluate_calls": 1},
            )
        )
    return ops


def _pattern_check(p):
    def check(out):
        got = own_pattern(out)
        return None if got == p else f"parsed {got!r}, reference says {p!r}"

    return check


# --- decide_small ---------------------------------------------------------------------

# Longest text the bounded enumeration tries, by alphabet size: about a
# thousand texts each.
ENUM_LEN = {2: 9, 3: 6, 4: 5}
DNF_ENUM_LEN = {2: 6, 3: 4}
DNF_CAP = lk.DEFAULT_EXPANSION_CAP


def _search_check(found_ref, holds, complete_verdict):
    """Check a search outcome against bounded enumeration.

    ``found_ref()`` gives the first text in shortest-then-alphabet order
    within the enumeration bound, or None. A found text must be exactly
    that one; without one, the search may report ``complete_verdict`` or
    a longer text on which ``holds`` is true."""
    cache = []

    def check(out):
        if not cache:
            cache.append(found_ref())
        want = cache[0]
        if isinstance(out, Budget):
            return "state budget exceeded on a small decision"
        if want is not None:
            if out.verdict is lk.Verdict.FOUND and out.witness == want:
                return None
            return f"got {out.verdict.value} {out.witness!r}, reference finds {want!r}"
        if out.verdict is complete_verdict:
            return None
        if out.verdict is lk.Verdict.FOUND and holds(out.witness):
            return None
        return f"got {out.verdict.value} {out.witness!r}, reference finds none"

    return check


def _search_counts(exprs, out):
    n_atoms = n_tokens = 0
    for e in exprs:
        a, t = expr_size(e)
        n_atoms += a
        n_tokens += t
    return {
        "automata.searches": 1,
        "automata.explored_states": out.explored,
        "automata.budget_exceeded": int(isinstance(out, Budget)),
        "automata.atoms": n_atoms,
        "automata.tokens": n_tokens,
    }


def _witness_op(e, syms):
    src = ref.source(e)
    sigma = lk.Alphabet.from_chars(syms)
    parsed = []

    def run(tr):
        le = tr.call("expression.parse_expression", lk.parse_expression, src)
        parsed[:] = [le]
        return tr.call("automata.find_witness", lk.find_witness, le, sigma)

    def counts(out):
        c = _search_counts(parsed, out)
        c["expression.parse_calls"] = 1
        return c

    return Op(
        "witness",
        run,
        _search_check(
            lambda: ref.shortest_witness(e, syms, ENUM_LEN[len(syms)]),
            lambda w: ref.eval_on_text(e, w),
            lk.Verdict.EXHAUSTED_EMPTY,
        ),
        counts,
    )


def _separate_op(e1, e2, syms):
    s1, s2 = ref.source(e1), ref.source(e2)
    sigma = lk.Alphabet.from_chars(syms)
    parsed = []

    def run(tr):
        a = tr.call("expression.parse_expression", lk.parse_expression, s1)
        b = tr.call("expression.parse_expression", lk.parse_expression, s2)
        parsed[:] = [a, b]
        return tr.call("automata.find_separating_string", lk.find_separating_string, a, b, sigma)

    def counts(out):
        c = _search_counts(parsed, out)
        c["expression.parse_calls"] = 2
        return c

    return Op(
        "separate",
        run,
        _search_check(
            lambda: ref.shortest_separator(e1, e2, syms, ENUM_LEN[len(syms)]),
            lambda w: ref.eval_on_text(e1, w) != ref.eval_on_text(e2, w),
            lk.Verdict.EXHAUSTED_EQUIVALENT,
        ),
        counts,
    )


def _dnf_valid(e, syms, clauses):
    if any(t == ref.ONE for clause in clauses for p, _ in clause for t in p):
        return "a DNF atom still holds _"
    bad = ref.first_text([e, dnf_ast(clauses)], syms, DNF_ENUM_LEN[len(syms)], lambda v: v[0] != v[1])
    return None if bad is None else f"DNF disagrees with the expression on {bad!r}"


def _dnf_op(e, syms, may_cap):
    src = ref.source(e)
    sigma = lk.Alphabet.from_chars(syms)

    def run(tr):
        le = tr.call("expression.parse_expression", lk.parse_expression, src)
        try:
            dnf = tr.call("expression.to_dot_depth1_dnf", lk.to_dot_depth1_dnf, le, sigma)
        except lk.ExplosionCapError:
            return Cap()
        return [
            [(tr.call("pattern.render_pattern", lk.render_pattern, sa.pattern), sa.positive) for sa in clause]
            for clause in dnf.clauses
        ]

    def check(out):
        if isinstance(out, Cap):
            return None if may_cap else "expansion cap hit on a small rewrite"
        return _dnf_valid(e, syms, [[(tuple(p), pos) for p, pos in c] for c in out])

    def counts(out):
        n = 0 if isinstance(out, Cap) else sum(len(c) for c in out)
        return {
            "expression.parse_calls": 1,
            "expression.dnf_calls": 1,
            "expression.dnf_cap_hits": int(isinstance(out, Cap)),
            "expression.dnf_atoms_out": n,
            "pattern.render_calls": n,
        }

    return Op("dnf.cap" if may_cap else "dnf", run, check, counts)


def _cli_op(kind, argv, check, known_defect=None):
    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = tr.call("cli.dispatch", cli.dispatch, argv)
        return rc, out.getvalue()

    return Op(kind, run, check, lambda out: {"cli.dispatch_calls": 1}, known_defect)


def _cli_search_check(ref_text, holds, found_rc, empty_rc, bounded_ok=False):
    """Check a ``nonempty``/``equiv`` JSON report; ``ref_text`` as in _search_check."""
    cache = []

    def check(out):
        rc, stdout = out
        if bounded_ok and rc == 3:
            return None
        if not cache:
            cache.append(ref_text())
        want = cache[0]
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"exit {rc} with no JSON report"
        witness = tuple(report["witness"]) if report.get("witness") is not None else None
        if report.get("verdict") == "found":
            ok = rc == found_rc and (witness == want if want is not None and not bounded_ok else holds(witness))
            return None if ok else f"exit {rc}, witness {witness!r}, reference finds {want!r}"
        if bounded_ok:
            return f"exit {rc}, verdict {report.get('verdict')!r} below the shortest separator"
        if want is None and rc == empty_rc:
            return None
        return f"exit {rc}, verdict {report.get('verdict')!r}, reference finds {want!r}"

    return check


def build_decide_small(rng, warm=False):
    ops = []
    # The searches' expressions come from a fixed generator, and the seed
    # renames their symbols. A search's cost follows the expression, not
    # the names, so every seed gets the same mix of costs and the median
    # latency stays put between seeds; which symbol the search tries first
    # still changes with the seed.
    shape = random.Random("decide_small searches")

    def alphabet(k):
        return "0123"[:k]

    def renamed(syms, *exprs):
        names = dict(zip(syms, rng.sample(syms, len(syms))))
        return [relabel(e, names) for e in exprs]

    for _ in range(1 if warm else 20):
        syms = alphabet(shape.randint(2, 4))
        ops.append(_witness_op(*renamed(syms, rand_expr(shape, syms, shape.randint(2, 6))), syms))

    # The substring-order pair: equivalent over two symbols, separated by
    # 0 2 1 over three. Both answers are pinned in the reference self-test.
    pair = (("atom", tuple("%01%")), ("atom", tuple("%0%1%")))
    ops.append(_separate_op(*pair, "01"))
    ops.append(_separate_op(*pair, "012"))
    for i in range(0 if warm else 12):
        syms = alphabet(shape.randint(2, 4))
        e1 = rand_expr(shape, syms, shape.randint(1, 3))
        family = i % 4
        if family == 0:  # De Morgan: equivalent
            e1 = ("and", (e1, rand_expr(shape, syms, shape.randint(1, 2))))
            e2 = ("or", tuple(("not", c) for c in e1[1]))
            e1 = ("not", e1)
        elif family == 1:  # %_ and _% swap: equivalent
            p = rand_pattern(shape, syms, 1, 3) + (ref.ANY, ref.ONE) + rand_pattern(shape, syms, 0, 2)
            e1 = ("and", (e1, ("atom", p)))
            e2 = ("and", (e1[1][0], ("atom", ref.normal_form(p))))
        elif family == 2:  # substring order over a random alphabet
            x, y = shape.sample(syms, 2)
            e1 = ("atom", (ref.ANY, x, y, ref.ANY))
            e2 = ("atom", (ref.ANY, x, ref.ANY, y, ref.ANY))
        else:  # an unrelated random expression
            e2 = rand_expr(shape, syms, shape.randint(1, 3))
        ops.append(_separate_op(*renamed(syms, e1, e2), syms))

    for _ in range(1 if warm else 6):
        syms = alphabet(rng.randint(2, 3))
        ops.append(_dnf_op(_small_dnf_input(rng, syms, 4), syms, may_cap=False))
    # Rewrites past the cap, all of one shape so that the work done before
    # the cap fires is the same for every seed: an AND of three ORs of two
    # atoms with two _ each, 18 x 18 x 18 clauses of 3 atoms over 012.
    for _ in range(0 if warm else 2):
        syms = "012"
        ors = [
            ("or", tuple(("atom", (rng.choice(syms), rng.choice(syms), ref.ONE, ref.ONE, ref.ANY)) for _ in range(2)))
            for _ in range(3)
        ]
        e = ("and", tuple(ors))
        assert ref.dnf_size(e, len(syms))[1] >= 2 * DNF_CAP
        ops.append(_dnf_op(e, syms, may_cap=True))

    for _ in range(1 if warm else 4):
        syms = alphabet(rng.randint(2, 4))
        e = rand_expr(rng, syms, rng.randint(2, 5))
        ops.append(
            _cli_op(
                "cli.nonempty",
                ["nonempty", "--expr", ref.source(e), "--alphabet", syms, "--json"],
                _cli_search_check(
                    lambda e=e, syms=syms: ref.shortest_witness(e, syms, ENUM_LEN[len(syms)]),
                    lambda w, e=e: w is not None and ref.eval_on_text(e, w),
                    0,
                    1,
                ),
            )
        )
    for _ in range(0 if warm else 4):
        syms = alphabet(rng.randint(2, 4))
        e1 = rand_expr(rng, syms, rng.randint(1, 3))
        e2 = rand_expr(rng, syms, rng.randint(1, 3)) if rng.random() < 0.5 else ("not", ("not", e1))
        ops.append(_cli_equiv_op(e1, e2, syms))
    for _ in range(0 if warm else 3):
        syms = alphabet(rng.randint(2, 3))
        e = _small_dnf_input(rng, syms, 3)

        def check(out, e=e, syms=syms):
            rc, stdout = out
            if rc != 0:
                return f"dnf exit {rc}"
            clauses = [[(tuple(a["pattern"]), a["positive"]) for a in c] for c in json.loads(stdout)["clauses"]]
            return _dnf_valid(e, syms, clauses)

        ops.append(_cli_op("cli.dnf", ["dnf", "--expr", ref.source(e), "--alphabet", syms, "--json"], check))

    if warm:
        return ops
    # Searches cut by --max-len below the shortest separator, which has
    # three symbols. The first is the pinned case; the others draw their
    # symbols from the seed.
    defects = [("0", "1", "012", 2)]
    for _ in range(2):
        syms = alphabet(rng.randint(3, 4))
        x, y = rng.sample(syms, 2)
        defects.append((x, y, syms, rng.randint(1, 2)))
    for x, y, syms, max_len in defects:
        e1 = ("atom", (ref.ANY, x, y, ref.ANY))
        e2 = ("atom", (ref.ANY, x, ref.ANY, y, ref.ANY))
        ops.append(_cli_equiv_op(e1, e2, syms, max_len))
    return ops


def _small_dnf_input(rng, syms, max_atoms):
    """A random expression whose DNF stays far below the expansion cap."""
    while True:
        e = rand_expr(rng, syms, rng.randint(2, max_atoms))
        if ref.dnf_size(e, len(syms))[1] <= DNF_CAP // 16:
            return e


def _cli_equiv_op(e1, e2, syms, max_len=None):
    argv = ["equiv", "--e1", ref.source(e1), "--e2", ref.source(e2), "--alphabet", syms, "--json"]
    if max_len is not None:
        argv += ["--max-len", str(max_len)]
    return _cli_op(
        "cli.equiv" if max_len is None else "cli.equiv.max_len",
        argv,
        _cli_search_check(
            lambda: ref.shortest_separator(e1, e2, syms, ENUM_LEN[len(syms)]),
            lambda w: w is not None and ref.eval_on_text(e1, w) != ref.eval_on_text(e2, w),
            1,
            0,
            bounded_ok=max_len is not None,
        ),
        ROADMAP_ITEM_4 if max_len is not None else None,
    )


# --- sat_search -------------------------------------------------------------------------

# (variables, satisfiable, formulas). The median latency must fall inside
# a group of like operations, not on the edge between two: an
# unsatisfiable 5-variable search costs about 1.4 times a satisfiable one.
# So the 5-variable formulas are all unsatisfiable, and as many operations
# are cheaper (the 4-variable ones and the budget-capped one) as dearer
# (the 6-variable ones); the nine formulas of the middle group average out
# how the cost of a search state varies between formulas.
SAT_POOL = ((4, True, 1), (4, False, 1), (5, False, 9), (6, True, 2), (6, False, 1))
SAT_TIGHT_BUDGET = 1000


def _rand_cnf(rng, n, want_sat):
    m = round(4.3 * n)
    while True:
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(m)
        )
        if bool(ref.satisfying_assignments(n, clauses)) == want_sat:
            return clauses


def _sat_op(n, clauses, budget=None):
    formula = lk.Cnf(n, clauses)
    kwargs = {} if budget is None else {"budget": budget}
    made = []

    def run(tr):
        expr, sigma = tr.call("reductions.encode_3sat", lk.encode_3sat, formula)
        made[:] = [expr]
        try:
            return tr.call("automata.find_witness", lk.find_witness, expr, sigma, **kwargs)
        except lk.SearchBudgetExceeded as exc:
            return Budget(exc.explored)

    cache = []

    def check(out):
        if not cache:
            cache.append(ref.sat_witness(n, clauses))
        want = cache[0]
        if isinstance(out, Budget):
            return None if budget is not None else "default state budget exceeded"
        if want is None:
            return None if out.verdict is lk.Verdict.EXHAUSTED_EMPTY else f"unsatisfiable, got {out.witness!r}"
        return None if out.witness == want else f"got {out.witness!r}, reference says {want!r}"

    def counts(out):
        c = _search_counts(made, out)
        a, t = expr_size(made[0])
        c.update({"reductions.encode_calls": 1, "reductions.atoms_out": a, "reductions.tokens_out": t})
        return c

    return Op(f"sat.n{n}" + ("" if budget is None else ".budget"), run, check, counts)


def build_sat_search(rng, warm=False):
    if warm:
        return [_sat_op(3, _rand_cnf(rng, 3, True))]
    ops = [_sat_op(n, _rand_cnf(rng, n, sat)) for n, sat, count in SAT_POOL for _ in range(count)]
    ops.append(_sat_op(6, _rand_cnf(rng, 6, False), budget=SAT_TIGHT_BUDGET))
    return ops


# --- tm_history ---------------------------------------------------------------------------

TM_HISTORY_SPACES = (2, 3, 4)
TM_FENCE_SPACES = (2,)


def _bouncer(rng):
    """The bouncer machine under seeded names; the symbol order stays fixed."""
    words: list[str] = []
    while len(words) < 5:
        word = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        if word not in words:
            words.append(word)
    n = names = dict(zip(("one", "blank", "q0", "q1", "qa"), words))
    spec = lk.TmSpec(
        states=(n["q0"], n["q1"], n["qa"]),
        tape_alphabet=(n["one"], n["blank"]),
        input_alphabet=(n["one"],),
        start=n["q0"],
        accept=n["qa"],
        rules=(
            lk.TmRule(n["q0"], n["one"], n["q0"], n["one"], "R"),
            lk.TmRule(n["q0"], n["blank"], n["q1"], n["blank"], "L"),
            lk.TmRule(n["q1"], n["one"], n["q1"], n["blank"], "L"),
            lk.TmRule(n["q1"], n["blank"], n["qa"], n["blank"], "L"),
        ),
        blank=n["blank"],
    )
    return spec, names


def _tm_op(spec, names, space, fenced):
    ones = space - 1
    word = (names["one"],) * ones
    history = ref.bouncer_history(space, ones, names)
    fence = lk.Not(lk.Atom(lk.Pattern(tuple(lk.Literal(s) for s in history))))
    made = []

    def run(tr):
        expr, sigma = tr.call("reductions.encode_tm", lk.encode_tm, spec, word, space)
        made[:] = [expr]
        if fenced:
            expr = lk.and_(expr, fence)
        return tr.call("automata.find_witness", lk.find_witness, expr, sigma)

    def check(out):
        if fenced:
            return None if out.verdict is lk.Verdict.EXHAUSTED_EMPTY else f"second witness {out.witness!r}"
        return None if out.witness == history else f"witness {out.witness!r} is not the run history"

    def counts(out):
        a, t = expr_size(made[0])
        c = _search_counts([lk.and_(made[0], fence)] if fenced else made, out)
        c.update({"reductions.encode_calls": 1, "reductions.atoms_out": a, "reductions.tokens_out": t})
        return c

    return Op(f"tm.{'fence' if fenced else 'history'}.s{space}", run, check, counts)


def build_tm_history(rng, warm=False):
    spec, names = _bouncer(rng)
    if warm:
        return [_tm_op(spec, names, 1, False)]
    ops = [_tm_op(spec, names, s, False) for s in TM_HISTORY_SPACES]
    ops += [_tm_op(spec, names, s, True) for s in TM_FENCE_SPACES]
    return ops


WORKLOADS = {
    "match_scan": build_match_scan,
    "decide_small": build_decide_small,
    "sat_search": build_sat_search,
    "tm_history": build_tm_history,
}
