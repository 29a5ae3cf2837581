"""The package's immutable records: patterns, alphabets, expression nodes,
search outcomes and the gadgets' formulas and machines.

Each record is pinned on what callers can see: constructor keywords and
defaults, ``__match_args__``, repr text, equality only within one class,
hashing, immutability, and pickle, ``copy`` and ``deepcopy`` round trips
that rebuild the derived slots (``Alphabet._index``, ``TmSpec.delta``) or
drop them (the machine gadget's read).
"""

import copy
import pickle
from operator import attrgetter

import pytest

from likekit import (
    ANY_ONE,
    ANY_STRING,
    Alphabet,
    And,
    Atom,
    Cnf,
    Dnf,
    Literal,
    Not,
    Or,
    Pattern,
    SearchOutcome,
    SignedAtom,
    TmRule,
    TmRunResult,
    TmSpec,
    Verdict,
    and_,
    atom_patterns,
    encode_tm,
    evaluate,
    expression_size,
    find_witness,
    render_expression,
    simulate_tm,
)
from likekit.automata import _CompiledSearch
from likekit.expression import _Gate
from likekit.pattern import _Record

from helpers import m_bouncer

P_REPR = "Pattern(tokens=(Literal(symbol='a'), AnyString(), AnyOne()))"
RULE_REPR = "TmRule(state='q0', read='1', next='qa', write='_blank', move='L')"


def _pattern() -> Pattern:
    return Pattern((Literal("a"), ANY_STRING, ANY_ONE))


def _rule() -> TmRule:
    return TmRule("q0", "1", "qa", "_blank", "L")


def _spec() -> TmSpec:
    return TmSpec(("q0", "qa"), ("1", "_blank"), ("1",), "q0", "qa", (_rule(),))


# name -> (builder, repr, __match_args__). Each call of a builder makes
# fresh objects all the way down.
RECORDS = {
    "Pattern": (_pattern, P_REPR, ("tokens",)),
    "Alphabet": (
        lambda: Alphabet(("a", "bc")),
        "Alphabet(symbols=('a', 'bc'))",
        ("symbols",),
    ),
    "Atom": (lambda: Atom(_pattern()), f"Atom(pattern={P_REPR})", ("pattern",)),
    "Not": (
        lambda: Not(Atom(_pattern())),
        f"Not(child=Atom(pattern={P_REPR}))",
        ("child",),
    ),
    "And": (
        lambda: And((Atom(_pattern()), Not(Atom(_pattern())))),
        f"And(children=(Atom(pattern={P_REPR}), Not(child=Atom(pattern={P_REPR}))))",
        ("children",),
    ),
    "Or": (
        lambda: Or((Atom(_pattern()), Not(Atom(_pattern())))),
        f"Or(children=(Atom(pattern={P_REPR}), Not(child=Atom(pattern={P_REPR}))))",
        ("children",),
    ),
    "SignedAtom": (
        lambda: SignedAtom(_pattern(), False),
        f"SignedAtom(pattern={P_REPR}, positive=False)",
        ("pattern", "positive"),
    ),
    "Dnf": (
        lambda: Dnf(((SignedAtom(_pattern(), True),), (SignedAtom(_pattern(), False),))),
        f"Dnf(clauses=((SignedAtom(pattern={P_REPR}, positive=True),),"
        f" (SignedAtom(pattern={P_REPR}, positive=False),)))",
        ("clauses",),
    ),
    "SearchOutcome": (
        lambda: SearchOutcome(Verdict.FOUND, ("a",), 3, True, 1, 4),
        "SearchOutcome(verdict=<Verdict.FOUND: 'found'>, witness=('a',),"
        " explored=3, complete=True, atoms=1, state_bits=4)",
        ("verdict", "witness", "explored", "complete", "atoms", "state_bits"),
    ),
    "Cnf": (
        lambda: Cnf(2, ((1, -2, 2),)),
        "Cnf(n_vars=2, clauses=((1, -2, 2),))",
        ("n_vars", "clauses"),
    ),
    "TmRule": (_rule, RULE_REPR, ("state", "read", "next", "write", "move")),
    "TmSpec": (
        _spec,
        "TmSpec(states=('q0', 'qa'), tape_alphabet=('1', '_blank'),"
        " input_alphabet=('1',), start='q0', accept='qa',"
        f" rules=({RULE_REPR},), blank='_blank')",
        ("states", "tape_alphabet", "input_alphabet", "start", "accept", "rules", "blank"),
    ),
    "TmRunResult": (
        lambda: TmRunResult(True, ("#", "q0", "1", "#"), 1),
        "TmRunResult(accepted=True, history=('#', 'q0', '1', '#'), steps=1, complete=True)",
        ("accepted", "history", "steps", "complete"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_and_match_args_are_pinned(name):
    build, text, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert type(record).__match_args__ == fields


@pytest.mark.parametrize("name", RECORDS)
def test_records_built_apart_are_equal_and_hash_alike(name):
    build = RECORDS[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a != repr(a)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_have_no_dict(name):
    record = RECORDS[name][0]()
    fields = type(record).__match_args__
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_copy_and_deepcopy_round_trips(name):
    record = RECORDS[name][0]()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(record, proto)) for proto in protocols]
    clones += [copy.copy(record), copy.deepcopy(record)]
    for clone in clones:
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


def test_same_fields_in_another_class_are_unequal():
    a, b = Atom(_pattern()), Not(Atom(_pattern()))
    assert And((a, b)) != Or((a, b))
    assert Atom(_pattern()) != SignedAtom(_pattern(), True)
    assert Not(Atom(_pattern())) != Atom(_pattern())
    assert _pattern() != _pattern().tokens
    assert Alphabet(("a",)) != ("a",)


def test_derived_slots_are_rebuilt_and_kept_out_of_comparison():
    sigma = Alphabet(("a", "bc"))
    assert "_index" not in Alphabet.__match_args__
    assert "_index" not in repr(sigma)
    for clone in (pickle.loads(pickle.dumps(sigma)), copy.copy(sigma), copy.deepcopy(sigma)):
        assert clone._index == {"a": 0, "bc": 1}
        assert "bc" in clone and "b" not in clone
    spec = _spec()
    assert "delta" not in TmSpec.__match_args__
    assert "delta" not in repr(spec)
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert clone.delta == spec.delta == {("q0", "1"): _rule()}
    assert copy.deepcopy(spec).delta is not spec.delta


def test_machine_gadget_read_is_kept_out_of_the_record():
    # encode_tm hands the search compile a read of the And it returns, in a
    # slot outside the fields: the gadget is the And of its children in
    # every way a caller can see, and a copy or pickle drops the read and
    # compiles afresh to the same layout. The gadget holds only its read
    # until its children are first read; then they are built once, as the
    # negated atoms of the read's forms, whichever reader comes first.
    spec, word, space = m_bouncer(3)

    def deferred():
        expr, _ = encode_tm(spec, word, space)
        with pytest.raises(AttributeError):
            _Gate.children.__get__(expr)
        return expr

    expr, sigma = encode_tm(spec, word, space)
    eager = And(tuple(Not(Atom(Pattern(f))) for f in expr._read.forms))
    assert expr._read is not None and eager._read is None
    assert deferred() == eager and eager == deferred()
    assert hash(deferred()) == hash(eager) and repr(deferred()) == repr(eager)
    assert render_expression(deferred(), tokens=True) == render_expression(eager, tokens=True)
    assert "_read" not in And.__match_args__ and "_read" not in repr(expr)
    history = simulate_tm(spec, word, space).history
    fence = Not(Atom(Pattern(tuple(map(Literal, history)))))
    assert and_(deferred(), fence).children == and_(eager, fence).children
    assert list(atom_patterns(deferred())) == list(atom_patterns(eager))
    assert expression_size(deferred()) == expression_size(eager)
    assert find_witness(deferred(), sigma) == find_witness(eager, sigma)
    # The run's history satisfies the gadget, and no text one symbol away does.
    texts = [history] + [
        history[:i] + (y,) + history[i + 1 :]
        for i in range(len(history))
        for y in sigma.symbols
        if y != history[i]
    ]
    gadget = deferred()
    assert [evaluate(gadget, t) for t in texts] == [evaluate(eager, t) for t in texts]
    assert evaluate(eager, history) and not any(evaluate(eager, t) for t in texts[1:])
    gadget = deferred()
    assert gadget.children is gadget.children
    layout = attrgetter("moves", "gaps", "initial", "state_bits", "atoms", "_bounds")
    want = layout(_CompiledSearch([expr], sigma))
    for clone in (
        pickle.loads(pickle.dumps(deferred())),
        copy.copy(deferred()),
        copy.deepcopy(deferred()),
    ):
        assert clone == eager and clone._read is None
        assert layout(_CompiledSearch([clone], sigma)) == want
    # Fenced by and_, the gadget hands its read on, and the new gate holds
    # only that read too: it is and_(eager, fence) in every way a caller can
    # see, keeps the fence itself as its last child, and a search over
    # sigma builds the records of neither gate.
    gadget = deferred()
    fenced = and_(gadget, fence)
    assert fenced._read is not None
    find_witness(fenced, sigma)
    for gate in (fenced, gadget):
        with pytest.raises(AttributeError):
            _Gate.children.__get__(gate)
    fenced_eager = and_(eager, fence)
    assert fenced_eager._read is None
    assert and_(deferred(), fence) == fenced_eager and fenced_eager == and_(deferred(), fence)
    assert hash(and_(deferred(), fence)) == hash(fenced_eager)
    assert repr(and_(deferred(), fence)) == repr(fenced_eager)
    assert render_expression(and_(deferred(), fence), tokens=True) == render_expression(
        fenced_eager, tokens=True
    )
    assert and_(deferred(), fence).children[-1] is fence
    for clone in (
        pickle.loads(pickle.dumps(and_(deferred(), fence))),
        copy.copy(and_(deferred(), fence)),
        copy.deepcopy(and_(deferred(), fence)),
    ):
        assert clone == fenced_eager and clone._read is None


def test_only_and_hooks_attribute_reads():
    # And's __getattr__ builds the machine gadget's children on first read.
    # A class that defines __getattr__ (or __getattribute__) gets no
    # specialised slot reads in CPython 3.11: a .children read in a loop
    # takes 49-51 ns on And against 18-19 ns on Or, and with the hook on
    # _Gate every Or would pay it. So no other record of the package may
    # define one.
    records, todo = [], [_Record]
    while todo:
        cls = todo.pop()
        records.append(cls)
        todo.extend(cls.__subclasses__())
    records = [cls for cls in records if cls.__module__.startswith("likekit.")]
    assert {And, Or, Atom, Not, Pattern, Literal, TmSpec} <= set(records)
    hooked = [
        cls
        for cls in records
        if {"__getattr__", "__getattribute__"} & vars(cls).keys()
    ]
    assert hooked == [And]


def test_keyword_construction_and_defaults():
    assert Pattern() == Pattern(tokens=()) and Pattern().tokens == ()
    assert Pattern(tokens=[ANY_ONE]).tokens == (ANY_ONE,)
    assert Alphabet(symbols=["a", "b"]).symbols == ("a", "b")
    assert Atom(pattern=_pattern()) == Atom(_pattern())
    assert Not(child=Atom(_pattern())) == Not(Atom(_pattern()))
    assert And(children=[Atom(_pattern()), Atom(_pattern())]).children == (Atom(_pattern()),) * 2
    assert SignedAtom(pattern=_pattern(), positive=True) == SignedAtom(_pattern(), True)
    assert Dnf(clauses=()) == Dnf(())
    outcome = SearchOutcome(
        verdict=Verdict.EXHAUSTED_EMPTY, witness=None, explored=5, complete=False
    )
    assert (outcome.atoms, outcome.state_bits) == (0, 0)
    assert outcome == SearchOutcome(Verdict.EXHAUSTED_EMPTY, None, 5, False, 0, 0)
    assert Cnf(n_vars=1, clauses=[[1, 1, -1]]).clauses == ((1, 1, -1),)
    rule = TmRule(state="q0", read="1", next="qa", write="_blank", move="L")
    assert rule == _rule()
    spec = TmSpec(
        states=["q0", "qa"],
        tape_alphabet=["1", "_blank"],
        input_alphabet=["1"],
        start="q0",
        accept="qa",
        rules=[rule],
    )
    assert spec.blank == "_blank" and spec == _spec()
    assert spec.states == ("q0", "qa") and spec.rules == (rule,)
    other = TmSpec(("q0", "qa"), ("1", "b"), ("1",), "q0", "qa", (), blank="b")
    assert other.blank == "b" and other != spec
    assert TmRunResult(accepted=False, history=(), steps=0).steps == 0


def test_records_destructure_in_match_statements():
    match Not(Atom(_pattern())):
        case Not(Atom(Pattern(tokens))):
            assert tokens == _pattern().tokens
        case _:
            pytest.fail("Not(Atom(Pattern)) did not match")
    match SearchOutcome(Verdict.FOUND, ("a",), 3, True):
        case SearchOutcome(Verdict.FOUND, witness, _, True, atoms, bits):
            assert (witness, atoms, bits) == (("a",), 0, 0)
        case _:
            pytest.fail("SearchOutcome did not match")
    match _spec():
        case TmSpec(_, _, _, start, accept, (TmRule(_, _, nxt, _, "L"),), blank):
            assert (start, accept, nxt, blank) == ("q0", "qa", "qa", "_blank")
        case _:
            pytest.fail("TmSpec did not match")


def test_records_nested_400_deep_hash_compare_repr_and_pickle():
    # hash, ==, repr and pickle each recurse through the nodes, about two
    # frames a level, so 400 levels fit the default limit of 1000.
    deep, twin = Atom(_pattern()), Atom(_pattern())
    for _ in range(400):
        deep, twin = Not(deep), Not(twin)
    assert deep == twin and hash(deep) == hash(twin)
    assert repr(deep) == "Not(child=" * 400 + f"Atom(pattern={P_REPR})" + ")" * 400
    assert pickle.loads(pickle.dumps(deep)) == deep
