"""Seeded fuzzing of the command line, in process.

Argument vectors come from the CLI grammar, valid and broken: bad escapes,
empty or duplicate alphabets, undecodable or missing files, malformed
DIMACS and machine JSON, negative or non-numeric limits, missing and
unknown flags. Every run must exit 0-3 with no exception escaping
``dispatch`` (the console entry point would print it as a traceback), and
every search must report what the library call on the same input reports.

Sizes past their ceilings are drawn too: huge ``reduce tm`` and ``simulate
tm`` ``--space`` values, ``reduce majority`` ``--n`` values above 2000000,
DIMACS headers declaring more than 10000 variables and counter-machine runs
longer than 10000 steps must exit 3.
"""

import json
import random

from likekit import (
    Alphabet,
    SearchBudgetExceeded,
    find_separating_string,
    find_witness,
    parse_expression,
)
from likekit.cli import dispatch

from helpers import m_counter, machine_json

BOUNCER = {
    "states": ["q0", "q1", "qa"],
    "tape_alphabet": ["1", "_blank"],
    "input_alphabet": ["1"],
    "start": "q0",
    "accept": "qa",
    "delta": [
        {"state": "q0", "read": "1", "next": "q0", "write": "1", "move": "R"},
        {"state": "q0", "read": "_blank", "next": "q1", "write": "_blank", "move": "L"},
        {"state": "q1", "read": "1", "next": "q1", "write": "_blank", "move": "L"},
        {"state": "q1", "read": "_blank", "next": "qa", "write": "_blank", "move": "L"},
    ],
}

FILES = {
    "alphabet": "a\nb\n",
    "alphabet_empty": "",
    "alphabet_duplicate": "a\nb\na\n",
    "alphabet_space": "a b\n",
    "cnf": "c two variables\np cnf 2 2\n1 2 -1 0\n-2 -1 2 0\n",
    "cnf_unsat": "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n",
    "cnf_two_literals": "p cnf 2 1\n1 2 0\n",
    "cnf_out_of_range": "p cnf 2 1\n1 2 3 0\n",
    "cnf_no_header": "1 2 -1 0\n",
    "cnf_bad_header": "p cnf x 1\n1 2 -1 0\n",
    "cnf_no_variables": "p cnf 0 0\n",
    "cnf_count": "p cnf 2 2\n1 2 -1 0\n",
    "cnf_unterminated": "p cnf 2 1\n1 2 -1\n",
    "cnf_word": "p cnf 2 1\n1 a 2 0\n",
    "machine": json.dumps(BOUNCER),
    "machine_truncated": json.dumps(BOUNCER)[:40],
    "machine_list": "[]",
    "machine_no_delta": json.dumps({k: v for k, v in BOUNCER.items() if k != "delta"}),
    "machine_number_states": json.dumps({**BOUNCER, "states": [1, 2]}),
    "machine_list_start": json.dumps({**BOUNCER, "start": ["q0"]}),
    "machine_bad_move": json.dumps(
        {**BOUNCER, "delta": [{**BOUNCER["delta"][0], "move": "U"}]}
    ),
    "machine_rule_number": json.dumps({**BOUNCER, "delta": [1]}),
    "machine_deep": "[" * 5000,
    # Counts to 2^space in binary: past the run ceiling from 14 cells on.
    "counter": machine_json(m_counter(4)[0]),
}
UNDECODABLE = b"\xff\xfe\x00\x81"

LIMITS = ("0", "1", "2", "3", "5", "40")
BROKEN_LIMITS = ("-1", "x", "1.5", "")


def _pattern(rng, tokens):
    """A pattern over a, b, z and both wildcards, in either surface syntax."""
    toks = [rng.choice("abz%_") for _ in range(rng.randint(0, 4))]
    return " ".join(toks) if tokens else "".join(toks)


def _expr(rng, tokens, depth=0):
    r = rng.random()
    if depth > 2 or r < 0.45:
        return f'LIKE "{_pattern(rng, tokens)}"'
    if r < 0.6:
        return "NOT " + _expr(rng, tokens, depth + 1)
    op = rng.choice((" AND ", " OR "))
    return f"({_expr(rng, tokens, depth + 1)}{op}{_expr(rng, tokens, depth + 1)})"


def _garble(rng, s):
    """Insert or delete one character, or append a stray token."""
    r = rng.random()
    if r < 0.4 and s:
        i = rng.randrange(len(s))
        return s[:i] + s[i + 1 :]
    if r < 0.8:
        i = rng.randrange(len(s) + 1)
        return s[:i] + rng.choice('()"\\!%_ ') + s[i:]
    return s + rng.choice((" AND", " OR (", ' LIKE "a', " NOT", " )", "\\"))


def _common(rng, argv, syntax=True):
    """Add ``--json``, and with ``syntax`` the surface-syntax options; returns
    (tokens, escape). The draws are the same either way, so the cases that
    follow do not depend on which subcommand came first."""
    tokens = rng.random() < 0.25
    if tokens and syntax:
        argv.append("--tokens")
    if rng.random() < 0.5:
        argv.append("--json")
    escape = None
    r = rng.random()
    if r < 0.2:
        escape = "!"
    elif r < 0.25:
        escape = rng.choice(("%", "_", "", "!!"))
    if escape is not None and syntax:
        argv += ["--escape", escape]
    return tokens, escape


def _alphabet(rng, argv, path, tokens, good):
    """Add an alphabet option; returns its symbols when it is well formed
    and inline, and None otherwise."""
    if not good:
        if rng.random() < 0.5:
            argv += ["--alphabet", rng.choice(("", "aa", "a a" if tokens else "a b"))]
        else:
            argv += ["--alphabet-file", path(rng.choice(ALPHABET_FILES))]
        return None
    if rng.random() < 0.2:
        argv += ["--alphabet-file", path("alphabet")]
        return None
    symbols = rng.choice(("ab", "ba", "abz", "a"))
    argv += ["--alphabet", " ".join(symbols) if tokens else symbols]
    return tuple(symbols)


def _search_case(rng, path):
    """equiv or nonempty, with the library's expected code and report when
    the alphabet is inline."""
    good = rng.random() < 0.8
    equiv = rng.random() < 0.5
    argv = ["equiv" if equiv else "nonempty"]
    tokens, escape = _common(rng, argv)
    exprs = [_expr(rng, tokens) for _ in range(2 if equiv else 1)]
    if not good and rng.random() < 0.5:
        i = rng.randrange(len(exprs))
        exprs[i] = _garble(rng, exprs[i])
    flags = ("--e1", "--e2") if equiv else ("--expr",)
    for flag, e in zip(flags, exprs):
        argv += [flag, e]
    symbols = _alphabet(rng, argv, path, tokens, good or rng.random() < 0.5)
    budget = max_len = None
    if rng.random() < 0.5:
        budget = rng.choice(LIMITS if good else LIMITS + BROKEN_LIMITS)
        argv += ["--budget", budget]
    if rng.random() < 0.5:
        max_len = rng.choice(LIMITS if good else LIMITS + BROKEN_LIMITS)
        argv += ["--max-len", max_len]
    if symbols is None or budget in BROKEN_LIMITS or max_len in BROKEN_LIMITS:
        return argv, None

    def expect():
        kwargs = {"max_len": None if max_len is None else int(max_len)}
        if budget is not None:
            kwargs["budget"] = int(budget)
        search = find_separating_string if equiv else find_witness
        try:
            parsed = [parse_expression(e, escape, tokens) for e in exprs]
            out = search(*parsed, Alphabet(symbols), **kwargs)
        except SearchBudgetExceeded:
            return 3, None
        except ValueError:
            return 2, None
        found = 1 if equiv else 0
        if out.witness is not None:
            code = found
        else:
            code = 3 if not out.complete else 1 - found
        report = {
            "verdict": out.verdict.value,
            "witness": None if out.witness is None else list(out.witness),
            "explored": out.explored,
            "complete": out.complete,
            "atoms": out.atoms,
            "state_bits": out.state_bits,
        }
        return code, report

    return argv, expect


SUBCOMMANDS = {
    "match": ["match"],
    "normalize": ["normalize"],
    "eval": ["eval"],
    "dnf": ["dnf"],
    "to-regex": ["to-regex"],
    "3sat": ["reduce", "3sat"],
    "majority": ["reduce", "majority"],
    "tm": ["reduce", "tm"],
    "simulate": ["simulate", "tm"],
}
GADGETS = ("3sat", "majority", "tm", "simulate")
BAD_PATHS = ("missing", "undecodable", "dir")
CNF_FILES = [n for n in FILES if n.startswith("cnf")] + list(BAD_PATHS)
MACHINE_FILES = [n for n in FILES if n.startswith("machine")] + list(BAD_PATHS)
ALPHABET_FILES = [n for n in FILES if n.startswith("alphabet")] + list(BAD_PATHS)


def _other_case(rng, path):
    """Any other subcommand, its inputs well formed or not."""
    good = rng.random() < 0.6
    kind = rng.choice(list(SUBCOMMANDS))
    argv = list(SUBCOMMANDS[kind])
    tokens, _ = _common(rng, argv, syntax=kind not in GADGETS)
    limits = LIMITS if good else LIMITS + BROKEN_LIMITS
    if kind in ("match", "normalize", "to-regex"):
        pattern = _pattern(rng, tokens)
        argv += ["--pattern", pattern if good else _garble(rng, pattern)]
    if kind in ("eval", "dnf"):
        expr = _expr(rng, tokens)
        argv += ["--expr", expr if good else _garble(rng, expr)]
    if kind in ("match", "eval"):
        argv += ["--text", _pattern(rng, tokens).replace("%", "a").replace("_", "b")]
    if kind in ("dnf", "to-regex") or (kind == "match" and rng.random() < 0.3):
        _alphabet(rng, argv, path, tokens, good)
    if kind == "dnf" and rng.random() < 0.5:
        argv += ["--cap", rng.choice(limits)]
    if kind == "3sat":
        argv += ["--dimacs", path("cnf" if good else rng.choice(CNF_FILES))]
    if kind == "majority":
        argv += ["--n", rng.choice(limits)]
    if kind in ("tm", "simulate"):
        argv += ["--machine", path("machine" if good else rng.choice(MACHINE_FILES))]
        argv += ["--input", rng.choice(("", "1", "1 1", "1 x"))]
        spaces = ("1", "2", "3") if good else ("0", "2", "-1", "x")
        argv += ["--space", rng.choice(spaces)]
    if kind == "simulate" and rng.random() < 0.5:
        argv += ["--max-steps", rng.choice(limits)]
    if kind in ("3sat", "tm") and rng.random() < 0.3:
        argv += ["--alphabet-out", path(rng.choice(("out", "dir", "no/such/out")))]
    return argv


def _ceiling_case(rng, path, write):
    """A size past its ceiling, which must exit 3: a huge ``--space`` for
    ``reduce tm`` or ``simulate tm``, a huge ``--n`` for ``reduce majority``
    or a DIMACS header declaring more than 10000 variables, all refused
    before anything is built, or a ``simulate tm`` run of the counter
    machine that the run ceiling stops."""
    kind = rng.choice(("tm", "simulate", "3sat", "majority", "run"))
    argv = list(SUBCOMMANDS["simulate" if kind == "run" else kind])
    _common(rng, argv, syntax=False)
    past = rng.choice((1, 10**3, 10**6, 10**12, 10**40)) + rng.randrange(1000)
    if kind == "run":
        space = rng.randint(14, 40)
        argv += ["--machine", path("counter"), "--space", str(space)]
        argv += ["--input", " ".join(["s"] + ["0"] * (space - 2) + ["e"])]
        if rng.random() < 0.5:
            argv += ["--max-steps", str(10_000 + past)]
    elif kind == "3sat":
        name = f"huge_{past}.cnf"
        write(name, f"p cnf {10_000 + past} 1\n1 2 -1 0\n")
        argv += ["--dimacs", path(name)]
    elif kind == "majority":
        argv += ["--n", str(2_000_000 + past)]
    else:
        argv += ["--machine", path("machine"), "--space", str(256 + past)]
        argv += ["--input", rng.choice(("", "1", "1 1", "1 x"))]
    if kind == "simulate" and rng.random() < 0.5:
        argv += ["--max-steps", rng.choice(LIMITS)]
    if kind in ("3sat", "tm") and rng.random() < 0.3:
        argv += ["--alphabet-out", path("out")]
    return argv


def _broken_argv(rng, path):
    """Usage errors: a dropped argument, an unknown flag, no subcommand."""
    argv = _search_case(rng, path)[0] if rng.random() < 0.5 else _other_case(rng, path)
    r = rng.random()
    if r < 0.4 and len(argv) > 1:
        del argv[rng.randrange(1, len(argv))]
    elif r < 0.7:
        flag = rng.choice(("--bogus", "-x", "--budget", "--help"))
        argv.insert(rng.randrange(len(argv) + 1), flag)
    else:
        argv = rng.choice(([], ["reduce"], ["simulate"], ["frobnicate"], ["--json"]))
    return argv


def _file_sweep(path):
    """Every file once, in the subcommands that read it."""
    for name in CNF_FILES:
        yield ["reduce", "3sat", "--dimacs", path(name)]
    for name in MACHINE_FILES:
        for cmd in (["reduce", "tm"], ["simulate", "tm"]):
            yield [*cmd, "--machine", path(name), "--input", "1", "--space", "2"]
    for name in ALPHABET_FILES:
        yield ["nonempty", "--expr", 'LIKE "a%"', "--alphabet-file", path(name)]


def test_cli_fuzz(tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "undecodable").write_bytes(UNDECODABLE)
    (tmp_path / "dir").mkdir()

    def path(name):
        return str(tmp_path / name)

    def write(name, text):
        (tmp_path / name).write_text(text)

    rng = random.Random(31337)
    cases = [(argv, None) for argv in _file_sweep(path)]
    for _ in range(400):
        r = rng.random()
        if r < 0.45:
            cases.append(_search_case(rng, path))
        else:
            make = _other_case if r < 0.9 else _broken_argv
            cases.append((make(rng, path), None))
    # Drawn from their own stream, so the cases above stay as they were.
    rng = random.Random(27182)
    for _ in range(60):
        cases.append((_ceiling_case(rng, path, write), lambda: (3, None)))

    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    checked = 0
    for argv, expect in cases:
        code = dispatch(argv)
        out, err = capsys.readouterr()
        assert code in codes, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] += 1
        if expect is None:
            continue
        want_code, want_report = expect()
        assert code == want_code, (argv, code, want_code, err)
        if want_report is not None and "--json" in argv:
            report = json.loads(out)
            del report["elapsed_ms"]
            assert report == want_report, argv
        checked += 1
    # The grammar reaches every exit code, and most searches are compared.
    assert all(codes.values()), codes
    assert checked > 100, checked
