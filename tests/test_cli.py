import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import likekit
from likekit import parse_expression
from likekit.expression import MAX_NESTING
from likekit.cli import _MAX_TM_PATTERNS, _MAX_TM_TOKENS, _build_parser, dispatch
from likekit.reductions import _tm_gadget_patterns, _tm_gadget_tokens

from helpers import (
    m_bouncer,
    m_counter,
    m_dirty_accept,
    m_edge_fall,
    m_loop,
    m_one_step,
    m_stuck,
    m_wide,
    machine_json,
    short_digest,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_positive(capsys):
    code, out, _ = run(capsys, "match", "--pattern", "%ab%", "--text", "xxaby")
    assert code == 0 and out.strip() == "match"


def test_match_negative(capsys):
    code, out, _ = run(capsys, "match", "--pattern", "%ab%", "--text", "xxay")
    assert code == 1 and out.strip() == "no match"


def test_match_json(capsys):
    code, out, _ = run(capsys, "match", "--json", "--pattern", "a_c", "--text", "abc")
    assert code == 0 and json.loads(out) == {"matched": True}


def test_match_with_escape(capsys):
    code, out, _ = run(
        capsys, "match", "--escape", "!", "--pattern", "a!%b", "--text", "a%b"
    )
    assert code == 0


def test_match_tokens_mode(capsys):
    code, _, _ = run(
        capsys, "match", "--tokens", "--pattern", "# q0 %", "--text", "# q0 x y"
    )
    assert code == 0


def test_match_checks_alphabet(capsys):
    code, out, _ = run(
        capsys, "match", "--pattern", "%0%1%", "--text", "021", "--alphabet", "012"
    )
    assert code == 0 and out.strip() == "match"
    code, _, err = run(
        capsys, "match", "--pattern", "%0%1%", "--text", "03", "--alphabet", "012"
    )
    assert code == 2 and "alphabet" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--pattern", "_%_%_")
    assert code == 0 and out.strip() == "___%"


def test_eval(capsys):
    code, out, _ = run(
        capsys, "eval", "--expr", 'LIKE "%a%" AND NOT LIKE "a"', "--text", "aa"
    )
    assert code == 0 and out.strip() == "match"
    code, _, _ = run(
        capsys, "eval", "--expr", 'LIKE "%a%" AND NOT LIKE "a"', "--text", "a"
    )
    assert code == 1


def test_dnf(capsys):
    code, out, _ = run(capsys, "dnf", "--alphabet", "01", "--expr", 'LIKE "_"')
    assert code == 0
    back = parse_expression(out.strip())
    rendered = out.strip()
    assert rendered == 'LIKE "0" OR LIKE "1"'
    assert back is not None


def test_dnf_json(capsys):
    code, out, _ = run(
        capsys, "dnf", "--alphabet", "01", "--json", "--expr", 'NOT LIKE "_%"'
    )
    assert code == 0
    data = json.loads(out)
    assert data["clauses"] == [
        [
            {"pattern": "0%", "positive": False},
            {"pattern": "1%", "positive": False},
        ]
    ]


def test_dnf_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "dnf", "--alphabet", "01", "--cap", "4", "--expr", 'LIKE "___"'
    )
    assert code == 3 and "error" in err


def test_dnf_cap_on_a_huge_count_exit_code(capsys):
    expr = 'LIKE "' + "_" * 15000 + '"'
    code, out, err = run(capsys, "dnf", "--alphabet", "ab", "--expr", expr)
    assert code == 3 and not out
    assert "at least 2^15000 atoms" in err and "Traceback" not in err


def test_equiv_equivalent(capsys):
    code, out, _ = run(
        capsys, "equiv", "--alphabet", "01", "--e1", 'LIKE "%_"', "--e2", 'LIKE "_%"'
    )
    assert code == 0 and out.strip() == "EQUIVALENT"


def test_equiv_different(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--alphabet",
        "012",
        "--e1",
        'LIKE "%01%"',
        "--e2",
        'LIKE "%0%1%"',
    )
    assert code == 1 and out.strip() == "DIFFERENT: 021"


def test_equiv_json_report(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--alphabet",
        "012",
        "--json",
        "--e1",
        'LIKE "%01%"',
        "--e2",
        'LIKE "%0%1%"',
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "found"
    assert data["witness"] == ["0", "2", "1"]
    assert data["explored"] > 0
    assert data["elapsed_ms"] >= 0


def test_search_json_keys(capsys):
    code, out, _ = run(
        capsys, "nonempty", "--json", "--alphabet", "ab", "--expr", 'LIKE "%b%"'
    )
    assert code == 0
    data = json.loads(out)
    old_keys = {"verdict", "witness", "explored", "elapsed_ms"}
    assert set(data) == old_keys | {"complete", "atoms", "state_bits"}
    assert (data["verdict"], data["witness"]) == ("found", ["b"])
    assert data["complete"] is True
    assert (data["atoms"], data["state_bits"]) == (1, 4)


def test_search_cut_by_max_len_is_bounded(capsys):
    argv = ["equiv", "--alphabet", "012", "--e1", 'LIKE "%01%"', "--e2", 'LIKE "%0%1%"']
    code, out, _ = run(capsys, *argv, "--max-len", "2")
    assert code == 3 and out.strip() == "bounded"
    code, out, _ = run(capsys, *argv, "--max-len", "2", "--json")
    data = json.loads(out)
    assert code == 3 and data["complete"] is False
    assert data["verdict"] == "exhausted-equivalent" and data["witness"] is None
    code, out, _ = run(capsys, *argv, "--max-len", "3")
    assert code == 1 and out.strip() == "DIFFERENT: 021"

    argv = ["nonempty", "--alphabet", "ab", "--expr", 'NOT LIKE "a%" AND LIKE "%a%"']
    code, out, _ = run(capsys, *argv, "--max-len", "1")
    assert code == 3 and out.strip() == "bounded"
    # Every one-symbol text is decided, so a cap of 1 proves emptiness.
    argv = ["nonempty", "--alphabet", "ab", "--expr", 'LIKE "a" AND LIKE "b"']
    code, out, _ = run(capsys, *argv, "--max-len", "1")
    assert code == 1 and out.strip() == "empty"


def test_search_cut_by_max_len_proves_emptiness_when_no_later_symbol_helps(capsys):
    # Three members, one of a or d, of b or e and of c or f, read in
    # alphabet order, and two bound conjuncts %a% and %d%, both held by the
    # first member. Every one-symbol text dies: a or d settles that member
    # and leaves the other conjunct with no holder, and after b, c, e or f
    # the conjunct on a has no holder in a later column. So a cap of 1 cuts
    # no live state. Counting a holder in any column kept b and c alive,
    # and the same cap printed "bounded".
    expr = (
        'LIKE "___" AND (LIKE "%a%" OR LIKE "%d%") AND (LIKE "%b%" OR LIKE "%e%")'
        ' AND (LIKE "%c%" OR LIKE "%f%") AND LIKE "%a%" AND LIKE "%d%"'
    )
    argv = ["nonempty", "--alphabet", "abcdef", "--expr", expr]
    code, out, _ = run(capsys, *argv, "--max-len", "1")
    assert code == 1 and out.strip() == "empty"
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.strip() == "empty"


def test_negative_search_limits_are_usage_errors(capsys):
    for flag in ("--max-len", "--budget"):
        code, out, err = run(
            capsys, "nonempty", "--alphabet", "ab", flag, "-1", "--expr", 'LIKE "%"'
        )
        assert code == 2 and out == "" and flag in err


def test_nonempty_witness(capsys):
    code, out, _ = run(capsys, "nonempty", "--alphabet", "ab", "--expr", 'LIKE "%b%"')
    assert code == 0 and out.strip() == "b"


def test_nonempty_empty(capsys):
    code, out, _ = run(
        capsys, "nonempty", "--alphabet", "ab", "--expr", 'LIKE "a" AND LIKE "b"'
    )
    assert code == 1 and out.strip() == "empty"


def test_nonempty_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "nonempty", "--alphabet", "ab", "--budget", "2", "--expr", 'LIKE "bbbb"'
    )
    assert code == 3 and "budget" in err


def test_zero_budget_exit_code(capsys):
    argv = ["--alphabet", "a", "--budget", "0"]
    for cmd in (
        ["equiv", "--e1", 'LIKE "%"', "--e2", 'LIKE "%"'],
        ["nonempty", "--expr", 'LIKE "%"'],
    ):
        code, out, err = run(capsys, *cmd, *argv)
        assert code == 3 and out == "" and "after exploring 0 states" in err


def test_alphabet_file(tmp_path, capsys):
    path = tmp_path / "sigma.txt"
    path.write_text("x1\n~x1\n")
    code, out, _ = run(
        capsys,
        "nonempty",
        "--alphabet-file",
        str(path),
        "--tokens",
        "--expr",
        'LIKE "% ~x1 %"',
    )
    assert code == 0 and out.strip() == "~x1"


def test_character_mode_refuses_a_longer_alphabet_file_symbol(tmp_path, capsys):
    # A witness "ab" would read back as the two symbols a and b.
    path = tmp_path / "sigma.txt"
    path.write_text("ab\nc\n")
    sigma = ("--alphabet-file", str(path))
    for cmd in (
        ["nonempty", "--expr", 'LIKE "_"'],
        ["equiv", "--e1", 'LIKE "_"', "--e2", 'LIKE "c"'],
        ["match", "--pattern", "_", "--text", "ab"],
        ["dnf", "--expr", 'LIKE "_"'],
    ):
        code, out, err = run(capsys, *cmd, *sigma)
        assert code == 2 and out == "" and "--tokens" in err, cmd
    code, out, _ = run(capsys, "nonempty", "--tokens", "--expr", 'LIKE "_"', *sigma)
    assert code == 0 and out.strip() == "ab"


def test_match_checks_a_large_alphabet_in_linear_time(tmp_path, capsys):
    # Each text symbol is looked up in the alphabet. A scan of the symbol
    # tuple per lookup took about 1.6 s here; a set lookup takes a few ms.
    path = tmp_path / "sigma.txt"
    symbols = [f"s{i}" for i in range(20000)]
    path.write_text("\n".join(symbols))
    match = ("match", "--tokens", "--alphabet-file", str(path), "--pattern", "%")
    text = " ".join(symbols[-5000:])
    started = time.perf_counter()
    code, out, _ = run(capsys, *match, "--text", text)
    elapsed = time.perf_counter() - started
    assert code == 0 and out.strip() == "match"
    assert elapsed < 0.5, elapsed
    code, out, err = run(capsys, *match, "--text", text + " t0")
    assert code == 2 and out == "" and "'t0' not in the alphabet" in err


def test_reduce_majority(capsys):
    code, out, _ = run(capsys, "reduce", "majority", "--n", "3")
    assert code == 0 and out.strip() == "%1%1%"


def test_reduce_3sat(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 -2 0\n")
    sigma_out = tmp_path / "sigma.txt"
    code, out, _ = run(
        capsys, "reduce", "3sat", "--dimacs", str(cnf), "--alphabet-out", str(sigma_out)
    )
    assert code == 0
    assert sigma_out.read_text().splitlines() == ["x1", "x2", "~x1", "~x2"]
    expr = parse_expression(out.strip(), tokens=True)
    assert expr is not None
    assert '"_ _"' in out


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 2 -1\n",
        "1 -2 -2 0\np cnf 2 1\n",
        "p cnf 2 1\np cnf 2 1\n1 -2 -2 0\n",
    ],
)
def test_reduce_3sat_refuses_a_bad_problem_line(tmp_path, capsys, text):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    code, out, err = run(capsys, "reduce", "3sat", "--dimacs", str(cnf))
    assert code == 2 and out == "" and "problem line" in err


@pytest.mark.parametrize("token", ["1_0", "+1", "٣"])
def test_reduce_3sat_refuses_a_number_that_is_not_ascii_digits(tmp_path, capsys, token):
    # Python's int() reads each of these; DIMACS does not.
    for text in (f"p cnf {token} 1\n1 1 1 0\n", f"p cnf 3 1\n{token} 2 3 0\n"):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "reduce", "3sat", "--dimacs", str(cnf))
        assert code == 2 and out == "" and repr(token) in err, text


def test_simulate_tm(tmp_path, capsys):
    machine = tmp_path / "m.json"
    machine.write_text(
        json.dumps(
            {
                "states": ["q0", "qa"],
                "tape_alphabet": ["1", "_blank"],
                "input_alphabet": ["1"],
                "start": "q0",
                "accept": "qa",
                "delta": [
                    {
                        "state": "q0",
                        "read": "1",
                        "next": "qa",
                        "write": "_blank",
                        "move": "L",
                    }
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "simulate", "tm", "--machine", str(machine), "--input", "1", "--space", "1"
    )
    assert code == 0
    assert out.strip() == "# q0 1 # qa _blank #"

    code, out, _ = run(
        capsys, "simulate", "tm", "--machine", str(machine), "--space", "1"
    )
    assert code == 1 and out.strip() == "REJECT"

    code, out, _ = run(
        capsys,
        "simulate",
        "tm",
        "--machine",
        str(machine),
        "--space",
        "1",
        "--json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["accepted"] is False and data["history"][0] == "#"


def test_reduce_tm_round_trip(tmp_path, capsys):
    machine = tmp_path / "m.json"
    machine.write_text(
        json.dumps(
            {
                "states": ["q0", "qa"],
                "tape_alphabet": ["1", "_blank"],
                "input_alphabet": ["1"],
                "start": "q0",
                "accept": "qa",
                "delta": [
                    {
                        "state": "q0",
                        "read": "1",
                        "next": "qa",
                        "write": "_blank",
                        "move": "L",
                    }
                ],
            }
        )
    )
    sigma_out = tmp_path / "sigma.txt"
    code, out, _ = run(
        capsys,
        "reduce",
        "tm",
        "--machine",
        str(machine),
        "--input",
        "1",
        "--space",
        "1",
        "--alphabet-out",
        str(sigma_out),
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["alphabet"] == ["1", "_blank", "q0", "qa", "#"]
    expr = parse_expression(data["expression"], tokens=True)
    assert expr is not None


# Reads the single 1, blanks it and accepts, at any tape size.
ONE_STEP_MACHINE = {
    "states": ["q0", "qa"],
    "tape_alphabet": ["1", "_blank"],
    "input_alphabet": ["1"],
    "start": "q0",
    "accept": "qa",
    "delta": [
        {"state": "q0", "read": "1", "next": "qa", "write": "_blank", "move": "L"}
    ],
}


def test_gadget_size_ceilings_fire_before_the_gadget_is_built(tmp_path, capsys):
    # A 20-byte header declaring 10^7 variables would ask for about 10 GB.
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 10000000 0\n")
    tracemalloc.start()
    started = time.perf_counter()
    code, out, err = run(capsys, "reduce", "3sat", "--dimacs", str(cnf))
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and out == "" and "10000000" in err and "ceiling" in err
    assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
    # At the ceilings the gadgets are built.
    cnf.write_text("p cnf 10000 0\n")
    assert run(capsys, "reduce", "3sat", "--dimacs", str(cnf))[0] == 0
    machine = tmp_path / "m.json"
    machine.write_text(json.dumps(ONE_STEP_MACHINE))
    reduce_tm = ("reduce", "tm", "--machine", str(machine), "--input", "1", "--space")
    code, out, err = run(capsys, *reduce_tm, "257")
    assert code == 3 and out == "" and "--space 257" in err
    code, out, err = run(capsys, *reduce_tm, str(10**12))
    assert code == 3 and out == ""
    assert run(capsys, *reduce_tm, "256")[0] == 0


def test_machine_gadget_token_ceiling_fires_before_the_gadget_is_built(
    tmp_path, capsys
):
    # The gadget grows with the fourth power of the machine's alphabet: with
    # 20 tape symbols, about 205000 tokens a cell, some 54 million at 256
    # cells, 34 times the counter machine's gadget there.
    machine = tmp_path / "wide.json"
    machine.write_text(machine_json(m_wide(20)[0]))
    reduce_tm = ("reduce", "tm", "--machine", str(machine), "--input", "", "--space")
    tracemalloc.start()
    started = time.perf_counter()
    code, out, err = run(capsys, *reduce_tm, "256")
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    count = _tm_gadget_tokens(m_wide(20)[0], 256)
    assert code == 3 and out == "" and "ceiling" in err
    assert f"token count {count} " in err
    assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
    # Every helper machine's gadget stays under the ceiling at 256 cells.
    machines = [m_bouncer(256), m_counter(256), m_one_step(), m_loop(), m_stuck()]
    machines += [m_edge_fall(), m_dirty_accept()]
    for spec, _, _ in machines:
        assert _tm_gadget_tokens(spec, 256) <= _MAX_TM_TOKENS, spec


def test_machine_gadget_pattern_ceiling_fires_before_the_gadget_is_built(
    tmp_path, capsys
):
    # Under the token ceiling at one cell, 20 tape symbols still give 205308
    # short patterns, each with its records: 97 MB max RSS unchecked.
    wide = m_wide(20)[0]
    machine = tmp_path / "wide.json"
    machine.write_text(machine_json(wide))
    reduce_tm = ("reduce", "tm", "--machine", str(machine), "--input", "", "--space")
    assert _tm_gadget_tokens(wide, 1) <= _MAX_TM_TOKENS
    tracemalloc.start()
    started = time.perf_counter()
    code, out, err = run(capsys, *reduce_tm, "1")
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and out == "" and "ceiling" in err
    assert f"pattern count {_tm_gadget_patterns(wide, 1)} " in err
    assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
    # The counter machine at 256 cells, every other helper machine there,
    # and 13 tape symbols at one cell stay under the ceiling.
    machines = [m_bouncer(256), m_counter(256), m_one_step(), m_loop(), m_stuck()]
    machines += [m_edge_fall(), m_dirty_accept()]
    for spec, _, _ in machines:
        assert _tm_gadget_patterns(spec, 256) <= _MAX_TM_PATTERNS, spec
    assert _tm_gadget_patterns(m_counter(256)[0], 256) == 8581
    assert _tm_gadget_patterns(m_wide(13)[0], 1) == 41914 <= _MAX_TM_PATTERNS
    machine.write_text(machine_json(m_wide(3)[0]))
    assert run(capsys, *reduce_tm, "1")[0] == 0


def test_simulate_space_ceiling_fires_before_the_tape_is_built(tmp_path, capsys):
    # Unchecked, a --space of 10^6 allocated 128 MB of tape and
    # configurations before any limit fired.
    machine = tmp_path / "m.json"
    machine.write_text(json.dumps(ONE_STEP_MACHINE))
    simulate = ("simulate", "tm", "--machine", str(machine), "--input", "1", "--space")
    tracemalloc.start()
    started = time.perf_counter()
    code, out, err = run(capsys, *simulate, str(10**12))
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and out == "" and f"--space {10**12}" in err and "ceiling" in err
    assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
    code, out, err = run(capsys, *simulate, "257")
    assert code == 3 and out == "" and "--space 257" in err
    # At the ceiling the run happens: it blanks the 1 and accepts.
    code, out, _ = run(capsys, *simulate, "256", "--json")
    assert code == 0 and json.loads(out)["accepted"]


def test_simulate_cut_by_max_steps_is_bounded(tmp_path, capsys):
    # The counter machine accepts "s 0 0 e" in four cells after 15 steps.
    machine = tmp_path / "counter.json"
    machine.write_text(machine_json(m_counter(4)[0]))
    argv = ("simulate", "tm", "--machine", str(machine), "--input", "s 0 0 e", "--space", "4")
    code, out, err = run(capsys, *argv, "--max-steps", "2")
    assert (code, out, err) == (3, "bounded\n", "")
    code, out, _ = run(capsys, *argv, "--max-steps", "2", "--json")
    report = json.loads(out)
    assert code == 3 and report["steps"] == 2
    assert (report["accepted"], report["complete"]) == (False, False)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("# inc s 0 0 e #") and err == ""
    code, out, _ = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert code == 0 and report["steps"] == 15
    assert (report["accepted"], report["complete"]) == (True, True)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("space", [256, 40])
def test_simulate_run_ceiling_stops_a_long_run(tmp_path, space):
    # The counter machine would run 2^space steps. Unchecked, a run keeps
    # about 4.2 KiB per step at 256 cells and 0.75 KiB at 40, and dies with a
    # MemoryError; in a child limited to 1 GB it must stop at the ceiling.
    machine = tmp_path / "counter.json"
    machine.write_text(machine_json(m_counter(space)[0]))
    word = " ".join(m_counter(space)[1])
    src = str(Path(likekit.__file__).resolve().parents[1])
    argv = ["simulate", "tm", "--machine", str(machine), "--input", word, "--space", str(space)]
    proc = subprocess.run(
        [sys.executable, "-m", "likekit", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert proc.returncode == 3 and proc.stdout == "bounded\n"
    assert proc.stderr == "error: the run reached the ceiling of 10000 steps\n"


CEILING_ERROR = "error: the run reached the ceiling of 10000 steps\n"


@pytest.mark.parametrize(
    "space, mode, code, out_digest, err, peak_mib",
    [
        pytest.param(4, [], 0, "bcd92caff1486007", "", None, id="4-human"),
        pytest.param(4, ["--json"], 0, "6f5f7b39283d7855", "", None, id="4-json"),
        pytest.param(40, [], 3, "b13408bef4e47a6e", CEILING_ERROR, None, id="40-human"),
        pytest.param(40, ["--json"], 3, "d5bf2211d4c0cbcf", CEILING_ERROR, None, id="40-json"),
        pytest.param(256, [], 3, "b13408bef4e47a6e", CEILING_ERROR, 48, id="256-human"),
        pytest.param(256, ["--json"], 3, "563d1417b694d0e6", CEILING_ERROR, 60, id="256-json"),
    ],
)
def test_simulate_at_the_run_ceiling_is_pinned(
    tmp_path, capsys, space, mode, code, out_digest, err, peak_mib
):
    # The counter machine accepts at 4 cells and is cut by the run ceiling
    # at 40 and 256. At 256 cells the run peaks at 40.6 MiB, and at
    # 56.7 MiB with --json, counting the captured 12.9 MB report. Keeping
    # each configuration three times and copying the history for the
    # report took 62.0 and 76.4 MiB.
    spec, word, _ = m_counter(space)
    machine = tmp_path / "counter.json"
    machine.write_text(machine_json(spec))
    argv = ["simulate", "tm", "--machine", str(machine), "--input", " ".join(word)]
    argv += ["--space", str(space), *mode]
    tracemalloc.start()
    got = dispatch(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out, got_err = capsys.readouterr()
    assert (got, short_digest([out]), got_err) == (code, out_digest, err)
    assert peak_mib is None or peak < peak_mib * 2**20, peak / 2**20


def test_majority_ceiling_fires_before_the_pattern_is_built(capsys):
    # Unchecked, --n 10^7 allocated about 180 MB before anything was written.
    tracemalloc.start()
    started = time.perf_counter()
    code, out, err = run(capsys, "reduce", "majority", "--n", str(10**40))
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and out == "" and f"--n {10**40}" in err and "ceiling" in err
    assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)
    code, out, err = run(capsys, "reduce", "majority", "--n", "2000001")
    assert code == 3 and out == "" and err.startswith("error: --n 2000001")
    # At the ceiling the pattern is built: 10^6 + 1 ones, each after a %.
    code, out, _ = run(capsys, "reduce", "majority", "--n", "2000000")
    assert code == 0 and out.strip() == "%1" * 1_000_001 + "%"


def test_to_regex(capsys):
    code, out, _ = run(capsys, "to-regex", "--alphabet", "ab", "--pattern", "a%")
    assert code == 0 and out.strip() == "a(a+b)*"


def test_to_regex_refuses_ambiguous_alphabets(capsys):
    code, out, err = run(capsys, "to-regex", "--alphabet", "a+*", "--pattern", "a%")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(
        capsys, "to-regex", "--tokens", "--alphabet", "a b ab", "--pattern", "ab %"
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_nesting_limit(capsys):
    for expr in ["(" * 400 + 'LIKE "a"' + ")" * 400, "NOT " * 5000 + 'LIKE "a"']:
        code, out, err = run(capsys, "eval", "--expr", expr, "--text", "a")
        assert code == 2 and out == "" and err.startswith("error:"), expr[:20]
    half = MAX_NESTING // 2
    at_limit = "NOT " * half + "(" * half + 'LIKE "a"' + ")" * half
    code, out, _ = run(capsys, "eval", "--expr", at_limit, "--text", "a")
    assert code == 0 and out.strip() == "match"
    code, _, err = run(capsys, "eval", "--expr", "NOT " + at_limit, "--text", "a")
    assert code == 2 and "nested deeper" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "match", "--pattern", "onlyhalf")
    assert code == 2
    code, _, err = run(capsys, "eval", "--expr", 'LIKE "a', "--text", "a")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run(capsys, "reduce", "3sat", "--dimacs", "/nonexistent/file.cnf")
    assert code == 2
    code, _, err = run(capsys, "match", "--escape", "%", "--pattern", "a", "--text", "a")
    assert code == 2


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_back_to_back_dispatches_share_no_options(capsys, monkeypatch):
    # Each call sets only its own options. In any order, a plain call keeps
    # every default (no --json, --tokens or --escape, and the default
    # budget, max-len and cap), and the others keep their own options. The
    # namespace each call parses holds exactly what a fresh parser gives,
    # so no option of an earlier call lingers either.
    parse_args = argparse.ArgumentParser.parse_args
    parsed = []

    def recording(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    calls = [
        (
            ["nonempty", "--json", "--tokens", "--budget", "2", "--max-len", "1"]
            + ["--alphabet", "a b", "--expr", 'LIKE "a b" AND NOT LIKE "a"'],
            3,
            None,
        ),
        (["nonempty", "--alphabet", "ab", "--expr", 'LIKE "a_b"'], 0, "aab\n"),
        (
            ["match", "--escape", "!", "--json", "--pattern", "a!%b", "--text", "a%b"],
            0,
            '{"matched": true}\n',
        ),
        (["match", "--pattern", "a!%b", "--text", "a!xyb"], 0, "match\n"),
        (["dnf", "--cap", "1", "--expr", 'LIKE "a_"', "--alphabet", "ab"], 3, ""),
        (
            ["dnf", "--expr", 'LIKE "a_"', "--alphabet", "ab"],
            0,
            'LIKE "aa" OR LIKE "ab"\n',
        ),
        (
            ["equiv", "--alphabet", "ab", "--e1", 'LIKE "%ab%"', "--e2", 'LIKE "%a%b%"'],
            0,
            "EQUIVALENT\n",
        ),
    ]
    for order in (calls, calls[::-1], calls[1::2] + calls[::2]):
        for argv, want_code, want_out in order:
            parsed.clear()
            code, out, _ = run(capsys, *argv)
            assert code == want_code, argv
            (args,) = parsed
            assert vars(args) == vars(parse_args(_build_parser(), argv)), argv
            if want_out is None:
                report = json.loads(out)
                got = (report["verdict"], report["explored"], report["complete"])
                assert got == ("exhausted-empty", 2, False), argv
            else:
                assert out == want_out, argv


def test_console_entry_point():
    # Run the package under test, installed or not.
    src = str(Path(likekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "likekit", "match", "--pattern", "%a%", "--text", "xa"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "match"


def test_closed_stdout_ends_quietly():
    # The reader takes 10 bytes of a pattern about 1 MB long and closes the
    # pipe, as ``| head -c 10`` does.
    src = str(Path(likekit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "likekit", "reduce", "majority", "--n", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b"%1%1%1%1%1"
    assert err == b""


def _subcommands():
    """(subcommand path, parser) for every parser in the tree."""
    todo = [((), _build_parser())]
    while todo:
        path, parser = todo.pop()
        yield path, parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                todo += [((*path, name), sub) for name, sub in action.choices.items()]


def _integer_options():
    """(subcommand path, option) for every option of an integer type,
    found by walking the parser's subcommands."""
    found = []
    for path, parser in _subcommands():
        for action in parser._actions:
            if action.option_strings and action.type is not None:
                try:
                    is_int = type(action.type("1")) is int
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    is_int = False
                if is_int:
                    found.append((path, action.option_strings[0]))
    return sorted(found)


_INTEGER_OPTIONS = _integer_options()


def test_integer_options_are_found():
    assert {opt for _, opt in _INTEGER_OPTIONS} == {
        "--budget",
        "--cap",
        "--max-len",
        "--max-steps",
        "--n",
        "--space",
    }


@pytest.mark.parametrize(
    "path, option",
    _INTEGER_OPTIONS,
    ids=[" ".join((*path, option)) for path, option in _INTEGER_OPTIONS],
)
def test_negative_integer_option_is_refused(capsys, path, option):
    code, out, err = run(capsys, *path, f"{option}=-1")
    assert code == 2 and not out
    assert f"argument {option}: must not be negative" in err and "Traceback" not in err
    code, out, err = run(capsys, *path, f"{option}=x")
    assert code == 2 and not out
    assert f"argument {option}: not an integer: 'x'" in err and "Traceback" not in err


def test_negative_limits_are_input_errors(tmp_path, capsys):
    code, _, err = run(
        capsys, "dnf", "--expr", 'LIKE "a%"', "--alphabet", "ab", "--cap", "-1"
    )
    assert code == 2 and "cap" in err and "above the cap" not in err
    # The one-step machine of test_simulate_tm, which accepts "1" in one cell.
    machine = tmp_path / "m.json"
    machine.write_text(
        json.dumps(
            {
                "states": ["q0", "qa"],
                "tape_alphabet": ["1", "_blank"],
                "input_alphabet": ["1"],
                "start": "q0",
                "accept": "qa",
                "delta": [
                    {
                        "state": "q0",
                        "read": "1",
                        "next": "qa",
                        "write": "_blank",
                        "move": "L",
                    }
                ],
            }
        )
    )
    argv = ["simulate", "tm", "--machine", str(machine), "--input", "1"]
    argv += ["--space", "1"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--max-steps", "-1")
    assert code == 2 and not out and "--max-steps" in err


# The surface-syntax options of every runnable subcommand.
_SYNTAX_OPTIONS = {
    path: {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt in ("--tokens", "--escape")
    }
    for path, parser in _subcommands()
    if parser.get_default("func") is not None
}

# Gadget subcommands, with their required options.
_GADGETS = {
    ("reduce", "3sat"): ["--dimacs", "f.cnf"],
    ("reduce", "majority"): ["--n", "3"],
    ("reduce", "tm"): ["--machine", "m.json", "--space", "2"],
    ("simulate", "tm"): ["--machine", "m.json", "--space", "2"],
}


def test_only_subcommands_that_read_patterns_take_syntax_options():
    readers = {
        ("match",),
        ("normalize",),
        ("eval",),
        ("dnf",),
        ("equiv",),
        ("nonempty",),
        ("to-regex",),
    }
    assert set(_SYNTAX_OPTIONS) == readers | set(_GADGETS)
    for path, opts in _SYNTAX_OPTIONS.items():
        assert opts == ({"--tokens", "--escape"} if path in readers else set()), path


@pytest.mark.parametrize("flag", [["--tokens"], ["--escape", "!"]], ids=" ".join)
@pytest.mark.parametrize("path", list(_GADGETS), ids=" ".join)
def test_gadget_subcommand_refuses_syntax_options(capsys, path, flag):
    code, out, err = run(capsys, *path, *_GADGETS[path], *flag)
    assert code == 2 and not out
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err
