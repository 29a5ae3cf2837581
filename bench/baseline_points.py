"""Re-measure the single-call baseline points listed in ROADMAP.md.

Usage (from the repository root): python3 bench/baseline_points.py

Prints one JSON object: the median seconds of ``find_witness`` on the
bouncer machine's history expression at spaces 2 to 5, of one greedy
match of a 13-token pattern against a 14-symbol text, and of one
``evaluate`` of a 3-atom expression, together with the Python version
and the number of cores. Each witness is checked against the history
the benchmark builds itself.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import likekit as lk  # noqa: E402

import reference as ref  # noqa: E402

NAMES = {"one": "1", "blank": "b", "q0": "q0", "q1": "q1", "qa": "qa"}


def median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    n = NAMES
    spec = lk.TmSpec(
        states=(n["q0"], n["q1"], n["qa"]),
        tape_alphabet=(n["one"], n["blank"]),
        input_alphabet=(n["one"],),
        start=n["q0"],
        accept=n["qa"],
        rules=(
            lk.TmRule("q0", "1", "q0", "1", "R"),
            lk.TmRule("q0", "b", "q1", "b", "L"),
            lk.TmRule("q1", "1", "q1", "b", "L"),
            lk.TmRule("q1", "b", "qa", "b", "L"),
        ),
        blank="b",
    )
    points = {}
    for space in (2, 3, 4, 5):
        word = ("1",) * (space - 1)
        expr, sigma = lk.encode_tm(spec, word, space)
        out = lk.find_witness(expr, sigma)
        if out.witness != ref.bouncer_history(space, space - 1, NAMES):
            sys.exit(f"space {space}: witness is not the run history")
        points[f"tm_find_witness_space{space}_s"] = median_time(lambda: lk.find_witness(expr, sigma), 3)
        points[f"tm_encode_space{space}_s"] = median_time(lambda: lk.encode_tm(spec, word, space), 5)
        points[f"tm_explored_space{space}"] = out.explored

    pattern = lk.parse_pattern("%a_b%ba_%a%b_")
    text = tuple("aabbbbaaabbabb")
    if lk.match_greedy(pattern, text) != ref.dp_match(tuple("%a_b%ba_%a%b_"), text):
        sys.exit("greedy match disagrees with the reference")
    points["match_greedy_13_tokens_14_symbols_s"] = median_time(lambda: lk.match_greedy(pattern, text), 20001)

    expr = lk.parse_expression('LIKE "%a%" AND NOT LIKE "%bb%" OR LIKE "b_%"')
    points["evaluate_3_atoms_s"] = median_time(lambda: lk.evaluate(expr, text), 20001)

    points["python"] = platform.python_version()
    points["nproc"] = os.cpu_count()
    print(json.dumps(points, indent=1))


if __name__ == "__main__":
    main()
