"""Seeded benchmark for likekit.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client, one process, one thread, closed loop: each operation starts
when the previous one has finished. The workload's pool of operations
(see workloads.py) runs in rounds, each round in a fresh seeded order,
until ``--seconds`` have passed; the last round is always finished. Every
output is checked against the references in reference.py, outside the
timed part.

The host's speed drifts by tens of percent within seconds, so latencies
are also reported in calibration units (see ``Calibrator``): each
operation's time over the time of a fixed pure-Python computation run
right after it. The wall-clock figures are printed too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` even rounds are traced (spans
around every library call) and odd rounds are not, and the JSON object
holds the per-layer metrics, per round, and the tracing overhead. Spans
and exact counts are written under ``.bench_build/`` in the checkout.

Exit status: 0 when every output is right, or wrong only on an
operation tied to a known defect; 1 when a check or an exact count
fails; 2 when likekit cannot be loaded from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"
# Set-up probes (fresh interpreters), spread evenly over the run.
SETUP_PROBES = 7
# After every CAL_EVERY_S of operation time, calibration units run for
# CAL_SHARE of that time (at least one unit).
CAL_EVERY_S = 0.02
CAL_SHARE = 0.1
# The calibration unit: the reference's bounded enumeration of the 255
# texts over 01 up to 7 symbols against a fixed two-atom expression. It
# never touches likekit, so no change to the library can move it.
CAL_EXPR = ("and", (("atom", tuple("%0_1%")), ("not", ("atom", tuple("%10%")))))

# Counts that depend only on the inputs and the library's answers; they
# must be the same in every round and in every run with the same seed.
EXACT = (
    "automata.explored_states",
    "reductions.atoms_out",
    "expression.dnf_atoms_out",
    "matcher.symbols_scanned",
)

# Span name -> per-layer time metric.
SPAN_METRIC = {
    "matcher.match_greedy": "matcher.busy_s",
    "normalize.normalize": "normalize.busy_s",
    "expression.evaluate": "expression.evaluate_s",
    "pattern.parse_pattern": "pattern.parse_s",
    "pattern.render_pattern": "pattern.render_s",
    "expression.parse_expression": "expression.parse_s",
    "automata.find_witness": "automata.search_s",
    "automata.find_separating_string": "automata.search_s",
    "reductions.encode_3sat": "reductions.encode_s",
    "reductions.encode_tm": "reductions.encode_s",
    "expression.to_dot_depth1_dnf": "expression.dnf_s",
    "cli.dispatch": "cli.dispatch_s",
}
LAYERS = ("pattern", "normalize", "matcher", "expression", "automata", "reductions", "cli", "bench")


def load_likekit() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import likekit
    except ImportError as exc:
        print(f"error: cannot import likekit from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(likekit.__file__).resolve().is_relative_to(src):
        print(f"error: likekit was loaded from {likekit.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def source_digest() -> str:
    """Digest of the library and the benchmark, which together fix the counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup_probe(workload: str, seed: int) -> float:
    """``import likekit`` plus the warm-up pass, in a fresh interpreter."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Calibrator:
    """Turns latencies into calibration units, so the host's drift cancels.

    Operation times accumulate in a window; once the window holds
    CAL_EVERY_S, calibration units run for CAL_SHARE of it, and each
    operation of the window is divided by the mean unit time measured
    around it: the average of the units run right before and right after
    the window. Operations and units then run at the same host speed,
    whatever that speed is."""

    def __init__(self, unit, n_ops: int) -> None:
        self.unit = unit
        self.norm: list[list[float]] = [[] for _ in range(n_ops)]
        self.unit_times: list[float] = []
        self._window: list[tuple[int, float]] = []
        self._acc = 0.0
        self._before = self._measure(CAL_EVERY_S)

    def add(self, i: int, dt: float) -> bool:
        """Record operation ``i``'s latency; True when a window was closed."""
        self._window.append((i, dt))
        self._acc += dt
        if self._acc < CAL_EVERY_S:
            return False
        self.flush()
        return True

    def flush(self) -> None:
        """Close the window: run the units and normalise its operations."""
        if not self._window:
            return
        after = self._measure(self._acc)
        self.unit_times.append(after)
        unit_s = (self._before + after) / 2
        for j, d in self._window:
            self.norm[j].append(d / unit_s)
        self._window, self._acc, self._before = [], 0.0, after

    def _measure(self, window_s: float) -> float:
        """Mean time of the units run for CAL_SHARE of ``window_s``."""
        spent, n = 0.0, 0
        while n == 0 or spent < CAL_SHARE * window_s:
            t0 = time.perf_counter()
            self.unit()
            spent += time.perf_counter() - t0
            n += 1
        return spent / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_likekit()
    import reference
    from tracing import UNTRACED, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    reference.self_test()

    setup_times = [] if args.trace else [setup_probe(args.workload, args.seed)]
    ops = build(random.Random(args.seed))
    for op in build(random.Random(args.seed), warm=True):
        op.run(UNTRACED)

    order_rng = random.Random(f"order-{args.seed}")
    calibrator = Calibrator(lambda: reference.first_text([CAL_EXPR], "01", 7, lambda v: False), len(ops))
    tracer = Tracer()
    lat: list[list[float]] = [[] for _ in ops]  # untraced latencies per op
    lat_traced: list[list[float]] = [[] for _ in ops]
    first_counts: list[dict | None] = [None] * len(ops)
    problems: list[str] = []
    known: dict[str, int] = {}
    cap_op_ids: set[int] = set()
    attempted = failed = 0
    check_s = 0.0
    rounds = traced_rounds = 0
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 1
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        traced = args.trace == 1 and rounds % 2 == 0
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        for i in order:
            op = ops[i]
            op_id = attempted
            error, raised = None, False
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(op_id, op) if traced else op.run(UNTRACED)
            except Exception as exc:  # noqa: BLE001 - an unexpected raise is a failed operation
                out, error = None, f"raised {type(exc).__name__}: {exc}"
                raised = True
            dt = time.perf_counter() - t0
            (lat_traced if traced else lat)[i].append(dt)
            attempted += 1
            if not args.trace and calibrator.add(i, dt):
                due = start + len(setup_times) * args.seconds / SETUP_PROBES
                if len(setup_times) < SETUP_PROBES and time.perf_counter() >= due:
                    setup_times.append(setup_probe(args.workload, args.seed))

            c0 = time.perf_counter()
            if error is None and not (op.verified is not None and out == op.verified):
                error = op.check(out)
                if error is None:
                    op.verified = out
            if out is not None:
                counts = op.counts(out)
                if first_counts[i] is None:
                    first_counts[i] = counts
                elif counts != first_counts[i]:
                    problems.append(f"{op.kind}: counts {counts} differ from round 1 {first_counts[i]}")
                if traced and counts.get("expression.dnf_cap_hits"):
                    cap_op_ids.add(op_id)
            check_s += time.perf_counter() - c0
            if error is not None:
                failed += 1
                if op.known_defect and not raised:
                    known[op.known_defect] = known.get(op.known_defect, 0) + 1
                else:
                    problems.append(f"{op.kind}: {error}")
        rounds += 1
        traced_rounds += traced
    wall = time.perf_counter() - start
    calibrator.flush()
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args.workload, args.seed))

    per_round: dict[str, int] = {}
    for counts in first_counts:
        for k, v in (counts or {}).items():
            per_round[k] = per_round.get(k, 0) + v
    problems += compare_counts(args, {k: per_round.get(k, 0) for k in EXACT})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds of {len(ops)} ops in {wall:.1f} s")
    kinds: dict[str, list[float]] = {}
    for op, xs in zip(ops, lat if not args.trace else lat_traced):
        kinds.setdefault(op.kind, []).extend(xs)
    for kind, xs in sorted(kinds.items()):
        print(f"op {kind}: {len(xs)} runs, median {statistics.median(xs) * 1e3:.4f} ms")
    for reason, n in known.items():
        print(f"known defect, {n} failed ops: {reason}")
    for p in problems[:10]:
        print(f"FAILED CHECK: {p}")

    if args.trace:
        metrics = layer_metrics(tracer, per_round, traced_rounds, cap_op_ids, lat, lat_traced, check_s)
        write_trace(args, tracer)
    else:
        metrics = end_to_end(ops, calibrator.norm, setup_times)
        typical = [trimmed_mean(xs) for xs in lat]
        print(f"ops_per_s {len(ops) / sum(typical):.6g} 1/s (wall clock)")
        print(f"latency_p50_ms {statistics.median(typical) * 1e3:.6g} ms (wall clock)")
        print(f"calibration unit: median {statistics.median(calibrator.unit_times) * 1e3:.4f} ms over {len(calibrator.unit_times)} windows")
        flat = sorted(x for xs in lat for x in xs)
        print(f"error_rate {failed / attempted:.6f} (failed {failed} of {attempted} attempted)")
        if len(flat) >= 100:
            print(f"latency_p90_ms {statistics.quantiles(flat, n=10)[-1] * 1e3:.6f} ms over {len(flat)} ops")
        else:
            print(f"latency_p90_ms not reported: {len(flat)} ops, fewer than 100")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def trimmed_mean(xs: list[float]) -> float:
    """Mean of the middle 80%: it drops the rare stall but, unlike a median,
    does not jump when the shared machine switches between a fast and a
    slow phase for part of the run; it averages over them."""
    xs = sorted(xs)
    k = len(xs) // 10
    return statistics.fmean(xs[k : len(xs) - k])


def middle_mean(xs: list[float]) -> float:
    """Mean of the middle fifth of the values: an estimate of their median
    that averages the few values nearest it instead of taking one or two,
    so it does not jump when the values near the middle are spread out."""
    xs = sorted(xs)
    k = int(len(xs) * 0.4)
    return statistics.fmean(xs[k : len(xs) - k])


def end_to_end(ops, norm, setup_times) -> dict:
    """Each operation of the pool is taken at its trimmed-mean latency in
    calibration units over the run's rounds; throughput is the pool over
    their sum, and the median latency is the median over the pool."""
    typical = [trimmed_mean(xs) for xs in norm]
    return {
        "ops_per_kcal": {"value": 1000 * len(ops) / sum(typical), "unit": "1/kcal"},
        "latency_p50_cal": {"value": middle_mean(typical), "unit": "cal"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def layer_metrics(tracer, per_round, traced_rounds, cap_op_ids, lat, lat_traced, check_s) -> dict:
    busy, layer_self = tracer.self_times()
    times: dict[str, float] = {}
    for name, metric in SPAN_METRIC.items():
        times[metric] = times.get(metric, 0.0) + busy.get(name, 0.0) / traced_rounds
    times["expression.dnf_cap_s"] = sum(
        (end - start) / 1e9
        for name, start, end, _, op_id in tracer.spans
        if name == "expression.to_dot_depth1_dnf" and op_id in cap_op_ids
    ) / traced_rounds

    def rate(num, den):
        return num / den if den else 0.0

    c = per_round.get
    searches = c("automata.searches", 0)
    values = {
        "matcher.calls": (c("matcher.calls", 0), "count"),
        "matcher.busy_s": (times["matcher.busy_s"], "s"),
        "matcher.symbols_scanned": (c("matcher.symbols_scanned", 0), "count"),
        "matcher.symbols_per_s": (rate(c("matcher.symbols_scanned", 0), times["matcher.busy_s"]), "1/s"),
        "normalize.calls": (c("normalize.calls", 0), "count"),
        "normalize.busy_s": (times["normalize.busy_s"], "s"),
        "expression.evaluate_calls": (c("expression.evaluate_calls", 0), "count"),
        "expression.evaluate_s": (times["expression.evaluate_s"], "s"),
        "pattern.parse_calls": (c("pattern.parse_calls", 0), "count"),
        "pattern.parse_s": (times["pattern.parse_s"], "s"),
        "pattern.render_s": (times["pattern.render_s"], "s"),
        "expression.parse_s": (times["expression.parse_s"], "s"),
        "automata.searches": (searches, "count"),
        "automata.search_s": (times["automata.search_s"], "s"),
        "automata.states_per_s": (rate(c("automata.explored_states", 0), times["automata.search_s"]), "1/s"),
        "automata.atoms_per_search": (rate(c("automata.atoms", 0), searches), "count"),
        "automata.tokens_per_search": (rate(c("automata.tokens", 0), searches), "count"),
        "automata.budget_exceeded": (c("automata.budget_exceeded", 0), "count"),
        "automata.explored_states": (c("automata.explored_states", 0), "count"),
        "reductions.encode_calls": (c("reductions.encode_calls", 0), "count"),
        "reductions.encode_s": (times["reductions.encode_s"], "s"),
        "reductions.atoms_out": (c("reductions.atoms_out", 0), "count"),
        "reductions.tokens_out": (c("reductions.tokens_out", 0), "count"),
        "expression.dnf_calls": (c("expression.dnf_calls", 0), "count"),
        "expression.dnf_s": (times["expression.dnf_s"], "s"),
        "expression.dnf_atoms_out": (c("expression.dnf_atoms_out", 0), "count"),
        "expression.dnf_cap_hits": (c("expression.dnf_cap_hits", 0), "count"),
        "expression.dnf_cap_s": (times["expression.dnf_cap_s"], "s"),
        "cli.dispatch_calls": (c("cli.dispatch_calls", 0), "count"),
        "cli.dispatch_s": (times["cli.dispatch_s"], "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / traced_rounds, "s")
    values["bench.check_s"] = (check_s, "s")
    # Tracing overhead: the pool's traced latency against its untraced
    # latency, each operation at its trimmed mean.
    untraced = sum(trimmed_mean(xs) for xs in lat)
    traced = sum(trimmed_mean(xs) for xs in lat_traced)
    values["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def compare_counts(args, exact: dict) -> list[str]:
    """Exact counts must repeat between runs of the same code with the same seed."""
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != exact:
            return [f"exact counts {exact} differ from an earlier run's {before}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, sort_keys=True))
    return []


def write_trace(args, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with path.open("w") as fh:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                "names": names,
                "spans": [[index[n], s, e, p, o] for n, s, e, p, o in tracer.spans],
            },
            fh,
            separators=(",", ":"),
        )


if __name__ == "__main__":
    sys.exit(main())
