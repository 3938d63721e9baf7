"""Seeded closed-loop benchmark of hitminor, end to end and per layer.

    python3 perfbench/run.py --workload rank-mid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 [--trace 1]    # every workload, one process each

One client in one process sends each query when the previous one returns.  A
query parses an instance's .gr text with `parse_gr` and calls
`solve(SolveRequest(...))`; chair and banner call `min_deletion_bruteforce`,
as `hitminor solve` does.  Inputs come from the seed (see workloads.py) and
hitminor is imported from the `src/` next to this directory.

`--trace 0` runs the closed loop for `--seconds` and reports the end-to-end
metrics; the loop is cut into slices with a cold set-up round in a new
process (setup_round.py) before each.  `--trace 1` alternates an untraced
and a traced pass over the first cycle of queries for about `--seconds` and
reports the per-layer metrics, per cycle (see tracing.py); spans go to
`.perfbench-out/`.  Either way a gate outside the timed region checks every
answer, and the last line of standard output is one JSON object.  The exit
code is 1 when any query failed and 2 when hitminor cannot be imported from
the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_round.py"

#: setup_s is the median of this many cold set-up rounds, spread evenly over
#: the timed loop, so that it samples the machine over the whole run as the
#: loop's own metrics do, not during one spell.
SETUP_ROUNDS = 16

#: Tail percentile per workload, fixed so that a faster commit is not judged
#: on a higher percentile: the highest of 75/90/95/99/99.9 that leaves at
#: least ten samples beyond it in every 30-second run of the recorded
#: baseline.  rank-mid is the exception: p90 leaves ten only while a run
#: collects 100 samples or more, and slow spells of the machine gave 92, so
#: it takes p75, which leaves at least 23 beyond at 92 samples.
TAIL_PERCENTILE = {"rank-mid": 75, "sparse-large": 75, "desk-mixed": 99}

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "graph.parse_gr.s": "s",
    "treedecomp.heuristic_td.s": "s",
    "treedecomp.validate_td.s": "s",
    "treedecomp.validate_td.calls": "count",
    "treedecomp.make_nice.s": "s",
    "treedecomp.augment_universal.s": "s",
    "treedecomp.nice_nodes": "count",
    "treedecomp.width.max": "count",
    "solvers.solve.self_s": "s",
    "labeling.dp.s": "s",
    "labeling.table.max": "count",
    "connectivity.dp.s": "s",
    "connectivity.passes": "count",
    "connectivity.table.max": "count",
    "connectivity.pset.max": "count",
    "partitions.reduce.s": "s",
    "partitions.reduce.calls": "count",
    "partitions.reduce.entries_in": "count",
    "partitions.reduce.entries_out": "count",
    "partitions.reduce.kept_ratio": "ratio",
    "partitions.ops.s": "s",
    "partitions.ops.calls": "count",
    "oracle.min_deletion.s": "s",
    "oracle.min_deletion.calls": "count",
    "patterns.is_free.s": "s",
    "patterns.is_free.calls": "count",
    "bench.query.self_s": "s",
    "trace.query.s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Self-time metrics; together they cover every traced query second.
SELF_TIMES = {
    "graph.parse_gr.s": ("graph.parse_gr",),
    "treedecomp.heuristic_td.s": ("treedecomp.heuristic_td",),
    "treedecomp.validate_td.s": ("treedecomp.validate_td",),
    "treedecomp.make_nice.s": ("treedecomp.make_nice",),
    "treedecomp.augment_universal.s": ("treedecomp.augment_universal",),
    "solvers.solve.self_s": ("solvers.solve",),
    "labeling.dp.s": ("labeling.dp",),
    "connectivity.dp.s": ("connectivity.dp", "connectivity.pass"),
    "partitions.reduce.s": ("partitions.reduce",),
    "partitions.ops.s": ("partitions.ops",),
    "oracle.min_deletion.s": ("oracle.min_deletion",),
    "patterns.is_free.s": ("patterns.is_free",),
    "bench.query.self_s": (tracing.ROOT,),
}

LABELING = ("p3", "p4", "k1s")
CONNECTIVITY = ("c4", "paw")


class SetupError(Exception):
    """hitminor cannot be imported from this checkout."""


@dataclass
class Execution:
    query: workloads.Query
    answer: int | bool | None
    error: str | None
    seconds: float
    stats: dict | None


# -- setup -----------------------------------------------------------------


def import_hitminor():
    """hitminor from the checkout's src/, never an installed copy."""
    if not (SRC / "hitminor" / "__init__.py").is_file():
        raise SetupError(f"no hitminor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hm = importlib.import_module("hitminor")
    if Path(hm.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"hitminor imported from {hm.__file__}, not {SRC}")
    return hm


def setup_round(workload: str, seed: int) -> float:
    """Seconds of one cold set-up round in a new process."""
    done = subprocess.run(
        [sys.executable, str(SETUP_SCRIPT), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout)


# -- queries ---------------------------------------------------------------


def run_query(hm, query: workloads.Query, pattern):
    """One request; returns the answer and the solver's stats (None for the
    oracle)."""
    g = hm.parse_gr(query.text)
    if pattern.kind in hm.patterns.SOLVER_KINDS:
        result = hm.solve(
            hm.SolveRequest(graph=g, pattern=pattern, mode=query.mode, k=query.k)
        )
        return result.answer, result.stats
    value = hm.min_deletion_bruteforce(g, pattern)
    return (value <= query.k if query.mode == "decide" else value), None


def execute(hm, query, patterns, tracer=None) -> Execution:
    pattern = patterns[query.pattern]
    started = perf_counter()
    try:
        if tracer is None:
            answer, stats = run_query(hm, query, pattern)
        else:
            answer, stats = tracer.query(run_query, hm, query, pattern)
        error = None
    except Exception as exc:  # a failed query is counted, the loop goes on
        answer, stats, error = None, None, f"{type(exc).__name__}: {exc}"
    return Execution(query, answer, error, perf_counter() - started, stats)


def closed_loop(hm, workload: str, seed: int, queries, patterns, seconds: float):
    """Queries back to back, wrapping around, until `seconds` of loop time
    have passed.  The loop is cut into SETUP_ROUNDS slices with a cold
    set-up round before each, outside the loop time.  Returns the
    executions, the loop seconds and the set-up seconds."""
    runs: list[Execution] = []
    setups: list[float] = []
    elapsed = 0.0
    for r in range(1, SETUP_ROUNDS + 1):
        setups.append(setup_round(workload, seed))
        started = perf_counter()
        while True:
            runs.append(execute(hm, queries[len(runs) % len(queries)], patterns))
            if elapsed + perf_counter() - started >= seconds * r / SETUP_ROUNDS:
                break
        elapsed += perf_counter() - started
    return runs, elapsed, setups


def traced_loop(hm, cycle, patterns, seconds: float):
    """Untraced and traced passes over `cycle`, in pairs, for about
    `seconds`; at least one pair."""
    tracer = tracing.Tracer()
    untraced: list[Execution] = []
    traced: list[Execution] = []
    untraced_s = traced_s = 0.0
    pairs = 0
    started = perf_counter()
    while True:
        t0 = perf_counter()
        untraced.extend(execute(hm, q, patterns) for q in cycle)
        t1 = perf_counter()
        with tracer.installed(hm):
            traced.extend(execute(hm, q, patterns, tracer) for q in cycle)
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        pairs += 1
        if (t2 - started) * (pairs + 1) / pairs > seconds:
            return tracer, untraced, traced, pairs, traced_s / untraced_s


# -- correctness gate --------------------------------------------------------


def gate(hm, runs, reference: dict, patterns) -> list[str]:
    """One message per failed execution: an exception, or an answer that
    differs from the reference.  Instances the oracle can handle are also
    checked against a live `min_deletion_bruteforce`."""
    limit = hm.oracle.DELETION_LIMIT
    oracle: dict[tuple[str, str], int] = {}
    failures = []
    for run in runs:
        q = run.query
        label = f"{q.key} {q.pattern} {q.mode}" + ("" if q.k is None else f" k={q.k}")
        if run.error is not None:
            failures.append(f"{label}: {run.error}")
            continue
        opt = reference[q.key]["answers"][q.pattern]
        pattern = patterns[q.pattern]
        if q.n <= limit and pattern.kind in hm.patterns.SOLVER_KINDS:
            if (q.key, q.pattern) not in oracle:
                g = hm.parse_gr(q.text)
                oracle[q.key, q.pattern] = hm.min_deletion_bruteforce(g, pattern)
            if oracle[q.key, q.pattern] != opt:
                failures.append(
                    f"{label}: oracle {oracle[q.key, q.pattern]} != reference {opt}"
                )
                continue
        want = opt <= q.k if q.mode == "decide" else opt
        if type(run.answer) is not type(want) or run.answer != want:
            failures.append(f"{label}: answer {run.answer!r}, expected {want!r}")
    return failures


# -- metrics -----------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload, setup_s, runs, elapsed, failed) -> tuple[dict, list[str]]:
    times = sorted(r.seconds for r in runs)
    p = TAIL_PERCENTILE[workload]
    beyond = len(times) - max(1, math.ceil(p / 100 * len(times)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (percentile(times, p), "s"),
        "instances_per_s": ((len(runs) - failed) / elapsed, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"setup_s: median of {SETUP_ROUNDS} cold imports plus input generations",
        f"solve_s.tail: p{p} of {len(times)} samples, {beyond} beyond it",
        f"failed_frac: {failed / len(runs):.4g} ({failed} of {len(runs)})",
    ]
    if beyond < 10:
        notes.append(f"warning: fewer than ten samples beyond p{p}")
    return metrics, notes


def layer_metrics(tracer, traced, pairs, overhead) -> tuple[dict, list[str]]:
    totals = tracer.totals()
    counts = tracer.counts
    stats = [r.stats for r in traced if r.stats is not None]

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / pairs

    def peak(key, kinds):
        return max(
            (r.stats.get(key, 0) for r in traced
             if r.stats is not None and r.query.pattern.split(":")[0] in kinds),
            default=0,
        )

    values = {
        name: sum(totals.get(s, (0, 0.0))[1] for s in sources) / pairs
        for name, sources in SELF_TIMES.items()
    }
    query_s = sum(end - start for _, _, _, name, start, end in tracer.spans
                  if name == tracing.ROOT) / pairs
    entries_in = counts["partitions.reduce.entries_in"]
    entries_out = counts["partitions.reduce.entries_out"]
    values.update({
        "treedecomp.validate_td.calls": calls("treedecomp.validate_td"),
        "treedecomp.nice_nodes": sum(s.get("nice_nodes", 0) for s in stats) / pairs,
        "treedecomp.width.max": max((s.get("td_width", 0) for s in stats), default=0),
        "labeling.table.max": peak("max_table_size", LABELING),
        "connectivity.passes": calls("connectivity.pass"),
        "connectivity.table.max": peak("max_table_size", CONNECTIVITY),
        "connectivity.pset.max": peak("max_partition_set_size", CONNECTIVITY),
        "partitions.reduce.calls": calls("partitions.reduce"),
        "partitions.reduce.entries_in": entries_in / pairs,
        "partitions.reduce.entries_out": entries_out / pairs,
        "partitions.reduce.kept_ratio": entries_out / entries_in if entries_in else 0.0,
        "partitions.ops.calls": calls("partitions.ops"),
        "oracle.min_deletion.calls": calls("oracle.min_deletion"),
        "patterns.is_free.calls": calls("patterns.is_free"),
        "trace.query.s": query_s,
        "trace.overhead_ratio": overhead,
    })
    covered = sum(values[name] for name in SELF_TIMES)
    notes = [
        f"per cycle of {len(traced) // pairs} queries, {pairs} traced cycles",
        f"layer self times sum to {covered:.6f} s of {query_s:.6f} s traced query time",
    ]
    notes += [f"warning: {name} not found, not traced" for name in sorted(tracer.missing)]
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}, notes


# -- entry points ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    reference = workloads.load_reference()
    hm = import_hitminor()
    cycles = workloads.build_cycles(hm, workload, seed, reference)
    patterns = {name: hm.parse_pattern(name) for name in workloads.ALL_PATTERNS}
    if trace:
        tracer, untraced, traced, pairs, overhead = traced_loop(
            hm, cycles[0], patterns, seconds
        )
        runs = untraced + traced
    else:
        queries = [q for cycle in cycles for q in cycle]
        runs, elapsed, setup_times = closed_loop(
            hm, workload, seed, queries, patterns, seconds
        )
    failures = gate(hm, runs, reference, patterns)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    if trace:
        metrics, notes = layer_metrics(tracer, traced, pairs, overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(
            workload, statistics.median(setup_times), runs, elapsed, len(failures)
        )
    print(f"{workload} seed={seed} trace={int(trace)}: closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up time and peak memory are
    that workload's alone."""
    status = 0
    for workload in workloads.SCHEDULES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            check=False,
        )
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.SCHEDULES),
                    help="one workload; all of them, one process each, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
