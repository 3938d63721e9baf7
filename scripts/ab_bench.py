"""Benchmark this checkout against a git revision, in alternating runs.

    python scripts/ab_bench.py REV [--workload rank-mid] [--pairs 10]

Checks REV out into a temporary git worktree, then runs N pairs of
`perfbench/run.py --workload W --seconds 30 --trace 0 --seed i` for
i = 1..N, one on REV (the parent) and one on this checkout's working tree
(the change), the parent first in odd pairs and the change first in even
ones.  The machine's speed drifts over minutes, so only runs taken side by
side like this are compared.  For each end-to-end metric of
`BENCHMARK.json` it prints both medians, the interquartile range of the
parent's runs, the median of the per-pair change/parent ratios and in how
many pairs the change was better, then each side's failed and attempted
queries summed over its runs (a change must not raise the failure share).
The exit code is 1 when a run failed or gave a wrong answer.

Only the standard library is used, and nothing under `perfbench/` changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The run length of BENCHMARK.json, the same on both sides.
SECONDS = 30


def bench(checkout: Path, workload: str, seed: int) -> dict:
    """The last-line JSON object of one `perfbench/run.py` run in `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: parent and change medians, the parent's
    interquartile range, the median change/parent ratio and the pairs in
    which the change was better.  `metrics` are the
    `end_to_end` entries of BENCHMARK.json; `parent` and `change` the runs'
    `metrics` objects, pair by pair."""
    lines = [
        f"{'metric':16s} {'parent':>10s} {'change':>10s} {'IQR':>10s} {'ratio':>7s}  better"
    ]
    for spec in metrics:
        name = spec["name"]
        before = [run[name]["value"] for run in parent]
        after = [run[name]["value"] for run in change]
        ratios = [a / b for a, b in zip(after, before) if b]
        sign = 1 if spec["better"] == "higher" else -1
        better = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        ratio = f"{statistics.median(ratios):7.3f}" if ratios else "      -"
        if len(before) > 1:
            q1, _, q3 = statistics.quantiles(before, n=4)
            iqr = f"{q3 - q1:10.4g}"
        else:
            iqr = f"{'-':>10s}"
        lines.append(
            f"{name:16s} {statistics.median(before):10.4g} "
            f"{statistics.median(after):10.4g} {iqr} {ratio}  {better}/{len(before)}"
        )
    return lines


def failure_line(parent: list[dict], change: list[dict]) -> str:
    """Each side's failed / attempted queries over all its runs, from the
    runs' result objects, and the failed share."""
    parts = []
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run.get("failed", 0) for run in runs)
        attempted = sum(run.get("attempted", 0) for run in runs)
        share = failed / attempted if attempted else 0.0
        parts.append(f"{side} {failed}/{attempted} ({share:.4g})")
    return "failed/attempted: " + ", ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the parent revision, e.g. HEAD or HEAD~1")
    ap.add_argument("--workload", default="rank-mid")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent: list[dict] = []
    change: list[dict] = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(tree), args.rev],
            cwd=ROOT, check=True,
        )
        try:
            for seed in range(1, args.pairs + 1):
                sides = [("parent", tree, parent), ("change", ROOT, change)]
                for side, checkout, runs in sides if seed % 2 else sides[::-1]:
                    result = bench(checkout, args.workload, seed)
                    ok &= result["correct"] and bool(result["metrics"])
                    runs.append(result)
                    rate = result["metrics"].get("instances_per_s", {}).get("value")
                    print(f"pair {seed} {side}: instances_per_s={rate}", flush=True)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=False
            )
    print(failure_line(parent, change))
    if not ok:
        print("error: a run failed or gave a wrong answer", file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.pairs} pairs of {SECONDS} s, {args.rev} vs working tree")
    before, after = ([run["metrics"] for run in runs] for runs in (parent, change))
    for line in summarize(metrics, before, after):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
