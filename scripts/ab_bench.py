"""Benchmark this checkout against a git revision, in alternating runs.

    python scripts/ab_bench.py REV [--workload rank-mid] [--pairs 10] [--out FILE]

Exports REV (`git archive`) into a temporary directory, then runs N pairs of
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

With `--out FILE` the same summary is also written as JSON, under the
workload's name in FILE's `workloads` object; the other workloads already
in FILE are kept, so one FILE collects one run per workload.

Only the standard library is used, and nothing under `perfbench/` changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per metric: parent and change medians, the parent's interquartile
    range (None for one pair), the median change/parent ratio (None without
    a nonzero parent value) and the pairs in which the change was better.
    `metrics` are the `end_to_end` entries of BENCHMARK.json; `parent` and
    `change` the runs' `metrics` objects, pair by pair."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        before = [run[name]["value"] for run in parent]
        after = [run[name]["value"] for run in change]
        ratios = [a / b for a, b in zip(after, before) if b]
        sign = 1 if spec["better"] == "higher" else -1
        iqr = None
        if len(before) > 1:
            q1, _, q3 = statistics.quantiles(before, n=4)
            iqr = q3 - q1
        out[name] = {
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_iqr": iqr,
            "ratio_median": statistics.median(ratios) if ratios else None,
            "better": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
            "pairs": len(before),
        }
    return out


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """`summary` as one line per metric, after a header line."""
    lines = [
        f"{'metric':16s} {'parent':>10s} {'change':>10s} {'IQR':>10s} {'ratio':>7s}  better"
    ]
    for name, row in summary(metrics, parent, change).items():
        iqr = f"{'-':>10s}" if row["parent_iqr"] is None else f"{row['parent_iqr']:10.4g}"
        ratio = "      -" if row["ratio_median"] is None else f"{row['ratio_median']:7.3f}"
        lines.append(
            f"{name:16s} {row['parent_median']:10.4g} {row['change_median']:10.4g} {iqr}"
            f" {ratio}  {row['better']}/{row['pairs']}"
        )
    return lines


def failures(runs: list[dict]) -> tuple[int, int]:
    """Failed and attempted queries summed over `runs`, the runs' result
    objects."""
    return (sum(run.get("failed", 0) for run in runs),
            sum(run.get("attempted", 0) for run in runs))


def failure_line(parent: list[dict], change: list[dict]) -> str:
    """Each side's failed / attempted queries over all its runs, and the
    failed share."""
    parts = []
    for side, runs in (("parent", parent), ("change", change)):
        failed, attempted = failures(runs)
        share = failed / attempted if attempted else 0.0
        parts.append(f"{side} {failed}/{attempted} ({share:.4g})")
    return "failed/attempted: " + ", ".join(parts)


def write_summary(
    path: Path, workload: str, rev: str, metrics: list[dict], parent: list[dict],
    change: list[dict],
) -> None:
    """Record one workload's comparison in the JSON file `path`, keeping
    the workloads already there.  `parent` and `change` are the runs'
    result objects, pair by pair; `rev` names the parent commit."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("schema", "hitminor.ab_bench.v1")
    doc["machine"] = {
        "cpus": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
    }
    doc.setdefault("workloads", {})[workload] = {
        "parent": rev,
        "seconds": SECONDS,
        "pairs": len(parent),
        "metrics": summary(metrics, *([run["metrics"] for run in runs] for runs in (parent, change))),
        "queries": {
            side: dict(zip(("failed", "attempted"), failures(runs)))
            for side, runs in (("parent", parent), ("change", change))
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the parent revision, e.g. HEAD or HEAD~1")
    ap.add_argument("--workload", default="rank-mid")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="also record the summary in this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rev = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    parent: list[dict] = []
    change: list[dict] = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        with subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE) as archive:
            subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.returncode:
            ap.error(f"git archive {rev} failed")
        for seed in range(1, args.pairs + 1):
            sides = [("parent", tree, parent), ("change", ROOT, change)]
            for side, checkout, runs in sides if seed % 2 else sides[::-1]:
                result = bench(checkout, args.workload, seed)
                ok &= result["correct"] and bool(result["metrics"])
                runs.append(result)
                rate = result["metrics"].get("instances_per_s", {}).get("value")
                print(f"pair {seed} {side}: instances_per_s={rate}", flush=True)
    print(failure_line(parent, change))
    if not ok:
        print("error: a run failed or gave a wrong answer", file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.pairs} pairs of {SECONDS} s, {args.rev} vs working tree")
    before, after = ([run["metrics"] for run in runs] for runs in (parent, change))
    for line in summarize(metrics, before, after):
        print(line)
    if args.out is not None:
        write_summary(args.out, args.workload, rev, metrics, parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
