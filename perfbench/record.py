"""Record the instance pools and reference answers in reference.json.

    python3 perfbench/record.py

For every family in the workload schedules this draws generator seeds
0, 1, 2, ... and admits an instance when its heuristic width lies in the
workload's `WIDTH` range, until `POOL_SIZE` are admitted (grids have one
instance).  Answers for instances with at most `DELETION_LIMIT` vertices come
from `min_deletion_bruteforce`, and the table solver must agree with it;
larger instances record the table solver's answer at the current commit.
Every run re-records all schedules from scratch and rewrites the file.  Run
it again only when a schedule changes: the gate trusts these answers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def record_instance(hm, spec: tuple, gen_seed: int, patterns: list[str], widths):
    n, edges = workloads.make_graph(spec, gen_seed)
    g = hm.Graph(n, edges)
    width = hm.heuristic_td(g).width
    lo, hi = widths
    if workloads.is_random(spec) and not lo <= width <= hi:
        return None
    answers = {}
    for name in patterns:
        pattern = hm.parse_pattern(name)
        table = pattern.kind in hm.patterns.SOLVER_KINDS
        if table:
            answers[name] = hm.solve(hm.SolveRequest(graph=g, pattern=pattern)).answer
        if n <= hm.oracle.DELETION_LIMIT:
            exact = hm.min_deletion_bruteforce(g, pattern)
            if table and answers[name] != exact:
                raise SystemExit(
                    f"{workloads.instance_key(spec, gen_seed)} {name}: "
                    f"solver {answers[name]} != oracle {exact}"
                )
            answers[name] = exact
    return {"n": n, "width": width, "answers": answers}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import hitminor as hm

    instances = {}
    for workload in sorted(workloads.SCHEDULES):
        patterns_of: dict[tuple, list[str]] = {}
        for spec, patterns, _ in workloads.SCHEDULES[workload]:
            merged = patterns_of.setdefault(spec, [])
            merged.extend(p for p in patterns if p not in merged)
        for spec, patterns in patterns_of.items():
            want = workloads.POOL_SIZE if workloads.is_random(spec) else 1
            started = time.perf_counter()
            admitted, gen_seed = 0, 0
            while admitted < want:
                entry = record_instance(
                    hm, spec, gen_seed, patterns, workloads.WIDTH[workload]
                )
                if entry is not None:
                    instances[workloads.instance_key(spec, gen_seed)] = entry
                    admitted += 1
                gen_seed += 1
            print(
                f"{workload} {workloads.spec_name(spec)}: {admitted} admitted of "
                f"{gen_seed} drawn in {time.perf_counter() - started:.1f} s",
                flush=True,
            )
    lines = [
        f"  {json.dumps(key)}: {json.dumps(instances[key], sort_keys=True)}"
        for key in sorted(instances)
    ]
    text = '{"instances": {\n' + ",\n".join(lines) + "\n}}\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
