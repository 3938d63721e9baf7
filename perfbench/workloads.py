"""Workload schedules and the seeded inputs built from them.

A workload is a fixed schedule of slots.  Each slot names a graph family
(`spec`), the patterns to ask about and the query modes.  One pass over the
schedule is a *cycle*; the inputs of a run are `POOL_SIZE` cycles.  The seed
shuffles each random family's recorded pool, and cycle c takes the c-th
instance of that order, so every seed gives the same mix of families, sizes
and patterns, and a run that covers all cycles sees each recorded instance
once.  The queries of a cycle run in a seeded order.  This keeps the
run-to-run spread small.

Random families draw from the pool of generator seeds recorded in
`reference.json` (see `record.py`), which also holds the reference answers
the correctness gate compares against and the heuristic width of each
instance.  Wide inputs are left out on purpose: the pools only admit
instances whose heuristic width is in `WIDTH[workload]`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import generators

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Generator seeds recorded per random family, and cycles per run.
POOL_SIZE = 8

ALL_PATTERNS = ("p3", "p4", "k1s:3", "c4", "paw", "chair", "banner")
MINIMIZE = ("minimize",)
#: Desk queries mix minimize with decide at k = opt - 1 and k = opt.
DESK_MODES = ("minimize", "decide-1", "decide")

SCHEDULES: dict[str, list[tuple[tuple, tuple[str, ...], tuple[str, ...]]]] = {
    # Rank-based C4/paw DP on width 3-4: partitions and connectivity dominate.
    "rank-mid": [
        (("grid", 3, 5), ("c4", "paw"), MINIMIZE),
        (("grid", 3, 6), ("c4", "paw"), MINIMIZE),
        (("grid", 3, 8), ("c4", "paw"), MINIMIZE),
        (("grid", 4, 4), ("c4", "paw"), MINIMIZE),
        (("gnp", 15, 0.2), ("c4", "paw"), MINIMIZE),
        (("gnp", 15, 0.25), ("c4", "paw"), MINIMIZE),
        (("bw", 24, 3, 0.4), ("c4", "paw"), MINIMIZE),
    ],
    # Label DPs on 300-600 sparse vertices: the decomposition dominates,
    # partitions are never called.
    "sparse-large": [
        (("grid", 3, 100), ("p3", "p4"), MINIMIZE),
        (("grid", 3, 120), ("k1s:3",), MINIMIZE),
        (("grid", 4, 75), ("p4", "k1s:3"), MINIMIZE),
        (("bw", 300, 3, 0.4), ("p3", "k1s:3"), MINIMIZE),
        (("bw", 400, 3, 0.4), ("p4",), MINIMIZE),
        (("bw", 600, 3, 0.4), ("p4",), MINIMIZE),
        (("tree", 300), ("p3", "p4"), MINIMIZE),
        (("tree", 400), ("k1s:3",), MINIMIZE),
        (("tree", 600), ("p3",), MINIMIZE),
    ],
    # Many tiny queries: the oracle and the fixed cost of each call.
    "desk-mixed": [
        (("gnp", n, p), ALL_PATTERNS, DESK_MODES)
        for n in (8, 9, 10, 11, 12)
        for p in (0.15, 0.25, 0.35)
    ],
}

#: Admitted heuristic widths (inclusive) per workload's random families.
WIDTH = {"rank-mid": (3, 4), "sparse-large": (1, 4), "desk-mixed": (0, 12)}


@dataclass(frozen=True)
class Query:
    """One closed-loop request: parse `text`, then solve for `pattern`."""

    key: str
    n: int
    text: str
    pattern: str
    mode: str
    k: int | None


def spec_name(spec: tuple) -> str:
    return "/".join(map(str, spec))


def is_random(spec: tuple) -> bool:
    return spec[0] != "grid"


def make_graph(spec: tuple, gen_seed: int) -> tuple[int, generators.Edges]:
    """The instance of family `spec` drawn with generator seed `gen_seed`."""
    rng = random.Random(f"{spec_name(spec)}#{gen_seed}")
    kind, *params = spec
    if kind == "grid":
        return generators.grid(*params)
    if kind == "bw":
        return generators.bandwidth(*params, rng)
    if kind == "tree":
        return generators.random_tree(*params, rng)
    if kind == "gnp":
        return generators.gnp(*params, rng)
    raise ValueError(f"unknown family {kind!r}")


def instance_key(spec: tuple, gen_seed: int) -> str:
    return f"{spec_name(spec)}#{gen_seed}"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def pool(reference: dict, spec: tuple) -> list[int]:
    """Recorded generator seeds of `spec`, ascending."""
    prefix = spec_name(spec) + "#"
    seeds = sorted(int(k[len(prefix):]) for k in reference if k.startswith(prefix))
    if not seeds:
        raise KeyError(f"no recorded instances for {spec_name(spec)}")
    return seeds


def build_cycles(hm, workload: str, seed: int, reference: dict) -> list[list[Query]]:
    """The queries of a run, one list per cycle, with each graph turned into
    .gr text by `write_gr`."""
    rng = random.Random(seed)
    slots = SCHEDULES[workload]
    orders = [
        rng.sample(seeds, len(seeds))
        for seeds in (pool(reference, spec) for spec, _, _ in slots)
    ]
    texts: dict[str, str] = {}
    cycles: list[list[Query]] = []
    for c in range(POOL_SIZE):
        queries: list[Query] = []
        cycles.append(queries)
        for (spec, patterns, modes), order in zip(slots, orders):
            gen_seed = order[c % len(order)]
            key = instance_key(spec, gen_seed)
            if key not in texts:
                n, edges = make_graph(spec, gen_seed)
                texts[key] = hm.write_gr(hm.Graph(n, edges))
            n = reference[key]["n"]
            for pattern in patterns:
                opt = reference[key]["answers"][pattern]
                for mode in modes:
                    if mode == "minimize":
                        queries.append(Query(key, n, texts[key], pattern, mode, None))
                        continue
                    k = opt - 1 if mode == "decide-1" else opt
                    if k >= 0:
                        queries.append(Query(key, n, texts[key], pattern, "decide", k))
        # Interleaved, so that the partial cycle a run ends on is a fair
        # sample of the mix.
        rng.shuffle(queries)
    return cycles
