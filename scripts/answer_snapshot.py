"""Print the answers and table sizes of every table solver on a fixed, seeded
instance set, one line per instance and pattern.

Run it on two checkouts and diff the outputs to check that a change to the
solvers keeps every answer:

    PYTHONPATH=src python scripts/answer_snapshot.py > answers.txt

P3, P4, K1,3 and K1,4 are solved in minimize mode only, although in decide
mode their budget prunes tables too, as it does for every table solver.  C4
and paw are solved in minimize mode, then decided through
`solve_c4`/`solve_paw` with budget opt-1 and opt (the returned value, not
just its truth, is printed).  Instances: 200 graphs G(n <= 14,
p <= 0.6) drawn from `random.Random(2024)`, the ten frozen instances of the
acceptance tests, the 3x12 grid and G(18, 0.3) drawn from `random.Random(7)`;
the label solvers also get the 2x40, 3x40 and 4x40 grids.  Lines starting
with '#' carry, for the minimize run and each decide run, the largest table
(`max_table_size`), the entries stored over all nodes (`table_entries`, the
DP's total work) and, for C4 and paw, the largest partition set; C4 and paw
count their tables in stored (key, code) entries.  A change may
legitimately alter these lines.  `tests/test_scripts.py` pins a digest of
the answer lines and one of the whole output.  To compare two checkouts'
table sizes, run this script against each checkout's `src/`.
"""

from __future__ import annotations

import random

from hitminor import Graph, SolveRequest, heuristic_td, make_nice, parse_pattern, solve
from hitminor.graph import grid_graph
from hitminor.solvers import solve_c4, solve_paw

FROZEN = [
    (8, ((0, 5), (1, 3), (1, 7), (2, 3), (3, 4), (4, 6))),
    (9, ((0, 3), (0, 5), (0, 7), (1, 5), (2, 4), (2, 6), (2, 8), (3, 5), (3, 7), (3, 8), (4, 8), (5, 6), (7, 8))),
    (9, ((0, 2), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (1, 8), (2, 8), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7), (6, 8), (7, 8))),
    (7, ((0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6))),
    (10, ((0, 2), (0, 4), (0, 5), (0, 6), (0, 9), (1, 4), (1, 8), (2, 9), (3, 5), (3, 7), (3, 9), (4, 6), (4, 7), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9), (7, 9), (8, 9))),
    (10, ((0, 1), (0, 4), (0, 6), (0, 8), (1, 5), (1, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 7), (4, 8), (4, 9), (5, 6), (5, 8), (6, 8), (7, 8), (7, 9))),
    (9, ((0, 1), (0, 3), (0, 4), (0, 8), (1, 3), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (2, 8), (3, 4), (3, 5), (3, 8), (4, 6), (5, 6))),
    (9, ((0, 7), (0, 8), (1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6), (5, 7))),
    (8, ((0, 3), (0, 4), (0, 5), (0, 7), (1, 3), (1, 6), (2, 3), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7))),
    (6, ((0, 4), (1, 2), (1, 5))),
]

LABEL_PATTERNS = ("p3", "p4", "k1s:3", "k1s:4")


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def instances():
    """(name, graph, whether C4 and paw are run on it)."""
    rng = random.Random(2024)
    for idx in range(200):
        n = rng.randrange(1, 15)
        yield f"random#{idx}", random_graph(n, rng.random() * 0.6, rng), True
    for idx, (n, edges) in enumerate(FROZEN):
        yield f"frozen#{idx}", Graph(n, edges), True
    yield "grid3x12", grid_graph(3, 12), True
    yield "gnp18-0.3-seed7", random_graph(18, 0.3, random.Random(7)), True
    for width in (2, 3, 4):
        yield f"grid{width}x40", grid_graph(width, 40), False


def sizes(name: str, pname: str, runs: list[dict], keys: tuple[str, ...]) -> str:
    fields = ["/".join(str(st[key]) for st in runs) for key in keys]
    return " ".join(["#", name, pname] + [f"{k}={v}" for k, v in zip(keys, fields)])


def budgets(opt: int) -> list[int]:
    return [k for k in (opt - 1, opt) if k >= 0]


def main() -> None:
    for name, g, connectivity in instances():
        for pname in LABEL_PATTERNS:
            res = solve(SolveRequest(graph=g, pattern=parse_pattern(pname)))
            print(name, g.n, g.m, pname, f"min={res.answer}")
            print(
                sizes(name, pname, [res.stats], ("max_table_size", "table_entries"))
            )
        if not connectivity:
            continue
        ntd = make_nice(heuristic_td(g), g)
        for pname, runner in (("c4", solve_c4), ("paw", solve_paw)):
            res = solve(SolveRequest(graph=g, pattern=parse_pattern(pname)))
            runs, decided = [res.stats], []
            for k in budgets(res.answer):
                stats: dict = {}
                decided.append(f"budget{k}={runner(g, ntd, stats=stats, budget=k)}")
                runs.append(stats)
            print(name, g.n, g.m, pname, f"min={res.answer}", *decided)
            keys = ("max_table_size", "table_entries", "max_partition_set_size")
            print(sizes(name, pname, runs, keys))


if __name__ == "__main__":
    main()
