"""Print the heuristic tree decomposition of a fixed, seeded graph set, and
its nice form, one line per graph.

Run it on two checkouts and diff the outputs to see which graphs a change
to `heuristic_td` or `make_nice` touches, and how their width and node
count move:

    PYTHONPATH=src python scripts/td_snapshot.py > td.txt

Each line is: name, n, m, width, the MMD+ lower bound on treewidth that
the decomposition carries (the width is proven optimal when the two are
equal), node count, a SHA-256 prefix of the bags (each sorted, in node
order) and the tree edges (in the order returned), and a SHA-256 prefix of
`make_nice(td, g)`: its kinds, vertices, bags and children, in node order.
Graphs: the instances of `answer_snapshot.py` (200 G(n <= 14), the ten
frozen acceptance instances, the 3x12 grid, G(18, 0.3), the 2x40, 3x40 and
4x40 grids), 100 G(n <= 40, p <= 0.5) from `random.Random(2025)`, grids of
up to 600 vertices, bandwidth-2..4 graphs and random recursive trees of
50-600 vertices.
"""

from __future__ import annotations

import hashlib
import random

from answer_snapshot import instances as answer_instances
from answer_snapshot import random_graph
from hitminor import Graph, heuristic_td, make_nice
from hitminor.graph import grid_graph


def bandwidth_graph(n: int, b: int, p: float, rng: random.Random) -> Graph:
    """The path 0-1-...-(n-1) plus each pair at distance 2..b with
    probability p."""
    return Graph(
        n,
        [
            (u, u + d)
            for u in range(n)
            for d in range(1, b + 1)
            if u + d < n and (d == 1 or rng.random() < p)
        ],
    )


def random_tree(n: int, rng: random.Random) -> Graph:
    """Random recursive tree: vertex i hangs below a uniform earlier vertex."""
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def graphs():
    for name, g, _ in answer_instances():
        yield name, g
    rng = random.Random(2025)
    for idx in range(100):
        n = rng.randrange(0, 41)
        yield f"gnp40#{idx}", random_graph(n, rng.random() * 0.5, rng)
    for w in (1, 2, 3, 4, 5):
        for h in (10, 50, 75, 100, 120):
            if w * h <= 600:
                yield f"grid{w}x{h}", grid_graph(w, h)
    for n in (50, 300, 400, 600):
        for b in (2, 3, 4):
            for seed in range(3):
                g = bandwidth_graph(n, b, 0.4, random.Random(seed))
                yield f"bw{n}-{b}-seed{seed}", g
        for seed in range(5):
            yield f"tree{n}-seed{seed}", random_tree(n, random.Random(seed))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def main() -> None:
    for name, g in graphs():
        td = heuristic_td(g)
        nice = make_nice(td, g)
        print(
            name, g.n, g.m, td.width, td.lower_bound, td.num_nodes,
            digest(([tuple(sorted(b)) for b in td.bags], td.edges)),
            digest((nice.kinds, nice.vertex, nice.bags, nice.children)),
        )


if __name__ == "__main__":
    main()
