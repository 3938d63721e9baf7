"""Seeded graph generators for the benchmark workloads.

Each generator returns the edge list of a graph on vertices 0..n-1 and draws
only from the `random.Random` it is given, so one seed always gives the same
graph.  Only `Random.random` and `Random.randrange` are used; both are stable
across CPython versions.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def grid(width: int, height: int) -> tuple[int, Edges]:
    """width x height grid; vertex (x, y) is x * height + y.  Treewidth is
    min(width, height)."""
    edges = []
    for x in range(width):
        for y in range(height):
            v = x * height + y
            if y + 1 < height:
                edges.append((v, v + 1))
            if x + 1 < width:
                edges.append((v, v + height))
    return width * height, edges


def bandwidth(n: int, b: int, p: float, rng: random.Random) -> tuple[int, Edges]:
    """Connected graph of bandwidth at most b: the path 0-1-...-(n-1) plus
    each pair at distance 2..b with probability p.  The bags {i, ..., i+b}
    form a path decomposition, so treewidth is at most b."""
    edges = []
    for u in range(n):
        for d in range(1, b + 1):
            v = u + d
            if v < n and (d == 1 or rng.random() < p):
                edges.append((u, v))
    return n, edges


def random_tree(n: int, rng: random.Random) -> tuple[int, Edges]:
    """Random recursive tree: vertex i hangs below a uniform earlier vertex."""
    return n, [(rng.randrange(i), i) for i in range(1, n)]


def gnp(n: int, p: float, rng: random.Random) -> tuple[int, Edges]:
    """Erdos-Renyi G(n, p)."""
    return n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
