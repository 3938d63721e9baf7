"""Shared test corpora and independent reimplementations.

The naive partition operators below are written set-of-frozensets style,
straight from their defining formulas, so they share no code with the
package implementations they check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from hitminor import Graph, Partition, WeightedPartitionSet


def from_nx(gx) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(gx.nodes()))}
    return Graph(
        gx.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in gx.edges()]
    )


def to_nx(g: Graph):
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


class C4Counts(NamedTuple):
    """The terms of the C4 counting identity, computed by networkx."""

    n: int
    m: int
    triangles: int
    components: int
    diamond: bool  # some edge lies in two triangles

    @property
    def identity_holds(self) -> bool:
        """Diamond-freeness together with n - m + triangles = components,
        which characterizes the C4-topological-minor-free graphs."""
        return not self.diamond and self.n - self.m + self.triangles == self.components


def c4_counts(g: Graph) -> C4Counts:
    import networkx as nx

    gx = to_nx(g)
    return C4Counts(
        n=g.n,
        m=g.m,
        triangles=sum(nx.triangles(gx).values()) // 3,
        components=nx.number_connected_components(gx),
        diamond=any(
            len(list(nx.common_neighbors(gx, u, v))) >= 2 for u, v in gx.edges()
        ),
    )


@lru_cache(maxsize=None)
def atlas_classes(max_n: int) -> tuple[Graph, ...]:
    """All isomorphism classes of graphs with at most max_n <= 7 vertices."""
    from networkx.generators.atlas import graph_atlas_g

    return tuple(
        from_nx(gx) for gx in graph_atlas_g() if gx.number_of_nodes() <= max_n
    )


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bandwidth_graph(n: int, b: int, p: float, rng: random.Random) -> Graph:
    """The path 0-1-...-(n-1) plus each pair at distance 2..b with
    probability p: bandwidth, hence treewidth, at most b."""
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


# ---------------------------------------------------------------------------
# Naive partition algebra: partitions as frozensets of frozensets.


def blocksof(p: Partition) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(b) for b in p.blocks())


def from_blockset(blocks: frozenset[frozenset[int]]) -> Partition:
    return Partition.from_blocks([sorted(b) for b in blocks])


def naive_coarsens(p, q) -> bool:
    """p is coarser: every block of q inside a block of p."""
    return all(any(bq <= bp for bp in p) for bq in q)


def naive_meet(p, q):
    """Finest partition coarser than both: close the union of relations."""
    blocks = [set(b) for b in p] + [set(b) for b in q]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] and blocks[j] and blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    blocks[j] = set()
                    changed = True
    return frozenset(frozenset(b) for b in blocks if b)


def naive_restrict(p, xs):
    xs = frozenset(xs)
    return frozenset(b & xs for b in p if b & xs)


def naive_lift(p, xs):
    ground = frozenset().union(*p) if p else frozenset()
    return p | frozenset(frozenset([x]) for x in frozenset(xs) - ground)


def naive_merged(ground, s):
    ground, s = frozenset(ground), frozenset(s)
    return frozenset(
        frozenset([x]) for x in ground - s
    ) | (frozenset([s]) if s else frozenset())


def naive_rmc(pairs):
    best = {}
    for blocks, w in pairs:
        if blocks not in best or w < best[blocks]:
            best[blocks] = w
    return {(blocks, w) for blocks, w in best.items()}


def naive_union(a, b):
    return naive_rmc(list(a) + list(b))


def naive_ins(xs, a):
    return naive_rmc((naive_lift(p, frozenset(p_ground(p)) | frozenset(xs)), w) for p, w in a)


def p_ground(p):
    return frozenset().union(*p) if p else frozenset()


def naive_shift(w0, a):
    return {(p, w + w0) for p, w in a}


def naive_glue(s, a):
    s = frozenset(s)
    out = []
    for p, w in a:
        target = p_ground(p) | s
        lifted = naive_lift(p, target)
        merged = naive_meet(lifted, naive_merged(target, s)) if s else lifted
        out.append((merged, w))
    return naive_rmc(out)


def naive_proj(xs, a):
    xs = frozenset(xs)
    out = []
    for p, w in a:
        comp = p_ground(p) - xs
        ok = all(
            any(e2 in b for e2 in comp)
            for e in xs
            for b in p
            if e in b
        )
        if ok:
            out.append((naive_restrict(p, comp), w))
    return naive_rmc(out)


def naive_join_op(a, b):
    out = []
    for p, w1 in a:
        for q, w2 in b:
            target = p_ground(p) | p_ground(q)
            out.append(
                (naive_meet(naive_lift(p, target), naive_lift(q, target)), w1 + w2)
            )
    return naive_rmc(out)


def naive_opt(q, a):
    ground = p_ground(q)
    best = None
    for p, w in a:
        if naive_meet(p, q) == (frozenset([frozenset(ground)]) if ground else frozenset()):
            if best is None or w < best:
                best = w
    return best


def wps_to_naive(wps: WeightedPartitionSet):
    return {(blocksof(p), w) for p, w in wps.entries.items()}


def random_wps(
    ground: tuple[int, ...], size: int, rng: random.Random, max_w: int = 20
) -> WeightedPartitionSet:
    from hitminor import all_partitions

    universe = list(all_partitions(ground))
    pairs = [
        (rng.choice(universe), rng.randrange(max_w)) for _ in range(size)
    ]
    return WeightedPartitionSet.from_pairs(ground, pairs)
