"""Connectivity-tracking solvers: deletion to C4-free and to paw-free graphs.

Both run the decision version of the problem over a nice decomposition of the
input augmented with a universal vertex v0 that belongs to every non-empty
bag.  Partial solutions carry a set of partitions of the kept bag vertices
(their connectivity classes); after every node each per-key partition set is
shrunk to a representative subset, which is what keeps the tables
single-exponential in the bag size.

Correctness rests on counters rather than on local cycle checks: a C4-free
kept graph with i vertices, j edges and l triangles that is connected
satisfies l = 1 + j - i, and a kept forest part is a tree exactly when
j = i - 1.  Connectivity itself is forced by the projection step at forget
nodes: a forgotten vertex whose block holds no bag vertex can never reach v0,
so its entries are dropped (the root, where v0 itself is forgotten, is
exempt).
"""

from __future__ import annotations

from functools import partial

from ..graph import Graph
from ..partitions import WeightedPartitionSet
from ..treedecomp import NiceTreeDecomposition
from .engine import insert_at, remove_at, run_dp


def _insert_bit(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | ((mask >> pos) << (pos + 1))


def _remove_bit(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | ((mask >> (pos + 1)) << pos)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _NodeCtx:
    """Per-node bag geometry shared by every pass of a solve."""

    __slots__ = ("bag", "v0pos", "adj", "hcache")

    def __init__(self, g: Graph, v0: int, bag: tuple[int, ...]):
        self.bag = bag
        index = {v: i for i, v in enumerate(bag)}
        self.v0pos = index.get(v0)
        # Plain adjacency among bag vertices, read from g, which has no v0:
        # v0-edges only enter the solution graph when explicitly selected.
        self.adj = [
            0 if v == v0 else sum(1 << index[w] for w in g.neighbors(v) if w in index)
            for v in bag
        ]
        self.hcache: dict[tuple[int, int], _HInfo] = {}

    def hinfo(self, kept: int, s0: int) -> _HInfo:
        key = (kept, s0)
        info = self.hcache.get(key)
        if info is None:
            info = _HInfo(self, kept, s0)
            self.hcache[key] = info
        return info


class _HInfo:
    """Bag-level view of a partial solution: kept bag vertices, their plain
    edges, and the selected v0-edges."""

    __slots__ = ("adj", "n", "m", "c3", "tri_edges", "c4_free", "is_forest")

    def __init__(self, ctx: _NodeCtx, kept: int, s0: int):
        v0pos = ctx.v0pos
        adj = [ctx.adj[p] & kept if kept >> p & 1 else 0 for p in range(len(ctx.bag))]
        if v0pos is not None and kept >> v0pos & 1:
            for p in _bits(s0):
                adj[p] |= 1 << v0pos
                adj[v0pos] |= 1 << p
        self.adj = adj
        bag = ctx.bag
        positions = _bits(kept)
        self.n = len(positions)
        edges = []
        for p in positions:
            for q in _bits(adj[p]):
                if q > p:
                    edges.append((p, q))
        self.m = len(edges)

        c3 = 0
        diamond_free = True
        tri_edges: set[tuple[int, int]] = set()
        for p, q in edges:
            common = adj[p] & adj[q]
            cnt = bin(common).count("1")
            if cnt:
                tri_edges.add(_vedge(bag[p], bag[q]))
                c3 += cnt
                if cnt >= 2:
                    diamond_free = False
        self.c3 = c3 // 3
        self.tri_edges = frozenset(tri_edges)

        cc = 0
        seen = 0
        for p in positions:
            if seen >> p & 1:
                continue
            cc += 1
            frontier = 1 << p
            while frontier:
                seen |= frontier
                nxt = 0
                for q in _bits(frontier):
                    nxt |= adj[q]
                frontier = nxt & ~seen
        self.c4_free = diamond_free and self.n - self.m + self.c3 == cc
        self.is_forest = self.m == self.n - cc


def _vedge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _project(run: _Run, t: int, wps: WeightedPartitionSet, v: int) -> WeightedPartitionSet:
    """Forget kept vertex v.  Below the root, `proj` drops every partition in
    which v's block holds no other bag vertex: that block can never reach v0.
    At the root v0 itself is forgotten, so no block is dropped there."""
    if t != run.ntd.root:
        return wps.proj([v])
    keep = [e for e in wps.ground if e != v]
    out = WeightedPartitionSet(keep)
    for p, w in wps.entries.items():
        out._min_add(p.restrict(keep), w)
    return out


class _Run:
    """State shared by one decision pass."""

    __slots__ = ("g", "v0", "ntd", "ctxs", "budget", "target_blocks", "stats", "max_pset")

    def __init__(self, g, ntd, ctxs, budget, target_blocks, stats):
        self.g = g
        self.v0 = g.n
        self.ntd = ntd
        self.ctxs = ctxs
        self.budget = budget
        #: Component count a viable partial must exhibit, from the counters.
        self.target_blocks = target_blocks
        self.stats = stats
        self.max_pset = 0

    def too_deep(self, t: int, kept_count: int) -> bool:
        if self.budget is None:
            return False
        return self.ntd.subtree_size[t] - kept_count > self.budget

    def dp(self, leaf_key, introduce, forget, join) -> dict:
        """Run the engine with this pass bound to the solver's hooks."""
        return run_dp(
            self.ntd,
            lambda: {leaf_key: WeightedPartitionSet.base()},
            partial(introduce, self),
            partial(forget, self),
            partial(join, self),
            finish=self.finish_node,
            stats=self.stats,
        )

    def finish_node(self, t: int, table: dict) -> None:
        # Every component of a viable partial holds a bag vertex (forgetting
        # the last one is blocked by the projection), so its component count
        # equals the partition's block count.  A diamond-free partial whose
        # counters disagree with that already contains the pattern and never
        # recovers; drop such entries before reducing.  The root is exempt:
        # its ground set is empty and extraction checks the counters itself.
        at_root = t == self.ntd.root
        for key, wps in list(table.items()):
            if not at_root:
                want = self.target_blocks(key)
                filtered = {
                    p: w
                    for p, w in wps.entries.items()
                    if p.block_count() == want
                }
                if not filtered:
                    del table[key]
                    continue
                if len(filtered) != len(wps.entries):
                    wps = WeightedPartitionSet(wps.ground, filtered)
            reduced = wps.reduce()
            assert len(reduced) <= 1 << len(reduced.ground)
            table[key] = reduced
            if len(reduced) > self.max_pset:
                self.max_pset = len(reduced)


def _accumulate(table: dict, key, wps: WeightedPartitionSet) -> None:
    if not wps.entries:
        return
    prev = table.get(key)
    table[key] = wps if prev is None else prev.union(wps)


def _deepen(g, ntd, stats, budget, one_pass, target_blocks) -> int | None:
    """The budget loop of solve_c4 and solve_paw.

    With a budget, one pass decides it.  Without one, budgets 0, 1, ... are
    tried in turn, so the first pass that finds a solution finds the minimum.
    """
    v0 = g.n
    for t, bag in enumerate(ntd.bags):
        if bag and v0 not in bag:
            raise ValueError(
                "decomposition lacks the universal-vertex property: "
                f"non-empty bag at node {t} misses vertex {v0}"
            )
    ctxs = [_NodeCtx(g, v0, bag) for bag in ntd.bags]
    for k in range(g.n + 1) if budget is None else (budget,):
        run = _Run(g, ntd, ctxs, k, target_blocks, stats)
        result = one_pass(run)
        if stats is not None:
            stats["max_partition_set_size"] = max(
                stats.get("max_partition_set_size", 0), run.max_pset
            )
        if result is not None or budget is not None:
            return result
    raise AssertionError("deleting every vertex is always feasible")


# ---------------------------------------------------------------------------
# Deletion to C4-topological-minor-free.
#
# Key: (kept bag mask, selected-v0-edge mask, edges currently in a triangle,
# kept vertices, kept edges, kept triangles).  The edge set uses vertex-id
# pairs so it survives bag changes untouched.


def solve_c4(
    g: Graph,
    ntd: NiceTreeDecomposition,
    stats: dict | None = None,
    budget: int | None = None,
) -> int | None:
    """Minimum deletions making g C4-TM-free.

    `ntd` must be a nice decomposition of g plus a universal vertex (id g.n)
    present in every non-empty bag.  With a budget, returns the minimum if it
    is at most the budget, else None; without one, iterates budgets upward
    and always returns the minimum.
    """
    return _deepen(g, ntd, stats, budget, _c4_pass, _c4_blocks)


def _c4_blocks(key) -> int:
    _, _, _, i, j, l = key
    return i - j + l


def _c4_pass(run: _Run) -> int | None:
    root_table = run.dp(
        (0, 0, frozenset(), 0, 0, 0), _c4_introduce, _c4_forget, _c4_join
    )
    best = None
    for (kept, s0, redges, i, j, l), wps in root_table.items():
        assert kept == 0 and s0 == 0 and not redges
        if l != 1 + j - i or not wps.entries:
            continue
        k = run.g.n + 1 - i
        if best is None or k < best:
            best = k
    return best


def _c4_introduce(run: _Run, t: int, pos: int, child: dict) -> dict:
    ctx = run.ctxs[t]
    v = run.ntd.vertex[t]
    v0 = run.v0
    out: dict = {}
    for (kept_c, s0_c, redges, i, j, l), wps in child.items():
        kept = _insert_bit(kept_c, pos)
        s0 = _insert_bit(s0_c, pos)
        if v != v0 and not run.too_deep(t, i):
            _accumulate(out, (kept, s0, redges, i, j, l), wps)
        if run.too_deep(t, i + 1):
            continue
        choices = (False,) if v == v0 else (False, True)
        for pick_v0_edge in choices:
            # Keeping selected v0-edges pairwise non-adjacent loses nothing:
            # one edge per final component always suffices, and vertices of
            # different components are never adjacent.
            if pick_v0_edge and ctx.adj[pos] & kept & s0:
                continue
            kept_p = kept | 1 << pos
            s0_p = s0 | (1 << pos if pick_v0_edge else 0)
            info = ctx.hinfo(kept_p, s0_p)
            if not info.c4_free:
                continue
            nbr_pos = _bits(info.adj[pos])
            nbr_vs = [ctx.bag[q] for q in nbr_pos]
            new_tris: set[tuple[int, int]] = set()
            d3 = 0
            for a_i, qa in enumerate(nbr_pos):
                for qb in nbr_pos[a_i + 1 :]:
                    if info.adj[qa] >> qb & 1:
                        d3 += 1
                        new_tris.add(_vedge(v, ctx.bag[qa]))
                        new_tris.add(_vedge(v, ctx.bag[qb]))
                        new_tris.add(_vedge(ctx.bag[qa], ctx.bag[qb]))
            # An edge gaining a second triangle would form a diamond.
            if any(e in redges for e in new_tris):
                continue
            key = (
                kept_p,
                s0_p,
                redges | new_tris,
                i + 1,
                j + len(nbr_vs),
                l + d3,
            )
            _accumulate(out, key, wps.ins([v]).glue(nbr_vs + [v]))
    return out


def _c4_forget(run: _Run, t: int, cpos: int, child: dict) -> dict:
    v = run.ntd.vertex[t]
    out: dict = {}
    for (kept_c, s0_c, redges, i, j, l), wps in child.items():
        kept = _remove_bit(kept_c, cpos)
        s0 = _remove_bit(s0_c, cpos)
        if not kept_c >> cpos & 1:
            _accumulate(out, (kept, s0, redges, i, j, l), wps)
            continue
        rem = frozenset(e for e in redges if v not in e)
        _accumulate(out, (kept, s0, rem, i, j, l), _project(run, t, wps, v))
    return out


def _c4_join(run: _Run, t: int, left: dict, right: dict) -> dict:
    ctx = run.ctxs[t]
    grouped: dict[tuple[int, int], list] = {}
    for (kept, s0, redges, i, j, l), wps in right.items():
        grouped.setdefault((kept, s0), []).append((redges, i, j, l, wps))
    out: dict = {}
    for (kept, s0, redges1, i1, j1, l1), wps1 in left.items():
        bucket = grouped.get((kept, s0))
        if not bucket:
            continue
        info = ctx.hinfo(kept, s0)
        nbag = bin(kept).count("1")
        for redges2, i2, j2, l2, wps2 in bucket:
            # Triangles claimed by both sides must be exactly the bag-level
            # ones; anything else would glue two triangles onto one edge.
            if redges1 & redges2 != info.tri_edges:
                continue
            i = i1 + i2 - nbag
            if run.too_deep(t, i):
                continue
            key = (
                kept,
                s0,
                redges1 | redges2,
                i,
                j1 + j2 - info.m,
                l1 + l2 - info.c3,
            )
            _accumulate(out, key, wps1.join(wps2))
    return out


# ---------------------------------------------------------------------------
# Deletion to paw-topological-minor-free.
#
# Per-vertex labels: 0 deleted, 1 forest part, 2/3/4 cycle part with current
# internal degree 0/1/2.  Key: (labels, selected-v0-edge mask, forest
# vertices, forest edges, cycle vertices).

_DEL, _FOREST, _CYC0, _CYC1, _CYC2 = range(5)


def solve_paw(
    g: Graph,
    ntd: NiceTreeDecomposition,
    stats: dict | None = None,
    budget: int | None = None,
) -> int | None:
    """Minimum deletions making g paw-TM-free; see solve_c4 for the contract."""
    return _deepen(g, ntd, stats, budget, _paw_pass, _paw_blocks)


def _paw_blocks(key) -> int:
    _, _, i, j, _ = key
    return i - j


def _forest_mask(labels: tuple[int, ...]) -> int:
    return sum(1 << p for p, x in enumerate(labels) if x == _FOREST)


def _paw_pass(run: _Run) -> int | None:
    root_table = run.dp(((), 0, 0, 0, 0), _paw_introduce, _paw_forget, _paw_join)
    best = None
    for (labels, s0, i, j, l), wps in root_table.items():
        assert labels == () and s0 == 0
        if j != i - 1 or not wps.entries:
            continue
        k = run.g.n + 1 - (i + l)
        if best is None or k < best:
            best = k
    return best


def _paw_introduce(run: _Run, t: int, pos: int, child: dict) -> dict:
    ctx = run.ctxs[t]
    v = run.ntd.vertex[t]
    is_v0 = v == run.v0
    plain_nbrs = [q if q < pos else q - 1 for q in _bits(ctx.adj[pos])]
    out: dict = {}
    for (labels_c, s0_c, i, j, l), wps in child.items():
        s0 = _insert_bit(s0_c, pos)
        if not is_v0 and not run.too_deep(t, i + l):
            _accumulate(
                out, (insert_at(labels_c, pos, _DEL), s0, i, j, l), wps
            )

        forest_adjacent = [q for q in plain_nbrs if labels_c[q] == _FOREST]
        cycle_adjacent = [q for q in plain_nbrs if labels_c[q] >= _CYC0]

        # Forest case: no plain edge may run into the cycle part.
        if not cycle_adjacent and not run.too_deep(t, i + 1 + l):
            choices = (False,) if is_v0 else (False, True)
            for pick_v0_edge in choices:
                labels = insert_at(labels_c, pos, _FOREST)
                s0_p = s0 | (1 << pos if pick_v0_edge else 0)
                info = ctx.hinfo(_forest_mask(labels), s0_p)
                if not info.is_forest:
                    continue
                nbr_vs = [ctx.bag[q] for q in _bits(info.adj[pos])]
                key = (labels, s0_p, i + 1, j + len(nbr_vs), l)
                _accumulate(out, key, wps.ins([v]).glue(nbr_vs + [v]))

        # Cycle case: neighbors already in the cycle part gain one degree.
        if (
            not is_v0
            and not forest_adjacent
            and len(cycle_adjacent) <= 2
            and all(labels_c[q] in (_CYC0, _CYC1) for q in cycle_adjacent)
            and not run.too_deep(t, i + l + 1)
        ):
            upd = list(labels_c)
            for q in cycle_adjacent:
                upd[q] += 1
            labels = insert_at(
                tuple(upd), pos, _CYC0 + len(cycle_adjacent)
            )
            _accumulate(out, (labels, s0, i, j, l + 1), wps)
    return out


def _paw_forget(run: _Run, t: int, cpos: int, child: dict) -> dict:
    v = run.ntd.vertex[t]
    out: dict = {}
    for (labels_c, s0_c, i, j, l), wps in child.items():
        label = labels_c[cpos]
        if label in (_CYC0, _CYC1):
            continue  # a cycle vertex leaves the bag only once closed
        labels = remove_at(labels_c, cpos)
        s0 = _remove_bit(s0_c, cpos)
        if label == _FOREST:
            wps = _project(run, t, wps, v)
        _accumulate(out, (labels, s0, i, j, l), wps)
    return out


def _paw_join(run: _Run, t: int, left: dict, right: dict) -> dict:
    ctx = run.ctxs[t]
    def kind_key(labels: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(min(x, _CYC0) for x in labels)

    grouped: dict[tuple, list] = {}
    for (labels, s0, i, j, l), wps in right.items():
        grouped.setdefault((kind_key(labels), s0), []).append(
            (labels, i, j, l, wps)
        )
    out: dict = {}
    for (labels1, s0, i1, j1, l1), wps1 in left.items():
        bucket = grouped.get((kind_key(labels1), s0))
        if not bucket:
            continue
        cyc_positions = [p for p, x in enumerate(labels1) if x >= _CYC0]
        cyc_mask = sum(1 << p for p in cyc_positions)
        info = ctx.hinfo(_forest_mask(labels1), s0)
        n_forest = sum(1 for x in labels1 if x == _FOREST)
        for labels2, i2, j2, l2, wps2 in bucket:
            merged = list(labels1)
            ok = True
            for p in cyc_positions:
                # Cycle edges inside the bag are seen by both children.
                shared = bin(ctx.adj[p] & cyc_mask).count("1")
                z = (labels1[p] - _CYC0) + (labels2[p] - _CYC0) - shared
                if not 0 <= z <= 2:
                    ok = False
                    break
                merged[p] = _CYC0 + z
            if not ok:
                continue
            i = i1 + i2 - n_forest
            l = l1 + l2 - len(cyc_positions)
            if run.too_deep(t, i + l):
                continue
            key = (tuple(merged), s0, i, j1 + j2 - info.m, l)
            _accumulate(out, key, wps1.join(wps2))
    return out
