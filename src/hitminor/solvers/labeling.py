"""Label-table solvers: deletion to star-or-triangle components and to
bounded degree.  P3 is the star K1,2, so its free graphs are those of maximum
degree one and `solve_p3` is the degree-1 case of `solve_bdd`.

Each table maps a tuple of per-bag-vertex labels to the smallest number of
deleted vertices the subtree has already forgotten, among partial solutions
realizing those labels on the subtree graph; missing keys mean "infeasible".
Label 0 means deleted in every table, and a kept vertex of bounded degree
(or of paw's cycle part) is labelled 1 + its degree (`degree_merge_row`).
Both solvers here share one forget, which pays each deletion once, when its
vertex is forgotten, and one table-driven join, which adds the two counts;
each solver supplies only the join's per-position key and merge rows.

P4 uses six labels: deleted, ISO (kept with no kept neighbour yet, its role
still open), star leaf, star centre, open triangle vertex and completed
triangle vertex.  A vertex's role is chosen when its first kept neighbour
arrives, not when it is introduced, so an isolated kept vertex is one entry,
not one per role.  A P4 join pairs entries that agree on the deleted
vertices and, at each vertex with a kept bag neighbour, on its role; a
vertex without one may carry on each side a star or triangle grown from
that side's forgotten vertices, and an ISO side takes the other's label.

The hooks are module functions that read bag edges only from the adjacency
bitmasks the engine hands them; the solvers bind their parts with `partial`.
"""

from __future__ import annotations

from functools import cache, partial
from operator import getitem

from ..graph import Graph
from ..treedecomp import NiceTreeDecomposition
from .engine import (
    bits, check_bags, degree_merge_row, insert_at, remove_at, remove_bit, run_dp
)

Table = dict[tuple[int, ...], int]


def _min_put(table: Table, key: tuple[int, ...], value: int) -> None:
    prev = table.get(key)
    if prev is None or value < prev:
        table[key] = value


def _leaf() -> Table:
    return {(): 0}


def _forget(stay: int | None, v: int, cpos: int, child: Table) -> Table:
    """Drop position cpos, paying for a deletion; label `stay` may not leave."""
    out: Table = {}
    for labels, r in child.items():
        x = labels[cpos]
        if x == stay:
            continue
        _min_put(out, remove_at(labels, cpos), r + (not x))
    return out


def _join(rows_of, adj: list[int], left: Table, right: Table) -> Table:
    """`rows_of(counts)` maps each position's number of kept bag neighbours
    to its key row and its merge row (merge[a][b]: the joined label, or -1).
    The counts depend only on the deleted positions, so each deletion mask's
    rows are built once."""
    rows_by_mask: dict[tuple[bool, ...], tuple[list, list]] = {}

    def rows_for(labels: tuple[int, ...]) -> tuple[list, list]:
        kept = tuple(map(bool, labels))  # 0, deleted, is the only falsy label
        rows = rows_by_mask.get(kept)
        if rows is None:
            mask = sum(1 << i for i, k in enumerate(kept) if k)
            rows = rows_by_mask[kept] = rows_of([(row & mask).bit_count() for row in adj])
        return rows

    by_key: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for labels, r in right.items():
        key_rows = rows_for(labels)[0]
        by_key.setdefault(tuple(map(getitem, key_rows, labels)), []).append((labels, r))
    out: Table = {}
    for labels1, r1 in left.items():
        key_rows, merge_rows = rows_for(labels1)
        bucket = by_key.get(tuple(map(getitem, key_rows, labels1)))
        if bucket is None:
            continue
        merge = list(map(getitem, merge_rows, labels1))
        for labels2, r2 in bucket:
            merged = tuple(map(getitem, merge, labels2))
            if -1 not in merged:
                _min_put(out, merged, r1 + r2)
    return out


# ---------------------------------------------------------------------------
# Deletion to components that are single triangles or stars.
#
# Labels of a bag vertex in the subtree graph:
#   DEL       deleted;
#   ISO       kept, with no kept neighbour yet.  It is a K1 star whose role
#             (leaf, centre or triangle vertex) is chosen when its first kept
#             neighbour arrives, like the deferred "0?" state of the
#             dominating-set DP (Cygan et al., *Parameterized Algorithms*,
#             §11.1);
#   LEAF      star leaf; its one kept neighbour is its centre, maybe
#             forgotten;
#   CENTER    star centre with at least one leaf, maybe forgotten;
#   TRI_OPEN  triangle vertex whose one kept neighbour is the other TRI_OPEN
#             vertex of the bag; it is never forgotten;
#   TRI_DONE  vertex of a completed triangle.

_P4_DEL, _P4_ISO, _P4_LEAF, _P4_CENTER, _P4_TRI_OPEN, _P4_TRI_DONE = range(6)

# Join keys.  A kept vertex with no kept bag neighbour has grown, on each
# side, only from that side's forgotten vertices, so its key says just
# "kept".  One with a kept bag neighbour plays the same role on both sides:
# its key is the role (leaf, centre or triangle vertex).
_P4_JOIN_KEY = ((0, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 4))


def _p4_merge_rows(bag_nbrs: int) -> tuple[tuple[int, ...], ...]:
    """rows[a][b]: the joined label of a kept vertex labelled a on the left
    and b on the right, or -1, by its number of kept bag neighbours (capped
    at 2).  Two leaves must share their centre, so it must be in the bag;
    two completed triangles must be the same, so two of its vertices must
    be the vertex's kept bag neighbours."""
    rows = [[-1] * 6 for _ in range(6)]
    rows[_P4_DEL][_P4_DEL] = _P4_DEL
    rows[_P4_CENTER][_P4_CENTER] = _P4_CENTER
    if bag_nbrs == 0:
        for x in range(_P4_ISO, 6):
            rows[_P4_ISO][x] = rows[x][_P4_ISO] = x
    else:
        rows[_P4_LEAF][_P4_LEAF] = _P4_LEAF
        rows[_P4_TRI_OPEN][_P4_TRI_OPEN] = _P4_TRI_OPEN
        rows[_P4_TRI_OPEN][_P4_TRI_DONE] = rows[_P4_TRI_DONE][_P4_TRI_OPEN] = _P4_TRI_DONE
        if bag_nbrs == 2:
            rows[_P4_TRI_DONE][_P4_TRI_DONE] = _P4_TRI_DONE
    return tuple(map(tuple, rows))


_P4_MERGE = tuple(_p4_merge_rows(c) for c in range(3))


def solve_p4(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every component is a triangle or a star."""
    hooks = (_p4_introduce, partial(_forget, _P4_TRI_OPEN), partial(_join, _p4_rows))
    return run_dp(g, ntd, _leaf, *hooks, bound=6, stats=stats)[()]


def _p4_rows(counts: list[int]) -> tuple[list, list]:
    return [_P4_JOIN_KEY[c > 0] for c in counts], [_P4_MERGE[min(c, 2)] for c in counts]


def _p4_introduce(bag, adj: list[int], pos: int, child: Table) -> Table:
    child_nbrs = bits(remove_bit(adj[pos], pos))
    # For each child position, the bitmask of its child-position neighbors.
    rows = [remove_bit(row, pos) for q, row in enumerate(adj) if q != pos]
    out: Table = {}
    for labels, r in child.items():
        # Only this entry yields keys with the new vertex DEL or ISO.
        out[insert_at(labels, pos, _P4_DEL)] = r
        kept = [p for p in child_nbrs if labels[p] != _P4_DEL]
        if not kept:
            out[insert_at(labels, pos, _P4_ISO)] = r
            continue
        if all(labels[p] == _P4_ISO for p in kept):
            # A new star center adopts them all as leaves.
            upd = list(labels)
            for p in kept:
                upd[p] = _P4_LEAF
            _min_put(out, insert_at(tuple(upd), pos, _P4_CENTER), r)
            if len(kept) == 1:
                # The first edge may also make the new vertex a leaf, or
                # open a triangle.
                u = kept[0]
                upd[u] = _P4_CENTER
                _min_put(out, insert_at(tuple(upd), pos, _P4_LEAF), r)
                upd[u] = _P4_TRI_OPEN
                _min_put(out, insert_at(tuple(upd), pos, _P4_TRI_OPEN), r)
        elif len(kept) == 1:
            if labels[kept[0]] == _P4_CENTER:
                _min_put(out, insert_at(labels, pos, _P4_LEAF), r)
        elif len(kept) == 2:
            u, w = kept
            if labels[u] == labels[w] == _P4_TRI_OPEN and rows[u] >> w & 1:
                upd = list(labels)
                upd[u] = upd[w] = _P4_TRI_DONE
                _min_put(out, insert_at(tuple(upd), pos, _P4_TRI_DONE), r)
    return out


# ---------------------------------------------------------------------------
# Deletion to maximum degree d.
#
# Labels: 0 deleted, 1 + the current degree (0..d) of a kept vertex.  Paw's
# cycle part uses the same labels with d = 2 (`connectivity.py`).


def solve_bdd(
    g: Graph,
    ntd: NiceTreeDecomposition,
    d: int,
    stats: dict | None = None,
) -> int:
    """Minimum deletions so every remaining vertex has degree at most d."""
    if d < 0:
        raise ValueError("maximum degree must be non-negative")
    if d >= g.max_degree():
        # No degree bound can bind, so nothing need be deleted.
        check_bags(g, ntd)
        if stats is not None:
            stats.setdefault("max_table_size", 0)
            stats.setdefault("table_entries", 0)
        return 0
    rows_of = _bdd_rows(d)
    hooks = (partial(_bdd_introduce, d), partial(_forget, None), partial(_join, rows_of))
    return run_dp(g, ntd, _leaf, *hooks, bound=d + 2, stats=stats)[()]


def _bdd_introduce(d: int, bag, adj: list[int], pos: int, child: Table) -> Table:
    child_nbrs = bits(remove_bit(adj[pos], pos))
    out: Table = {}
    for labels, r in child.items():
        # Only this entry yields the key with the new vertex deleted.
        out[insert_at(labels, pos, 0)] = r
        kept = [p for p in child_nbrs if labels[p]]
        if len(kept) > d or any(labels[p] > d for p in kept):
            continue
        upd = list(labels)
        for p in kept:
            upd[p] += 1
        _min_put(out, insert_at(tuple(upd), pos, 1 + len(kept)), r)
    return out


def _bdd_rows(d: int):
    """The join's `rows_of` for degree bound d: every kept label keys alike,
    and a vertex with c kept bag neighbours merges by `degree_merge_row(d,
    c)`, built once per solve, when a join first needs it."""
    key = (0,) + (1,) * (d + 1)
    merge_row = cache(partial(degree_merge_row, d))

    def rows_of(counts: list[int]) -> tuple[list, list]:
        return [key] * len(counts), list(map(merge_row, counts))

    return rows_of


def solve_p3(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every remaining vertex has degree at most one."""
    return solve_bdd(g, ntd, 1, stats)
