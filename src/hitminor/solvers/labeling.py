"""Label-table solvers: deletion to star-or-triangle components and to
bounded degree.  P3 is the star K1,2, so its free graphs are those of maximum
degree one and `solve_p3` is the degree-1 case of `solve_bdd`.

Each table maps a tuple of per-bag-vertex labels to the smallest number of
deleted vertices the subtree has already forgotten, among partial solutions
realizing those labels on the subtree graph.  A deletion is paid once, when
its vertex is forgotten, so joins just add the two counts.  Missing keys mean
"infeasible".  Bag edges are present in both children of a join node, so
joins subtract bag-level degrees once.  The hooks are module functions that
read bag edges only from the adjacency bitmasks the engine hands them;
`solve_bdd` binds its degree bound d to them with `partial`.
"""

from __future__ import annotations

from functools import partial

from ..graph import Graph
from ..treedecomp import NiceTreeDecomposition
from .engine import bits, insert_at, remove_at, remove_bit, run_dp

Table = dict[tuple[int, ...], int]


def _min_put(table: Table, key: tuple[int, ...], value: int) -> None:
    prev = table.get(key)
    if prev is None or value < prev:
        table[key] = value


def _leaf() -> Table:
    return {(): 0}


# ---------------------------------------------------------------------------
# Deletion to components that are single triangles or stars.
#
# Labels: 0 = deleted, 1 = future star leaf (isolated so far), 2 = star leaf
# attached to its center, 3 = star center, 4 = future triangle vertex,
# 5 = vertex of a completed triangle.

_P4_DEL, _P4_LEAF_OPEN, _P4_LEAF_DONE, _P4_CENTER, _P4_TRI_OPEN, _P4_TRI_DONE = range(6)
# A join pairs entries whose bag vertices play the same role on both sides:
# deleted, star leaf, star center or triangle vertex.
_P4_ROLE = (0, 1, 1, 2, 3, 3)


def solve_p4(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every component is a triangle or a star."""
    hooks = (_p4_introduce, _p4_forget, _p4_join)
    return run_dp(g, ntd, _leaf, *hooks, bound=6, stats=stats)[()]


def _p4_introduce(bag, adj: list[int], pos: int, child: Table) -> Table:
    child_nbrs = bits(remove_bit(adj[pos], pos))
    # For each child position, the bitmask of the child positions of its bag
    # neighbors other than the newly introduced vertex.
    rows = [remove_bit(row, pos) for q, row in enumerate(adj) if q != pos]
    other_nbrs = [bits(row) for row in rows]
    out: Table = {}
    for labels, r in child.items():
        _min_put(out, insert_at(labels, pos, _P4_DEL), r)
        kept = [p for p in child_nbrs if labels[p] != _P4_DEL]
        if not kept:
            _min_put(out, insert_at(labels, pos, _P4_LEAF_OPEN), r)
            _min_put(out, insert_at(labels, pos, _P4_CENTER), r)
            _min_put(out, insert_at(labels, pos, _P4_TRI_OPEN), r)
            continue
        if len(kept) == 1:
            u = kept[0]
            if labels[u] == _P4_CENTER:
                _min_put(out, insert_at(labels, pos, _P4_LEAF_DONE), r)
            if labels[u] == _P4_TRI_OPEN and not any(
                labels[p] != _P4_DEL for p in other_nbrs[u]
            ):
                _min_put(out, insert_at(labels, pos, _P4_TRI_OPEN), r)
        if len(kept) == 2:
            u, w = kept
            if (
                labels[u] == labels[w] == _P4_TRI_OPEN
                and rows[u] >> w & 1
                and {p for p in other_nbrs[u] if labels[p] != _P4_DEL} == {w}
                and {p for p in other_nbrs[w] if labels[p] != _P4_DEL} == {u}
            ):
                upd = list(labels)
                upd[u] = upd[w] = _P4_TRI_DONE
                _min_put(out, insert_at(tuple(upd), pos, _P4_TRI_DONE), r)
        # A new star center adopts exactly the currently isolated leaves.
        if all(labels[p] == _P4_LEAF_OPEN for p in kept):
            upd = list(labels)
            for p in kept:
                upd[p] = _P4_LEAF_DONE
            _min_put(out, insert_at(tuple(upd), pos, _P4_CENTER), r)
    return out


def _p4_forget(v: int, cpos: int, child: Table) -> Table:
    out: Table = {}
    for labels, r in child.items():
        if labels[cpos] in (_P4_LEAF_OPEN, _P4_TRI_OPEN):
            continue
        _min_put(out, remove_at(labels, cpos), r + (labels[cpos] == _P4_DEL))
    return out


def _p4_role_key(labels: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_P4_ROLE[x] for x in labels)


def _p4_join(adj: list[int], left: Table, right: Table) -> Table:
    nbrs = [bits(row) for row in adj]
    by_role: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for labels, r in right.items():
        by_role.setdefault(_p4_role_key(labels), []).append((labels, r))
    out: Table = {}
    for labels1, r1 in left.items():
        for labels2, r2 in by_role.get(_p4_role_key(labels1), ()):
            ok = True
            for i, (a, b) in enumerate(zip(labels1, labels2)):
                if a == b == _P4_LEAF_DONE:
                    # Both attachments must be the single shared bag center.
                    kept = [p for p in nbrs[i] if labels1[p] != _P4_DEL]
                    if len(kept) != 1 or labels1[kept[0]] != _P4_CENTER:
                        ok = False
                        break
                elif a == b == _P4_TRI_DONE:
                    # The completed triangle must sit inside the bag,
                    # identically on both sides: two of i's neighbors done
                    # on both sides and adjacent.
                    cands = [
                        p
                        for p in nbrs[i]
                        if labels1[p] == _P4_TRI_DONE and labels2[p] == _P4_TRI_DONE
                    ]
                    mask = sum(1 << p for p in cands)
                    if not any(adj[p] & mask for p in cands):
                        ok = False
                        break
            if ok:
                # Within a role the done label is the larger one.
                _min_put(out, tuple(map(max, labels1, labels2)), r1 + r2)
    return out


# ---------------------------------------------------------------------------
# Deletion to maximum degree d.
#
# Labels: -1 = deleted, 0..d = exact current degree of a kept vertex.


def solve_bdd(
    g: Graph,
    ntd: NiceTreeDecomposition,
    d: int,
    stats: dict | None = None,
) -> int:
    """Minimum deletions so every remaining vertex has degree at most d."""
    if d < 0:
        raise ValueError("maximum degree must be non-negative")
    hooks = (partial(_bdd_introduce, d), _bdd_forget, partial(_bdd_join, d))
    return run_dp(g, ntd, _leaf, *hooks, bound=d + 2, stats=stats)[()]


def _bdd_introduce(d: int, bag, adj: list[int], pos: int, child: Table) -> Table:
    child_nbrs = bits(remove_bit(adj[pos], pos))
    out: Table = {}
    for labels, r in child.items():
        _min_put(out, insert_at(labels, pos, -1), r)
        kept = [p for p in child_nbrs if labels[p] >= 0]
        if len(kept) > d or any(labels[p] + 1 > d for p in kept):
            continue
        upd = list(labels)
        for p in kept:
            upd[p] += 1
        _min_put(out, insert_at(tuple(upd), pos, len(kept)), r)
    return out


def _bdd_forget(v: int, cpos: int, child: Table) -> Table:
    out: Table = {}
    for labels, r in child.items():
        _min_put(out, remove_at(labels, cpos), r + (labels[cpos] < 0))
    return out


def _bdd_join(d: int, adj: list[int], left: Table, right: Table) -> Table:
    nbrs = [bits(row) for row in adj]
    by_deleted: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for labels, r in right.items():
        mask = tuple(1 if x < 0 else 0 for x in labels)
        by_deleted.setdefault(mask, []).append((labels, r))
    # Kept bag neighbors per position depend only on the deletion mask.
    bag_degs = {
        mask: [sum(1 for p in nbrs[i] if not mask[p]) for i in range(len(mask))]
        for mask in by_deleted
    }
    out: Table = {}
    for labels1, r1 in left.items():
        mask = tuple(1 if x < 0 else 0 for x in labels1)
        bucket = by_deleted.get(mask)
        if bucket is None:
            continue
        bag_deg = bag_degs[mask]
        for labels2, r2 in bucket:
            merged = []
            ok = True
            for i, (a, b) in enumerate(zip(labels1, labels2)):
                if a < 0:
                    merged.append(-1)
                    continue
                f = a + b - bag_deg[i]
                if f > d:
                    ok = False
                    break
                merged.append(f)
            if ok:
                _min_put(out, tuple(merged), r1 + r2)
    return out


def solve_p3(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every remaining vertex has degree at most one."""
    return solve_bdd(g, ntd, 1, stats)
