"""Label-table solvers: deletion to star-or-triangle components and to
bounded degree.  P3 is the star K1,2, so its free graphs are those of maximum
degree one and `solve_p3` is the degree-1 case of `solve_bdd`.

Each table maps a tuple of per-bag-vertex labels to the smallest deletion
count among partial solutions realizing those labels on the subtree graph.
Missing keys mean "infeasible".  Bag edges are present in both children of a
join node, so joins subtract bag-level contributions once.
"""

from __future__ import annotations

from ..graph import Graph
from ..treedecomp import NiceTreeDecomposition
from .engine import insert_at, remove_at, run_dp

Table = dict[tuple[int, ...], int]


def _bag_positions(g: Graph, bag: tuple[int, ...]) -> list[list[int]]:
    """For each bag position, the positions of its bag neighbors."""
    index = {v: i for i, v in enumerate(bag)}
    return [
        sorted(index[w] for w in g.neighbors(v) if w in index) for v in bag
    ]


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


def solve_p4(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every component is a triangle or a star."""

    def introduce(t, pos, child: Table) -> Table:
        bag = ntd.bags[t]
        bagpos = _bag_positions(g, bag)
        child_nbrs = [p if p < pos else p - 1 for p in bagpos[pos]]
        # For each child position, the child positions of its bag neighbors
        # other than the newly introduced vertex.
        other_nbrs = []
        for real in range(len(bag)):
            if real == pos:
                continue
            other_nbrs.append(
                [
                    p if p < pos else p - 1
                    for p in bagpos[real]
                    if p != pos
                ]
            )

        def adjacent(cp1: int, cp2: int) -> bool:
            r1 = cp1 if cp1 < pos else cp1 + 1
            r2 = cp2 if cp2 < pos else cp2 + 1
            return g.has_edge(bag[r1], bag[r2])

        out: Table = {}
        for labels, r in child.items():
            _min_put(out, insert_at(labels, pos, _P4_DEL), r + 1)
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
                    and adjacent(u, w)
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

    def forget(t, cpos, child: Table) -> Table:
        out: Table = {}
        for labels, r in child.items():
            if labels[cpos] in (_P4_LEAF_OPEN, _P4_TRI_OPEN):
                continue
            _min_put(out, remove_at(labels, cpos), r)
        return out

    def join(t, left: Table, right: Table) -> Table:
        bag = ntd.bags[t]
        nbrs = _bag_positions(g, bag)
        # Children must agree on deletions and on star centers.
        def group_key(labels):
            return tuple(
                x if x in (_P4_DEL, _P4_CENTER) else -1 for x in labels
            )

        by_key: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for labels, r in right.items():
            by_key.setdefault(group_key(labels), []).append((labels, r))
        out: Table = {}
        for labels1, r1 in left.items():
            key = group_key(labels1)
            size_s = sum(1 for x in labels1 if x == _P4_DEL)
            for labels2, r2 in by_key.get(key, ()):
                merged = list(labels1)
                ok = True
                for i, (a, b) in enumerate(zip(labels1, labels2)):
                    if a in (_P4_DEL, _P4_CENTER):
                        continue
                    star_a = a in (_P4_LEAF_OPEN, _P4_LEAF_DONE)
                    star_b = b in (_P4_LEAF_OPEN, _P4_LEAF_DONE)
                    if star_a != star_b:
                        ok = False
                        break
                    if star_a:
                        if a == _P4_LEAF_DONE and b == _P4_LEAF_DONE:
                            # Both attachments must be the single shared bag
                            # center.
                            kept = [
                                p for p in nbrs[i] if labels1[p] != _P4_DEL
                            ]
                            if len(kept) != 1 or labels1[kept[0]] != _P4_CENTER:
                                ok = False
                                break
                        merged[i] = (
                            _P4_LEAF_DONE
                            if _P4_LEAF_DONE in (a, b)
                            else _P4_LEAF_OPEN
                        )
                    else:
                        if a == _P4_TRI_DONE and b == _P4_TRI_DONE:
                            # The completed triangle must sit inside the bag,
                            # identically on both sides.
                            cands = [
                                p
                                for p in nbrs[i]
                                if labels1[p] == _P4_TRI_DONE
                                and labels2[p] == _P4_TRI_DONE
                            ]
                            if not any(
                                g.has_edge(bag[p], bag[q])
                                for pi, p in enumerate(cands)
                                for q in cands[pi + 1 :]
                            ):
                                ok = False
                                break
                        merged[i] = (
                            _P4_TRI_DONE
                            if _P4_TRI_DONE in (a, b)
                            else _P4_TRI_OPEN
                        )
                if ok:
                    _min_put(out, tuple(merged), r1 + r2 - size_s)
        return out

    return run_dp(ntd, _leaf, introduce, forget, join, bound=6, stats=stats)[()]


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

    def introduce(t, pos, child: Table) -> Table:
        nbrs = _bag_positions(g, ntd.bags[t])[pos]
        child_nbrs = [p if p < pos else p - 1 for p in nbrs]
        out: Table = {}
        for labels, r in child.items():
            _min_put(out, insert_at(labels, pos, -1), r + 1)
            kept = [p for p in child_nbrs if labels[p] >= 0]
            if len(kept) > d or any(labels[p] + 1 > d for p in kept):
                continue
            upd = list(labels)
            for p in kept:
                upd[p] += 1
            _min_put(out, insert_at(tuple(upd), pos, len(kept)), r)
        return out

    def forget(t, cpos, child: Table) -> Table:
        out: Table = {}
        for labels, r in child.items():
            _min_put(out, remove_at(labels, cpos), r)
        return out

    def join(t, left: Table, right: Table) -> Table:
        nbrs = _bag_positions(g, ntd.bags[t])
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
            size_s = sum(mask)
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
                    _min_put(out, tuple(merged), r1 + r2 - size_s)
        return out

    return run_dp(ntd, _leaf, introduce, forget, join, bound=d + 2, stats=stats)[()]


def solve_p3(g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None) -> int:
    """Minimum deletions so every remaining vertex has degree at most one."""
    return solve_bdd(g, ntd, 1, stats)
