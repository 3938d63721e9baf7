"""Label-table solvers: deletion to star-or-triangle components and to
bounded degree.  P3 is the star K1,2, so its free graphs are those of maximum
degree one and `solve_p3` is the degree-1 case of `solve_bdd`.

Each table maps a key, the labels of the bag vertices packed into one int
(`engine.get_field`), to the smallest number of deleted vertices, bag
vertices included, among partial solutions realizing those labels on the
subtree graph; missing keys mean "infeasible", or over the budget, which the
engine enforces; a solver returns None when its minimum exceeds it.  Bag
position p's label is the field of B bits at bit B·p.  Label 0 means deleted
in every table, and a kept vertex of bounded degree d (or of paw's cycle
part) is labelled 1 + its degree, in fields of B = (d + 1).bit_length() + 2
bits: a label is at most d + 1 < 2^(B-2), so two labels add without a carry
into the next field, and the field's top bit is a guard bit that one
addition per field sets exactly where a label passes a threshold.  P4's six
labels take B = 3.  An introduce pays the vertex it deletes, the shared
forget drops a field with a shift and a mask, and a join adds the two
counts less the deleted bag vertices both count.

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

from functools import partial

from ..graph import Graph
from ..treedecomp import NiceTreeDecomposition
from .engine import bits, check_bags, guard_fills, kept_counts, run_dp, spread

Table = dict[int, int]


def _min_put(table: Table, key: int, value: int) -> None:
    prev = table.get(key)
    if prev is None or value < prev:
        table[key] = value


def _leaf() -> Table:
    return {0: 0}


def _forget(width: int, stay: int | None, v: int, cpos: int, child: Table) -> Table:
    """Drop position cpos's field (`remove_field`, inlined); label `stay`
    may not leave."""
    shift = width * cpos
    low = (1 << shift) - 1
    field = (1 << width) - 1
    out: Table = {}
    for key, r in child.items():
        x = key >> shift & field
        if x == stay:
            continue
        key = key & low | (key >> shift + width) << shift
        prev = out.get(key)
        if prev is None or r < prev:
            out[key] = r
    return out


def _group(table: Table, kept) -> dict[int, list[tuple[int, int]]]:
    """The table's entries grouped by `kept(key)`, a mask of their kept
    fields."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for key, r in table.items():
        groups.setdefault(kept(key), []).append((key, r))
    return groups


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
#
# A vertex with a kept bag neighbour is never ISO, and its role (LEAF,
# CENTER, or TRI_OPEN/TRI_DONE, 0b100 and 0b101) is the same on both sides of
# a join, so the joined label is the bitwise or of the two.

_P4_DEL, _P4_ISO, _P4_LEAF, _P4_CENTER, _P4_TRI_OPEN, _P4_TRI_DONE = range(6)
_P4_WIDTH = 3


def solve_p4(
    g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Minimum deletions so every component is a triangle or a star."""
    hooks = (_p4_introduce, partial(_forget, _P4_WIDTH, _P4_TRI_OPEN), _p4_join)
    return run_dp(g, ntd, _leaf, *hooks, budget=budget, bound=6, stats=stats).get(0)


def _p4_introduce(bag, adj: list[int], pos: int, child: Table) -> Table:
    shift = _P4_WIDTH * pos
    low = (1 << shift) - 1
    nbrs = bits(adj[pos])
    ones = spread(adj[pos], _P4_WIDTH)
    # The neighbours' fields, and their bits above ISO's.
    fields, roles = ones * 0b111, ones * 0b110
    centers = {_P4_CENTER << _P4_WIDTH * u for u in nbrs}
    open_pairs = {
        (_P4_TRI_OPEN << _P4_WIDTH * u) + (_P4_TRI_OPEN << _P4_WIDTH * w)
        for u in nbrs
        for w in bits(adj[u] & adj[pos])
        if u < w
    }
    iso, leaf, center, tri_open, tri_done = (
        x << shift for x in (_P4_ISO, _P4_LEAF, _P4_CENTER, _P4_TRI_OPEN, _P4_TRI_DONE)
    )
    out: Table = {}
    for key, r in child.items():
        key = key & low | (key >> shift) << shift + _P4_WIDTH  # `insert_field`, DEL
        # Only this entry yields keys with the new vertex DEL or ISO.
        out[key] = r + 1
        y = key & fields
        if not y:
            out[key | iso] = r
        elif not y & roles:
            # Every kept neighbour is ISO (y has a 1 in each of their
            # fields): a new star centre adopts them all as leaves.
            _min_put(out, key + y + center, r)
            if not y & (y - 1):
                # The first edge may also make the new vertex a leaf of
                # its one kept neighbour, or open a triangle with it.
                _min_put(out, key + 2 * y + leaf, r)
                _min_put(out, key + 3 * y + tri_open, r)
        elif y in centers:
            # The one kept neighbour is a star centre.
            _min_put(out, key + leaf, r)
        elif y in open_pairs:
            # Two adjacent TRI_OPEN neighbours, and no other kept one.
            _min_put(out, key + (y >> 2) + tri_done, r)
    return out


def _p4_join(adj: list[int], left: Table, right: Table) -> Table:
    """Pair entries with the same deleted positions, which both weights
    count, and the same role at every position with a kept bag neighbour
    (TRI_DONE keys as TRI_OPEN).  A role position joins to the bitwise or
    of its labels, but two completed triangles must be the same one, so
    TRI_DONE on both sides needs two kept bag neighbours; the other kept
    positions join through `_p4_free_merge`, memoized per join."""
    ones = spread((1 << len(adj)) - 1, _P4_WIDTH)

    def kept(key: int) -> int:
        return (key | key >> 1 | key >> 2) & ones

    groups2 = _group(right, kept)
    free_memo: dict[tuple[int, int], int] = {}
    out: Table = {}
    for mask, entries1 in _group(left, kept).items():
        entries2 = groups2.get(mask)
        if entries2 is None:
            continue
        roles = free = single = 0
        for p, c in kept_counts(adj, mask, _P4_WIDTH):
            if c:
                roles |= 0b111 << _P4_WIDTH * p
                single |= (c == 1) << _P4_WIDTH * p
            else:
                free |= 0b111 << _P4_WIDTH * p
        # A key's roles, with TRI_DONE's low bit cleared: key & roles & ~done.
        role_bits = roles & ones
        dels = len(adj) - mask.bit_count()
        by_role: dict[int, list[tuple[int, int]]] = {}
        for key2, r2 in entries2:
            by_role.setdefault(key2 & roles & ~(key2 >> 2 & role_bits), []).append((key2, r2))
        for key1, r1 in entries1:
            bucket = by_role.get(key1 & roles & ~(key1 >> 2 & role_bits))
            if bucket is None:
                continue
            r1 -= dels
            free1 = key1 & free
            for key2, r2 in bucket:
                both = key1 & key2
                if both & both >> 2 & single:
                    continue
                key = (key1 | key2) & roles
                if free:
                    pair = (free1, key2 & free)
                    merged = free_memo.get(pair)
                    if merged is None:
                        merged = free_memo[pair] = _p4_free_merge(*pair)
                    if merged < 0:
                        continue
                    key |= merged
                r = r1 + r2
                prev = out.get(key)
                if prev is None or r < prev:
                    out[key] = r
    return out


def _p4_free_merge(a: int, b: int) -> int:
    """The joined fields at the kept positions without a kept bag neighbour,
    given each side's fields there (0 elsewhere), or -1.  There each side's
    star or triangle grew only from its own forgotten vertices, so one side
    must be ISO, or both star centres."""
    out = shift = 0
    while a:
        x, y = a & 0b111, b & 0b111
        if x == _P4_ISO or x == _P4_DEL:
            z = y
        elif y == _P4_ISO or x == y == _P4_CENTER:
            z = x
        else:
            return -1
        out |= z << shift
        a >>= _P4_WIDTH
        b >>= _P4_WIDTH
        shift += _P4_WIDTH
    return out


# ---------------------------------------------------------------------------
# Deletion to maximum degree d.
#
# Labels: 0 deleted, 1 + the current degree (0..d) of a kept vertex.  Paw's
# cycle part uses the same labels with d = 2 (`connectivity.py`).


def solve_bdd(
    g: Graph, ntd, d: int, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Minimum deletions so every remaining vertex has degree at most d."""
    if d < 0:
        raise ValueError("maximum degree must be non-negative")
    if d >= g.max_degree():
        # No degree bound can bind, so nothing need be deleted.
        check_bags(g, ntd)
        if stats is not None:
            stats.setdefault("max_table_size", 0)
            stats.setdefault("table_entries", 0)
        return None if budget is not None and budget < 0 else 0
    width = (d + 1).bit_length() + 2
    hooks = (
        partial(_bdd_introduce, d, width),
        partial(_forget, width, None),
        partial(_bdd_join, d, width),
    )
    return run_dp(g, ntd, _leaf, *hooks, budget=budget, bound=d + 2, stats=stats).get(0)


def _bdd_introduce(d: int, width: int, bag, adj: list[int], pos: int, child: Table) -> Table:
    shift = width * pos
    low = (1 << shift) - 1
    # Added to the neighbours' fields, the fills set the guard bit of a
    # kept one, and of one already at degree d.
    guard, kept_fill, full_fill = guard_fills(adj[pos], width, 1, d + 1)
    fields = guard | kept_fill
    out: Table = {}
    for key, r in child.items():
        key = key & low | (key >> shift) << shift + width  # `insert_field`, deleted
        # Only this entry yields the key with the new vertex deleted.
        out[key] = r + 1
        y = key & fields
        if (y + full_fill) & guard:
            continue
        kept = ((y + kept_fill) & guard) >> width - 1
        c = kept.bit_count()
        if c <= d:
            # Each kept neighbour gains a degree; no other entry yields this key.
            out[key + kept + ((1 + c) << shift)] = r
    return out


def _bdd_join(d: int, width: int, adj: list[int], left: Table, right: Table) -> Table:
    """Pair entries with the same deleted positions, which both weights
    count.  Both sides count a kept vertex's c kept bag neighbours, so
    labels a and b join to a + b - 1 - c, which must stay at most d + 1."""
    guard, kept_fill, over_fill = guard_fills((1 << len(adj)) - 1, width, 1, d + 2)

    def kept(key: int) -> int:
        return (key + kept_fill) & guard

    groups2 = _group(right, kept)
    out: Table = {}
    for mask, entries1 in _group(left, kept).items():
        entries2 = groups2.get(mask)
        if entries2 is None:
            continue
        shared = sum((1 + c) << width * p for p, c in kept_counts(adj, mask, width))
        dels = len(adj) - mask.bit_count()
        for key1, r1 in entries1:
            base = key1 - shared
            r1 -= dels
            for key2, r2 in entries2:
                key = base + key2
                if (key + over_fill) & guard:
                    continue
                r = r1 + r2
                prev = out.get(key)
                if prev is None or r < prev:
                    out[key] = r
    return out


def solve_p3(
    g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Minimum deletions so every remaining vertex has degree at most one."""
    return solve_bdd(g, ntd, 1, stats, budget)
