"""Connectivity-tracking solvers: deletion to C4-free and to paw-free graphs.

Both run one pass of the rank-based dynamic program over a nice decomposition
of the input, on one table layout.  The solution graph gains a universal
vertex v0, so that "connected" means "reaches v0"; v0 is in no bag, it is
implicit in every code.  A key is (labels, redges, c).  A bag vertex's label
is 0 if deleted, `_GROUND` if in the ground (every kept C4 vertex, and paw's
forest part), and 1 + its degree (1..3) in paw's cycle part, as in the
bounded-degree tables of `labeling.py`.  `redges` holds the ground bag edges
that lie in a triangle, as vertex-id pairs that survive bag changes (empty
for paw, whose forest has none), and c counts ground components (below).

Each key maps to a {code: weight} dict of partitions of the ground bag
vertices plus v0 (their connectivity classes), combined by the set
operations of `partitions`.  A code lists, for each ground position in bag
order and then for v0, the least position in its block; bags are sorted, so
position order is vertex-id order.  A weight counts the deleted vertices the
partial solution has forgotten: each deletion is paid once, at its forget
node.  After every node each set of two or more codes is shrunk to a
min-weight representative subset, which keeps the tables single-exponential
in the bag size.  The answer is the least weight at the root, where v0 alone
is left; with a budget, an entry is dropped as soon as its weight plus its
key's deleted bag vertices exceeds it.  Each component takes one edge to v0,
at the forget node of one of its vertices, so no key records one: a
forgotten ground position leaves as it is, which needs another position in
its block, or takes its component's v0-edge first.

Correctness rests on a counter rather than on local cycle checks: a kept
graph whose blocks are edges and triangles (C4-free) with i vertices, j
edges and l triangles has c = i - j + l components, and a forest with i
vertices and j edges has c = i - j; v0 and its edges count too.  So the
solution is connected exactly when c = 1 at the root.  Any other cycle, a
second v0-edge in one component included, leaves more components than c,
and entries whose partition disagrees with c are dropped; the one local
check left is that no edge lies in two triangles (a diamond keeps the count
right).

The two solvers share that filter (`finish`), one forget and one join; each
supplies its introduce, which reads the new vertex's bag neighbours from
the engine's bag adjacency bitmasks, and the labels that may not be
forgotten.  A join pairs keys whose positions agree on their kind (deleted,
cycle or ground), subtracts once the ground bag vertices, edges and
triangles both sides counted, and merges cycle degrees by the bounded-degree
merge rows (`degree_merge_row`).
"""

from __future__ import annotations

from functools import partial
from operator import getitem

from ..graph import Graph
from ..partitions import drop_set, glue_set, meet_sets, reduce_codes, shift_set, union_into
from ..treedecomp import NiceTreeDecomposition
from .engine import bits, degree_merge_row, insert_at, remove_at, run_dp

_GROUND = 4
# Each label's kind: deleted, cycle or ground.
_KIND = (0, 1, 1, 1, _GROUND)
# Paw's cycle labels of degree below 2: such a vertex may not be forgotten,
# and only it may gain a cycle edge.
_OPEN = (1, 2)
# Merge rows at a cycle position, by its number of cycle bag neighbours
# (at most its degree, 2); at any other position the left label stands.
_DEGREE_MERGE = tuple(degree_merge_row(2, c) for c in range(3))
_SAME = tuple((x,) * len(_KIND) for x in range(len(_KIND)))


def _ground_mask(labels: tuple[int, ...]) -> int:
    return sum(1 << p for p, x in enumerate(labels) if x == _GROUND)


def _bag_counts(adj: list[int], mask: int) -> tuple[int, int]:
    """Plain edges and triangles among the bag positions in `mask`."""
    edges = triangles = 0
    for p in bits(mask):
        row = adj[p] & mask
        edges += row.bit_count()
        for q in bits(row):
            triangles += (adj[q] & row).bit_count()
    return edges // 2, triangles // 6


def _vedge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _below(mask: int, pos: int) -> int:
    """Index of bag position `pos` among the ground positions in `mask`."""
    return (mask & ((1 << pos) - 1)).bit_count()


def _forget(stay: tuple[int, ...], v: int, cpos: int, child: dict) -> dict:
    """Drop position cpos, paying for a deletion; a label in `stay` may not
    leave.  A ground position i leaves as it is, or first takes its
    component's v0-edge (a meet with the block {i, v0}) under count c - 1;
    if i's block holds v0 already, `finish` drops the cycle that closes."""
    out: dict = {}
    for (labels_c, redges, c), entries in child.items():
        x = labels_c[cpos]
        if x in stay:
            continue
        labels = remove_at(labels_c, cpos)
        if x != _GROUND:
            union_into(out, (labels, redges, c), entries if x else shift_set(entries, 1))
            continue
        if redges:
            redges = frozenset(e for e in redges if v not in e)
        i = labels_c[:cpos].count(_GROUND)
        union_into(out, (labels, redges, c), drop_set(entries, i))
        n = len(next(iter(entries))) - 1
        attached = meet_sets(entries, {tuple(range(n)) + (i,): 0})
        union_into(out, (labels, redges, c - 1), drop_set(attached, i))
    return out


def _join(adj: list[int], left: dict, right: dict) -> dict:
    grouped: dict[tuple, tuple] = {}
    for (labels, redges, c), entries in right.items():
        kinds = tuple(map(_KIND.__getitem__, labels))
        group = grouped.get(kinds)
        if group is None:
            # Ground bag vertices and v0, ground bag edges and triangles
            # are counted by both sides.
            ground = _ground_mask(kinds)
            edges, tris = _bag_counts(adj, ground)
            cycle = sum(1 << p for p, x in enumerate(kinds) if x == 1)
            merge_rows = cycle and [
                _DEGREE_MERGE[(adj[p] & cycle).bit_count()] if x == 1 else _SAME
                for p, x in enumerate(kinds)
            ]
            shared_c = ground.bit_count() + 1 - edges + tris
            group = grouped[kinds] = (shared_c, 3 * tris, merge_rows, [])
        group[3].append((labels, redges, c, entries))
    out: dict = {}
    for (labels1, redges1, c1), entries1 in left.items():
        group = grouped.get(tuple(map(_KIND.__getitem__, labels1)))
        if group is None:
            continue
        shared_c, tri_edge_count, merge_rows, bucket = group
        merge = merge_rows and list(map(getitem, merge_rows, labels1))
        for labels2, redges2, c2, entries2 in bucket:
            # Both sides hold every edge of the bag's triangles, which are
            # edge-disjoint; any further shared edge would glue two
            # triangles onto one edge.
            if len(redges1 & redges2) != tri_edge_count:
                continue
            labels = labels1
            if merge:
                labels = tuple(map(getitem, merge, labels2))
                if -1 in labels:
                    continue
            key = (labels, redges1 | redges2, c1 + c2 - shared_c)
            union_into(out, key, meet_sets(entries1, entries2))
    return out


def _dp(g, ntd, budget, stats, introduce, stay) -> int | None:
    """Run the engine with one solver's `introduce`, the shared leaf and
    join and the forget that keeps labels in `stay`; return the least
    weight at the root, where `finish` leaves only connected entries."""
    # No partial deletes more than all n vertices, so n is no bound.
    limit = g.n if budget is None else budget
    max_pset = 0

    def finish(bag, table: dict) -> None:
        # Every component of a viable partial holds a bag vertex or v0
        # (forgetting the last one is blocked by the projection), so its
        # component count equals the partition's block count.  A partial
        # whose count c disagrees with that already contains the pattern and
        # never recovers; drop such entries, and those over budget, before
        # reducing.  At the root every code is (0,), so only c == 1 stays.
        # This is the only cycle check; see the module docstring.
        nonlocal max_pset
        for key, entries in list(table.items()):
            labels, _, want = key
            room = limit - labels.count(0)
            kept = {
                code: w
                for code, w in entries.items()
                if w <= room and len(set(code)) == want
            }
            if not kept:
                del table[key]
                continue
            if len(kept) > 1:
                kept = reduce_codes(kept)
                assert len(kept) <= 1 << len(next(iter(kept))) - 1
            # kept is a subset of entries.  Keep the stored dict when it is
            # whole: it may be shared with other keys, which saves memory.
            if len(kept) < len(entries):
                table[key] = kept
            if len(kept) > max_pset:
                max_pset = len(kept)

    hooks = (introduce, partial(_forget, stay), _join)
    # The leaf's one code is v0 alone.
    leaf = {((), frozenset(), 1): {(0,): 0}}
    root_table = run_dp(g, ntd, leaf.copy, *hooks, finish=finish, stats=stats)
    if stats is not None:
        stats["max_partition_set_size"] = max(
            stats.get("max_partition_set_size", 0), max_pset
        )
    return min(
        (w for entries in root_table.values() for w in entries.values()),
        default=None,
    )


# ---------------------------------------------------------------------------
# Deletion to C4-topological-minor-free: every kept vertex is ground, and
# c = kept vertices + 1 (v0) - kept edges (one v0-edge per component
# included) + kept triangles.


def solve_c4(
    g: Graph,
    ntd: NiceTreeDecomposition,
    stats: dict | None = None,
    budget: int | None = None,
) -> int | None:
    """Minimum deletions making g C4-TM-free.

    `ntd` must be a nice decomposition of g; a bag vertex outside g raises
    ValueError.  With a budget, returns the minimum if it is at most the
    budget, else None; without one, always returns the minimum.  Either way
    it is a single pass.
    """
    return _c4_pass(g, ntd, budget, stats)


def _c4_pass(g, ntd, budget, stats) -> int | None:
    return _dp(g, ntd, budget, stats, _c4_introduce, ())


def _c4_growth(bag, adj: list[int], pos: int, kept: int):
    """Keeping the vertex at `pos` next to the kept positions `kept`: None
    for a diamond, else (edges put into triangles, change to c, ground
    index, ground indices to glue)."""
    v = bag[pos]
    nbrs = adj[pos] & kept  # v's kept neighbours in g
    nbr_pos = bits(nbrs)
    # Each neighbour's partners among v's other neighbours.  Two partners
    # would put edge vq into two new triangles: a diamond.
    partners = [adj[q] & nbrs for q in nbr_pos]
    if any(m & (m - 1) for m in partners):
        return None
    new_tris: set[tuple[int, int]] = set()
    for q, m in zip(nbr_pos, partners):
        if m:
            new_tris.add(_vedge(v, bag[q]))
            new_tris.add(_vedge(bag[q], bag[m.bit_length() - 1]))
    dc = 1 - len(nbr_pos) + sum(1 for m in partners if m) // 2
    # Ground indices over the new kept mask; v0 follows them.
    ground = kept | 1 << pos
    i = _below(ground, pos)
    return new_tris, dc, i, [_below(ground, q) for q in nbr_pos] + [i]


def _c4_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    out: dict = {}
    # The new keys' labels and the kept vertex's growth depend only on the
    # child labels, so each distinct label tuple builds them once.
    views: dict = {}
    for (labels_c, redges, c), entries in child.items():
        view = views.get(labels_c)
        if view is None:
            deleted = insert_at(labels_c, pos, 0)
            growth = _c4_growth(bag, adj, pos, _ground_mask(deleted))
            view = views[labels_c] = (deleted, insert_at(labels_c, pos, _GROUND), growth)
        deleted, grown, growth = view
        union_into(out, (deleted, redges, c), entries)
        if growth is None:
            continue
        new_tris, dc, i, glue = growth
        # An edge gaining a second triangle would form a diamond.
        if not redges.isdisjoint(new_tris):
            continue
        union_into(out, (grown, redges | new_tris, c + dc), glue_set(entries, i, glue))
    return out


# ---------------------------------------------------------------------------
# Deletion to paw-topological-minor-free: the forest part is the ground, so
# c = forest vertices + 1 (v0) - forest edges (one v0-edge per component
# included), and cycle vertices are labelled 1 + their cycle degree.


def solve_paw(
    g: Graph,
    ntd: NiceTreeDecomposition,
    stats: dict | None = None,
    budget: int | None = None,
) -> int | None:
    """Minimum deletions making g paw-TM-free; see solve_c4 for the contract."""
    return _paw_pass(g, ntd, budget, stats)


def _paw_pass(g, ntd, budget, stats) -> int | None:
    return _dp(g, ntd, budget, stats, _paw_introduce, _OPEN)


def _paw_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    nbr_pos = bits(adj[pos])
    plain_nbrs = [q if q < pos else q - 1 for q in nbr_pos]
    out: dict = {}
    for (labels_c, redges, c), entries in child.items():
        union_into(out, (insert_at(labels_c, pos, 0), redges, c), entries)
        forest_adjacent = [q for q in plain_nbrs if labels_c[q] == _GROUND]
        cycle_adjacent = [q for q in plain_nbrs if 0 < labels_c[q] < _GROUND]
        # Forest case: no plain edge may run into the cycle part.
        if not cycle_adjacent:
            labels = insert_at(labels_c, pos, _GROUND)
            # Ground indices over the forest positions; v0 follows them.
            i = labels[:pos].count(_GROUND)
            nbrs = [labels[:q].count(_GROUND) for q in nbr_pos if labels[q] == _GROUND]
            key = (labels, redges, c + 1 - len(nbrs))
            union_into(out, key, glue_set(entries, i, nbrs + [i]))

        # Cycle case: neighbours already in the cycle part gain one degree.
        if (
            not forest_adjacent
            and len(cycle_adjacent) <= 2
            and all(labels_c[q] in _OPEN for q in cycle_adjacent)
        ):
            upd = list(labels_c)
            for q in cycle_adjacent:
                upd[q] += 1
            labels = insert_at(tuple(upd), pos, 1 + len(cycle_adjacent))
            union_into(out, (labels, redges, c), entries)
    return out
