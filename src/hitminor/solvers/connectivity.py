"""Connectivity-tracking solvers: deletion to C4-free and to paw-free graphs.

Both run one pass of the rank-based dynamic program over a nice decomposition
of the input.  The solution graph gains a universal vertex v0, so that
"connected" means "reaches v0"; v0 is in no bag, it is implicit in every
code.  Partial solutions carry a set of weighted partitions of the kept bag
vertices plus v0 (their connectivity classes); a partition's weight counts
the deleted vertices the partial solution has already forgotten, so each
deletion is paid once, at its forget node.  Each key's set is a plain
{code: weight} dict, combined by the set operations of `partitions`.  A
code partitions the key's ground positions in bag order (the kept positions
for C4, the forest positions for paw), followed by one last position for
v0: entry i is the least position in i's block.  Bags are sorted, so
position order is vertex-id order.  After every node each set that holds
two or more codes is shrunk to a min-weight representative subset, which
is what keeps the tables single-exponential in the bag size.  The answer
is the least weight at the root, where every bag vertex is forgotten and
v0 alone is left; with a budget, an entry is dropped as soon as its weight
plus its key's deleted bag vertices exceeds it.

Each component of the solution takes one edge to v0, at the forget node of
one of its vertices, so no v0-edge touches a bag vertex and no key records
one.  A forgotten kept position leaves as it is, which needs another
position in its block (else it could never reach v0), or takes its
component's v0-edge first.

Correctness rests on a counter rather than on local cycle checks: a kept
graph whose blocks are edges and triangles (C4-free) with i vertices, j
edges and l triangles has c = i - j + l components, and a kept forest part
with i vertices and j edges has c = i - j; v0 and its edges count too.
Each key carries that c, so the solution is connected exactly when c = 1
at the root.  Any other cycle, a second v0-edge in one component included,
leaves more components than c, and entries whose partition disagrees with
c are dropped; the one local check left is that no edge lies in two
triangles (a diamond keeps the count right).  Introduce reads the new
vertex's bag neighbours from one row of the bag adjacency bitmasks the
engine hands it, and a join subtracts once the bag vertices, edges and
triangles both sides counted.
"""

from __future__ import annotations

from ..graph import Graph
from ..partitions import (
    drop_set,
    glue_set,
    meet_sets,
    reduce_codes,
    shift_set,
    union_into,
)
from ..treedecomp import NiceTreeDecomposition
from .engine import bits, insert_at, insert_bit, remove_at, remove_bit, run_dp


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


def _forget_ground(out: dict, key: tuple, entries: dict, i: int) -> None:
    """Forget ground position i of `entries` into out[key], whose key ends
    with the count c: i leaves as it is, or first takes its component's
    v0-edge (a meet with the block {i, v0}) under count c - 1.  If i's block
    holds v0 already, that edge closes a cycle and `finish` drops the code."""
    *rest, c = key
    union_into(out, key, drop_set(entries, i))
    n = len(next(iter(entries))) - 1
    attached = meet_sets(entries, {tuple(range(n)) + (i,): 0})
    union_into(out, (*rest, c - 1), drop_set(attached, i))


def _dp(g, ntd, budget, stats, leaf_key, hooks, bag_deleted) -> int | None:
    """Run the engine with one solver's introduce, forget and join `hooks`
    from a leaf table holding `leaf_key`, and return the least weight
    at the root, where `finish` leaves only connected (c == 1) entries.
    Table keys end with the component count c and map to {code: weight}
    dicts; a weight counts the deleted vertices the subtree has forgotten,
    and the budget test adds the key's deleted bag vertices,
    `bag_deleted(bag_size, key)`.  The leaf's one code is v0 alone."""
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
        bag_size = len(bag)
        for key, entries in list(table.items()):
            want = key[-1]
            room = limit - bag_deleted(bag_size, key)
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

    root_table = run_dp(
        g, ntd, lambda: {leaf_key: {(0,): 0}}, *hooks, finish=finish, stats=stats
    )
    if stats is not None:
        stats["max_partition_set_size"] = max(
            stats.get("max_partition_set_size", 0), max_pset
        )
    return min(
        (w for entries in root_table.values() for w in entries.values()),
        default=None,
    )


# ---------------------------------------------------------------------------
# Deletion to C4-topological-minor-free.
#
# Key: (kept bag mask, edges currently in a triangle, component count
# c = kept vertices + 1 - kept edges + kept triangles, where the 1 is v0 and
# the edges include one v0-edge per component, taken at a forget node and
# never at a bag vertex).  The edge set uses vertex-id pairs so it survives
# bag changes untouched.


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
    hooks = (_c4_introduce, _c4_forget, _c4_join)
    return _dp(g, ntd, budget, stats, (0, frozenset(), 1), hooks, _c4_bag_deleted)


def _c4_bag_deleted(bag_size: int, key) -> int:
    return bag_size - key[0].bit_count()


def _c4_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    v = bag[pos]
    bit = 1 << pos
    out: dict = {}
    for (kept_c, redges, c), entries in child.items():
        kept = insert_bit(kept_c, pos)
        union_into(out, (kept, redges, c), entries)
        # v's kept neighbours in g.
        nbrs = adj[pos] & kept
        nbr_pos = bits(nbrs)
        # Each neighbour's partners among v's other neighbours.  Two
        # partners would put edge vq into two new triangles: a diamond.
        partners = [adj[q] & nbrs for q in nbr_pos]
        if any(m & (m - 1) for m in partners):
            continue
        new_tris: set[tuple[int, int]] = set()
        for q, m in zip(nbr_pos, partners):
            if m:
                new_tris.add(_vedge(v, bag[q]))
                new_tris.add(_vedge(bag[q], bag[m.bit_length() - 1]))
        # An edge gaining a second triangle would form a diamond.
        if not redges.isdisjoint(new_tris):
            continue
        redges_p = redges | new_tris
        c_p = c + 1 - len(nbr_pos) + sum(1 for m in partners if m) // 2
        # Ground indices over the new kept mask; v0 follows them.
        ground = kept | bit
        i = _below(ground, pos)
        glue = [_below(ground, q) for q in nbr_pos] + [i]
        union_into(out, (ground, redges_p, c_p), glue_set(entries, i, glue))
    return out


def _c4_forget(v: int, cpos: int, child: dict) -> dict:
    out: dict = {}
    for (kept_c, redges, c), entries in child.items():
        kept = remove_bit(kept_c, cpos)
        if not kept_c >> cpos & 1:
            union_into(out, (kept, redges, c), shift_set(entries, 1))
            continue
        rem = frozenset(e for e in redges if v not in e)
        _forget_ground(out, (kept, rem, c), entries, _below(kept_c, cpos))
    return out


def _c4_join(adj: list[int], left: dict, right: dict) -> dict:
    grouped: dict[int, tuple[int, int, list]] = {}
    for (kept, redges, c), entries in right.items():
        group = grouped.get(kept)
        if group is None:
            # Bag vertices and v0, bag edges and triangles are counted by
            # both sides.
            edges, tris = _bag_counts(adj, kept)
            shared_c = kept.bit_count() + 1 - edges + tris
            group = grouped[kept] = (shared_c, 3 * tris, [])
        group[2].append((redges, c, entries))
    out: dict = {}
    for (kept, redges1, c1), entries1 in left.items():
        group = grouped.get(kept)
        if group is None:
            continue
        shared_c, tri_edge_count, bucket = group
        for redges2, c2, entries2 in bucket:
            # Both sides hold every edge of the bag's triangles, which are
            # edge-disjoint; any further shared edge would glue two
            # triangles onto one edge.
            if len(redges1 & redges2) != tri_edge_count:
                continue
            key = (kept, redges1 | redges2, c1 + c2 - shared_c)
            union_into(out, key, meet_sets(entries1, entries2))
    return out


# ---------------------------------------------------------------------------
# Deletion to paw-topological-minor-free.
#
# Per-vertex labels: 0 deleted, 1 forest part, 2/3/4 cycle part with current
# internal degree 0/1/2.  Key: (labels, forest component count c = forest
# vertices + 1 - forest edges, where the 1 is v0, which is in the forest
# part, and the edges include one v0-edge per component, taken at a forget
# node and never at a bag vertex).

_DEL, _FOREST, _CYC0, _CYC1, _CYC2 = range(5)


def solve_paw(
    g: Graph,
    ntd: NiceTreeDecomposition,
    stats: dict | None = None,
    budget: int | None = None,
) -> int | None:
    """Minimum deletions making g paw-TM-free; see solve_c4 for the contract."""
    return _paw_pass(g, ntd, budget, stats)


def _forest_mask(labels: tuple[int, ...]) -> int:
    return sum(1 << p for p, x in enumerate(labels) if x == _FOREST)


def _paw_pass(g, ntd, budget, stats) -> int | None:
    hooks = (_paw_introduce, _paw_forget, _paw_join)
    return _dp(g, ntd, budget, stats, ((), 1), hooks, _paw_bag_deleted)


def _paw_bag_deleted(bag_size: int, key) -> int:
    return key[0].count(_DEL)


def _paw_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    nbr_pos = bits(adj[pos])
    plain_nbrs = [q if q < pos else q - 1 for q in nbr_pos]
    out: dict = {}
    for (labels_c, c), entries in child.items():
        union_into(out, (insert_at(labels_c, pos, _DEL), c), entries)

        forest_adjacent = [q for q in plain_nbrs if labels_c[q] == _FOREST]
        cycle_adjacent = [q for q in plain_nbrs if labels_c[q] >= _CYC0]

        # Forest case: no plain edge may run into the cycle part.
        if not cycle_adjacent:
            labels = insert_at(labels_c, pos, _FOREST)
            # Ground indices over the forest positions; v0 follows them.
            i = labels[:pos].count(_FOREST)
            nbrs = [labels[:q].count(_FOREST) for q in nbr_pos if labels[q] == _FOREST]
            key = (labels, c + 1 - len(nbrs))
            union_into(out, key, glue_set(entries, i, nbrs + [i]))

        # Cycle case: neighbors already in the cycle part gain one degree.
        if (
            not forest_adjacent
            and len(cycle_adjacent) <= 2
            and all(labels_c[q] in (_CYC0, _CYC1) for q in cycle_adjacent)
        ):
            upd = list(labels_c)
            for q in cycle_adjacent:
                upd[q] += 1
            labels = insert_at(
                tuple(upd), pos, _CYC0 + len(cycle_adjacent)
            )
            union_into(out, (labels, c), entries)
    return out


def _paw_forget(v: int, cpos: int, child: dict) -> dict:
    out: dict = {}
    for (labels_c, c), entries in child.items():
        label = labels_c[cpos]
        if label in (_CYC0, _CYC1):
            continue  # a cycle vertex leaves the bag only once closed
        labels = remove_at(labels_c, cpos)
        if label == _FOREST:
            i = labels_c[:cpos].count(_FOREST)
            _forget_ground(out, (labels, c), entries, i)
            continue
        if label == _DEL:
            entries = shift_set(entries, 1)
        union_into(out, (labels, c), entries)
    return out


def _paw_join(adj: list[int], left: dict, right: dict) -> dict:

    def kind_key(labels: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(min(x, _CYC0) for x in labels)

    grouped: dict[tuple, tuple[int, list]] = {}
    for (labels, c), entries in right.items():
        kinds = kind_key(labels)
        group = grouped.get(kinds)
        if group is None:
            # Bag forest vertices and v0, and bag forest edges are counted by
            # both sides.
            forest = _forest_mask(kinds)
            shared_c = forest.bit_count() + 1 - _bag_counts(adj, forest)[0]
            group = grouped[kinds] = (shared_c, [])
        group[1].append((labels, c, entries))
    out: dict = {}
    for (labels1, c1), entries1 in left.items():
        group = grouped.get(kind_key(labels1))
        if group is None:
            continue
        shared_c, bucket = group
        cyc_positions = [p for p, x in enumerate(labels1) if x >= _CYC0]
        cyc_mask = sum(1 << p for p in cyc_positions)
        for labels2, c2, entries2 in bucket:
            merged = list(labels1)
            ok = True
            for p in cyc_positions:
                # Cycle edges inside the bag are seen by both children.
                shared = (adj[p] & cyc_mask).bit_count()
                z = (labels1[p] - _CYC0) + (labels2[p] - _CYC0) - shared
                if not 0 <= z <= 2:
                    ok = False
                    break
                merged[p] = _CYC0 + z
            if not ok:
                continue
            key = (tuple(merged), c1 + c2 - shared_c)
            union_into(out, key, meet_sets(entries1, entries2))
    return out
