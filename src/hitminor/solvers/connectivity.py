"""Connectivity-tracking solvers: deletion to C4-free and to paw-free graphs.

Both run one pass of the rank-based dynamic program over a nice decomposition
of the input, on one table layout.  The solution graph gains a universal
vertex v0, so that "connected" means "reaches v0"; v0 is in no bag, it is
implicit in every code.  A key is (labels, redges, c), the labels packed by
the engine's codec in fields of `_W` = 4 bits, the bounded-degree width for
d = 2.  A bag vertex's label is 0 if deleted, 1 + its degree (1..3) in
paw's cycle part, as in the bounded-degree tables of `labeling.py`, and
`_GROUND` = 4, the only label with bit 2 set, if in the ground (every kept
C4 vertex, and paw's forest part); field sums stay below 16, so keys add
with no carry.  `redges` holds the ground bag edges that lie in a triangle,
as vertex-id pairs that survive bag changes (empty for paw, whose forest
has none), and c counts ground components (below).

A table maps (labels, redges, c, code) to the least weight, each hook
working entry by entry through the cached kernels of `partitions`.  A code
is a partition of the ground bag vertices plus v0 (their connectivity
classes): for each ground position in bag order and then for v0, the least
position in its block.  A weight counts the deleted vertices of the
partial solution, bag vertices included: a deletion is paid at its
introduce node.  After every node the codes of each key that holds four or
more are shrunk to a min-weight representative subset, which keeps the
tables single-exponential in the bag size.  The answer is the least weight
at the root, where v0 alone is left; with a budget, an entry goes as soon
as its weight exceeds it.  Each component
takes one edge to v0, at the forget node of one of its vertices, so no key
records one: a forgotten ground position leaves as it is, which needs
another position in its block, or takes its component's v0-edge first.

Correctness rests on a counter rather than on local cycle checks: a kept
graph whose blocks are edges and triangles (C4-free) with i vertices, j
edges and l triangles has c = i - j + l components, and a forest with i
vertices and j edges has c = i - j; v0 and its edges count too.  So the
solution is connected exactly when c = 1 at the root.  Any other cycle, a
second v0-edge in one component included, leaves more blocks than c, so
a code stays only with exactly c blocks, checked where blocks merge: at
glue, at the join's meet and in `attach` (the v0-edge, which drops a code
whose position shares v0's block already); the one local check left is
that no edge lies in two triangles (a diamond keeps the count right).

The two solvers share the reduction (`finish`, run on each node's table),
one forget and one join; each supplies its introduce, which reads the new
vertex's bag neighbours from the engine's bag adjacency bitmasks, and the
labels that may not be forgotten.  A join pairs entries whose positions
agree on their kind (deleted, cycle or ground), adds them, subtracts once
what both sides counted, deleted bag vertices included, as the
bounded-degree join does, and rejects a cycle degree above 2 with one
guard-bit test.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import itemgetter

from ..graph import Graph
from ..partitions import attach, block_count, drop_code, insert_glue, meet_codes, reduce_codes
from ..treedecomp import NiceTreeDecomposition
from .engine import bits, field_mask, guard_fills, kept_counts, run_dp, spread

_W = 4
_GROUND = 4
# Paw's cycle labels of degree below 2, which may not be forgotten.
_OPEN = (1, 2)
# The empty bag's one viable entry, v0 alone: the leaf's and the root's.
_EMPTY = (0, frozenset(), 1, (0,))
# An entry's (labels, redges, c), whose codes `finish` reduces together.
_head = itemgetter(slice(3))


def _ground_bits(n: int) -> int:
    """Bit 2 of each of the first n fields: a key's ground fields."""
    return spread((1 << n) - 1, _W) << 2


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


def _forget(stay: tuple[int, ...], v: int, cpos: int, child: dict) -> dict:
    """Drop position cpos's field (`remove_field`, inlined); a label in
    `stay` may not leave.  A ground position i leaves
    as it is, or takes its component's v0-edge under count c - 1 (`attach`,
    which drops a code whose i shares v0's block: that edge closes a
    cycle)."""
    shift = _W * cpos
    low = (1 << shift) - 1
    # The ground bits below cpos: their count is cpos's ground index.
    below = _ground_bits(cpos)
    out: dict = {}
    for (key_c, redges, c, code), w in child.items():
        x = key_c >> shift & 0b1111
        if x in stay:
            continue
        key = key_c & low | (key_c >> shift + _W) << shift
        if x == _GROUND:
            if redges:
                redges = frozenset(e for e in redges if v not in e)
            i = (key_c & below).bit_count()
            images = ((drop_code(code, i, True), c), (attach(code, i), c - 1))
        else:
            images = ((code, c),)
        for new, c_new in images:
            if new is not None:
                entry = (key, redges, c_new, new)
                if w < out.get(entry, w + 1):
                    out[entry] = w
    return out


def _join(adj: list[int], left: dict, right: dict) -> dict:
    ground_bits = _ground_bits(len(adj))
    ones = ground_bits >> 2
    guard = ones << _W - 1
    # A key's kinds: 4 in a ground field, 1 in a cycle field, 0 if deleted.
    grouped: dict[int, tuple] = {}
    for (key, redges, c, code), w in right.items():
        kinds = key & ground_bits | (key | key >> 1) & ones
        group = grouped.get(kinds)
        if group is None:
            # Both sides count the ground labels, bag vertices and v0, edges
            # and triangles, at a cycle position its 1 and its cycle bag
            # neighbours, and the deleted bag vertices.
            ground = field_mask(kinds & ground_bits, _W)
            edges, tris = _bag_counts(adj, ground)
            shared = kinds + sum(m << _W * p for p, m in kept_counts(adj, kinds & ones, _W))
            shared_c = ground.bit_count() + 1 - edges + tris
            dels = len(adj) - field_mask(kinds, _W).bit_count()
            # 4 more sets a cycle field's guard bit where its degree passes 2.
            group = grouped[kinds] = (shared, (kinds & ones) << 2, shared_c, 3 * tris, dels, [])
        group[5].append((key, redges, c, code, w))
    out: dict = {}
    for (key1, redges1, c1, code1), w1 in left.items():
        group = grouped.get(key1 & ground_bits | (key1 | key1 >> 1) & ones)
        if group is None:
            continue
        shared, over, shared_c, tri_edge_count, dels, bucket = group
        base = key1 - shared
        w1 -= dels
        for key2, redges2, c2, code2, w2 in bucket:
            # Both sides hold every edge of the bag's triangles, which are
            # edge-disjoint; any further shared edge would glue two
            # triangles onto one edge.
            if len(redges1 & redges2) != tri_edge_count:
                continue
            key = base + key2
            if (key + over) & guard:
                continue
            code = meet_codes(code1, code2)
            c = c1 + c2 - shared_c
            if block_count(code) != c:
                continue
            entry = (key, redges1 | redges2, c, code)
            w = w1 + w2
            if w < out.get(entry, w + 1):
                out[entry] = w
    return out


def _dp(g, ntd, budget, stats, introduce, stay) -> int | None:
    """Run the engine with one solver's `introduce`, the shared leaf and
    join and the forget that keeps labels in `stay`; return the least
    weight at the root, where v0 is alone and c = 1."""
    max_pset = 0

    def finish(table: dict) -> None:
        # Reduce the codes of each key that holds four or more.  Distinct
        # codes have distinct cut rows, each with bit 0 set (the cut whose V2
        # side is empty), so the XOR of two rows is no third row:
        # `reduce_codes` keeps any three.
        nonlocal max_pset
        sizes = Counter(map(_head, table))
        sets = {head: {} for head, n in sizes.items() if n > 3}
        if sets:
            for entry, w in table.items():
                codes = sets.get(entry[:3])
                if codes is not None:
                    codes[entry[3]] = w
            for head, codes in sets.items():
                kept = reduce_codes(codes)
                assert len(kept) <= 1 << len(next(iter(kept))) - 1
                for code in codes.keys() - kept.keys():
                    del table[(*head, code)]
                sizes[head] = len(kept)
        max_pset = max(max_pset, *sizes.values(), 0)

    hooks = (introduce, partial(_forget, stay), _join)
    root_table = run_dp(g, ntd, {_EMPTY: 0}.copy, *hooks, finish, budget, stats=stats)
    if stats is not None:
        stats["max_partition_set_size"] = max(stats.get("max_partition_set_size", 0), max_pset)
    return root_table.get(_EMPTY)


# ---------------------------------------------------------------------------
# Deletion to C4-topological-minor-free: every kept vertex is ground, and
# c = kept vertices + 1 (v0) - kept edges (one v0-edge per component
# included) + kept triangles.


def solve_c4(
    g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Minimum deletions making g C4-TM-free, or None if they exceed a given
    budget, in a single pass either way.  `ntd` must be a nice decomposition
    of g; a bag vertex outside g raises ValueError."""
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
    # would put edge vq into two new triangles: a diamond.  This is an early
    # exit: `dc` would then count fewer triangles than the glue merges
    # blocks, so the block-count test would drop every code too.  It stays
    # until that is proved.
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
    i, *glue = [(ground & ((1 << q) - 1)).bit_count() for q in (pos, *nbr_pos)]
    return new_tris, dc, i, (*glue, i)


def _c4_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    shift = _W * pos
    low = (1 << shift) - 1
    out: dict = {}
    # The new keys and the kept vertex's growth depend only on the child's
    # packed labels, so each distinct one builds them once.
    views: dict = {}
    for (key_c, redges, c, code), w in child.items():
        view = views.get(key_c)
        if view is None:
            deleted = key_c & low | (key_c >> shift) << shift + _W  # `insert_field`, 0
            growth = _c4_growth(bag, adj, pos, field_mask(deleted, _W))
            view = views[key_c] = (deleted, deleted | _GROUND << shift, growth)
        deleted, grown, growth = view
        # Deleting v maps distinct entries to distinct ones.
        out[deleted, redges, c, code] = w + 1
        if growth is None:
            continue
        new_tris, dc, i, glue = growth
        # An edge gaining a second triangle would form a diamond.
        if not redges.isdisjoint(new_tris):
            continue
        code = insert_glue(code, i, glue)
        if block_count(code) == c + dc:
            entry = (grown, redges | new_tris, c + dc, code)
            if w < out.get(entry, w + 1):
                out[entry] = w
    return out


# ---------------------------------------------------------------------------
# Deletion to paw-topological-minor-free: the forest part is the ground, so
# c = forest vertices + 1 (v0) - forest edges (one v0-edge per component
# included), and cycle vertices are labelled 1 + their cycle degree.


def solve_paw(
    g: Graph, ntd: NiceTreeDecomposition, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Minimum deletions making g paw-TM-free; see solve_c4 for the contract."""
    return _paw_pass(g, ntd, budget, stats)


def _paw_pass(g, ntd, budget, stats) -> int | None:
    return _dp(g, ntd, budget, stats, _paw_introduce, _OPEN)


def _paw_introduce(bag, adj: list[int], pos: int, child: dict) -> dict:
    shift = _W * pos
    low = (1 << shift) - 1
    ground_bits = _ground_bits(len(bag))
    # The ground bits below a position count its ground index.
    nbr_below = [(q, ground_bits & ((1 << _W * q) - 1)) for q in bits(adj[pos])]
    # Added to the neighbours' fields, the fills set the guard bit of a kept
    # one, and of one at cycle degree 2 or ground: those gain no cycle edge.
    guard, kept_fill, full_fill = guard_fills(adj[pos], _W, 1, 3)
    fields = guard | kept_fill
    out: dict = {}
    for (key, redges, c, code), w in child.items():
        key = key & low | (key >> shift) << shift + _W  # `insert_field`, 0
        # Deleting v, and adding it to the cycle part, map distinct entries
        # to distinct ones.
        out[key, redges, c, code] = w + 1
        y = key & fields
        # Forest case: no plain edge may run into the cycle part.
        if not y & ~ground_bits:
            grown = key | _GROUND << shift
            i = (key & low & ground_bits).bit_count()
            # Ground indices over the forest positions; v0 follows them.
            nbrs = [(grown & m).bit_count() for q, m in nbr_below if key >> _W * q & _GROUND]
            c_f = c + 1 - len(nbrs)
            glued = insert_glue(code, i, (*nbrs, i))
            if block_count(glued) == c_f:
                entry = (grown, redges, c_f, glued)
                if w < out.get(entry, w + 1):
                    out[entry] = w
        # Cycle case: neighbours already in the cycle part gain one degree,
        # as in `labeling._bdd_introduce` with d = 2.
        if (y + full_fill) & guard:
            continue
        kept = ((y + kept_fill) & guard) >> _W - 1
        n_cycle = kept.bit_count()
        if n_cycle <= 2:
            out[key + kept + ((1 + n_cycle) << shift), redges, c, code] = w
    return out
