"""The one dynamic-programming traversal shared by every table solver, and
the packed-key codec of their labels.

A solver supplies a table per node kind: `leaf()`, `introduce(bag, adj,
pos, child)` with `pos` the introduced vertex's position in `bag`,
`forget(v, cpos, child)` with `cpos` the forgotten vertex v's position in
the child's bag, and `join(adj, left, right)`.  `adj` is the node's bag
adjacency (`bag_adjacency`), built once per introduce and join node.  Nodes
are visited in the post-order of the nice decomposition (Cygan et al.,
*Parameterized Algorithms*, §7.3), and a child's table is dropped as soon as
its parent's is built, so at most one table per pending join branch is
alive.

A table's weight counts every deleted vertex of its entry's partial
solution, bag vertices included: an introduce pays the vertex it deletes,
and a join subtracts the deleted bag vertices both sides count.  So a
forget adds no weight, and the engine alone sets a decide-mode budget:
after each leaf, introduce and join node it drops every entry whose weight
exceeds the budget, reading no key.  Then `finish(table)`, which C4 and paw
pass, reduces the table in place.  A solver whose root table is left empty
returns None.

Every solver packs its bag vertices' labels into one int: bag position p's
label is the field of `width` bits at bit width·p, and label 0 (deleted) is
an all-zero field, so the empty bag's key is 0.  The label tables key an
entry by that int, C4 and paw by (that int, triangle edges, component
count, partition code).  `get_field`, `insert_field` and `remove_field`
read, insert and drop one field; a bitmask of bag positions is the width-1
case, `spread` widens one into a key with label 1 at each of its
positions, and `field_mask` narrows a key back to the bitmask of its
nonzero fields.  A solver that keeps its labels below 2^(width-2) leaves
the top bit of each field, the guard bit, free: adding a constant per field
(`guard_fills`) then sets a field's guard bit exactly when its label passes
a threshold, so one addition and one mask test every field at once.  The
solvers' per-entry loops inline these shifts, since a call per key costs
about a third of a forget; the three field functions are the tests'
reference.
"""

from __future__ import annotations

from ..graph import Graph
from ..treedecomp import FORGET, INTRODUCE, LEAF, NiceTreeDecomposition


def bag_adjacency(g: Graph, bag: tuple[int, ...]) -> list[int]:
    """For each bag position, the bitmask of the positions of its neighbours
    in g."""
    rows = []
    # One membership test per pair of bag vertices: a hub costs no more
    # than any other vertex.
    for v in bag:
        nbrs = g.neighbors(v)
        row = 0
        for i, w in enumerate(bag):
            if w in nbrs:
                row |= 1 << i
        rows.append(row)
    return rows


def bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def get_field(key: int, pos: int, width: int) -> int:
    """The label at bag position `pos` of a key packed `width` bits per
    position."""
    return key >> width * pos & ((1 << width) - 1)


def insert_field(key: int, pos: int, value: int, width: int) -> int:
    """`key` with a field holding `value` inserted at `pos`; the fields from
    `pos` on move up one position."""
    shift = width * pos
    return key & ((1 << shift) - 1) | value << shift | (key >> shift) << shift + width


def remove_field(key: int, pos: int, width: int) -> int:
    """`key` without the field at `pos`; the fields above it move down one
    position."""
    shift = width * pos
    return key & ((1 << shift) - 1) | (key >> shift + width) << shift


def spread(mask: int, width: int) -> int:
    """The key with label 1 at each position of the bitmask `mask`, and 0
    elsewhere."""
    return sum(1 << width * p for p in bits(mask))


def field_mask(key: int, width: int) -> int:
    """The bitmask of the positions whose field in `key` is nonzero."""
    return sum({1 << b // width for b in bits(key)})


def kept_counts(adj: list[int], key: int, width: int) -> list[tuple[int, int]]:
    """(p, c) for each position p whose field is nonzero in `key`, c its
    number of such bag neighbours."""
    mask = field_mask(key, width)
    return [(p, (adj[p] & mask).bit_count()) for p in bits(mask)]


def guard_fills(mask: int, width: int, *least: int) -> tuple[int, ...]:
    """The guard bits of the fields at the positions in `mask`, then for
    each t in `least` the constant whose addition sets a field's guard bit
    exactly where its label (below 2^(width-1)) is at least t."""
    ones = spread(mask, width)
    top = 1 << width - 1
    return (ones * top, *(ones * (top - t) for t in least))


def check_bags(g: Graph, ntd: NiceTreeDecomposition) -> None:
    """Raise ValueError if a bag of `ntd` holds a vertex outside g."""
    for t, bag in enumerate(ntd.bags):
        if bag and bag[-1] >= g.n:  # bags are sorted: bag[-1] is the largest
            raise ValueError(
                f"bag at node {t} holds vertex {bag[-1]}, which is not in"
                f" the {g.n}-vertex graph"
            )


def run_dp(
    g: Graph,
    ntd: NiceTreeDecomposition,
    leaf,
    introduce,
    forget,
    join,
    finish=None,
    budget: int | None = None,
    bound: int | None = None,
    stats: dict | None = None,
) -> dict:
    """Build every node's table bottom-up over `ntd`, a nice decomposition
    of g, and return the root's.

    A label table maps a key, its packed labels, to the least weight of a
    partial solution realizing them; C4 and paw key an entry by (labels,
    ..., code).  `budget` prunes as the module docstring says, and
    `finish(table)` runs on every node's table after it.  A bag vertex
    outside g raises ValueError.  With a `bound`, every table is asserted
    to hold at most bound^|bag| keys.  The largest table size is folded
    into `stats["max_table_size"]`, and the number of entries stored over
    all nodes is added to `stats["table_entries"]`.
    """
    check_bags(g, ntd)
    tables: list[dict | None] = [None] * len(ntd)
    max_table = 0
    entries = 0
    for t in range(len(ntd)):
        kind = ntd.kinds[t]
        kids = ntd.children[t]
        bag = ntd.bags[t]
        if kind == LEAF:
            table = leaf()
        elif kind == INTRODUCE:
            pos = bag.index(ntd.vertex[t])
            table = introduce(bag, bag_adjacency(g, bag), pos, tables[kids[0]])
        elif kind == FORGET:
            v = ntd.vertex[t]
            table = forget(v, ntd.bags[kids[0]].index(v), tables[kids[0]])
        else:
            table = join(bag_adjacency(g, bag), tables[kids[0]], tables[kids[1]])
        for c in kids:
            tables[c] = None
        if budget is not None and kind != FORGET:
            for key in [key for key, w in table.items() if w > budget]:
                del table[key]
        if finish is not None:
            finish(table)
        if bound is not None:
            assert len(table) <= bound ** len(bag)
        max_table = max(max_table, len(table))
        entries += len(table)
        tables[t] = table
    if stats is not None:
        stats["max_table_size"] = max(stats.get("max_table_size", 0), max_table)
        stats["table_entries"] = stats.get("table_entries", 0) + entries
    root_table = tables[-1]  # post-order: the root is the last node
    assert root_table is not None
    return root_table
