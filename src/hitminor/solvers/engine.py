"""The one dynamic-programming traversal shared by every table solver.

A solver supplies a table per node kind: `leaf()`, `introduce(t, pos, child)`
with `pos` the introduced vertex's position in bag t, `forget(t, cpos, child)`
with `cpos` the forgotten vertex's position in the child's bag, and
`join(t, left, right)`.  Nodes are visited in the post-order of the nice
decomposition (Cygan et al., *Parameterized Algorithms*, §7.3), and a child's
table is dropped as soon as its parent's is built, so at most one table per
pending join branch is alive.  Tables are dicts keyed by per-solver labels.
"""

from __future__ import annotations

from ..treedecomp import FORGET, INTRODUCE, LEAF, NiceTreeDecomposition


def insert_at(labels: tuple, pos: int, value) -> tuple:
    return labels[:pos] + (value,) + labels[pos:]


def remove_at(labels: tuple, pos: int) -> tuple:
    return labels[:pos] + labels[pos + 1 :]


def run_dp(
    ntd: NiceTreeDecomposition,
    leaf,
    introduce,
    forget,
    join,
    finish=None,
    bound: int | None = None,
    stats: dict | None = None,
) -> dict:
    """Build every node's table bottom-up and return the root's.

    `finish(t, table)`, if given, may prune or rewrite node t's table in
    place before it is measured.  With a `bound`, every table is asserted to
    hold at most bound^|bag| keys.  The largest table size is folded into
    `stats["max_table_size"]`.
    """
    tables: list[dict | None] = [None] * len(ntd)
    max_table = 0
    for t in range(len(ntd)):
        kind = ntd.kinds[t]
        kids = ntd.children[t]
        if kind == LEAF:
            table = leaf()
        elif kind == INTRODUCE:
            pos = ntd.bags[t].index(ntd.vertex[t])
            table = introduce(t, pos, tables[kids[0]])
        elif kind == FORGET:
            cpos = ntd.bags[kids[0]].index(ntd.vertex[t])
            table = forget(t, cpos, tables[kids[0]])
        else:
            table = join(t, tables[kids[0]], tables[kids[1]])
        for c in kids:
            tables[c] = None
        if finish is not None:
            finish(t, table)
        if bound is not None:
            assert len(table) <= bound ** len(ntd.bags[t])
        max_table = max(max_table, len(table))
        tables[t] = table
    if stats is not None:
        stats["max_table_size"] = max(stats.get("max_table_size", 0), max_table)
    root_table = tables[ntd.root]
    assert root_table is not None
    return root_table
