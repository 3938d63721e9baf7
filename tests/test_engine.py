"""The packed-key codec of the table solvers, and their packed joins,
checked against tuple labels."""

import random

import pytest

from hitminor.solvers.connectivity import _GROUND, _W, _join
from hitminor.solvers.engine import (
    bits,
    field_mask,
    get_field,
    insert_field,
    remove_field,
    spread,
)
from hitminor.solvers.labeling import _bdd_join


def insert_at(labels: tuple, pos: int, value) -> tuple:
    return labels[:pos] + (value,) + labels[pos:]


def remove_at(labels: tuple, pos: int) -> tuple:
    return labels[:pos] + labels[pos + 1 :]


def degree_merge_row(d: int, c: int) -> tuple:
    """Join merge rows for labels 0 (deleted) and 1 + degree (at most d) at
    a vertex with c kept bag neighbours, which both sides count: a and b
    join to a + b - 1 - c if that is at most d + 1, else to -1."""
    # A kept label a is at least 1 + c; b = 1, 2, ... joins to a - c, a - c + 1, ...
    kept = ((-1, *range(a - c, d + 2), *(-1,) * (a - c - 1)) for a in range(1, d + 2))
    return ((0,) + (-1,) * (d + 1), *kept)


def pack(labels, width: int) -> int:
    return sum(x << width * p for p, x in enumerate(labels))


def random_adjacency(rng: random.Random, n: int) -> list[int]:
    adj = [0] * n
    for u in range(n):
        for w in range(u):
            if rng.random() < 0.5:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    return adj


def random_labels(rng: random.Random, width: int):
    return tuple(rng.randrange(1 << width) for _ in range(rng.randrange(0, 9)))


@pytest.mark.parametrize("width", [1, 3, 4, 5, 6])
def test_codec_matches_tuple_labels(width):
    rng = random.Random(width)
    for _ in range(300):
        labels = random_labels(rng, width)
        key = pack(labels, width)
        for pos in range(len(labels)):
            assert get_field(key, pos, width) == labels[pos]
            assert remove_field(key, pos, width) == pack(remove_at(labels, pos), width)
        value = rng.randrange(1 << width)
        for pos in range(len(labels) + 1):
            inserted = insert_field(key, pos, value, width)
            assert inserted == pack(insert_at(labels, pos, value), width)


def test_width_one_is_a_bitmask():
    """With one bit per position a key is a bitmask: removing a position
    drops its bit and moves the higher bits down."""
    rng = random.Random(1)
    for _ in range(300):
        mask = rng.getrandbits(12)
        for pos in range(13):
            low = mask & ((1 << pos) - 1)
            assert remove_field(mask, pos, 1) == low | (mask >> pos + 1) << pos
        assert spread(mask, 1) == mask
        assert spread(mask, 4) == pack([mask >> p & 1 for p in range(12)], 4)
        assert field_mask(spread(mask, 4) * 5, 4) == mask


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_bounded_degree_join_matches_merge_rows(d):
    """The packed join, with its one guard-bit test per key, agrees with
    a table-driven merge (`degree_merge_row`) on tuple labels.  A weight
    counts the deleted bag positions, which both sides share, so the join
    subtracts them once."""
    rng = random.Random(d)
    width = (d + 1).bit_length() + 2
    for _ in range(60):
        n = rng.randrange(1, 6)
        adj = random_adjacency(rng, n)
        kept = rng.getrandbits(n)
        # A kept vertex has degree at most d, its kept bag neighbours included.
        while any(kept >> p & 1 and (adj[p] & kept).bit_count() > d for p in range(n)):
            kept &= kept - 1
        deleted = n - kept.bit_count()

        def side():
            # Labels valid at a join: a kept vertex counts its kept bag
            # neighbours.
            table = {}
            for _ in range(12):
                labels = tuple(
                    rng.randrange(1 + (adj[p] & kept).bit_count(), d + 2) if kept >> p & 1 else 0
                    for p in range(n)
                )
                table[labels] = deleted + rng.randrange(5)
            return table

        left, right = side(), side()
        want = {}
        for labels1, r1 in left.items():
            for labels2, r2 in right.items():
                merged = tuple(
                    degree_merge_row(d, (adj[p] & kept).bit_count())[a][b]
                    for p, (a, b) in enumerate(zip(labels1, labels2))
                )
                if -1 not in merged:
                    key = pack(merged, width)
                    r = r1 + r2 - deleted
                    want[key] = min(want.get(key, r), r)
        packed = [{pack(t, width): r for t, r in side.items()} for side in (left, right)]
        assert _bdd_join(d, width, adj, *packed) == want


def test_paw_join_merges_cycle_degrees_as_merge_rows():
    """On packed paw keys, the connectivity join merges each cycle degree
    by `degree_merge_row(2, c)`, c its cycle bag neighbours, and leaves
    every ground and deleted field as it is."""
    rng = random.Random(17)
    joined = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        adj = random_adjacency(rng, n)
        # Each position deleted (0), in the cycle part (1) or ground (2).
        kinds = [rng.randrange(3) for _ in range(n)]
        # Paw's ground is a forest, so no bag triangle lies in it.
        ground = sum(1 << p for p in range(n) if kinds[p] == 2)
        while any(adj[p] & adj[q] & ground for p in bits(ground) for q in bits(adj[p] & ground)):
            kinds[(ground & -ground).bit_length() - 1] = 0
            ground &= ground - 1
        cycle = sum(1 << p for p in range(n) if kinds[p] == 1)
        # A cycle vertex has degree at most 2, its cycle bag neighbours included.
        while any((adj[p] & cycle).bit_count() > 2 for p in bits(cycle)):
            kinds[(cycle & -cycle).bit_length() - 1] = 0
            cycle &= cycle - 1
        counts = [(adj[p] & cycle).bit_count() for p in range(n)]
        # Every key holds the code with one block, so the left keys count
        # c = 1 and the right ones the count both sides share (the ground
        # vertices and v0 less the ground edges): every joined key keeps
        # c = 1, which that code's meet matches.
        code = (0,) * (ground.bit_count() + 1)
        edges = sum((adj[p] & ground).bit_count() for p in bits(ground)) // 2
        shared_c = ground.bit_count() + 1 - edges

        def side(c):
            table = {}
            for _ in range(8):
                labels = tuple(
                    rng.randrange(1 + counts[p], 4) if kinds[p] == 1 else (0, 0, _GROUND)[kinds[p]]
                    for p in range(n)
                )
                table[labels] = c
            return table

        left, right = side(1), side(shared_c)
        want = set()
        for labels1 in left:
            for labels2 in right:
                merged = tuple(
                    degree_merge_row(2, counts[p])[a][b] if kinds[p] == 1 else a
                    for p, (a, b) in enumerate(zip(labels1, labels2))
                )
                if -1 not in merged:
                    want.add(pack(merged, _W))
        packed = [
            {(pack(t, _W), frozenset(), c, code): 0 for t, c in side.items()}
            for side in (left, right)
        ]
        got = {key for key, _, _, _ in _join(adj, *packed)}
        assert got == want
        for key in got:
            for p in range(n):
                if kinds[p] != 1:
                    assert get_field(key, p, _W) == (0, 0, _GROUND)[kinds[p]]
        joined += len(got)
    assert joined > 100
