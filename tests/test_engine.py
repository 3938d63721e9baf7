"""The packed-key codec of the label tables, checked against tuple labels."""

import random

import pytest

from hitminor.solvers.engine import (
    degree_merge_row,
    get_field,
    insert_at,
    insert_field,
    remove_at,
    remove_field,
    spread,
)
from hitminor.solvers.labeling import _bdd_join


def pack(labels, width: int) -> int:
    return sum(x << width * p for p, x in enumerate(labels))


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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_bounded_degree_join_matches_merge_rows(d):
    """The packed join, with its one guard-bit test per key, agrees with
    the table-driven merge (`degree_merge_row`) on tuple labels."""
    rng = random.Random(d)
    width = (d + 1).bit_length() + 2
    for _ in range(60):
        n = rng.randrange(1, 6)
        adj = [0] * n
        for u in range(n):
            for w in range(u):
                if rng.random() < 0.5:
                    adj[u] |= 1 << w
                    adj[w] |= 1 << u
        kept = rng.getrandbits(n)
        # A kept vertex has degree at most d, its kept bag neighbours included.
        while any(kept >> p & 1 and (adj[p] & kept).bit_count() > d for p in range(n)):
            kept &= kept - 1

        def side():
            # Labels valid at a join: a kept vertex counts its kept bag
            # neighbours.
            table = {}
            for _ in range(12):
                labels = tuple(
                    rng.randrange(1 + (adj[p] & kept).bit_count(), d + 2) if kept >> p & 1 else 0
                    for p in range(n)
                )
                table[labels] = rng.randrange(5)
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
                    want[key] = min(want.get(key, r1 + r2), r1 + r2)
        packed = [{pack(t, width): r for t, r in side.items()} for side in (left, right)]
        assert _bdd_join(d, width, adj, *packed) == want
