import random
from itertools import product

import pytest

from hitminor import Partition, WeightedPartitionSet, all_partitions

from corpus import (
    blocksof,
    naive_coarsens,
    naive_glue,
    naive_ins,
    naive_join,
    naive_join_op,
    naive_meet,
    naive_merged,
    naive_opt,
    naive_proj,
    naive_restrict,
    naive_shift,
    naive_union,
    random_wps,
    wps_to_naive,
)


def blocks(*bs):
    return Partition.from_blocks(bs)


class TestPartitionBasics:
    def test_canonical_encoding(self):
        p = blocks([2, 0], [1])
        q = Partition.from_blocks([[0, 2], [1]])
        assert p == q and hash(p) == hash(q)
        assert p.reps == (0, 1, 0)

    def test_duplicate_element_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[0, 1], [1]])

    def test_bell_counts(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
            assert len(list(all_partitions(range(n)))) == bell


class TestLatticeLaws:
    GROUND = (0, 1, 2, 3)

    def all4(self):
        return list(all_partitions(self.GROUND))

    def test_coarsens_examples(self):
        assert blocks([0, 1]).coarsens(blocks([0], [1]))
        assert not blocks([0], [1]).coarsens(blocks([0, 1]))
        for p in self.all4():
            assert p.coarsens(p)

    def test_coarsens_is_partial_order(self):
        ps = self.all4()
        for p, q in product(ps, repeat=2):
            if p.coarsens(q) and q.coarsens(p):
                assert p == q
        rng = random.Random(0)
        for _ in range(300):
            p, q, r = rng.choice(ps), rng.choice(ps), rng.choice(ps)
            if p.coarsens(q) and q.coarsens(r):
                assert p.coarsens(r)

    def test_meet_join_laws(self):
        ps = self.all4()
        bottom = Partition.merged(self.GROUND, self.GROUND)
        top = Partition.singletons(self.GROUND)
        for p, q in product(ps, repeat=2):
            m = p.meet(q)
            j = p.lattice_join(q)
            assert m == q.meet(p) and j == q.lattice_join(p)
            assert m.coarsens(p) and m.coarsens(q)
            assert p.coarsens(j) and q.coarsens(j)
        for p in ps:
            assert p.meet(p) == p and p.lattice_join(p) == p
            assert p.meet(top) == p
            assert p.meet(bottom) == bottom
            assert p.lattice_join(top) == top

    def test_associativity_sampled(self):
        ps = self.all4()
        rng = random.Random(1)
        for _ in range(200):
            p, q, r = rng.choice(ps), rng.choice(ps), rng.choice(ps)
            assert p.meet(q).meet(r) == p.meet(q.meet(r))
            assert p.lattice_join(q).lattice_join(r) == p.lattice_join(
                q.lattice_join(r)
            )

    def test_meet_example(self):
        got = blocks([0, 1], [2]).meet(blocks([1, 2], [0]))
        assert got == blocks([0, 1, 2])

    def test_join_example(self):
        got = blocks([0, 1, 2]).lattice_join(blocks([0, 1], [2]))
        assert got == blocks([0, 1], [2])
        got = blocks([0, 1], [2]).lattice_join(blocks([0], [1, 2]))
        assert got == Partition.singletons((0, 1, 2))


class TestGroundSurgery:
    def test_restrict(self):
        assert blocks([0, 1], [2]).restrict([0, 2]) == blocks([0], [2])
        p = blocks([0, 1], [2])
        assert p.restrict([0, 1, 2]) == p
        assert p.restrict([]) == Partition((), ())

    def test_lift(self):
        assert blocks([0]).lift([0, 1]) == blocks([0], [1])
        p = blocks([0, 2])
        assert p.lift([0, 2]) == p
        assert Partition((), ()).lift([5]) == blocks([5])

    def test_merged(self):
        assert Partition.merged([0, 1, 2], [0, 1]) == blocks([0, 1], [2])
        assert Partition.merged([0, 1], []) == Partition.singletons((0, 1))
        assert Partition.merged([0, 1], [1]) == Partition.singletons((0, 1))
        assert Partition.merged([0, 1, 2], [0, 1, 2]) == blocks([0, 1, 2])

    def test_errors(self):
        with pytest.raises(ValueError):
            blocks([0, 1]).restrict([5])
        with pytest.raises(ValueError):
            blocks([0, 1]).lift([0])
        with pytest.raises(ValueError):
            blocks([0]).meet(blocks([1]))


def wps(ground, *pairs):
    return WeightedPartitionSet.from_pairs(
        ground, [(Partition.from_blocks(bs), w) for bs, w in pairs]
    )


class TestSetOperators:
    def test_union_rmc(self):
        a = wps((0, 1), ([[0, 1]], 3))
        b = wps((0, 1), ([[0, 1]], 5))
        assert a.union(b).entries == {blocks([0, 1]): 3}
        assert a.union(WeightedPartitionSet((0, 1))).entries == a.entries
        disjoint = wps((0, 1), ([[0], [1]], 2))
        merged = a.union(disjoint)
        assert merged.entries == {blocks([0, 1]): 3, blocks([0], [1]): 2}

    def test_ins(self):
        a = wps((0,), ([[0]], 2))
        got = a.ins([1])
        assert got.entries == {blocks([0], [1]): 2}
        with pytest.raises(ValueError):
            a.ins([0])

    def test_shift(self):
        a = wps((0,), ([[0]], 1))
        assert a.shift(4).entries == {blocks([0]): 5}
        assert a.shift(0).entries == a.entries

    def test_glue(self):
        a = wps((0,), ([[0]], 2))
        assert a.glue([0, 1]).entries == {blocks([0, 1]): 2}
        assert a.glue([]).entries == a.entries
        b = wps((0, 1), ([[0], [1]], 7))
        assert b.glue([0]).entries == b.entries

    def test_proj(self):
        a = wps((0, 1), ([[0, 1]], 1), ([[0], [1]], 4))
        got = a.proj([1])
        assert got.entries == {blocks([0]): 1}
        assert a.proj([]).entries == a.entries
        # Projecting the whole ground drops entries with any block left
        # partnerless, which over a non-empty ground is all of them.
        assert a.proj([0, 1]).entries == {}

    def test_join(self):
        a = wps((0,), ([[0]], 1))
        b = wps((1,), ([[1]], 2))
        assert a.join(b).entries == {blocks([0], [1]): 3}
        c = wps((0, 1), ([[0, 1]], 0))
        tops = wps((0, 1), ([[0], [1]], 0))
        assert c.join(tops).entries == {blocks([0, 1]): 0}

    def test_opt(self):
        a = wps((0, 1), ([[0], [1]], 7))
        assert a.opt(blocks([0, 1])) == 7
        assert a.opt(Partition.singletons((0, 1))) is None
        empty = WeightedPartitionSet((0, 1))
        assert empty.opt(blocks([0, 1])) is None

    def test_dump_format(self):
        a = wps((0, 1, 2), ([[0, 2], [1]], 4), ([[0, 1, 2]], 1))
        assert a.dump() == "{0,1,2} w=1\n{0,2} {1} w=4"
        assert WeightedPartitionSet((0,)).dump() == ""

    def test_join_size_product(self):
        rng = random.Random(7)
        a = random_wps((0, 1, 2), 12, rng)
        b = random_wps((1, 2, 3), 12, rng)
        assert len(a.join(b)) <= len(a) * len(b)


class TestNaiveEquivalence:
    """Every operator matches a from-the-formula reimplementation."""

    def test_random_inputs(self):
        rng = random.Random(42)
        for trial in range(300):
            k = rng.randrange(0, 6)
            ground = tuple(sorted(rng.sample(range(8), k)))
            a = random_wps(ground, rng.randrange(0, 8), rng)
            b = random_wps(ground, rng.randrange(0, 8), rng)
            na, nb = wps_to_naive(a), wps_to_naive(b)

            assert wps_to_naive(a.union(b)) == naive_union(na, nb)
            assert wps_to_naive(a.shift(3)) == naive_shift(3, na)

            fresh = tuple(x for x in range(8, 11) if rng.random() < 0.5)
            assert wps_to_naive(a.ins(fresh)) == naive_ins(fresh, na)

            if ground:
                xs = tuple(x for x in ground if rng.random() < 0.4)
                assert wps_to_naive(a.proj(xs)) == naive_proj(xs, na)
                s = tuple(
                    x for x in range(max(ground) + 2) if rng.random() < 0.3
                )
                assert wps_to_naive(a.glue(s)) == naive_glue(s, na)

            other_ground = tuple(sorted(rng.sample(range(8), rng.randrange(0, 4))))
            c = random_wps(other_ground, rng.randrange(0, 6), rng)
            assert wps_to_naive(a.join(c)) == naive_join_op(na, wps_to_naive(c))

            for q in all_partitions(ground):
                assert a.opt(q) == naive_opt(blocksof(q), na)

    def test_partition_ops_random(self):
        rng = random.Random(17)
        for _ in range(300):
            k = rng.randrange(0, 6)
            ground = tuple(sorted(rng.sample(range(9), k)))
            universe = list(all_partitions(ground))
            p, q = rng.choice(universe), rng.choice(universe)
            np_, nq = blocksof(p), blocksof(q)
            assert p.coarsens(q) == naive_coarsens(np_, nq)
            assert blocksof(p.meet(q)) == naive_meet(np_, nq)
            assert blocksof(p.lattice_join(q)) == naive_join(np_, nq)
            xs = tuple(x for x in ground if rng.random() < 0.5)
            assert blocksof(p.restrict(xs)) == naive_restrict(np_, xs)
            sup = set(ground) | {9, 10}
            assert blocksof(p.lift(sup)) == naive_lift_check(np_, sup)
            s = tuple(x for x in ground if rng.random() < 0.4)
            assert blocksof(Partition.merged(ground, s)) == naive_merged(
                ground, s
            )


def naive_lift_check(p, sup):
    from corpus import naive_lift

    return naive_lift(p, sup)


class TestReduce:
    def test_small_inputs_unchanged(self):
        a = wps((0, 1), ([[0, 1]], 3))
        assert a.reduce() is a
        empty_ground = WeightedPartitionSet.base()
        assert empty_ground.reduce() is empty_ground

    def test_output_is_subset(self):
        rng = random.Random(3)
        for _ in range(60):
            k = rng.randrange(1, 6)
            a = random_wps(tuple(range(k)), rng.randrange(0, 40), rng)
            r = a.reduce()
            for p, w in r.entries.items():
                assert a.entries[p] == w

    def test_size_bound(self):
        rng = random.Random(5)
        for _ in range(40):
            k = rng.randrange(1, 7)
            a = random_wps(tuple(range(k)), 80, rng)
            assert len(a.reduce()) <= 2 ** k

    def test_represents_exhaustively(self):
        rng = random.Random(11)
        for k in (1, 2, 3, 4):
            demands = list(all_partitions(range(k)))
            for _ in range(25):
                a = random_wps(tuple(range(k)), rng.randrange(1, 30), rng)
                r = a.reduce()
                for q in demands:
                    assert r.opt(q) == a.opt(q)

    def test_operators_preserve_representation(self):
        rng = random.Random(19)
        for _ in range(40):
            ground = (0, 1, 2)
            a = random_wps(ground, rng.randrange(2, 25), rng)
            r = a.reduce()
            variants = [
                (a.ins([5]), r.ins([5])),
                (a.shift(2), r.shift(2)),
                (a.glue([1, 4]), r.glue([1, 4])),
                (a.proj([2]), r.proj([2])),
            ]
            for full, reduced in variants:
                for q in all_partitions(full.ground):
                    assert full.opt(q) == reduced.opt(q)
