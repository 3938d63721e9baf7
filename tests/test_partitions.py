import random
from bisect import bisect_left
from itertools import combinations, product

import pytest

from hitminor import (
    Graph,
    Partition,
    WeightedPartitionSet,
    all_partitions,
    heuristic_td,
    make_nice,
    solve_c4,
    solve_paw,
)
from hitminor.partitions import (
    _KERNEL_CACHE,
    _cut_row,
    attach,
    block_count,
    drop_code,
    glue_set,
    insert_glue,
    map_set,
    meet_codes,
    meet_sets,
    reduce_codes,
)

from corpus import (
    blocksof,
    naive_coarsens,
    naive_glue,
    naive_ins,
    naive_join_op,
    naive_meet,
    naive_merged,
    naive_opt,
    naive_proj,
    naive_restrict,
    naive_rmc,
    naive_shift,
    naive_union,
    random_graph,
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

    def test_meet_join_laws(self):
        ps = self.all4()
        bottom = Partition.merged(self.GROUND, self.GROUND)
        top = Partition.singletons(self.GROUND)
        for p, q in product(ps, repeat=2):
            m = p.meet(q)
            assert m == q.meet(p)
            assert naive_coarsens(blocksof(m), blocksof(p))
            assert naive_coarsens(blocksof(m), blocksof(q))
        for p in ps:
            assert p.meet(p) == p
            assert p.meet(top) == p
            assert p.meet(bottom) == bottom

    def test_associativity_sampled(self):
        ps = self.all4()
        rng = random.Random(1)
        for _ in range(200):
            p, q, r = rng.choice(ps), rng.choice(ps), rng.choice(ps)
            assert p.meet(q).meet(r) == p.meet(q.meet(r))

    def test_meet_example(self):
        got = blocks([0, 1], [2]).meet(blocks([1, 2], [0]))
        assert got == blocks([0, 1, 2])


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
            assert blocksof(p.meet(q)) == naive_meet(np_, nq)
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
            assert len(a.reduce()) <= 2 ** (k - 1)

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


class TestCodeKernelsMatchReference:
    """The code kernels the connectivity solvers run, on seeded random
    operation sequences, checked against the naive algebra of `corpus`,
    which shares no code with them: a code over the positions of a sorted
    ground of ids is the partition read through that ground.  Insert+glue,
    drop and project are compared with `naive_glue`, `naive_restrict` and
    `naive_proj`, meets with `naive_join_op`, and reduce by its subset, size
    and opt-preservation properties over every demand partition."""

    @staticmethod
    def as_naive(ground, codes):
        return {(blocksof(Partition(tuple(ground), c)), w) for c, w in codes.items()}

    @staticmethod
    def opt(codes, q):
        """Least weight of a code whose meet with q is one block, through
        `meet_codes`, which the "meet" steps check against the naive meet."""
        return min((w for c, w in codes.items() if not any(meet_codes(c, q))), default=None)

    @staticmethod
    def put(out, code, w):
        if code is not None and (code not in out or w < out[code]):
            out[code] = w

    def test_random_operation_sequences(self):
        rng = random.Random(2718)
        ops = {"insert_glue": 0, "drop": 0, "project": 0, "meet": 0, "reduce": 0}
        dropped = 0
        for _ in range(150):
            ground = sorted(rng.sample(range(100), rng.randrange(0, 8)))
            start = random_wps(tuple(ground), rng.randrange(1, 6), rng)
            ref = wps_to_naive(start)
            codes = {p.code: w for p, w in start.entries.items()}
            for _ in range(12):
                op = rng.choice(list(ops))
                if op == "insert_glue" and len(ground) < 7:
                    x = rng.choice([e for e in range(100) if e not in ground])
                    i = bisect_left(ground, x)
                    s = [e for e in ground if rng.random() < 0.4] + [x]
                    ground.insert(i, x)
                    glue = tuple(ground.index(e) for e in s)
                    ref = naive_glue(s, ref)
                    out = {}
                    for c, w in codes.items():
                        self.put(out, insert_glue(c, i, glue), w)
                    codes = out
                elif op in ("drop", "project") and ground:
                    i = rng.randrange(len(ground))
                    e = ground.pop(i)
                    if op == "project":
                        ref = naive_proj([e], ref)
                    else:
                        ref = naive_rmc((naive_restrict(p, ground), w) for p, w in ref)
                    out = {}
                    for c, w in codes.items():
                        self.put(out, drop_code(c, i, op == "project"), w)
                    codes = out
                elif op == "meet":
                    other = random_wps(tuple(ground), rng.randrange(1, 4), rng)
                    ref = naive_join_op(ref, wps_to_naive(other))
                    out = {}
                    for c1, w1 in codes.items():
                        for p, w2 in other.entries.items():
                            self.put(out, meet_codes(c1, p.code), w1 + w2)
                    codes = out
                elif op == "reduce" and ground:
                    # Extra entries, so that cut rows turn dependent and
                    # the order in which reduce keeps entries matters.
                    n = rng.randrange(2 << min(len(ground), 3))
                    for p, w in random_wps(tuple(ground), n, rng).entries.items():
                        self.put(codes, p.code, w)
                    before = dict(codes)
                    codes = reduce_codes(codes)
                    dropped += len(codes) < len(before)
                    assert len(codes) <= 1 << len(ground)
                    assert all(before[c] == w for c, w in codes.items())
                    for q in all_partitions(ground):
                        q = q.code
                        assert self.opt(codes, q) == self.opt(before, q)
                    ref = self.as_naive(ground, codes)
                else:
                    continue
                ops[op] += 1
                assert self.as_naive(ground, codes) == ref, op
                if not codes:
                    break
        assert min(ops.values()) >= 100, ops
        assert dropped >= 40, dropped


class TestBlockMergingKernels:
    """The set operations that merge blocks, over every partition of up to
    six positions: `attach` against the meet with {i, last} and a projecting
    drop, and `glue_set`/`meet_sets` with a target block count against
    their unfiltered output filtered afterwards."""

    CODES = {n: [p.code for p in all_partitions(range(n))] for n in range(1, 7)}

    def test_attach_is_meet_with_last_then_drop(self):
        for n, codes in self.CODES.items():
            entries = {code: k % 3 for k, code in enumerate(codes)}
            for i in range(n):
                last = tuple(range(n - 1)) + (i,)
                for code in codes:
                    merged = meet_codes(code, last)
                    one_less = len(set(merged)) == len(set(code)) - 1
                    assert attach(code, i) == (drop_code(merged, i, True) if one_less else None)
                # The set form: the old construction on the codes whose
                # block count the meet lowers by one.
                lowered = {
                    code: w
                    for code, w in entries.items()
                    if len(set(meet_codes(code, last))) == len(set(code)) - 1
                }
                old = map_set(meet_sets(lowered, {last: 0}, None), drop_code, i, True)
                assert map_set(entries, attach, i) == old

    def test_glue_keeps_the_target_block_count(self):
        for n, codes in self.CODES.items():
            if n == 6:
                continue  # glue inserts a position: six at most
            entries = {code: k % 3 for k, code in enumerate(codes)}
            for i in range(n + 1):
                for mask in range(1 << n + 1):
                    glue = [j for j in range(n + 1) if mask >> j & 1]
                    full = glue_set(entries, i, glue, None)
                    for b in range(1, n + 2):
                        want = {c: w for c, w in full.items() if len(set(c)) == b}
                        assert glue_set(entries, i, glue, b) == want

    def test_meet_keeps_the_target_block_count(self):
        for n, codes in self.CODES.items():
            left = {code: k % 4 for k, code in enumerate(codes)}
            right = {code: k % 3 for k, code in enumerate(codes)}
            full = meet_sets(left, right, None)
            for b in range(1, n + 1):
                want = {c: w for c, w in full.items() if len(set(c)) == b}
                assert meet_sets(left, right, b) == want

    @pytest.mark.parametrize("solver", [solve_c4, solve_paw], ids=["c4", "paw"])
    def test_a_tree_keeps_one_code_per_key(self, solver):
        # On a tree each key's count fixes its one code; the largest
        # partition set is 1, not 0, although no set is ever reduced.
        rng = random.Random(4)
        g = Graph(30, [(rng.randrange(v), v) for v in range(1, 30)])
        stats = {}
        assert solver(g, make_nice(heuristic_td(g), g), stats) == 0
        assert stats["max_partition_set_size"] == 1


CODES = {n: [p.code for p in all_partitions(range(n))] for n in range(1, 7)}


class TestSmallSetsStayWhole:
    """Why `connectivity`'s `finish` reduces only keys of four or more
    codes: distinct codes have distinct cut rows, and every row has bit 0
    set (the cut whose V2 side is empty), so the XOR of two rows is never a
    third row, and any three distinct codes are independent."""

    def test_rows_are_distinct_and_hold_the_empty_cut(self):
        for codes in CODES.values():
            rows = [_cut_row(code) for code in codes]
            assert all(row & 1 for row in rows)
            assert len(set(rows)) == len(codes)

    def test_reduce_keeps_every_set_of_up_to_three(self):
        for n in range(1, 5):
            codes = CODES[n]
            for k, triple in enumerate(combinations(codes, min(3, len(codes)))):
                entries = {code: (k + j) % 3 for j, code in enumerate(triple)}
                assert reduce_codes(entries) == entries


class TestCachedKernels:
    """Every code kernel is an `lru_cache` of one fixed, finite size whose
    results equal the function it wraps."""

    KERNELS = (insert_glue, drop_code, attach, meet_codes, block_count, _cut_row)

    def test_every_cache_is_bounded(self):
        for kernel in self.KERNELS:
            assert kernel.cache_info().maxsize == _KERNEL_CACHE > 0

    def test_cached_kernels_equal_their_originals(self):
        for n, codes in CODES.items():
            for code in codes:
                for kernel in (block_count, _cut_row):
                    assert kernel(code) == kernel.__wrapped__(code)
                for i in range(n):
                    assert attach(code, i) == attach.__wrapped__(code, i)
                    for project in (False, True):
                        assert drop_code(code, i, project) == drop_code.__wrapped__(
                            code, i, project
                        )
                for other in codes:
                    assert meet_codes(code, other) == meet_codes.__wrapped__(code, other)
                if n == 6:
                    continue  # glue inserts a position: six at most
                for i, mask in product(range(n + 1), range(1 << n + 1)):
                    glue = tuple(j for j in range(n + 1) if mask >> j & 1)
                    assert insert_glue(code, i, glue) == insert_glue.__wrapped__(code, i, glue)

    @pytest.mark.parametrize("solver", [solve_c4, solve_paw], ids=["c4", "paw"])
    def test_cold_and_warm_caches_solve_alike(self, solver):
        rng = random.Random(23)
        for _ in range(3):
            g = random_graph(11, 0.4, rng)
            ntd = make_nice(heuristic_td(g), g)
            opt = solver(g, ntd)
            for budget in (None, opt - 1, opt):
                runs = []
                for cold in (True, False):
                    if cold:
                        for kernel in self.KERNELS:
                            kernel.cache_clear()
                    stats = {}
                    runs.append((solver(g, ntd, stats, budget), stats))
                assert runs[0] == runs[1]
        assert insert_glue.cache_info().hits > 0
