#!/usr/bin/env python3
"""Tour of the weighted-partition toolkit behind the connectivity solvers.

Partitions of a small ground set record which bag vertices of a partial
solution are already connected.  The operators below grow, merge, and project
that information; `reduce` throws away entries that can never beat the rest,
no matter what connectivity the future demands.
"""

from hitminor import Partition, WeightedPartitionSet, all_partitions


def show(title, wps):
    print(f"{title}  (ground={wps.ground})")
    for p, w in sorted(wps.entries.items(), key=lambda kv: kv[0].reps):
        print(f"   {p}  weight={w}")
    print()


def main():
    blocks = Partition.from_blocks

    print("-- lattice basics")
    p = blocks([[0, 1], [2]])
    q = blocks([[1, 2], [0]])
    print(f"{p} meet {q} = {p.meet(q)}")
    print(f"{p} restricted to (0, 2) = {p.restrict((0, 2))}")
    print(f"{p} lifted onto (0, 1, 2, 3) = {p.lift((0, 1, 2, 3))}")
    print()

    print("-- building a set of weighted partitions")
    a = WeightedPartitionSet.from_pairs(
        (0, 1), [(blocks([[0], [1]]), 4), (blocks([[0, 1]]), 1)]
    )
    show("start", a)
    a = a.ins([2])
    show("after ins({2})", a)
    a = a.glue([1, 2])
    show("after glue({1,2})", a)
    a = a.proj([1])
    show("after proj({1})  (drops entries where 1 was stranded)", a)

    print("-- opt answers a connectivity demand")
    demand = blocks([[0, 2]])
    print(f"opt({demand}) = {a.opt(demand)}")
    print()

    print("-- reduce keeps a representative subset")
    ground = (0, 1, 2, 3)
    universe = list(all_partitions(ground))
    big = WeightedPartitionSet.from_pairs(
        ground, [(p, i % 7) for i, p in enumerate(universe)]
    )
    small = big.reduce()
    print(f"entries: {len(big)} -> {len(small)} (bound 2^{len(ground)} = {2**len(ground)})")
    agree = all(small.opt(q) == big.opt(q) for q in universe)
    print(f"opt preserved for all {len(universe)} demands: {agree}")


if __name__ == "__main__":
    main()
