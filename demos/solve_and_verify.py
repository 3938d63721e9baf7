#!/usr/bin/env python3
"""Solve deletion instances with the table solvers and certify every answer
against the exhaustive oracle."""

import random

from hitminor import (
    C4,
    Graph,
    P3,
    P4,
    PAW,
    SolveRequest,
    k1s,
    solve,
)
from hitminor.oracle import min_deletion_bruteforce


def main():
    rng = random.Random(42)
    patterns = [P3, P4, k1s(3), C4, PAW]

    print("-- random instances, minimize mode, oracle-checked")
    for trial in range(6):
        n = rng.randrange(7, 11)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        row = [f"n={g.n:2d} m={g.m:2d}"]
        for p in patterns:
            res = solve(SolveRequest(graph=g, pattern=p))
            certified = min_deletion_bruteforce(g, p)
            mark = "ok" if res.answer == certified else "MISMATCH"
            row.append(f"{p.name}={res.answer}({mark})")
        print("   " + "  ".join(row))
    print()

    print("-- decision mode: one pass, dropping entries heavier than k")
    g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u + v) % 3])
    for k in range(5):
        res = solve(SolveRequest(graph=g, pattern=C4, mode="decide", k=k))
        print(f"   can {k} deletions make it C4-free? {res.answer}")
    best = solve(SolveRequest(graph=g, pattern=C4)).answer
    print(f"   minimum is {best}")
    print()

    print("-- per-run statistics")
    res = solve(SolveRequest(graph=g, pattern=PAW))
    interesting = {
        key: res.stats[key]
        for key in ("td_width", "nice_nodes", "max_table_size", "max_partition_set_size")
    }
    print(f"   answer={res.answer}  {interesting}")


if __name__ == "__main__":
    main()
