#!/usr/bin/env python3
"""Build tree decompositions, compare heuristic and exact widths, and look at
the nice normal form every solver consumes, C4 and paw included."""

from hitminor import (
    Graph,
    exact_td_small,
    grid_graph,
    heuristic_td,
    make_nice,
    validate_td,
    write_td,
)


def main():
    petersen = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    graphs = {
        "path P6": Graph(6, [(i, i + 1) for i in range(5)]),
        "cycle C7": Graph(7, [(i, (i + 1) % 7) for i in range(7)]),
        "3x4 grid": grid_graph(3, 4),
        "petersen": petersen,
    }

    print("-- heuristic vs exact width")
    for name, g in graphs.items():
        td = heuristic_td(g)
        exact = exact_td_small(g)
        ok = "valid" if validate_td(g, td) == [] else "INVALID"
        print(
            f"   {name:10s} heuristic width {td.width}, optimal {exact.width} ({ok})"
        )
    print()

    g = graphs["cycle C7"]
    print("-- PACE .td serialization of the C7 heuristic decomposition")
    print(write_td(heuristic_td(g), g.n))

    print("-- nice normal form")
    ntd = make_nice(heuristic_td(g), g)
    kinds = {k: ntd.kinds.count(k) for k in ("leaf", "introduce", "forget", "join")}
    print(f"   {len(ntd)} nodes, width {ntd.width}, kinds {kinds}")


if __name__ == "__main__":
    main()
