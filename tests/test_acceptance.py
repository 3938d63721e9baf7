"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Sample sizes and tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time

import pytest

from hitminor import (
    C4,
    BANNER,
    CHAIR,
    Graph,
    P3,
    P4,
    PAW,
    SolveRequest,
    TreeDecomposition,
    all_partitions,
    augment_universal,
    edge_bound_holds,
    grid_graph,
    heuristic_td,
    is_free,
    k1s,
    make_nice,
    make_nice_v0,
    parse_pattern,
    pattern_graph,
    solve,
    write_gr,
)
from hitminor.oracle import contains_minor, contains_tm, min_deletion_bruteforce

from corpus import atlas_classes, c4_counts, random_graph, random_wps, wps_to_naive
import corpus as naive

CORE_PATTERNS = [P3, P4, k1s(3), k1s(4), C4, PAW]
ALL_PATTERNS = CORE_PATTERNS + [CHAIR, BANNER]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_oracle_equivalence_core():
    """Solver minimum equals brute-force minimum, exhaustively and at random."""
    started = time.time()
    checked = 0
    for g in atlas_classes(6):
        for p in CORE_PATTERNS:
            assert (
                solve(SolveRequest(graph=g, pattern=p)).answer
                == min_deletion_bruteforce(g, p)
            ), (p.name, g.edges())
            checked += 1
    rng = random.Random(1001)
    for density in (0.2, 0.4, 0.6):
        for _ in range(200):
            g = random_graph(10, density, rng)
            for p in CORE_PATTERNS:
                assert (
                    solve(SolveRequest(graph=g, pattern=p)).answer
                    == min_deletion_bruteforce(g, p)
                ), (p.name, density, g.edges())
                checked += 1
    elapsed = time.time() - started
    report(
        "1 oracle equivalence",
        elapsed <= 600,
        f"{checked} comparisons in {elapsed:.0f}s",
    )


def test_criterion_2_characterization_equivalence():
    """Structural freeness checks equal generic TM containment, n <= 6."""
    started = time.time()
    checked = 0
    for p in ALL_PATTERNS:
        pg = pattern_graph(p)
        for g in atlas_classes(6):
            assert is_free(g, p) == (contains_tm(g, pg) is None), (
                p.name,
                g.edges(),
            )
            checked += 1
    elapsed = time.time() - started
    report(
        "2 characterization equivalence",
        elapsed <= 300,
        f"{checked} comparisons in {elapsed:.0f}s",
    )


def test_criterion_3_c4_structural_facts():
    """C4-free graphs obey the counting condition and the edge bound; every
    violator holds a C4 minor."""
    rng = random.Random(33)
    c4_pattern = pattern_graph(C4)
    free_seen = violating_seen = 0
    for _ in range(700):
        n = rng.randrange(1, 10)
        g = random_graph(n, rng.random() * 0.6, rng)
        if is_free(g, C4):
            free_seen += 1
            assert c4_counts(g).identity_holds
            assert edge_bound_holds(g)
            assert 2 * g.m <= 3 * (g.n - 1)
        elif not c4_counts(g).identity_holds:
            violating_seen += 1
            assert contains_minor(g, c4_pattern) is not None, g.edges()
    report(
        "3 C4 structural facts",
        free_seen > 100 and violating_seen > 100,
        f"{free_seen} free, {violating_seen} violating, zero exceptions",
    )


def test_criterion_4_weighted_partition_laws():
    """Operators match naive formulas; reduce represents and stays small."""
    rng = random.Random(4)
    trials = 0
    while trials < 1000:
        k = rng.randrange(0, 6)
        ground = tuple(sorted(rng.sample(range(7), k)))
        a = random_wps(ground, rng.randrange(0, 10), rng)
        b = random_wps(ground, rng.randrange(0, 10), rng)
        na, nb = wps_to_naive(a), wps_to_naive(b)
        assert wps_to_naive(a.union(b)) == naive.naive_union(na, nb)
        assert wps_to_naive(a.shift(2)) == naive.naive_shift(2, na)
        fresh = tuple(x for x in (7, 8) if rng.random() < 0.5)
        assert wps_to_naive(a.ins(fresh)) == naive.naive_ins(fresh, na)
        if ground:
            xs = tuple(x for x in ground if rng.random() < 0.4)
            assert wps_to_naive(a.proj(xs)) == naive.naive_proj(xs, na)
            s = tuple(x for x in range(7) if rng.random() < 0.3)
            assert wps_to_naive(a.glue(s)) == naive.naive_glue(s, na)
        c = random_wps(
            tuple(sorted(rng.sample(range(7), rng.randrange(0, 4)))),
            rng.randrange(0, 7),
            rng,
        )
        assert wps_to_naive(a.join(c)) == naive.naive_join_op(
            na, wps_to_naive(c)
        )
        trials += 1

    # Representation, exhaustive over every demand for |U| <= 6.
    reduce_checks = 0
    for k in range(1, 7):
        ground = tuple(range(k))
        demands = list(all_partitions(ground))
        for size in (5, 60, 500):
            a = random_wps(ground, size, rng)
            r = a.reduce()
            assert len(r) <= 2 ** k
            assert set(r.entries) <= set(a.entries)
            for q in demands:
                assert r.opt(q) == a.opt(q)
                reduce_checks += 1
    report(
        "4 weighted partition laws",
        True,
        f"{trials} operator trials, {reduce_checks} opt queries",
    )


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    rng = random.Random(55)
    root = tmp_path_factory.mktemp("bench")
    for i in range(10):
        g = random_graph(rng.randrange(5, 10), rng.choice([0.25, 0.45]), rng)
        (root / f"g{i:02d}.gr").write_text(write_gr(g))
    return root


def test_criterion_5_table_size_bounds(bench_corpus, capsys):
    """Per-node tables stay within their label-space bounds."""
    from hitminor.cli import main

    bases = {"p3": 3, "p4": 6, "k1s:3": 4, "k1s:4": 5}
    for name, base in bases.items():
        code = main(
            ["bench", "--corpus", str(bench_corpus), "--pattern", name]
        )
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().splitlines():
            data = json.loads(line)
            if data.get("aggregate"):
                continue
            width = data["td_width"]
            assert data["peak_table_size"] <= base ** (width + 1), data

    # The connectivity solvers additionally keep every stored partition set
    # within 2^(kept bag size); the solvers assert it per node, and the stats
    # expose the maximum seen.
    rng = random.Random(91)
    for _ in range(8):
        g = random_graph(9, 0.4, rng)
        for p in (C4, PAW):
            res = solve(SolveRequest(graph=g, pattern=p))
            width = res.stats["td_width"]
            assert res.stats["max_partition_set_size"] <= 2 ** (width + 1)
    with capsys.disabled():
        report("5 table-size bounds", True, "bench corpus + direct stats")


def test_criterion_6_single_exponential_scaling(capsys):
    """On grid graphs, log table size grows at most linearly with width.

    The connectivity solvers run in decision mode (k = 2): the criterion
    measures table growth against width, and an unbounded budget only adds a
    width-independent polynomial factor that drowns the signal at 250
    vertices.
    """
    started = time.time()
    runs = {
        "p3": lambda g: solve(SolveRequest(graph=g, pattern=P3)),
        "p4": lambda g: solve(SolveRequest(graph=g, pattern=P4)),
        "k1s:3": lambda g: solve(SolveRequest(graph=g, pattern=k1s(3))),
        "c4": lambda g: solve(
            SolveRequest(graph=g, pattern=C4, mode="decide", k=2)
        ),
        "paw": lambda g: solve(
            SolveRequest(graph=g, pattern=PAW, mode="decide", k=2)
        ),
    }
    grids = [grid_graph(w, 50) for w in (2, 3, 4, 5)]
    slopes = {}
    for name, runner in runs.items():
        points = []
        for g in grids:
            res = runner(g)
            width = res.stats["td_width"]
            points.append((width, math.log(max(res.stats["max_table_size"], 1))))
        xs = [w for w, _ in points]
        ys = [y for _, y in points]
        n = len(points)
        xbar, ybar = sum(xs) / n, sum(ys) / n
        slope = sum((x - xbar) * (y - ybar) for x, y in points) / sum(
            (x - xbar) ** 2 for x in xs
        )
        intercept = ybar - slope * xbar
        residual = max(abs(y - (slope * x + intercept)) for x, y in points)
        slopes[name] = round(slope, 2)
        assert math.isfinite(slope) and slope <= 4.0, (name, points)
        assert residual <= 1.5, (name, points)
    elapsed = time.time() - started
    with capsys.disabled():
        report(
            "6 single-exponential scaling",
            elapsed <= 900,
            f"log-table slopes per width {slopes} in {elapsed:.0f}s",
        )


def test_criterion_7_decomposition_pipeline():
    """Nice-form invariants hold on 500 random graphs; width preserved."""
    rng = random.Random(777)
    for trial in range(500):
        n = rng.randrange(0, 31)
        g = random_graph(n, rng.random() * 0.35, rng)
        td = heuristic_td(g)
        ntd = make_nice(td, g)
        ntd.check(g)
        assert ntd.width == td.width

        g0 = augment_universal(g)
        v0 = g.n
        td0 = TreeDecomposition(
            bags=[bag | {v0} for bag in td.bags] or [frozenset({v0})],
            edges=list(td.edges),
        )
        ntd0 = make_nice_v0(td0, g0, v0)
        ntd0.check(g0)
        assert ntd0.width <= td0.width + 1
        for t in range(len(ntd0)):
            assert not ntd0.bags[t] or v0 in ntd0.bags[t]
    report("7 decomposition pipeline", True, "500 graphs, n <= 30")


FROZEN_INSTANCES = [
    (8, ((0, 5), (1, 3), (1, 7), (2, 3), (3, 4), (4, 6)), "p3", 1),
    (9, ((0, 3), (0, 5), (0, 7), (1, 5), (2, 4), (2, 6), (2, 8), (3, 5), (3, 7), (3, 8), (4, 8), (5, 6), (7, 8)), "p4", 2),
    (9, ((0, 2), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (1, 8), (2, 8), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7), (6, 8), (7, 8)), "k1s:3", 3),
    (7, ((0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6)), "k1s:4", 1),
    (10, ((0, 2), (0, 4), (0, 5), (0, 6), (0, 9), (1, 4), (1, 8), (2, 9), (3, 5), (3, 7), (3, 9), (4, 6), (4, 7), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9), (7, 9), (8, 9)), "c4", 2),
    (10, ((0, 1), (0, 4), (0, 6), (0, 8), (1, 5), (1, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 7), (4, 8), (4, 9), (5, 6), (5, 8), (6, 8), (7, 8), (7, 9)), "paw", 3),
    (9, ((0, 1), (0, 3), (0, 4), (0, 8), (1, 3), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (2, 8), (3, 4), (3, 5), (3, 8), (4, 6), (5, 6)), "p3", 4),
    (9, ((0, 7), (0, 8), (1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6), (5, 7)), "p4", 3),
    (8, ((0, 3), (0, 4), (0, 5), (0, 7), (1, 3), (1, 6), (2, 3), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7)), "k1s:3", 3),
    (6, ((0, 4), (1, 2), (1, 5)), "k1s:4", 0),
]


def test_criterion_8_regression_constants():
    """Frozen answers reproduce bit-exactly on every run."""
    from corpus import complete_graph, cycle_graph, path_graph

    fixed = [
        (path_graph(5), P3, 1),
        (cycle_graph(5), P4, 2),
        (complete_graph(4), k1s(3), 1),
        (pattern_graph(C4), C4, 1),
        (pattern_graph(PAW), PAW, 1),
        (complete_graph(4), PAW, 1),
    ]
    for g, p, expected in fixed:
        assert solve(SolveRequest(graph=g, pattern=p)).answer == expected
    for n, edges, pname, expected in FROZEN_INSTANCES:
        g = Graph(n, edges)
        p = parse_pattern(pname)
        assert solve(SolveRequest(graph=g, pattern=p)).answer == expected
        assert min_deletion_bruteforce(g, p) == expected
    report(
        "8 regression constants",
        True,
        f"{len(FROZEN_INSTANCES) + 6} frozen answers",
    )
