import random
from functools import partial

import networkx
import pytest

from hitminor import (
    BANNER,
    C4,
    CHAIR,
    Graph,
    P3,
    P4,
    PAW,
    SolveRequest,
    disjoint_union,
    exact_td_small,
    grid_graph,
    heuristic_td,
    is_free,
    k1s,
    make_nice,
    parse_pattern,
    pattern_graph,
    solve,
    solve_bdd,
    solve_c4,
    solve_k1s,
    solve_p3,
    solve_p4,
    solve_paw,
)
from hitminor.oracle import min_deletion_bruteforce
from hitminor.solvers.engine import field_mask, get_field

from corpus import (
    atlas_classes,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
    to_nx,
)

SOLVER_PATTERNS = [P3, P4, k1s(3), k1s(4), C4, PAW]


def minimize(g, p):
    return solve(SolveRequest(graph=g, pattern=p)).answer


class TestKnownAnswers:
    def test_p3(self):
        assert minimize(path_graph(5), P3) == 1
        assert minimize(cycle_graph(3), P3) == 1
        assert minimize(Graph(4, [(0, 1), (2, 3)]), P3) == 0

    def test_p4(self):
        assert minimize(cycle_graph(3), P4) == 0
        assert minimize(pattern_graph(P4), P4) == 1
        assert minimize(cycle_graph(5), P4) == 2

    def test_bounded_degree(self):
        assert minimize(complete_graph(4), k1s(3)) == 1
        assert minimize(star_graph(4), k1s(4)) == 1
        assert minimize(star_graph(3), k1s(5)) == 0
        # An s far above the maximum degree must stay cheap: the join's
        # rows stop at the largest label that can occur.
        assert minimize(star_graph(3), k1s(10_000)) == 0
        assert minimize(star_graph(40), k1s(10**9)) == 0
        assert minimize(star_graph(40), k1s(40)) == 1
        # With d = s - 1 at least the maximum degree no bound can bind, so
        # the DP is skipped: a 1,000-leaf star stores no table.
        res = solve(SolveRequest(graph=star_graph(1000), pattern=k1s(1001)))
        assert res.answer == 0
        assert res.stats["max_table_size"] == res.stats["table_entries"] == 0

    def test_c4(self):
        assert minimize(cycle_graph(4), C4) == 1
        assert minimize(path_graph(5), C4) == 0
        assert minimize(complete_graph(4), C4) == 1

    def test_paw(self):
        assert minimize(pattern_graph(PAW), PAW) == 1
        assert minimize(cycle_graph(6), PAW) == 0
        assert minimize(complete_graph(4), PAW) == 1

    def test_empty_graph(self):
        for p in SOLVER_PATTERNS:
            assert minimize(Graph(0), p) == 0

    def test_decide_mode(self):
        g = cycle_graph(4)
        assert solve(SolveRequest(graph=g, pattern=C4, mode="decide", k=0)).answer is False
        assert solve(SolveRequest(graph=g, pattern=C4, mode="decide", k=1)).answer is True


class TestRequestValidation:
    def test_decide_needs_budget(self):
        with pytest.raises(ValueError):
            SolveRequest(graph=Graph(1), pattern=P3, mode="decide")

    def test_minimize_refuses_budget(self):
        with pytest.raises(ValueError):
            SolveRequest(graph=Graph(1), pattern=P3, k=2)

    def test_oracle_only_patterns_rejected(self):
        for p in (CHAIR, BANNER):
            with pytest.raises(ValueError, match="oracle"):
                solve(SolveRequest(graph=Graph(1), pattern=p))

    def test_invalid_supplied_decomposition(self):
        from hitminor import TreeDecomposition

        g = path_graph(3)
        bad = TreeDecomposition(bags=[frozenset({0, 1})])
        with pytest.raises(ValueError, match="invalid"):
            solve(SolveRequest(graph=g, pattern=P3, decomposition=bad))

    def test_lifted_decomposition_rejected(self):
        # v0 is implicit: a decomposition whose bags hold it as vertex g.n
        # names a vertex outside g, which every table solver rejects.
        from hitminor.treedecomp import lift_v0

        g = cycle_graph(4)
        ntd = lift_v0(make_nice(heuristic_td(g), g), g.n)
        runners = (solve_p3, solve_p4, solve_c4, solve_paw)
        runners += (partial(solve_bdd, d=2), partial(solve_k1s, s=3))
        for runner in runners:
            with pytest.raises(ValueError, match="not in"):
                runner(g, ntd)


class TestOracleAgreement:
    def test_exhaustive_small(self):
        for g in atlas_classes(5):
            for p in SOLVER_PATTERNS:
                assert minimize(g, p) == min_deletion_bruteforce(g, p)

    def test_random_medium(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_graph(9, rng.choice([0.2, 0.4, 0.6]), rng)
            for p in SOLVER_PATTERNS:
                assert minimize(g, p) == min_deletion_bruteforce(g, p), (
                    p.name,
                    g.edges(),
                )

    def test_random_sparse_larger(self):
        rng = random.Random(404)
        for _ in range(8):
            g = random_graph(12, 0.18, rng)
            for p in SOLVER_PATTERNS:
                assert minimize(g, p) == min_deletion_bruteforce(g, p), (
                    p.name,
                    g.edges(),
                )

    def test_answers_invariant_under_relabeling(self):
        rng = random.Random(86)
        for _ in range(6):
            g = random_graph(8, 0.35, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            for p in SOLVER_PATTERNS:
                assert minimize(g, p) == minimize(h, p)

    def test_decide_consistent_with_minimum(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(8, 0.4, rng)
            for p in SOLVER_PATTERNS:
                best = minimize(g, p)
                for k in range(0, g.n + 1, 2):
                    got = solve(
                        SolveRequest(graph=g, pattern=p, mode="decide", k=k)
                    ).answer
                    assert got == (best <= k)


class TestStructuralProperties:
    def test_supergraph_monotone(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randrange(2, 8)
            g = random_graph(n, 0.3, rng)
            extra = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v) and rng.random() < 0.3
            ]
            g_sup = Graph(n, list(g.edges()) + extra)
            for p in SOLVER_PATTERNS:
                assert minimize(g_sup, p) >= minimize(g, p)

    def test_component_additivity(self):
        rng = random.Random(21)
        for _ in range(12):
            a = random_graph(rng.randrange(1, 6), 0.5, rng)
            b = random_graph(rng.randrange(1, 6), 0.5, rng)
            both = disjoint_union(a, b)
            for p in SOLVER_PATTERNS:
                assert minimize(both, p) == minimize(a, p) + minimize(b, p)

    def test_component_additivity_above_oracle_guard(self):
        # The unions have 16-24 vertices, beyond the oracle's reach.
        rng = random.Random(23)
        for _ in range(4):
            a = random_graph(rng.randrange(8, 13), 0.3, rng)
            b = random_graph(rng.randrange(8, 13), 0.3, rng)
            both = disjoint_union(a, b)
            for p in (C4, PAW):
                assert minimize(both, p) == minimize(a, p) + minimize(b, p)

    def test_pattern_dominance(self):
        # If pattern A embeds in pattern B (as a topological minor), freedom
        # from A is the stronger demand, so its deletion number dominates.
        from hitminor.oracle import contains_tm

        chains = [
            (P3, P4),
            (P4, BANNER),
            (C4, BANNER),
            (k1s(3), k1s(4)),
            (k1s(3), CHAIR),
            (P3, PAW),
        ]
        for small, big in chains:
            assert (
                contains_tm(pattern_graph(big), pattern_graph(small))
                is not None
            )
        rng = random.Random(58)
        for _ in range(20):
            g = random_graph(rng.randrange(1, 9), rng.random() * 0.6, rng)
            for small, big in chains:
                assert min_deletion_bruteforce(
                    g, small
                ) >= min_deletion_bruteforce(g, big)
            assert minimize(g, P3) >= minimize(g, P4)
            assert minimize(g, k1s(3)) >= minimize(g, k1s(4))
            assert minimize(g, C4) >= min_deletion_bruteforce(g, BANNER)
            assert minimize(g, k1s(3)) >= min_deletion_bruteforce(g, CHAIR)
            assert minimize(g, P3) >= minimize(g, PAW)

    def test_answer_zero_iff_free(self):
        rng = random.Random(33)
        for _ in range(25):
            g = random_graph(rng.randrange(0, 8), rng.random(), rng)
            for p in SOLVER_PATTERNS:
                assert (minimize(g, p) == 0) == is_free(g, p)


class TestPipelines:
    def test_exact_decomposition_same_answer(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_graph(7, 0.4, rng)
            td = exact_td_small(g)
            for p in SOLVER_PATTERNS:
                via_exact = solve(
                    SolveRequest(graph=g, pattern=p, decomposition=td)
                ).answer
                assert via_exact == minimize(g, p)

    def test_mutated_decompositions(self):
        from hitminor import validate_td

        rng = random.Random(31337)
        for _ in range(15):
            n = rng.randrange(4, 10)
            g = random_graph(n, rng.choice([0.25, 0.5]), rng)
            td = _mutate_td(heuristic_td(g), rng, 6)
            assert validate_td(g, td) == []
            for p in SOLVER_PATTERNS:
                got = solve(
                    SolveRequest(graph=g, pattern=p, decomposition=td)
                ).answer
                assert got == min_deletion_bruteforce(g, p), (p.name, g.edges())

    def test_p4_on_join_heavy_decompositions(self):
        # A join meets a deferred (ISO) vertex on one side with a star or
        # triangle grown from forgotten vertices on the other; mutated
        # decompositions add joins at full and partial bags.
        _check_join_heavy(P4, decide=False)

    @pytest.mark.parametrize(
        "pattern", [P3, k1s(3), k1s(4), k1s(5), k1s(8)], ids=lambda p: p.name
    )
    def test_bounded_degree_on_join_heavy_decompositions(self, pattern):
        # A join subtracts a vertex's kept bag neighbours, counted on both
        # sides, and drops a pair whose summed degree exceeds the bound by
        # one guard-bit test per key.  K1,5 and K1,8 take 5- and 6-bit
        # fields, and the graphs here reach degree 9.
        _check_join_heavy(pattern, decide=False)

    @pytest.mark.parametrize("pattern", [C4, PAW], ids=lambda p: p.name)
    def test_connectivity_on_join_heavy_decompositions(self, pattern):
        # A component takes its v0-edge where one of its vertices is
        # forgotten, on either side of a join at a full or partial bag.
        _check_join_heavy(pattern, decide=True)

    def test_direct_solver_entrypoints(self):
        g = cycle_graph(5)
        ntd = make_nice(heuristic_td(g), g)
        assert solve_p3(g, ntd) == min_deletion_bruteforce(g, P3)
        assert solve_p4(g, ntd) == min_deletion_bruteforce(g, P4)
        assert solve_bdd(g, ntd, 1) == min_deletion_bruteforce(g, k1s(2))
        assert solve_k1s(g, ntd, 3) == solve_bdd(g, ntd, 2)

    def test_stats_reported(self):
        res = solve(SolveRequest(graph=cycle_graph(6), pattern=C4))
        stats = res.stats
        for key in ("td_width", "max_table_size", "wall_time_s", "nice_nodes"):
            assert key in stats
        assert stats["max_partition_set_size"] >= 1

    def test_decomposition_lower_bound_reported(self):
        """A solve that builds its own decomposition reports the MMD+ bound,
        which proves the width optimal where they meet; a supplied one
        reports none."""
        stats = solve(SolveRequest(graph=grid_graph(4, 10), pattern=P4)).stats
        assert stats["td_width"] == stats["td_lower_bound"] == 4
        # The 5 x n grids have treewidth 5; the bound stops at 4.
        stats = solve(SolveRequest(graph=grid_graph(5, 10), pattern=P4)).stats
        assert (stats["td_width"], stats["td_lower_bound"]) == (5, 4)
        assert stats["td_width"] > stats["td_lower_bound"]
        g = cycle_graph(6)
        again = solve(SolveRequest(graph=g, pattern=P4)).stats
        assert again["td_width"] == again["td_lower_bound"] == 2
        supplied = solve(SolveRequest(graph=g, pattern=P4, decomposition=heuristic_td(g)))
        assert "td_lower_bound" not in supplied.stats

    @pytest.mark.parametrize("pattern", SOLVER_PATTERNS, ids=lambda p: p.name)
    def test_table_entries_counted_and_repeatable(self, pattern):
        g = grid_graph(3, 6)
        first = solve(SolveRequest(graph=g, pattern=pattern)).stats
        again = solve(SolveRequest(graph=g, pattern=pattern)).stats
        assert first["table_entries"] == again["table_entries"]
        # Every node stores at least one entry, and none more than the peak.
        assert first["nice_nodes"] <= first["table_entries"]
        assert first["table_entries"] <= first["nice_nodes"] * first["max_table_size"]

    def test_table_sizes_within_bounds(self):
        # The solvers assert the per-node bounds themselves; this drives a
        # few wider instances through to exercise those assertions.
        rng = random.Random(9)
        for _ in range(6):
            g = random_graph(9, 0.5, rng)
            for p in SOLVER_PATTERNS:
                minimize(g, p)


def _check_join_heavy(pattern, decide: bool) -> None:
    """Solve on decompositions reshaped by `_mutate_td`: against the oracle
    on 300 small graphs (with `decide`, also at k = opt-1 and opt), and
    against the unmutated decomposition on grids and trees above its guard."""
    from hitminor import validate_td
    from corpus import random_tree

    rng = random.Random(4242)
    for _ in range(300):
        g = random_graph(rng.randrange(3, 11), rng.choice([0.3, 0.5, 0.7]), rng)
        td = _mutate_td(heuristic_td(g), rng, 10)
        opt = min_deletion_bruteforce(g, pattern)
        got = solve(SolveRequest(graph=g, pattern=pattern, decomposition=td)).answer
        assert got == opt, g.edges()
        if not decide:
            continue
        for k in range(max(opt - 1, 0), opt + 1):
            req = SolveRequest(
                graph=g, pattern=pattern, mode="decide", k=k, decomposition=td
            )
            assert solve(req).answer is (k == opt), (k, g.edges())
    # Above the oracle's guard, the answer must not depend on the shape of
    # the decomposition.
    for g in (grid_graph(4, 5), grid_graph(3, 20), random_tree(40, rng),
              random_tree(60, rng)):
        td = _mutate_td(heuristic_td(g), rng, 10)
        assert validate_td(g, td) == []
        got = solve(SolveRequest(graph=g, pattern=pattern, decomposition=td)).answer
        assert got == minimize(g, pattern)


def _mutate_td(td, rng: random.Random, steps: int):
    """`td` reshaped by `steps` random edits that keep it valid: a duplicate
    bag, a subset leaf, or a subdivided tree edge."""
    from hitminor import TreeDecomposition

    bags, edges = list(td.bags), list(td.edges)
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0 and bags:
            i = rng.randrange(len(bags))
            bags.append(bags[i])
            edges.append((i, len(bags) - 1))
        elif op == 1 and bags:
            i = rng.randrange(len(bags))
            bags.append(frozenset(v for v in bags[i] if rng.random() < 0.6))
            edges.append((i, len(bags) - 1))
        elif op == 2 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            bags.append(bags[a] & bags[b])
            edges.extend([(a, len(bags) - 1), (len(bags) - 1, b)])
    return TreeDecomposition(bags=bags, edges=edges)


def _bag_view(g: Graph, bag, kept: int) -> Graph:
    """The kept bag vertices of a C4/paw key, their edges in g, and the
    implicit universal vertex v0 (the last vertex), which has no edge to a
    bag vertex."""
    pos = [p for p in range(len(bag)) if kept >> p & 1]
    index = {bag[p]: i for i, p in enumerate(pos)}
    v0 = len(pos)
    edges = [
        (index[u], index[w]) for u in index for w in index if u < w and g.has_edge(u, w)
    ]
    return Graph(v0 + 1, edges)


def _node_tables(monkeypatch, solver, g, budget=None):
    """Every (bag, table) a solve keeps, in post-order, each table as the
    engine leaves it after its budget filter and `finish`."""
    import hitminor.solvers.connectivity as conn
    import hitminor.solvers.labeling as lab
    from hitminor.solvers.engine import run_dp

    seen = []

    def spy_run_dp(g, ntd, *args, **kwargs):
        # One node-kind hook runs per node, in post-order; the engine then
        # prunes the table it returned in place.
        tables = []

        def recorded(hook):
            def wrapper(*hook_args):
                tables.append(hook(*hook_args))
                return tables[-1]

            return wrapper

        hooks = [recorded(hook) for hook in args[:4]]
        root = run_dp(g, ntd, *hooks, *args[4:], **kwargs)
        seen.extend(zip(ntd.bags, tables))
        return root

    for module in (conn, lab):
        monkeypatch.setattr(module, "run_dp", spy_run_dp)
    solver(g, make_nice(heuristic_td(g), g), budget=budget)
    assert seen
    return seen


def _stored_tables(monkeypatch, solver, g, budget=None):
    """Every (node, table) a C4/paw solve keeps after `finish`, each flat
    (labels, redges, c, code) -> weight table read as (labels, redges, c)
    -> {code: weight}."""
    seen = []
    for bag, table in _node_tables(monkeypatch, solver, g, budget):
        sets: dict = {}
        for (*key, code), w in table.items():
            sets.setdefault(tuple(key), {})[code] = w
        seen.append((bag, sets))
    return seen


class TestWeightsCountDeletedBagVertices:
    """A stored weight counts every deleted vertex of its partial solution,
    the bag's deleted (label 0) positions included, so it is at least their
    number; in decide mode the engine drops every entry whose weight passes
    the budget k after each leaf, introduce and join node, and a forget
    adds no weight, so no stored weight passes k."""

    # Field widths: (d + 1).bit_length() + 2 for degree bound d (P3: d = 1,
    # K1,3: d = 2), 3 for P4, and `connectivity._W` = 4 for C4 and paw.
    @pytest.mark.parametrize(
        "solver, width",
        [(solve_p3, 4), (solve_p4, 3), (partial(solve_k1s, s=3), 4), (solve_c4, 4), (solve_paw, 4)],
        ids=["p3", "p4", "k1s:3", "c4", "paw"],
    )
    def test_weights_count_deleted_bag_vertices(self, monkeypatch, solver, width):
        rng = random.Random(27)
        entries = 0
        for _ in range(6):
            g = random_graph(8, 0.45, rng)
            if g.max_degree() < 3:
                continue  # K1,3's solver runs no DP below degree 3
            opt = solver(g, make_nice(heuristic_td(g), g))
            for budget in (None, opt - 1, opt):
                for bag, table in _node_tables(monkeypatch, solver, g, budget):
                    for key, w in table.items():
                        labels = key[0] if isinstance(key, tuple) else key
                        deleted = len(bag) - field_mask(labels, width).bit_count()
                        assert w >= deleted, (bag, key, w)
                        assert budget is None or w <= budget, (bag, key, w)
                    entries += len(table)
        assert entries > 1000

class TestCodesMatchTheirCount:
    """Every stored code has as many blocks as its key's component count
    c.  Only glue, the v0-edge and the join merge blocks, and each drops a
    code whose count misses its target, so no node's table holds one."""

    @pytest.mark.parametrize("solver", [solve_c4, solve_paw], ids=["c4", "paw"])
    def test_every_code_has_c_blocks(self, monkeypatch, solver):
        rng = random.Random(21)
        nodes = 0
        for _ in range(6):
            g = random_graph(8, 0.4, rng)
            opt = solver(g, make_nice(heuristic_td(g), g))
            for budget in (None, opt - 1, opt):
                for _, table in _stored_tables(monkeypatch, solver, g, budget):
                    for (_, _, c), entries in table.items():
                        assert entries
                        assert all(len(set(code)) == c for code in entries)
                    nodes += 1
        assert nodes > 100


class TestDeadKeysStayAbsent:
    """The component count c, which every code's block count matches, is
    the solvers' only cycle check; these confirm no key with a bad bag view
    survives it.  Both solvers key their tables by (labels, redges, c), the
    labels packed `_W` bits per position, and the ground positions are those
    labelled `_GROUND`."""

    def test_c4_tables_only_hold_viable_bag_views(self, monkeypatch):
        from hitminor.solvers.connectivity import _GROUND, _W

        rng = random.Random(14)
        for _ in range(6):
            g = random_graph(7, 0.45, rng)
            for bag, table in _stored_tables(monkeypatch, solve_c4, g):
                for (packed, _, _), wps in table.items():
                    labels = [get_field(packed, p, _W) for p in range(len(bag))]
                    assert packed >> _W * len(bag) == 0
                    # Every C4 vertex is deleted or ground.
                    assert set(labels) <= {0, _GROUND}
                    kept = _ground_mask(labels, _GROUND)
                    assert is_free(_bag_view(g, bag, kept), C4)
                    assert len(wps) <= 1 << kept.bit_count()

    def test_paw_forest_parts_stay_forests(self, monkeypatch):
        from hitminor.solvers.connectivity import _GROUND, _W

        rng = random.Random(15)
        for _ in range(6):
            g = random_graph(7, 0.45, rng)
            for bag, table in _stored_tables(monkeypatch, solve_paw, g):
                for (packed, redges, _), wps in table.items():
                    labels = [get_field(packed, p, _W) for p in range(len(bag))]
                    assert packed >> _W * len(bag) == 0
                    # A forest has no triangle to record.
                    assert redges == frozenset()
                    forest = _ground_mask(labels, _GROUND)
                    view = _bag_view(g, bag, forest)
                    assert networkx.is_forest(to_nx(view))
                    assert len(wps) <= 1 << forest.bit_count()
                    # A cycle label is 1 + a degree of at most 2 that
                    # counts every cycle bag neighbour.
                    cycle = [p for p, x in enumerate(labels) if 0 < x < _GROUND]
                    for p in cycle:
                        nbrs = sum(g.has_edge(bag[p], bag[q]) for q in cycle)
                        assert 1 + nbrs <= labels[p] <= 3


def _ground_mask(labels: list[int], ground: int) -> int:
    return sum(1 << p for p, x in enumerate(labels) if x == ground)


class TestPruningStrength:
    """Bag edges and triangles, counted where they form, prune the tables.
    Settling them only at forget nodes keeps every answer but grows the
    tables several-fold (3x12 grid: C4 211 keys, P3 54).  C4 and paw take
    each component's v0-edge at a forget node, never at a bag vertex; taking
    it at introduce, as a key field, keeps every answer but about doubles
    their tables (3x12 grid: C4 90 keys, paw 165).  So today's sizes are
    ceilings: pattern -> (max_table_size, max_partition_set_size).  C4 and
    paw count a table's stored (key, code) entries, the others its keys.

    In decide mode every solver drops an entry as soon as its weight, which
    counts its deleted bag vertices, exceeds the budget, so at k = opt - 1
    the entries stored over all nodes have ceilings too (`DECIDE_ENTRIES`).
    Paying deletions only at forget, filtered by `w > k` after every node,
    keeps every answer but stores more entries (frozen#2: P3 231)."""

    CEILINGS = {
        "grid3x12": {
            "p3": (26, None),
            "p4": (60, None),
            "k1s:3": (55, None),
            "k1s:4": (82, None),
            "c4": (46, 4),
            "paw": (99, 4),
        },
        "frozen#2": {
            "p3": (26, None),
            "p4": (67, None),
            "k1s:3": (71, None),
            "k1s:4": (128, None),
            "c4": (70, 3),
            "paw": (110, 3),
        },
    }

    DECIDE_ENTRIES = {
        "grid3x12": {
            "p3": 1189,
            "p4": 2357,
            "k1s:3": 1872,
            "k1s:4": 1164,
            "c4": 1776,
            "paw": 3508,
        },
        "frozen#2": {"p3": 122, "p4": 267, "k1s:3": 125, "k1s:4": 73, "c4": 77, "paw": 272},
    }

    @staticmethod
    def _graph(name):
        from test_acceptance import FROZEN_INSTANCES

        if name == "grid3x12":
            return grid_graph(3, 12)
        n, edges, _, _ = FROZEN_INSTANCES[2]
        return Graph(n, edges)

    @pytest.mark.parametrize("name", sorted(CEILINGS))
    def test_table_sizes_stay_at_most_today(self, name):
        g = self._graph(name)
        for pname, (tables, psets) in self.CEILINGS[name].items():
            stats = solve(SolveRequest(graph=g, pattern=parse_pattern(pname))).stats
            assert stats["max_table_size"] <= tables, pname
            if psets is not None:
                assert stats["max_partition_set_size"] <= psets, pname

    @pytest.mark.parametrize("name", sorted(DECIDE_ENTRIES))
    def test_decide_entries_stay_at_most_today(self, name):
        g = self._graph(name)
        for pname, ceiling in self.DECIDE_ENTRIES[name].items():
            pattern = parse_pattern(pname)
            opt = minimize(g, pattern)
            req = SolveRequest(graph=g, pattern=pattern, mode="decide", k=opt - 1)
            result = solve(req)
            assert result.answer is False, pname
            assert result.stats["table_entries"] <= ceiling, pname


class TestNoCyclicGarbage:
    def test_solve_leaves_no_reference_cycles(self):
        # Reference cycles would hold every table of a solve until the
        # cyclic collector runs, raising peak memory.
        import gc

        rng = random.Random(21)
        graphs = [random_graph(rng.randrange(5, 10), 0.4, rng) for _ in range(4)]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                for pattern in (P3, P4, k1s(3), C4, PAW):
                    opt = solve(SolveRequest(graph=g, pattern=pattern)).answer
                    for k in {max(opt - 1, 0), opt}:
                        req = SolveRequest(graph=g, pattern=pattern, mode="decide", k=k)
                        solve(req)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSinglePass:
    """C4 and paw run one weighted pass, whatever the answer or budget."""

    @pytest.mark.parametrize("pattern", [C4, PAW], ids=["c4", "paw"])
    def test_minimize_runs_one_pass(self, monkeypatch, pattern):
        import hitminor.solvers.connectivity as conn

        name = "_c4_pass" if pattern is C4 else "_paw_pass"
        original = getattr(conn, name)
        calls = []

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(conn, name, counted)
        for g in (complete_graph(5), complete_graph(6)):
            calls.clear()
            assert minimize(g, pattern) >= 2
            assert len(calls) == 1

    def test_solvers_never_build_reference_partitions(self, monkeypatch):
        """C4 and paw keep codes in plain dicts: the reference classes of
        `hitminor.partitions` are never built on the solve path."""
        from hitminor.partitions import Partition, WeightedPartitionSet

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built by a solver")

        rng = random.Random(61)
        graphs = [random_graph(rng.randrange(5, 11), 0.45, rng) for _ in range(4)]
        want = {
            (i, p.name): min_deletion_bruteforce(g, p)
            for i, g in enumerate(graphs)
            for p in (C4, PAW)
        }
        graphs.append(grid_graph(3, 12))
        want.update({(4, "c4"): 9, (4, "paw"): 9})
        monkeypatch.setattr(WeightedPartitionSet, "__init__", forbidden)
        monkeypatch.setattr(Partition, "__init__", forbidden)
        for i, g in enumerate(graphs):
            for p in (C4, PAW):
                opt = want[i, p.name]
                assert solve(SolveRequest(graph=g, pattern=p)).answer == opt
                for k in {max(opt - 1, 0), opt}:
                    req = SolveRequest(graph=g, pattern=p, mode="decide", k=k)
                    assert solve(req).answer == (opt <= k)

    def test_budget_contract_above_oracle_guard(self):
        """Every table solver returns its minimum m at budgets m and m + 1,
        and None at m - 1, negative budgets included."""
        runners = (solve_p3, solve_p4, partial(solve_k1s, s=3), solve_c4, solve_paw)
        rng = random.Random(77)
        graphs = []
        while len(graphs) < 20:
            n = rng.randrange(16, 23)
            g = random_graph(n, rng.uniform(1.5, 3.0) / n, rng)
            if heuristic_td(g).width <= 5:
                graphs.append(g)
        # Maximum degree 2: K1,3's solver answers 0 without a DP.
        ring = cycle_graph(20)
        graphs.append(ring)
        for g in graphs:
            ntd = make_nice(heuristic_td(g), g)
            for runner in runners:
                m = runner(g, ntd)
                assert runner(g, ntd, budget=m) == m
                assert runner(g, ntd, budget=m + 1) == m
                assert runner(g, ntd, budget=m - 1) is None
        stats: dict = {}
        assert solve_k1s(ring, make_nice(heuristic_td(ring), ring), 3, stats, budget=0) == 0
        assert stats["table_entries"] == 0


class TestDecompositionPipeline:
    """`solve` validates and makes the decomposition nice exactly once."""

    @pytest.mark.parametrize("pattern", [P3, C4], ids=["p3", "c4"])
    @pytest.mark.parametrize("supplied", [False, True], ids=["heuristic", "supplied"])
    def test_validates_once_and_never_augments(self, monkeypatch, pattern, supplied):
        import hitminor.solvers as solvers_mod
        import hitminor.treedecomp as td_mod

        calls = {"validate_td": 0, "augment_universal": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        g = cycle_graph(6)
        td = heuristic_td(g) if supplied else None
        for name in calls:
            for module in (td_mod, solvers_mod):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        solve(SolveRequest(graph=g, pattern=pattern, decomposition=td))
        assert calls == {"validate_td": 1, "augment_universal": 0}

    @pytest.mark.parametrize("pattern", [C4, PAW], ids=["c4", "paw"])
    def test_connectivity_solvers_get_plain_nice_form(self, monkeypatch, pattern):
        import hitminor.solvers as solvers_mod

        built = []

        def capture(g, ntd, stats=None, budget=None):
            built.append(ntd)
            return 0

        monkeypatch.setattr(solvers_mod, f"solve_{pattern.kind}", capture)
        rng = random.Random(31)
        for _ in range(50):
            g = random_graph(rng.randrange(0, 13), rng.random() * 0.5, rng)
            solve(SolveRequest(graph=g, pattern=pattern))
            ntd = built.pop()
            want = make_nice(heuristic_td(g), g)
            for attr in ("kinds", "vertex", "bags", "children"):
                assert getattr(ntd, attr) == getattr(want, attr)
