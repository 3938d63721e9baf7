import random

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
    augment_universal,
    disjoint_union,
    exact_td_small,
    heuristic_td,
    is_free,
    k1s,
    make_nice,
    pattern_graph,
    solve,
    solve_bdd,
    solve_c4,
    solve_k1s,
    solve_p3,
    solve_p4,
)
from hitminor.oracle import min_deletion_bruteforce

from corpus import (
    atlas_classes,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
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

    def test_v0_property_required(self):
        g = cycle_graph(4)
        ntd = make_nice(heuristic_td(g), g)
        with pytest.raises(ValueError, match="universal"):
            solve_c4(g, ntd)


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
        # Redundant duplicate bags, subset leaves, and subdivided tree edges
        # keep a decomposition valid while reshaping its nice form.
        from hitminor import TreeDecomposition, validate_td

        rng = random.Random(31337)

        def mutate(td):
            bags, edges = list(td.bags), list(td.edges)
            for _ in range(6):
                op = rng.randrange(3)
                if op == 0 and bags:
                    i = rng.randrange(len(bags))
                    bags.append(bags[i])
                    edges.append((i, len(bags) - 1))
                elif op == 1 and bags:
                    i = rng.randrange(len(bags))
                    bags.append(
                        frozenset(v for v in bags[i] if rng.random() < 0.6)
                    )
                    edges.append((i, len(bags) - 1))
                elif op == 2 and edges:
                    a, b = edges.pop(rng.randrange(len(edges)))
                    bags.append(bags[a] & bags[b])
                    edges.extend([(a, len(bags) - 1), (len(bags) - 1, b)])
            return TreeDecomposition(bags=bags, edges=edges)

        for _ in range(15):
            n = rng.randrange(4, 10)
            g = random_graph(n, rng.choice([0.25, 0.5]), rng)
            td = mutate(heuristic_td(g))
            assert validate_td(g, td) == []
            for p in SOLVER_PATTERNS:
                got = solve(
                    SolveRequest(graph=g, pattern=p, decomposition=td)
                ).answer
                assert got == min_deletion_bruteforce(g, p), (p.name, g.edges())

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

    def test_table_sizes_within_bounds(self):
        # The solvers assert the per-node bounds themselves; this drives a
        # few wider instances through to exercise those assertions.
        rng = random.Random(9)
        for _ in range(6):
            g = random_graph(9, 0.5, rng)
            for p in SOLVER_PATTERNS:
                minimize(g, p)


class TestDeadKeysStayAbsent:
    def test_c4_tables_only_hold_viable_bag_views(self, monkeypatch):
        import hitminor.solvers.connectivity as conn
        from hitminor.solvers.connectivity import _NodeCtx
        from hitminor.treedecomp import lift_v0

        seen = []
        original = conn.run_dp

        def spy_run_dp(ntd, *hooks, finish, **kwargs):
            def spy_finish(t, table):
                finish(t, table)
                seen.append((t, dict(table)))

            return original(ntd, *hooks, finish=spy_finish, **kwargs)

        monkeypatch.setattr(conn, "run_dp", spy_run_dp)
        rng = random.Random(14)
        for _ in range(6):
            g = random_graph(7, 0.45, rng)
            v0 = g.n
            ntd = lift_v0(make_nice(heuristic_td(g), g), v0)
            seen.clear()
            solve_c4(g, ntd)
            assert seen
            for t, table in seen:
                ctx = _NodeCtx(g, v0, ntd.bags[t])
                for (kept, s0, _, _, _, _), wps in table.items():
                    assert ctx.hinfo(kept, s0).c4_free
                    assert len(wps) <= 1 << len(wps.ground)


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

    def test_c4_decomposition_matches_make_nice_v0(self, monkeypatch):
        import hitminor.solvers as solvers_mod
        from hitminor.treedecomp import TreeDecomposition, make_nice_v0

        built = []

        def capture(g, ntd, stats=None, budget=None):
            built.append(ntd)
            return 0

        monkeypatch.setattr(solvers_mod, "solve_c4", capture)
        rng = random.Random(31)
        for _ in range(50):
            g = random_graph(rng.randrange(0, 13), rng.random() * 0.5, rng)
            solve(SolveRequest(graph=g, pattern=C4))
            ntd = built.pop()
            td = heuristic_td(g)
            td0 = TreeDecomposition(
                bags=[bag | {g.n} for bag in td.bags] or [frozenset({g.n})],
                edges=list(td.edges),
            )
            want = make_nice_v0(td0, augment_universal(g), g.n)
            for attr in ("kinds", "vertex", "bags", "children"):
                assert getattr(ntd, attr) == getattr(want, attr)
