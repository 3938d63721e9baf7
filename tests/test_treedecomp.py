import random

import pytest

from hitminor import (
    FormatError,
    Graph,
    GuardError,
    InvalidDecomposition,
    TreeDecomposition,
    augment_universal,
    exact_td_small,
    heuristic_td,
    make_nice,
    make_nice_v0,
    parse_td,
    validate_td,
    write_td,
)
from hitminor.graph import disjoint_union, grid_graph
from hitminor.treedecomp import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    _min_fill_order,
    _td_from_elimination,
    mmd_lower_bound,
)

from corpus import (
    bandwidth_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
)


def full_rescan_min_fill(g: Graph, recency: bool = False) -> TreeDecomposition:
    """Reference min-fill: rescan every live vertex at each step, key
    (fill, degree, id), bags and tree edges from the elimination cliques.
    With `recency` the key is (fill, -stamp, degree, id), stamp[w] being
    the step (from 1) at which w last joined an eliminated vertex's
    neighbourhood, 0 before that."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    stamp = [0] * g.n
    order: list[int] = []
    cliques: list[list[int]] = []

    def key(v):
        nl = sorted(adj[v])
        fill = sum(b not in adj[a] for i, a in enumerate(nl) for b in nl[i + 1 :])
        return (fill, -stamp[v], len(nl), v) if recency else (fill, len(nl), v)

    while alive:
        best = min(alive, key=key)
        nbrs = sorted(adj[best])
        for a in nbrs:
            adj[a].discard(best)
            adj[a].update(b for b in nbrs if b != a)
            stamp[a] = len(order) + 1
        alive.discard(best)
        order.append(best)
        cliques.append(nbrs)
    if not order:
        return TreeDecomposition(bags=[frozenset()], edges=[])
    position = {v: i for i, v in enumerate(order)}
    edges = [
        (i, min(position[u] for u in nbrs)) if nbrs else (i, i + 1)
        for i, nbrs in enumerate(cliques)
        if nbrs or i + 1 < len(order)
    ]
    bags = [frozenset([v, *nbrs]) for v, nbrs in zip(order, cliques)]
    return TreeDecomposition(bags=bags, edges=edges)


def min_fill_td(g: Graph, recency: bool = False) -> TreeDecomposition:
    """The incremental min-fill order of `heuristic_td`, played into bags."""
    return _td_from_elimination(*_min_fill_order(g, recency))


def rescan_reference_graphs() -> list[Graph]:
    rng = random.Random(41)
    graphs = [Graph(0), Graph(1), Graph(5), Graph(6, [(0, 1), (3, 4)])]
    graphs += [
        random_graph(rng.randrange(0, 41), rng.random() * 0.5, rng)
        for _ in range(300)
    ]
    # Disconnected, with isolated vertices.
    graphs += [
        disjoint_union(
            disjoint_union(random_graph(12, 0.3, rng), Graph(3)),
            cycle_graph(6),
        )
        for _ in range(5)
    ]
    graphs += [
        grid_graph(3, 100),
        grid_graph(4, 75),
        bandwidth_graph(300, 3, 0.4, random.Random(1)),
        bandwidth_graph(300, 3, 0.4, random.Random(2)),
        random_tree(300, random.Random(1)),
        random_tree(300, random.Random(2)),
    ]
    return graphs


def star_reference_graphs() -> list[Graph]:
    """Stars, with a path of 0-3 vertices hanging off each leaf."""
    rng = random.Random(43)
    graphs = []
    for leaves in (1, 2, 3, 7, 30):
        for centre in (0, leaves):
            graphs.append(
                Graph(leaves + 1, [(centre, v) for v in range(leaves + 1) if v != centre])
            )
    for _ in range(20):
        leaves = rng.randrange(1, 25)
        edges = [(0, v) for v in range(1, leaves + 1)]
        n = leaves + 1
        for leaf in range(1, leaves + 1):
            end = leaf
            for _ in range(rng.randrange(4)):
                edges.append((end, n))
                end = n
                n += 1
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(Graph(n, [(perm[a], perm[b]) for a, b in edges]))
    return graphs


class TestValidate:
    def test_single_full_bag(self):
        g = cycle_graph(4)
        td = TreeDecomposition(bags=[frozenset(range(4))])
        assert validate_td(g, td) == []
        assert td.width == 3

    def test_path_bags(self):
        g = path_graph(3)
        td = TreeDecomposition(
            bags=[frozenset({0, 1}), frozenset({1, 2})], edges=[(0, 1)]
        )
        assert validate_td(g, td) == []
        assert td.width == 1

    def test_vertex_coverage_violation(self):
        g = path_graph(3)
        td = TreeDecomposition(bags=[frozenset({0, 1})])
        problems = validate_td(g, td)
        assert any("vertex coverage" in v for v in problems)

    def test_edge_coverage_violation(self):
        g = path_graph(3)
        td = TreeDecomposition(
            bags=[frozenset({0, 1}), frozenset({2})], edges=[(0, 1)]
        )
        assert any("edge coverage" in v for v in validate_td(g, td))

    def test_occurrence_violation(self):
        g = Graph(3, [(0, 1)])
        td = TreeDecomposition(
            bags=[frozenset({0, 1}), frozenset({2}), frozenset({0})],
            edges=[(0, 1), (1, 2)],
        )
        assert any("connectivity" in v for v in validate_td(g, td))

    def test_non_tree_structure(self):
        g = path_graph(2)
        td = TreeDecomposition(
            bags=[frozenset({0, 1}), frozenset({0, 1})], edges=[]
        )
        assert any("tree" in v for v in validate_td(g, td))

    @pytest.mark.parametrize(
        "num_nodes, edges",
        [(3, [(0, 1), (1, 0)]), (4, [(0, 1), (1, 2), (2, 0)])],
        ids=["repeated-edge", "triangle-and-unreached-node"],
    )
    def test_tree_edge_count_without_a_tree(self, num_nodes, edges):
        """num_nodes - 1 edges that leave a node unreached: a walk that
        marks nodes only when popped would reach one of them twice and count
        every node."""
        g = Graph(num_nodes)
        td = TreeDecomposition(bags=[frozenset({v}) for v in range(num_nodes)], edges=edges)
        assert validate_td(g, td) == ["structure: tree edges do not form a tree"]
        with pytest.raises(FormatError, match="tree"):
            parse_td(write_td(td, g.n))
        with pytest.raises(InvalidDecomposition):
            make_nice(td, g)


class TestHeuristic:
    def test_tree_width_one(self):
        g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        td = heuristic_td(g)
        assert validate_td(g, td) == []
        assert td.width == 1

    def test_cycle_width_two(self):
        td = heuristic_td(cycle_graph(5))
        assert td.width == 2

    def test_clique_width(self):
        td = heuristic_td(complete_graph(4))
        assert td.width == 3

    def test_random_validity(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng.randrange(0, 20), rng.random() * 0.5, rng)
            td = heuristic_td(g)
            assert validate_td(g, td) == []

    def test_matches_full_rescan_reference(self):
        """The plain min-fill order, the fallback of `heuristic_td`."""
        for g in rescan_reference_graphs():
            ref = full_rescan_min_fill(g)
            td = min_fill_td(g)
            assert td.bags == ref.bags, (g.n, g.edges())
            assert td.edges == ref.edges, (g.n, g.edges())

    def test_stars_match_full_rescan_reference(self):
        """Simplicial eliminations (the leaves, the path ends) update their
        neighbour's key without a rescan; the orders must not change."""
        for g in star_reference_graphs():
            ref = full_rescan_min_fill(g)
            td = min_fill_td(g)
            assert td.bags == ref.bags, (g.n, g.edges())
            assert td.edges == ref.edges, (g.n, g.edges())

    def test_recency_matches_full_rescan_reference(self):
        for g in rescan_reference_graphs() + star_reference_graphs():
            ref = full_rescan_min_fill(g, recency=True)
            td = min_fill_td(g, recency=True)
            assert td.bags == ref.bags, (g.n, g.edges())
            assert td.edges == ref.edges, (g.n, g.edges())

    def test_never_wider_than_plain_min_fill(self):
        """The recency order alone is one wider on these grids (6 against
        5); the fallback to plain min-fill must catch it."""
        rng = random.Random(44)
        graphs = [grid_graph(5, 10), grid_graph(5, 30), grid_graph(5, 60)]
        graphs += [
            random_graph(rng.randrange(0, 41), rng.random() * 0.5, rng)
            for _ in range(300)
        ]
        for g in graphs:
            td = heuristic_td(g)
            assert td.width <= full_rescan_min_fill(g).width, (g.n, g.edges())
            assert td.lower_bound == mmd_lower_bound(g) <= td.width

    def test_scales_to_ten_thousand_sparse_vertices(self):
        bw = bandwidth_graph(10_000, 3, 0.4, random.Random(3))
        td = heuristic_td(bw)
        assert validate_td(bw, td) == []
        assert td.width <= 3
        tree = random_tree(10_000, random.Random(3))
        td = heuristic_td(tree)
        assert validate_td(tree, td) == []
        assert td.width == 1
        star = Graph(10_001, [(0, v) for v in range(1, 10_001)])
        td = heuristic_td(star)
        assert validate_td(star, td) == []
        assert td.width == 1


class TestLowerBound:
    def test_small_graphs(self):
        assert mmd_lower_bound(Graph(0)) == -1
        assert mmd_lower_bound(Graph(3)) == 0
        assert mmd_lower_bound(path_graph(4)) == 1
        assert mmd_lower_bound(cycle_graph(6)) == 2
        assert mmd_lower_bound(complete_graph(5)) == 4

    def test_at_most_exact_width(self):
        rng = random.Random(45)
        for _ in range(150):
            g = random_graph(rng.randrange(0, 13), rng.random(), rng)
            assert mmd_lower_bound(g) <= exact_td_small(g).width, (g.n, g.edges())


class TestExact:
    def test_cycle(self):
        assert exact_td_small(cycle_graph(5)).width == 2

    def test_clique(self):
        assert exact_td_small(complete_graph(4)).width == 3

    def test_guard(self):
        with pytest.raises(GuardError):
            exact_td_small(Graph(20))

    def test_empty_graph_carries_its_width_as_bound(self):
        td = exact_td_small(Graph(0))
        assert td.lower_bound == td.width == -1

    def test_never_worse_than_heuristic(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            exact = exact_td_small(g)
            assert validate_td(g, exact) == []
            assert exact.width <= heuristic_td(g).width


class TestMakeNice:
    def test_triangle_chain(self):
        g = cycle_graph(3)
        ntd = make_nice(TreeDecomposition(bags=[frozenset(range(3))]), g)
        ntd.check(g)
        kinds = ntd.kinds
        assert kinds.count(LEAF) == 1
        assert kinds.count(INTRODUCE) == 3
        assert kinds.count(FORGET) == 3
        assert ntd.bags[ntd.root] == ()

    def test_empty_graph(self):
        ntd = make_nice(TreeDecomposition(bags=[frozenset()]), Graph(0))
        assert len(ntd) == 1 and ntd.kinds == [LEAF]

    def test_invalid_input_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="invalid"):
            make_nice(TreeDecomposition(bags=[frozenset({0, 1})]), g)

    def test_branches_join_on_shared_bag(self):
        """Three children hold 0, 1 and 2 of the root bag between them, not
        3: the joins run on {0, 1, 2}, and 3 is introduced once, right
        above the last join."""
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)])
        td = TreeDecomposition(
            bags=[
                frozenset({0, 1, 2, 3}),
                frozenset({0, 1, 4}),
                frozenset({1, 2, 5}),
                frozenset({2, 6}),
            ],
            edges=[(0, 1), (0, 2), (0, 3)],
        )
        ntd = make_nice(td, g)
        ntd.check(g)
        assert ntd.width == td.width
        joins = [t for t in range(len(ntd)) if ntd.kinds[t] == JOIN]
        assert len(joins) == 2
        assert all(ntd.bags[t] == (0, 1, 2) for t in joins)
        intros = [t for t in range(len(ntd)) if ntd.kinds[t] == INTRODUCE and ntd.vertex[t] == 3]
        assert len(intros) == 1
        assert ntd.children[intros[0]] == (max(joins),)
        assert ntd.bags[intros[0]] == (0, 1, 2, 3)

    def test_one_child_forgets_then_introduces(self):
        """With one child there is no join: the child's own vertices are
        forgotten, then the rest of the bag is introduced."""
        g = path_graph(3)
        td = TreeDecomposition(bags=[frozenset({1, 2}), frozenset({0, 1})], edges=[(0, 1)])
        ntd = make_nice(td, g)
        ntd.check(g)
        assert ntd.kinds == [LEAF, INTRODUCE, INTRODUCE, FORGET, INTRODUCE, FORGET, FORGET]
        assert ntd.vertex == [None, 0, 1, 0, 2, 1, 2]

    def test_fuzz_invariants_and_width(self):
        rng = random.Random(8)
        for _ in range(80):
            g = random_graph(rng.randrange(0, 24), rng.random() * 0.4, rng)
            td = heuristic_td(g)
            ntd = make_nice(td, g)
            ntd.check(g)
            assert ntd.width == td.width
            plain = ntd.as_tree_decomposition()
            assert validate_td(g, plain) == []
            # Node count stays linear in width times vertex count.
            assert len(ntd) <= 4 * (td.width + 2) * max(g.n, 1) + 4


class TestUniversalVertex:
    def test_augment_empty(self):
        g0 = augment_universal(Graph(0))
        assert g0.n == 1 and g0.m == 0

    def test_augment_edge_makes_triangle(self):
        g0 = augment_universal(path_graph(2))
        assert g0.n == 3 and g0.m == 3

    def test_augment_counts(self):
        g = cycle_graph(5)
        g0 = augment_universal(g)
        assert g0.n == g.n + 1 and g0.m == g.m + g.n

    def test_v0_everywhere(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng.randrange(0, 15), rng.random() * 0.4, rng)
            g0 = augment_universal(g)
            v0 = g.n
            td = heuristic_td(g)
            td0 = TreeDecomposition(
                bags=[bag | {v0} for bag in td.bags] or [frozenset({v0})],
                edges=list(td.edges),
            )
            ntd = make_nice_v0(td0, g0, v0)
            ntd.check(g0)
            for t in range(len(ntd)):
                bag = ntd.bags[t]
                assert not bag or v0 in bag
                if not bag:
                    assert ntd.kinds[t] in (LEAF, FORGET) or t == ntd.root
            assert ntd.width <= td0.width + 1

    def test_empty_graph_chain(self):
        g0 = augment_universal(Graph(0))
        td0 = TreeDecomposition(bags=[frozenset({0})])
        ntd = make_nice_v0(td0, g0, 0)
        ntd.check(g0)
        assert len(ntd) == 3
        assert ntd.kinds == [LEAF, INTRODUCE, FORGET]
        assert ntd.vertex[1] == 0 and ntd.vertex[2] == 0


class TestTdFormat:
    def test_single_bag(self):
        td = parse_td("s td 1 3 3\nb 1 1 2 3\n")
        assert td.bags == [frozenset({0, 1, 2})]
        assert td.edges == []

    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng.randrange(1, 15), rng.random() * 0.4, rng)
            td = heuristic_td(g)
            back = parse_td(write_td(td, g.n))
            assert back.bags == td.bags
            assert sorted(map(sorted, back.edges)) == sorted(
                map(sorted, td.edges)
            )

    def test_cyclic_edges_rejected(self):
        text = "s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n"
        with pytest.raises(FormatError, match="tree"):
            parse_td(text)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_td("s td x 1 1\n")

    def test_bag_id_out_of_range(self):
        with pytest.raises(FormatError, match="range"):
            parse_td("s td 1 1 1\nb 2 1\n")
