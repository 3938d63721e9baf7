import hashlib
import importlib.util
import random
import time
from pathlib import Path

import pytest

from hitminor import (
    BANNER,
    C4,
    CHAIR,
    Graph,
    P3,
    P4,
    PAW,
    Pattern,
    edge_bound_holds,
    grid_graph,
    is_free,
    is_free_explain,
    k1s,
    parse_pattern,
    pattern_graph,
)
from hitminor.oracle import contains_tm

from corpus import (
    atlas_classes,
    c4_counts,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)

ALL_PATTERNS = [P3, P4, k1s(3), k1s(4), C4, PAW, CHAIR, BANNER]


class TestPatternType:
    def test_parse(self):
        assert parse_pattern("p3") == P3
        assert parse_pattern("k1s:4") == k1s(4)
        assert parse_pattern("banner") == BANNER

    def test_parse_rejects(self):
        for bad in ("p5", "k1s:0", "k1s:x", ""):
            with pytest.raises(ValueError):
                parse_pattern(bad)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Pattern("k1s")
        with pytest.raises(ValueError):
            Pattern("p3", s=2)

    def test_pattern_graphs(self):
        shapes = {
            "p3": (3, 2),
            "p4": (4, 3),
            "c4": (4, 4),
            "paw": (4, 4),
            "chair": (5, 4),
            "banner": (5, 5),
        }
        for name, (n, m) in shapes.items():
            pg = pattern_graph(parse_pattern(name))
            assert (pg.n, pg.m) == (n, m)
        assert pattern_graph(k1s(5)).max_degree() == 5


class TestFreeness:
    def test_empty_graph_free_for_all(self):
        for p in ALL_PATTERNS:
            assert is_free(Graph(0), p)

    def test_examples(self):
        assert is_free(cycle_graph(6), PAW)
        assert not is_free(complete_graph(4), C4)
        assert not is_free(star_graph(5), k1s(5))
        assert is_free(star_graph(4), k1s(5))
        assert is_free(path_graph(5), CHAIR)
        assert is_free(cycle_graph(3), P4)
        assert not is_free(path_graph(4), P4)

    def test_small_components_pass_chair_banner(self):
        # At most four vertices per component cannot host a 5-vertex pattern.
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4), (6, 7)])
        assert is_free(g, CHAIR)
        assert is_free(g, BANNER)

    def test_banner_large_cycle_free(self):
        assert is_free(cycle_graph(8), BANNER)

    def test_explanations_present(self):
        free, clause = is_free_explain(complete_graph(4), C4)
        assert not free and "diamond" in clause
        free, clause = is_free_explain(path_graph(3), P3)
        assert not free and "degree" in clause
        free, clause = is_free_explain(cycle_graph(4), C4)
        assert not free and "component count" in clause

    def test_matches_generic_containment_small(self):
        for p in ALL_PATTERNS:
            pg = pattern_graph(p)
            for g in atlas_classes(5):
                assert is_free(g, p) == (contains_tm(g, pg) is None)

    def test_matches_generic_containment_random(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(8, rng.choice([0.2, 0.35, 0.5]), rng)
            for p in ALL_PATTERNS:
                assert is_free(g, p) == (
                    contains_tm(g, pattern_graph(p)) is None
                )


class TestDeletedSet:
    """`is_free(g, p, deleted)` reads g - deleted in place."""

    def test_matches_induced_subgraph(self):
        rng = random.Random(1913)
        for _ in range(2000):
            g = random_graph(rng.randrange(0, 14), rng.random() * 0.6, rng)
            deleted = frozenset(v for v in range(g.n) if rng.random() < 0.3)
            rest = g.induced(sorted(set(range(g.n)) - deleted))
            for p in ALL_PATTERNS:
                assert is_free_explain(g, p, deleted)[0] == is_free(rest, p), (
                    p.name,
                    g.edges(),
                    sorted(deleted),
                )

    def test_clauses_name_original_ids(self):
        path = path_graph(4)
        assert is_free_explain(path, P3, frozenset({0})) == (
            False,
            "vertex 2 has degree 2 >= 2",
        )
        assert is_free_explain(path_graph(6), P4, frozenset({0})) == (
            False,
            "component [1, 2, 3, 4, 5] is neither a triangle nor a star",
        )
        # A deleted vertex's degree does not count toward the cap.
        assert is_free(star_graph(3), k1s(3), frozenset({1}))

    def test_deleting_every_vertex_is_free(self):
        for g in (complete_graph(6), cycle_graph(5), star_graph(5)):
            for p in ALL_PATTERNS:
                assert is_free(g, p, frozenset(range(g.n)))


def test_large_graph_verdicts():
    """Whole-graph checks at n = 10^4 stay fast (ROADMAP item 7 calls
    them at this size)."""
    started = time.perf_counter()
    grid = grid_graph(100, 100)
    tree = random_tree(10_000, random.Random(19))
    for p in ALL_PATTERNS:
        assert not is_free(grid, p), p.name
        assert is_free(tree, p) == (p in (C4, PAW, BANNER)), p.name
    assert time.perf_counter() - started < 1.0


class TestC4Structure:
    def test_c4_free_implies_bound_and_condition(self):
        rng = random.Random(9)
        found = 0
        for _ in range(400):
            g = random_graph(rng.randrange(1, 9), rng.random() * 0.5, rng)
            if is_free(g, C4):
                found += 1
                assert edge_bound_holds(g)
                assert c4_counts(g).identity_holds
        assert found > 50


def _gallery():
    path = Path(__file__).resolve().parent.parent / "demos" / "freeness_checks.py"
    spec = importlib.util.spec_from_file_location("freeness_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [g for _, g in module.named_gallery()]


# SHA-256 of one "pattern verdict clause" line per (graph, pattern) over the
# demo gallery and 300 seeded random graphs: `hitminor check --explain`
# prints these clauses, so they are pinned byte for byte.
FREENESS_SHA256 = "fdb500feb33f0616aebf385dfb3ccd82b11352bac945710f819893ba3c044ae9"


def test_freeness_output_is_pinned():
    rng = random.Random(1919)
    graphs = _gallery() + [
        random_graph(rng.randrange(0, 13), rng.random() * 0.6, rng)
        for _ in range(300)
    ]
    lines = []
    for g in graphs:
        for p in ALL_PATTERNS:
            free, clause = is_free_explain(g, p)
            lines.append(f"{p.name} {'free' if free else 'not-free'} {clause}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == FREENESS_SHA256
