"""The seven forbidden patterns and their structural freeness checks.

A graph is "free" of a pattern when it contains no topological-minor model of
it.  For every pattern here except the stars K1,s with s >= 4 this coincides
with minor-freeness (the patterns have maximum degree at most three).  Each
check below is a closed-form characterization of the free graphs, so it runs
in polynomial time on any input size; the generic search in `oracle` serves
as its independent cross-check at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph, c4_condition, connected_components, contains_diamond, count_triangles
)

KINDS = ("p3", "p4", "k1s", "c4", "paw", "chair", "banner")

#: Patterns with a table-driven solver; chair and banner only have the
#: exhaustive oracle.
SOLVER_KINDS = ("p3", "p4", "k1s", "c4", "paw")


@dataclass(frozen=True)
class Pattern:
    """Tagged pattern id; `s` is the leaf count and only set for k1s."""

    kind: str
    s: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "k1s":
            if self.s is None or self.s < 1:
                raise ValueError("k1s requires s >= 1")
        elif self.s is not None:
            raise ValueError(f"{self.kind} does not take a parameter")

    @property
    def name(self) -> str:
        return f"k1s:{self.s}" if self.kind == "k1s" else self.kind

    def __str__(self) -> str:
        return self.name


P3 = Pattern("p3")
P4 = Pattern("p4")
C4 = Pattern("c4")
PAW = Pattern("paw")
CHAIR = Pattern("chair")
BANNER = Pattern("banner")


def k1s(s: int) -> Pattern:
    return Pattern("k1s", s)


def parse_pattern(text: str) -> Pattern:
    """Parse CLI pattern syntax: p3|p4|k1s:<s>|c4|paw|chair|banner."""
    text = text.strip().lower()
    if text.startswith("k1s:"):
        try:
            return k1s(int(text[4:]))
        except ValueError:
            raise ValueError(f"bad star pattern {text!r}, expected k1s:<s>")
    if text in KINDS and text != "k1s":
        return Pattern(text)
    raise ValueError(f"unknown pattern {text!r}")


def pattern_graph(p: Pattern) -> Graph:
    """The pattern as a concrete graph (used by the generic oracle)."""
    if p.kind == "p3":
        return Graph(3, [(0, 1), (1, 2)])
    if p.kind == "p4":
        return Graph(4, [(0, 1), (1, 2), (2, 3)])
    if p.kind == "k1s":
        assert p.s is not None
        return Graph(p.s + 1, [(0, i) for i in range(1, p.s + 1)])
    if p.kind == "c4":
        return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    if p.kind == "paw":
        return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    if p.kind == "chair":
        # K1,3 with one subdivided edge: center 0, leaves 1,2; 0-4-3 path.
        return Graph(5, [(0, 1), (0, 2), (0, 4), (4, 3)])
    if p.kind == "banner":
        # C4 with a pendant vertex.
        return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    raise AssertionError(p.kind)


def diamond_graph() -> Graph:
    """K4 minus one edge."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def is_free(g: Graph, p: Pattern) -> bool:
    """True iff g contains no topological-minor model of the pattern."""
    return is_free_explain(g, p)[0]


def is_free_explain(g: Graph, p: Pattern) -> tuple[bool, str | None]:
    """Freeness verdict plus, when not free, the violated clause."""
    if g.n == 0:
        return True, None
    if p.kind == "p3":
        for v in range(g.n):
            if g.degree(v) >= 2:
                return False, f"vertex {v} has degree {g.degree(v)} >= 2"
        return True, None
    if p.kind == "p4":
        for comp in connected_components(g):
            if not (comp.is_triangle or comp.is_star):
                return False, (
                    f"component {sorted(comp.vertices)} is neither a"
                    " triangle nor a star"
                )
        return True, None
    if p.kind == "k1s":
        assert p.s is not None
        for v in range(g.n):
            if g.degree(v) >= p.s:
                return False, f"vertex {v} has degree {g.degree(v)} >= {p.s}"
        return True, None
    if p.kind == "c4":
        if c4_condition(g):
            return True, None
        return False, _c4_clause(g)
    if p.kind == "paw":
        for comp in connected_components(g):
            if not (comp.is_cycle or comp.is_tree):
                return False, (
                    f"component {sorted(comp.vertices)} is neither a cycle"
                    " nor a tree"
                )
        return True, None
    if p.kind == "chair":
        # Components of size <= 4 are too small to host the pattern.
        for comp in connected_components(g):
            if comp.size >= 5 and not (
                comp.is_path or comp.is_cycle or comp.is_star
            ):
                return False, (
                    f"component {sorted(comp.vertices)} has >= 5 vertices"
                    " and is not a path, a cycle, or a star"
                )
        return True, None
    if p.kind == "banner":
        for comp in connected_components(g):
            if comp.size < 5 or comp.is_cycle:
                continue
            sub = g.induced(comp.vertices)
            if not c4_condition(sub):
                return False, (
                    f"component {sorted(comp.vertices)} has >= 5 vertices,"
                    " is not a cycle, and contains a C4 topological minor"
                )
        return True, None
    raise AssertionError(p.kind)


def _c4_clause(g: Graph) -> str:
    if contains_diamond(g):
        return "contains a diamond subgraph"
    cc = len(connected_components(g))
    value = g.n - g.m + count_triangles(g)
    return f"n - m + c3 = {value} differs from component count {cc}"
