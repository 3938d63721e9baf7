"""The seven forbidden patterns and their structural freeness checks.

A graph is "free" of a pattern when it contains no topological-minor model of
it.  For every pattern here except the stars K1,s with s >= 4 this coincides
with minor-freeness (the patterns have maximum degree at most three).  Each
check below is a closed-form characterization of the free graphs, so it runs
in polynomial time on any input size; the generic search in `oracle` serves
as its independent cross-check at desk scale.  The checks take a deleted set
S and read g - S in place, one walk over each component, naming g's ids.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .graph import Graph

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


def is_free(g: Graph, p: Pattern, deleted: frozenset[int] = frozenset()) -> bool:
    """True iff g - deleted contains no topological-minor model of the pattern."""
    return is_free_explain(g, p, deleted)[0]


def is_free_explain(
    g: Graph, p: Pattern, deleted: frozenset[int] = frozenset()
) -> tuple[bool, str | None]:
    """Freeness verdict for g - deleted plus, when not free, the violated
    clause, which names g's own vertex ids.  An id in `deleted` that is no
    vertex of g deletes nothing."""
    if p.kind in ("p3", "k1s"):
        # Degree caps: no component walk needed.
        cap = 2 if p.kind == "p3" else p.s
        for v in range(g.n):
            nbrs = g.neighbors(v)
            if len(nbrs) >= cap and v not in deleted:
                d = len(nbrs - deleted) if deleted else len(nbrs)
                if d >= cap:
                    return False, f"vertex {v} has degree {d} >= {cap}"
        return True, None
    if p.kind == "c4":
        value = count = 0
        for comp, adj in _components(g, deleted):
            triangles = _triangles(comp, adj)
            if triangles is None:
                return False, "contains a diamond subgraph"
            value += len(comp) - sum(len(adj[v]) for v in comp) // 2 + triangles
            count += 1
        if value == count:
            return True, None
        return False, f"n - m + c3 = {value} differs from component count {count}"
    for comp, adj in _components(g, deleted):
        size = len(comp)
        degs = [len(adj[v]) for v in comp]
        # The component is connected, so: every degree 2 makes it a cycle,
        # every degree <= 2 a path or a cycle, at most one degree >= 2 a
        # star, and m = size - 1 a tree.
        cycle = size >= 3 and all(d == 2 for d in degs)
        if p.kind == "p4":
            if not (cycle and size == 3) and sum(d >= 2 for d in degs) > 1:
                return False, f"component {comp} is neither a triangle nor a star"
        elif p.kind == "paw":
            if not cycle and sum(degs) != 2 * (size - 1):
                return False, f"component {comp} is neither a cycle nor a tree"
        elif size < 5 or cycle:
            continue  # too small for chair and banner, or a cycle: hosts neither
        elif p.kind == "chair":
            if max(degs) > 2 and sum(d >= 2 for d in degs) > 1:
                return False, (
                    f"component {comp} has >= 5 vertices"
                    " and is not a path, a cycle, or a star"
                )
        else:
            # Banner: the component must satisfy C4's identity on its own.
            triangles = _triangles(comp, adj)
            if triangles is None or size - sum(degs) // 2 + triangles != 1:
                return False, (
                    f"component {comp} has >= 5 vertices,"
                    " is not a cycle, and contains a C4 topological minor"
                )
    return True, None


def _components(
    g: Graph, deleted: frozenset[int]
) -> Iterator[tuple[list[int], dict[int, frozenset[int]]]]:
    """Each component of g - deleted, by smallest vertex: its sorted vertex
    list and a map from each of its vertices to its neighbours in g - deleted."""
    seen = bytearray(v in deleted for v in range(g.n))
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        adj = {}
        for u in comp:  # grows while it is walked: a breadth-first search
            nbrs = g.neighbors(u) - deleted if deleted else g.neighbors(u)
            adj[u] = nbrs
            for w in nbrs:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comp.sort()
        yield comp, adj


def _triangles(comp: list[int], adj: dict[int, frozenset[int]]) -> int | None:
    """Triangles of one component, or None when an edge lies in two of them
    (a diamond subgraph)."""
    shared = 0
    for u in comp:
        for v in adj[u]:
            if v > u:
                common = len(adj[u] & adj[v])
                if common >= 2:
                    return None
                shared += common
    return shared // 3  # each triangle is seen from its three edges
