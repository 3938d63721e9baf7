"""Simple undirected graphs with contiguous integer vertex ids.

Vertices are always exactly 0..n-1.  Graphs are immutable after construction
and safe to share between threads.  File I/O speaks the PACE .gr format
(1-based vertex ids externally, 0-based internally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError


class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "_adj", "_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._edges = tuple(
            (u, v) for u in range(n) for v in sorted(self._adj[u]) if u < v
        )
        self._hash: int | None = None

    @property
    def m(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def vertices(self) -> range:
        return range(self.n)

    def induced(self, keep: Iterable[int]) -> Graph:
        """Induced subgraph on `keep`, relabeled to 0..k-1 by sorted order."""
        kept = sorted(set(keep))
        index = {v: i for i, v in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        return Graph(len(kept), edges)

    def without(self, drop: Iterable[int]) -> Graph:
        dropped = set(drop)
        return self.induced(v for v in range(self.n) if v not in dropped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ComponentSummary:
    """One connected component with its shape flags.

    A single vertex is simultaneously a tree, a path, and a star; a triangle
    is the only cycle that is not diamond- or C4-prone on its own.
    """

    vertices: frozenset[int]
    size: int
    is_tree: bool
    is_path: bool
    is_cycle: bool
    is_star: bool
    is_triangle: bool


def connected_components(g: Graph) -> list[ComponentSummary]:
    """All components of g with shape flags, ordered by smallest vertex."""
    seen = [False] * g.n
    out: list[ComponentSummary] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        degs = [g.degree(v) for v in comp]
        size = len(comp)
        m_c = sum(degs) // 2
        is_tree = m_c == size - 1
        is_path = is_tree and all(d <= 2 for d in degs)
        is_cycle = size >= 3 and all(d == 2 for d in degs)
        is_star = sum(1 for d in degs if d >= 2) <= 1
        out.append(
            ComponentSummary(
                vertices=frozenset(comp),
                size=size,
                is_tree=is_tree,
                is_path=is_path,
                is_cycle=is_cycle,
                is_star=is_star,
                is_triangle=is_cycle and size == 3,
            )
        )
    return out


def count_triangles(g: Graph) -> int:
    """Number of vertex triples inducing three edges."""
    total = 0
    for u, v in g.edges():
        common = g.neighbors(u) & g.neighbors(v)
        total += sum(1 for w in common if w > v)
    return total


def contains_diamond(g: Graph) -> bool:
    """True iff some edge lies in at least two triangles."""
    for u, v in g.edges():
        if len(g.neighbors(u) & g.neighbors(v)) >= 2:
            return True
    return False


def c4_condition(g: Graph) -> bool:
    """Diamond-subgraph-freeness together with n - m + c3 = cc."""
    if contains_diamond(g):
        return False
    cc = len(connected_components(g))
    return g.n - g.m + count_triangles(g) == cc


def edge_bound_holds(g: Graph) -> bool:
    """m <= (3/2)(n - 1); holds for every non-empty C4-TM-free graph."""
    if g.n == 0:
        raise ValueError("edge bound is only defined for non-empty graphs")
    return 2 * g.m <= 3 * (g.n - 1)


def parse_gr(text: str) -> Graph:
    """Parse PACE .gr text: 'p tw <n> <m>' header, 1-based edge lines."""
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative counts")
            continue
        if n is None:
            raise FormatError(f"line {lineno}: edge before header")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: malformed edge line {line!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex id out of range")
        if u == v:
            raise FormatError(f"line {lineno}: loop at vertex {u}")
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    if n is None:
        raise FormatError("missing 'p tw' header")
    if m != len(edges):
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_gr(g: Graph) -> str:
    """Serialize to PACE .gr (1-based ids, edges sorted)."""
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_gr(path_or_stream) -> Graph:
    """Read a .gr file path, file object, or '-' for stdin."""
    import sys

    if path_or_stream == "-":
        return parse_gr(sys.stdin.read())
    if hasattr(path_or_stream, "read"):
        return parse_gr(path_or_stream.read())
    with open(path_or_stream, "r", encoding="utf-8") as fh:
        return parse_gr(fh.read())


def grid_graph(width: int, height: int) -> Graph:
    """width x height grid; vertex (x, y) -> x * height + y."""
    edges = []
    for x in range(width):
        for y in range(height):
            v = x * height + y
            if y + 1 < height:
                edges.append((v, v + 1))
            if x + 1 < width:
                edges.append((v, v + height))
    return Graph(width * height, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a and b side by side; b's vertices shifted by a.n."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)
