"""Desk-scale ground truth: exhaustive containment and deletion minimization.

Everything here is guarded to small inputs and refuses loudly beyond them;
an oracle that silently degrades would poison every test built on it.  The
containment searches are generic model searches, independent of the
structural characterizations in `patterns`, so the two routes can certify
each other.  Brute-force deletion hands each subset to `is_free` as its
deleted set; no graph is built per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GuardError
from .graph import Graph
from .patterns import Pattern, is_free

MINOR_HOST_LIMIT = 12
MINOR_PATTERN_LIMIT = 6
DELETION_LIMIT = 15


@dataclass(frozen=True)
class MinorModel:
    """Branch sets: one disjoint connected host set per pattern vertex."""

    branch_sets: dict[int, frozenset[int]]

    def check(self, host: Graph, pattern: Graph) -> None:
        assert set(self.branch_sets) == set(range(pattern.n))
        used: set[int] = set()
        for x, bs in self.branch_sets.items():
            assert bs, f"branch set of {x} is empty"
            assert not (bs & used), "branch sets overlap"
            used |= bs
            assert _is_connected(host, bs), f"branch set of {x} not connected"
        for x, y in pattern.edges():
            assert any(
                host.has_edge(a, b)
                for a in self.branch_sets[x]
                for b in self.branch_sets[y]
            ), f"no host edge realizes pattern edge ({x},{y})"


@dataclass(frozen=True)
class TmModel:
    """Injective branch vertices plus internally disjoint paths per edge."""

    phi: dict[int, int]
    paths: dict[tuple[int, int], tuple[int, ...]]

    def check(self, host: Graph, pattern: Graph) -> None:
        assert set(self.phi) == set(range(pattern.n))
        assert len(set(self.phi.values())) == pattern.n, "phi not injective"
        branch = set(self.phi.values())
        internal_seen: set[int] = set()
        assert set(self.paths) == set(pattern.edges())
        for (x, y), path in self.paths.items():
            assert path[0] == self.phi[x] and path[-1] == self.phi[y]
            assert len(set(path)) == len(path), "path revisits a vertex"
            for a, b in zip(path, path[1:]):
                assert host.has_edge(a, b), "path uses a missing edge"
            inner = set(path[1:-1])
            assert not (inner & branch), "path crosses a branch vertex"
            assert not (inner & internal_seen), "paths share an internal vertex"
            internal_seen |= inner


def _is_connected(g: Graph, vertices: frozenset[int]) -> bool:
    verts = set(vertices)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def _guard(host: Graph, pattern: Graph) -> None:
    if pattern.n > MINOR_PATTERN_LIMIT:
        raise GuardError(
            f"pattern limited to {MINOR_PATTERN_LIMIT} vertices, got {pattern.n}"
        )
    if host.n > MINOR_HOST_LIMIT:
        raise GuardError(
            f"host limited to {MINOR_HOST_LIMIT} vertices, got {host.n}"
        )


def contains_minor(host: Graph, pattern: Graph) -> MinorModel | None:
    """A minor model of `pattern` in `host`, or None after exhausting search."""
    _guard(host, pattern)
    if pattern.n == 0:
        return MinorModel(branch_sets={})
    if pattern.n > host.n or pattern.m > host.m:
        return None

    n = host.n
    nbr_mask = [0] * n
    for u, v in host.edges():
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u

    connected: list[int] = []
    reach_mask: dict[int, int] = {}
    for mask in range(1, 1 << n):
        low = mask & -mask
        seen = low
        frontier = low
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                nxt |= nbr_mask[bit.bit_length() - 1]
                m ^= bit
            frontier = nxt & mask & ~seen
            seen |= frontier
        if seen == mask:
            connected.append(mask)
            out = 0
            m = mask
            while m:
                bit = m & -m
                out |= nbr_mask[bit.bit_length() - 1]
                m ^= bit
            reach_mask[mask] = out
    connected.sort(key=lambda m: bin(m).count("1"))

    order = sorted(range(pattern.n), key=lambda x: -pattern.degree(x))
    placed: dict[int, int] = {}

    def assign(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        x = order[idx]
        remaining = len(order) - idx - 1
        budget = n - bin(used).count("1") - remaining
        earlier = [y for y in order[:idx] if pattern.has_edge(x, y)]
        for mask in connected:
            if mask & used:
                continue
            if bin(mask).count("1") > budget:
                break
            if any(not (reach_mask[mask] & placed[y]) for y in earlier):
                continue
            placed[x] = mask
            if assign(idx + 1, used | mask):
                return True
            del placed[x]
        return False

    if not assign(0, 0):
        return None
    return MinorModel(
        branch_sets={
            x: frozenset(i for i in range(n) if placed[x] >> i & 1)
            for x in order
        }
    )


def contains_tm(host: Graph, pattern: Graph) -> TmModel | None:
    """A topological-minor model of `pattern` in `host`, or None.

    Direct search: choose injective branch vertices compatible with the
    pattern degrees, then realize the pattern edges one by one as internally
    disjoint paths.
    """
    _guard(host, pattern)
    if pattern.n == 0:
        return TmModel(phi={}, paths={})
    if pattern.n > host.n or pattern.m > host.m:
        return None
    if pattern.max_degree() > host.max_degree():
        return None

    order = sorted(range(pattern.n), key=lambda x: -pattern.degree(x))
    pedges = sorted(pattern.edges())
    phi: dict[int, int] = {}

    def place_paths(
        idx: int, blocked: set[int], paths: dict[tuple[int, int], tuple[int, ...]]
    ) -> bool:
        if idx == len(pedges):
            return True
        x, y = pedges[idx]
        a, b = phi[x], phi[y]
        branch = set(phi.values())

        # DFS over simple a-b paths whose internal vertices avoid `blocked`
        # and every branch vertex.
        path = [a]
        on_path = {a}

        def extend() -> bool:
            u = path[-1]
            for w in sorted(host.neighbors(u)):
                if w == b:
                    paths[(x, y)] = tuple(path) + (b,)
                    inner = set(path[1:])
                    if place_paths(idx + 1, blocked | inner, paths):
                        return True
                    del paths[(x, y)]
                    continue
                if w in on_path or w in blocked or w in branch:
                    continue
                path.append(w)
                on_path.add(w)
                if extend():
                    return True
                path.pop()
                on_path.discard(w)
            return False

        return extend()

    host_by_degree = sorted(range(host.n), key=lambda v: -host.degree(v))

    def choose(idx: int) -> bool:
        if idx == len(order):
            return place_paths(0, set(), paths_out)
        x = order[idx]
        need = pattern.degree(x)
        for v in host_by_degree:
            if host.degree(v) < need:
                break
            if v in phi.values():
                continue
            phi[x] = v
            if choose(idx + 1):
                return True
            del phi[x]
        return False

    paths_out: dict[tuple[int, int], tuple[int, ...]] = {}
    if not choose(0):
        return None
    return TmModel(phi=dict(phi), paths=dict(paths_out))


def min_deletion_bruteforce(g: Graph, pattern: Pattern) -> int:
    """Smallest |S| with g - S free of the pattern; sizes tried ascending."""
    if g.n > DELETION_LIMIT:
        raise GuardError(
            f"brute-force deletion limited to {DELETION_LIMIT} vertices, got {g.n}"
        )
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if is_free(g, pattern, frozenset(subset)):
                return k
    raise AssertionError("deleting every vertex always succeeds")
