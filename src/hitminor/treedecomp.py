"""Tree decompositions: validation, construction, and nice normal form.

The heuristic builder uses min-fill elimination (min-degree tie-break, then
lowest id), which is deterministic and good in practice.  `exact_td_small`
finds optimal width by dynamic programming over elimination prefixes and is
guarded to small inputs.  Nice decompositions are rooted binary trees of
leaf / introduce / forget / join nodes with empty root and leaf bags, stored
in post-order arrays so traversal never recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, GuardError
from .graph import Graph


@dataclass
class TreeDecomposition:
    """Bags plus tree edges over node ids 0..len(bags)-1."""

    bags: list[frozenset[int]]
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _edges_form_tree(num_nodes: int, edges: list[tuple[int, int]]) -> bool:
    if num_nodes == 0:
        return not edges
    if len(edges) != num_nodes - 1:
        return False
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in edges:
        if not (0 <= a < num_nodes and 0 <= b < num_nodes) or a == b:
            return False
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * num_nodes
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == num_nodes


def validate_td(g: Graph, td: TreeDecomposition) -> list[str]:
    """All axiom violations; empty list means the decomposition is valid."""
    violations: list[str] = []
    if not _edges_form_tree(td.num_nodes, td.edges):
        violations.append("structure: tree edges do not form a tree")
        return violations
    # holders[v]: the nodes whose bag contains v, built in one pass.
    holders: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                violations.append(f"structure: bag {i} contains unknown vertex {v}")
                return violations
            holders[v].append(i)

    for v in range(g.n):
        if not holders[v]:
            violations.append(f"vertex coverage: vertex {v} is in no bag")

    for u, v in g.edges():
        # Scan the shorter holder list for a bag with the other endpoint.
        a, b = (u, v) if len(holders[u]) <= len(holders[v]) else (v, u)
        if not any(b in td.bags[i] for i in holders[a]):
            violations.append(f"edge coverage: edge ({u},{v}) is in no bag")

    # Occurrence connectivity: the nodes holding each vertex must induce a
    # connected subtree.  They induce a forest, which is connected exactly
    # when it has one tree edge fewer than nodes.
    shared = [0] * g.n
    for a, b in td.edges:
        for v in td.bags[a] & td.bags[b]:
            shared[v] += 1
    for v in range(g.n):
        if holders[v] and shared[v] != len(holders[v]) - 1:
            violations.append(
                f"occurrence connectivity: bags holding vertex {v} are disconnected"
            )
    return violations


def _td_from_elimination(g: Graph, order: list[int]) -> TreeDecomposition:
    """Decomposition whose bags are the elimination cliques of `order`."""
    if g.n == 0:
        return TreeDecomposition(bags=[frozenset()], edges=[])
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    position = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    neighbors_at_elim: list[list[int]] = []
    for v in order:
        nbrs = sorted(adj[v])
        bags.append(frozenset([v]) | frozenset(nbrs))
        neighbors_at_elim.append(nbrs)
        for a in nbrs:
            adj[a].discard(v)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
    for i, nbrs in enumerate(neighbors_at_elim):
        if nbrs:
            parent = min(position[u] for u in nbrs)
            edges.append((i, parent))
        elif i + 1 < len(order):
            # Isolated at elimination time: attach to keep a single tree.
            edges.append((i, i + 1))
    return TreeDecomposition(bags=bags, edges=edges)


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering; ties by degree, then lowest id."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    order: list[int] = []
    while alive:
        best = None
        best_key = None
        for v in sorted(alive):
            nbrs = adj[v]
            fill = 0
            nl = sorted(nbrs)
            for i, a in enumerate(nl):
                fill += sum(1 for b in nl[i + 1 :] if b not in adj[a])
            key = (fill, len(nbrs), v)
            if best_key is None or key < best_key:
                best_key = key
                best = v
        assert best is not None
        order.append(best)
        nbrs = sorted(adj[best])
        for a in nbrs:
            adj[a].discard(best)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        alive.discard(best)
    return _td_from_elimination(g, order)


def exact_td_small(g: Graph, limit: int = 16) -> TreeDecomposition:
    """Width-optimal decomposition by subset DP over elimination prefixes.

    Refuses inputs above `limit` vertices: the table has 2^n states.
    """
    if g.n > limit:
        raise GuardError(
            f"exact decomposition limited to {limit} vertices, got {g.n}"
        )
    n = g.n
    if n == 0:
        return TreeDecomposition(bags=[frozenset()], edges=[])
    nbr_mask = [0] * n
    for u, v in g.edges():
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    full = (1 << n) - 1

    def elim_degree(prefix: int, v: int) -> int:
        # Vertices outside prefix+v reachable from v through the prefix.
        seen = 1 << v
        frontier = nbr_mask[v] & ~seen
        outside = 0
        while frontier:
            outside |= frontier & ~prefix
            inside = frontier & prefix
            seen |= frontier
            nxt = 0
            w = inside
            while w:
                low = w & -w
                nxt |= nbr_mask[low.bit_length() - 1]
                w ^= low
            frontier = nxt & ~seen
        return bin(outside).count("1")

    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        acc = n
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = mask ^ low
            cand = max(best[prev], elim_degree(prev, v))
            if cand < acc:
                acc = cand
        best[mask] = acc

    order: list[int] = []
    mask = full
    while mask:
        m = mask
        pick = None
        pick_key = None
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = mask ^ low
            cand = max(best[prev], elim_degree(prev, v))
            key = (cand, v)
            if pick_key is None or key < pick_key:
                pick_key = key
                pick = v
        assert pick is not None
        order.append(pick)
        mask ^= 1 << pick
    order.reverse()
    td = _td_from_elimination(g, order)
    assert td.width == best[full]
    return td


# ---------------------------------------------------------------------------
# Nice decompositions


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceTreeDecomposition:
    """Rooted binary nice decomposition in post-order arrays.

    Node ids are a post-order numbering: children always precede parents and
    the root is the last node.  Bags are sorted tuples.
    """

    __slots__ = ("kinds", "vertex", "bags", "children", "subtree_size")

    def __init__(self):
        self.kinds: list[str] = []
        self.vertex: list[int | None] = []
        self.bags: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []
        #: |V_t| per node: number of graph vertices in the subtree's graph.
        self.subtree_size: list[int] = []

    def _append(
        self, kind: str, vertex: int | None, bag: tuple[int, ...], children: tuple[int, ...]
    ) -> int:
        self.kinds.append(kind)
        self.vertex.append(vertex)
        self.bags.append(bag)
        self.children.append(children)
        if kind == LEAF:
            size = 0
        elif kind == INTRODUCE:
            size = self.subtree_size[children[0]] + 1
        elif kind == FORGET:
            size = self.subtree_size[children[0]]
        else:
            size = (
                self.subtree_size[children[0]]
                + self.subtree_size[children[1]]
                - len(bag)
            )
        self.subtree_size.append(size)
        return len(self.kinds) - 1

    @property
    def root(self) -> int:
        return len(self.kinds) - 1

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def __len__(self) -> int:
        return len(self.kinds)

    def check(self, g: Graph) -> None:
        """Assert every structural invariant; test helper."""
        assert self.bags[self.root] == ()
        seen_forgotten: set[int] = set()
        vts: list[frozenset[int]] = []
        for t in range(len(self)):
            kind = self.kinds[t]
            bag = set(self.bags[t])
            kids = self.children[t]
            if kind == LEAF:
                assert not bag and not kids
                vts.append(frozenset())
            elif kind == INTRODUCE:
                (c,) = kids
                v = self.vertex[t]
                assert v is not None and v not in self.bags[c]
                assert bag == set(self.bags[c]) | {v}
                assert v not in vts[c]
                vts.append(vts[c] | {v})
            elif kind == FORGET:
                (c,) = kids
                v = self.vertex[t]
                assert v is not None and v in self.bags[c]
                assert bag == set(self.bags[c]) - {v}
                assert v not in seen_forgotten, "vertex forgotten twice"
                seen_forgotten.add(v)
                vts.append(vts[c])
            else:
                c1, c2 = kids
                assert self.bags[c1] == self.bags[c2] == self.bags[t]
                assert vts[c1] & vts[c2] == bag, "join subtrees overlap beyond bag"
                vts.append(vts[c1] | vts[c2])
            assert self.subtree_size[t] == len(vts[t])
        assert vts[self.root] == frozenset(range(g.n))
        assert seen_forgotten == set(range(g.n))
        # Edge coverage: both endpoints share a bag at the introduce of the
        # later endpoint.
        for u, v in g.edges():
            assert any(
                u in self.bags[t] and v in self.bags[t] for t in range(len(self))
            )

    def as_tree_decomposition(self) -> TreeDecomposition:
        bags = [frozenset(b) for b in self.bags]
        edges = [
            (c, t) for t in range(len(self)) for c in self.children[t]
        ]
        return TreeDecomposition(bags=bags, edges=edges)


def _rooted_children(td: TreeDecomposition, root: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(td.num_nodes)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    children: list[list[int]] = [[] for _ in range(td.num_nodes)]
    parent = [-1] * td.num_nodes
    parent[root] = root
    stack = [root]
    while stack:
        x = stack.pop()
        for y in sorted(adj[x]):
            if parent[y] == -1:
                parent[y] = x
                children[x].append(y)
                stack.append(y)
    return children


def make_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Convert a decomposition to nice form of the same width.

    Raises ValueError, listing every violation, when `td` is not a valid
    decomposition of g; this is the only validation a solve runs.
    """
    violations = validate_td(g, td)
    if violations:
        raise ValueError("invalid tree decomposition: " + "; ".join(violations))
    nice = NiceTreeDecomposition()
    if td.num_nodes == 0:
        nice._append(LEAF, None, (), ())
        return nice

    children = _rooted_children(td, 0)

    def transition(top: int, frm: frozenset[int], to: frozenset[int]) -> int:
        node = top
        cur = set(frm)
        for v in sorted(frm - to):
            cur.discard(v)
            node = nice._append(FORGET, v, tuple(sorted(cur)), (node,))
        for v in sorted(to - frm):
            cur.add(v)
            node = nice._append(INTRODUCE, v, tuple(sorted(cur)), (node,))
        return node

    # Iterative post-order over the original decomposition.
    tops: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        t, expanded = stack.pop()
        if not expanded:
            stack.append((t, True))
            for c in children[t]:
                stack.append((c, False))
            continue
        bag = td.bags[t]
        if not children[t]:
            tops[t] = transition(nice._append(LEAF, None, (), ()), frozenset(), bag)
            continue
        branch_tops = [
            transition(tops[c], td.bags[c], bag) for c in children[t]
        ]
        node = branch_tops[0]
        for other in branch_tops[1:]:
            node = nice._append(JOIN, None, tuple(sorted(bag)), (node, other))
        tops[t] = node

    transition(tops[0], td.bags[0], frozenset())
    return nice


def augment_universal(g: Graph) -> Graph:
    """g plus one new vertex (id n) adjacent to every other vertex."""
    edges = list(g.edges()) + [(v, g.n) for v in range(g.n)]
    return Graph(g.n + 1, edges)


def make_nice_v0(
    td0: TreeDecomposition, g0: Graph, v0: int
) -> NiceTreeDecomposition:
    """Nice decomposition of g0 whose every non-empty bag contains v0.

    v0 must be g0's universal vertex, with the highest id: td0 without v0
    is made nice for g0 without v0, then lifted by `lift_v0`.
    """
    if v0 != g0.n - 1:
        raise ValueError("universal vertex must be the highest id")
    base = Graph(v0, [(u, v) for u, v in g0.edges() if v0 not in (u, v)])
    stripped = TreeDecomposition(
        bags=[bag - {v0} for bag in td0.bags], edges=list(td0.edges)
    )
    return lift_v0(make_nice(stripped, base), v0)


def lift_v0(inner: NiceTreeDecomposition, v0: int) -> NiceTreeDecomposition:
    """`inner` with a new vertex v0, above every vertex of inner, in every
    non-empty bag.

    v0 is introduced immediately above each leaf and forgotten at the root,
    so the only empty bags are the root and the leaves.  Width grows by one.
    """
    nice = NiceTreeDecomposition()
    mapping: list[int] = []
    for t in range(len(inner)):
        if inner.kinds[t] == LEAF:
            leaf = nice._append(LEAF, None, (), ())
            mapping.append(nice._append(INTRODUCE, v0, (v0,), (leaf,)))
        else:
            kids = tuple(mapping[c] for c in inner.children[t])
            bag = inner.bags[t] + (v0,)
            mapping.append(nice._append(inner.kinds[t], inner.vertex[t], bag, kids))
    nice._append(FORGET, v0, (), (mapping[inner.root],))
    return nice


# ---------------------------------------------------------------------------
# PACE .td I/O


def parse_td(text: str) -> TreeDecomposition:
    """Parse PACE .td text: 's td <N> <width+1> <n>' header, 'b' bag lines."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            continue
        if header is None:
            raise FormatError(f"line {lineno}: content before 's td' header")
        num_bags, _, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: malformed bag line")
            try:
                bag_id = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except ValueError:
                raise FormatError(f"line {lineno}: malformed bag line {line!r}")
            if not (1 <= bag_id <= num_bags):
                raise FormatError(f"line {lineno}: bag id {bag_id} out of range")
            if bag_id - 1 in bags:
                raise FormatError(f"line {lineno}: duplicate bag {bag_id}")
            if any(not (1 <= v <= n) for v in verts):
                raise FormatError(f"line {lineno}: bag vertex out of range")
            bags[bag_id - 1] = frozenset(v - 1 for v in verts)
        else:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: malformed tree edge {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed tree edge {line!r}")
            if not (1 <= a <= num_bags and 1 <= b <= num_bags) or a == b:
                raise FormatError(f"line {lineno}: tree edge out of range")
            edges.append((a - 1, b - 1))
    if header is None:
        raise FormatError("missing 's td' header")
    num_bags = header[0]
    all_bags = [bags.get(i, frozenset()) for i in range(num_bags)]
    if not _edges_form_tree(num_bags, edges):
        raise FormatError("tree edges do not form a tree")
    return TreeDecomposition(bags=all_bags, edges=edges)


def write_td(td: TreeDecomposition, n: int) -> str:
    """Serialize to PACE .td for a graph on n vertices (1-based ids)."""
    lines = [f"s td {td.num_nodes} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, 1):
        lines.append("b " + " ".join([str(i)] + [str(v + 1) for v in sorted(bag)]))
    for a, b in sorted(td.edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
