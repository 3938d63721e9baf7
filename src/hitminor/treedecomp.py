"""Tree decompositions: validation, construction, and nice normal form.

The heuristic builder is min-fill elimination with a recency tie-break: of
the vertices of least fill it takes one that most recently joined an
eliminated vertex's neighbourhood, so elimination follows one front, then
least degree, then lowest id.  It keeps every live vertex's key in a heap
and, after each elimination, rescores only the eliminated vertex's
neighbours and, when fill edges were added, their neighbours (Bodlaender &
Koster, "Treewidth computations I. Upper bounds", 2010); the bags are the
neighbourhoods recorded as the game is played.  A minor-min-width (MMD+)
lower bound (Bodlaender & Koster, "Treewidth computations II. Lower
bounds", 2011) proves that order width-optimal when the two meet; when they
do not, plain min-fill (degree, then id, breaking ties) is run too and the
narrower order kept, so the width is never above plain min-fill's.
`exact_td_small` finds optimal width by dynamic programming over
elimination prefixes, is guarded to small inputs and replays its order
through the same bag builder.  Nice decompositions are rooted binary trees
of leaf / introduce / forget / join nodes with empty root and leaf bags,
stored in post-order arrays so traversal never recurses; branches join on
the part of the bag they share, and the rest of the bag is introduced once,
above the last join.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import FormatError, GuardError, InvalidDecomposition
from .graph import Graph

EXACT_TD_LIMIT = 16


@dataclass
class TreeDecomposition:
    """Bags plus tree edges over node ids 0..len(bags)-1.

    `lower_bound`, when known, is a proven lower bound on the treewidth of
    the decomposed graph; the decomposition is width-optimal when it equals
    `width`.
    """

    bags: list[frozenset[int]]
    edges: list[tuple[int, int]] = field(default_factory=list)
    lower_bound: int | None = field(default=None, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _rooted(
    num_nodes: int, edges: list[tuple[int, int]]
) -> tuple[list[list[int]], list[int]] | None:
    """The tree `edges` rooted at node 0: each node's children in ascending
    order, and a preorder that visits them in that order.  None when the
    edges do not form a tree over nodes 0..num_nodes-1."""
    if len(edges) != max(num_nodes - 1, 0):
        return None
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in edges:
        if not (0 <= a < num_nodes and 0 <= b < num_nodes) or a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    children: list[list[int]] = [[] for _ in range(num_nodes)]
    order: list[int] = []
    # A node is marked when pushed, so a repeated edge cannot reach it twice.
    seen = [True] + [False] * (num_nodes - 1)
    stack = [0] if num_nodes else []
    while stack:
        x = stack.pop()
        order.append(x)
        for y in sorted(adj[x]):
            if not seen[y]:
                seen[y] = True
                children[x].append(y)
        stack.extend(reversed(children[x]))
    return (children, order) if len(order) == num_nodes else None


def validate_td(g: Graph, td: TreeDecomposition) -> list[str]:
    """All axiom violations; empty list means the decomposition is valid."""
    if _rooted(td.num_nodes, td.edges) is None:
        return ["structure: tree edges do not form a tree"]
    violations: list[str] = []
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


def _eliminate(adj: list[set[int]], v: int) -> list[int]:
    """Eliminate v from the graph `adj`: its neighbours become a clique and
    lose v.  Returns v's neighbourhood at that moment, sorted."""
    nbrs = sorted(adj[v])
    for a in nbrs:
        row = adj[a]
        row.update(nbrs)
        row.discard(a)
        row.discard(v)
    return nbrs


def _td_from_elimination(
    order: list[int], eliminated: list[list[int]], lower_bound: int | None = None
) -> TreeDecomposition:
    """Decomposition whose bags are the elimination cliques of `order`;
    eliminated[i] is the neighbourhood of order[i] when it was eliminated."""
    if not order:
        return TreeDecomposition(bags=[frozenset()], edges=[], lower_bound=lower_bound)
    position = {v: i for i, v in enumerate(order)}
    bags = [frozenset(nbrs).union((v,)) for v, nbrs in zip(order, eliminated)]
    edges: list[tuple[int, int]] = []
    for i, nbrs in enumerate(eliminated):
        if nbrs:
            edges.append((i, min(position[u] for u in nbrs)))
        elif i + 1 < len(order):
            # Isolated at elimination time: attach to keep a single tree.
            edges.append((i, i + 1))
    return TreeDecomposition(bags=bags, edges=edges, lower_bound=lower_bound)


def _fill(adj: list[set[int]], v: int) -> int:
    """Number of non-adjacent pairs among v's neighbours."""
    nbrs = adj[v]
    d = len(nbrs)
    return (d * (d - 1) - sum(len(adj[a] & nbrs) for a in nbrs)) // 2


def _min_fill_order(g: Graph, recency: bool) -> tuple[list[int], list[list[int]]]:
    """Min-fill elimination: the order and each vertex's neighbourhood when
    it was eliminated.

    Every live vertex holds the key (fill, -stamp, degree, id) in a heap;
    entries that are no longer a vertex's current key are skipped when
    popped.  With `recency`, stamp[w] is the step (counted from 1) at which
    w last joined an eliminated vertex's neighbourhood; without it every
    stamp stays 0 and the key is plain min-fill's.  Eliminating v changes
    the stamp, degree and fill of its neighbours only, and the fill of a
    vertex further away only where a fill edge just added joins two of its
    neighbours, so only those vertices are rescored; when v was simplicial
    (fill 0) each neighbour's new key follows from its old one in O(1).  The
    key is a total order, so the result is the one a rescan of every live
    vertex at each step would give.
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    key: list[tuple[int, int, int, int] | None] = [
        (_fill(adj, v), 0, len(adj[v]), v) for v in range(g.n)
    ]
    heap = list(key)
    heapq.heapify(heap)
    order: list[int] = []
    eliminated: list[list[int]] = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[3]
        if entry is not key[v]:
            continue
        key[v] = None
        if entry[0]:
            row = adj[v]
            fill_edges = [(a, b) for a in row for b in row - adj[a] if a < b]
        nbrs = _eliminate(adj, v)
        order.append(v)
        eliminated.append(nbrs)
        stamp = -len(order) if recency else 0
        if not entry[0]:
            # v was simplicial: no edge was added, so vertices two steps away
            # keep their key, and a neighbour a loses exactly v and the
            # deg(a) - |N(v)| non-adjacent pairs v formed with a's other
            # neighbours (N(v) - a is inside N(a), being a clique).
            for a in nbrs:
                fill, _, deg, _ = key[a]
                new = (fill - deg + len(nbrs), stamp, deg - 1, a)
                key[a] = new
                heapq.heappush(heap, new)
            continue
        stamps = {w: key[w][1] for a, b in fill_edges for w in adj[a] & adj[b]}
        stamps.update(dict.fromkeys(nbrs, stamp))
        for w, s in stamps.items():
            new = (_fill(adj, w), s, len(adj[w]), w)
            if new != key[w]:
                key[w] = new
                heapq.heappush(heap, new)
    return order, eliminated


def mmd_lower_bound(g: Graph) -> int:
    """Minor-min-width (MMD+, least-degree contraction) treewidth lower bound.

    Repeatedly takes a vertex of least degree (lowest id on ties), records
    its degree and contracts it into its least-degree neighbour (lowest id
    on ties); an isolated vertex is deleted.  Every graph met is a minor of
    g, and treewidth is at least the least degree and does not grow under
    minors, so the largest degree recorded is at most tw(g) (Bodlaender &
    Koster, "Treewidth computations II. Lower bounds", 2011).  -1 for the
    empty graph, matching the width of its one empty bag.  Stops once no
    more than bound + 1 vertices remain: none of them can record more.
    """
    adj: list[set[int] | None] = [set(g.neighbors(v)) for v in range(g.n)]
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    alive = g.n
    bound = -1
    while alive > bound + 1:
        d, v = heapq.heappop(heap)
        nbrs = adj[v]
        if nbrs is None or len(nbrs) != d:
            continue
        bound = max(bound, d)
        adj[v] = None
        alive -= 1
        if not nbrs:
            continue
        u = min(nbrs, key=lambda w: (len(adj[w]), w))
        into = adj[u]
        into.discard(v)
        nbrs.discard(u)
        for w in nbrs:
            row = adj[w]
            row.discard(v)
            row.add(u)
            heapq.heappush(heap, (len(row), w))
        into |= nbrs
        heapq.heappush(heap, (len(into), u))
    return bound


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-fill elimination with the recency tie-break, kept when the MMD+
    lower bound proves it width-optimal; otherwise the narrower of it and
    plain min-fill, ties going to the recency order.

    Following one front builds few joins, but on some graphs (the 5 x n
    grids among them) it comes out one wider than plain min-fill, which the
    fallback catches.  The returned decomposition carries the bound as
    `lower_bound`.
    """
    order, eliminated = _min_fill_order(g, recency=True)
    width = max(map(len, eliminated), default=-1)
    bound = mmd_lower_bound(g)
    if width > bound:
        plain = _min_fill_order(g, recency=False)
        if max(map(len, plain[1])) < width:
            order, eliminated = plain
    return _td_from_elimination(order, eliminated, bound)


def exact_td_small(g: Graph) -> TreeDecomposition:
    """Width-optimal decomposition by subset DP over elimination prefixes.

    Refuses inputs above EXACT_TD_LIMIT vertices: the table has 2^n states.
    """
    if g.n > EXACT_TD_LIMIT:
        raise GuardError(
            f"exact decomposition limited to {EXACT_TD_LIMIT} vertices, got {g.n}"
        )
    n = g.n
    if n == 0:
        return TreeDecomposition(bags=[frozenset()], edges=[], lower_bound=-1)
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

    # best[mask]: least width of eliminating exactly mask first; last[mask]:
    # the vertex eliminated last on such an order (lowest id on ties).
    best = [0] * (1 << n)
    last = [0] * (1 << n)
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
                last[mask] = v
        best[mask] = acc

    order: list[int] = []
    mask = full
    while mask:
        order.append(last[mask])
        mask ^= 1 << last[mask]
    order.reverse()
    adj = [set(g.neighbors(v)) for v in range(n)]
    td = _td_from_elimination(order, [_eliminate(adj, v) for v in order], best[full])
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

    __slots__ = ("kinds", "vertex", "bags", "children")

    def __init__(self):
        self.kinds: list[str] = []
        self.vertex: list[int | None] = []
        self.bags: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []

    def _append(
        self, kind: str, vertex: int | None, bag: tuple[int, ...], children: tuple[int, ...]
    ) -> int:
        self.kinds.append(kind)
        self.vertex.append(vertex)
        self.bags.append(bag)
        self.children.append(children)
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


def make_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Convert a decomposition to nice form of the same width.

    Raises InvalidDecomposition (a ValueError), listing every violation,
    when `td` is not a valid decomposition of g.  The other checks are
    narrower: `parse_td` tests only that a .td file's edges form a tree, and
    `run_dp`'s `check_bags` only that no nice bag holds a vertex outside g.
    """
    violations = validate_td(g, td)
    if violations:
        raise InvalidDecomposition(
            "invalid tree decomposition: " + "; ".join(violations)
        )
    nice = NiceTreeDecomposition()
    if td.num_nodes == 0:
        nice._append(LEAF, None, (), ())
        return nice

    children, order = _rooted(td.num_nodes, td.edges)

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

    # Reversed preorder: a post-order taking each node's children last to
    # first, so every child's top exists before its parent is built.
    tops: dict[int, int] = {}
    for t in reversed(order):
        # The branches join on the part of the bag they hold between them,
        # and the rest of the bag is introduced once, above the last join.
        bag = td.bags[t]
        kids = children[t]
        shared = bag & frozenset().union(*(td.bags[c] for c in kids))
        if kids:
            node = transition(tops[kids[0]], td.bags[kids[0]], shared)
        else:
            node = nice._append(LEAF, None, (), ())
        for c in kids[1:]:
            top = transition(tops[c], td.bags[c], shared)
            node = nice._append(JOIN, None, tuple(sorted(shared)), (node, top))
        tops[t] = transition(node, shared, bag)

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
    if _rooted(num_bags, edges) is None:
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
