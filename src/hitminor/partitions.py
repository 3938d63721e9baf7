"""Set partitions over small ordered ground sets, with weighted collections.

Partitions are canonically encoded: the ground set is a sorted tuple and each
element maps to the smallest element of its block.  A WeightedPartitionSet
keeps at most one (minimal) weight per partition.  `reduce` shrinks a
collection to a representative subset of size at most 2^|U| that preserves
`opt` against every possible future connectivity demand; it keeps the rows of
a cut matrix that stay linearly independent over GF(2), scanning entries by
ascending weight with a canonical tie-break.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Partition:
    """Canonical partition of a sorted ground tuple."""

    __slots__ = ("ground", "reps", "_hash")

    def __init__(self, ground: tuple[int, ...], reps: tuple[int, ...]):
        self.ground = ground
        self.reps = reps
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> Partition:
        block_list = [sorted(b) for b in blocks]
        rep_of: dict[int, int] = {}
        for block in block_list:
            if not block:
                raise ValueError("empty block")
            lead = block[0]
            for e in block:
                if e in rep_of:
                    raise ValueError(f"element {e} appears twice")
                rep_of[e] = lead
        ground = tuple(sorted(rep_of))
        return cls(ground, tuple(rep_of[e] for e in ground))

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> Partition:
        g = tuple(sorted(set(ground)))
        return cls(g, g)

    @classmethod
    def merged(cls, ground: Iterable[int], s: Iterable[int]) -> Partition:
        """All of `s` in one block, everything else a singleton."""
        g = tuple(sorted(set(ground)))
        sset = set(s)
        if not sset <= set(g):
            raise ValueError("merge set must be inside the ground set")
        lead = min(sset) if sset else None
        return cls(g, tuple(lead if e in sset else e for e in g))

    # -- queries ------------------------------------------------------

    def blocks(self) -> list[tuple[int, ...]]:
        grouped: dict[int, list[int]] = {}
        for e, r in zip(self.ground, self.reps):
            grouped.setdefault(r, []).append(e)
        return [tuple(grouped[r]) for r in sorted(grouped)]

    def block_count(self) -> int:
        return len(set(self.reps))

    def coarsens(self, other: Partition) -> bool:
        """True iff every block of `other` lies inside a block of self."""
        self._check_ground(other)
        seen: dict[int, int] = {}
        for mine, theirs in zip(self.reps, other.reps):
            if seen.setdefault(theirs, mine) != mine:
                return False
        return True

    # -- lattice operations -------------------------------------------

    def meet(self, other: Partition) -> Partition:
        """Finest partition coarser than both (transitive block merging)."""
        self._check_ground(other)
        n = len(self.ground)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for reps in (self.reps, other.reps):
            first: dict[int, int] = {}
            for i, r in enumerate(reps):
                if r in first:
                    a, b = find(first[r]), find(i)
                    if a != b:
                        parent[b] = a
                else:
                    first[r] = i
        lead: dict[int, int] = {}
        out = []
        for i, e in enumerate(self.ground):
            root = find(i)
            if root not in lead:
                lead[root] = e
            out.append(lead[root])
        return Partition(self.ground, tuple(out))

    def lattice_join(self, other: Partition) -> Partition:
        """Coarsest common refinement (blockwise intersection)."""
        self._check_ground(other)
        lead: dict[tuple[int, int], int] = {}
        out = []
        for e, a, b in zip(self.ground, self.reps, other.reps):
            key = (a, b)
            if key not in lead:
                lead[key] = e
            out.append(lead[key])
        return Partition(self.ground, tuple(out))

    # -- ground-set surgery -------------------------------------------

    def restrict(self, xs: Iterable[int]) -> Partition:
        """Drop every element outside `xs` (which must be a subset)."""
        keep = set(xs)
        if not keep <= set(self.ground):
            raise ValueError("restriction target must be a subset")
        lead: dict[int, int] = {}
        ground = []
        out = []
        for e, r in zip(self.ground, self.reps):
            if e not in keep:
                continue
            if r not in lead:
                lead[r] = e
            ground.append(e)
            out.append(lead[r])
        return Partition(tuple(ground), tuple(out))

    def lift(self, xs: Iterable[int]) -> Partition:
        """Extend to superset `xs`, new elements as singletons."""
        target = set(xs)
        if not set(self.ground) <= target:
            raise ValueError("lift target must be a superset")
        rep_of = dict(zip(self.ground, self.reps))
        ground = tuple(sorted(target))
        return Partition(
            ground, tuple(rep_of.get(e, e) for e in ground)
        )

    def _check_ground(self, other: Partition) -> None:
        if self.ground != other.ground:
            raise ValueError("partitions live on different ground sets")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.ground == other.ground and self.reps == other.reps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ground, self.reps))
        return self._hash

    def __repr__(self) -> str:
        inner = "|".join(",".join(map(str, b)) for b in self.blocks())
        return f"Partition[{inner}]"


def all_partitions(ground: Iterable[int]) -> Iterator[Partition]:
    """Every partition of the ground set (Bell-number many)."""
    elems = sorted(set(ground))
    if not elems:
        yield Partition((), ())
        return

    def rec(i: int, blocks: list[list[int]]) -> Iterator[list[list[int]]]:
        if i == len(elems):
            yield blocks
            return
        e = elems[i]
        for b in blocks:
            b.append(e)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([e])
        yield from rec(i + 1, blocks)
        blocks.pop()

    for blocks in rec(0, []):
        yield Partition.from_blocks(blocks)


class WeightedPartitionSet:
    """Partitions of one ground set, each with its minimal weight."""

    __slots__ = ("ground", "entries")

    def __init__(
        self, ground: Iterable[int], entries: dict[Partition, int] | None = None
    ):
        self.ground = tuple(sorted(set(ground)))
        self.entries: dict[Partition, int] = entries if entries is not None else {}

    @classmethod
    def from_pairs(
        cls, ground: Iterable[int], pairs: Iterable[tuple[Partition, int]]
    ) -> WeightedPartitionSet:
        out = cls(ground)
        for p, w in pairs:
            if p.ground != out.ground:
                raise ValueError("entry ground mismatch")
            if w < 0:
                raise ValueError("weights must be non-negative")
            prev = out.entries.get(p)
            if prev is None or w < prev:
                out.entries[p] = w
        return out

    @classmethod
    def base(cls) -> WeightedPartitionSet:
        """The single empty partition over the empty ground, weight 0."""
        return cls((), {Partition((), ()): 0})

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"WeightedPartitionSet(|U|={len(self.ground)}, size={len(self)})"

    def dump(self) -> str:
        """Debug listing: one entry per line, blocks as sorted id lists,
        then the weight."""
        lines = []
        for p in sorted(self.entries, key=lambda p: p.reps):
            rendered = " ".join(
                "{" + ",".join(map(str, b)) + "}" for b in p.blocks()
            )
            lines.append(f"{rendered} w={self.entries[p]}")
        return "\n".join(lines)

    def _min_add(self, p: Partition, w: int) -> None:
        prev = self.entries.get(p)
        if prev is None or w < prev:
            self.entries[p] = w

    # -- operators ------------------------------------------------------

    def union(self, other: WeightedPartitionSet) -> WeightedPartitionSet:
        if self.ground != other.ground:
            raise ValueError("union needs a common ground set")
        out = WeightedPartitionSet(self.ground, dict(self.entries))
        for p, w in other.entries.items():
            out._min_add(p, w)
        return out

    def ins(self, xs: Iterable[int]) -> WeightedPartitionSet:
        """Add fresh elements, each as its own singleton block."""
        new = set(xs)
        if new & set(self.ground):
            raise ValueError("inserted elements must be fresh")
        target = set(self.ground) | new
        out = WeightedPartitionSet(target)
        for p, w in self.entries.items():
            out.entries[p.lift(target)] = w
        return out

    def shift(self, extra: int) -> WeightedPartitionSet:
        return WeightedPartitionSet(
            self.ground, {p: w + extra for p, w in self.entries.items()}
        )

    def glue(self, s: Iterable[int]) -> WeightedPartitionSet:
        """Extend the ground by `s` and merge all of `s` into one block."""
        sset = set(s)
        target = set(self.ground) | sset
        out = WeightedPartitionSet(target)
        for p, w in self.entries.items():
            lifted = p.lift(target)
            if len(sset) >= 2:
                s_reps = {r for e, r in zip(lifted.ground, lifted.reps) if e in sset}
                lead = min(s_reps)
                lifted = Partition(
                    lifted.ground,
                    tuple(lead if r in s_reps else r for r in lifted.reps),
                )
            out._min_add(lifted, w)
        return out

    def proj(self, xs: Iterable[int]) -> WeightedPartitionSet:
        """Drop `xs`, keeping only entries where every dropped element shares
        a block with some kept element."""
        drop = set(xs)
        if not drop <= set(self.ground):
            raise ValueError("projection target must be a subset")
        keep = [e for e in self.ground if e not in drop]
        out = WeightedPartitionSet(keep)
        for p, w in self.entries.items():
            kept_reps = {r for e, r in zip(p.ground, p.reps) if e not in drop}
            if any(
                r not in kept_reps
                for e, r in zip(p.ground, p.reps)
                if e in drop
            ):
                continue
            out._min_add(p.restrict(keep), w)
        return out

    def join(self, other: WeightedPartitionSet) -> WeightedPartitionSet:
        """All pairwise combinations over the union ground, weights added."""
        target = set(self.ground) | set(other.ground)
        out = WeightedPartitionSet(target)
        mine = [(p.lift(target), w) for p, w in self.entries.items()]
        theirs = [(q.lift(target), w) for q, w in other.entries.items()]
        for p, w1 in mine:
            for q, w2 in theirs:
                out._min_add(p.meet(q), w1 + w2)
        return out

    def opt(self, q: Partition) -> int | None:
        """Minimal weight among entries whose meet with q is one block."""
        if q.ground != self.ground:
            raise ValueError("demand partition on wrong ground set")
        best: int | None = None
        for p, w in self.entries.items():
            if p.meet(q).block_count() <= 1 and (best is None or w < best):
                best = w
        return best

    # -- representative reduction ----------------------------------------

    def reduce(self) -> WeightedPartitionSet:
        """Representative subset of size at most 2^|U| preserving opt."""
        if not self.ground or len(self.entries) <= 1:
            return self
        items = sorted(self.entries.items(), key=lambda kv: (kv[1], kv[0].reps))
        col_pos = {e: i for i, e in enumerate(self.ground[1:])}
        u1 = self.ground[0]
        basis: dict[int, int] = {}
        kept: dict[Partition, int] = {}
        for p, w in items:
            row = _cut_row(p, u1, col_pos)
            while row:
                lead = row.bit_length() - 1
                if lead not in basis:
                    basis[lead] = row
                    kept[p] = w
                    break
                row ^= basis[lead]
        out = WeightedPartitionSet(self.ground, kept)
        assert len(out) <= 1 << len(self.ground)
        return out


def _cut_row(p: Partition, u1: int, col_pos: dict[int, int]) -> int:
    """Row of the cut matrix: bit set at cut V2 iff every block of p lies
    wholly on one side of (V1, V2), u1 fixed on the V1 side.

    The valid V2 sides are exactly the unions of blocks avoiding u1.
    """
    free_blocks: list[int] = []
    grouped: dict[int, int] = {}
    u1_rep = None
    for e, r in zip(p.ground, p.reps):
        if e == u1:
            u1_rep = r
        if e in col_pos:
            grouped[r] = grouped.get(r, 0) | (1 << col_pos[e])
    for r, mask in grouped.items():
        if r != u1_rep:
            free_blocks.append(mask)
    positions = {0}
    for mask in free_blocks:
        positions |= {q | mask for q in positions}
    row = 0
    for q in positions:
        row |= 1 << q
    return row
