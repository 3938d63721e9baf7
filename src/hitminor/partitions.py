"""Set partitions over small ordered ground sets, with weighted collections.

The kernels work on codes: a partition of the positions 0..n-1 of an ordered
ground set is the tuple whose entry i is the least position in i's block.
`insert_glue`, `drop_code`, `meet_codes` and `reduce_codes` are what the
connectivity solvers run, on codes over the kept bag positions.

`Partition` and `WeightedPartitionSet` are the reference API over vertex ids:
the ground set is a sorted tuple and each element maps to the smallest element
of its block, so a partition is its code read through the ground set.  A
WeightedPartitionSet keeps at most one (minimal) weight per partition.
`Partition.meet` and `WeightedPartitionSet.reduce` call the code kernels.
`reduce` shrinks a collection to a representative subset of size at most
2^|U| that preserves `opt` against every possible future connectivity demand;
it keeps the rows of a cut matrix that stay linearly independent over GF(2),
scanning entries by ascending weight with a canonical tie-break.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Code = tuple[int, ...]


# -- code kernels -------------------------------------------------------------


def insert_glue(code: Code, i: int, glue: Iterable[int]) -> Code:
    """Insert a singleton at position i, then merge the blocks of the
    positions in `glue` (positions after the insertion) into one."""
    out = [r + 1 if r >= i else r for r in code]
    out.insert(i, i)
    leads = {out[j] for j in glue}
    if len(leads) > 1:
        lead = min(leads)
        out = [lead if r in leads else r for r in out]
    return tuple(out)


def drop_code(code: Code, i: int, project: bool = False) -> Code | None:
    """Remove position i.  With `project`, None when i's block holds no
    other position."""
    if project and code.count(code[i]) == 1:
        return None
    out = []
    succ = -1
    for j, r in enumerate(code):
        if j == i:
            continue
        if r == i:
            # i led its block: its next member, now at j - 1, takes over.
            if succ < 0:
                succ = j - 1
            r = succ
        elif r > i:
            r -= 1
        out.append(r)
    return tuple(out)


def meet_codes(a: Code, b: Code) -> Code:
    """Finest partition coarser than both (transitive block merging)."""
    if a == b:
        return a
    # A union-find forest whose every root is the least position of its
    # set, so parent[x] <= x throughout; a is such a forest already.
    parent = list(a)
    for i, r in enumerate(b):
        if r != i:
            x = i
            while parent[x] != x:
                x = parent[x]
            y = r
            while parent[y] != y:
                y = parent[y]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return tuple(parent)


def _cut_row(code: Code) -> int:
    """Row of the cut matrix: bit set at cut V2 iff every block lies wholly
    on one side of (V1, V2), position 0 fixed on the V1 side.  Column V2 is
    the bitmask of positions 1.. in V2, shifted down by one.

    The valid V2 sides are exactly the unions of blocks avoiding position 0;
    blocks are disjoint, so adding a block's mask m to every side found so
    far shifts the row left by m.
    """
    masks: dict[int, int] = {}
    for j in range(1, len(code)):
        r = code[j]
        if r:
            masks[r] = masks.get(r, 0) | 1 << (j - 1)
    row = 1
    for m in masks.values():
        row |= row << m
    return row


def reduce_codes(entries: dict[Code, int]) -> dict[Code, int]:
    """Representative subset of {code: weight}, all codes of one length n,
    of size at most 2^n preserving opt: entries by ascending (weight, code)
    whose cut rows stay independent over GF(2)."""
    if len(entries) <= 1:
        return entries
    basis: dict[int, int] = {}
    kept: dict[Code, int] = {}
    for code, w in sorted(entries.items(), key=lambda kv: (kv[1], kv[0])):
        row = _cut_row(code)
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                kept[code] = w
                break
            row ^= basis[lead]
    return kept


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

    @classmethod
    def from_code(cls, ground: tuple[int, ...], code: Code) -> Partition:
        """The partition of the sorted `ground` whose positions `code` encodes."""
        return cls(ground, tuple(ground[i] for i in code))

    def code(self) -> Code:
        index = {e: i for i, e in enumerate(self.ground)}
        return tuple(index[r] for r in self.reps)

    # -- queries ------------------------------------------------------

    def blocks(self) -> list[tuple[int, ...]]:
        grouped: dict[int, list[int]] = {}
        for e, r in zip(self.ground, self.reps):
            grouped.setdefault(r, []).append(e)
        return [tuple(grouped[r]) for r in sorted(grouped)]

    def block_count(self) -> int:
        return len(set(self.reps))

    # -- lattice operations -------------------------------------------

    def meet(self, other: Partition) -> Partition:
        """Finest partition coarser than both (transitive block merging)."""
        self._check_ground(other)
        return Partition.from_code(self.ground, meet_codes(self.code(), other.code()))

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
        by_code = {p.code(): p for p in self.entries}
        kept = reduce_codes({c: self.entries[p] for c, p in by_code.items()})
        out = WeightedPartitionSet(self.ground, {by_code[c]: w for c, w in kept.items()})
        assert len(out) <= 1 << len(self.ground)
        return out

