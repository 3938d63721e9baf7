"""Set partitions over small ordered ground sets, with weighted collections.

The kernels work on codes: a partition of the positions 0..n-1 of an ordered
ground set is the tuple whose entry i is the least position in i's block.
The connectivity solvers call them once per stored code, on at most w + 2
positions, so each kernel, a pure function of codes and small ints, is an
`lru_cache` of one fixed size that holds no graph, key or weight.  The set
operations on weighted sets, {code: weight} dicts, serve the view below.

`Partition` and `WeightedPartitionSet` are the vertex-id view: a Partition
holds a sorted ground tuple and its code, and every WeightedPartitionSet
operator runs the set operations on its entries' codes, keeping at most one
(minimal) weight per partition.  `reduce` shrinks a collection to a
representative subset that preserves `opt` against every possible future
connectivity demand; it keeps the rows of a cut matrix that stay linearly
independent over GF(2), scanning entries by ascending weight with a
canonical tie-break.  Position 0 is fixed on one side of every cut, so the
matrix has 2^(|U|-1) columns, and that rank bounds the subset's size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

Code = tuple[int, ...]

# All of scripts/answer_snapshot.py calls a kernel on at most 1,546 distinct
# arguments (`insert_glue`); a full cache holds about 0.6 MB.
_KERNEL_CACHE = 2048
_kernel = lru_cache(maxsize=_KERNEL_CACHE)


# -- code kernels -------------------------------------------------------------


@_kernel
def insert_glue(code: Code, i: int, glue: tuple[int, ...]) -> Code:
    """Insert a singleton at position i, then merge the blocks of the
    positions in `glue` (positions after the insertion) into one."""
    out = [r + 1 if r >= i else r for r in code]
    out.insert(i, i)
    leads = {out[j] for j in glue}
    if len(leads) > 1:
        lead = min(leads)
        out = [lead if r in leads else r for r in out]
    return tuple(out)


@_kernel
def drop_code(code: Code, i: int, project: bool) -> Code | None:
    """Remove position i.  With `project`, None when i's block holds no
    other position."""
    if project and code.count(code[i]) == 1:
        return None
    return _remove(code, i, i, i)


@_kernel
def attach(code: Code, i: int) -> Code | None:
    """Merge i's block with that of the last position, then remove i; None
    when i's block holds the last position already."""
    x, y = code[i], code[-1]
    if x == y:
        return None
    return _remove(code, i, x, y) if x < y else _remove(code, i, y, x)


def _remove(code: Code, i: int, lead: int, other: int) -> Code:
    """Remove position i after merging the block led by `other` into `lead`'s."""
    out = []
    succ = -1
    for j, r in enumerate(code):
        if j == i:
            continue
        if r == other:
            r = lead
        if r == i:
            # i led its block: its next member, now at j - 1, takes over.
            if succ < 0:
                succ = j - 1
            r = succ
        elif r > i:
            r -= 1
        out.append(r)
    return tuple(out)


@_kernel
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


@_kernel
def block_count(code: Code) -> int:
    return len(set(code))


@_kernel
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
    of size at most 2^(n-1) preserving opt: entries by ascending (weight, code)
    whose cut rows stay independent over GF(2); `entries` itself if all do."""
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
    return kept if len(kept) < len(entries) else entries


# -- weighted sets ------------------------------------------------------------
# A weighted set maps codes of one length to weights.  The vertex-id view
# below runs on these; the solvers call the kernels per code instead.  Sets
# may be shared, so no operation changes one: each builds a new dict, keeping
# the least weight of codes that coincide (`w < out.get(code, w + 1)`).
# `shift_set` and `union_into` never look inside a key, so they serve
# Partition-keyed weights too.


def glue_set(entries: dict, i: int, glue: Iterable[int], blocks: int | None) -> dict:
    """`insert_glue` on every code, keeping those of `blocks` blocks (all if
    None)."""
    glue = tuple(glue)
    out: dict = {}
    for code, w in entries.items():
        code = insert_glue(code, i, glue)
        if (blocks is None or block_count(code) == blocks) and w < out.get(code, w + 1):
            out[code] = w
    return out


def map_set(entries: dict, kernel, *args) -> dict:
    """`kernel(code, *args)` on every code; codes it maps to None go."""
    out: dict = {}
    for code, w in entries.items():
        code = kernel(code, *args)
        if code is not None and w < out.get(code, w + 1):
            out[code] = w
    return out


def meet_sets(left: dict, right: dict, blocks: int | None) -> dict:
    """Every pairwise meet, weights added, keeping those of `blocks` blocks
    (all if None)."""
    out: dict = {}
    for c1, w1 in left.items():
        for c2, w2 in right.items():
            code = meet_codes(c1, c2)
            w = w1 + w2
            if (blocks is None or block_count(code) == blocks) and w < out.get(code, w + 1):
                out[code] = w
    return out


def shift_set(entries: dict, extra: int) -> dict:
    return {code: w + extra for code, w in entries.items()}


def union_into(table: dict, key, entries: dict) -> None:
    """Least-weight union of `entries` into the set table[key], if any.  A
    set may be shared (between keys, or with its caller), so a merge builds a
    new dict; the first set stored under a key is stored as is."""
    if not entries:
        return
    prev = table.get(key)
    if prev is None:
        table[key] = entries
        return
    merged = dict(prev)
    for code, w in entries.items():
        if w < merged.get(code, w + 1):
            merged[code] = w
    table[key] = merged


class Partition:
    """Partition of a sorted ground tuple, held as its code."""

    __slots__ = ("ground", "code")

    def __init__(self, ground: tuple[int, ...], code: Code):
        self.ground = ground
        self.code = code

    # -- constructors -------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> Partition:
        rep_of: dict[int, int] = {}
        for block in map(sorted, blocks):
            if not block:
                raise ValueError("empty block")
            lead = block[0]
            for e in block:
                if e in rep_of:
                    raise ValueError(f"element {e} appears twice")
                rep_of[e] = lead
        ground = tuple(sorted(rep_of))
        index = {e: i for i, e in enumerate(ground)}
        return cls(ground, tuple(index[rep_of[e]] for e in ground))

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> Partition:
        g = tuple(sorted(set(ground)))
        return cls(g, tuple(range(len(g))))

    @classmethod
    def merged(cls, ground: Iterable[int], s: Iterable[int]) -> Partition:
        """All of `s` in one block, everything else a singleton."""
        g = tuple(sorted(set(ground)))
        sset = set(s)
        if not sset <= set(g):
            raise ValueError("merge set must be inside the ground set")
        lead = g.index(min(sset)) if sset else None
        return cls(g, tuple(lead if e in sset else i for i, e in enumerate(g)))

    # -- queries ------------------------------------------------------

    @property
    def reps(self) -> tuple[int, ...]:
        """Each element's block minimum, element by element."""
        return tuple(self.ground[i] for i in self.code)

    def blocks(self) -> list[tuple[int, ...]]:
        grouped: dict[int, list[int]] = {}
        for e, r in zip(self.ground, self.code):
            grouped.setdefault(r, []).append(e)
        return [tuple(grouped[r]) for r in sorted(grouped)]

    # -- lattice operations -------------------------------------------

    def meet(self, other: Partition) -> Partition:
        """Finest partition coarser than both (transitive block merging)."""
        if self.ground != other.ground:
            raise ValueError("partitions live on different ground sets")
        return Partition(self.ground, meet_codes(self.code, other.code))

    # -- ground-set surgery -------------------------------------------

    def restrict(self, xs: Iterable[int]) -> Partition:
        """Drop every element outside `xs` (which must be a subset)."""
        keep = set(xs)
        if not keep <= set(self.ground):
            raise ValueError("restriction target must be a subset")
        code = self.code
        for i in reversed(range(len(code))):
            if self.ground[i] not in keep:
                code = drop_code(code, i, False)
        return Partition(tuple(e for e in self.ground if e in keep), code)

    def lift(self, xs: Iterable[int]) -> Partition:
        """Extend to superset `xs`, new elements as singletons; inserted in
        ascending order, each goes straight to its final position."""
        own = set(self.ground)
        target = tuple(sorted(set(xs)))
        if not own <= set(target):
            raise ValueError("lift target must be a superset")
        code = self.code
        for i, e in enumerate(target):
            if e not in own:
                code = insert_glue(code, i, ())
        return Partition(target, code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.ground == other.ground and self.code == other.code

    def __hash__(self) -> int:
        return hash((self.ground, self.code))

    def __repr__(self) -> str:
        inner = "|".join(",".join(map(str, b)) for b in self.blocks())
        return f"Partition[{inner}]"


def all_partitions(ground: Iterable[int]) -> Iterator[Partition]:
    """Every partition of the ground set (Bell-number many): each element
    joins each earlier block, by ascending least element, then its own."""
    elems = tuple(sorted(set(ground)))

    def rec(code: list[int]) -> Iterator[Partition]:
        i = len(code)
        if i == len(elems):
            yield Partition(elems, tuple(code))
            return
        for lead in [j for j in range(i) if code[j] == j] + [i]:
            code.append(lead)
            yield from rec(code)
            code.pop()

    return rec([])


class WeightedPartitionSet:
    """Partitions of one ground set, each with its minimal weight: a
    weighted set of codes, keyed by the Partition each code is read as."""

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
    def _of_codes(cls, ground: Iterable[int], codes: dict) -> WeightedPartitionSet:
        """The weighted set `codes` over the positions of sorted `ground`."""
        out = cls(ground)
        out.entries = {Partition(out.ground, c): w for c, w in codes.items()}
        return out

    @classmethod
    def base(cls) -> WeightedPartitionSet:
        """The single empty partition over the empty ground, weight 0."""
        return cls((), {Partition((), ()): 0})

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"WeightedPartitionSet(|U|={len(self.ground)}, size={len(self)})"

    def _codes(self) -> dict[Code, int]:
        return {p.code: w for p, w in self.entries.items()}

    def _lifted(self, target: tuple[int, ...]) -> dict[Code, int]:
        """The codes read over the superset `target`; lifting is one-to-one."""
        return {p.lift(target).code: w for p, w in self.entries.items()}

    # -- operators ------------------------------------------------------

    def union(self, other: WeightedPartitionSet) -> WeightedPartitionSet:
        if self.ground != other.ground:
            raise ValueError("union needs a common ground set")
        # A one-key table: the union of sets over one ground is keyed alike.
        out = {(): self.entries}
        union_into(out, (), other.entries)
        return WeightedPartitionSet(self.ground, out[()])

    def ins(self, xs: Iterable[int]) -> WeightedPartitionSet:
        """Add fresh elements, each as its own singleton block."""
        new = set(xs)
        if new & set(self.ground):
            raise ValueError("inserted elements must be fresh")
        target = tuple(sorted(set(self.ground) | new))
        return WeightedPartitionSet._of_codes(target, self._lifted(target))

    def shift(self, extra: int) -> WeightedPartitionSet:
        return WeightedPartitionSet(self.ground, shift_set(self.entries, extra))

    def glue(self, s: Iterable[int]) -> WeightedPartitionSet:
        """Extend the ground by `s` and merge all of `s` into one block: the
        lifted set's meet with the partition merging `s`, at weight 0."""
        sset = set(s)
        target = tuple(sorted(set(self.ground) | sset))
        merged = {Partition.merged(target, sset).code: 0}
        codes = meet_sets(self._lifted(target), merged, None)
        return WeightedPartitionSet._of_codes(target, codes)

    def proj(self, xs: Iterable[int]) -> WeightedPartitionSet:
        """Drop `xs`, keeping only entries where every dropped element shares
        a block with some kept element.  Dropping one element at a time,
        highest first, rejects exactly those: the last dropped element of a
        block needs a kept partner."""
        drop = set(xs)
        if not drop <= set(self.ground):
            raise ValueError("projection target must be a subset")
        codes = self._codes()
        for i in reversed(range(len(self.ground))):
            if self.ground[i] in drop:
                codes = map_set(codes, drop_code, i, True)
        return WeightedPartitionSet._of_codes(set(self.ground) - drop, codes)

    def join(self, other: WeightedPartitionSet) -> WeightedPartitionSet:
        """All pairwise combinations over the union ground, weights added."""
        target = tuple(sorted(set(self.ground) | set(other.ground)))
        return WeightedPartitionSet._of_codes(
            target, meet_sets(self._lifted(target), other._lifted(target), None)
        )

    def opt(self, q: Partition) -> int | None:
        """Minimal weight among entries whose meet with q is one block."""
        if q.ground != self.ground:
            raise ValueError("demand partition on wrong ground set")
        return min(
            (w for p, w in self.entries.items() if not any(meet_codes(p.code, q.code))),
            default=None,
        )

    # -- representative reduction ----------------------------------------

    def reduce(self) -> WeightedPartitionSet:
        """Representative subset of size at most 2^(|U|-1) preserving opt."""
        if len(self.entries) <= 1:
            return self
        out = WeightedPartitionSet._of_codes(self.ground, reduce_codes(self._codes()))
        assert len(out) <= 1 << len(self.ground) - 1
        return out
