"""Colliding and focused pairs of interior states.

A pair {p, q} of interior states is colliding in a semigroup T when
some t in T sends 0 to one of the pair and some interior state to the
other.  It is focused when some u in T sends both members to one
interior state r.  A transition semigroup of a minimal suffix-free DFA
never lets the same pair be both: a collider plus a focuser would
yield two words, one a proper suffix of the other, both accepted.

Mapping both members to the empty state n-1 is never a focus; the
target must be interior.

Sets of interior pairs are ints over one per-n index, pair_index(n):
bit i is the i-th pair in combinations(range(1, n - 1), 2) order, and a
flat n*n table gives the bit of {p, q} at p*n + q and q*n + p, 0 on the
diagonal and on every pair touching 0 or n-1, so a rule looks a pair up
without testing its states first.  Pairs are tuples only in PairStatus.

Each semigroup is scanned once, over its raw maps, and keeps the scan:
the colliding and focused masks, and per pair bit the first witness of
each relation in discovery order; only witnesses become Transformation
objects.  The per-element tests come from the semigroup's byte flags
(semigroup.element_flags): the first map moving n-1 is one find, and
the colliding part reads only the maps sending 0 to an interior state,
the only ones that collide a pair, in order.  The focus part walks
every map in order and stops once every pair has a witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from .semigroup import ElementFlags, RawMap, TransitionSemigroup
from .transform import Transformation, format_transformation


class StructureError(ValueError):
    """The semigroup violates a structural precondition."""


@dataclass(frozen=True)
class PairStatus:
    """One interior pair with the first element in discovery order that
    makes it colliding, and the first that focuses it (with its target):
    focused_by holds at most one entry."""

    pair: tuple[int, int]  # p < q, both interior
    colliding_by: Transformation | None
    focused_by: tuple[tuple[Transformation, int], ...]

    @property
    def colliding(self) -> bool:
        return self.colliding_by is not None

    @property
    def focused(self) -> bool:
        return bool(self.focused_by)


class PairIndex(NamedTuple):
    """pairs[i], p < q, is the interior pair of bit 1 << i, and
    bit[p * n + q] the bit of {p, q} (see the module docstring)."""

    pairs: tuple[tuple[int, int], ...]
    bit: tuple[int, ...]


@lru_cache(maxsize=None)
def pair_index(n: int) -> PairIndex:
    """The one pair encoding for n states, built once per n and kept."""
    pairs = tuple(combinations(range(1, n - 1), 2))
    bit = [0] * (n * n)
    for i, (p, q) in enumerate(pairs):
        bit[p * n + q] = bit[q * n + p] = 1 << i
    return PairIndex(pairs, tuple(bit))


def colliding_bits(images: Sequence[int]) -> int:
    """The one colliding-pair rule, on an image sequence (a tuple or a
    raw byte map), as a mask: the pair {0t, rt} for every interior r
    whose image is interior and differs from the interior image of 0.
    The index's zeros drop every other pair, and all of them when 0t is
    not interior."""
    n = len(images)
    bit = pair_index(n).bit
    row = images[0] * n
    mask = 0
    for q in images[1 : n - 1]:
        mask |= bit[row + q]
    return mask


def focused_triples(images: Sequence[int]) -> list[tuple[int, int, int]]:
    """The one focused-pair rule, on an image sequence: (p, q, r) for
    interior p < q both sent to the interior state r.  Three or more
    sources of one image give every pair among them."""
    n = len(images)
    sources: dict[int, list[int]] = {}
    out = []
    for q in range(1, n - 1):
        r = images[q]
        if 0 < r < n - 1:
            earlier = sources.setdefault(r, [])
            for p in earlier:
                out.append((p, q, r))
            earlier.append(q)
    return out


def pair_masks(images: Sequence[int]) -> tuple[int, int]:
    """The colliding and the focused pairs of an image sequence, as
    masks over pair_index."""
    n = len(images)
    bit = pair_index(n).bit
    focused = 0
    for p, q, _ in focused_triples(images):
        focused |= bit[p * n + q]
    return colliding_bits(images), focused


@dataclass(frozen=True)
class PairScan:
    """The pairs some map collides and some map focuses, as masks; per
    pair bit the first colliding and the first focusing map (with its
    target) in discovery order; and the first map moving n-1, if any."""

    colliding: int
    focused: int
    colliding_by: dict[int, RawMap]
    focused_by: dict[int, tuple[RawMap, int]]
    unfixed: RawMap | None


def scan_pairs(raw: Sequence[RawMap], n: int, flags: ElementFlags) -> PairScan:
    """The one pair scan, run once per semigroup by its pair_scan.  The
    first map moving n-1 and the maps sending 0 to an interior state,
    the only ones that collide a pair, come from the semigroup's byte
    flags; the focus part walks every map in order until each pair is
    focused."""
    index = pair_index(n)
    bit = index.bit
    every = (1 << len(index.pairs)) - 1
    first = flags.unfixed.find(1)
    unfixed = raw[first] if first >= 0 else None
    colliding = focused = 0
    colliders: dict[int, RawMap] = {}
    focusers: dict[int, tuple[RawMap, int]] = {}
    i = flags.zero_interior.find(1)
    while i >= 0 and colliding != every:
        x = raw[i]
        new = colliding_bits(x) & ~colliding
        colliding |= new
        while new:  # one step per newly colliding pair
            low = new & -new
            colliders[low] = x
            new ^= low
        i = flags.zero_interior.find(1, i + 1)
    for x in raw:
        if focused == every:
            break
        for p, q, r in focused_triples(x):
            b = bit[p * n + q]
            if not focused & b:
                focused |= b
                focusers[b] = (x, r)
    return PairScan(colliding, focused, colliders, focusers, unfixed)


def checked_scan(sg: TransitionSemigroup) -> PairScan:
    """The semigroup's pair scan, once n >= 4 and every element fixes
    n-1."""
    if sg.n < 4:
        raise ValueError("pair analysis needs n >= 4")
    scan = sg.pair_scan
    if scan.unfixed is not None:
        raise StructureError(
            f"element {format_transformation(scan.unfixed)} does not fix state {sg.n - 1}"
        )
    return scan


def pair_statuses(sg: TransitionSemigroup) -> tuple[PairStatus, ...]:
    """Status of every unordered interior pair, in lexicographic order,
    each relation with its first witness in discovery order."""
    scan = checked_scan(sg)
    return tuple(
        PairStatus(
            pair=pair,
            colliding_by=Transformation(tuple(x)) if (x := scan.colliding_by.get(1 << i)) else None,
            focused_by=((Transformation(tuple(f[0])), f[1]),) if (f := scan.focused_by.get(1 << i)) else (),
        )
        for i, pair in enumerate(pair_index(sg.n).pairs)
    )
