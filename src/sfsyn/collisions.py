"""Colliding and focused pairs of interior states.

A pair {p, q} of interior states is colliding in a semigroup T when
some t in T sends 0 to one of the pair and some interior state to the
other.  It is focused when some u in T sends both members to one
interior state r.  A transition semigroup of a minimal suffix-free DFA
never lets the same pair be both: a collider plus a focuser would
yield two words, one a proper suffix of the other, both accepted.

Mapping both members to the empty state n-1 is never a focus; the
target must be interior.

Each semigroup is scanned once, over its raw maps, and keeps the scan:
each relation keeps its first witness in discovery order, the focus
part stops once every pair has one, and only witnesses become
Transformation objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .semigroup import RawMap, TransitionSemigroup
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


def colliding_pairs(images: Sequence[int]) -> list[tuple[int, int]]:
    """The one colliding-pair rule, on an image sequence (a tuple or a
    raw byte map): {0t, rt} for every interior r whose image is
    interior and differs from the interior image of 0.  A pair repeats
    when two such r share an image."""
    n = len(images)
    p = images[0]
    if not 0 < p < n - 1:
        return []
    out = []
    for r in range(1, n - 1):
        q = images[r]
        if 0 < q < n - 1 and q != p:
            out.append((p, q) if p < q else (q, p))
    return out


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


@dataclass(frozen=True)
class PairScan:
    """Per pair the first colliding and the first focusing map (with its
    target) in discovery order, and the first map moving n-1, if any."""

    colliding_by: dict[tuple[int, int], RawMap]
    focused_by: dict[tuple[int, int], tuple[RawMap, int]]
    unfixed: RawMap | None


def scan_pairs(raw: Sequence[RawMap], n: int) -> PairScan:
    """The one pair scan, run once per semigroup by its pair_scan."""
    last = n - 1
    pairs = (n - 2) * (n - 3) // 2
    colliders: dict[tuple[int, int], RawMap] = {}
    focusers: dict[tuple[int, int], tuple[RawMap, int]] = {}
    unfixed = None
    for x in raw:
        if x[last] != last and unfixed is None:
            unfixed = x
        if 0 < x[0] < last:
            for pair in colliding_pairs(x):
                colliders.setdefault(pair, x)
        if len(focusers) < pairs:
            for p, q, r in focused_triples(x):
                focusers.setdefault((p, q), (x, r))
    return PairScan(colliders, focusers, unfixed)


def pair_statuses(sg: TransitionSemigroup) -> tuple[PairStatus, ...]:
    """Status of every unordered interior pair, in lexicographic order,
    each relation with its first witness in discovery order."""
    n = sg.n
    if n < 4:
        raise ValueError("pair analysis needs n >= 4")
    scan = sg.pair_scan
    if scan.unfixed is not None:
        raise StructureError(
            f"element {format_transformation(scan.unfixed)} does not fix state {n - 1}"
        )
    return tuple(
        PairStatus(
            pair=pair,
            colliding_by=Transformation(tuple(x)) if (x := scan.colliding_by.get(pair)) else None,
            focused_by=((Transformation(tuple(f[0])), f[1]),) if (f := scan.focused_by.get(pair)) else (),
        )
        for pair in combinations(range(1, n - 1), 2)
    )


def verify_suffix_free_consistency(sg: TransitionSemigroup) -> bool:
    """True iff no interior pair is both colliding and focused."""
    return all(not (s.colliding and s.focused) for s in pair_statuses(sg))
