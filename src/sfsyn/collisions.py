"""Colliding and focused pairs of interior states.

A pair {p, q} of interior states is colliding in a semigroup T when
some t in T sends 0 to one of the pair and some interior state to the
other.  It is focused when some u in T sends both members to one
interior state r.  A transition semigroup of a minimal suffix-free DFA
never lets the same pair be both: a collider plus a focuser would
yield two words, one a proper suffix of the other, both accepted.

Mapping both members to the empty state n-1 is never a focus; the
target must be interior.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .semigroup import TransitionSemigroup, in_wsf, wsf_bound, word_string
from .transform import Transformation, format_transformation


class StructureError(ValueError):
    """The semigroup violates a structural precondition."""


@dataclass(frozen=True)
class PairStatus:
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


def pair_statuses(sg: TransitionSemigroup) -> tuple[PairStatus, ...]:
    """Status of every unordered interior pair, in lexicographic order.

    Witnesses are deterministic: the first element in discovery order
    that makes the pair colliding, and focus entries in discovery order.
    """
    n = sg.n
    if n < 4:
        raise ValueError("pair analysis needs n >= 4")
    for t in sg.elements:
        if t.images[n - 1] != n - 1:
            raise StructureError(
                f"element {format_transformation(t)} does not fix state {n - 1}"
            )
    colliders: dict[tuple[int, int], Transformation] = {}
    focusers: dict[tuple[int, int], list[tuple[Transformation, int]]] = {}
    for t in sg.elements:
        images = t.images
        for pair in colliding_pairs(images):
            colliders.setdefault(pair, t)
        # one element sends a pair to one target, so each pair gets at
        # most one entry per element
        for p, q, r in focused_triples(images):
            focusers.setdefault((p, q), []).append((t, r))
    return tuple(
        PairStatus(
            pair=(p, q),
            colliding_by=colliders.get((p, q)),
            focused_by=tuple(focusers.get((p, q), ())),
        )
        for p, q in combinations(range(1, n - 1), 2)
    )


def verify_suffix_free_consistency(sg: TransitionSemigroup) -> bool:
    """True iff no interior pair is both colliding and focused."""
    return all(not (s.colliding and s.focused) for s in pair_statuses(sg))


@dataclass(frozen=True)
class CollisionFreeBoundReport:
    """When a semigroup has no colliding pair at all, it must fit inside
    the collapsing family: size at most (n-1)^(n-2) + n - 2 and every
    element in w_sf(n)."""

    applicable: bool
    size: int
    bound: int
    size_within_bound: bool
    all_elements_wsf: bool

    @property
    def passed(self) -> bool:
        return self.applicable and self.size_within_bound and self.all_elements_wsf


def check_collision_free_bound(sg: TransitionSemigroup) -> CollisionFreeBoundReport:
    statuses = pair_statuses(sg)
    applicable = all(not s.colliding for s in statuses)
    bound = wsf_bound(sg.n)
    if not applicable:
        return CollisionFreeBoundReport(
            applicable=False,
            size=sg.size,
            bound=bound,
            size_within_bound=sg.size <= bound,
            all_elements_wsf=False,
        )
    return CollisionFreeBoundReport(
        applicable=True,
        size=sg.size,
        bound=bound,
        size_within_bound=sg.size <= bound,
        all_elements_wsf=all(in_wsf(t) for t in sg.elements),
    )


def _witness_text(sg: TransitionSemigroup, t: Transformation, names: Sequence[str] | None) -> str:
    if sg.witness_words is not None:
        return word_string(sg.witness_words[t], names)
    return format_transformation(t)


def pair_statuses_json(sg: TransitionSemigroup, names: Sequence[str] | None = None) -> list[dict]:
    """JSON-friendly pair report: colliding flag with witness word and
    focus targets with witness words.  Falls back to image tuples when
    the semigroup was enumerated directly and has no words."""
    out = []
    for s in pair_statuses(sg):
        entry: dict = {"pair": list(s.pair), "colliding": s.colliding}
        if s.colliding_by is not None:
            entry["colliding_by"] = _witness_text(sg, s.colliding_by, names)
        entry["focused"] = s.focused
        entry["focus_targets"] = [
            {"target": r, "by": _witness_text(sg, u, names)} for u, r in s.focused_by
        ]
        out.append(entry)
    return out
