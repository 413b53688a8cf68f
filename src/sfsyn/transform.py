"""Transformations of a finite state set Q = {0, ..., n-1}.

A transformation is a total map t: Q -> Q stored as a dense tuple of
images, so ``t[q]`` is the image of state q.  This module holds the
type and what the other modules read off a single map: its text form
and the walk of state 0.  Products of maps are formed in semigroup, left
to right, as stated on Transformation.

format_transformation and zero_path only iterate and index their
argument, so they take a Transformation, through its __getitem__, or a
bare image sequence: a tuple, or a raw byte map.

Throughout the package state 0 is reserved for the initial state of a
DFA and state n-1 for its empty (sink) state; several predicates in
other modules depend on that convention, but nothing here does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class Transformation:
    """A total map on {0, ..., n-1}, stored as the tuple of images.

    Maps compose left to right: the product s t sends q to t[s[q]], so
    ``q (s t) = (q s) t``, matching the way a word uv acts on a DFA
    state (first u, then v)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for q, img in enumerate(self.images):
            if not isinstance(img, int) or not 0 <= img < n:
                raise ValueError(f"image of state {q} is {img!r}, not a state in 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __getitem__(self, q: int) -> int:
        return self.images[q]

    def __repr__(self) -> str:
        return f"Transformation({' '.join(str(i) for i in self.images)})"


def format_transformation(t: Transformation | Sequence[int]) -> str:
    return " ".join(str(i) for i in t)


@dataclass(frozen=True, slots=True)
class ZeroPath:
    """The walk 0, 0t, 0t^2, ... up to its first repeated state.

    ``states`` lists the distinct prefix of the walk; ``period`` is the
    length of the loop the walk then enters.  Period 1 means the walk
    ends in a fixed point, in which case states[-1] is that fixed point.
    """

    states: tuple[int, ...]
    period: int

    @property
    def is_aperiodic(self) -> bool:
        return self.period == 1


def zero_path(t: Transformation | Sequence[int]) -> ZeroPath:
    seen: dict[int, int] = {}
    cur = 0
    path: list[int] = []
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = t[cur]
    return ZeroPath(states=tuple(path), period=len(path) - seen[cur])
