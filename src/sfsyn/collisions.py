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
objects.  The scan takes no Python step per map: it translates columns
of a chunk of joined maps into lanes, ints with one byte per map
(semigroup.chunk_columns and lane, the idiom of element_flags), and
decides each pair for the whole chunk with a few int operations; a
first witness is the lowest non-zero byte of the pair's result.  The
semigroup's byte flags give the first map moving n-1 in one find and
say where the maps sending 0 to an interior state, the only ones that
collide a pair, still lie.  colliding_bits and focused_triples are the
same rules for one map, which pair_masks and the tests use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple, Sequence

from .semigroup import FLAGS_CHUNK, ElementFlags, RawMap, TransitionSemigroup, chunk_columns, lane
from .transform import Transformation, format_transformation


SCAN_FIRST_CHUNK = 256  # maps in the pair scan's first chunk


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


@lru_cache(maxsize=None)
def _target_tables(n: int) -> tuple[bytes, ...]:
    """The pair scan's translate tables, built once per n, eight interior
    targets to a table: table g sends r = 8g + b + 1 to the bit 1 << b
    and every other byte to 0."""
    tables = []
    for low in range(1, n - 1, 8):
        table = bytearray(256)
        for r in range(low, min(low + 8, n - 1)):
            table[r] = 1 << (r - low)
        tables.append(bytes(table))
    return tuple(tables)


def _first_map(hits: int) -> int:
    # the index in its chunk of a lane's lowest non-zero byte
    return ((hits & -hits).bit_length() - 1) >> 3


def scan_pairs(raw: Sequence[RawMap], n: int, flags: ElementFlags) -> PairScan:
    """The one pair scan, run once per semigroup by its pair_scan, in
    lanes over chunks of maps (semigroup.chunk_columns), with no step
    per map.  Lane (j, g) of a chunk has bit b of byte i set when its
    map i sends j to the interior target 8g + b + 1 (_target_tables),
    so {p, q} is focused by map i exactly where byte i of some lane
    (p, g) & (q, g) is non-zero.  It is colliding where the maps sending
    0 to p, read off the lanes of column 0, meet those sending some
    interior state to q, or the same with p and q swapped.  A pair's
    first witness is the lowest non-zero byte over its lanes, and a
    focuser's target its image of p.

    Chunks go in discovery order, the first SCAN_FIRST_CHUNK maps long
    and each next one twice the last, up to FLAGS_CHUNK, so a semigroup
    focusing every pair early stops early.  Only the maps sending 0 to
    an interior state collide a pair: the semigroup's byte flags tell
    whether one is left, and once every pair is focused the scan jumps
    to the next one.  The first map moving n-1 is one find in the flags
    too.  Both witness dicts are keyed by pair bit."""
    pairs = pair_index(n).pairs
    every = (1 << len(pairs)) - 1
    first = flags.unfixed.find(1)
    unfixed = raw[first] if first >= 0 else None
    tables = _target_tables(n)
    bits = [divmod(k, 8) for k in range(n - 2)]  # (g, b) of interior target k + 1
    colliding = focused = 0
    colliders: dict[int, RawMap] = {}
    focusers: dict[int, tuple[RawMap, int]] = {}
    start, size = 0, SCAN_FIRST_CHUNK
    while True:
        collider = flags.zero_interior.find(1, start) if colliding != every else -1
        if focused == every:
            if collider < 0:
                break
            start = collider  # only colliding pairs are left to find
        if start >= len(raw):
            break
        end = start + size
        chunk = raw[start:end]
        lanes = [[lane(column, table) for table in tables] for column in chunk_columns(chunk, n)[:-1]]
        if focused != every:
            for i, (p, q) in enumerate(pairs):
                if focused >> i & 1:
                    continue
                hits = reduce(or_, map(and_, lanes[p], lanes[q]))
                if hits:
                    x = chunk[_first_map(hits)]
                    focused |= 1 << i
                    focusers[1 << i] = (x, x[p])
        if 0 <= collider < end:
            ones = int.from_bytes(b"\x01" * len(chunk), "little")
            reached = [reduce(or_, group) for group in zip(*lanes[1:])]
            sends = [lanes[0][g] >> b & ones for g, b in bits]  # 0 to k + 1
            reach = [reached[g] >> b & ones for g, b in bits]  # some interior state to k + 1
            for i, (p, q) in enumerate(pairs):
                if colliding >> i & 1:
                    continue
                hits = sends[p - 1] & reach[q - 1] | sends[q - 1] & reach[p - 1]
                if hits:
                    colliding |= 1 << i
                    colliders[1 << i] = chunk[_first_map(hits)]
        start, size = end, min(2 * size, FLAGS_CHUNK)
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
