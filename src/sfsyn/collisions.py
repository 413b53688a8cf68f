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

Each semigroup is read once, by one column pass over its raw maps
(scan_columns), and keeps what it found: its w_sf bytes, the colliding
and focused masks, per pair bit the first witness of each relation in
discovery order, and the first map moving n-1.  Witnesses stay raw maps,
in the per-pair report (pair_statuses) too.  The pass takes no Python
step per map.  It joins FLAGS_CHUNK maps at a time, so that the images
of one state under every map of the chunk are one slice, a column, and
translates columns into lanes: ints with one byte per map, which combine
with & and | for every map of the chunk at once.  One code table ANDed
over the interior columns gives the w_sf bytes; lanes with a bit per
interior target decide each pair, and a first witness is the lowest
non-zero byte of the pair's result.  pair_masks is the same pair rule
for one map, both masks in one pass over its interior states; the search
reads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple, Sequence

from .semigroup import RawMap, TransitionSemigroup
from .transform import format_transformation


FLAGS_CHUNK = 4096  # maps joined per chunk of the column pass


class StructureError(ValueError):
    """The semigroup violates a structural precondition."""


class PairStatus(NamedTuple):
    """One interior pair with its first witnesses in discovery order, as
    the pair scan keeps them: the first raw map colliding it, and the
    first focusing it with its target; None where there is none.  A
    NamedTuple, as one is built per pair on every pair_statuses call."""

    pair: tuple[int, int]  # p < q, both interior
    colliding_by: RawMap | None
    focused_by: tuple[RawMap, int] | None

    @property
    def colliding(self) -> bool:
        return self.colliding_by is not None


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


def pair_masks(images: Sequence[int]) -> tuple[int, int]:
    """The one per-map pair rule, on an image sequence (a tuple or a raw
    byte map): its colliding and its focused pairs, as masks over
    pair_index.  It collides {0t, qt} for every interior q whose image
    is interior and differs from the interior image of 0; the index's
    zeros drop every other pair, and all of them when 0t is not
    interior.  It focuses {p, q} for interior p < q both sent to one
    interior state, so three or more sources of one image give every
    pair among them."""
    n = len(images)
    last = n - 1
    bit = pair_index(n).bit
    row = images[0] * n
    colliding = focused = 0
    sources: dict[int, list[int]] = {}  # interior target to p * n of its earlier sources
    for q, r in enumerate(images[1:last], 1):
        colliding |= bit[row + r]
        if 0 < r < last:
            earlier = sources.setdefault(r, [])
            for p in earlier:
                focused |= bit[p + q]
            earlier.append(q * n)
    return colliding, focused


@dataclass(frozen=True)
class PairScan:
    """What the column pass reads off a semigroup: the pairs some map
    collides and some map focuses, as masks; per pair bit the first
    colliding and the first focusing map (with its target) in discovery
    order; the first map moving n-1, if any; and the w_sf bytes, byte i
    1 when map i is in w_sf (exactly in_wsf_images) and 0 when not."""

    colliding: int
    focused: int
    colliding_by: dict[int, RawMap]
    focused_by: dict[int, tuple[RawMap, int]]
    unfixed: RawMap | None
    wsf: bytes


class _Tables(NamedTuple):
    # the column pass's translate tables for n states
    is_last: bytes  # n-1 to 1, every other byte to 0
    code: bytes  # bit 0 set when the byte is not 0, bit 1 when it is n-1
    interior: bytes  # an interior state to 1, every other byte to 0
    targets: tuple[bytes, ...]  # eight interior targets to a table


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """The column pass's tables, built once per n.  Target table g sends
    r = 8g + b + 1 to the bit 1 << b and every other byte to 0."""
    last = n - 1
    targets = []
    for low in range(1, last, 8):
        table = bytearray(256)
        for r in range(low, min(low + 8, last)):
            table[r] = 1 << (r - low)
        targets.append(bytes(table))
    return _Tables(
        is_last=bytes(v == last for v in range(256)),
        code=bytes((v != 0) | (v == last) << 1 for v in range(256)),
        interior=bytes(0 < v < last for v in range(256)),
        targets=tuple(targets),
    )


def _lane(column: bytes, table: bytes) -> int:
    # a column under a translate table, as one little-endian int
    return int.from_bytes(column.translate(table), "little")


def _first_map(hits: int) -> int:
    # the index in its chunk of a lane's lowest non-zero byte
    return ((hits & -hits).bit_length() - 1) >> 3


def scan_columns(raw: Sequence[RawMap], n: int) -> PairScan:
    """The one column pass over a sequence of n-state raw maps, run once
    per semigroup by its pair_scan.  Each chunk of FLAGS_CHUNK maps is
    joined once (the join is chunked because it holds a buffer per map
    until it ends) and sliced into columns: byte i of column j is the
    image of j under map i of the chunk.

    The w_sf bytes take one code table per interior column: bit 0 of an
    image's code is set when it is not 0 and bit 1 when it is n-1.  The
    codes of the interior columns are ANDed, so bit 0 says no interior
    state goes to 0 and bit 1 that every one goes to n-1.  w_sf is then
    n-1 fixed, no image 0, and 0 or every interior state sent to n-1
    (with n-1 fixed and 0 kept off n-1, that is exactly n-1 images equal
    to n-1, as in_wsf_images asks).  The first map moving n-1 is the
    first 0 of column n-1 under the is_last table.

    Lane (j, g) of a chunk has bit b of byte i set when its map i sends
    j to the interior target 8g + b + 1, so {p, q} is focused by map i
    exactly where byte i of some lane (p, g) & (q, g) is non-zero.  It
    is colliding where the maps sending 0 to p, read off the lanes of
    column 0, meet those sending some interior state to q, or the same
    with p and q swapped.  A pair's first witness is the lowest non-zero
    byte over its lanes, and a focuser's target its image of p.  The
    lanes are built only while some pair is not yet focused, or not yet
    colliding in a chunk holding a map that sends 0 to an interior
    state, the only maps that collide a pair.  Both witness dicts are
    keyed by pair bit."""
    pairs = pair_index(n).pairs
    every = (1 << len(pairs)) - 1
    last = n - 1
    is_last, code, interior, targets = _tables(n)
    bits = [divmod(k, 8) for k in range(n - 2)]  # (g, b) of interior target k + 1
    wsf = bytearray()
    unfixed = None
    colliding = focused = 0
    colliders: dict[int, RawMap] = {}
    focusers: dict[int, tuple[RawMap, int]] = {}
    for start in range(0, len(raw), FLAGS_CHUNK):
        chunk = raw[start : start + FLAGS_CHUNK]
        big = b"".join(chunk)
        columns = [big[j::n] for j in range(n)]
        zero_column = columns[0]
        fixed = columns[last].translate(is_last)
        codes = int.from_bytes(b"\x03" * len(chunk), "little")
        for column in columns[1:last]:
            codes &= _lane(column, code)
        zero = _lane(zero_column, code)
        # the first lane keeps bit 0 of each byte; the shift brings bit 1 there
        in_wsf = int.from_bytes(fixed, "little") & zero & codes & (zero | codes) >> 1
        wsf += in_wsf.to_bytes(len(chunk), "little")
        if unfixed is None and (i := fixed.find(0)) >= 0:
            unfixed = chunk[i]
        collide = colliding != every and 1 in zero_column.translate(interior)
        if focused == every and not collide:
            continue
        lanes = [[_lane(column, table) for table in targets] for column in columns[:last]]
        if focused != every:
            for i, (p, q) in enumerate(pairs):
                if focused >> i & 1:
                    continue
                hits = reduce(or_, map(and_, lanes[p], lanes[q]))
                if hits:
                    x = chunk[_first_map(hits)]
                    focused |= 1 << i
                    focusers[1 << i] = (x, x[p])
        if collide:
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
    return PairScan(colliding, focused, colliders, focusers, unfixed, bytes(wsf))


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
    colliders, focusers = scan.colliding_by, scan.focused_by
    return tuple(
        PairStatus(pair, colliders.get(1 << i), focusers.get(1 << i))
        for i, pair in enumerate(pair_index(sg.n).pairs)
    )
