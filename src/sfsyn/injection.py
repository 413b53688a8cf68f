"""An injective embedding of the transition semigroup of a minimal
suffix-free DFA into the collapsing family w_sf(n), for n >= 7.

Every transformation t falls into exactly one of twelve structural
cases, tried in order; each case rewires a handful of states around
the walk of 0 (always sending 0 to n-1) and keeps every other image,
so the result lands in w_sf(n) and remembers enough structure to be
inverted.  The inverse reads the focused colliding pairs of the image
against the collision data of the whole semigroup and undoes the
rewiring case by case.

The embedding is what bounds the semigroup size by
(n-1)^(n-2) + n - 2; a strict-inequality witness exists whenever the
semigroup has a colliding pair at all.

The embedding works on image sequences (tuples or raw byte maps) and
names cases by label: _forward walks the case ladder once, reading the
map alone, and returns the label of the first matching case with its
rewired image; _undo inverts an image, reading the semigroup's colliding
pairs too; _phi runs both and checks the round trip.  Each rung reads
only what its case tests, in ladder order.  Case 1, where the embedding
is the identity, is one w_sf test on the raw map (in_wsf_images).  A map
outside w_sf runs the b_sf guard; then its cycle states, found by a
bounded walk from each state (skipped when fewer than two interior
states stay off n-1), and the walk of 0 decide cases 2 and 3; only a map
past case 3 has its in-degrees, interior fixed points and movers read,
in one pass.  The inverse reads the focused colliding pairs straight
off the image under the colliding mask, and the image's cycle states by
the same walk only when some pair is read.  The mask is the plain int
checked_scan(sg).colliding, over collisions.pair_index(n); pairs are
tuples only where the inverse reads the shape around their two states.

verify_injective and strict_bound_witness take a consistent semigroup
only: every element fixes n-1, and no interior pair is both colliding
and focused, as in the transition semigroup of a minimal suffix-free
DFA; anything else raises StructureError, from the one checked pair scan
(_consistent_scan).  A w_sf map of such a semigroup focuses no colliding
pair, so the inverse reads it as case 1, and verify_injective counts
case 1 off the w_sf bytes of the same pass (collisions.scan_columns)
with no step per map; only the other maps go through the embedding, and
each of their images sends 0 to n-1, so none is its own map.  They reach
it through _phi.  verify_injective and strict_bound_witness refuse n < 7
before any map reaches the kernel, and every map they pass has the
semigroup's n, so the kernel checks neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .collisions import PairScan, StructureError, checked_scan, pair_index
from .semigroup import RawMap, TransitionSemigroup, in_bsf_images, in_wsf_images, wsf_bound
from .transform import Transformation, format_transformation, zero_path


class PreconditionError(ValueError):
    """The transformation cannot belong to the transition semigroup of
    a minimal suffix-free DFA."""


class NotInImageError(ValueError):
    """The transformation matches no case's image signature."""


class CaseExhaustionError(RuntimeError):
    """A structural situation the case analysis claims impossible."""


# ---------------------------------------------------------------- helpers


def _interior(n: int) -> range:
    return range(1, n - 1)


def _guard(t: Sequence[int]) -> None:
    # a map outside w_sf must still be b_sf
    if not in_bsf_images(t):
        n = len(t)
        zp = zero_path(t)
        if not zp.is_aperiodic:
            detail = "the walk of 0 enters a cycle"
        elif zp.states[-1] != n - 1:
            detail = f"the walk of 0 ends at {zp.states[-1]}, not at {n - 1}"
        elif t[n - 1] != n - 1:
            detail = f"state {n - 1} is not fixed"
        elif 0 in t:
            detail = "some state maps to 0"
        else:
            detail = "the walk of 0 merges with the walk of an interior state"
        raise PreconditionError(
            f"{format_transformation(t)} cannot occur in a suffix-free "
            f"transition semigroup: {detail}"
        )


def _cycle_states(images: Sequence[int]) -> set[int]:
    # the states on cycles of length >= 2.  A state sent to a fixed
    # point is on none; from any other the walk stops back at its start,
    # at a fixed point, or after n steps (one per image)
    on: set[int] = set()
    for q, w in enumerate(images):
        if w == q or images[w] == w or q in on:
            continue
        for _ in images:
            if w == q:
                while w not in on:
                    on.add(w)
                    w = images[w]
                break
            v = images[w]
            if v == w:
                break
            w = v
    return on


def _spares(n: int, taken: tuple[int, ...]) -> list[int]:
    # the two least interior states outside taken
    return [q for q in _interior(n) if q not in taken][:2]


def _forward(t: Sequence[int]) -> tuple[str, Sequence[int]]:
    # the label of the first matching case, tried in order, and the
    # image of t under it, of the same sequence type as t.  Each step
    # reads only what its cases test: case 1 is w_sf itself, one test
    # on the raw map; then the b_sf guard; the cycle states and the walk
    # of 0 (cases 2 and 3); in-degrees, interior fixed points and
    # movers, in one pass (cases 4 to 12).  The final case is the
    # fall-through and anything outside it is a hard structural error
    if in_wsf_images(t):
        return "1", t
    _guard(t)
    n = len(t)
    last = n - 1
    p = t[0]
    imgs = list(t)
    imgs[0] = last
    # a cycle takes two interior states sent neither to n-1 nor to
    # themselves, as the guard leaves 0 without a preimage and n-1 fixed
    on_cycles = _cycle_states(t) if t.count(last) < n - 2 else ()
    if on_cycles or t[p] != last:
        # reverse the walk of 0; p goes to the least cycle state or stays
        case = "2" if on_cycles else "3"
        imgs[p] = min(on_cycles) if on_cycles else p
        back, q = p, t[p]
        while q != last:
            imgs[q] = back
            back, q = q, t[q]
        return case, type(t)(imgs)
    deg = [0] * n
    deg[p] = 1  # from 0
    fixed = []
    movers = []  # interior states neither fixed nor sent to n-1
    for q in range(1, last):
        r = t[q]
        deg[r] += 1
        if r == q:
            fixed.append(q)
        elif r != last:
            movers.append(q)
    if heavy_fixed := [r for r in fixed if deg[r] >= 2]:
        case = "4"
        imgs[p] = heavy_fixed[0]
    elif entered := [q for q in movers if deg[q]]:
        # the walk from an entered mover reaches n-1 through entered
        # movers only (a fixed point at its end would be case 4), so
        # one of them is sent next to n-1
        case = "5"
        imgs[p] = t[next(q for q in entered if t[t[q]] == last)]
    elif heavy := [r for r in _interior(n) if deg[r] >= 2]:
        r = heavy[0]
        if r == p:
            raise CaseExhaustionError(
                f"{format_transformation(t)}: state {p} reached from 0 has "
                "in-degree >= 2, impossible under suffix-freeness"
            )
        case = "6(p<r)" if p < r else "6(p>r)"
        q1, q2 = [q for q in range(n) if t[q] == r][:2]
        if p > r:
            q1, q2 = q2, q1
        imgs[p] = imgs[r] = q1
        imgs[q1] = q2
        imgs[q2] = last
    elif len(movers) >= 2:
        q1, q2 = movers[:2]
        r1 = t[q1]
        case = "7(i)" if p < r1 else "7(ii)"
        imgs[p] = imgs[r1] = q1
        imgs[q1] = last if p < r1 else q2
    elif len(isolated := [r for r in fixed if deg[r] == 1]) >= 2:
        case = "8"
        r1, r2 = isolated[:2]
        imgs[p] = imgs[r1] = r2
        imgs[r2] = r1
    elif movers:
        q = movers[0]
        r = t[q]
        if r == p:
            raise CaseExhaustionError(
                f"{format_transformation(t)}: the moving state {q} maps to "
                f"{p}, which only 0 may reach under suffix-freeness"
            )
        if fixed and p < r:
            case = "9"
            imgs[p] = r
            imgs[r] = q
            imgs[q] = p
            imgs[fixed[0]] = r
        else:
            case = "10" if fixed else "11(i)" if p < r else "11(ii)"
            imgs[p] = imgs[r] = q
            imgs[q] = last
            if case == "11(ii)":
                r1, r2 = _spares(n, (p, q, r))
                imgs[r1], imgs[r2] = r2, r1
    else:
        # no movers: every interior state but the fixed ones is sent to
        # n-1, p too (case 3 has taken every map with t[p] != n-1), so
        # exactly one isolated fixed point must be left
        if len(fixed) != 1:
            raise CaseExhaustionError(
                f"{format_transformation(t)} matches no structural case; "
                f"fixed interior states {fixed}, walk target {t[p]}"
            )
        case = "12"
        imgs[p] = fixed[0]
        r1, r2 = _spares(n, (p, fixed[0]))
        imgs[r1], imgs[r2] = r2, r1
    return case, type(t)(imgs)


def _phi(t: Sequence[int], colliding: int) -> tuple[str, Sequence[int]]:
    # the case label and the image of t, after the inverse has sent
    # the image back to t under the colliding mask
    case, image = _forward(t)
    back = _undo(image, colliding)
    if back != t:
        raise CaseExhaustionError(
            f"round trip failed for {format_transformation(t)} "
            f"(case {case}): reconstructed {format_transformation(back)}"
        )
    return case, image


# ----------------------------------------------------------- the inverse map


def _rebuild_chain(s: Sequence[int], p: int, colliding: int) -> Sequence[int]:
    """Shared reconstruction of the walk of 0 for the two chain cases.

    The first chain state is the unique other preimage of p; each next
    one is the unique preimage of the current state that collides with
    the state two steps back.
    """
    n = len(s)
    bit = pair_index(n).bit
    chain = [p]
    pre = [w for w in range(n) if w != p and s[w] == p]
    if len(pre) > 1:
        raise NotInImageError("several states walk into the start of the chain")
    if pre:
        chain.append(pre[0])
        while len(chain) <= n:
            cur, back = chain[-1], chain[-2]
            cands = [
                w
                for w in range(n)
                if s[w] == cur and w != cur and bit[w * n + back] & colliding
            ]
            if len(cands) > 1:
                raise NotInImageError("chain step is not unique")
            if not cands:
                break
            chain.append(cands[0])
        else:
            raise NotInImageError("chain does not terminate")
    imgs = list(s)
    imgs[0] = p
    for i in range(len(chain) - 1):
        imgs[chain[i]] = chain[i + 1]
    imgs[chain[-1]] = n - 1
    return type(s)(imgs)


def _undo(s: Sequence[int], colliding: int) -> Sequence[int]:
    # the unique t whose image is s, recovered from the image
    # signature; NotInImageError when s is the image of no map, which is
    # exactly what proves the bound strict for colliding semigroups.
    # Reads the focused colliding pairs ((x, y), z), x < y, in order, off
    # s under the colliding mask, then the cycle states of s
    if not colliding:
        return s  # case 1: no pair collides, so none is focused
    last = len(s) - 1
    fc = [
        (pair, z)
        for i, pair in enumerate(pair_index(len(s)).pairs)
        if 0 < (z := s[pair[0]]) == s[pair[1]] < last and colliding >> i & 1
    ]
    if not fc:
        return s  # case 1
    if on_cycles := _cycle_states(s):
        return _invert_with_cycles(s, colliding, fc, on_cycles)
    return _invert_acyclic(s, colliding, fc)


def _restore(s: Sequence[int], p: int, moves: dict[int, int]) -> Sequence[int]:
    # s with the walk of 0 put back, 0 to p to n-1, then the moves applied
    imgs = list(s)
    imgs[0], imgs[p] = p, len(s) - 1
    for q, v in moves.items():
        imgs[q] = v
    return type(s)(imgs)


def _invert_with_cycles(s, colliding, fc, cyc_states) -> Sequence[int]:
    # the reversed walk of 0 may focus extra colliding pairs, because
    # its attachment state can take ordinary traffic too; the reliable
    # marker is the pair split by a cycle, one member on it and one
    # off.  Pairs the preimage already focused are never colliding, so
    # a consistent semigroup keeps that marker unique.  Two or three
    # cycle states are one 2-cycle or one 3-cycle.
    n = len(s)
    split = [
        ((x, y), z)
        for (x, y), z in fc
        if z in cyc_states and (x in cyc_states) != (y in cyc_states)
    ]
    if split:
        if len(split) != 1:
            raise NotInImageError("several focused colliding pairs split cycles")
        (x, y), z = split[0]
        on = x if x in cyc_states else y
        if z == min(cyc_states):
            # case 2: the pair joins the chain start to the cycle
            return _rebuild_chain(s, x + y - on, colliding)
        if len(cyc_states) == 2:
            # case 8: two former fixed points swapped
            r1 = min(cyc_states)
            r2 = s[r1]
            if z != r2 or r1 != on:
                raise NotInImageError("2-cycle pair does not fit the swap shape")
            return _restore(s, x + y - r1, {r1: r1, r2: r2})
        if len(cyc_states) == 3:
            # case 9: 3-cycle through the walk start
            p = on
            f = x + y - p
            r = z
            q = s[r]
            if s[p] != r or s[q] != p:
                raise NotInImageError("3-cycle does not run start-target-carrier")
            return _restore(s, p, {q: r, r: n - 1, f: f})
        raise NotInImageError("focused pair targets an unexpected cycle")
    if any(z in cyc_states for _, z in fc):
        raise NotInImageError("cycle focus without a split pair")
    # cycles exist but no focus lands on them: cases 11(ii) and 12
    if len(fc) != 1 or len(cyc_states) != 2:
        raise NotInImageError("cycle shape fits no case")
    (x, y), z = fc[0]
    r1, r2 = cyc_states  # in either order: both go back to n-1
    if z in (x, y) and s[z] == z:
        # case 12: target is the surviving fixed point
        return _restore(s, x + y - z, {r1: n - 1, r2: n - 1})
    if s[z] == n - 1:
        # case 11(ii): the swap marks the larger walk start
        r = min(x, y)
        return _restore(s, max(x, y), {r: n - 1, z: r, r1: n - 1, r2: n - 1})
    raise NotInImageError("focused pair beside a cycle fits no case")


def _invert_acyclic(s, colliding, fc) -> Sequence[int]:
    n = len(s)
    on_fixed = [(pair, z) for pair, z in fc if z in pair and s[z] == z]
    if on_fixed:
        # fixed target inside the pair: cases 3 and 4
        if len(on_fixed) != 1:
            raise NotInImageError("several focused colliding pairs hit fixed points")
        (x, y), z = on_fixed[0]
        deg = s.count(z)
        if deg == 2:
            return _rebuild_chain(s, z, colliding)  # case 3
        if deg >= 3:
            return _restore(s, x + y - z, {})  # case 4
        raise NotInImageError("fixed focus target with in-degree 1")
    if len(fc) > 1:
        # case 5 with several pairs: the walk start is their intersection
        common = set(fc[0][0])
        for pair, _ in fc[1:]:
            common &= set(pair)
        if len(common) != 1:
            raise NotInImageError("focused pairs share no single state")
        return _restore(s, common.pop(), {})
    # a single focused pair whose target is not a fixed point of the pair
    (x, y), z = fc[0]
    hops, w = 0, z
    while w != n - 1 and hops <= n:
        w = s[w]
        hops += 1
    if hops == 2:
        # case 6: two-step descent through the former shared preimages
        q1, q2 = z, s[z]
        p, r = (min(x, y), max(x, y)) if q1 < q2 else (max(x, y), min(x, y))
        return _restore(s, p, {q1: r, q2: r, r: n - 1})
    if hops == 3:
        # case 7(ii)
        r1 = min(x, y)
        return _restore(s, max(x, y), {r1: n - 1, z: r1})
    if hops != 1:
        raise NotInImageError("focus target walks too far")
    dx, dy = s.count(x), s.count(y)
    if (dx == 0) != (dy == 0):
        # case 5 with one pair: the walk start took no traffic
        return _restore(s, x if dx == 0 else y, {})
    if dx != 0:
        raise NotInImageError("both pair states receive traffic")
    movers = [
        w for w in _interior(n) if w not in (x, y) and s[w] != w and s[w] != n - 1
    ]
    if movers or not any(s[w] == w for w in _interior(n)):
        # cases 7(i) and 11(i)
        p, r = min(x, y), max(x, y)
    else:
        # case 10
        p, r = max(x, y), min(x, y)
    return _restore(s, p, {r: n - 1, z: r})


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class InjectivityReport:
    n: int
    size: int
    bound: int
    case_counts: dict[str, int]
    all_images_collapsing: bool
    images_distinct: bool
    round_trips: bool
    within_bound: bool
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return (
            self.all_images_collapsing
            and self.images_distinct
            and self.round_trips
            and self.within_bound
            and self.counterexample is None
        )


def _consistent_scan(sg: TransitionSemigroup) -> PairScan:
    """The semigroup's checked pair scan, once no interior pair is both
    colliding and focused: StructureError names the least such pair
    with its first colliding and first focusing map."""
    scan = checked_scan(sg)
    if both := scan.colliding & scan.focused:
        low = both & -both
        p, q = pair_index(sg.n).pairs[low.bit_length() - 1]
        focuser, r = scan.focused_by[low]
        raise StructureError(
            f"pair {{{p}, {q}}} is colliding, first by "
            f"{format_transformation(scan.colliding_by[low])}, and focused onto "
            f"{r}, first by {format_transformation(focuser)}"
        )
    return scan


def verify_injective(sg: TransitionSemigroup) -> InjectivityReport:
    """Run the embedding over a whole semigroup's raw maps and check all
    of its promises: images collapse, no duplicates, round-trips, size
    bound.

    The semigroup must be consistent: StructureError names an element
    that moves n-1, or else the least pair both colliding and focused
    with its first colliding and first focusing map from the pair scan.
    The forward map reads each map alone, and the inverse reads the
    scan's colliding mask too.  A map in w_sf is then case 1: _phi would send it to itself and, as
    it focuses no colliding pair, get it back from the inverse.  So case
    1 is counted off the scan's w_sf bytes (scan.wsf), and only the
    other maps, found in order on the same bytes, go through _phi.
    The report is the one a loop over every map in order would give:
    its census keys stand in the order of each case's first map, a
    failed round trip ends the count there, and a shared image is named
    where it first shows."""
    if sg.n < 7:  # the kernel's cases need it, and it checks no n itself
        raise ValueError("the embedding needs n >= 7")
    scan = _consistent_scan(sg)
    colliding = scan.colliding
    raw = sg.raw
    wsf = scan.wsf
    counts: dict[str, int] = {}
    # case 1 joins the census where its first map stands, so the keys
    # keep the order of each case's first map; -1 once it has joined
    first_wsf = wsf.find(1)
    # the image of each map outside w_sf, which sends 0 to n-1 and so
    # is never the map itself, and the index of the first map sent to it
    moved: dict[RawMap, int] = {}
    duplicate = None
    clash_at = len(raw)  # the index where duplicate shows
    all_wsf = True
    round_trips = True
    counterexample = None
    stop = len(raw)  # the index a failed round trip ends the count at
    i = wsf.find(0)
    while i >= 0:
        if 0 <= first_wsf < i:
            counts["1"] = 0  # counted once the loop ends
            first_wsf = -1
        t = raw[i]
        try:
            case, image = _phi(t, colliding)
        except (PreconditionError, CaseExhaustionError, NotInImageError) as e:
            counterexample = f"{format_transformation(t)}: {e}"
            round_trips = False
            stop = i
            break
        counts[case] = counts.get(case, 0) + 1
        if duplicate is None:  # no two maps before t share an image
            earlier = moved.setdefault(image, i)
            if earlier != i:
                duplicate = _shared_image(raw[earlier], t, image)
                clash_at = i
        if not in_wsf_images(image):
            all_wsf = False
            counterexample = (
                f"{format_transformation(t)} maps to "
                f"{format_transformation(image)}, which does not collapse"
            )
        i = wsf.find(0, i + 1)
    if ones := wsf.count(1, 0, stop):
        counts["1"] = ones
    # a map sent onto a w_sf element clashes with it, the element being
    # its own image, where the later of the two stands; a working
    # embedding sends no map onto an element, so only a broken one
    # scans for the position
    for image in moved.keys() & sg.raw_set:
        if in_wsf_images(image):
            j, k = raw.index(image), moved[image]
            if max(j, k) < min(clash_at, stop):
                clash_at = max(j, k)
                duplicate = _shared_image(raw[min(j, k)], raw[clash_at], image)
    return InjectivityReport(
        n=sg.n,
        size=sg.size,
        bound=wsf_bound(sg.n),
        case_counts=counts,
        all_images_collapsing=all_wsf,
        images_distinct=duplicate is None,
        round_trips=round_trips,
        within_bound=sg.size <= wsf_bound(sg.n),
        counterexample=counterexample or duplicate,
    )


def _shared_image(earlier: RawMap, t: RawMap, image: RawMap) -> str:
    return (
        f"{format_transformation(earlier)} and {format_transformation(t)} "
        f"share the image {format_transformation(image)}"
    )


def strict_bound_witness(sg: TransitionSemigroup) -> Transformation | None:
    """A transformation in w_sf(n) that no element embeds to, built on
    the first colliding pair, the least bit of the scan's colliding
    mask: the pair is focused onto its larger state and three spare
    states form a 3-cycle, a shape no case produces.  Returns None when
    the semigroup has no colliding pair.  The semigroup must be
    consistent, as for verify_injective: StructureError otherwise.
    CaseExhaustionError when the witness is not in w_sf, is an element,
    or has an inverse under the scan's colliding mask, the one mask the
    inverse reads."""
    if sg.n < 7:
        raise ValueError("the strict-bound witness needs n >= 7")
    n = sg.n
    colliding = _consistent_scan(sg).colliding
    if not colliding:
        return None
    p, r = pair_index(n).pairs[(colliding & -colliding).bit_length() - 1]
    spares = sorted(set(_interior(n)) - {p, r})[:3]
    imgs = [n - 1] * n
    imgs[p] = r
    imgs[r] = r
    r1, r2, r3 = spares
    imgs[r1], imgs[r2], imgs[r3] = r2, r3, r1
    if not in_wsf_images(imgs):
        raise CaseExhaustionError(
            f"strict-bound witness {format_transformation(imgs)} is not in w_sf({n})"
        )
    # no element is the witness, and the inverse refuses it; as
    # verify_injective checks every element's round trip, no element
    # maps to it either
    gap = bytes(imgs)
    if gap in sg.raw_set:
        raise CaseExhaustionError(
            f"strict-bound witness {format_transformation(imgs)} is an element"
        )
    try:
        t = _undo(gap, colliding)
    except NotInImageError:
        return Transformation(tuple(imgs))
    raise CaseExhaustionError(
        f"strict-bound witness {format_transformation(imgs)} inverts to {format_transformation(t)}"
    )
