"""Transition semigroups generated by transformations, and the three
families of transformations that govern suffix-free DFAs.

For the fixed conventions (initial state 0, empty state n-1):

* b_sf: transformations that can appear at all in the transition
  semigroup of a minimal suffix-free DFA.  No state maps to 0, state
  n-1 is fixed, and the image of 0 under any power never meets the
  image of an interior state under the same power except at n-1.
  One O(n^2) walk decides it: follow 0 t^j beside (interior) t^j until
  0 t^j reaches n-1 (b_sf) or meets the set (not).  A walk of 0 that
  loops among interior states meets an interior state's walk, so that
  of a b_sf map reaches n-1 within n-1 steps.
* v_sf: the b_sf maps that are injective except for collapsing into
  n-1.  Their closure is the largest attainable semigroup for n <= 5.
* w_sf: the b_sf maps that either send 0 to n-1 or send every interior
  state to n-1.  Their closure is the largest attainable semigroup for
  n >= 6 and has exactly (n-1)^(n-2) + n - 2 elements.

Inside the package a map on at most 256 states also travels as a
RawMap: the bytes of its images, so byte q is the image of q.  With
raw_table(g) the product x * g is one x.translate call.  Every closure
is Froidure and Pin's right Cayley graph walk: a breadth-first pass
that right-multiplies a queue of raw maps by a list of tables until
nothing new appears, returning the finds in discovery order.  Two
kernels walk it.  close_generators closes a generator list under its
own tables and skips each product whose word it proves not reduced;
closure(), and so every transition semigroup, runs through it.
close_raw multiplies every map by every table and closes in full.  It
serves the walks the rule does not fit: the search's branch walk, whose
seeds are not its generators and whose refusal the search reads off
the finds, and irreducible_raw, whose closures are too small to gain
from the rule.  A TransitionSemigroup holds raw maps in discovery
order and caches the one pass over them (collisions.scan_columns): its
w_sf bytes and its colliding and focused pairs, read off columns of
the joined maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from typing import TYPE_CHECKING, AbstractSet, Iterable, Iterator, Sequence

from .transform import Transformation

if TYPE_CHECKING:
    from .collisions import PairScan

RawMap = bytes  # a map as its image string: byte q is the image of q
MAX_STATES = 256  # the most states a RawMap can carry, one byte per image


@dataclass(frozen=True)
class TransitionSemigroup:
    """A finite transformation semigroup, its elements kept as raw maps
    in breadth-first discovery order, and the one column pass over them
    (pair_scan), run once and kept."""

    n: int
    raw: Sequence[RawMap]  # closure()'s own list, never mutated: a copy raised its peak
    raw_set: AbstractSet[RawMap]  # the raw maps as a set, never mutated

    @cached_property
    def pair_scan(self) -> "PairScan":
        """The one column pass (collisions.scan_columns): the w_sf bytes
        and the pair scan, run on first access."""
        from .collisions import scan_columns  # collisions imports this module

        return scan_columns(self.raw, self.n)

    @property
    def size(self) -> int:
        return len(self.raw)


_IDENTITY_256 = bytes(range(256))


def raw_table(g: RawMap) -> bytes:
    """The 256-entry bytes.translate table of g, so that
    x.translate(raw_table(g)) is x followed by g.  The padding past
    len(g) is never read: every composed value stays below n."""
    return g + _IDENTITY_256[len(g) :]


def close_raw(
    seeds: Iterable[RawMap],
    tables: Sequence[bytes],
    *,
    seen: set[RawMap] | None = None,
) -> list[RawMap]:
    """The closure kernel: every map reachable from the seeds by right
    multiplication with the tables.

    Seeds come first, duplicates dropped; then the queue of finds is
    walked front to back, each map times each table in table order, so
    the list returned is the breadth-first discovery order.  With seen
    given, every find is added to that set, so the caller keeps the set
    of the closure without building another; a map already in it counts
    as found and is never walked.

    closure() walks with close_generators, which skips the products its
    reduced-word rule proves duplicates.  The rule needs the seeds to be
    exactly the generators, so the search's branch walk stays here: it
    starts with the semiconstants already seen and seeds products of
    them, and runs to the end on a branch leaving the admissible family,
    among the maps that fix n-1 and have no preimage of 0, as its seeds
    and tables do.  irreducible_raw stays here too: its closures are
    small, and routed through the rule they left the below-target search
    no faster."""
    if seen is None:
        seen = set()
    order: list[RawMap] = []
    for s in seeds:
        if s not in seen:
            seen.add(s)
            order.append(s)
    for x in order:  # the list grows while it is walked
        for tb in tables:
            y = x.translate(tb)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def irreducible_raw(letters: Sequence[RawMap]) -> bool:
    """True iff no letter lies in the closure of the others, each closed
    in full by close_raw.  A repeated letter lies in its twin's closure,
    and a lone letter is not in the empty one."""
    tables = [raw_table(g) for g in letters]
    return not any(
        g in close_raw([*letters[:i], *letters[i + 1 :]], tables[:i] + tables[i + 1 :])
        for i, g in enumerate(letters)
    )


# _WINDOWS[k], for k generators: the most letters m <= 8 with k^m <= 256,
# so that the last m letters of a word, in base k, fit in one byte (one
# letter from k = 17 on); no window for one generator, whose closure is
# a chain
_WINDOWS = (0, 0) + tuple(max(m for m in range(1, 9) if k**m <= 256) for k in range(2, 17))
_WINDOWS += (1,) * (257 - len(_WINDOWS))


def close_generators(generators: Sequence[RawMap]) -> tuple[list[RawMap], set[RawMap]]:
    """The closure of generators under their own tables, in close_raw's
    discovery order, with the set of its maps, skipping each product
    whose word is proved not reduced.

    The walk finds maps in shortlex order of their first words over the
    generator list, so a product x * g whose word (x's first word, then
    g's letter) is not reduced, that is not the shortlex-least word of
    its map, gives a map found earlier.  A word with a factor that is
    not reduced is not reduced itself (Froidure and Pin).  The factor
    checked is a window: the last m letters of x's first word, coded in
    base k in one byte per map, then g's letter; m is _WINDOWS[k].
    Which (m+1)-letter words are reduced is read off the maps whose
    first words have m letters: such a map times a letter is new exactly
    when the word is reduced.

    The walk starts plain and looks every 2k^m maps walked, a count past
    every map whose first word has m letters or fewer (at most k^d have
    d).  Once more than k^m maps found are still unwalked, it replays
    the walk so far for the codes and takes up the rule
    (_close_by_rule).  A closure that never has that many pays one
    islice step per map for the rule.  One generator, or more than 256,
    gets no window and a plain close_raw walk."""
    k = len(generators)
    tables = [raw_table(g) for g in generators]
    seen: set[RawMap] = set()
    m = _WINDOWS[k] if k <= 256 else 0
    if not m:
        return close_raw(generators, tables, seen=seen), seen
    size = k**m
    order: list[RawMap] = []
    for g in generators:
        if g not in seen:
            seen.add(g)
            order.append(g)
    walk = iter(order)  # the list grows while it is walked
    walked = 0
    while True:
        for x in islice(walk, 2 * size):
            for tb in tables:
                y = x.translate(tb)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        walked += 2 * size
        if walked >= len(order):
            return order, seen
        if len(order) - walked > size:
            return _close_by_rule(order, seen, walk, generators, tables, m, walked), seen


def _close_by_rule(
    order: list[RawMap],
    seen: set[RawMap],
    walk: Iterator[RawMap],
    generators: Sequence[RawMap],
    tables: list[bytes],
    m: int,
    walked: int,
) -> list[RawMap]:
    """close_generators past its switch: the maps order[:walked] are
    walked plain, and walk, an iterator over order, is past them."""
    k = len(generators)
    size = k**m
    # each map's code by a replay: a seed's is its letter, the first of
    # its copies, and a replayed product is new exactly when it equals
    # the next map found
    codes = bytearray()
    for b, g in enumerate(generators):
        if order[len(codes)] == g:
            codes.append(b)
    found = iter(order[len(codes) :])
    want = next(found, None)
    # rule[c]: for the reduced m-letter word coded c, the table and the
    # new code of each letter that extends it to a reduced word
    rule: list[tuple[tuple[bytes, int], ...]] = [()] * size
    lo, depth = 0, 1  # order[lo:len(codes)] is layer depth
    while lo < walked:
        hi = min(len(codes), walked)
        for i in range(lo, hi):
            x, base = order[i], codes[i] * k % size
            new = []
            for b, tb in enumerate(tables):
                if x.translate(tb) == want:
                    codes.append(base + b)
                    want = next(found, None)
                    new.append((tb, base + b))
            if depth == m:
                rule[codes[i]] = tuple(new)
        lo, depth = hi, depth + 1
    unread = iter(codes)  # the bytearray grows while it is read
    for _ in islice(unread, walked):
        pass
    push = codes.append
    for x, c in zip(walk, unread):
        for tb, code in rule[c]:
            y = x.translate(tb)
            if y not in seen:
                seen.add(y)
                order.append(y)
                push(code)
    return order


def closure(generators: Sequence[Transformation]) -> TransitionSemigroup:
    """Close a non-empty generator list under composition."""
    if not generators:
        raise ValueError("closure needs at least one generator")
    n = generators[0].n
    if n > MAX_STATES:
        raise ValueError(f"closure works on at most {MAX_STATES} states, got {n}")
    for g in generators:
        if g.n != n:
            raise ValueError(f"mixed state counts in generators: {g.n} vs {n}")
    order, members = close_generators([bytes(g.images) for g in generators])
    return TransitionSemigroup(n=n, raw=order, raw_set=members)


def in_bsf_images(images: Sequence[int]) -> bool:
    """b_sf membership of an image sequence (a tuple or a raw byte map):
    no preimage of 0, n-1 fixed, and for every j >= 1 either 0 t^j = n-1
    or 0 t^j differs from q t^j for all interior q.  w = 0t^j and
    S = (interior)t^j move one power at a time until w is n-1 (accept)
    or in S (reject).  No set is built when 0t = n-1."""
    last = len(images) - 1
    if images[last] != last or 0 in images:
        return False
    w = images[0]
    if w == last:
        return True  # most of w_sf
    reach = set(images[1:last])  # the interior's images, one power on
    for _ in range(last - 1):
        if w in reach:
            return False
        w = images[w]
        if w == last:
            return True
        reach = {images[q] for q in reach}
    return False


def in_wsf_images(images: Sequence[int]) -> bool:
    """w_sf membership of an image sequence (a tuple or a raw byte map),
    in three C-level steps: n-1 fixed, 0 not an image, and 0 sent to
    n-1 or exactly n-1 states sent to n-1 (n-1 itself and every
    interior state, as 0 is not).  No b_sf walk is needed: when 0t =
    n-1 it ends at once, and when every interior state maps to n-1 the
    walk of 0 reaches n-1 one power after the interior walks, which
    hold nothing else by then."""
    last = len(images) - 1
    return (
        images[last] == last
        and 0 not in images
        and (images[0] == last or images.count(last) == last)
    )


def in_wsf(t: Transformation) -> bool:
    """Membership in w_sf(n): b_sf and either 0 maps to n-1 or every
    interior state maps to n-1."""
    if t.n < 4:
        raise ValueError("w_sf membership needs n >= 4")
    return in_wsf_images(t.images)


def bsf_images(n: int) -> Iterator[tuple[int, ...]]:
    """All of b_sf(n) as image tuples, by one direct scan in strictly
    increasing lexicographic order, yielded as found.

    Only images with t[n-1] = n-1 and 0 outside the range are scanned,
    which keeps the scan at (n-1)^(n-1) candidates.
    """
    if n < 2:
        raise ValueError("enumeration needs n >= 2")
    last = (n - 1,)
    return filter(in_bsf_images, (prefix + last for prefix in product(range(1, n), repeat=n - 1)))


def enumerate_bsf(n: int) -> tuple[Transformation, ...]:
    """All of b_sf(n) in lexicographic image order: bsf_images' scan,
    each map a Transformation."""
    return tuple(map(Transformation, bsf_images(n)))


def _cycle_and_swap(n: int) -> tuple[Transformation, Transformation]:
    # the letters shared by v_sf's generators and the witness: a cycles
    # the interior states, b swaps 1 and 2; both send 0 to n-1
    a = list(range(n))
    a[0] = n - 1
    for q in range(1, n - 2):
        a[q] = q + 1
    a[n - 2] = 1
    b = list(range(n))
    b[0], b[1], b[2] = n - 1, 2, 1
    return Transformation(tuple(a)), Transformation(tuple(b))


def vsf_generators(n: int) -> tuple[Transformation, ...]:
    """The n generators of v_sf(n): the interior cycle a, the interior
    transposition b, and for each interior p the map sending 0 to p and
    p to n-1."""
    if n < 4:
        raise ValueError("v_sf generators need n >= 4")
    gens = list(_cycle_and_swap(n))
    for p in range(1, n - 1):
        c = list(range(n))
        c[0], c[p] = p, n - 1
        gens.append(Transformation(tuple(c)))
    return tuple(gens)


def wsf_bound(n: int) -> int:
    """The exact size of w_sf(n): (n-1)^(n-2) + n - 2.

    Python integers are unbounded, so the value is exact for any n.
    """
    if n < 2:
        raise ValueError("the bound needs n >= 2")
    return (n - 1) ** (n - 2) + n - 2


def witness_letters(n: int) -> tuple[tuple[str, ...], tuple[Transformation, ...]]:
    """The letters of the witness DFA: a cycles the interior states,
    b swaps states 1 and 2, c folds n-2 onto 1, d collapses {0, 1} to
    n-1, and e sends 0 to 1 and everything else to n-1.  For n = 4 the
    letters a and b coincide and the alphabet is b, c, d, e."""
    if n < 4:
        raise ValueError("witness letters need n >= 4")
    c = list(range(n))
    c[0], c[n - 2] = n - 1, 1
    d = list(range(n))
    d[0], d[1] = n - 1, n - 1
    e = [n - 1] * n
    e[0] = 1
    letters = _cycle_and_swap(n) + tuple(Transformation(tuple(x)) for x in (c, d, e))
    names = ("a", "b", "c", "d", "e")
    if n == 4:
        return names[1:], letters[1:]
    return names, letters


def enumerate_wsf(n: int) -> TransitionSemigroup:
    """w_sf(n) built directly rather than by closing generators:
    (n-1)^(n-2) maps sending 0 and n-1 to n-1 with interior images in
    Q minus {0}, plus n-2 maps sending 0 to an interior state and all
    else to n-1."""
    if n < 4:
        raise ValueError("w_sf enumeration needs n >= 4")
    last = n - 1
    raw = [bytes((last, *mid, last)) for mid in product(range(1, n), repeat=n - 2)]
    raw += [bytes((p,) + (last,) * last) for p in range(1, last)]
    return TransitionSemigroup(n=n, raw=tuple(raw), raw_set=frozenset(raw))


def semiconstant_family(n: int) -> tuple[Transformation, ...]:
    """All maps that send a set S with 0 in S to n-1 and fix the rest,
    one per choice of interior part of S: 2^(n-2) maps in total.  They
    form a semilattice, the product of the maps for S and S' being the
    map for S u S', so the n-1 maps for S = {0} and S = {0, q}, q
    interior, generate the whole family."""
    if n < 4:
        raise ValueError("the semiconstant family needs n >= 4")
    out = []
    interior = list(range(1, n - 1))
    for mask in range(1 << (n - 2)):
        t = list(range(n))
        t[0] = n - 1
        for i, q in enumerate(interior):
            if mask >> i & 1:
                t[q] = n - 1
        out.append(Transformation(tuple(t)))
    return tuple(out)

