"""Exhaustive small-alphabet search for the largest transition
semigroups of suffix-free DFAs.

Semiautomata are enumerated level by level, one letter at a time, up
to pointed isomorphism: state 0 is the initial state and n-1 the empty
state throughout, and two letter sets are one branch when a relabelling
of the interior states 1..n-2 carries one onto the other.  A DFA with
any other initial or empty state is a relabelling of one enumerated
here, so each semiautomaton has exactly one selection, itself, and is
judged once: its letters and the closure they generate must stay
inside the admissible sink family, and the full semiconstant family is
folded into the generated semigroup X.  Stage one then keeps the pool
maps outside X whose colliding and focused pair masks clash with none
of X's, and the branch ends when |X| plus their number cannot reach
the target.  Candidate sets are ints over pool positions, bit i for
the i-th pool map, and pair masks ints over the interior pairs of
collisions.pair_index(n), each map's from collisions.pair_masks.
Neither X's masks nor a pool map's own masks clash: a map t colliding
{p, q} (0t = p, rt = q for an interior r) and focusing it (pt = qt
interior) merges 0 and r at an interior state under t t, so it is not
admissible.  A pool map t therefore passes exactly when no pair t
collides is focused in X and no pair t focuses collides in X.  The
context holds, for each interior pair, the pool maps colliding it and
the pool maps focusing it, so stage one is a few big-int operations:
the pool minus X, minus the colliders of X's focused pairs, minus the
focusers of X's colliding pairs.

Branches are also closed off by a per-pair case analysis.  A consistent
semigroup must, for every interior pair, avoid all of the pair's
colliders or all of its focusers, so each way of choosing sides caps
any extension of the branch by the candidates surviving that choice:
the candidate set minus the chosen colliders and focusers, one AND per
pair.  Only pairs that some candidate collides and some candidate
focuses offer a real choice.  A choice whose survivors sit, together
with the branch, inside the injective-off-sink family or the
collapsing family (no survivor among the pool maps outside it) can only
produce that family itself, which the report lists from the context as a
confirmation; a choice whose survivor count cannot reach the target is
dead.  When every choice falls to one of the two, the branch ends.
The family cutoff applies only while the target is at least the
containing family's size, so a search for smaller semigroups still
walks those branches.  Only a branch left open turns its candidate set
back into maps, in pool order.

A branch left open passes its candidates through one filter, whose
survivors grow the next level: t survives when its one-step products
with the branch, t t and x t, t x for every x in X, stay admissible,
and their masks together with t's and X's still clash nowhere.  Every
such product lies in the closure of X plus t, so the survivors include
every exact addition, every t whose closure with X stays admissible
and consistent.  No closure per survivor is needed to make the level
exact: a survivor that is no addition only adds a semiautomaton to the
next level, which is judged afresh by its own closure, so no verdict
changes.  On every search the test suite and the benchmark run, exact
closures reject none of the survivors.  Judging a branch ends with the
filter.  Only once the whole level is judged does the level loop build
the next one: each survivor, appended to its branch's letters and
canonicalized, is kept when irreducible, unless the level sits at the
letter cap.  Irreducible means that no letter lies in the closure of the
others, each closed in full (semigroup.irreducible_raw).

Levels past the first serve only searches below the known maximum, as
sfsyn search --target and the search-deep benchmark run them; at the
paper's targets every search at n = 4..7 closes at level 1.

The filter reads product rows over pool positions, a product table in
the sense of Froidure and Pin, "Algorithms for computing finite
semigroups" (1997), with one row per member map.  The row of x holds
the pool maps t for which x t and t x are both admissible and, for each
interior pair, the t for which one of the two collides the pair and
the t for which one focuses it; one square row holds the same for t t,
with t's own masks ORed in.  A branch's survivors are its candidates
ANDed with the admissible sets of the square row and of every member's
row, minus, for each pair, the t that are both among its colliders and
among its focusers, each ORed over those rows; the whole pool stands in
for the colliders of a pair X collides.  The product-by-product test
above also kills each t with a product colliding a pair X focuses, the
mirror rule, but given the rows either rule alone kills the same t as
both.  Say y in X collides {p, q} and a product z of t focuses it: for
z = t or z = x t, y t or (y x) t merges 0 with an interior state;
otherwise y t merges or collides {p t, q t}, which t focuses when
z = t t (so t is among that pair's colliders in y's row and its
focusers in the square row) and x focuses when z = t x, a kill of the
mirror rule.  The focusing side is the mirror image.  So the filter,
done a row at a time with the one rule, keeps the same survivors as
the test, and with them every exact addition.  Dropping both rules
changes the survivors.

A row depends on x alone, so it is built the first time some branch
holds x and serves every later branch of the same search_max call.  The
memo is dropped when the call returns.  Rows grow with every member map
the search meets, up to one per admissible map, each 21 ints of 14,929
bits at n = 7, and a memo that outlived the call would make a second
search in one process cheaper than the first, which is all a
command-line run ever gets.  The pool maps' translate tables are built
with the first row and go with the memo, so a search leaving no branch
open, as at every paper target, builds none.

Pointed classes are told apart by a canonical form: the
lexicographically least sorted tuple of letter conjugates over every
permutation of the interior states.  Each letter's least conjugate,
with every labelling that reaches it, comes from a scan of all (n-2)!
labellings: one table per n holds the conjugator of each, constant
data built once and kept, like the context, for letters on 2 to 8
states; a labelling is named by its position there.  A conjugator is
two byte strings, the labelling's translate table and its inverse, so
one routine conjugates a letter by every labelling with two translates
mapped over the table, with no tuple of ints in between, for the letter
forms and level 1 alike.  The sorted tuple must start with the least of
those one-letter forms, so only labellings giving some letter that form
are tried on the whole tuple.  One search_max call keeps a memo of the
one-letter results, shared by all of its canonicalizations and dropped
when it returns; canonicalize starts with an empty one.

An open branch's extensions are canonicalized together, and the work
done on the branch serves all of them.  The least one-letter form of
the branch plus g is the lesser of the branch's least form and g's
form f, so the labellings to try split into the branch's, those giving
some branch letter its least form, and g's own: the branch's alone when
f is larger, g's alone when f is smaller, both on a tie.  Those are
exactly the labellings the whole letter list would try by itself.
Under each labelling, the branch's conjugates are sorted once per
branch, and each g inserts its one conjugate into them; a labelling of
g's own conjugates the branch the first time some g needs it.  So
every extension gets the very form the letter list would get alone,
and a lone letter list is canonicalized the same way, as the branch of
all but its last letter with that letter as its one extension.

Level 1 needs no canonical form at all.  For one letter the form is
the least conjugate, and the pool is closed under conjugation by the
interior permutations (admissibility and being semiconstant are both
kept by a relabelling fixing 0 and n-1).  So in one pass over the
sorted pool the first map not yet seen is the least of its orbit, that
is its own form; its conjugates under the table's (n-2)! labellings
are marked seen, by that routine, and no later map of the orbit is
looked at again.  Each orbit is listed once and no element's form is
computed, as in McKay, "Isomorph-free exhaustive generation" (1998),
and the level is the same sorted tuple the per-letter forms give.  It is rebuilt on
every search_max call and logged at info level once built.

The level at the letter cap needs none either: its survivors are never
expanded, only asked whether some open branch plus one of them is
irreducible.  A survivor lies outside the branch, so it repeats no
letter, and a canonical form only relabels and reorders the same
letters, which keeps irreducibility.

A class travels as its canonical letters, a sorted tuple of raw maps,
and a level is the sorted tuple of those tuples, from initial_level
through the level loop.  Letters become Transformation tuples only
where they leave the search: in canonicalize and in the reported
SemigroupRecord letters.

Reported semigroups are told apart by their size and the same form of
their members.  There pointed and full isomorphism agree.  Such
a semigroup holds every semiconstant.  State 0 is the only state
outside every image: no admissible map has 0 in its image, while the
semiconstant sending only 0 to n-1 has every other state in its image.
And the semiconstant sending every state to n-1 is the only constant
map in it, since every admissible map fixes n-1.  A state permutation
conjugating one such semigroup onto another keeps the states outside
every image and sends constants to constants, so it fixes 0 and n-1.

The statistics count per semiautomaton (see SearchStats).  At info
level each finished level logs its size, its extension candidates (the
survivors summed over its open branches), its census of rejected,
pruned, terminal and open semiautomata, its wall time, and how that
splits into judging its semiautomata (closure through filter) and
building the next level (canonical forms, sort and irreducibility
filter), or, at the letter cap, deciding whether the cap cut anything.
The wall and judging times are kept as SearchStats timing fields
outside the deterministic report; only the level-1 build falls outside
every level's wall time.  The letter-cap warning gives the capped
level's candidates.

Each semiautomaton is closed once, letters and semiconstants together,
and rejected when that closure leaves the admissible family.  Nothing
is lost by not retrying with fewer semiconstants, by this lemma: the
letters close inside b_sf if and only if the letters plus all
semiconstants do.  Proof: the "if" is immediate.  For "only if", a
semiconstant fixes a state or sends it to n-1, and every map fixes
n-1, so under any word w each state lands on n-1 or where w' sends it,
w' being w with its semiconstants deleted; deleting them commutes with
taking powers.  Semiconstants send no state to 0 and no letter has 0
in its image, so w has no preimage of 0.  A merge of 0 with an
interior q at an interior state under w^j is then already a merge
under w'^j, and w' lies in the letters' closure, inside b_sf.  If w'
is empty, 0 w = n-1 and nothing merges.  So w is in b_sf.

That closure walks few elements and few tables.  The semiconstants
form a semilattice S: with e_A the map sending A to n-1 and fixing the
rest, e_A e_B = e_(A u B), so the n-1 maps e_{0} and e_{0, q}, q
interior, generate all 2^(n-2) of them, and S is the same closed set on
every branch.  So S is seen from the start and never walked, the seeds
are the letters and every s t for s in S and each letter t, and the
walk multiplies by the letters and the generators only.  Any
element outside S is a product u t v with t its first letter and u in
S or empty, so u t is a seed, and walking right from it along v reaches
the element; where an intermediate product falls into S, the walk picks
up again at the seed s t' of the next letter t'.  Of the generators,
e_{0} is not walked either: it moves only 0, and no map walked has 0
as an image, so x e_{0} = x for every x the walk meets.  Each product
by it was already seen, so leaving its table out changes neither the
closed set nor the discovery order, and the walk multiplies by the
letters and the n-2 maps e_{0, q}.  The closed set is the same as
closing the letters with all of S, so is every refusal, and the pair
masks are too, as no semiconstant collides or focuses a pair.  The
context keeps the n-2 generators' tables; the closure builds the letters'.

A walk leaving the admissible family is not cut short; the pass over
its finds reads the refusal.  It stays among the (n-1)^(n-1) maps that
fix n-1 and have no preimage of 0, and no level-1 branch leaves, as a
pool map's powers are admissible.  No find is a semiconstant, so an
admitted branch's finds are pool maps, which alone tell whether the
branch lies in a known family: both hold every semiconstant.

Everything here is deterministic: pools, levels, and level merges
are ordered, so two runs produce the same result.  Every tuple in a
level has the same letter count and every letter n bytes, so sorting
the tuples orders them as sorting their concatenated bytes would.
"""
from __future__ import annotations

import json
import logging
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, permutations, repeat
from operator import or_
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

from .collisions import pair_index, pair_masks
from .semigroup import (
    RawMap,
    close_raw,
    closure,
    enumerate_bsf,
    enumerate_wsf,
    irreducible_raw,
    raw_table,
    semiconstant_family,
    vsf_generators,
    witness_letters,
    wsf_bound,
)
from .transform import Transformation

logger = logging.getLogger(__name__)

DEFAULT_MAX_LETTERS = 10


# ------------------------------------------------------------ canonical form


@lru_cache(maxsize=None)
def _conjugators(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The translate tables of every relabelling fixing 0 and n-1, in
    the order of permutations of the interior states, and their
    inverses, each listing for every k the state sent to k.  Constant
    per-n data, built once and kept, like the search context."""
    if not 2 <= n <= 8:
        raise ValueError(f"canonical forms need letters on 2 to 8 states, got {n}")
    perms = [(0, *interior, n - 1) for interior in permutations(range(1, n - 1))]
    tables = tuple(raw_table(bytes(perm)) for perm in perms)
    inverses = tuple(bytes(sorted(range(n), key=perm.__getitem__)) for perm in perms)
    return tables, inverses


def _conjugates(t: RawMap) -> list[RawMap]:
    """t conjugated by every labelling, in the conjugators' order: by
    perm, perm[q] goes to perm[q t], as perm's inverse read through t's
    table and renamed by perm's; no Python frame runs per conjugate."""
    tables, inverses = _conjugators(len(t))
    return list(map(bytes.translate, map(bytes.translate, inverses, repeat(raw_table(t))), tables))


class _LetterForms(dict):
    """Memo, by letter, of its least conjugate under the relabellings
    that fix 0 and n-1 and of the position, in the conjugators' order,
    of every labelling producing it; filled on demand, and lives only as
    long as the call that creates it."""

    def __missing__(self, t: RawMap) -> tuple[RawMap, tuple[int, ...]]:
        images = _conjugates(t)
        least = min(images)
        form = self[t] = least, tuple(compress(range(len(images)), map(least.__eq__, images)))
        return form


def _canonical_extensions(
    letters: Sequence[RawMap], additions: Sequence[RawMap], forms: _LetterForms
) -> Iterator[tuple[RawMap, ...]]:
    """The canonical letters of letters plus g, for each g of additions in
    turn; additions must not be empty.  The branch's least letter form
    and the labellings reaching it are found once; each g then tries the
    branch's labellings when its own form is above that least form, its
    own when below, and both on a tie.  A labelling is its position in
    the per-n conjugators the letter forms scan; the conjugated branch
    is sorted once per labelling, and each g inserts its one conjugate
    into it."""
    tables, inverses = _conjugators(len(additions[0]))
    letter_tables = [raw_table(u) for u in letters]
    bases: dict[int, tuple[RawMap, ...]] = {}
    shared: tuple[int, ...] = ()
    least = None
    if letters:
        least = min(forms[t][0] for t in letters)
        # distinct letters reach a form by disjoint labellings
        shared = tuple(
            i for t in dict.fromkeys(letters) if forms[t][0] == least for i in forms[t][1]
        )
    for g in additions:
        form, own = forms[g]
        if least is None or form < least:
            labellings = own
        elif form == least:
            labellings = shared + own
        else:
            labellings = shared
        best = None
        g_table = raw_table(g)
        for i in labellings:
            table, inverse = tables[i], inverses[i]
            base = bases.get(i)
            if base is None:
                base = bases[i] = tuple(
                    sorted(inverse.translate(u_table).translate(table) for u_table in letter_tables)
                )
            x = inverse.translate(g_table).translate(table)
            at = bisect_left(base, x)
            cand = base[:at] + (x,) + base[at:]
            if best is None or cand < best:
                best = cand
        assert best is not None
        yield best


def _canonical_letters(
    letters: Sequence[RawMap], forms: _LetterForms | None = None
) -> tuple[RawMap, ...]:
    # the last letter is canonicalized as the branch's one extension
    if forms is None:
        forms = _LetterForms()
    return next(_canonical_extensions(letters[:-1], letters[-1:], forms))


def canonicalize(letters: Sequence[Transformation]) -> tuple[Transformation, ...]:
    """Canonical letters of a letter list: sorted, and least over every
    permutation of the interior states, which keeps 0 and n-1 in place,
    and every letter reordering.  Two lists are isomorphic by such a
    relabelling iff their forms are equal.  Idempotent."""
    delta = tuple(letters)
    if not delta:
        raise ValueError("canonicalization needs at least one letter")
    n = delta[0].n
    for t in delta:
        if t.n != n:
            raise ValueError(f"mixed state counts: {t.n} vs {n}")
    canon = _canonical_letters([bytes(t.images) for t in delta])
    return tuple(Transformation(tuple(t)) for t in canon)


# ------------------------------------------------------------ shared context


def _bits(positions: Iterable[int], size: int) -> int:
    """The set of pool positions as an int, bit i for position i, parsed
    from one digit string rather than ORed together bit by bit."""
    digits = bytearray(b"0" * size)
    for i in positions:
        digits[i] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


@dataclass(frozen=True)
class _Context:
    n: int
    pool: tuple[RawMap, ...]
    semiconstants: tuple[RawMap, ...]
    # the tables of the n-2 semiconstants sending 0 and one interior
    # state to n-1; with the one sending 0 alone to n-1 they generate
    # every semiconstant, but that one is never walked: no map walked has
    # 0 as an image, so right multiplication by it fixes every one
    generator_tables: tuple[bytes, ...]
    # keyed by the admissible maps, so its keys are b_sf
    masks: dict[RawMap, tuple[int, int]]
    vsf_elements: AbstractSet[RawMap]
    wsf_elements: AbstractSet[RawMap]
    # candidate sets are ints over pool positions: bit index[t] stands
    # for the pool map t; every find of an admitted branch walk has one
    index: dict[RawMap, int]
    # per interior pair bit b: the pool maps whose colliding mask has b,
    # and the pool maps whose focused mask has b
    coll_by_bit: tuple[int, ...]
    foc_by_bit: tuple[int, ...]
    # every pool position; no pool map's own masks clash (see the module
    # docstring), so any of them may be a candidate
    pool_bits: int
    # the pool maps outside the injective-off-sink family, and those
    # outside the collapsing family
    not_v: int
    not_w: int


@lru_cache(maxsize=4)
def _context(n: int) -> _Context:
    bsf = frozenset(bytes(t.images) for t in enumerate_bsf(n))
    semi = frozenset(bytes(t.images) for t in semiconstant_family(n))
    pool = tuple(sorted(bsf - semi))
    masks = {t: pair_masks(t) for t in bsf}
    vsf = closure(list(vsf_generators(n))).raw_set
    wsf = enumerate_wsf(n).raw_set
    semiconstants = tuple(sorted(semi))
    size = len(pool)
    # every pool map's own masks, one set-bit pass over the pool
    columns = _product_row((masks[t] for t in pool), size, len(pair_index(n).pairs))

    def where(test) -> int:
        return _bits((i for i, t in enumerate(pool) if test(t)), size)

    return _Context(
        n=n,
        pool=pool,
        semiconstants=semiconstants,
        generator_tables=tuple(raw_table(t) for t in semiconstants if t.count(n - 1) == 3),
        masks=masks,
        vsf_elements=vsf,
        wsf_elements=wsf,
        index={t: i for i, t in enumerate(pool)},
        coll_by_bit=columns.coll,
        foc_by_bit=columns.foc,
        pool_bits=(1 << size) - 1,
        not_v=where(lambda t: t not in vsf),
        not_w=where(lambda t: t not in wsf),
    )


# ------------------------------------------------------------ candidates


def _close_all_admissible(
    letters: Sequence[RawMap], ctx: _Context
) -> tuple[set[RawMap], int, int, int] | None:
    """The one closure of a branch: its letters and every semiconstant.
    The semiconstants are seen from the start and never walked; the
    seeds are the letters and each semiconstant times each letter, and
    the walk multiplies by the letters and the n-2 semiconstant
    generators (see the module docstring, also for why the walk is
    bounded).  One pass over the finds, once it ends, returns None, the
    refusal, if one is not admissible, and otherwise the elements, the
    finds' pool positions and the union colliding and focused pair
    masks, which no semiconstant adds to."""
    semis = ctx.semiconstants
    seen = set(semis)
    letter_tables = [raw_table(t) for t in letters]
    products = (map(bytes.translate, semis, repeat(tb)) for tb in letter_tables)
    seeds = [*letters, *chain.from_iterable(products)]
    found = close_raw(seeds, [*letter_tables, *ctx.generator_tables], seen=seen)
    own = coll = foc = 0
    masks, index = ctx.masks, ctx.index
    for y in found:
        m = masks.get(y)  # keyed by the admissible maps
        if m is None:
            return None
        coll |= m[0]
        foc |= m[1]
        own |= 1 << index[y]
    return seen, own, coll, foc


def _candidate_bits(own: int, coll: int, foc: int, ctx: _Context) -> int:
    """Stage one as a set of pool positions: the pool maps outside the
    branch (own) whose pair masks clash with none of the branch's."""
    killed = own
    for b, (colliders, focusers) in enumerate(zip(ctx.coll_by_bit, ctx.foc_by_bit)):
        if (foc >> b) & 1:
            killed |= colliders
        if (coll >> b) & 1:
            killed |= focusers
    return ctx.pool_bits & ~killed


def _pool_maps(bits: int, ctx: _Context) -> list[RawMap]:
    """The pool maps of a candidate set, in pool order."""
    return list(compress(ctx.pool, map("1".__eq__, bin(bits)[:1:-1])))


class _ProductRow(NamedTuple):
    """One-step products with every pool map t, as sets of pool
    positions: ok holds the t whose products are all admissible, and
    coll[b] / foc[b] the t for which some product collides / focuses
    interior pair bit b."""

    ok: int
    coll: tuple[int, ...]
    foc: tuple[int, ...]


def _product_row(
    found: Iterable[tuple[int, int] | None], size: int, pair_count: int
) -> _ProductRow:
    """A row from the union pair masks of each pool map's products, in
    pool order (size maps, pair_count interior pairs), None where some
    product is not admissible.  Fed the pool maps' own masks, it gives
    the context's per-pair columns."""
    pairs = range(pair_count)
    ok: list[int] = []
    coll: list[list[int]] = [[] for _ in pairs]
    foc: list[list[int]] = [[] for _ in pairs]
    for i, masks in enumerate(found):
        if masks is None:
            continue
        ok.append(i)
        c, f = masks
        while c:  # one step per set bit
            low = c & -c
            coll[low.bit_length() - 1].append(i)
            c ^= low
        while f:
            low = f & -f
            foc[low.bit_length() - 1].append(i)
            f ^= low
    return _ProductRow(
        _bits(ok, size),
        tuple(_bits(p, size) for p in coll),
        tuple(_bits(p, size) for p in foc),
    )


class _ProductRows(dict):
    """Memo of the one-step product rows of one search_max call: by
    member map x, the products x t and t x with every pool map t, filled
    on demand; and the square row, t t with t's own masks ORed in.  The
    pool maps' translate tables are built with the first row and kept
    with the rows.  Lives only as long as the call that creates it."""

    def __init__(self, ctx: _Context) -> None:
        super().__init__()
        self.ctx = ctx

    @cached_property
    def pool_tables(self) -> tuple[bytes, ...]:
        return tuple(map(raw_table, self.ctx.pool))

    def _row(self, products) -> _ProductRow:
        # products: (pool map, its table) -> its products' union masks, or None
        ctx = self.ctx
        found = map(products, ctx.pool, self.pool_tables)
        return _product_row(found, len(ctx.pool), len(ctx.coll_by_bit))

    def __missing__(self, x: RawMap) -> _ProductRow:
        masks = self.ctx.masks
        x_table = raw_table(x)

        def both(t: RawMap, t_table: bytes) -> tuple[int, int] | None:
            left = masks.get(x.translate(t_table))  # keyed by the admissible maps
            right = masks.get(t.translate(x_table))
            if left is None or right is None:
                return None
            return left[0] | right[0], left[1] | right[1]

        row = self[x] = self._row(both)
        return row

    @cached_property
    def square(self) -> _ProductRow:
        masks = self.ctx.masks

        def own(t: RawMap, t_table: bytes) -> tuple[int, int] | None:
            m = masks.get(t.translate(t_table))
            if m is None:
                return None
            c, f = masks[t]
            return c | m[0], f | m[1]

        return self._row(own)


def _one_step_filter(cand: int, members: AbstractSet[RawMap], coll: int, rows: _ProductRows) -> int:
    """The candidates t whose one-step products with the branch, t t
    and x t, t x for every member x, all stay admissible, with masks
    that together with t's and the branch's still clash nowhere.  Each
    product lies in the closure of the branch plus t, so every exact
    addition survives.  A pair the branch collides counts as collided by
    every t; the mirror rule for the pairs it focuses would kill no
    further t (see the module docstring), so it is left out."""
    square = rows.square
    member_rows = [rows[x] for x in members]
    ok = cand & square.ok
    for row in member_rows:
        ok &= row.ok
    killed = 0
    for b in range(len(square.coll)):
        focusers = reduce(or_, (r.foc[b] for r in member_rows), square.foc[b])
        if coll >> b & 1:
            killed |= focusers
        else:
            killed |= focusers & reduce(or_, (r.coll[b] for r in member_rows), square.coll[b])
    return ok & ~killed


# ------------------------------------------------------------ case analysis


def _leaf_verdict(
    cand: int, own: int, size: int, target: int, use_count: bool, ctx: _Context
) -> str | None:
    """Case analysis over the interior pairs: a consistent semigroup
    omits, for each pair, all of its colliders or all of its focusers,
    so every branch outcome lives inside one of the side-choices.  cand
    is the branch's candidate set, own its pool maps and size its member
    count.  Returns "terminal" when every choice is confined to one of
    the two known families or (with use_count) cannot reach the target,
    and at least one is confined; "pruned" when the count alone closes
    every choice; and None when some choice stays open."""
    # a branch confined to one of the two families is only allowed to
    # end there when no proper subset of the family could still matter;
    # every semiconstant lies in both, so its pool maps decide
    in_v = target >= len(ctx.vsf_elements) and not own & ctx.not_v
    in_w = target >= len(ctx.wsf_elements) and not own & ctx.not_w
    need = target - size
    # the survivors of every side choice; a pair that no candidate
    # collides, or that none focuses, offers no choice
    survivors = [cand]
    for colliders, focusers in zip(ctx.coll_by_bit, ctx.foc_by_bit):
        if cand & colliders and cand & focusers:
            no_colliders = cand & ~colliders
            no_focusers = cand & ~focusers
            survivors = [s & keep for s in survivors for keep in (no_colliders, no_focusers)]
    saw_family = False
    for surv in survivors:
        if (in_v and not surv & ctx.not_v) or (in_w and not surv & ctx.not_w):
            saw_family = True
            continue
        if use_count and surv.bit_count() < need:
            continue
        return None
    return "terminal" if saw_family else "pruned"


# ------------------------------------------------------------ level expansion


def initial_level(n: int) -> tuple[tuple[RawMap, ...], ...]:
    """A1: the sorted canonical letters of the single-letter semiautomata,
    one per class of the non-semiconstant admissible transformations
    under permutation of the interior states.  One pass over the sorted
    pool lists them an orbit at a time, conjugating by the whole
    conjugator table: the pool is closed under those relabellings, so
    the first map not yet seen is its orbit's least, its canonical form
    (see the module docstring)."""
    seen: set[RawMap] = set()
    level = []
    for t in _context(n).pool:
        if t not in seen:
            level.append((t,))
            seen.update(_conjugates(t))
    return tuple(level)


# ------------------------------------------------------------ search proper


@dataclass(frozen=True)
class SemigroupRecord:
    """One semigroup reported by the search: its identity class, size,
    and a generating letter list whose DFA realizes it."""

    kind: str  # "vsf", "wsf", or "other"
    size: int
    letters: tuple[Transformation, ...]
    level: int | None = None  # None for a confirmation, not found by descent


@dataclass(frozen=True)
class SearchStats:
    """The counts of one search, each per semiautomaton judged.

    visited: the semiautomata judged, the sum of level_sizes.
    pruned: the semiautomata closed (rejected, pruned or terminal) whose
    closure did not reach the target, so that reported no other.
    selections: always equals visited, as each semiautomaton is its own
    one selection (see the module docstring).
    rejected_selections: the semiautomata whose closure left the
    admissible family, read once the walk ends; never a level-1 branch,
    but 4 and 229 in the tests' two-letter sweeps at n = 4 and 5.
    terminal_selections: the branches the case analysis ended with some
    side choice confined to one of the two known families.
    pruned_selections: the branches the count bound or the case
    analysis ended on counts alone.
    extensions: the semiautomata past level 1.
    level_sizes: the number of semiautomata on each level, from level 1.
    capped: whether the letter cap stopped the search with some open
    branch plus one of its candidates irreducible.
    wall_time_s: the seconds of the call after the per-n context is
    built.
    level_wall_s, level_judge_s: per level, from level 1, its wall time
    and the part of it spent judging its semiautomata (closure through
    filter), as the info log gives them.  The rest of a level's wall
    time records its others and builds the next level, or at the letter
    cap decides whether the cap cut anything, so the levels' wall times
    cover the call but for the level-1 build.

    The three timing fields are in SearchResult.timings, not to_json().

    selections carries no information of its own; it is kept because
    the benchmark reads it.
    """

    visited: int
    pruned: int
    selections: int
    rejected_selections: int
    terminal_selections: int
    pruned_selections: int
    extensions: int
    level_sizes: tuple[int, ...]
    capped: bool
    wall_time_s: float
    level_wall_s: tuple[float, ...]
    level_judge_s: tuple[float, ...]


_TIMING_FIELDS = ("wall_time_s", "level_wall_s", "level_judge_s")  # kept out of to_json


def _field_values(obj) -> dict:
    # a dataclass's fields by name, in declaration order
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one bounded search run.

    others lists every semigroup of size >= target that is neither the
    injective-off-sink family nor the collapsing family; uniqueness of
    the known maximum holds exactly when that list is empty and the
    exploration was not cut off by the letter cap.
    """

    n: int
    target: int
    max_size_found: int
    others: tuple[SemigroupRecord, ...]
    confirmations: tuple[SemigroupRecord, ...]
    stats: SearchStats

    @property
    def uniqueness_confirmed(self) -> bool:
        return bool(self.confirmations) and not self.others and not self.stats.capped

    passed = uniqueness_confirmed  # the verdict, under a report's name

    @property
    def timings(self) -> dict[str, float]:
        # each level's wall time and the part spent judging, then the call's
        stats, timings = self.stats, {}
        for k, (wall, judge) in enumerate(zip(stats.level_wall_s, stats.level_judge_s), start=1):
            timings[f"level {k}"], timings[f"level {k} judging"] = wall, judge
        return {**timings, "search": stats.wall_time_s}

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    def to_json(self) -> dict:
        def record(r: SemigroupRecord) -> dict:
            return {**_field_values(r), "letters": [list(t.images) for t in r.letters]}

        stats = {k: v for k, v in _field_values(self.stats).items() if k not in _TIMING_FIELDS}
        stats["level_sizes"] = list(stats["level_sizes"])
        return {
            "n": self.n,
            "target": self.target,
            "max_size_found": self.max_size_found,
            "uniqueness_confirmed": self.uniqueness_confirmed,
            "others": [record(r) for r in self.others],
            "confirmations": [record(r) for r in self.confirmations],
            "statistics": stats,
        }


def _judge(
    letters: tuple[RawMap, ...], target: int, prune: bool, rows: _ProductRows
) -> tuple[str, int, set[RawMap] | None]:
    """Judge one semiautomaton, given by its canonical letters, with
    initial state 0 and empty state n-1: its outcome, its survivors and
    its members.  The outcome is "rejected" when its closure leaves the
    admissible family, "pruned" or "terminal" when the count bound or
    the case analysis ends the branch, and "open" otherwise.  survivors
    is an open branch's filtered candidate set, 0 for any other.
    members is the closure when it reaches the target, None otherwise."""
    ctx = rows.ctx
    # the one closure of the branch; by the semiconstant lemma in the
    # module docstring a refusal here means the letters alone already
    # leave the admissible family
    closed = _close_all_admissible(letters, ctx)
    if closed is None:
        return "rejected", 0, None
    members, own, coll, foc = closed
    assert not coll & foc, "pair both colliding and focused survived the closure"
    reached = members if len(members) >= target else None
    cand = _candidate_bits(own, coll, foc, ctx)
    if prune and len(members) + cand.bit_count() < target:
        return "pruned", 0, reached
    outcome = _leaf_verdict(cand, own, len(members), target, prune, ctx)
    if outcome is not None:
        return outcome, 0, reached
    return "open", _one_step_filter(cand, members, coll, rows), reached


def search_max(
    n: int,
    target: int | None = None,
    *,
    max_letters: int = DEFAULT_MAX_LETTERS,
    prune: bool = True,
) -> SearchResult:
    """Search every suffix-free DFA shape on n states for transition
    semigroups of at least the target size.

    Levels of canonical semiautomata, with initial state 0 and empty
    state n-1, grow one letter at a time; a level is the sorted tuple of
    their canonical letters.  Each semiautomaton is judged once; each one
    left open contributes the candidates passing the one-step product
    filter, a superset of its exact additions, as the next level.  The
    level at max_letters is judged and filtered but not expanded: the
    search stops there, capped when some open branch plus one of its
    candidates is irreducible.  The two
    known maximal families reaching the target are reported as
    confirmations, read off the context's family sets, and the search
    reports any semigroup at or above the target that is neither of
    them.  With prune=False no branch is cut for its count, only by
    the family cutoff, and the admissible space is walked in full,
    which is only tractable for n=4.
    """
    if not 4 <= n <= 7:
        raise ValueError(f"the exhaustive search supports 4 <= n <= 7, got {n}")
    if target is not None and target < 1:
        raise ValueError("target must be positive")
    if max_letters < 1:
        raise ValueError("max_letters must be positive")
    ctx = _context(n)
    if target is None:
        target = max(len(ctx.vsf_elements), wsf_bound(n))
    started = time.perf_counter()
    level_index = 1
    level = initial_level(n)
    logger.info(
        "level 1 built: %d classes of %d pool maps in %.3f s",
        len(level),
        len(ctx.pool),
        time.perf_counter() - started,
    )

    pruned = 0
    outcomes: Counter = Counter()
    level_sizes: list[int] = []
    level_wall_s: list[float] = []
    level_judge_s: list[float] = []
    # keyed by size and the members' canonical tuple
    others: dict[tuple[int, tuple[RawMap, ...]], SemigroupRecord] = {}
    unexplored = 0
    # letter forms shared by every canonicalization of this call, and
    # product rows shared by every filtered branch, for this call only,
    # so no later call starts warm
    forms = _LetterForms()
    rows = _ProductRows(ctx)

    while level:
        level_started = time.perf_counter()
        level_sizes.append(len(level))
        verdicts = [_judge(letters, target, prune, rows) for letters in level]
        judged = time.perf_counter()

        census = Counter(outcome for outcome, _, _ in verdicts)
        outcomes.update(census)
        # the filtered (branch, letter) pairs, before canonical forms merge them
        candidates = sum(survivors.bit_count() for _, survivors, _ in verdicts)
        for raw_letters, (outcome, _, members) in zip(level, verdicts):
            if members is None:
                if outcome != "open":
                    pruned += 1
                continue
            if members in (ctx.vsf_elements, ctx.wsf_elements):
                continue  # the known families are the confirmations
            key = (len(members), _canonical_letters(sorted(members), forms))
            if key not in others:
                letters = tuple(Transformation(tuple(t)) for t in raw_letters)
                others[key] = SemigroupRecord(
                    kind="other", size=len(members), letters=letters, level=level_index
                )

        # the open branches with their survivors, in level and pool order
        branches = (
            (letters, _pool_maps(survivors, ctx))
            for letters, (_, survivors, _) in zip(level, verdicts)
            if survivors
        )
        if level_index == max_letters:
            # the level past the cap is not built: one irreducible
            # candidate is enough to know it is not empty, and needs no
            # canonical form (see the module docstring)
            if any(irreducible_raw((*letters, g)) for letters, maps in branches for g in maps):
                unexplored = candidates
            level = ()
        else:
            next_level: set[tuple[RawMap, ...]] = set()
            for letters, maps in branches:
                next_level.update(_canonical_extensions(letters, maps, forms))
            level = tuple(letters for letters in sorted(next_level) if irreducible_raw(letters))
        level_wall_s.append(time.perf_counter() - level_started)
        level_judge_s.append(judged - level_started)
        logger.info(
            "level %d: %d semiautomata, %d extension candidates"
            " (%d rejected, %d pruned, %d terminal, %d open) in %.3f s"
            " (judging %.3f s, next level %.3f s)",
            level_index,
            level_sizes[-1],
            candidates,
            census["rejected"],
            census["pruned"],
            census["terminal"],
            census["open"],
            level_wall_s[-1],
            level_judge_s[-1],
            level_wall_s[-1] - level_judge_s[-1],
        )
        level_index += 1

    capped = unexplored > 0
    if capped:
        logger.warning(
            "letter cap %d reached with %d candidates unexplored; "
            "the uniqueness conclusion is not established",
            max_letters,
            unexplored,
        )
    # the known maximal families as the context holds them; the test
    # suite checks that these letters close to exactly those sets
    confirmations = tuple(
        SemigroupRecord(kind=kind, size=len(family), letters=letters)
        for kind, family, letters in (
            ("vsf", ctx.vsf_elements, vsf_generators(n)),
            ("wsf", ctx.wsf_elements, witness_letters(n)[1]),
        )
        if len(family) >= target
    )
    other_records = tuple(others[k] for k in sorted(others))
    sizes = [r.size for r in confirmations] + [r.size for r in other_records]
    return SearchResult(
        n=n,
        target=target,
        max_size_found=max(sizes, default=0),
        others=other_records,
        confirmations=confirmations,
        stats=SearchStats(
            visited=sum(level_sizes),
            pruned=pruned,
            selections=sum(level_sizes),
            rejected_selections=outcomes["rejected"],
            terminal_selections=outcomes["terminal"],
            pruned_selections=outcomes["pruned"],
            extensions=sum(level_sizes[1:]),
            level_sizes=tuple(level_sizes),
            capped=capped,
            wall_time_s=time.perf_counter() - started,
            level_wall_s=tuple(level_wall_s),
            level_judge_s=tuple(level_judge_s),
        ),
    )
