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
the target.

Branches are also closed off by a per-pair case analysis.  A consistent
semigroup must, for every interior pair, avoid all of the pair's
colliders or all of its focusers, so each way of choosing sides caps
any extension of the branch by the candidates surviving that choice.
A choice whose survivors sit, together with the branch, inside the
injective-off-sink family or the collapsing family can only produce
that family itself, which is confirmed directly from its known
generators; a choice whose survivor count cannot reach the target is
dead.  When every choice falls to one of the two, the branch ends.
The family cutoff applies only while the target is at least the
containing family's size, so a search for smaller semigroups still
walks those branches.

A branch left open passes its candidates through one filter, and each
survivor, appended to the letters and canonicalized, joins the next
level: t survives when its one-step products with the branch, t t and
x t, t x for every x in X, stay admissible, and their masks together
with t's and X's still clash nowhere.  Every such product lies in the
closure of X plus t, so the survivors include every exact addition,
every t whose closure with X stays admissible and consistent.  No
closure per survivor is needed to make the level exact: a survivor
that is no addition only adds a semiautomaton to the next level, which
is judged afresh by its own closure, so no verdict changes.  On every
search the test suite and the benchmark run, exact closures reject
none of the survivors.

Pointed classes are told apart by a canonical form: the
lexicographically least sorted tuple of letter conjugates over every
permutation of the interior states.  It is computed without scanning
the (n-2)! permutations.  A branch-and-bound labelling finds each
letter's least conjugate together with every labelling that reaches
it; the sorted tuple must start with the least of those one-letter
forms, so only labellings giving some letter that form are tried on
the whole tuple.  One search_max call keeps a memo of the one-letter
results, shared by all of its canonicalizations and dropped when it
returns; canonicalize, checkpoint parsing and worker processes each
start with an empty one, so no call ever starts warm.

Reported semigroups are told apart by the same form of their members,
and there pointed and full isomorphism agree.  Such a semigroup holds
every semiconstant.  State 0 is the only state outside every image:
no admissible map has 0 in its image, while the semiconstant sending
only 0 to n-1 has every other state in its image.  And the
semiconstant sending every state to n-1 is the only constant map in
it, since every admissible map fixes n-1.  A state permutation
conjugating one such semigroup onto another keeps the states outside
every image and sends constants to constants, so it fixes 0 and n-1.

The statistics count per semiautomaton: selections equals visited,
rejected_selections counts closures refused for leaving the admissible
family, and terminal_selections and pruned_selections count branches
the case analysis or the count bound ended.

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

Everything here is deterministic: pools, levels, and level merges
are ordered, so two runs (any thread count) produce the same result.
"""
from __future__ import annotations

import logging
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .collisions import colliding_pairs, focused_triples, verify_suffix_free_consistency
from .dfa import Dfa, Semiautomaton, is_suffix_free
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


@dataclass(frozen=True)
class CanonicalSemiautomaton:
    """A semiautomaton in canonical form: the letter list that is
    lexicographically least over every permutation of the interior
    states 1..n-2 combined with every letter reordering.  Two
    semiautomata are isomorphic by a relabelling fixing 0 and n-1 iff
    their fingerprints are equal."""

    n: int
    letters: tuple[Transformation, ...]
    fingerprint: bytes


def _conjugate(t: RawMap, perm: Sequence[int]) -> RawMap:
    out = bytearray(len(t))
    for q, img in enumerate(t):
        out[perm[q]] = perm[img]
    return bytes(out)


def _letter_form(t: RawMap) -> tuple[RawMap, tuple[tuple[int, ...], ...]]:
    """The least conjugate of one letter under the relabellings that fix
    0 and n-1, with every such labelling (a perm in _conjugate's sense)
    that produces it.

    States 0 and n-1 keep their names; the interior names 1..n-2 go out
    in output order: position k reads the image of the state named k.
    That state is either already named, as 0 or an earlier image, or a
    free choice among the unnamed interior states, of which only those
    with the least output are tried; an unnamed image must take the
    next free name, since any larger one loses at this position.
    Position n-1 reads the image of n-1.  Branches whose output prefix
    exceeds the incumbent's are cut, and the labellings that tie the
    minimum form a coset of the letter's pointed automorphism group."""
    n = len(t)
    name = [-1] * n  # name[q]: the name given to state q, -1 while unnamed
    state = [0] * n  # state[k]: the state carrying name k
    name[0], name[n - 1], state[n - 1] = 0, n - 1, n - 1
    out = bytearray(n)
    best = b""
    labellings: list[tuple[int, ...]] = []

    def walk(k: int, m: int, tight: bool) -> None:
        # names 0..m-1 are given out; tight means out[:k] == best[:k]
        nonlocal best, labellings
        if k == n:
            if tight:
                labellings.append(tuple(name))
            else:
                best = bytes(out)
                labellings = [tuple(name)]
            return
        if k < m or k == n - 1:
            choices = [state[k]]
        else:
            # a fresh state's output is the name of an earlier image, its
            # own name k, or the next one; only the least can win
            rank = {
                q: name[t[q]] if name[t[q]] >= 0 else k + (t[q] != q)
                for q in range(n)
                if name[q] < 0
            }
            low = min(rank.values())
            choices = [q for q, r in rank.items() if r == low]
        for s in choices:
            if k == m < n - 1:
                name[s] = k
                state[k] = s
                m1 = k + 1
            else:
                m1 = m
            img = t[s]
            v = name[img]
            if v < 0:
                v = name[img] = m1
                state[m1] = img
                m2 = m1 + 1
            else:
                m2 = m1
            if not (tight and v > best[k]):
                out[k] = v
                walk(k + 1, m2, tight and v == best[k])
                # a branch below the incumbent always reaches a leaf and
                # replaces it, so from here on the prefix ties it
                tight = True
            if m2 > m1:
                name[img] = -1
            if m1 > m:
                name[s] = -1

    walk(0, 1, False)
    return best, tuple(labellings)


class _LetterForms(dict):
    """Memo of _letter_form by letter, filled on demand; lives only as
    long as the call that creates it."""

    def __missing__(self, t: RawMap) -> tuple[RawMap, tuple[tuple[int, ...], ...]]:
        form = self[t] = _letter_form(t)
        return form


def _canonical_letters(
    letters: Sequence[RawMap], forms: _LetterForms | None = None
) -> tuple[RawMap, ...]:
    # the least sorted conjugate tuple starts with the least one-letter
    # form over the letters, so only labellings giving some letter that
    # form can win
    if forms is None:
        forms = _LetterForms()
    least = min(forms[t][0] for t in letters)
    distinct = dict.fromkeys(letters)
    if len(distinct) == 1:
        return (least,) * len(letters)
    best: list[RawMap] | None = None
    for t in distinct:
        form, labellings = forms[t]
        if form != least:
            continue
        for perm in labellings:
            cand = sorted(_conjugate(u, perm) for u in letters)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return tuple(best)


def _fingerprint(letters: Sequence[RawMap], n: int) -> bytes:
    return bytes([n, len(letters)]) + b"".join(letters)


def canonicalize(sa: Semiautomaton | Sequence[Transformation]) -> CanonicalSemiautomaton:
    """Canonical form under permutation of the interior states, which
    keeps 0 and n-1 in place, and letter reordering.

    Accepts a Semiautomaton or a plain sequence of letter
    transformations.  Idempotent, and invariant under relabeling of
    the interior states.
    """
    delta = sa.delta if isinstance(sa, Semiautomaton) else tuple(sa)
    if not delta:
        raise ValueError("canonicalization needs at least one letter")
    n = delta[0].n
    for t in delta:
        if t.n != n:
            raise ValueError(f"mixed state counts: {t.n} vs {n}")
    canon = _canonical_letters([bytes(t.images) for t in delta])
    return CanonicalSemiautomaton(
        n=n,
        letters=tuple(Transformation(tuple(t)) for t in canon),
        fingerprint=_fingerprint(canon, n),
    )


def _decode_fp(fp: bytes) -> tuple[int, tuple[RawMap, ...]]:
    if len(fp) < 2:
        raise ValueError("fingerprint too short")
    n, count = fp[0], fp[1]
    body = fp[2:]
    if len(body) != n * count or count == 0:
        raise ValueError(f"fingerprint length {len(fp)} does not match n={n}, letters={count}")
    letters = tuple(body[i * n : (i + 1) * n] for i in range(count))
    for t in letters:
        if any(v >= n for v in t):
            raise ValueError("fingerprint contains an out-of-range state")
    return n, letters


def parse_fingerprint(fp: bytes) -> CanonicalSemiautomaton:
    """Rebuild a canonical semiautomaton from its fingerprint bytes.

    The encoding is [n, letter count] followed by the concatenated
    image tables, so the fingerprint alone carries the whole object.
    Rejects bytes that do not decode to a canonical form.
    """
    n, letters = _decode_fp(fp)
    if _canonical_letters(letters) != letters:
        raise ValueError("fingerprint is not in canonical form")
    return CanonicalSemiautomaton(
        n=n,
        letters=tuple(Transformation(tuple(t)) for t in letters),
        fingerprint=bytes(fp),
    )


# ------------------------------------------------------------ pair machinery


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    return {pair: 1 << i for i, pair in enumerate(combinations(range(1, n - 1), 2))}


def _masks_of(t: Sequence[int], pair_bit: dict[tuple[int, int], int]) -> tuple[int, int]:
    # the collisions module's pair rules as bitmasks over the interior pairs
    coll = 0
    for pair in colliding_pairs(t):
        coll |= pair_bit[pair]
    foc = 0
    for p, q, _ in focused_triples(t):
        foc |= pair_bit[(p, q)]
    return coll, foc


# ------------------------------------------------------------ shared context


@dataclass(frozen=True)
class _Context:
    n: int
    pair_bit: dict[tuple[int, int], int]
    all_pairs: int
    pool: tuple[RawMap, ...]
    semiconstants: tuple[RawMap, ...]
    bsf_set: frozenset[RawMap]
    masks: dict[RawMap, tuple[int, int]]
    tables: dict[RawMap, bytes]
    vsf_elements: frozenset[RawMap]
    wsf_elements: frozenset[RawMap]


@lru_cache(maxsize=4)
def _context(n: int) -> _Context:
    pair_bit = _pair_bits(n)
    bsf = frozenset(bytes(t.images) for t in enumerate_bsf(n))
    semi = frozenset(bytes(t.images) for t in semiconstant_family(n))
    pool = tuple(sorted(bsf - semi))
    return _Context(
        n=n,
        pair_bit=pair_bit,
        all_pairs=(1 << len(pair_bit)) - 1,
        pool=pool,
        semiconstants=tuple(sorted(semi)),
        bsf_set=bsf,
        masks={t: _masks_of(t, pair_bit) for t in bsf},
        tables={t: raw_table(t) for t in bsf},
        vsf_elements=closure(list(vsf_generators(n))).raw_set,
        wsf_elements=enumerate_wsf(n).raw_set,
    )


# ------------------------------------------------------------ candidates


def _close_all_admissible(
    seeds: Iterable[RawMap], tables: Sequence[bytes], ctx: _Context
) -> tuple[frozenset[RawMap], int, int] | None:
    """Close the seeds under the tables, refusing the moment an element
    leaves the admissible sink family.  Returns the elements plus the
    union colliding and focused pair masks, or None on refusal."""
    found = close_raw(seeds, tables, within=ctx.bsf_set)
    if found is None:
        return None
    coll = foc = 0
    masks = ctx.masks
    for y in found:
        c, f = masks[y]
        coll |= c
        foc |= f
    return frozenset(found), coll, foc


def _mask_candidates(members: frozenset[RawMap], coll: int, foc: int, ctx: _Context) -> list[RawMap]:
    """Stage one: the pool maps outside the branch whose own pair masks
    clash with none of the branch's, with no closure work at all."""
    masks = ctx.masks
    out = []
    for t in ctx.pool:
        if t in members:
            continue
        tc, tf = masks[t]
        if not (coll | tc) & (foc | tf):
            out.append(t)
    return out


def _one_step_filter(
    candidates: Sequence[RawMap], members: frozenset[RawMap], coll: int, foc: int, ctx: _Context
) -> list[RawMap]:
    """The candidates t whose one-step products with the branch, t t
    and x t, t x for every member x, all stay admissible, with masks
    that together with t's and the branch's still clash nowhere.  Each
    product lies in the closure of the branch plus t, so every exact
    addition survives."""
    masks = ctx.masks
    tables = ctx.tables
    mem = [(x, tables[x]) for x in members]

    def products(t: RawMap, t_table: bytes) -> Iterable[RawMap]:
        yield t.translate(t_table)
        for x, x_table in mem:
            yield x.translate(t_table)
            yield t.translate(x_table)

    out = []
    for t in candidates:
        c, f = masks[t]
        for y in products(t, tables[t]):
            m = masks.get(y)  # keyed by the admissible maps
            if m is None:
                break
            c |= m[0]
            f |= m[1]
        else:
            if not (coll | c) & (foc | f):
                out.append(t)
    return out


# ------------------------------------------------------------ case analysis


def _leaf_verdict(
    x_size: int,
    x_in_vsf: bool,
    x_in_wsf: bool,
    sigs: Counter,
    n_bits: int,
    target: int,
    vsf_closed: bool,
    wsf_closed: bool,
    use_count: bool,
) -> str | None:
    """Case analysis over the interior pairs: a consistent semigroup
    omits, for each pair, all of its colliders or all of its focusers,
    so every branch outcome lives inside one of the side-choices.
    sigs counts candidates by (colliding mask, focused mask, in the
    injective-off-sink family, in the collapsing family).  Returns
    "terminal" when every choice is confined to a directly confirmed
    family or (with use_count) cannot reach the target, "pruned" when
    the count alone closes every choice, and None when some choice
    stays open."""
    has_c = 0
    has_f = 0
    for c, f, _, _ in sigs:
        has_c |= c
        has_f |= f
    free = [1 << b for b in range(n_bits) if (has_c >> b) & 1 and (has_f >> b) & 1]
    saw_family = False
    for choice in range(1 << len(free)):
        omit_c = 0
        omit_f = 0
        for k, bit in enumerate(free):
            if (choice >> k) & 1:
                omit_c |= bit
            else:
                omit_f |= bit
        count = 0
        all_v = x_in_vsf
        all_w = x_in_wsf
        for (c, f, in_v, in_w), mult in sigs.items():
            if c & omit_c or f & omit_f:
                continue
            count += mult
            all_v = all_v and in_v
            all_w = all_w and in_w
        if (vsf_closed and all_v) or (wsf_closed and all_w):
            saw_family = True
            continue
        if use_count and x_size + count < target:
            continue
        return None
    return "terminal" if saw_family else "pruned"


# ------------------------------------------------------------ level expansion


def initial_level(n: int) -> tuple[CanonicalSemiautomaton, ...]:
    """A1: the single-letter semiautomata, one per class of the
    non-semiconstant admissible transformations under permutation of
    the interior states."""
    ctx = _context(n)
    seen: dict[bytes, tuple[RawMap, ...]] = {}
    for g in ctx.pool:
        canon = _canonical_letters([g])
        seen.setdefault(_fingerprint(canon, n), canon)
    return tuple(
        CanonicalSemiautomaton(
            n=n,
            letters=tuple(Transformation(tuple(t)) for t in seen[fp]),
            fingerprint=fp,
        )
        for fp in sorted(seen)
    )


# ------------------------------------------------------------ search proper


@dataclass(frozen=True)
class SemigroupRecord:
    """One semigroup reported by the search: its identity class, size,
    and a generating letter list whose DFA realizes it."""

    kind: str  # "vsf", "wsf", or "other"
    size: int
    letters: tuple[Transformation, ...]
    level: int | None = None  # None when confirmed directly, not found by descent


@dataclass(frozen=True)
class SearchStats:
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
    def maximal_semigroups(self) -> tuple[SemigroupRecord, ...]:
        pool = self.confirmations + self.others
        return tuple(r for r in pool if r.size == self.max_size_found)

    @property
    def uniqueness_confirmed(self) -> bool:
        return bool(self.confirmations) and not self.others and not self.stats.capped

    def to_json(self, include_timing: bool = True) -> dict:
        def record(r: SemigroupRecord) -> dict:
            return {
                "kind": r.kind,
                "size": r.size,
                "letters": [list(t.images) for t in r.letters],
                "level": r.level,
            }

        stats = {
            "visited": self.stats.visited,
            "pruned": self.stats.pruned,
            "selections": self.stats.selections,
            "rejected_selections": self.stats.rejected_selections,
            "terminal_selections": self.stats.terminal_selections,
            "pruned_selections": self.stats.pruned_selections,
            "extensions": self.stats.extensions,
            "level_sizes": list(self.stats.level_sizes),
            "capped": self.stats.capped,
        }
        if include_timing:
            stats["wall_time_s"] = self.stats.wall_time_s
        return {
            "n": self.n,
            "target": self.target,
            "max_size_found": self.max_size_found,
            "uniqueness_confirmed": self.uniqueness_confirmed,
            "others": [record(r) for r in self.others],
            "confirmations": [record(r) for r in self.confirmations],
            "statistics": stats,
        }


def _expand_one(args: tuple[bytes, int, int, bool], forms: _LetterForms | None = None) -> dict:
    """Judge one canonical semiautomaton, with initial state 0 and empty
    state n-1.  Its outcome is "rejected" when its closure leaves the
    admissible family, "pruned" or "terminal" when the count bound or
    the case analysis ends the branch, and "open" otherwise; an open
    branch's filtered candidates turn into canonical extensions.  Runs
    in worker processes, so takes and returns plain picklable data;
    there each call fills a letter-form memo of its own."""
    fp, n, target, prune = args
    if forms is None:
        forms = _LetterForms()
    ctx = _context(n)
    _, letters = _decode_fp(fp)
    # the one closure of the branch; by the semiconstant lemma in the
    # module docstring a refusal here means the letters alone already
    # leave the admissible family
    gens = letters + ctx.semiconstants
    closed = _close_all_admissible(gens, [ctx.tables[g] for g in gens], ctx)
    if closed is None:
        return {"outcome": "rejected", "extensions": [], "other": None}
    members, coll, foc = closed
    assert not coll & foc, "pair both colliding and focused survived the closure"
    other = None
    if len(members) >= target:
        other = {"size": len(members), "letters": list(letters), "members": sorted(members)}
    candidates = _mask_candidates(members, coll, foc, ctx)
    if prune and len(members) + len(candidates) < target:
        outcome = "pruned"
    else:
        masks = ctx.masks
        vsf = ctx.vsf_elements
        wsf = ctx.wsf_elements
        sigs = Counter((masks[t][0], masks[t][1], t in vsf, t in wsf) for t in candidates)
        # a branch confined to one of the two families is only allowed to
        # end there when no proper subset of the family could still matter
        outcome = _leaf_verdict(
            len(members),
            members <= vsf,
            members <= wsf,
            sigs,
            len(ctx.pair_bit),
            target,
            target >= len(vsf),
            target >= len(wsf),
            prune,
        ) or "open"
    extensions: dict[bytes, None] = {}
    if outcome == "open":
        for g in _one_step_filter(candidates, members, coll, foc, ctx):
            canon = _canonical_letters(sorted(letters + (g,)), forms)
            extensions.setdefault(_fingerprint(canon, n), None)
    return {"outcome": outcome, "extensions": list(extensions), "other": other}


def _confirmed_extremes(n: int, target: int) -> tuple[SemigroupRecord, ...]:
    # the two known maximal families, realized by explicit DFAs; only
    # the ones actually reaching the target belong in the report
    out = []
    vsf_gens = vsf_generators(n)
    vsf = closure(list(vsf_gens))
    names, wit = witness_letters(n)
    wsf = enumerate_wsf(n)
    for kind, size, letters, letter_names in (
        ("vsf", vsf.size, vsf_gens, tuple(f"g{i}" for i in range(len(vsf_gens)))),
        ("wsf", wsf.size, wit, names),
    ):
        if size < target:
            continue
        dfa = Dfa(n=n, letters=letter_names, delta=letters, initial=0, finals=frozenset({1}))
        if not is_suffix_free(dfa):
            raise RuntimeError(f"confirmation DFA for {kind} is not suffix-free")
        if not verify_suffix_free_consistency(closure(list(letters))):
            raise RuntimeError(f"confirmation semigroup for {kind} is inconsistent")
        out.append(SemigroupRecord(kind=kind, size=size, letters=tuple(letters), level=None))
    return tuple(out)


def _classify_other(members: frozenset[RawMap], ctx: _Context) -> str:
    if members == ctx.vsf_elements:
        return "vsf"
    if members == ctx.wsf_elements:
        return "wsf"
    return "other"


# the tag names the pointed form, so a level written in any other
# canonical form is refused rather than resumed in part
_CHECKPOINT_TAG = "sfsyn-pointed-search"


def _check_size(n: int) -> None:
    if not 4 <= n <= 7:
        raise ValueError(f"the exhaustive search supports 4 <= n <= 7, got {n}")


def save_checkpoint(path: str, level_index: int, n: int, level: Iterable[CanonicalSemiautomaton]) -> None:
    """One fingerprint per line under a level header, written atomically."""
    lines = [f"# {_CHECKPOINT_TAG} level={level_index} n={n}"]
    lines.extend(sa.fingerprint.hex() for sa in sorted(level, key=lambda s: s.fingerprint))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[int, int, tuple[CanonicalSemiautomaton, ...]]:
    """Read a checkpoint back: (n, level index, semiautomata).  Every
    letter must be a pool map, as the search only ever writes those."""
    with open(path, encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or not lines[0].startswith(f"# {_CHECKPOINT_TAG} "):
        raise ValueError(f"{path} is not a pointed search checkpoint")
    fields = dict(part.partition("=")[::2] for part in lines[0][2:].split()[1:])
    try:
        n = int(fields["n"])
        level_index = int(fields["level"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: checkpoint header needs integer n= and level= fields") from None
    _check_size(n)
    pool = frozenset(_context(n).pool)
    sas = tuple(parse_fingerprint(bytes.fromhex(line)) for line in lines[1:])
    for sa in sas:
        if sa.n != n:
            raise ValueError(f"checkpoint mixes state counts: {sa.n} vs {n}")
        for t in sa.letters:
            if bytes(t.images) not in pool:
                raise ValueError(f"{path}: letter {list(t.images)} is not in the search pool")
    return n, level_index, sas


def search_max(
    n: int,
    target: int | None = None,
    *,
    max_letters: int = DEFAULT_MAX_LETTERS,
    checkpoint_dir: str | None = None,
    resume_from: str | None = None,
    threads: int = 1,
    prune: bool = True,
) -> SearchResult:
    """Search every suffix-free DFA shape on n states for transition
    semigroups of at least the target size.

    Levels of canonical semiautomata, with initial state 0 and empty
    state n-1, grow one letter at a time.  Each semiautomaton is judged
    once; each one left open contributes the candidates passing the
    one-step product filter, a superset of its exact additions, as the
    next level.  The level past max_letters is not built: the search
    stops there, capped when some candidate is irreducible.  The two
    known maximal families are confirmed from their generators and the
    search reports any semigroup at or above the target that is neither
    of them.  With prune=False no branch is cut for its count, only by
    the family cutoff, and the admissible space is walked in full,
    which is only tractable for n=4.

    A resumed run re-explores from the checkpointed level on; records
    from earlier levels are not replayed, which is harmless for the
    uniqueness question since confirmations are recomputed.
    """
    _check_size(n)
    if target is not None and target < 1:
        raise ValueError("target must be positive")
    if max_letters < 1:
        raise ValueError("max_letters must be positive")
    if threads < 1:
        raise ValueError("threads must be positive")
    ctx = _context(n)
    if target is None:
        target = max(len(ctx.vsf_elements), wsf_bound(n))
    started = time.perf_counter()
    if resume_from is not None:
        file_n, level_index, level = load_checkpoint(resume_from)
        if file_n != n:
            raise ValueError(f"checkpoint is for n={file_n}, search asked for n={n}")
        logger.info("resuming at level %d with %d semiautomata", level_index, len(level))
    else:
        level_index = 1
        level = initial_level(n)

    visited = 0
    pruned = 0
    outcomes: Counter = Counter()
    extensions_total = 0
    level_sizes: list[int] = []
    others: dict[bytes, SemigroupRecord] = {}
    unexplored = 0
    # letter forms shared by every canonicalization of this call only,
    # so no later call starts warm
    forms = _LetterForms()

    while level:
        if level_index > max_letters:  # only a resumed level starts past the cap
            unexplored = len(level)
            break
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            save_checkpoint(
                os.path.join(checkpoint_dir, f"level_{level_index:02d}.txt"), level_index, n, level
            )
        level = tuple(sorted(level, key=lambda sa: sa.fingerprint))
        level_sizes.append(len(level))
        work = [(sa.fingerprint, n, target, prune) for sa in level]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_expand_one, work, chunksize=max(1, len(work) // (threads * 4))))
        else:
            results = [_expand_one(item, forms) for item in work]

        next_fps: dict[bytes, None] = {}
        for res in results:
            visited += 1
            outcomes[res["outcome"]] += 1
            record = res["other"]
            if res["outcome"] != "open" and record is None:
                pruned += 1
            for fp in res["extensions"]:
                next_fps.setdefault(fp, None)
            if record is None:
                continue
            members = frozenset(record["members"])
            if _classify_other(members, ctx) != "other":
                continue  # the known families are confirmed separately
            key = _fingerprint(_canonical_letters(sorted(members), forms), n)
            if key not in others:
                letters = tuple(Transformation(tuple(t)) for t in record["letters"])
                sg = closure(
                    list(letters)
                    + [Transformation(tuple(s)) for s in ctx.semiconstants]
                )
                if not verify_suffix_free_consistency(sg):
                    raise RuntimeError("search admitted an inconsistent semigroup")
                others[key] = SemigroupRecord(
                    kind="other", size=record["size"], letters=letters, level=level_index
                )
        logger.info(
            "level %d: %d semiautomata, %d extension candidates", level_index, len(level), len(next_fps)
        )
        if level_index == max_letters:
            # the capped level is not built: one irreducible candidate
            # is enough to know it is not empty
            if any(irreducible_raw(_decode_fp(fp)[1]) for fp in sorted(next_fps)):
                unexplored = len(next_fps)
            break
        next_level = []
        for fp in sorted(next_fps):
            _, letters = _decode_fp(fp)
            if irreducible_raw(letters):
                next_level.append(
                    CanonicalSemiautomaton(
                        n=n,
                        letters=tuple(Transformation(tuple(t)) for t in letters),
                        fingerprint=fp,
                    )
                )
        extensions_total += len(next_level)
        level = tuple(next_level)
        level_index += 1

    capped = unexplored > 0
    if capped:
        logger.warning(
            "letter cap %d reached with %d candidates unexplored; "
            "the uniqueness conclusion is not established",
            max_letters,
            unexplored,
        )
    confirmations = _confirmed_extremes(n, target)
    other_records = tuple(others[k] for k in sorted(others))
    sizes = [r.size for r in confirmations] + [r.size for r in other_records]
    return SearchResult(
        n=n,
        target=target,
        max_size_found=max(sizes, default=0),
        others=other_records,
        confirmations=confirmations,
        stats=SearchStats(
            visited=visited,
            pruned=pruned,
            selections=visited,
            rejected_selections=outcomes["rejected"],
            terminal_selections=outcomes["terminal"],
            pruned_selections=outcomes["pruned"],
            extensions=extensions_total,
            level_sizes=tuple(level_sizes),
            capped=capped,
            wall_time_s=time.perf_counter() - started,
        ),
    )
