"""Canonical semiautomata, the search's candidate filter against the
exact-additions oracle, and the maximality search."""
import gc
import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from functools import cached_property, lru_cache, reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from sfsyn.transform import Transformation
from sfsyn.semigroup import (
    bsf_images,
    close_raw,
    closure,
    enumerate_bsf,
    enumerate_wsf,
    in_bsf_images,
    raw_table,
    semiconstant_family,
    vsf_generators,
    witness_letters,
    wsf_bound,
)
from sfsyn.collisions import pair_index, pair_masks
from sfsyn.dfa import Dfa, suffix_free_violation, witness
import sfsyn.search as search_module
from sfsyn.search import (
    _bits,
    _candidate_bits,
    _canonical_extensions,
    _canonical_letters,
    _close_all_admissible,
    _context,
    _judge,
    _leaf_verdict,
    _LetterForms,
    _one_step_filter,
    _pool_maps,
    _ProductRows,
    SemigroupRecord,
    canonicalize,
    initial_level,
    search_max,
)
from test_collisions import colliding_pairs, consistent, focusing_triples


def conjugate_raw(t: bytes, perm) -> bytes:
    # t relabelled by the state permutation q -> perm[q], one state at a time
    out = bytearray(len(t))
    for q, img in enumerate(t):
        out[perm[q]] = perm[img]
    return bytes(out)


def conjugated(t: Transformation, perm) -> Transformation:
    out = [0] * t.n
    for q in range(t.n):
        out[perm[q]] = perm[t.images[q]]
    return Transformation(out)


@lru_cache(maxsize=None)
def bsf_raw(n):
    # b_sf from its own enumeration, independent of the search context
    return frozenset(bytes(t.images) for t in enumerate_bsf(n))


@lru_cache(maxsize=None)
def bsf_masks(n):
    # each b_sf map's colliding and focused masks from pair_masks,
    # independent of the search context's table
    return {t: pair_masks(t) for t in bsf_raw(n)}


def raw_maps(n):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(bytes)


def report_digest(result) -> str:
    doc = result.to_json()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def pointed(interior, n):
    # the state permutation fixing 0 and n-1 that moves the interior
    # states as the given permutation of 1..n-2 does
    return (0, *interior, n - 1)


@lru_cache(maxsize=None)
def pointed_perms(n):
    # every pointed relabelling in permutation order, the order in which
    # letter forms name them by position
    return tuple(pointed(interior, n) for interior in itertools.permutations(range(1, n - 1)))


def brute_canonical_letters(letters, n):
    # reference: the least sorted conjugate tuple, scanning all (n-2)!
    # permutations of the interior states
    best = None
    for interior in itertools.permutations(range(1, n - 1)):
        cand = sorted(conjugate_raw(t, pointed(interior, n)) for t in letters)
        if best is None or cand < best:
            best = cand
    return tuple(best)


def full_class(members, n):
    # the least sorted conjugate tuple over all n! state permutations
    return min(
        sorted(conjugate_raw(t, perm) for t in members)
        for perm in itertools.permutations(range(n))
    )


# --------------------------------------------------------- canonical form


def test_canonicalize_idempotent():
    letters = canonicalize([Transformation((1, 3, 3, 3)), Transformation((3, 1, 2, 3))])
    assert canonicalize(letters) == letters


def test_canonical_letters_are_sorted():
    letters = canonicalize([Transformation((3, 1, 2, 3)), Transformation((1, 3, 3, 3))])
    images = [t.images for t in letters]
    assert images == sorted(images)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from((4, 6, 7, 8)))
def test_canonicalize_invariant_under_relabeling(data, n):
    maps = st.builds(Transformation, st.tuples(*[st.integers(0, n - 1)] * n))
    letters = data.draw(st.lists(maps, min_size=1, max_size=3))
    perm = pointed(data.draw(st.permutations(range(1, n - 1))), n)
    direct = canonicalize(letters)
    relabeled = canonicalize([conjugated(t, perm) for t in reversed(letters)])
    assert relabeled == direct


@pytest.mark.parametrize("n", (4, 5, 6))
def test_canonical_letters_match_brute_force_on_every_candidate_map(n):
    for t in enumerate_bsf(n):
        raw = bytes(t.images)
        assert _canonical_letters([raw]) == brute_canonical_letters([raw], n)


def test_canonical_letters_match_brute_force_on_all_four_state_maps():
    for images in itertools.product(range(4), repeat=4):
        raw = bytes(images)
        assert _canonical_letters([raw]) == brute_canonical_letters([raw], 4)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(4, 7))
def test_canonical_letters_match_brute_force_on_letter_sets(data, n):
    letters = data.draw(st.lists(raw_maps(n), min_size=1, max_size=4))
    assert _canonical_letters(letters) == brute_canonical_letters(letters, n)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_canonical_letters_match_brute_force_on_symmetric_letters(n):
    # identity and constants have the largest automorphism groups;
    # duplicates must survive as repeated entries
    identity = bytes(range(n))
    const = bytes([n - 1] * n)
    shift = bytes([*range(1, n), n - 1])
    for letters in (
        [identity],
        [const],
        [identity, identity],
        [const, identity, const],
        [shift, shift, identity],
        [shift, const, shift],
    ):
        assert _canonical_letters(letters) == brute_canonical_letters(letters, n)


def test_single_letter_classes_on_three_states():
    # three states leave one interior state, so each of the 27 maps is
    # a class of its own; on four states swapping 1 and 2 fixes 16 of
    # the 256 maps, which leaves (256 + 16) / 2 = 136 classes
    forms = {
        canonicalize([Transformation((a, b, c))])
        for a in range(3)
        for b in range(3)
        for c in range(3)
    }
    assert len(forms) == 27
    forms = {canonicalize([Transformation(t)]) for t in itertools.product(range(4), repeat=4)}
    assert len(forms) == 136


def test_canonicalize_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([Transformation((1, 3, 3, 3)), Transformation((1, 4, 4, 4, 4))])
    # the conjugator tables serve letters on 2 to 8 states
    for n in (1, 9):
        with pytest.raises(ValueError, match=f"2 to 8 states, got {n}"):
            canonicalize([Transformation((n - 1,) * n)])


def assert_letter_form_is_the_least_conjugate(t, forms):
    # the least conjugate over every pointed relabelling, each applied
    # one state at a time, and exactly the relabellings reaching it; the
    # forms name a relabelling by its position in permutation order
    perms = pointed_perms(len(t))
    images = {perm: conjugate_raw(t, perm) for perm in perms}
    least = min(images.values())
    form, labellings = forms[t]
    assert form == least
    assert len(set(labellings)) == len(labellings)
    assert {perms[i] for i in labellings} == {perm for perm, image in images.items() if image == least}


@pytest.mark.parametrize("n", (4, 5, 6))
def test_letter_forms_of_every_bsf_letter(n):
    ctx = _context(n)
    forms = _LetterForms()
    for t in ctx.pool + ctx.semiconstants:
        assert_letter_form_is_the_least_conjugate(t, forms)


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n=st.sampled_from((7, 8)))
def test_letter_forms_of_drawn_maps(data, n):
    assert_letter_form_is_the_least_conjugate(data.draw(raw_maps(n)), _LetterForms())


def test_canonicalize_returns_the_raw_canonical_letters():
    delta = witness(5).delta
    letters = tuple(bytes(t.images) for t in canonicalize(delta))
    assert letters == _canonical_letters([bytes(t.images) for t in delta])


# ------------------------------------------------ exact-additions oracle


def extend_closure(base, coll, foc, t, gen_tables, ctx):
    """Closure of base plus the admissible t, with its pair masks, where
    base (masks coll, foc) is already closed under the generators behind
    gen_tables; None when an element leaves the admissible family.
    Every new element is a product u t v with u in base or empty, so
    the seeds are t and x then t for every x in base."""
    t_table = raw_table(t)
    seeds = [t, *(x.translate(t_table) for x in base)]
    fresh = close_raw(seeds, [*gen_tables, t_table], seen=set(base))
    if not set(fresh) <= bsf_raw(ctx.n):
        return None
    masks = bsf_masks(ctx.n)
    for y in fresh:
        c, f = masks[y]
        coll |= c
        foc |= f
    return base.union(fresh), coll, foc


def exact_additions(members, coll, foc, gen_tables, ctx):
    """Every admissible t outside the closed branch whose closure with
    the branch stays admissible with no pair both colliding and
    focused, mapped to the grown colliding and focused masks."""
    out = {}
    for t in sorted(bsf_raw(ctx.n) - members):
        grown = extend_closure(members, coll, foc, t, gen_tables, ctx)
        if grown is not None and not grown[1] & grown[2]:
            out[t] = grown[1:]
    return out


def allowed_additions(sg, gens):
    """The transformations outside sg, which gens generate, whose
    addition keeps the closure inside the admissible family with no
    pair both colliding and focused, and keeps at least one interior
    pair free of collisions and at least one free of focusing.  The two
    excluded extremes pin the semigroup inside a known maximal family."""
    ctx = _context(sg.n)
    members = frozenset(sg.raw)
    coll = foc = 0
    for e in members:
        c, f = pair_masks(e)
        coll |= c
        foc |= f
    gen_tables = [raw_table(bytes(g.images)) for g in gens]
    all_pairs = (1 << len(pair_index(sg.n).pairs)) - 1
    return frozenset(
        Transformation(tuple(t))
        for t, (c2, f2) in exact_additions(members, coll, foc, gen_tables, ctx).items()
        if c2 != all_pairs and f2 != all_pairs
    )


def test_both_known_families_are_saturated():
    for n in (4, 5):
        gens = list(vsf_generators(n))
        assert allowed_additions(closure(gens), gens) == frozenset()
    assert allowed_additions(enumerate_wsf(4), witness_letters(4)[1]) == frozenset()


def test_small_semigroup_leaves_plenty_of_room():
    gens = [Transformation((1, 4, 4, 4, 4))]
    sg = closure(gens)
    assert sg.size == 2
    additions = allowed_additions(sg, gens)
    assert len(additions) == 92
    assert all(in_bsf_images(t.images) for t in additions)


def oracle_additions(sg, gens):
    # brute force: keep t when the grown closure stays in the admissible
    # family, stays consistent, and pins down neither extreme
    n = sg.n
    every = {
        (p, q) for p in range(1, n - 1) for q in range(p + 1, n - 1)
    }
    out = set()
    for t in enumerate_bsf(n):
        if bytes(t.images) in sg.raw_set:
            continue
        grown = closure(list(gens) + [t])
        if not all(in_bsf_images(e) for e in grown.raw):
            continue
        if not consistent(grown):
            continue
        colliding, focused = set(), set()
        for e in grown.raw:
            colliding.update(colliding_pairs(e))
            focused.update((p, q) for p, q, _ in focusing_triples(e))
        if colliding == every or focused == every:
            continue
        out.add(t)
    return frozenset(out)


def test_allowed_additions_against_brute_force():
    for images in ([(1, 2, 3, 3)], [(2, 1, 3, 3)], [(1, 3, 2, 3), (3, 1, 2, 3)]):
        gens = [Transformation(g) for g in images]
        sg = closure(gens)
        assert allowed_additions(sg, gens) == oracle_additions(sg, gens)


# ------------------------------------------------------------ closures


def closes_admissibly(letters, ctx) -> bool:
    return set(close_raw(letters, [raw_table(g) for g in letters])) <= bsf_raw(ctx.n)


@pytest.mark.parametrize("n, size, admissible", [(4, 2, 112), (5, 2, 5308), (6, 1, 1169)])
def test_semiconstants_never_decide_admissibility(n, size, admissible):
    # the lemma behind the search's single closure per selection: letters
    # close inside the admissible family exactly when they still do with
    # the whole semiconstant family added
    ctx = _context(n)
    semis = list(ctx.semiconstants)
    closing = 0
    for letters in itertools.combinations_with_replacement(sorted(bsf_raw(n)), size):
        alone = closes_admissibly(list(letters), ctx)
        assert closes_admissibly(list(letters) + semis, ctx) == alone, letters
        closing += alone
    assert closing == admissible


@lru_cache(maxsize=None)
def pool_position(n):
    # each pool map's position, read off the pool, not the context's table
    return {t: i for i, t in enumerate(_context(n).pool)}


def pool_positions(members, ctx):
    # reference: the pool positions of the members, by a membership
    # test per member
    position = pool_position(ctx.n)
    return _bits((position[t] for t in members if t in position), len(ctx.pool))


def scratch_branch_closure(letters, ctx):
    """Reference: the letters and all 2^(n-2) semiconstants as
    generators, every element walked against every table, refused when
    some element lies outside b_sf; the members with their pool
    positions and their pair masks from pair_masks."""
    gens = [*letters, *ctx.semiconstants]
    found = close_raw(gens, [raw_table(g) for g in gens])
    if not set(found) <= bsf_raw(ctx.n):
        return None
    coll = foc = 0
    for y in found:
        c, f = pair_masks(y)
        coll |= c
        foc |= f
    return frozenset(found), pool_positions(found, ctx), coll, foc


def all_two_letter_branches(n):
    # every two-letter semiautomaton up to relabelling, refusals included
    ctx, forms = _context(n), _LetterForms()
    return sorted(
        {_canonical_letters([*letters, g], forms) for letters in initial_level(n) for g in ctx.pool if g not in letters}
    )


@pytest.mark.parametrize(
    "n, levels, branches, refused",
    [(4, 2, 36, 4), (5, 2, 1003, 229), (6, 1, 70, 0), (7, 1, 205, 0)],
)
def test_branch_closure_matches_closing_every_semiconstant(n, levels, branches, refused):
    # seeded past the semiconstant semilattice and walked by the n-1
    # generators, the branch closure has the same members, masks and
    # refusals as closing the letters with the whole family
    ctx = _context(n)
    level = list(initial_level(n))
    if levels == 2:
        level += all_two_letter_branches(n)
    got = [_close_all_admissible(letters, ctx) for letters in level]
    assert got == [scratch_branch_closure(letters, ctx) for letters in level]
    assert (len(level), got.count(None)) == (branches, refused)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_branch_closure_matches_closing_every_semiconstant_on_drawn_branches(data):
    ctx = _context(6)
    letters = data.draw(st.lists(st.sampled_from(ctx.pool), min_size=2, max_size=2, unique=True))
    assert _close_all_admissible(letters, ctx) == scratch_branch_closure(letters, ctx)


def test_the_context_holds_no_translate_table_per_map(monkeypatch):
    # a table per b_sf map took 4.7 of the 9.2 MiB a fresh _context(7)
    # held; the walks now build the tables they read.  One table keyed
    # by b_sf, read off the raw scan, holds about 3.8 MiB where a
    # Transformation per map, a set of b_sf and a second map-keyed dict
    # held 4.5.  The cached context warms the caches it reads, and the
    # fresh one bypasses it
    _context(7)
    built = []  # one None per Transformation constructed
    post_init = Transformation.__post_init__

    def counting(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(Transformation, "__post_init__", counting)
    tracemalloc.start()
    try:
        ctx = _context.__wrapped__(7)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ctx.bsf) == 14_961
    assert held <= 4.2 * 2**20, held
    # the 32 semiconstants and the 7 v_sf generators, no b_sf map
    assert len(built) <= 32 + 7, len(built)


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_the_context_table_follows_the_bsf_scan(n):
    # no sort builds the context: its table's keys are the scan's maps
    # in scan order, and the pool and the semiconstants come out sorted
    ctx = _context(n)
    assert list(ctx.bsf) == [bytes(t) for t in bsf_images(n)]
    assert list(ctx.pool) == sorted(ctx.pool) and len(set(ctx.pool)) == len(ctx.pool)
    assert list(ctx.semiconstants) == sorted(ctx.semiconstants)
    assert set(ctx.semiconstants) == {bytes(t.images) for t in semiconstant_family(n)}
    position, masks = pool_position(n), bsf_masks(n)
    assert ctx.bsf == {t: (*masks[t], position.get(t)) for t in ctx.bsf}


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_the_semiconstant_sending_zero_alone_to_the_sink_fixes_every_admissible_map(n):
    # why the branch closure never walks it: no admissible map has 0 as
    # an image, and it moves only 0, so right multiplication by it is
    # the identity on every map of b_sf
    ctx = _context(n)
    zero = bytes((n - 1, *range(1, n)))
    assert zero in ctx.semiconstants and raw_table(zero) not in ctx.generator_tables
    assert all(x.translate(raw_table(zero)) == x for x in ctx.bsf)


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_branch_closure_walks_the_letters_and_the_semiconstant_generators(monkeypatch, n):
    # S is seen before the walk, so the walk takes in no element of it;
    # the tables are the letters' and the n-2 generators', sending 0 and
    # one interior state to n-1 (the one sending 0 alone to n-1 fixes
    # every admissible map, see the test above); no semiconstant adds a
    # pair mask
    ctx = _context(n)
    semis = set(ctx.semiconstants)
    last = n - 1
    generators = {bytes(last if p in (0, q) else p for p in range(n)) for q in range(1, last)}
    assert ctx.generator_tables == tuple(raw_table(g) for g in sorted(generators))
    assert all(ctx.bsf[s] == (0, 0, None) for s in semis)
    calls = []

    def recording(seeds, tables, *, seen):
        before = set(seen)
        found = close_raw(seeds, tables, seen=seen)
        calls.append((found, list(tables), before))
        return found

    monkeypatch.setattr(search_module, "close_raw", recording)
    letters = initial_level(n)[-1]
    _close_all_admissible(letters, ctx)
    (found, tables, seen), = calls
    assert seen == semis
    assert found and not semis & set(found)
    assert tables == [*map(raw_table, letters), *ctx.generator_tables]
    assert len(tables) == len(letters) + n - 2


def recorded_branch_walks(monkeypatch, levels, n):
    # every branch of level 1, and with levels == 2 every two-letter
    # branch, with its branch closure and the finds of its one walk
    ctx = _context(n)
    level = list(initial_level(n))
    if levels == 2:
        level += all_two_letter_branches(n)
    walks = []

    def recording(seeds, tables, *, seen):
        found = close_raw(seeds, tables, seen=seen)
        walks.append(found)
        return found

    monkeypatch.setattr(search_module, "close_raw", recording)
    out = []
    for letters in level:
        closed = _close_all_admissible(letters, ctx)
        (found,) = walks
        walks.clear()
        out.append((letters, closed, found))
    return out


@pytest.mark.parametrize("n, levels", [(4, 2), (5, 2), (6, 1), (7, 1)])
def test_one_pass_over_the_finds_reads_the_branch(monkeypatch, n, levels):
    # the branch closure reads a branch's pool positions and its family
    # membership off the finds alone: every semiconstant lies in both
    # known families, every find of an admitted branch is a pool map, and
    # the pool-position test of lying in a family is the members' subset
    # test
    ctx = _context(n)
    vsf, wsf = ctx.vsf_elements, ctx.wsf_elements
    assert set(ctx.semiconstants) <= vsf & wsf
    admitted = 0
    for letters, closed, found in recorded_branch_walks(monkeypatch, levels, n):
        if closed is None:
            continue
        admitted += 1
        members, own, _, _ = closed
        assert set(found) <= set(ctx.pool), letters
        assert own == pool_positions(found, ctx) == pool_positions(members, ctx)
        assert (not own & ctx.not_v) == (members <= vsf)
        assert (not own & ctx.not_w) == (members <= wsf)
    assert admitted == {4: 32, 5: 774, 6: 70, 7: 205}[n]


@pytest.mark.parametrize("n, levels, refused", [(4, 2, 4), (5, 2, 229), (6, 1, 0), (7, 1, 0)])
def test_a_refused_branch_walk_stays_among_the_maps_fixing_the_sink_off_zero(
    monkeypatch, n, levels, refused
):
    # the branch walk runs to its end when it leaves b_sf, and that end
    # is near: no level-1 branch is refused (a pool map's powers are
    # admissible), and a refused two-letter branch closes among the
    # (n-1)^(n-1) maps that fix n-1 and have no preimage of 0, as its
    # letters and the semiconstants do
    last = n - 1
    walks = recorded_branch_walks(monkeypatch, levels, n)
    assert all(closed is not None for letters, closed, _ in walks if len(letters) == 1)
    refusals = [found for _, closed, found in walks if closed is None]
    assert len(refusals) == refused
    for found in refusals:
        assert not set(found) <= bsf_raw(n)
        assert all(y[last] == last and 0 not in y for y in found)
        assert len(found) + len(_context(n).semiconstants) <= last**last


def branch_tables(letters, ctx):
    # the tables of the letters and of every semiconstant, which the
    # oracles walk, whatever generators the branch closure walks
    return [raw_table(g) for g in (*letters, *ctx.semiconstants)]


def assert_extension_matches_scratch(letters, t, ctx):
    base = _close_all_admissible(letters, ctx)
    if base is None:
        return
    members, _, coll, foc = base
    grown = extend_closure(members, coll, foc, t, branch_tables(letters, ctx), ctx)
    scratch = _close_all_admissible([*letters, t], ctx)
    if scratch is None:
        assert grown is None
    else:
        members, _, coll, foc = scratch
        assert grown == (members, coll, foc)


def test_extend_closure_matches_scratch_closure_on_every_four_state_branch():
    ctx = _context(4)
    for g in ctx.pool:
        for t in ctx.pool:
            assert_extension_matches_scratch([g], t, ctx)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.sampled_from((5, 6)))
def test_extend_closure_matches_scratch_closure_on_sampled_branches(data, n):
    ctx = _context(n)
    letters = data.draw(st.lists(st.sampled_from(ctx.pool), min_size=1, max_size=2, unique=True))
    t = data.draw(st.sampled_from(ctx.pool))
    assert_extension_matches_scratch(letters, t, ctx)


# ------------------------------------------- extensions canonicalized together


def per_extension_canonical_letters(letters, forms):
    """Reference: one letter list canonicalized on its own, every
    labelling that gives some letter the least one-letter form tried on
    the whole tuple, each letter conjugated one state at a time."""
    least = min(forms[t][0] for t in letters)
    perms = pointed_perms(len(least))
    best = None
    for t in dict.fromkeys(letters):
        form, labellings = forms[t]
        if form != least:
            continue
        for i in labellings:
            cand = sorted(conjugate_raw(u, perms[i]) for u in letters)
            if best is None or cand < best:
                best = cand
    return tuple(best)


def assert_extensions_match_the_oracle(letters, additions, forms):
    """The routine's canonical letters for each addition must be the
    reference's for the branch plus that addition.  Returns how the
    additions' letter forms sit against the branch's least form."""
    got = list(_canonical_extensions(letters, additions, forms))
    reference = _LetterForms()
    expected = [
        per_extension_canonical_letters(sorted((*letters, g)), reference) for g in additions
    ]
    assert got == expected
    least = min(forms[t][0] for t in letters)
    return Counter(
        "below" if forms[g][0] < least else "tie" if forms[g][0] == least else "above"
        for g in additions
    )


@pytest.mark.parametrize(
    "args, kwargs, opened",
    [
        ((4,), {}, 0),
        ((5,), {}, 0),
        ((6,), {}, 0),
        ((7,), {}, 0),
        ((5, 72), {"max_letters": 2}, 374),
        ((5, 65), {"max_letters": 2}, 763),
        ((6, 600), {"max_letters": 1}, 41),
    ],
    ids=["n4", "n5", "n6", "n7", "n5-t72", "n5-t65", "n6-t600"],
)
def test_extensions_match_the_per_extension_oracle_on_every_open_branch(
    monkeypatch, args, kwargs, opened
):
    # every open branch of the search and its filtered candidates, the
    # capped level's too, though the search itself builds no canonical
    # form there, checked with the search's own memo
    branches = []
    sides = Counter()
    judged = []
    memos = []
    judge, one_step_filter = search_module._judge, search_module._one_step_filter

    class RecordedForms(_LetterForms):
        def __init__(self):
            super().__init__()
            memos.append(self)

    def judging(letters, *rest):
        judged.append(letters)
        return judge(letters, *rest)

    def filtered(cand, members, coll, rows):
        survivors = one_step_filter(cand, members, coll, rows)
        if survivors:
            (forms,) = memos
            branches.append(judged[-1])
            additions = _pool_maps(survivors, rows.ctx)
            sides.update(assert_extensions_match_the_oracle(judged[-1], additions, forms))
        return survivors

    monkeypatch.setattr(search_module, "_LetterForms", RecordedForms)
    monkeypatch.setattr(search_module, "_judge", judging)
    monkeypatch.setattr(search_module, "_one_step_filter", filtered)
    search_max(*args, **kwargs)
    assert len(branches) == opened
    # survivors below, tied with and above the branch's least form
    assert set(sides) == ({"below", "tie", "above"} if opened else set())


def test_the_capped_level_builds_no_canonical_form(monkeypatch):
    # level 1 canonicalizes the extensions of its 14 open branches; the
    # 360 open branches of level 2, the capped one, decide the cap from
    # their raw survivors alone
    calls = []

    def counted(letters, additions, forms):
        calls.append(letters)
        return _canonical_extensions(letters, additions, forms)

    monkeypatch.setattr(search_module, "_canonical_extensions", counted)
    r = search_max(5, 72, max_letters=2)
    assert r.stats.capped
    assert [len(letters) for letters in calls] == [1] * 14


@pytest.mark.parametrize(
    "args, kwargs", [((4, 1), {}), ((4, 5), {"max_letters": 1})], ids=["below-cap", "at-cap"]
)
def test_building_the_next_level_counts_in_its_level_wall_time(monkeypatch, args, kwargs):
    # the first irreducibility test, slowed by 0.05 s, filters level 2
    # below the cap and decides the cap at it; either way it is level
    # 1's work outside judging, and the levels leave nothing of the call
    # unattributed but the level-1 build
    irreducible = search_module.irreducible_raw
    calls = []

    def slowed(letters):
        if not calls:
            time.sleep(0.05)
        calls.append(letters)
        return irreducible(letters)

    monkeypatch.setattr(search_module, "irreducible_raw", slowed)
    stats = search_max(*args, **kwargs).stats
    assert calls
    assert stats.capped == ("max_letters" in kwargs)
    assert stats.level_wall_s[0] - stats.level_judge_s[0] >= 0.05
    assert stats.wall_time_s - sum(stats.level_wall_s) < 0.05


def test_extensions_match_the_oracle_on_every_five_state_letter_and_pool_map():
    # each level-1 class as a branch, the whole pool as its additions
    sides = Counter()
    pool = _context(5).pool
    for letters in initial_level(5):
        sides.update(assert_extensions_match_the_oracle(letters, pool, _LetterForms()))
    assert set(sides) == {"below", "tie", "above"}


@settings(deadline=None, max_examples=80)
@given(data=st.data(), n=st.integers(5, 7))
def test_extensions_match_the_oracle_on_drawn_branches(data, n):
    pool = _context(n).pool
    letters = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    additions = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    # relabelled branch letters tie or undercut the branch's least form
    # when their letter has it, and add repeats of the branch's classes
    for t in data.draw(st.lists(st.sampled_from(letters), max_size=3)):
        perm = pointed(data.draw(st.permutations(range(1, n - 1))), n)
        additions.append(conjugate_raw(t, perm))
    assert_extensions_match_the_oracle(tuple(letters), additions, _LetterForms())


# ------------------------------------------------------- level operations


def per_letter_initial_level(n):
    # reference: canonicalize every pool letter on its own and keep the
    # distinct forms
    return tuple(sorted({_canonical_letters([g]) for g in _context(n).pool}))


def test_initial_level_counts():
    assert len(initial_level(4)) == 6
    assert len(initial_level(5)) == 22
    assert len(initial_level(6)) == 70
    assert len(initial_level(7)) == 205


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_initial_level_by_orbits_matches_the_per_letter_forms(n):
    assert initial_level(n) == per_letter_initial_level(n)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_pool_is_closed_under_interior_conjugation(n):
    # the premise of level 1 by orbits: the first pool map of an orbit
    # met in pool order is the orbit's least
    pool = _context(n).pool
    members = set(pool)
    for interior in itertools.permutations(range(1, n - 1)):
        perm = pointed(interior, n)
        assert all(conjugate_raw(t, perm) in members for t in pool)


def test_search_logs_level_one_once_built(caplog):
    with caplog.at_level(logging.INFO, logger="sfsyn.search"):
        search_max(5, 73)
    built = [r.getMessage() for r in caplog.records if r.getMessage().startswith("level 1 built")]
    assert len(built) == 1
    assert built[0].startswith("level 1 built: 22 classes of 107 pool maps in ")
    assert built[0].endswith(" s")


def test_initial_level_covers_exactly_the_pool_classes():
    # every non-semiconstant admissible letter canonicalizes into the
    # level, and each level entry is hit by at least one of them
    semi = set(semiconstant_family(4))
    pool = [t for t in enumerate_bsf(4) if t not in semi]
    level = {tuple(Transformation(tuple(t)) for t in letters) for letters in initial_level(4)}
    assert {canonicalize([t]) for t in pool} == level


def four_state_extensions():
    # the canonical extensions of every level-1 branch of
    # search_max(4, target=3, prune=False), sorted, before the
    # irreducibility filter
    ctx = _context(4)
    forms, rows = _LetterForms(), _ProductRows(ctx)
    extensions = set()
    for letters in initial_level(4):
        _, survivors, _ = _judge(letters, 3, False, rows)
        if survivors:
            extensions.update(_canonical_extensions(letters, _pool_maps(survivors, ctx), forms))
    return tuple(sorted(extensions))


def judged_levels(monkeypatch, *args, **kwargs):
    # each level of a search as the search itself judges it, split by
    # the reported level sizes
    judged = []
    judge = search_module._judge

    def recording(letters, *rest):
        judged.append(letters)
        return judge(letters, *rest)

    with monkeypatch.context() as patched:
        patched.setattr(search_module, "_judge", recording)
        sizes = search_max(*args, **kwargs).stats.level_sizes
    assert sum(sizes) == len(judged)
    starts = itertools.accumulate(sizes, initial=0)
    return [tuple(judged[start : start + size]) for start, size in zip(starts, sizes)]


def four_state_level_two(monkeypatch):
    # level 2 of search_max(4, target=3, prune=False)
    return judged_levels(monkeypatch, 4, 3, prune=False)[1]


def has_redundant_letter(letters):
    # some letter lies in the closure of the others, each closed in full
    return any(
        g in closure([Transformation(tuple(x)) for x in letters[:i] + letters[i + 1 :]]).raw_set
        for i, g in enumerate(letters)
    )


def level_digest(level):
    return hashlib.sha256(b"".join(b"".join(letters) for letters in level)).hexdigest()


@pytest.mark.parametrize(
    "n, digest",
    [
        (4, "254e64622db15244949f0142243ec1850f5188f75ce32aaea5cb9382347cfd89"),
        (5, "8d6b2445f839f1dceb6863989e1f91e1e6ec660cc97e8b205ee1eeeb25f905b0"),
        (6, "0206b6b405afa07e172d4968995ee7b922fee9506414299655cb599772abe37a"),
        (7, "6acbfc9c37cbabe7e60e959b9eb3dc13e612a2f1026cfb9fd25309cd5c877386"),
    ],
)
def test_initial_level_contents_are_pinned(n, digest):
    assert level_digest(initial_level(n)) == digest


@pytest.mark.parametrize(
    "args, kwargs, levels",
    [
        (
            (5, 72),
            {"max_letters": 2},
            [(633, "842425f5ca50e416a0ecf8893f790d827c5e5682823a229d7ada4eabcb12e50f")],
        ),
        (
            (5, 60),
            {"max_letters": 3},
            [
                (741, "0d0313d43df2793086774e88df7fc15e085d96084d13b7a3b28931975a8c9b4d"),
                (13305, "f778e0b1d1bef12a4514623e78794dd5709e92b5af377ef069679e26892a7a8b"),
            ],
        ),
        (
            (4, 1),
            {},
            [
                (25, "959c8d2a2736ab34b0aed1d48d1d3f3edce6bcc9f3495c7863eed05bd9e7ad0a"),
                (28, "b6b662a697ac4304cdf4e32274a37b630cef80f3e65686c80ce3a99b24c2d654"),
                (9, "f94e9e6447c4f423b52779c10ca10cf958d46f80b65efecd50379e1dfe11703b"),
            ],
        ),
    ],
    ids=["n5-t72", "n5-t60-three-letters", "n4-t1"],
)
def test_search_level_contents_are_pinned(monkeypatch, args, kwargs, levels):
    # each level past the first as the search judges it: sorted, k
    # letters at level k, and pinned
    found = judged_levels(monkeypatch, *args, **kwargs)
    for k, level in enumerate(found, start=1):
        assert list(level) == sorted(level)
        assert all(len(letters) == k for letters in level)
    assert found[0] == initial_level(args[0])
    assert [(len(level), level_digest(level)) for level in found[1:]] == levels


def test_search_level_two_grows_canonically_and_irreducibly(monkeypatch):
    # the search's own level 2 against the canonical extensions of level
    # 1, each set told irreducible or not by closing its other letters
    extensions = four_state_extensions()
    level2 = four_state_level_two(monkeypatch)
    assert len(level2) == 25
    assert list(level2) == sorted(level2)
    assert set(level2) <= set(extensions)
    for letters in level2:
        assert all(len(t) == 4 for t in letters)
        assert _canonical_letters(letters) == letters
        assert len(letters) == 2
        assert not has_redundant_letter(letters)
    # the filter drops exactly the one reducible extension
    dropped = sorted(set(extensions) - set(level2))
    assert len(extensions) == 26 and len(dropped) == 1
    assert all(has_redundant_letter(letters) for letters in dropped)


# ------------------------------------------------------- candidate filter


def admissible_branches(level, ctx):
    # every semiautomaton of the level whose letters close admissibly
    # with the semiconstants: its tables and that closure
    for letters in level:
        closed = _close_all_admissible(letters, ctx)
        if closed is not None:
            yield branch_tables(letters, ctx), closed


def one_step_filter(candidates, members, coll, foc, ctx):
    """Reference filter: multiply each candidate t by itself and by every
    member on both sides, one product at a time, and keep t when every
    product is admissible and their masks, t's and the branch's clash
    nowhere."""
    masks = bsf_masks(ctx.n)
    mem = [(x, raw_table(x)) for x in members]

    def products(t, t_table):
        yield t.translate(t_table)
        for x, x_table in mem:
            yield x.translate(t_table)
            yield t.translate(x_table)

    out = []
    for t in candidates:
        c, f = masks[t]
        for y in products(t, raw_table(t)):
            m = masks.get(y)  # keyed by the admissible maps
            if m is None:
                break
            c |= m[0]
            f |= m[1]
        else:
            if not (coll | c) & (foc | f):
                out.append(t)
    return out


def filter_census(level, ctx):
    # the stage-one candidates and the filter's survivors must keep
    # every exact addition of every branch; the branches share one row
    # memo, as in a search
    rows = _ProductRows(ctx)
    branches = additions = kept_total = 0
    for tables, (members, own, coll, foc) in admissible_branches(level, ctx):
        cand = _candidate_bits(own, coll, foc, ctx)
        kept = _pool_maps(_one_step_filter(cand, members, coll, rows), ctx)
        exact = exact_additions(members, coll, foc, tables, ctx)
        assert exact.keys() <= set(kept), sorted(exact.keys() - set(kept))
        branches += 1
        additions += len(exact)
        kept_total += len(kept)
    return branches, additions, kept_total


def test_filter_keeps_every_exact_addition_at_four_states(monkeypatch):
    ctx = _context(4)
    assert filter_census(initial_level(4), ctx) == (6, 45, 45)
    assert filter_census(four_state_level_two(monkeypatch), ctx) == (25, 127, 127)


def test_filter_keeps_every_exact_addition_at_five_states():
    assert filter_census(initial_level(5), _context(5)) == (22, 1706, 1706)


@pytest.mark.parametrize(
    "args, kwargs, opened",
    [
        ((5, 72), {"max_letters": 2}, 374),
        ((5, 68), {"max_letters": 2}, 602),
        ((5, 65), {"max_letters": 2}, 763),
        ((5, 60), {"max_letters": 2}, 763),
        ((6, 600), {"max_letters": 1}, 41),
    ],
    ids=["n5-t72", "n5-t68", "n5-t65", "n5-t60", "n6-t600"],
)
def test_row_filter_matches_the_reference_on_every_open_branch(monkeypatch, args, kwargs, opened):
    # every branch the search leaves open, with the search's own row
    # memo; the reference also reads the branch's focused pairs, ORed
    # here from its members' masks
    calls = []

    def checked(cand, members, coll, rows):
        got = _one_step_filter(cand, members, coll, rows)
        masks = bsf_masks(rows.ctx.n)
        foc = reduce(or_, (masks[x][1] for x in members))
        expected = one_step_filter(_pool_maps(cand, rows.ctx), members, coll, foc, rows.ctx)
        assert _pool_maps(got, rows.ctx) == expected
        calls.append(members)
        return got

    monkeypatch.setattr(search_module, "_one_step_filter", checked)
    search_max(*args, **kwargs)
    assert len(calls) == opened


@pytest.fixture(scope="module")
def product_rows():
    # one row memo per state count, shared by the drawn branches: rows
    # depend on the member map alone, never on the branch
    return {n: _ProductRows(_context(n)) for n in (4, 5, 6)}


@settings(deadline=None, max_examples=80)
@given(data=st.data(), n=st.sampled_from((4, 5, 6)))
def test_row_filter_matches_the_reference_on_drawn_branches(product_rows, data, n):
    ctx = _context(n)
    letters = data.draw(st.lists(st.sampled_from(ctx.pool), min_size=1, max_size=2, unique=True))
    closed = _close_all_admissible(letters, ctx)
    if closed is None:
        return
    members, own, coll, foc = closed
    rows = product_rows[n]
    # the stage-one candidates, and every pool map outside the branch,
    # where a clash with the branch's own masks must also kill
    outside = ctx.pool_bits & ~pool_positions(members, ctx)
    for cand in (_candidate_bits(own, coll, foc, ctx), outside):
        maps = _pool_maps(cand, ctx)
        expected = one_step_filter(maps, members, coll, foc, ctx)
        assert _pool_maps(_one_step_filter(cand, members, coll, rows), ctx) == expected
        # the branch's masks enter the reference through two whole-pool
        # rules, and either rule alone gives the same survivors (module
        # docstring), so the routine keeps only the one for the pairs
        # the branch collides
        assert one_step_filter(maps, members, 0, foc, ctx) == expected
        assert one_step_filter(maps, members, coll, 0, ctx) == expected


# ------------------------------------------- stage one and case analysis


def mask_candidates(members, coll, foc, ctx):
    """Reference stage one: walk the pool and keep each map outside the
    branch whose masks clash with none of the branch's."""
    masks = bsf_masks(ctx.n)
    out = []
    for t in ctx.pool:
        if t in members:
            continue
        tc, tf = masks[t]
        if not (coll | tc) & (foc | tf):
            out.append(t)
    return out


def leaf_verdict(x_size, x_in_vsf, x_in_wsf, sigs, n_bits, target, vsf_closed, wsf_closed, use_count):
    """Reference case analysis: for each side choice, rescan a Counter of
    candidate signatures (colliding mask, focused mask, in the
    injective-off-sink family, in the collapsing family)."""
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


def reference_verdict(candidates, members, target, use_count, ctx):
    vsf, wsf = ctx.vsf_elements, ctx.wsf_elements
    masks = bsf_masks(ctx.n)
    sigs = Counter((*masks[t], t in vsf, t in wsf) for t in candidates)
    return leaf_verdict(
        len(members),
        members <= vsf,
        members <= wsf,
        sigs,
        len(pair_index(ctx.n).pairs),
        target,
        target >= len(vsf),
        target >= len(wsf),
        use_count,
    )


@lru_cache(maxsize=None)
def pair_columns(n):
    """Per interior pair bit, the pool maps colliding it and the pool
    maps focusing it, each from its own scan of the pool's masks."""
    ctx = _context(n)

    def where(test):
        return _bits((i for i, t in enumerate(ctx.pool) if test(t)), len(ctx.pool))

    pairs = range(len(pair_index(n).pairs))
    masks = bsf_masks(n)
    colliders = tuple(where(lambda t: masks[t][0] >> b & 1) for b in pairs)
    focusers = tuple(where(lambda t: masks[t][1] >> b & 1) for b in pairs)
    return colliders, focusers


def breadth_first_verdict(cand, own, size, target, use_count, ctx):
    """Reference case analysis, breadth first: build the survivor set of
    every side choice from the per-pair scans, then read each one,
    confinement first."""
    in_v = target >= len(ctx.vsf_elements) and not own & ctx.not_v
    in_w = target >= len(ctx.wsf_elements) and not own & ctx.not_w
    need = target - size
    survivors = [cand]
    for colliders, focusers in zip(*pair_columns(ctx.n)):
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


@pytest.mark.parametrize("n", (4, 5, 6))
def test_mask_columns_match_a_scan_per_pair(n):
    # the keep sets are the complements, within the pool, of the scans
    ctx = _context(n)
    colliders, focusers = pair_columns(n)
    assert ctx.keep_by_bit == tuple(
        (ctx.pool_bits & ~c, ctx.pool_bits & ~f) for c, f in zip(colliders, focusers)
    )


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_no_pool_map_both_collides_and_focuses_a_pair(n):
    # stage one relies on it: only the branch's masks can clash with a
    # candidate's
    ctx = _context(n)
    assert not any(ctx.bsf[t][0] & ctx.bsf[t][1] for t in ctx.pool)
    assert ctx.pool_bits.bit_count() == len(ctx.pool)


def assert_branch_matches_references(closed, target, use_count, ctx):
    members, own, coll, foc = closed
    bits = _candidate_bits(own, coll, foc, ctx)
    candidates = mask_candidates(members, coll, foc, ctx)
    assert _pool_maps(bits, ctx) == candidates
    assert bits.bit_count() == len(candidates)
    got = _leaf_verdict(bits, own, len(members), target, use_count, ctx)
    assert got == reference_verdict(candidates, members, target, use_count, ctx)
    assert got == breadth_first_verdict(bits, own, len(members), target, use_count, ctx)
    return got


@pytest.mark.parametrize(
    "args, kwargs, census",
    [
        ((4,), {}, {"terminal": 5}),
        ((5,), {}, {"terminal": 18, "pruned": 2}),
        ((6,), {}, {"terminal": 54, "pruned": 11}),
        # the largest pool, 14,929 maps, for stage one's bit per member
        ((7,), {}, {"terminal": 144, "pruned": 29}),
        ((5, 72), {"max_letters": 2}, {"terminal": 94, "pruned": 79, None: 374}),
    ],
    ids=["n4", "n5", "n6", "n7", "n5-t72-l2"],
)
def test_bitsets_match_the_references_on_every_searched_branch(monkeypatch, args, kwargs, census):
    # every branch the search judges, with the search's own target and
    # pruning flag: the bitset stage one must decode to the reference
    # list, in pool order, and the bitset verdict must be the reference's;
    # both references read the members of the branch's closure
    closures = []
    stage_ones = []
    verdicts = Counter()

    def closing(letters, ctx):
        closed = _close_all_admissible(letters, ctx)
        closures.append(closed)
        return closed

    def stage_one(own, coll, foc, ctx):
        members, branch_own, _, _ = closures[-1]
        assert own == branch_own
        stage_ones.append(members)
        bits = _candidate_bits(own, coll, foc, ctx)
        assert _pool_maps(bits, ctx) == mask_candidates(members, coll, foc, ctx)
        return bits

    def verdict(cand, own, size, target, use_count, ctx):
        members, branch_own, _, _ = closures[-1]
        assert (own, size) == (branch_own, len(members))
        got = _leaf_verdict(cand, own, size, target, use_count, ctx)
        assert got == reference_verdict(_pool_maps(cand, ctx), members, target, use_count, ctx)
        verdicts[got] += 1
        return got

    monkeypatch.setattr(search_module, "_close_all_admissible", closing)
    monkeypatch.setattr(search_module, "_candidate_bits", stage_one)
    monkeypatch.setattr(search_module, "_leaf_verdict", verdict)
    r = search_max(*args, **kwargs)
    assert len(stage_ones) == r.stats.visited - r.stats.rejected_selections
    # branches the count prune ends never reach the case analysis
    assert verdicts == census


def test_case_analysis_keeps_a_side_choice_with_exactly_the_needed_survivors():
    """The case analysis's count rule kills a side choice only when it
    keeps fewer candidates than the branch still needs.  On the level-1
    branch of the letter 1 2 3 5 2 5 at n = 6, 33 members with 610
    candidates and no family cutoff below 501, the verdict is open at
    target 487 and pruned at 488: some choice keeps exactly the 454
    candidates that 487 needs and none keeps more.  Turning < into <= in
    _leaf_verdict's count rule prunes at 487 as well, and fails here."""
    ctx = _context(6)
    letters = (bytes((1, 2, 3, 5, 2, 5)),)
    assert letters in initial_level(6)
    closed = _close_all_admissible(letters, ctx)
    members, own, coll, foc = closed
    assert (len(members), _candidate_bits(own, coll, foc, ctx).bit_count()) == (33, 610)
    assert assert_branch_matches_references(closed, 487, True, ctx) is None
    assert assert_branch_matches_references(closed, 488, True, ctx) == "pruned"


def test_set_aside_count_dead_choices_are_searched_for_a_confined_one():
    """The depth-first case analysis sets a count-dead node aside and
    reads confinement below it only when the walk meets no confined
    node.  On the level-1 branch of the letter 1 2 3 5 5 5 at n = 6, 27
    members with 744 candidates at the paper's target 629, every
    confined side choice lies under a count-dead node, so only that
    search makes the branch terminal: a walk that skips it says
    "pruned"."""
    ctx = _context(6)
    letters = (bytes((1, 2, 3, 5, 5, 5)),)
    assert letters in initial_level(6)
    closed = _close_all_admissible(letters, ctx)
    members, own, coll, foc = closed
    cand = _candidate_bits(own, coll, foc, ctx)
    assert (len(members), cand.bit_count()) == (27, 744)
    # the family cutoff applies to the injective-off-sink family alone
    assert 629 >= len(ctx.vsf_elements) and not own & ctx.not_v and own & ctx.not_w
    need = 629 - len(members)
    colliders, focusers = pair_columns(6)
    sides = [(~c, ~f) for c, f in zip(colliders, focusers) if cand & c and cand & f]
    # every node of the choice tree, with whether an ancestor or itself
    # is count-dead
    confined = []
    nodes = [(cand, 0, False)]
    while nodes:
        s, k, dead = nodes.pop()
        dead = dead or s.bit_count() < need
        if not s & ctx.not_v:
            confined.append(dead)
        if k < len(sides):
            nodes += [(s & keep, k + 1, dead) for keep in sides[k]]
    assert confined and all(confined)
    assert assert_branch_matches_references(closed, 629, True, ctx) == "terminal"


@settings(deadline=None, max_examples=120)
@given(data=st.data(), n=st.sampled_from((4, 5, 6)), use_count=st.booleans())
def test_bitsets_match_the_references_on_drawn_branches_and_targets(data, n, use_count):
    ctx = _context(n)
    letters = data.draw(st.lists(st.sampled_from(ctx.pool), min_size=1, max_size=2, unique=True))
    closed = _close_all_admissible(letters, ctx)
    if closed is None:
        return
    # targets on both sides of the family sizes, where the cutoff turns on
    target = data.draw(st.integers(1, max(len(ctx.vsf_elements), len(ctx.wsf_elements)) + 5))
    assert_branch_matches_references(closed, target, use_count, ctx)


ORACLE_SEARCHES = [
    ((4,), {}),
    ((5,), {}),
    ((6,), {}),
    ((7,), {}),
    ((5, 72), {"max_letters": 2}),
    ((5, 65), {"max_letters": 2}),
    ((5, 60), {"max_letters": 3}),
    ((6, 500), {"max_letters": 2}),
    ((4, 3), {"prune": False}),
]


def judged_labels(monkeypatch, searches):
    # the case analysis of every branch the searches judge, checked
    # against the breadth-first oracle: the labels it gave
    labels = Counter()

    def verdict(cand, own, size, target, use_count, ctx):
        got = _leaf_verdict(cand, own, size, target, use_count, ctx)
        assert got == breadth_first_verdict(cand, own, size, target, use_count, ctx)
        labels[got] += 1
        return got

    monkeypatch.setattr(search_module, "_leaf_verdict", verdict)
    for args, kwargs in searches:
        search_max(*args, **kwargs)
    return labels


@pytest.mark.parametrize(
    "args, kwargs",
    ORACLE_SEARCHES,
    ids=["n4", "n5", "n6", "n7", "n5-t72-l2", "n5-t65-l2", "n5-t60-l3", "n6-t500-l2", "n4-t3-off"],
)
def test_depth_first_case_analysis_matches_the_breadth_first_oracle(monkeypatch, args, kwargs):
    assert judged_labels(monkeypatch, [(args, kwargs)])


def test_depth_first_case_analysis_matches_the_breadth_first_oracle_at_every_four_state_target(
    monkeypatch,
):
    searches = [((4, t), {"prune": prune}) for t in range(1, 14) for prune in (True, False)]
    labels = judged_labels(monkeypatch, searches)
    # no four-state branch ends on counts alone in the case analysis
    assert labels == {None: 1540, "terminal": 74}


@pytest.mark.parametrize(
    "n, census",
    [
        (5, {None: 198, "terminal": 60, "pruned": 6}),
        (6, {None: 595, "terminal": 185, "pruned": 60}),
        (7, {None: 1755, "terminal": 445, "pruned": 260}),
    ],
)
def test_depth_first_case_analysis_matches_the_breadth_first_oracle_on_level_one(n, census):
    # every level-1 branch, at targets around the paper's and far below
    # it, with and without the count rule
    ctx = _context(n)
    paper = max(len(ctx.vsf_elements), wsf_bound(n))
    labels = Counter()
    for letters in initial_level(n):
        members, own, coll, foc = _close_all_admissible(letters, ctx)
        cand = _candidate_bits(own, coll, foc, ctx)
        for target in (paper, paper - 1, paper - 5, paper - 50, paper + 1, 10):
            for use_count in (True, False):
                args = (cand, own, len(members), target, use_count, ctx)
                got = _leaf_verdict(*args)
                assert got == breadth_first_verdict(*args), (letters, target, use_count)
                labels[got] += 1
    assert labels == census


# ------------------------------------------------------------ the search


def test_search_rejects_out_of_range_sizes():
    with pytest.raises(ValueError):
        search_max(3)
    with pytest.raises(ValueError, match="4 <= n <= 8"):
        search_max(9)


@pytest.mark.parametrize("target", [0, -1])
def test_search_rejects_a_target_below_one(target):
    with pytest.raises(ValueError, match="target must be positive"):
        search_max(4, target)


def test_search_four_state_maximum_is_the_injective_family():
    r = search_max(4)
    assert r.target == 13
    assert r.max_size_found == 13
    assert r.others == ()
    assert r.uniqueness_confirmed
    assert r.stats.level_sizes == (6,)
    assert r.stats.visited == 6
    assert r.stats.selections == 6
    kinds = {c.kind: c.size for c in r.confirmations}
    assert kinds == {"vsf": 13}
    assert report_digest(r) == "19737ca642ec168624432532bc08499d8524b86fe7f51027aefeb9188cd5dc72"
    (rec,) = r.confirmations
    assert closure(list(rec.letters)).size == 13


def test_search_four_state_unpruned_agrees():
    pruned = search_max(4)
    full = search_max(4, prune=False)
    assert full.max_size_found == pruned.max_size_found == 13
    assert full.others == pruned.others == ()
    # the family-containment rule, not the counting bound, closes every
    # branch here: with pruning off nothing is cut by the bound yet the
    # tree still ends at the first level
    assert full.stats.level_sizes == (6,)
    assert full.stats.pruned_selections == 0
    assert full.stats.terminal_selections == 6
    assert full.uniqueness_confirmed


@pytest.mark.parametrize(
    "target, others",
    zip(range(1, 14), (36, 36, 36, 36, 36, 34, 29, 24, 17, 10, 4, 1, 0)),
)
def test_pruning_changes_no_four_state_verdict(target, others):
    # the bound may only cut branches that cannot reach the target
    on = search_max(4, target)
    off = search_max(4, target, prune=False)
    assert on.max_size_found == off.max_size_found == 13
    assert on.others == off.others
    assert len(on.others) == others
    assert on.uniqueness_confirmed == off.uniqueness_confirmed == (target == 13)


@pytest.mark.parametrize("target", (60, 62, 64, 66, 68, 70, 72))
def test_count_prunes_change_no_five_state_verdict(target):
    # both count prunes, stage one's and the case analysis's, checked on
    # verdicts rather than pinned bytes: on two-letter branches, where
    # both cut, the search must find the same semigroups with them off.
    # They fire only near the maximum, where few semigroups reach the
    # target, so a prune off by a few elements can still pass
    on = search_max(5, target, max_letters=2)
    off = search_max(5, target, max_letters=2, prune=False)
    assert on.max_size_found == off.max_size_found == 73
    assert on.others == off.others


@pytest.mark.parametrize("target, others", [(72, []), (60, [(60, 3), (61, 2), (64, 3), (64, 3)])])
def test_count_prunes_change_no_three_letter_verdict(target, others):
    # a third letter gives the count prunes semigroups just short of the
    # target to cut: a prune a few elements too eager drops the level-3
    # semigroup of size 60, or leaves no irreducible candidate at the
    # letter cap, which the two-letter differential above cannot see
    on = search_max(5, target, max_letters=3)
    off = search_max(5, target, max_letters=3, prune=False)
    assert on.max_size_found == off.max_size_found == 73
    assert on.others == off.others
    assert [(r.size, r.level) for r in on.others] == others
    assert on.stats.capped and off.stats.capped


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_count_prune_never_cuts_a_level_one_branch_inside_the_maximal_family(n):
    """At the paper's target, no level-1 branch judged "pruned" closes
    inside the maximal family M: v_sf for n <= 5, w_sf from n = 6 on.
    M is closed and consistent, so for a branch closure X inside M, M \\ X
    lies among the branch's candidates, and |X| + |cand| >= |M| = target.
    The check has power because the count rule does cut branches here
    (1, 4, 16 and 61 for n = 4 to 7): with < turned into <= in _judge's
    count rule it fails.  The same mutant in _leaf_verdict leaves every
    level-1 outcome unchanged at these targets, so this check cannot see
    that one; the test of a side choice with exactly the needed
    survivors does."""
    ctx = _context(n)
    family = ctx.vsf_elements if n <= 5 else ctx.wsf_elements
    target = max(len(ctx.vsf_elements), wsf_bound(n))
    assert len(family) == target
    rows = _ProductRows(ctx)
    pruned = [letters for letters in initial_level(n) if _judge(letters, target, True, rows)[0] == "pruned"]
    assert pruned
    for letters in pruned:
        members, _, _, _ = _close_all_admissible(letters, ctx)
        assert not members <= family, letters


def test_search_five_state_maximum_is_the_injective_family():
    r = search_max(5)
    assert r.target == 73
    assert r.max_size_found == 73
    assert r.others == ()
    assert r.uniqueness_confirmed
    assert r.stats.level_sizes == (22,)
    assert r.stats.selections == 22
    kinds = {c.kind: c.size for c in r.confirmations}
    assert kinds == {"vsf": 73}
    assert report_digest(r) == "667facc440d317325b69ba92ad20ebb86f1c06263f08a0ac6712e260daac0d63"


def closed_extremes(n, target):
    # reference: close both families' generators on every call and keep
    # the ones reaching the target
    out = []
    for kind, letters in (("vsf", vsf_generators(n)), ("wsf", witness_letters(n)[1])):
        size = closure(list(letters)).size
        if size >= target:
            out.append(SemigroupRecord(kind=kind, size=size, letters=tuple(letters), level=None))
    return tuple(out)


@pytest.mark.parametrize("target, kinds", [(72, ("vsf",)), (73, ("vsf",)), (74, ())])
def test_confirmed_extremes_match_closing_both_families(target, kinds):
    got = search_max(5, target, max_letters=2).confirmations
    assert got == closed_extremes(5, target)
    assert tuple(r.kind for r in got) == kinds


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_confirmations_at_the_default_target_match_closing_both_families(n):
    r = search_max(n)
    assert r.confirmations == closed_extremes(n, r.target)


@pytest.mark.parametrize(
    "n, kind, size",
    [
        (4, "vsf", 13),
        (4, "wsf", 11),
        (5, "vsf", 73),
        (5, "wsf", 67),
        (6, "vsf", 501),
        (6, "wsf", 629),
        (7, "vsf", 4051),
        (7, "wsf", 7781),
    ],
)
def test_confirmation_letters_generate_their_family(n, kind, size):
    # the search reports each family from the context's set with these
    # letters: they must close to exactly that set, which is consistent,
    # and realize it as a suffix-free DFA
    ctx = _context(n)
    if kind == "vsf":
        letters = vsf_generators(n)
        names = tuple(f"g{i}" for i in range(len(letters)))
        family = ctx.vsf_elements
        # v_sf by its definition: the b_sf maps injective off the sink
        assert family == {
            t for t in bsf_raw(n) if len(t) - t.count(n - 1) == len(set(t) - {n - 1})
        }
    else:
        names, letters = witness_letters(n)
        family = ctx.wsf_elements
    sg = closure(list(letters))
    assert sg.raw_set == family
    assert sg.size == size
    assert consistent(sg)
    dfa = Dfa(n=n, letters=names, delta=letters, initial=0, finals=frozenset({1}))
    assert suffix_free_violation(dfa) is None


def test_search_five_state_below_target_pins_every_count():
    # one under the maximum the search reaches level 2, where the case
    # analysis and the candidate filter run on two-letter branches; a
    # wrong canonical form would change the level sizes and every count
    # after them.  The level past the cap is not built, so extensions
    # counts level 2 alone
    r = search_max(5, 72, max_letters=2)
    assert r.max_size_found == 73
    assert r.others == ()
    assert r.stats.capped
    assert not r.uniqueness_confirmed
    assert r.stats.visited == 655
    assert r.stats.selections == 655
    assert r.stats.rejected_selections == 0
    assert r.stats.terminal_selections == 94
    assert r.stats.pruned_selections == 187
    assert r.stats.pruned == 281
    assert r.stats.extensions == 633
    assert r.stats.level_sizes == (22, 633)
    assert report_digest(r) == "8c0e0565eb4e6353337740ebe9c6048bc95751e4c180d4e33e235c866ffd2915"


@pytest.mark.parametrize(
    "target, visited, digest",
    [
        (65, 763, "5330f1014cf78377b5f7f309edea8b1442790501f7c228c2d0efded5ef5539bb"),
        (68, 756, "ad95f955f4316f2b80fa90e9b0a6ad76b08faed44717a9a095e17e2ac26ec867"),
    ],
)
def test_search_five_state_low_targets_pin_the_count_check(target, visited, digest):
    # at these targets the case analysis's count check decides branches
    # whose survivors reach the target exactly, so closing a choice at
    # equality instead would change both reports
    r = search_max(5, target, max_letters=2)
    assert r.max_size_found == 73
    assert r.stats.capped
    assert r.stats.visited == visited
    assert report_digest(r) == digest


def consistent_members(members) -> bool:
    # no interior pair both colliding and focused, by the brute-force rules
    coll = {pair for x in members for pair in colliding_pairs(x)}
    foc = {(p, q) for x in members for p, q, _ in focusing_triples(x)}
    return not coll & foc


@lru_cache(maxsize=None)
def five_state_two_letter_oracle():
    """Per level-1 class a of n = 5, the (size, canonical members) of
    every closure of a alone or of a with one pool map g, each with all
    semiconstants, that stays in b_sf, is consistent and is neither
    v_sf(5) nor w_sf(5): the others a two-letter search may report."""
    n = 5
    ctx = _context(n)
    families = (ctx.vsf_elements, ctx.wsf_elements)
    oracle = {}
    for branch in initial_level(n):
        keys = set()
        for letters in [branch, *((*branch, g) for g in ctx.pool)]:
            closed = scratch_branch_closure(letters, ctx)
            if closed is None:
                continue  # left b_sf
            members = closed[0]
            if members in families or not consistent_members(members):
                continue
            keys.add((len(members), brute_canonical_letters(members, n)))
        oracle[branch] = frozenset(keys)
    return oracle


def test_below_target_searches_match_the_two_letter_oracle_at_every_target(monkeypatch):
    """Below the maximum, at every target from 1 to 74, a five-state
    two-letter search reports exactly the oracle's others at or above
    the target, and no level-1 branch it closes as pruned or terminal
    has an oracle extension at or above the target."""
    oracle = five_state_two_letter_oracle()
    classes = frozenset().union(*oracle.values())
    assert len(oracle) == 22 and len(classes) == 606
    judge = search_module._judge

    @lru_cache(maxsize=None)  # the same others recur from target to target
    def reclosed(letters):
        members, _, _, _ = scratch_branch_closure([bytes(t.images) for t in letters], _context(5))
        return len(members), brute_canonical_letters(members, 5)

    closed_total = 0
    for target in range(1, 75):
        level_one = {}

        def recording(letters, *rest):
            verdict = judge(letters, *rest)
            if len(letters) == 1:
                level_one[letters] = verdict[0]
            return verdict

        with monkeypatch.context() as patched:
            patched.setattr(search_module, "_judge", recording)
            r = search_max(5, target, max_letters=2)
        reported = {reclosed(rec.letters) for rec in r.others}
        assert len(reported) == len(r.others), target
        assert reported == {key for key in classes if key[0] >= target}, target
        assert level_one.keys() == oracle.keys()
        closed = [a for a, outcome in level_one.items() if outcome in ("pruned", "terminal")]
        for branch in closed:
            assert all(size < target for size, _ in oracle[branch]), (target, branch)
        closed_total += len(closed)
    assert closed_total == 80


def test_no_letter_form_memo_survives_a_search(monkeypatch):
    created = []

    class Tracked(search_module._LetterForms):
        def __init__(self):
            super().__init__()
            created.append(weakref.ref(self))

    monkeypatch.setattr(search_module, "_LetterForms", Tracked)
    # level 2 is reached, so extensions are canonicalized through the memo
    r = search_max(4, target=3, prune=False, max_letters=2)
    assert r.stats.level_sizes[1:] and r.stats.extensions
    gc.collect()
    assert created
    assert all(ref() is None for ref in created)


def track_product_rows(monkeypatch):
    # the product-row memos one search creates, the maps whose rows it
    # fills, and the length of each pool-table build
    created, filled, builds = [], [], []
    build = search_module._ProductRows.pool_tables.func

    class Tracked(search_module._ProductRows):
        def __init__(self, ctx):
            super().__init__(ctx)
            created.append(weakref.ref(self))

        def __missing__(self, x):
            filled.append(x)
            return super().__missing__(x)

        @cached_property
        def pool_tables(self):
            tables = build(self)
            builds.append(len(tables))
            return tables

    monkeypatch.setattr(search_module, "_ProductRows", Tracked)
    return created, filled, builds


def test_no_product_row_memo_survives_a_search(monkeypatch):
    created, filled, builds = track_product_rows(monkeypatch)
    # level 1 leaves branches open, so the filter fills the memo, and
    # the pool's tables are built once, with its first row
    r = search_max(4, target=3, prune=False, max_letters=2)
    assert r.stats.level_sizes[1:]
    assert builds == [len(_context(4).pool)]
    gc.collect()
    assert created and filled
    # the tables are held by the memo alone, so they go with it
    assert all(ref() is None for ref in created)


def test_a_search_that_leaves_no_branch_open_builds_no_pool_table(monkeypatch):
    created, filled, builds = track_product_rows(monkeypatch)
    r = search_max(6)
    assert r.stats.level_sizes == (70,)
    assert len(created) == 1 and not filled and not builds


def test_search_result_json_shape():
    # the report holds no timing: the statistics' timing fields reach
    # the CLI output through the result's timings alone
    r = search_max(4)
    doc = r.to_json()
    text = json.dumps(doc)  # must be serializable as-is
    for key in ("wall_time_s", "level_wall_s", "level_judge_s", "timing"):
        assert key not in text
    assert doc["n"] == 4
    assert doc["target"] == 13
    assert doc["uniqueness_confirmed"] is True
    levels = len(r.stats.level_sizes)
    assert list(r.timings) == [
        *(key for k in range(1, levels + 1) for key in (f"level {k}", f"level {k} judging")),
        "search",
    ]
    assert r.timings["search"] == r.stats.wall_time_s


def test_importing_the_package_loads_no_process_pool():
    # the search runs in the calling process, so a fresh interpreter
    # importing sfsyn pulls in neither multiprocessing nor
    # concurrent.futures
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, sfsyn; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


def test_letter_cap_disables_the_uniqueness_claim():
    # a target below both family sizes keeps every branch open, so the
    # cap actually bites after the first level
    r = search_max(4, target=3, prune=False, max_letters=1)
    assert r.stats.capped
    assert r.stats.visited == 6
    assert not r.uniqueness_confirmed
    # the known families are still confirmed directly
    assert r.max_size_found == 13
    with pytest.raises(ValueError):
        search_max(4, max_letters=0)


# the level-1 branch on 6 states whose extensions include semigroups of
# 545 maps; search_max(6, 500, max_letters=2) finds them among all 70
FIVE_FORTY_FIVE_BRANCH = (bytes.fromhex("050101020305"),)


def test_an_other_of_more_than_255_members_is_reported(monkeypatch):
    # a report key with its size in one byte overflowed past 255 members
    monkeypatch.setattr(search_module, "initial_level", lambda n: (FIVE_FORTY_FIVE_BRANCH,))
    r = search_max(6, 545, max_letters=2)
    assert r.stats.level_sizes == (1, 572)
    assert [(o.kind, o.size, o.level) for o in r.others] == [("other", 545, 2)]
    assert r.max_size_found == 629
    assert not r.uniqueness_confirmed


def test_search_six_state_maximum_is_the_collapsing_family():
    r = search_max(6)
    assert r.target == wsf_bound(6) == 629
    assert r.max_size_found == 629
    assert r.others == ()
    assert r.uniqueness_confirmed
    # every branch closes on the first level: the case analysis either
    # confines it to a confirmed family or counts it out
    assert r.stats.level_sizes == (70,)
    assert r.stats.visited == 70
    assert r.stats.selections == 70
    kinds = {c.kind: c.size for c in r.confirmations}
    assert kinds == {"wsf": 629}
    assert report_digest(r) == "b94e812c2001613f5181f46b6b38380a4306b68c6d8aab7955eebff8b8e10305"


def test_search_seven_state_maximum_is_the_collapsing_family():
    r = search_max(7)
    assert r.target == wsf_bound(7) == 7781
    assert r.max_size_found == 7781
    assert r.others == ()
    assert r.uniqueness_confirmed
    assert r.stats.level_sizes == (205,)
    assert r.stats.terminal_selections == 144
    assert r.stats.pruned_selections == 61
    assert r.stats.rejected_selections == 0
    assert {c.kind: c.size for c in r.confirmations} == {"wsf": 7781}


def test_reported_others_are_distinct_under_every_state_permutation():
    # others are told apart by the pointed form of their members; on
    # semigroups holding every semiconstant that must agree with the
    # form over all n! permutations, so no two reports are isomorphic
    r = search_max(4, 1)
    semis = list(_context(4).semiconstants)
    classes = set()
    for rec in r.others:
        gens = [bytes(t.images) for t in rec.letters] + semis
        members = close_raw(gens, [raw_table(g) for g in gens])
        classes.add(tuple(full_class(members, 4)))
    assert len(r.others) == len(classes) == 36


def test_search_enumeration_matches_brute_force():
    # independent oracle for the whole pipeline: close every subset of
    # the four-state pool directly and compare, up to relabeling, with
    # what a low-target unpruned search reports
    n = 4
    ctx = _context(n)
    pool = [Transformation(tuple(t)) for t in ctx.pool]
    semis = [Transformation(tuple(t)) for t in ctx.semiconstants]
    def canon_key(sg):
        return _canonical_letters(sorted(sg.raw))

    expected = {}
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            sg = closure(list(combo) + semis)
            if not sg.raw_set <= bsf_raw(n):
                continue
            if not consistent(sg):
                continue
            if sg.size >= 3:
                expected.setdefault(canon_key(sg), sg.size)
    assert len(expected) == 38

    r = search_max(4, target=3, prune=False)
    got = {}
    for rec in r.others + r.confirmations:
        sg = closure(list(rec.letters) + semis)
        got.setdefault(canon_key(sg), sg.size)
    assert got == expected
