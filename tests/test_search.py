"""Canonical semiautomata, the search's candidate filter against the
exact-additions oracle, and the maximality search."""
import gc
import hashlib
import itertools
import json
import os
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sfsyn.transform import Transformation
from sfsyn.semigroup import (
    close_raw,
    closure,
    enumerate_bsf,
    enumerate_wsf,
    in_bsf,
    is_irreducibly_generated,
    raw_table,
    semiconstant_family,
    vsf_generators,
    wsf_bound,
)
from sfsyn.collisions import colliding_pairs, focused_triples, verify_suffix_free_consistency
from sfsyn.dfa import Semiautomaton, witness
import sfsyn.search as search_module
from sfsyn.search import (
    _canonical_letters,
    _close_all_admissible,
    _conjugate,
    _context,
    _fingerprint,
    _mask_candidates,
    _masks_of,
    _one_step_filter,
    canonicalize,
    initial_level,
    load_checkpoint,
    parse_fingerprint,
    save_checkpoint,
    search_max,
)


def conjugated(t: Transformation, perm) -> Transformation:
    out = [0] * t.n
    for q in range(t.n):
        out[perm[q]] = perm[t.images[q]]
    return Transformation(out)


def raw_maps(n):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(bytes)


def report_digest(result) -> str:
    doc = result.to_json(include_timing=False)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def pointed(interior, n):
    # the state permutation fixing 0 and n-1 that moves the interior
    # states as the given permutation of 1..n-2 does
    return (0, *interior, n - 1)


def brute_canonical_letters(letters, n):
    # reference: the least sorted conjugate tuple, scanning all (n-2)!
    # permutations of the interior states
    best = None
    for interior in itertools.permutations(range(1, n - 1)):
        cand = sorted(_conjugate(t, pointed(interior, n)) for t in letters)
        if best is None or cand < best:
            best = cand
    return tuple(best)


def full_class(members, n):
    # the least sorted conjugate tuple over all n! state permutations
    return min(
        sorted(_conjugate(t, perm) for t in members)
        for perm in itertools.permutations(range(n))
    )


# --------------------------------------------------------- canonical form


def test_canonicalize_idempotent():
    sa = canonicalize([Transformation((1, 3, 3, 3)), Transformation((3, 1, 2, 3))])
    again = canonicalize(sa.letters)
    assert again == sa
    assert again.fingerprint == sa.fingerprint


def test_canonicalize_accepts_semiautomaton():
    letters = tuple(witness(5).delta)
    plain = canonicalize(letters)
    wrapped = canonicalize(Semiautomaton(5, ("a", "b", "c", "d", "e"), letters))
    assert wrapped == plain


def test_canonical_letters_are_sorted():
    sa = canonicalize([Transformation((3, 1, 2, 3)), Transformation((1, 3, 3, 3))])
    images = [t.images for t in sa.letters]
    assert images == sorted(images)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.sampled_from((4, 6, 7, 8)))
def test_canonicalize_invariant_under_relabeling(data, n):
    maps = st.builds(Transformation, st.tuples(*[st.integers(0, n - 1)] * n))
    letters = data.draw(st.lists(maps, min_size=1, max_size=3))
    perm = pointed(data.draw(st.permutations(range(1, n - 1))), n)
    direct = canonicalize(letters)
    relabeled = canonicalize([conjugated(t, perm) for t in reversed(letters)])
    assert relabeled.fingerprint == direct.fingerprint


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
    fps = {
        canonicalize([Transformation((a, b, c))]).fingerprint
        for a in range(3)
        for b in range(3)
        for c in range(3)
    }
    assert len(fps) == 27
    fps = {canonicalize([Transformation(t)]).fingerprint for t in itertools.product(range(4), repeat=4)}
    assert len(fps) == 136


def test_canonicalize_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([Transformation((1, 3, 3, 3)), Transformation((1, 4, 4, 4, 4))])


def test_fingerprint_roundtrip():
    sa = canonicalize(witness(5).delta)
    back = parse_fingerprint(sa.fingerprint)
    assert back == sa


def test_parse_fingerprint_rejects_bad_bytes():
    with pytest.raises(ValueError):
        parse_fingerprint(b"\x05")
    with pytest.raises(ValueError):
        parse_fingerprint(bytes([4, 2, 1, 3, 3, 3]))  # body shorter than 2 letters
    with pytest.raises(ValueError):
        parse_fingerprint(bytes([4, 1, 1, 3, 9, 3]))  # state out of range
    sa = canonicalize([Transformation((1, 3, 3, 3)), Transformation((3, 1, 2, 3))])
    a, b = sa.letters
    swapped = bytes([4, 2]) + bytes(b.images) + bytes(a.images)
    with pytest.raises(ValueError):
        parse_fingerprint(swapped)  # letters out of order: not canonical


# ------------------------------------------------ exact-additions oracle


def extend_closure(base, coll, foc, t, gen_tables, ctx):
    """Closure of base plus the admissible t, with its pair masks, where
    base (masks coll, foc) is already closed under the generators behind
    gen_tables; None once an element leaves the admissible family.
    Every new element is a product u t v with u in base or empty, so
    the seeds are t and x then t for every x in base."""
    t_table = ctx.tables[t]
    seeds = [t, *(x.translate(t_table) for x in base)]
    fresh = close_raw(seeds, [*gen_tables, t_table], known=base, within=ctx.bsf_set)
    if fresh is None:
        return None
    for y in fresh:
        c, f = ctx.masks[y]
        coll |= c
        foc |= f
    return base.union(fresh), coll, foc


def exact_additions(members, coll, foc, gen_tables, ctx):
    """Every admissible t outside the closed branch whose closure with
    the branch stays admissible with no pair both colliding and
    focused, mapped to the grown colliding and focused masks."""
    out = {}
    for t in sorted(ctx.bsf_set - members):
        grown = extend_closure(members, coll, foc, t, gen_tables, ctx)
        if grown is not None and not grown[1] & grown[2]:
            out[t] = grown[1:]
    return out


def allowed_additions(sg):
    """The transformations outside sg whose addition keeps the closure
    inside the admissible family with no pair both colliding and
    focused, and keeps at least one interior pair free of collisions
    and at least one free of focusing.  The two excluded extremes pin
    the semigroup inside a known maximal family."""
    ctx = _context(sg.n)
    members = frozenset(bytes(e.images) for e in sg.elements)
    coll = foc = 0
    for e in members:
        c, f = _masks_of(e, ctx.pair_bit)
        coll |= c
        foc |= f
    gen_tables = [raw_table(bytes(g.images)) for g in sg.generators]
    return frozenset(
        Transformation(tuple(t))
        for t, (c2, f2) in exact_additions(members, coll, foc, gen_tables, ctx).items()
        if c2 != ctx.all_pairs and f2 != ctx.all_pairs
    )


def test_both_known_families_are_saturated():
    assert allowed_additions(closure(list(vsf_generators(4)))) == frozenset()
    assert allowed_additions(enumerate_wsf(4)) == frozenset()
    assert allowed_additions(closure(list(vsf_generators(5)))) == frozenset()


def test_small_semigroup_leaves_plenty_of_room():
    sg = closure([Transformation((1, 4, 4, 4, 4))])
    assert sg.size == 2
    additions = allowed_additions(sg)
    assert len(additions) == 92
    assert all(in_bsf(t) for t in additions)


def oracle_additions(sg):
    # brute force: keep t when the grown closure stays in the admissible
    # family, stays consistent, and pins down neither extreme
    n = sg.n
    every = {
        (p, q) for p in range(1, n - 1) for q in range(p + 1, n - 1)
    }
    out = set()
    for t in enumerate_bsf(n):
        if t in sg:
            continue
        grown = closure(list(sg.generators) + [t])
        if not all(in_bsf(e) for e in grown.elements):
            continue
        if not verify_suffix_free_consistency(grown):
            continue
        colliding, focused = set(), set()
        for e in grown.elements:
            colliding.update(colliding_pairs(e.images))
            focused.update((p, q) for p, q, _ in focused_triples(e.images))
        if colliding == every or focused == every:
            continue
        out.add(t)
    return frozenset(out)


def test_allowed_additions_against_brute_force():
    for gens in ([(1, 2, 3, 3)], [(2, 1, 3, 3)], [(1, 3, 2, 3), (3, 1, 2, 3)]):
        sg = closure([Transformation(g) for g in gens])
        assert allowed_additions(sg) == oracle_additions(sg)


# ------------------------------------------------------------ closures


def closes_admissibly(letters, ctx) -> bool:
    return close_raw(letters, [raw_table(g) for g in letters], within=ctx.bsf_set) is not None


@pytest.mark.parametrize("n, size, admissible", [(4, 2, 112), (5, 2, 5308), (6, 1, 1169)])
def test_semiconstants_never_decide_admissibility(n, size, admissible):
    # the lemma behind the search's single closure per selection: letters
    # close inside the admissible family exactly when they still do with
    # the whole semiconstant family added
    ctx = _context(n)
    semis = list(ctx.semiconstants)
    closing = 0
    for letters in itertools.combinations_with_replacement(sorted(ctx.bsf_set), size):
        alone = closes_admissibly(list(letters), ctx)
        assert closes_admissibly(list(letters) + semis, ctx) == alone, letters
        closing += alone
    assert closing == admissible


def assert_extension_matches_scratch(letters, t, ctx):
    gens = list(letters) + list(ctx.semiconstants)
    tables = [ctx.tables[g] for g in gens]
    base = _close_all_admissible(gens, tables, ctx)
    if base is None:
        return
    members, coll, foc = base
    grown = extend_closure(members, coll, foc, t, tables, ctx)
    scratch = _close_all_admissible(gens + [t], tables + [ctx.tables[t]], ctx)
    assert grown == scratch


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


# ------------------------------------------------------- level operations


def test_initial_level_counts():
    assert len(initial_level(4)) == 6
    assert len(initial_level(5)) == 22
    assert len(initial_level(6)) == 70


def test_initial_level_covers_exactly_the_pool_classes():
    # every non-semiconstant admissible letter canonicalizes into the
    # level, and each level entry is hit by at least one of them
    semi = set(semiconstant_family(4))
    pool = [t for t in enumerate_bsf(4) if t not in semi]
    level_fps = {sa.fingerprint for sa in initial_level(4)}
    pool_fps = {canonicalize([t]).fingerprint for t in pool}
    assert pool_fps == level_fps


def four_state_level_two(tmp_path):
    search_max(4, target=3, prune=False, max_letters=2, checkpoint_dir=str(tmp_path))
    n, index, level = load_checkpoint(os.path.join(tmp_path, "level_02.txt"))
    assert (n, index) == (4, 2)
    return level


def test_search_level_two_grows_canonically_and_irreducibly(tmp_path):
    level2 = four_state_level_two(tmp_path)
    assert len(level2) == 25
    fps = [sa.fingerprint for sa in level2]
    assert fps == sorted(fps)
    for sa in level2:
        assert len(sa.letters) == 2
        assert parse_fingerprint(sa.fingerprint) == sa
        assert is_irreducibly_generated(sa.letters)


# ------------------------------------------------------- candidate filter


def admissible_branches(level, ctx):
    # every semiautomaton of the level whose letters close admissibly
    # with the semiconstants: its tables and that closure
    for sa in level:
        gens = tuple(bytes(t.images) for t in sa.letters) + ctx.semiconstants
        tables = [ctx.tables[g] for g in gens]
        closed = _close_all_admissible(gens, tables, ctx)
        if closed is not None:
            yield tables, closed


def filter_census(level, ctx):
    # the stage-one candidates and the filter's survivors must keep
    # every exact addition of every branch
    branches = additions = kept_total = 0
    for tables, (members, coll, foc) in admissible_branches(level, ctx):
        candidates = _mask_candidates(members, coll, foc, ctx)
        kept = _one_step_filter(candidates, members, coll, foc, ctx)
        exact = exact_additions(members, coll, foc, tables, ctx)
        assert exact.keys() <= set(kept), sorted(exact.keys() - set(kept))
        branches += 1
        additions += len(exact)
        kept_total += len(kept)
    return branches, additions, kept_total


def test_filter_keeps_every_exact_addition_at_four_states(tmp_path):
    ctx = _context(4)
    assert filter_census(initial_level(4), ctx) == (6, 45, 45)
    assert filter_census(four_state_level_two(tmp_path), ctx) == (25, 127, 127)


def test_filter_keeps_every_exact_addition_at_five_states():
    assert filter_census(initial_level(5), _context(5)) == (22, 1706, 1706)


# ------------------------------------------------------------ the search


def test_search_rejects_out_of_range_sizes():
    with pytest.raises(ValueError):
        search_max(3)
    with pytest.raises(ValueError):
        search_max(8)


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
    (rec,) = r.maximal_semigroups
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


def test_search_result_json_shape():
    r = search_max(4)
    doc = r.to_json(include_timing=False)
    text = json.dumps(doc)  # must be serializable as-is
    assert "wall_time" not in text
    assert doc["n"] == 4
    assert doc["target"] == 13
    assert doc["uniqueness_confirmed"] is True
    timed = r.to_json()
    assert "wall_time_s" in json.dumps(timed)


def test_search_threads_match_single_thread():
    solo = search_max(5, threads=1).to_json(include_timing=False)
    duo = search_max(5, threads=2).to_json(include_timing=False)
    assert solo == duo


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


def test_resuming_past_the_letter_cap_explores_nothing(tmp_path):
    level2 = four_state_level_two(tmp_path)
    r = search_max(
        4, target=3, prune=False, max_letters=1, resume_from=os.path.join(tmp_path, "level_02.txt")
    )
    assert len(level2) == 25
    assert r.stats.capped
    assert r.stats.visited == 0
    assert r.stats.level_sizes == ()
    assert not r.uniqueness_confirmed


def test_checkpoint_roundtrip(tmp_path):
    level = initial_level(4)
    path = os.path.join(tmp_path, "level_03.txt")
    save_checkpoint(path, 3, 4, level)
    n, idx, sas = load_checkpoint(path)
    assert (n, idx) == (4, 3)
    assert tuple(sorted(sas, key=lambda s: s.fingerprint)) == tuple(
        sorted(level, key=lambda s: s.fingerprint)
    )


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = os.path.join(tmp_path, "stray.txt")
    for text in (
        "not a checkpoint\n",
        "# sfsyn-pointed-search level=1\n",
        "# sfsyn-pointed-search n=4\n",
        "# sfsyn-pointed-search level=one n=4\n",
        "# sfsyn-pointed-search level n=4\n",
        "# sfsyn-pointed-search level=1 n=8\n",
    ):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_checkpoint_of_full_permutation_classes_is_refused(tmp_path):
    # a level of the earlier search, which took letters up to every
    # state permutation, must not resume as a partial pointed level
    path = os.path.join(tmp_path, "level_01.txt")
    fps = "\n".join(sa.fingerprint.hex() for sa in initial_level(4))
    with open(path, "w") as fh:
        fh.write(f"# sfsyn-search level=1 n=4\n{fps}\n")
    with pytest.raises(ValueError, match="level_01.txt"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "letter",
    [(3, 1, 2, 3), (3, 3, 3, 3), (0, 1, 2, 3), (1, 2, 0, 3)],
    ids=["semiconstant", "constant", "identity", "not-admissible"],
)
def test_checkpoint_rejects_letters_outside_the_pool(tmp_path, letter):
    path = os.path.join(tmp_path, "level_01.txt")
    fp = canonicalize([Transformation(letter)]).fingerprint.hex()
    with open(path, "w") as fh:
        fh.write(f"# sfsyn-pointed-search level=1 n=4\n{fp}\n")
    with pytest.raises(ValueError, match="not in the search pool"):
        load_checkpoint(path)


def test_search_writes_and_resumes_checkpoints(tmp_path):
    fresh = search_max(5, checkpoint_dir=str(tmp_path))
    written = sorted(os.listdir(tmp_path))
    assert written == ["level_01.txt"]
    resumed = search_max(5, resume_from=os.path.join(tmp_path, "level_01.txt"))
    assert resumed.to_json(include_timing=False) == fresh.to_json(include_timing=False)


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
    admissible = {Transformation(tuple(t)) for t in ctx.bsf_set}

    def canon_key(sg):
        members = sorted(bytes(e.images) for e in sg.elements)
        return _fingerprint(_canonical_letters(members), n)

    expected = {}
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            sg = closure(list(combo) + semis)
            if not set(sg.elements) <= admissible:
                continue
            if not verify_suffix_free_consistency(sg):
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
