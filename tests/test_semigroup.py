"""Closure engine and the three transformation families.

Counts that matter downstream are frozen here after being derived from
independent oracles: a set-fixpoint closure, a tuple closure for the
discovery order, and a brute-force scan of all n^n maps for family
membership.
"""
import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sfsyn.dfa import transition_semigroup, witness
from sfsyn.transform import Transformation
from sfsyn.collisions import FLAGS_CHUNK, scan_columns
from sfsyn import semigroup
from sfsyn.semigroup import (
    TransitionSemigroup,
    close_generators,
    close_raw,
    closure,
    enumerate_bsf,
    enumerate_wsf,
    in_bsf_images,
    in_wsf,
    in_wsf_images,
    irreducible_raw,
    raw_table,
    semiconstant_family,
    vsf_generators,
    wsf_bound,
    witness_letters,
)


def compose(s: Transformation, t: Transformation) -> Transformation:
    # left to right: q goes to t[s[q]]
    return Transformation(tuple(t[x] for x in s.images))


def naive_closure(gens):
    # set fixpoint, no ordering: S := S union S.G until stable
    out = set(gens)
    while True:
        new = {compose(x, g) for x in out for g in gens} - out
        if not new:
            return out
        out |= new


def close_tuples(gens):
    # the tuple closure the kernel replaced, kept as its oracle: level by
    # level, each element times each generator in generator order;
    # duplicated generators count once, at their first copy
    order = list(dict.fromkeys(gens))
    seen = set(order)
    queue = list(order)
    while queue:
        next_queue = []
        for x in queue:
            for g in gens:
                y = tuple(g[v] for v in x)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    next_queue.append(y)
        queue = next_queue
    return order


def assert_closure_matches_tuple_oracle(gens):
    sg = closure(gens)
    assert [tuple(e) for e in sg.raw] == close_tuples([g.images for g in gens])


def in_vsf(t: Transformation) -> bool:
    # v_sf as defined: b_sf, and no two states share an image but n-1
    kept = [img for img in t.images if img != t.n - 1]
    return in_bsf_images(t.images) and len(kept) == len(set(kept))


def bsf_powers(t: tuple[int, ...], n: int) -> bool:
    # the power test the walk replaced, kept as its oracle: n tuple
    # powers of t, each checked for 0 meeting an interior state
    if t[n - 1] != n - 1:
        return False
    if 0 in t:
        return False
    cur = t
    for _ in range(n):
        z = cur[0]
        if z != n - 1:
            for q in range(1, n - 1):
                if cur[q] == z:
                    return False
        cur = tuple(t[v] for v in cur)
    return True


def naive_in_bsf(t: Transformation) -> bool:
    # textbook restatement with a generous power range
    n = t.n
    if t[n - 1] != n - 1 or 0 in t.images:
        return False
    for j in range(1, 2 * n + 1):
        p = 0
        for _ in range(j):
            p = t[p]
        if p == n - 1:
            continue
        for q in range(1, n - 1):
            r = q
            for _ in range(j):
                r = t[r]
            if r == p:
                return False
    return True


# ------------------------------------------------------------- closure


def test_closure_matches_set_fixpoint():
    gens = [
        Transformation((4, 2, 3, 1, 4)),
        Transformation((1, 4, 4, 4, 4)),
        Transformation((4, 4, 2, 3, 4)),
    ]
    sg = closure(gens)
    assert frozenset(Transformation(tuple(e)) for e in sg.raw) == frozenset(naive_closure(gens))
    assert sg.size == len(sg.raw) == len(sg.raw_set)


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([Transformation((0, 1, 2)), Transformation((0, 1, 2, 3))])


@pytest.mark.parametrize("n", (4, 5, 6))
def test_closure_order_and_words_match_tuple_oracle_on_vsf(n):
    assert_closure_matches_tuple_oracle(list(vsf_generators(n)))


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_closure_order_and_words_match_tuple_oracle_on_witness(n):
    assert_closure_matches_tuple_oracle(list(witness_letters(n)[1]))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(3, 6))
def test_closure_order_and_words_match_tuple_oracle_on_random_lists(data, n):
    # drawing the list from a smaller pool makes duplicated generators common
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda imgs: Transformation(tuple(imgs))
    )
    pool = data.draw(st.lists(maps, min_size=1, max_size=3))
    gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    assert_closure_matches_tuple_oracle(gens)


@pytest.mark.parametrize(
    "n, digest",
    [
        (6, "b236e997bc137fa996f0901b9ea7e9f48a0fca15b05a46b24304bacfce1010f1"),
        (7, "6215865d7494e5e40a2baefa03b4e0c028e91615bb4090ffdb2e4d910b26f141"),
    ],
    ids=("6", "7"),
)
def test_witness_raw_elements_pinned(n, digest):
    # images and discovery order of the whole witness closure
    sg = closure(list(witness_letters(n)[1]))
    assert len(sg.raw) == wsf_bound(n)
    assert hashlib.sha256(b"".join(sg.raw)).hexdigest() == digest


def test_witness_eight_raw_elements_pinned():
    # images and discovery order of the whole witness(8) closure
    sg = transition_semigroup(witness(8))
    assert len(sg.raw) == len(sg.raw_set) == wsf_bound(8)
    assert (
        hashlib.sha256(b"".join(sg.raw)).hexdigest()
        == "8bedeff8d83d1cfb7df34ea196675cade7fd803dde582a88f2f0902175d4f28e"
    )


def test_raw_maps_and_their_set_agree():
    sg = closure(list(witness_letters(5)[1]))
    assert len(set(sg.raw)) == len(sg.raw)
    assert set(sg.raw) == sg.raw_set == enumerate_wsf(5).raw_set


@pytest.fixture
def switches(monkeypatch) -> list:
    # one entry per closure that took up the reduced-word rule: the
    # number of maps it walked plain
    calls = []
    rule = semigroup._close_by_rule

    def spy(*args):
        calls.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(semigroup, "_close_by_rule", spy)
    return calls


def assert_same_walk_as_close_raw(raws):
    # close_raw multiplies every map by every table: the oracle for the
    # maps, their order and their set
    order, members = close_generators(raws)
    assert order == close_raw(raws, [raw_table(g) for g in raws])
    assert members == set(order)


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
def test_close_generators_walks_as_close_raw_on_witness_and_vsf(n, switches):
    for gens in (witness_letters(n)[1], vsf_generators(n)):
        assert_same_walk_as_close_raw([bytes(g.images) for g in gens])
    # at n = 6 only the witness closure grows past its switch
    assert len(switches) == {4: 0, 5: 0, 6: 1, 7: 2, 8: 2}[n]


def random_generators(rng, n, k):
    # k letters drawn with repeats from a pool of arbitrary maps on n
    # states (b_sf or not), now and then with a product of two of them
    pool = [bytes(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        pool.append(rng.choice(pool).translate(raw_table(rng.choice(pool))))
    return [rng.choice(pool) for _ in range(k)]


def test_close_generators_walks_as_close_raw_on_random_lists(switches):
    rng = random.Random(37)
    for _ in range(2000):
        n = rng.randint(3, 6)
        assert_same_walk_as_close_raw(random_generators(rng, n, rng.randint(1, 8)))
    # lists that end before the switch and lists that cross it
    assert 100 < len(switches) < 1900


@pytest.mark.parametrize("k, n", [(1, 5), (2, 6), (255, 5), (256, 5), (257, 5), (300, 4), (300, 5)])
def test_close_generators_at_the_window_edges(k, n, switches):
    # a random permutation and k-1 random maps.  One letter has no
    # window (its closure is a chain); two letters have the widest, of
    # eight letters, and cross the switch now and then on 6 states; 255
    # and 256 letters have a window of one letter and close all 3,125
    # maps on 5 states, crossing it at once; past 256 letters a window
    # would not fit a byte, and the same closures are walked plain
    rng = random.Random(k * 10 + n)
    draws = 24 if k <= 2 else 3
    for _ in range(draws):
        perm = list(range(n))
        rng.shuffle(perm)
        gens = [bytes(perm)] + [bytes(rng.randrange(n) for _ in range(n)) for _ in range(k - 1)]
        assert_same_walk_as_close_raw(gens)
    if k == 2:
        assert 0 < len(switches) < draws
    else:
        assert len(switches) == (draws if k in (255, 256) else 0)


# ------------------------------------------------------------ families


def test_in_bsf_matches_brute_force_small():
    for n in (2, 3, 4):
        for imgs in itertools.product(range(n), repeat=n):
            assert in_bsf_images(imgs) == naive_in_bsf(Transformation(imgs)), imgs


@settings(max_examples=300)
@given(st.lists(st.integers(1, 5), min_size=5, max_size=5))
def test_in_bsf_power_cutoff_suffices(prefix):
    t = Transformation(tuple(prefix) + (5,))
    assert in_bsf_images(t.images) == naive_in_bsf(t)


def assert_walk_matches_power_oracle(imgs):
    expected = bsf_powers(imgs, len(imgs))
    assert in_bsf_images(imgs) == expected, imgs
    assert in_bsf_images(bytes(imgs)) == expected, imgs


def test_in_bsf_matches_power_oracle_exhaustively():
    # every map on 2..6 states, then every candidate on 7 states (n-1
    # fixed, 0 not an image), as tuples and as raw byte maps
    for n in range(2, 7):
        for imgs in itertools.product(range(n), repeat=n):
            assert_walk_matches_power_oracle(imgs)
    for prefix in itertools.product(range(1, 7), repeat=6):
        assert_walk_matches_power_oracle(prefix + (6,))


def collapses_and_bsf(images):
    # the two-step w_sf test in_wsf_images replaced: 0 or every
    # interior state maps to n-1, and the b_sf walk passes
    last = len(images) - 1
    collapses = images[0] == last or all(images[q] == last for q in range(1, last))
    return collapses and in_bsf_images(images)


def test_in_wsf_images_matches_collapse_and_bsf_exhaustively():
    # every one of the n^n maps on 1..6 states, as tuples and as raw
    # byte maps
    members = []
    for n in range(1, 7):
        count = 0
        for imgs in itertools.product(range(n), repeat=n):
            expected = collapses_and_bsf(imgs)
            assert in_wsf_images(imgs) == expected, imgs
            assert in_wsf_images(bytes(imgs)) == expected, imgs
            count += expected
        members.append(count)
    # w_sf(n) has (n-1)^(n-2) + n - 2 maps from n = 2 on
    assert members == [0, 1, 3, 11, 67, 629]


def test_in_wsf_unchanged_on_bsf_seven():
    kept = 0
    for t in enumerate_bsf(7):
        expected = collapses_and_bsf(t.images)
        assert in_wsf(t) == expected, t
        kept += expected
    assert kept == wsf_bound(7)


def flags_oracle(raw) -> bytes:
    # the w_sf bytes one map at a time, through in_wsf_images
    return bytes(map(in_wsf_images, raw))


def first_unfixed(raw, n):
    # the first map moving n-1, or None
    return next((x for x in raw if x[n - 1] != n - 1), None)


def flag_test_maps(n: int) -> list[bytes]:
    # every b_sf(n) map, then as many drawn from all n^n maps, most of
    # which move n-1 or send a state to 0
    rng = random.Random(n)
    bsf = [bytes(t.images) for t in enumerate_bsf(n)]
    return bsf + [bytes(rng.randrange(n) for _ in range(n)) for _ in bsf]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_element_flags_match_the_per_map_tests(n):
    # the column pass's w_sf bytes and first map moving n-1; its pairs
    # on the same maps are checked in test_collisions
    raw = flag_test_maps(n)
    scan = scan_columns(raw, n)
    assert scan.wsf == flags_oracle(raw)
    assert scan.unfixed == first_unfixed(raw, n)
    assert scan.unfixed is not None and any(0 in x for x in raw)


def test_element_flags_match_the_per_map_tests_on_every_small_map():
    for n in range(1, 6):
        raw = [bytes(imgs) for imgs in itertools.product(range(n), repeat=n)]
        scan = scan_columns(raw, n)
        assert scan.wsf == flags_oracle(raw), n
        assert scan.unfixed == first_unfixed(raw, n), n


@pytest.mark.parametrize(
    "size", [0, 1, FLAGS_CHUNK - 1, FLAGS_CHUNK, FLAGS_CHUNK + 1, 2 * FLAGS_CHUNK + 1]
)
def test_semigroup_flags_across_the_chunk_boundary(size):
    # the w_sf bytes of a semigroup of each size around the column
    # pass's chunks: b_sf(7) maps, then drawn ones (duplicates kept, as
    # the pass never looks)
    maps = flag_test_maps(7)
    raw = maps[len(maps) // 2 - size // 2 :][:size]
    sg = TransitionSemigroup(n=7, raw=tuple(raw), raw_set=frozenset(raw))
    expected = flags_oracle(raw)
    assert sg.pair_scan.wsf == expected and len(expected) == size
    assert sg.pair_scan.unfixed == first_unfixed(raw, 7)
    if size > 1:
        assert 1 in expected and 0 in expected
    assert sg.pair_scan is sg.pair_scan


def test_semigroup_flags_of_wsf_eight():
    sg = enumerate_wsf(8)
    assert sg.pair_scan.wsf == flags_oracle(sg.raw)
    assert sg.pair_scan.wsf.count(1) == sg.size == wsf_bound(8)
    assert sg.pair_scan.unfixed is None
    # the six maps sending 0 to an interior state send all else to n-1,
    # so they collide no pair
    assert sum(0 < x[0] < 7 for x in sg.raw) == 6
    assert sg.pair_scan.colliding == 0


def test_bsf_counts_frozen():
    assert [len(enumerate_bsf(n)) for n in (2, 3, 4, 5, 6, 7)] == [1, 3, 15, 115, 1169, 14961]


def test_bsf_members_and_non_members():
    assert in_bsf_images((1, 4, 4, 4, 4))
    assert not in_bsf_images((0, 1, 2, 3, 4))  # 0 has a preimage
    assert not in_bsf_images((1, 1, 4, 4, 4))  # 0 and 1 merge interior
    for t in semiconstant_family(6):
        assert in_bsf_images(t.images)


def test_family_guards():
    with pytest.raises(ValueError):
        in_wsf(Transformation((2, 2, 2)))
    with pytest.raises(ValueError):
        vsf_generators(3)
    with pytest.raises(ValueError):
        enumerate_wsf(3)
    with pytest.raises(ValueError):
        wsf_bound(1)


def test_vsf_generator_images_frozen_n5():
    gens = vsf_generators(5)
    assert len(gens) == 5
    assert [g.images for g in gens] == [
        (4, 2, 3, 1, 4),
        (4, 2, 1, 3, 4),
        (1, 4, 2, 3, 4),
        (2, 1, 4, 3, 4),
        (3, 1, 2, 4, 4),
    ]
    assert all(in_vsf(g) for g in gens)


def test_vsf_generator_count_is_n():
    for n in (4, 5, 6, 7):
        assert len(vsf_generators(n)) == n


def test_vsf_closure_sizes_frozen():
    assert closure(list(vsf_generators(4))).size == 13
    assert closure(list(vsf_generators(5))).size == 73
    assert closure(list(vsf_generators(6))).size == 501


def test_vsf_closure_members_all_vsf():
    sg = closure(list(vsf_generators(5)))
    assert all(in_vsf(Transformation(tuple(t))) for t in sg.raw)


def test_wsf_enumeration_matches_bound_and_letter_closure():
    for n in (4, 5, 6):
        wsf = enumerate_wsf(n)
        assert wsf.size == wsf_bound(n)
        assert all(in_wsf_images(t) for t in wsf.raw)
        _, letters = witness_letters(n)
        assert closure(list(letters)).raw_set == wsf.raw_set


def test_wsf_bound_values_frozen():
    assert [wsf_bound(n) for n in (4, 5, 6, 7, 8)] == [11, 67, 629, 7781, 117655]


def test_wsf_bound_is_exact_python_int():
    # no overflow at sizes where fixed-width arithmetic would wrap
    assert wsf_bound(20) == 19**18 + 18


def test_witness_letters_n5_frozen():
    names, letters = witness_letters(5)
    assert names == ("a", "b", "c", "d", "e")
    assert [t.images for t in letters] == [
        (4, 2, 3, 1, 4),
        (4, 2, 1, 3, 4),
        (4, 1, 2, 1, 4),
        (4, 4, 2, 3, 4),
        (1, 4, 4, 4, 4),
    ]


def test_witness_letters_n4_drop_duplicate():
    names, letters = witness_letters(4)
    assert names == ("b", "c", "d", "e")
    assert len({t.images for t in letters}) == 4


def test_semiconstant_family_size_and_membership():
    for n in (4, 5, 6):
        fam = semiconstant_family(n)
        assert len(fam) == 2 ** (n - 2)
        assert len(set(fam)) == len(fam)
        for t in fam:
            assert in_wsf(t)
            moved = {q for q in range(n) if t[q] != q}
            assert 0 in moved
            assert all(t[q] == n - 1 for q in moved)


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
def test_semiconstant_family_is_generated_by_its_n_minus_one_atoms(n):
    # the maps sending {0} and each {0, q} to n-1 and fixing the rest
    # close to exactly the family, none of them generated by the others
    last = n - 1
    gens = [Transformation(tuple(last if p in (0, q) else p for p in range(n))) for q in range(last)]
    assert len(gens) == n - 1
    assert closure(gens).raw_set == {bytes(t.images) for t in semiconstant_family(n)}
    assert irreducible_raw([bytes(g.images) for g in gens])


# ------------------------------------------------------- irreducibility


def test_vsf_generators_are_irreducible():
    assert irreducible_raw([bytes(g.images) for g in vsf_generators(5)])


def test_redundant_generator_detected():
    gens = list(vsf_generators(4))
    extra = compose(gens[0], gens[1])
    assert not irreducible_raw([bytes(g.images) for g in gens + [extra]])


def test_duplicate_generator_not_irreducible():
    a = bytes((1, 2, 0))
    assert not irreducible_raw([a, a])


def test_single_generator_is_irreducible():
    assert irreducible_raw([bytes((0, 1, 2))])


def irreducible_by_definition(letters):
    # no letter lies in the public closure of the others; a lone letter
    # has no others, so nothing generates it
    for i, g in enumerate(letters):
        rest = letters[:i] + letters[i + 1 :]
        if rest and bytes(g.images) in closure(rest).raw_set:
            return False
    return True


def test_irreducible_raw_matches_its_definition_on_every_small_multiset():
    # every multiset of 1, 2 and 3 letters of b_sf(4), repeats included,
    # with the verdicts counted per size
    bsf = enumerate_bsf(4)
    tuples = [
        letters for k in (1, 2, 3) for letters in itertools.combinations_with_replacement(bsf, k)
    ]
    assert len(tuples) == 815
    verdicts = Counter()
    for letters in tuples:
        got = irreducible_raw([bytes(t.images) for t in letters])
        assert got == irreducible_by_definition(list(letters)), letters
        verdicts[len(letters), got] += 1
    assert verdicts == {(1, True): 15, (2, True): 94, (2, False): 26, (3, True): 237, (3, False): 443}
