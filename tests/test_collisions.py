"""Colliding/focused pair analysis and the collision-free size bound."""
import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations, product

from sfsyn.transform import Transformation
from sfsyn.semigroup import (
    TransitionSemigroup,
    closure,
    enumerate_wsf,
    in_wsf_images,
    vsf_generators,
    wsf_bound,
)
from sfsyn import collisions
from sfsyn.dfa import witness, transition_semigroup
from sfsyn.injection import strict_bound_witness, verify_injective
from sfsyn.collisions import (
    FLAGS_CHUNK,
    PairScan,
    StructureError,
    checked_scan,
    pair_index,
    pair_masks,
    pair_statuses,
    scan_columns,
)
from test_acceptance import draw_seven_state_dfas
from test_semigroup import flag_test_maps, flags_oracle


def fixing_last(n: int):
    # transformations fixing n-1, the structural precondition
    return st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1).map(
        lambda xs: Transformation(tuple(xs) + (n - 1,))
    )


def colliding_pairs(images):
    # the colliding-pair rule on pair tuples, which the masks over
    # pair_index replaced, kept as their oracle: {0t, rt} for every
    # interior r whose image is interior and differs from the interior
    # image of 0, repeated when two such r share an image
    n = len(images)
    p = images[0]
    if not 0 < p < n - 1:
        return []
    out = []
    for r in range(1, n - 1):
        q = images[r]
        if 0 < q < n - 1 and q != p:
            out.append((p, q) if p < q else (q, p))
    return out


def focusing_triples(images):
    # the focused-pair rule by brute force over every interior pair:
    # (p, q, r) for interior p < q both sent to the interior state r
    n = len(images)
    return [
        (p, q, images[p])
        for p, q in combinations(range(1, n - 1), 2)
        if images[p] == images[q] and 0 < images[p] < n - 1
    ]


def full_pair_statuses(sg):
    # the full-list scan the one-pass scan replaced, kept as its oracle:
    # (pair, first collider, every focuser with its target) per pair,
    # all raw maps in discovery order
    n = sg.n
    colliders, focusers = {}, {}
    for x in sg.raw:
        for pair in colliding_pairs(x):
            colliders.setdefault(pair, x)
        for p, q, r in focusing_triples(x):
            focusers.setdefault((p, q), []).append((x, r))
    return [
        (pair, colliders.get(pair), tuple(focusers.get(pair, ())))
        for pair in combinations(range(1, n - 1), 2)
    ]


def assert_scan_matches_oracle(sg):
    oracle = full_pair_statuses(sg)
    scan = sg.pair_scan
    last = sg.n - 1
    assert scan.unfixed == next((x for x in sg.raw if x[last] != last), None)
    assert scan.wsf == flags_oracle(sg.raw)
    # each pair's first witnesses as raw maps, read off the scan itself,
    # since pair_statuses refuses a semigroup with a map moving n-1
    for i, (pair, collider, focusers) in enumerate(oracle):
        assert scan.colliding_by.get(1 << i) == collider, pair
        assert scan.focused_by.get(1 << i) == (focusers[0] if focusers else None), pair
    if scan.unfixed is not None:
        with pytest.raises(StructureError):
            pair_statuses(sg)
        return
    statuses = pair_statuses(sg)
    assert [s.pair for s in statuses] == [pair for pair, _, _ in oracle]
    # the report holds the scan's own witnesses, unconverted
    for i, s in enumerate(statuses):
        assert s.colliding_by is scan.colliding_by.get(1 << i), s.pair
        assert s.focused_by is scan.focused_by.get(1 << i), s.pair
    # the scan's masks: bit i for the i-th pair of the oracle's order
    assert scan.colliding == sum(1 << i for i, (_, c, _) in enumerate(oracle) if c is not None)
    assert scan.focused == sum(1 << i for i, (_, _, f) in enumerate(oracle) if f)


# ----------------------------------------------------- per-element facts


def test_colliding_pairs_of_examples():
    # 0 -> 1, 1 -> 2, 2 -> 2 and 3 -> 3: makes {1,2} (twice) and {1,3}
    # colliding
    assert colliding_pairs(Transformation((1, 2, 2, 3, 4)).images) == [(1, 2), (1, 2), (1, 3)]
    # 0 -> 4 is the empty state: nothing collides
    assert colliding_pairs(Transformation((4, 2, 3, 1, 4)).images) == []
    # images of interior states at 0t itself do not pair with themselves
    assert colliding_pairs(Transformation((2, 2, 2, 2, 4)).images) == []


def tuple_rule_masks(images):
    # the tuple rules mapped through combinations order
    order = list(combinations(range(1, len(images) - 1), 2))
    coll = foc = 0
    for pair in colliding_pairs(images):
        coll |= 1 << order.index(pair)
    for p, q, _ in focusing_triples(images):
        foc |= 1 << order.index((p, q))
    return coll, foc


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pair_masks_follow_the_tuple_rules_on_every_map(n):
    for images in product(range(n), repeat=n):
        masks = tuple_rule_masks(images)
        assert pair_masks(images) == masks, images
        assert pair_masks(bytes(images)) == masks, images


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_index_is_symmetric_and_zero_off_interior_pairs(n):
    index = pair_index(n)
    assert index.pairs == tuple(combinations(range(1, n - 1), 2))
    assert len(index.bit) == n * n
    for p, q in product(range(n), repeat=2):
        b = index.bit[p * n + q]
        assert b == index.bit[q * n + p], (p, q)
        if p == q or {p, q} & {0, n - 1}:
            assert b == 0, (p, q)
        else:
            assert b == 1 << index.pairs.index((min(p, q), max(p, q))), (p, q)


def test_focused_pairs_of_examples():
    # 1 and 2 both land on 2: focused triple (1, 2, 2), the bit of {1, 2}
    assert focusing_triples((1, 2, 2, 3, 4)) == [(1, 2, 2)]
    assert pair_masks((1, 2, 2, 3, 4))[1] == pair_index(5).bit[1 * 5 + 2]
    # landing together on n-1 is not a focus
    assert focusing_triples((1, 4, 4, 4, 4)) == []
    assert pair_masks((1, 4, 4, 4, 4))[1] == 0
    # three sources of one image focus every pair among them
    assert focusing_triples((5, 1, 1, 1, 2, 5)) == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert pair_masks(bytes((5, 1, 1, 1, 2, 5)))[1] == 0b1011  # {1, 2}, {1, 3}, {2, 3}


# ----------------------------------------------------------- pair status


def test_collapsing_family_has_no_colliding_pairs():
    for n in (4, 5, 6):
        statuses = pair_statuses(enumerate_wsf(n))
        assert all(not s.colliding for s in statuses)


def test_injective_family_all_pairs_colliding_never_focused():
    for n in (4, 5):
        sg = closure(list(vsf_generators(n)))
        statuses = pair_statuses(sg)
        assert len(statuses) == (n - 2) * (n - 3) // 2
        assert all(s.colliding for s in statuses)
        assert all(s.focused_by is None for s in statuses)


def test_vsf5_pairs_enumerated():
    sg = closure(list(vsf_generators(5)))
    assert [s.pair for s in pair_statuses(sg)] == [(1, 2), (1, 3), (2, 3)]


def test_identity_semigroup_all_quiet():
    sg = closure([Transformation(tuple(range(5)))])
    for s in pair_statuses(sg):
        assert s.colliding_by is None and s.focused_by is None


def test_colliding_witness_is_first_in_discovery_order():
    sg = closure(list(vsf_generators(4)))
    (status,) = pair_statuses(sg)
    assert status.pair == (1, 2)
    # generators a and b coincide at n=4 and collide nothing; the first
    # collider discovered is the 0->1 generator
    assert status.colliding_by == bytes((1, 3, 2, 3))


def test_structure_error_when_last_state_moves():
    sg = closure([Transformation((1, 2, 3, 4, 0))])
    with pytest.raises(StructureError):
        pair_statuses(sg)
    with pytest.raises(ValueError):
        pair_statuses(closure([Transformation((0, 1, 2))]))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_scan_matches_full_list_oracle_on_witness(n):
    assert_scan_matches_oracle(transition_semigroup(witness(n)))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_scan_matches_full_list_oracle_on_vsf(n):
    sg = closure(list(vsf_generators(n)))
    assert_scan_matches_oracle(sg)
    # every pair collides and none is focused: the scan runs to the end
    assert sg.pair_scan.colliding == (1 << len(pair_index(n).pairs)) - 1
    assert sg.pair_scan.focused == 0


def test_scan_matches_full_list_oracle_on_seven_state_dfas():
    # consistent 7-state semigroups with colliding pairs, as phi sees them
    for d in draw_seven_state_dfas():
        assert_scan_matches_oracle(transition_semigroup(d))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_scan_matches_full_list_oracle_on_wsf(n):
    assert_scan_matches_oracle(enumerate_wsf(n))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(4, 6))
def test_scan_matches_full_list_oracle_on_random_closures(data, n):
    gens = data.draw(st.lists(fixing_last(n), min_size=1, max_size=3))
    assert_scan_matches_oracle(closure(gens))


@pytest.mark.parametrize("mover", [False, True])
def test_scan_matches_full_list_oracle_past_the_first_chunk(mover):
    # the column pass reads a chunk of maps at a time: here the first
    # map sending 0 to an interior state, the first new colliding pair
    # after it and, with mover, the first map moving n-1 all stand in
    # the second chunk, behind maps that send 0 to n-1
    filler = list(enumerate_wsf(8).raw[: FLAGS_CHUNK + 3])
    colliders = [
        bytes((1, 2, 3, 7, 7, 7, 7, 7)),  # collides {1, 2} and {1, 3}
        bytes((1, 2, 4, 7, 7, 7, 7, 7)),  # adds {1, 4}
        bytes((5, 7, 7, 7, 7, 6, 7, 7)),  # adds {5, 6}
    ]
    movers = [bytes((7,) * 7 + (1,)), bytes((7,) * 7 + (2,))] if mover else []
    raw = filler[: FLAGS_CHUNK + 1] + colliders[:1] + movers + filler[FLAGS_CHUNK + 1 :] + colliders[1:]
    sg = TransitionSemigroup(n=8, raw=tuple(raw), raw_set=frozenset(raw))
    assert raw.index(colliders[0]) == FLAGS_CHUNK + 1
    assert sg.pair_scan.unfixed == (movers[0] if mover else None)
    assert_scan_matches_oracle(sg)
    assert sg.pair_scan.colliding_by[pair_index(8).bit[5 * 8 + 6]] == colliders[2]


def raw_semigroup(n, raw):
    return TransitionSemigroup(n=n, raw=tuple(raw), raw_set=frozenset(raw))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(10, 20))
def test_scan_matches_full_list_oracle_past_eight_targets(data, n):
    # the scan's lanes carry eight interior targets each: from n = 11
    # on, a pair's images can meet in any of two or more lanes
    maps = data.draw(st.lists(fixing_last(n), min_size=1, max_size=40))
    assert_scan_matches_oracle(raw_semigroup(n, dict.fromkeys(bytes(t.images) for t in maps)))


@pytest.mark.parametrize("n, targets", [(6, (4, 3)), (12, (10, 3))])
def test_scan_reports_the_earlier_of_two_focusers_in_one_chunk(n, targets):
    # both maps focus {1, 2}, the earlier onto the larger target (at
    # n = 12 one that another lane of eight targets carries): the first
    # witness is the earlier map, not the one on the first target
    last = n - 1
    earlier, later = (bytes((last, r, r) + (last,) * (n - 3)) for r in targets)
    sg = raw_semigroup(n, [bytes((last, *range(1, n))), earlier, later])
    assert_scan_matches_oracle(sg)
    assert sg.pair_scan.focused_by[pair_index(n).bit[1 * n + 2]] == (earlier, targets[0])


def quiet_maps(count):
    # 8-state maps sending 0 to 7 that neither collide nor focus a pair:
    # the interior goes to distinct interior states or to 7
    out = []
    for images in product(range(1, 8), repeat=6):
        interior = [r for r in images if r != 7]
        if len(set(interior)) == len(interior):
            out.append(bytes((7, *images, 7)))
            if len(out) == count:
                return out
    raise AssertionError("not enough quiet maps")


def test_scan_finds_focusers_past_the_first_chunk_and_past_flags_chunk():
    # one focuser in the second chunk and one in the third, behind
    # quiet maps: the pass keeps building lanes while a pair is left
    maps = quiet_maps(2 * FLAGS_CHUNK + 200)
    early = bytes((7, 3, 3, 7, 7, 7, 7, 7))  # focuses {1, 2} onto 3
    late = bytes((7, 7, 7, 7, 6, 6, 7, 7))  # focuses {4, 5} onto 6
    maps.insert(2 * FLAGS_CHUNK + 100, late)
    maps.insert(FLAGS_CHUNK + 44, early)
    sg = raw_semigroup(8, maps)
    assert_scan_matches_oracle(sg)
    bit = pair_index(8).bit
    assert sg.pair_scan.focused == bit[1 * 8 + 2] | bit[4 * 8 + 5]
    assert sg.pair_scan.focused_by[bit[1 * 8 + 2]] == (early, 3)
    assert sg.pair_scan.focused_by[bit[4 * 8 + 5]] == (late, 6)


@pytest.mark.parametrize("before", [FLAGS_CHUNK - 1, 2 * FLAGS_CHUNK + 5])
@pytest.mark.parametrize("focusing", [False, True])
def test_scan_finds_a_lone_collider_in_the_last_chunk(focusing, before):
    # the only map sending 0 to an interior state comes last, behind
    # maps that focus every pair in the first chunk (the pass then
    # builds no lanes until the collider's chunk) or none (it builds
    # them in every chunk); with FLAGS_CHUNK - 1 maps before it, it is
    # the first chunk's last map, else the third chunk's
    if focusing:
        maps = list(enumerate_wsf(8).raw[:before])
    else:
        maps = quiet_maps(before)
    collider = bytes((1, 2, 3, 7, 7, 7, 7, 7))  # collides {1, 2} and {1, 3}
    assert not any(0 < x[0] < 7 for x in maps)
    sg = raw_semigroup(8, maps + [collider])
    assert_scan_matches_oracle(sg)
    bit = pair_index(8).bit
    assert sg.pair_scan.colliding == bit[1 * 8 + 2] | bit[1 * 8 + 3]
    assert set(sg.pair_scan.colliding_by.values()) == {collider}
    if focusing:
        assert sg.pair_scan.focused == (1 << len(pair_index(8).pairs)) - 1
        assert max(maps.index(x) for x, _ in sg.pair_scan.focused_by.values()) < FLAGS_CHUNK


@pytest.mark.parametrize(
    "size", [FLAGS_CHUNK - 1, FLAGS_CHUNK, FLAGS_CHUNK + 1, 2 * FLAGS_CHUNK + 1]
)
def test_scan_matches_both_oracles_at_the_chunk_boundaries(size):
    # the semigroup's last map, the only one outside w_sf, the only one
    # sending 0 to an interior state and the only focuser, ends the
    # first chunk or opens the second or third
    last_map = bytes((1, 2, 3, 3, 7, 7, 7, 7))  # collides {1, 2}, {1, 3}; focuses {2, 3}
    sg = raw_semigroup(8, quiet_maps(size - 1) + [last_map])
    assert_scan_matches_oracle(sg)
    assert sg.pair_scan.wsf == b"\x01" * (size - 1) + b"\x00"
    bit = pair_index(8).bit
    assert sg.pair_scan.colliding_by == {bit[1 * 8 + 2]: last_map, bit[1 * 8 + 3]: last_map}
    assert sg.pair_scan.focused_by == {bit[2 * 8 + 3]: (last_map, 3)}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_scan_matches_full_list_oracle_on_the_flag_test_maps(n):
    # every b_sf(n) map and as many drawn ones, many moving n-1
    raw = flag_test_maps(n)
    assert_scan_matches_oracle(raw_semigroup(n, raw))


def test_scan_of_an_empty_semigroup_finds_nothing():
    sg = TransitionSemigroup(n=6, raw=(), raw_set=frozenset())
    assert sg.pair_scan == PairScan(0, 0, {}, {}, None, b"")
    assert_scan_matches_oracle(sg)


def oracle_scan(sg):
    # the PairScan of the per-map rules, map by map in discovery order
    n = sg.n
    bit = pair_index(n).bit
    colliders, focusers = {}, {}
    for x in sg.raw:
        for p, q in colliding_pairs(x):
            colliders.setdefault(bit[p * n + q], x)
        for p, q, r in focusing_triples(x):
            focusers.setdefault(bit[p * n + q], (x, r))
    unfixed = next((x for x in sg.raw if x[n - 1] != n - 1), None)
    return PairScan(sum(colliders), sum(focusers), colliders, focusers, unfixed, flags_oracle(sg.raw))


def test_scan_never_runs_the_per_map_rules(monkeypatch):
    semigroups = [closure(list(vsf_generators(7))), transition_semigroup(witness(8))]
    expected = [oracle_scan(sg) for sg in semigroups]

    def refuse(images):
        raise AssertionError("the pair scan ran a per-map rule")

    monkeypatch.setattr(collisions, "pair_masks", refuse)
    assert [sg.pair_scan for sg in semigroups] == expected


def test_pair_scan_runs_once_per_semigroup(monkeypatch):
    # the pair report, the embedding and the strict-gap witness all read
    # the one column pass over the semigroup
    calls = []

    def counted(raw, n):
        calls.append(n)
        return scan_columns(raw, n)

    monkeypatch.setattr(collisions, "scan_columns", counted)
    sg = closure(list(vsf_generators(7)))
    scan = checked_scan(sg)
    assert verify_injective(sg).passed
    assert strict_bound_witness(sg) is not None
    assert pair_statuses(sg) == pair_statuses(sg)
    assert all(s.colliding for s in pair_statuses(sg))
    assert sg.pair_scan is scan
    assert calls == [7]


# ------------------------------------------------------------ consistency


def consistent(sg) -> bool:
    # no interior pair both colliding and focused, read off the scan
    scan = checked_scan(sg)
    return not scan.colliding & scan.focused


def test_witness_semigroups_consistent():
    for n in (4, 5, 6):
        assert consistent(transition_semigroup(witness(n)))


def test_injective_family_consistent():
    for n in (4, 5):
        assert consistent(closure(list(vsf_generators(n))))


def test_collider_plus_focuser_is_inconsistent():
    e = Transformation((1, 4, 4, 4, 4))
    u = Transformation((1, 2, 2, 3, 4))  # focuses {1,2} to 2, collides it too
    assert not consistent(closure([e, u]))


@settings(max_examples=60)
@given(st.lists(fixing_last(5), min_size=1, max_size=2), fixing_last(5))
def test_colliding_is_monotone_under_generator_growth(gens, extra):
    small = {s.pair for s in pair_statuses(closure(gens)) if s.colliding}
    big = {s.pair for s in pair_statuses(closure(gens + [extra])) if s.colliding}
    assert small <= big


# --------------------------------------------------------- the size bound


def assert_collision_free_bound(sg):
    # the lemma: a semigroup with no colliding pair lies inside the
    # collapsing family, so every element is in w_sf(n) and its size is
    # at most (n-1)^(n-2) + n - 2
    assert not any(s.colliding for s in pair_statuses(sg))
    assert all(in_wsf_images(t) for t in sg.raw)
    assert sg.size <= wsf_bound(sg.n)


def test_bound_report_collapsing_family():
    sg = enumerate_wsf(5)
    assert_collision_free_bound(sg)
    assert sg.size == wsf_bound(5) == 67


def test_bound_report_letter_subsemigroup():
    w = witness(5)
    sub = closure([w.delta[w.letters.index(x)] for x in "ade"])
    assert_collision_free_bound(sub)
    assert sub.size == 25


def test_bound_report_inapplicable_with_collisions():
    sg = closure(list(vsf_generators(4)))
    assert any(s.colliding for s in pair_statuses(sg))
    assert not all(in_wsf_images(t) for t in sg.raw)
