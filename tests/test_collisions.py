"""Colliding/focused pair analysis and the collision-free size bound."""
import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations, product

from sfsyn.transform import Transformation
from sfsyn.semigroup import closure, enumerate_wsf, in_wsf_images, vsf_generators, wsf_bound
from sfsyn.dfa import witness, transition_semigroup
from sfsyn.collisions import (
    StructureError,
    checked_scan,
    focused_triples,
    pair_index,
    pair_masks,
    pair_statuses,
)


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


def full_pair_statuses(sg):
    # the full-list scan the one-pass scan replaced, kept as its oracle:
    # (pair, first collider, every focuser with its target) per pair,
    # all in discovery order
    n = sg.n
    colliders, focusers = {}, {}
    for t in (Transformation(tuple(x)) for x in sg.raw):
        for pair in colliding_pairs(t.images):
            colliders.setdefault(pair, t)
        for p, q, r in focused_triples(t.images):
            focusers.setdefault((p, q), []).append((t, r))
    return [
        (pair, colliders.get(pair), tuple(focusers.get(pair, ())))
        for pair in combinations(range(1, n - 1), 2)
    ]


def assert_scan_matches_oracle(sg):
    oracle = full_pair_statuses(sg)
    statuses = pair_statuses(sg)
    assert [s.pair for s in statuses] == [pair for pair, _, _ in oracle]
    for s, (pair, collider, focusers) in zip(statuses, oracle):
        assert s.colliding_by == collider, pair
        assert s.focused == bool(focusers), pair
        assert s.focused_by == focusers[:1], pair
    # the scan's masks: bit i for the i-th pair of the oracle's order
    scan = sg.pair_scan
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
    for p, q, _ in focused_triples(images):
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
    # 1 and 2 both land on 2: focused triple (1, 2, 2)
    assert focused_triples(Transformation((1, 2, 2, 3, 4)).images) == [(1, 2, 2)]
    # landing together on n-1 is not a focus
    assert focused_triples(Transformation((1, 4, 4, 4, 4)).images) == []


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
        assert all(not s.focused for s in statuses)


def test_vsf5_pairs_enumerated():
    sg = closure(list(vsf_generators(5)))
    assert [s.pair for s in pair_statuses(sg)] == [(1, 2), (1, 3), (2, 3)]


def test_identity_semigroup_all_quiet():
    sg = closure([Transformation(tuple(range(5)))])
    for s in pair_statuses(sg):
        assert not s.colliding and not s.focused


def test_colliding_witness_is_first_in_discovery_order():
    sg = closure(list(vsf_generators(4)))
    (status,) = pair_statuses(sg)
    assert status.pair == (1, 2)
    # generators a and b coincide at n=4 and collide nothing; the first
    # collider discovered is the 0->1 generator
    assert status.colliding_by.images == (1, 3, 2, 3)


def test_structure_error_when_last_state_moves():
    sg = closure([Transformation((1, 2, 3, 4, 0))])
    with pytest.raises(StructureError):
        pair_statuses(sg)
    with pytest.raises(ValueError):
        pair_statuses(closure([Transformation((0, 1, 2))]))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_scan_matches_full_list_oracle_on_witness(n):
    assert_scan_matches_oracle(transition_semigroup(witness(n)))


@pytest.mark.parametrize("n", [4, 5])
def test_scan_matches_full_list_oracle_on_vsf(n):
    assert_scan_matches_oracle(closure(list(vsf_generators(n))))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_scan_matches_full_list_oracle_on_wsf(n):
    assert_scan_matches_oracle(enumerate_wsf(n))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(4, 6))
def test_scan_matches_full_list_oracle_on_random_closures(data, n):
    gens = data.draw(st.lists(fixing_last(n), min_size=1, max_size=3))
    assert_scan_matches_oracle(closure(gens))


def test_pair_scan_runs_once_per_semigroup():
    sg = closure(list(vsf_generators(5)))
    scan = sg.pair_scan
    assert pair_statuses(sg) == pair_statuses(sg)
    assert sg.pair_scan is scan


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
