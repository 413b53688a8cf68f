"""Tests for the case-by-case embedding and its inverse."""
import dataclasses
import hashlib
import itertools
import json
import random
from typing import Sequence

import pytest

from sfsyn import injection
from sfsyn.collisions import StructureError, pair_statuses
from sfsyn.dfa import transition_semigroup, witness
from sfsyn.injection import (
    CaseExhaustionError,
    InjectivityReport,
    NotInImageError,
    PreconditionError,
    _cycle_states,
    _forward,
    _interior,
    _phi,
    _rebuild_chain,
    _restore,
    _undo,
    strict_bound_witness,
    verify_injective,
)
from sfsyn.semigroup import (
    TransitionSemigroup,
    closure,
    enumerate_bsf,
    enumerate_wsf,
    in_bsf_images,
    in_wsf,
    in_wsf_images,
    vsf_generators,
    wsf_bound,
)
from sfsyn.transform import Transformation, format_transformation, zero_path
from test_acceptance import draw_seven_state_dfas
from test_collisions import consistent, focusing_triples
from test_transform import cycles


def T(*images):
    return Transformation(tuple(images))


def report_doc(report: InjectivityReport) -> dict:
    # every field of the report and its verdict
    return {**dataclasses.asdict(report), "passed": report.passed}


def report_digest(report: InjectivityReport) -> str:
    return hashlib.sha256(json.dumps(report_doc(report), sort_keys=True).encode()).hexdigest()


def own_colliding(t: Transformation) -> int:
    """The colliding mask of the semigroup generated by t alone.  The powers
    of t are needed: they collide the pairs along the walk of 0 that the
    inverse uses to stitch the walk back together."""
    sg = closure([t])
    assert consistent(sg), t
    return sg.pair_scan.colliding


@pytest.fixture(scope="module")
def v7():
    return closure(vsf_generators(7))


@pytest.fixture(scope="module")
def v7_colliding(v7):
    return v7.pair_scan.colliding


@pytest.fixture(scope="module")
def criterion_five_semigroups():
    return [transition_semigroup(d) for d in draw_seven_state_dfas()]


# ------------------------------------------------------------ guard rails


def test_walk_into_cycle_rejected():
    with pytest.raises(PreconditionError):
        _forward((1, 2, 3, 1, 6, 6, 6))


def test_unfixed_sink_rejected():
    with pytest.raises(PreconditionError):
        _forward((1, 6, 6, 6, 6, 6, 5))


# ---------------------------------------------------- pinned case labels


def test_collapsing_elements_are_case_1():
    assert _forward((6, 2, 3, 4, 5, 1, 6))[0] == "1"
    assert _forward((1, 6, 6, 6, 6, 6, 6))[0] == "1"


def test_classify_signature_of_each_case():
    cases = {
        T(1, 6, 3, 4, 3, 6, 6): "2",
        T(1, 2, 6, 6, 6, 6, 6): "3",
        T(1, 6, 3, 3, 6, 6, 6): "4",
        T(1, 6, 3, 6, 2, 6, 6): "5",
        T(1, 6, 4, 4, 6, 6, 6): "6(p<r)",
        T(5, 6, 6, 2, 2, 6, 6): "6(p>r)",
        T(1, 6, 3, 6, 5, 6, 6): "7(i)",
        T(4, 2, 6, 5, 6, 6, 6): "7(ii)",
        T(1, 6, 2, 3, 6, 6, 6): "8",
        T(1, 6, 3, 6, 4, 6, 6): "9",
        T(4, 2, 6, 3, 6, 6, 6): "10",
        T(1, 6, 3, 6, 6, 6, 6): "11(i)",
        T(4, 2, 6, 6, 6, 6, 6): "11(ii)",
        T(1, 6, 2, 6, 6, 6, 6): "12",
    }
    for t, expected in cases.items():
        assert _forward(t.images)[0] == expected, t


# --------------------------------------------------- pinned forward images


def test_forward_image_shared_preimage_chain(v7_colliding):
    # the walk of 0 is reversed and its start becomes a fixed point
    t = (1, 2, 6, 6, 6, 6, 6)
    case, image = _phi(t, v7_colliding)
    assert case == "3"
    assert image == (6, 1, 1, 6, 6, 6, 6)
    assert _undo(image, v7_colliding) == t


def test_forward_image_two_fixed_points(v7_colliding):
    # the two isolated fixed points start swapping
    case, image = _phi((1, 6, 2, 3, 6, 6, 6), v7_colliding)
    assert case == "8"
    assert image == (6, 3, 3, 2, 6, 6, 6)


def test_inverse_of_pinned_images(v7_colliding):
    assert _undo((6, 1, 1, 6, 6, 6, 6), v7_colliding) == (1, 2, 6, 6, 6, 6, 6)
    assert _undo((6, 3, 3, 2, 6, 6, 6), v7_colliding) == (1, 6, 2, 3, 6, 6, 6)


def test_collapsing_input_is_its_own_image(v7_colliding):
    t = (6, 2, 3, 4, 5, 1, 6)
    assert _phi(t, v7_colliding) == ("1", t)


# ------------------------------------------------- round trips, case by case


ROUND_TRIP_EXAMPLES = [
    T(1, 6, 3, 4, 3, 6, 6),  # 2, walk of length one into a swap
    T(1, 2, 6, 5, 3, 4, 6),  # 2, longer walk and a 3-cycle
    T(1, 2, 6, 6, 6, 6, 6),  # 3
    T(1, 2, 3, 4, 6, 6, 6),  # 3, longer walk
    T(1, 6, 3, 3, 6, 6, 6),  # 4
    T(1, 6, 3, 6, 2, 6, 6),  # 5
    T(1, 6, 4, 4, 6, 6, 6),  # 6(p<r)
    T(5, 6, 6, 2, 2, 6, 6),  # 6(p>r)
    T(1, 6, 3, 6, 5, 6, 6),  # 7(i)
    T(4, 2, 6, 5, 6, 6, 6),  # 7(ii)
    T(1, 6, 2, 3, 6, 6, 6),  # 8
    T(1, 6, 3, 6, 4, 6, 6),  # 9
    T(4, 2, 6, 3, 6, 6, 6),  # 10
    T(1, 6, 3, 6, 6, 6, 6),  # 11(i)
    T(4, 2, 6, 6, 6, 6, 6),  # 11(ii)
    T(1, 6, 2, 6, 6, 6, 6),  # 12
]


@pytest.mark.parametrize("t", ROUND_TRIP_EXAMPLES, ids=str)
def test_round_trip_and_collapsing_image(t):
    colliding = own_colliding(t)
    case, image = _phi(t.images, colliding)
    assert _undo(image, colliding) == t.images
    assert in_wsf_images(image)
    if case != "1":
        assert image != t.images


def test_every_case_number_is_exercised():
    seen = {_phi(t.images, own_colliding(t))[0].partition("(")[0] for t in ROUND_TRIP_EXAMPLES}
    seen.add("1")
    assert seen == {str(k) for k in range(1, 13)}


def test_random_walk_inputs_round_trip():
    rng = random.Random(1405)
    seen = 0
    while seen < 200:
        images = tuple(rng.randint(1, 6) for _ in range(6)) + (6,)
        if not in_bsf_images(images):
            continue
        sg = closure([Transformation(images)])
        if not consistent(sg):
            continue
        seen += 1
        colliding = sg.pair_scan.colliding
        _, image = _phi(images, colliding)
        assert _undo(image, colliding) == images
        assert in_wsf_images(image)


# ------------------------------------------------- whole-semigroup checks


def test_injective_over_largest_prefix_free_group(v7):
    report = verify_injective(v7)
    assert report.passed
    assert report.size == 4051
    assert report.bound == wsf_bound(7) == 7781
    assert report.within_bound
    assert report.counterexample is None
    assert sum(report.case_counts.values()) == 4051


def test_case_census_is_stable(v7):
    report = verify_injective(v7)
    assert report.case_counts == {
        "1": 1551,
        "2": 525,
        "3": 1240,
        "5": 360,
        "7(i)": 30,
        "7(ii)": 30,
        "8": 115,
        "9": 60,
        "10": 60,
        "11(i)": 30,
        "11(ii)": 30,
        "12": 20,
    }
    # every byte of the report: verdicts, census and counterexample text
    assert (
        report_digest(report)
        == "99849e86acff3c4cd8dfc86d77d4fe3d0866274e7c0501cafc87477378a6d658"
    )


def test_collapsing_family_maps_to_itself():
    sg = transition_semigroup(witness(7))
    report = verify_injective(sg)
    assert report.passed
    assert report.case_counts == {"1": 7781}
    assert report.size == wsf_bound(7)
    assert sg.pair_scan.colliding == 0  # no colliding pair
    assert (
        report_digest(report)
        == "6e875ab0efb1e888605367ccbf8802ce64c69182bdd76770718acd2544592f02"
    )


def test_raw_hot_path_leaves_elements_unbuilt():
    # the pair scan and the embedding run on raw maps, the only form a
    # semigroup keeps its elements in
    sg = transition_semigroup(witness(7))
    assert verify_injective(sg).passed
    assert not any(s.colliding for s in pair_statuses(sg))
    assert strict_bound_witness(sg) is None


def test_embedding_refuses_fewer_than_seven_states():
    # every element of witness(6) lies in w_sf, so no map reaches _phi;
    # the kernel checks no n itself, so these two refusals are its guard
    sg = transition_semigroup(witness(6))
    with pytest.raises(ValueError, match="needs n >= 7"):
        verify_injective(sg)
    with pytest.raises(ValueError, match="needs n >= 7"):
        strict_bound_witness(sg)


def rewired(sg, monkeypatch, targets):
    # a broken forward map sending element i to the image the real one
    # gives element targets[i], or failing its round trip when
    # targets[i] is None.  Only maps outside case 1 reach _phi, so every
    # rewired element must be one of them.  The report must be the
    # oracle's, which sends every map through the same broken _phi
    real = injection._phi
    index = {t: i for i, t in enumerate(sg.raw)}
    reached = set()

    def phi(t, colliding):
        case, image = real(t, colliding)
        i = index[t]
        reached.add(i)
        if i not in targets:
            return case, image
        if targets[i] is None:
            raise NotInImageError(f"element {i} rewired to fail")
        return case, real(sg.raw[targets[i]], colliding)[1]

    monkeypatch.setattr(injection, "_phi", phi)
    report = verify_injective(sg)
    assert reached >= targets.keys()
    assert_same_report(report, old_verify_injective(sg))
    return report


def test_duplicate_images_are_reported(v7, monkeypatch):
    # a broken forward map sending two elements onto a third one's
    # image, that of an earlier case-1 element: the report names the
    # first element whose image repeats
    report = rewired(v7, monkeypatch, {4: 1, 6: 1})
    assert not report.images_distinct and report.all_images_collapsing and report.round_trips
    assert report.counterexample == (
        "6 2 1 3 4 5 6 and 3 1 2 6 4 5 6 share the image 6 2 1 3 4 5 6"
    )


@pytest.mark.parametrize(
    "targets, first, second, image",
    [
        # 3 and 5 both move onto the image of element 20, which comes
        # later: two moved images repeat, none equal to its own map
        ({3: 20, 5: 20}, 3, 5, 20),
        # 3 moves onto element 9, a later case-1 element, which keeps
        # its image
        ({3: 9}, 3, 9, 9),
        # 3 and 5 move onto the later case-1 elements 20 and 9: the
        # clash at element 9 shows first
        ({3: 20, 5: 9}, 5, 9, 9),
        # 22 moves onto element 1, an earlier case-1 element, and 3 onto
        # element 20: the clash at element 20 shows first
        ({22: 1, 3: 20}, 3, 20, 20),
        # 4 moves onto element 2's image, 2 being outside case 1: their
        # clash shows before 3's with the case-1 element 31
        ({3: 31, 4: 2}, 2, 4, None),
    ],
)
def test_rewired_elements_sharing_an_image_are_reported(
    v7, v7_colliding, monkeypatch, targets, first, second, image
):
    # elements 1, 9, 20 and 31 are case 1, so each is its own image;
    # element 2 is not
    report = rewired(v7, monkeypatch, targets)
    assert not report.images_distinct and report.all_images_collapsing and report.round_trips
    shared = v7.raw[image] if image is not None else _phi(v7.raw[2], v7_colliding)[1]
    assert report.counterexample == (
        f"{format_transformation(v7.raw[first])} and {format_transformation(v7.raw[second])} "
        f"share the image {format_transformation(shared)}"
    )


def test_rewired_elements_in_a_cycle_stay_distinct(v7, monkeypatch):
    # moving 3 -> 5 -> 21 -> 3 permutes the images: no repeat, even
    # though each moved image is another element's
    report = rewired(v7, monkeypatch, {3: 5, 5: 21, 21: 3})
    assert report.passed and report.counterexample is None


def rewired_first(sg: TransitionSemigroup) -> TransitionSemigroup:
    # sg with its first five maps outside w_sf moved to the front
    front = [t for t in sg.raw if not in_wsf_images(t)][:5]
    raw = (*front, *(t for t in sg.raw if t not in front))
    return TransitionSemigroup(n=sg.n, raw=raw, raw_set=sg.raw_set)


@pytest.mark.parametrize(
    "front, targets",
    [
        (False, {2: None}),
        (False, {30: None}),
        (True, {0: None}),
        (True, {25: None}),
        # 4 clashes with the case-1 element 1 first: the failure is
        # still what the report names
        (False, {4: 1, 30: None}),
    ],
)
def test_a_failed_round_trip_ends_the_count(v7, monkeypatch, front, targets):
    # the round trip of element stop, outside case 1, fails: the census
    # holds only the maps before it, case 1 included, in the order of
    # each case's first map (rewired checks both against the oracle)
    sg = rewired_first(v7) if front else v7
    stop = next(i for i, target in targets.items() if target is None)
    report = rewired(sg, monkeypatch, targets)
    assert not report.round_trips and report.counterexample.endswith("rewired to fail")
    assert report.case_counts.get("1", 0) == sum(map(in_wsf_images, sg.raw[:stop]))
    assert sum(report.case_counts.values()) == stop


def test_non_collapsing_images_are_reported(v7, monkeypatch):
    # a broken forward map keeping every element as its own image: the
    # v_sf elements outside w_sf are caught, the last one is reported
    real = injection._phi
    monkeypatch.setattr(injection, "_phi", lambda t, colliding: (real(t, colliding)[0], t))
    report = verify_injective(v7)
    assert not report.all_images_collapsing and report.images_distinct
    assert report.counterexample == "1 6 6 5 3 4 6 maps to 1 6 6 5 3 4 6, which does not collapse"
    assert_same_report(report, old_verify_injective(v7))


def test_forward_map_over_all_of_bsf_seven():
    # _forward over every b_sf map on 7 states: no case runs out
    # and every image collapses
    counts: dict[str, int] = {}
    for t in enumerate_bsf(7):
        case, image = _forward(t.images)
        assert in_wsf_images(image), t
        counts[case] = counts.get(case, 0) + 1
    assert counts == {
        "1": 7781,
        "2": 1365,
        "3": 3660,
        "4": 1100,
        "5": 540,
        "6(p<r)": 70,
        "6(p>r)": 70,
        "7(i)": 30,
        "7(ii)": 30,
        "8": 115,
        "9": 60,
        "10": 60,
        "11(i)": 30,
        "11(ii)": 30,
        "12": 20,
    }


def test_in_degree_two_letters_round_trip():
    # letters with shared preimages exercise the two cases the
    # injective-off-sink semigroup never reaches
    sg = closure([T(1, 6, 3, 3, 6, 6, 6), T(1, 6, 4, 4, 6, 6, 6)])
    assert consistent(sg)
    assert all(in_bsf_images(t) for t in sg.raw)
    report = verify_injective(sg)
    assert report.passed
    assert "4" in report.case_counts
    assert "6(p<r)" in report.case_counts


def test_cycle_attachment_sharing_traffic_round_trips():
    # (3,5,6,6,1,1,6) has the 2-cycle 1<->5, and its image sends both
    # the old chain start 3 and the honest preimage 4 into state 1.
    # Two colliding pairs then focus on a cycle state; only the split
    # one, {3,5}, marks the chain attachment.
    sg = closure([T(1, 3, 6, 6, 4, 4, 6), T(6, 6, 5, 2, 5, 3, 6), T(6, 3, 6, 5, 1, 2, 6)])
    assert consistent(sg)
    t = T(3, 5, 6, 6, 1, 1, 6)
    assert bytes(t.images) in sg.raw_set
    colliding = sg.pair_scan.colliding
    case, image = _phi(t.images, colliding)
    assert case == "2"
    assert _undo(image, colliding) == t.images
    report = verify_injective(sg)
    assert report.passed, report.counterexample


def test_report_json_shape(v7):
    data = report_doc(verify_injective(v7))
    assert data["passed"] is True
    assert data["n"] == 7
    assert data["bound"] == 7781
    assert isinstance(data["case_counts"], dict)


# ------------------------------------------------------ strict inequality


def test_strict_bound_witness_exists_for_colliding_semigroup(v7, v7_colliding):
    w = strict_bound_witness(v7)
    assert w is not None
    assert w == T(6, 2, 2, 4, 5, 3, 6)
    assert in_wsf(w)
    with pytest.raises(NotInImageError):
        _undo(w.images, v7_colliding)


def test_strict_bound_witness_misses_every_image(v7, v7_colliding):
    w = strict_bound_witness(v7)
    images = {_phi(t, v7_colliding)[1] for t in v7.raw}
    assert bytes(w.images) not in images
    assert len(images) == v7.size < wsf_bound(7)


def test_no_witness_without_colliding_pairs():
    sg = transition_semigroup(witness(7))
    assert strict_bound_witness(sg) is None


def test_witness_needs_seven_states():
    sg = transition_semigroup(witness(5))
    with pytest.raises(ValueError):
        strict_bound_witness(sg)


# ----------------------------------------------- sampled consistent closures


def _random_bsf(rng, n=7):
    while True:
        images = tuple(rng.randint(1, n - 1) for _ in range(n - 1)) + (n - 1,)
        if in_bsf_images(images):
            return Transformation(images)


def test_sampled_consistent_semigroups_embed():
    rng = random.Random(977)
    checked = 0
    while checked < 25:
        gens = [_random_bsf(rng) for _ in range(rng.randint(1, 3))]
        sg = closure(gens)
        if not all(in_bsf_images(t) for t in sg.raw):
            continue
        if not consistent(sg):
            continue
        checked += 1
        report = verify_injective(sg)
        assert report.passed, report.counterexample
        assert report.size <= wsf_bound(7)


def test_strict_bound_witness_outside_wsf_is_a_case_exhaustion(v7, monkeypatch):
    # the witness's w_sf check is explicit, so it also runs under -O
    monkeypatch.setattr(injection, "in_wsf_images", lambda images: False)
    with pytest.raises(CaseExhaustionError, match=r"6 2 2 4 5 3 6 is not in w_sf\(7\)"):
        strict_bound_witness(v7)


def test_strict_bound_witness_with_a_preimage_is_a_case_exhaustion(v7, monkeypatch):
    # the gap is checked, not only argued: a witness that is an element,
    # or that the inverse takes back to a map, is refused
    w = bytes(strict_bound_witness(v7).images)
    holding = dataclasses.replace(v7, raw_set=v7.raw_set | {w})
    with pytest.raises(CaseExhaustionError, match=r"6 2 2 4 5 3 6 is an element"):
        strict_bound_witness(holding)
    monkeypatch.setattr(injection, "_undo", lambda s, colliding: s)
    with pytest.raises(CaseExhaustionError, match=r"6 2 2 4 5 3 6 inverts to 6 2 2 4 5 3 6$"):
        strict_bound_witness(v7)


# ----------------------------------- the per-map kernel against its oracle
#
# The kernel as it stood before case 1 became one w_sf test on the raw
# map: the b_sf guard first, then the collapse condition, in_degree
# counts per state and test, a case ladder walked twice (old_case
# picks the label, old_build re-derives what it needs for the image),
# and an inverse that scans the focused pairs even under an empty
# colliding mask.  The helpers it calls (_interior, _eligible_movers,
# _interior_fixed, _zero_chain, _rebuild_chain, _restore,
# _invert_with_cycles) are unchanged since, except that _rebuild_chain
# looks pairs up in the colliding mask rather than in a set of pair
# tuples.  _interior, _rebuild_chain and _restore still come from the
# module, and cycles from test_transform.py; the others left the
# module, or came to take the set of cycle states, when its kernel came
# to read only what each case tests, and stand here as they were.


def _eligible_movers(t: Sequence[int]) -> list[int]:
    # interior states that are not fixed and whose image is not n-1
    n = len(t)
    return [q for q in _interior(n) if t[q] != q and t[q] != n - 1]


def _interior_fixed(t: Sequence[int]) -> list[int]:
    return [q for q in _interior(len(t)) if t[q] == q]


def _zero_chain(t: Sequence[int]) -> list[int]:
    # p, pt, ..., pt^k: the interior stretch of the walk of 0
    return list(zero_path(t).states[1:-1])


def _invert_with_cycles(s, colliding, fc, cycs) -> Sequence[int]:
    # the reversed walk of 0 may focus extra colliding pairs, because
    # its attachment state can take ordinary traffic too; the reliable
    # marker is the pair split by a cycle, one member on it and one
    # off.  Pairs the preimage already focused are never colliding, so
    # a consistent semigroup keeps that marker unique.
    n = len(s)
    cyc_states = {q for c in cycs for q in c}
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
        if len(cycs) == 1 and len(cycs[0]) == 2:
            # case 8: two former fixed points swapped
            r1, r2 = cycs[0]
            if z != r2 or r1 != on:
                raise NotInImageError("2-cycle pair does not fit the swap shape")
            return _restore(s, x + y - r1, {r1: r1, r2: r2})
        if len(cycs) == 1 and len(cycs[0]) == 3:
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
    if len(fc) != 1 or len(cycs) != 1 or len(cycs[0]) != 2:
        raise NotInImageError("cycle shape fits no case")
    (x, y), z = fc[0]
    r1, r2 = cycs[0]
    if z in (x, y) and s[z] == z:
        # case 12: target is the surviving fixed point
        return _restore(s, x + y - z, {r1: n - 1, r2: n - 1})
    if s[z] == n - 1:
        # case 11(ii): the swap marks the larger walk start
        r = min(x, y)
        return _restore(s, max(x, y), {r: n - 1, z: r, r1: n - 1, r2: n - 1})
    raise NotInImageError("focused pair beside a cycle fits no case")


def in_degree(t: Sequence[int], q: int) -> int:
    return list(t).count(q)


def collapses(images):
    last = len(images) - 1
    return images[0] == last or all(images[q] == last for q in range(1, last))


def old_guard(t: Sequence[int]) -> None:
    n = len(t)
    if not in_bsf_images(t):
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


def old_case(t: Sequence[int]) -> str:
    # the case label of an image sequence; the guard has checked b_sf,
    # so case 1 (w_sf) is the collapse condition alone
    old_guard(t)
    n = len(t)
    if collapses(t):
        return "1"
    p = t[0]
    if cycles(t):
        return "2"
    if t[p] != n - 1:
        return "3"
    if any(in_degree(t, r) >= 2 for r in _interior_fixed(t)):
        return "4"
    if any(
        in_degree(t, r) >= 1 and t[r] != r and t[r] != n - 1
        for r in _interior(n)
    ):
        return "5"
    heavy = [r for r in _interior(n) if in_degree(t, r) >= 2]
    if heavy:
        r = heavy[0]
        if r == p:
            raise CaseExhaustionError(
                f"{format_transformation(t)}: state {p} reached from 0 has "
                "in-degree >= 2, impossible under suffix-freeness"
            )
        return "6(p<r)" if p < r else "6(p>r)"
    movers = _eligible_movers(t)
    if len(movers) >= 2:
        r1 = t[movers[0]]
        return "7(i)" if p < r1 else "7(ii)"
    isolated = [r for r in _interior_fixed(t) if in_degree(t, r) == 1]
    if len(isolated) >= 2:
        return "8"
    if len(movers) == 1:
        q = movers[0]
        r = t[q]
        if r == p:
            raise CaseExhaustionError(
                f"{format_transformation(t)}: the moving state {q} maps to "
                f"{p}, which only 0 may reach under suffix-freeness"
            )
        if _interior_fixed(t):
            return "9" if p < r else "10"
        return "11(i)" if p < r else "11(ii)"
    # fall-through: exactly one isolated fixed point, all else collapsed
    fixed = _interior_fixed(t)
    collapsed = all(
        t[q] == n - 1 for q in _interior(n) if q not in fixed and q != p
    )
    if len(fixed) != 1 or not collapsed or t[p] != n - 1:
        raise CaseExhaustionError(
            f"{format_transformation(t)} matches no structural case; "
            f"fixed interior states {fixed}, walk target {t[p]}"
        )
    return "12"


def old_build(t: Sequence[int], case: str) -> Sequence[int]:
    # the image of t under its case, of the same sequence type as t
    if case == "1":
        return t
    n = len(t)
    p = t[0]
    imgs = list(t)
    imgs[0] = n - 1
    if case in ("2", "3"):
        # reverse the walk of 0; p goes to the least cycle state or stays
        chain = _zero_chain(t)
        imgs[p] = min(q for c in cycles(t) for q in c) if case == "2" else p
        for i in range(1, len(chain)):
            imgs[chain[i]] = chain[i - 1]
    elif case == "4":
        r = min(q for q in _interior_fixed(t) if in_degree(t, q) >= 2)
        imgs[p] = r
    elif case == "5":
        r = min(
            q
            for q in _interior(n)
            if in_degree(t, q) >= 1
            and t[q] != q
            and t[q] != n - 1
            and t[t[q]] == n - 1
        )
        imgs[p] = t[r]
    elif case.startswith("6"):
        r = min(q for q in _interior(n) if in_degree(t, q) >= 2)
        pre = sorted(q for q in range(n) if t[q] == r)
        if case == "6(p<r)":
            q1, q2 = pre[0], pre[1]
        else:
            q1, q2 = pre[1], pre[0]
        imgs[p] = q1
        imgs[r] = q1
        imgs[q1] = q2
        imgs[q2] = n - 1
    elif case.startswith("7"):
        q1, q2 = _eligible_movers(t)[:2]
        r1 = t[q1]
        imgs[p] = q1
        imgs[r1] = q1
        imgs[q1] = n - 1 if case == "7(i)" else q2
    elif case == "8":
        isolated = [r for r in _interior_fixed(t) if in_degree(t, r) == 1]
        r1, r2 = isolated[0], isolated[1]
        imgs[p] = r2
        imgs[r1] = r2
        imgs[r2] = r1
    elif case == "9":
        q = _eligible_movers(t)[0]
        r = t[q]
        f = _interior_fixed(t)[0]
        imgs[p] = r
        imgs[r] = q
        imgs[q] = p
        imgs[f] = r
    elif case in ("10", "11(i)", "11(ii)"):
        q = _eligible_movers(t)[0]
        r = t[q]
        imgs[p] = q
        imgs[r] = q
        imgs[q] = n - 1
        if case == "11(ii)":
            r1, r2 = sorted(set(_interior(n)) - {p, q, r})[:2]
            imgs[r1] = r2
            imgs[r2] = r1
    else:  # case 12
        f = _interior_fixed(t)[0]
        imgs[p] = f
        r1, r2 = sorted(set(_interior(n)) - {p, f})[:2]
        imgs[r1] = r2
        imgs[r2] = r1
    return type(t)(imgs)


def colliding_pairs_of(n: int, mask: int) -> set[tuple[int, int]]:
    # the colliding mask read back as pairs, bit i the i-th pair in
    # combinations order
    pairs = itertools.combinations(range(1, n - 1), 2)
    return {pair for i, pair in enumerate(pairs) if mask >> i & 1}


def old_focused_colliding(s: Sequence[int], mask: int) -> list[tuple[tuple[int, int], int]]:
    if not mask:
        return []  # only colliding pairs are kept
    colliding = colliding_pairs_of(len(s), mask)
    return [
        ((x, y), z)
        for x, y, z in focusing_triples(s)
        if (x, y) in colliding
    ]


def old_inverse(s: Sequence[int], colliding: int) -> Sequence[int]:
    # the inverse on an image sequence
    fc = old_focused_colliding(s, colliding)
    if not fc:
        return s  # case 1
    cycs = cycles(s)
    if cycs:
        return _invert_with_cycles(s, colliding, fc, cycs)
    return old_invert_acyclic(s, colliding, fc)


def old_invert_acyclic(s, colliding, fc) -> Sequence[int]:
    n = len(s)
    on_fixed = [(pair, z) for pair, z in fc if z in pair and s[z] == z]
    if on_fixed:
        # fixed target inside the pair: cases 3 and 4
        if len(on_fixed) != 1:
            raise NotInImageError("several focused colliding pairs hit fixed points")
        (x, y), z = on_fixed[0]
        deg = in_degree(s, z)
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
    dx, dy = in_degree(s, x), in_degree(s, y)
    if (dx == 0) != (dy == 0):
        # case 5 with one pair: the walk start took no traffic
        return _restore(s, x if dx == 0 else y, {})
    if dx != 0:
        raise NotInImageError("both pair states receive traffic")
    movers = [
        w for w in _interior(n) if w not in (x, y) and s[w] != w and s[w] != n - 1
    ]
    if movers or not _interior_fixed(s):
        # cases 7(i) and 11(i)
        p, r = min(x, y), max(x, y)
    else:
        # case 10
        p, r = max(x, y), min(x, y)
    return _restore(s, p, {r: n - 1, z: r})


def outcome(f, *args):
    # a result, or the type and message of what f raised
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - every raise is compared
        return type(e), str(e)


def old_forward(t: Sequence[int]) -> tuple[str, Sequence[int]]:
    case = old_case(t)
    return case, old_build(t, case)


def assert_kernel_matches_oracle(maps, colliding):
    # label, image and inverse of each map, or the same exception
    for t in maps:
        forward = outcome(_forward, t)
        assert forward == outcome(old_forward, t), t
        if isinstance(forward[0], str):
            image = forward[1]
            assert outcome(_undo, image, colliding) == outcome(old_inverse, image, colliding), t


def test_cycle_states_match_cycles_on_every_map_up_to_six_states():
    # the kernel's cycle walk against the full cycles on every map,
    # 0 and n-1 on cycles or not
    for n in range(1, 7):
        for images in itertools.product(range(n), repeat=n):
            assert _cycle_states(images) == {q for c in cycles(images) for q in c}, images


def test_kernel_matches_oracle_on_bsf_seven_and_near_wsf_maps():
    # every b_sf map, then every map with n-1 fixed that sends 0 or all
    # interior states to n-1: those with 0 among their images fail the
    # guard, and a w_sf test that forgot 0 would call them case 1
    assert_kernel_matches_oracle([t.images for t in enumerate_bsf(7)], 0)
    near = [(6, *mid, 6) for mid in itertools.product(range(7), repeat=5)]
    near += [(p, 6, 6, 6, 6, 6, 6) for p in range(6)]
    assert sum(0 in t for t in near) > 0
    assert_kernel_matches_oracle(near, 0)
    assert_kernel_matches_oracle([bytes(t) for t in near], 0)


def test_kernel_matches_oracle_on_bsf_seven_under_own_contexts():
    # every b_sf map under the collision data of its own powers: under
    # an empty mask the inverse returns each image unread, so only
    # here does it walk its case ladder on every b_sf image, and every
    # label occurs
    labels = set()
    for t in enumerate_bsf(7):
        colliding = own_colliding(t)
        assert_kernel_matches_oracle([t.images], colliding)
        labels.add(_phi(t.images, colliding)[0])
    assert labels == {
        "1", "2", "3", "4", "5", "6(p<r)", "6(p>r)", "7(i)", "7(ii)",
        "8", "9", "10", "11(i)", "11(ii)", "12",
    }


def test_kernel_matches_oracle_on_vsf_seven(v7, v7_colliding):
    assert_kernel_matches_oracle(v7.raw, v7_colliding)
    # every w_sf map through the inverse: most are no image at all
    for s in enumerate_wsf(7).raw:
        assert outcome(_undo, s, v7_colliding) == outcome(old_inverse, s, v7_colliding), s


def test_kernel_matches_oracle_on_criterion_five_samples(criterion_five_semigroups):
    for sg in criterion_five_semigroups:
        assert_kernel_matches_oracle(sg.raw, sg.pair_scan.colliding)


# ------------------------------- the semigroup loop against its oracle
#
# verify_injective as it stood before it decided case 1 itself: every
# map goes through _phi, and every image gets its own w_sf test.


def old_verify_injective(sg: TransitionSemigroup) -> InjectivityReport:
    # the module's _phi, so that a patched one is the oracle's too
    _phi = injection._phi
    colliding = sg.pair_scan.colliding
    counts: dict[str, int] = {}
    moved: dict[bytes, bytes] = {}
    duplicate = None
    all_wsf = True
    round_trips = True
    counterexample = None
    for i, t in enumerate(sg.raw):
        try:
            case, image = _phi(t, colliding)
        except (PreconditionError, CaseExhaustionError, NotInImageError) as e:
            counterexample = f"{format_transformation(t)}: {e}"
            round_trips = False
            break
        counts[case] = counts.get(case, 0) + 1
        if duplicate is None:
            if image == t:
                earlier = moved.get(t)
            else:
                earlier = moved.setdefault(image, t)
                if earlier == t:
                    fixed_before = (
                        image in sg.raw_set
                        and sg.raw.index(image) < i
                        and _phi(image, colliding)[1] == image
                    )
                    earlier = image if fixed_before else None
            if earlier is not None:
                duplicate = (
                    f"{format_transformation(earlier)} and {format_transformation(t)} "
                    f"share the image {format_transformation(image)}"
                )
        if not in_wsf_images(image):
            all_wsf = False
            counterexample = (
                f"{format_transformation(t)} maps to "
                f"{format_transformation(image)}, which does not collapse"
            )
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


def assert_same_report(report: InjectivityReport, expected: InjectivityReport) -> None:
    # every report field, and the census in insertion order
    assert report == expected
    assert list(report.case_counts.items()) == list(expected.case_counts.items())


def assert_loop_matches_oracle(sg: TransitionSemigroup) -> InjectivityReport:
    report = verify_injective(sg)
    assert_same_report(report, old_verify_injective(sg))
    return report


def test_loop_matches_oracle_on_witness_vsf_and_wsf_seven(v7):
    # witness(7) spans two chunks of the column pass
    assert assert_loop_matches_oracle(transition_semigroup(witness(7))).passed
    assert assert_loop_matches_oracle(v7).passed
    assert assert_loop_matches_oracle(enumerate_wsf(7)).passed
    # v_sf(7) with five maps outside case 1 moved to the front: the
    # census starts with their cases
    report = assert_loop_matches_oracle(rewired_first(v7))
    assert report.passed and next(iter(report.case_counts)) != "1"


def test_loop_matches_oracle_on_criterion_five_samples(criterion_five_semigroups):
    for sg in criterion_five_semigroups:
        assert_loop_matches_oracle(sg)


def test_a_wsf_map_focusing_a_colliding_pair_is_a_structure_error():
    # an inconsistent hand-built semigroup: (1 2 6 6 6 6 6) collides the
    # pair {1, 2}, which the w_sf map (6 3 3 6 6 6 6) focuses onto 3
    raw = tuple(bytes(t) for t in ((6,) * 7, (1, 2, 6, 6, 6, 6, 6), (6, 3, 3, 6, 6, 6, 6)))
    sg = TransitionSemigroup(n=7, raw=raw, raw_set=frozenset(raw))
    assert sg.pair_scan.colliding == 1  # the bit of {1, 2}
    with pytest.raises(StructureError) as e:
        verify_injective(sg)
    assert str(e.value) == (
        "pair {1, 2} is colliding, first by 1 2 6 6 6 6 6, "
        "and focused onto 3, first by 6 3 3 6 6 6 6"
    )


def test_a_focus_scan_stopped_early_still_finds_the_inconsistency():
    # an inconsistent hand-built semigroup whose pair scan stops its
    # focus part at the third map: (6 1 1 1 1 1 6) focuses all ten
    # interior pairs onto 1, so the scan never reads (6 3 3 6 6 6 6).
    # Every pair is focused by then, the colliding pair {1, 2} too, and
    # the message names its first focusing map
    raw = tuple(
        bytes(t)
        for t in (
            (6,) * 7,
            (1, 2, 6, 6, 6, 6, 6),
            (6, 1, 1, 1, 1, 1, 6),
            (6, 3, 3, 6, 6, 6, 6),
        )
    )
    sg = TransitionSemigroup(n=7, raw=raw, raw_set=frozenset(raw))
    assert sg.pair_scan.colliding == 1  # the bit of {1, 2}
    assert sg.pair_scan.focused_by == {1 << i: (raw[2], 1) for i in range(10)}
    with pytest.raises(StructureError) as e:
        verify_injective(sg)
    assert str(e.value) == (
        "pair {1, 2} is colliding, first by 1 2 6 6 6 6 6, "
        "and focused onto 1, first by 6 1 1 1 1 1 6"
    )


@pytest.mark.parametrize("check", [verify_injective, strict_bound_witness])
def test_an_inconsistent_semigroup_is_refused_by_both_checks(check):
    # the letters (1 2 6 6 6 6 6), colliding {1, 2}, and (6 3 3 6 6 6 6),
    # focusing it onto 3: the strict-gap witness refuses the semigroup
    # as the embedding does, rather than return a gap built on a
    # colliding pair that is also focused
    sg = closure([T(1, 2, 6, 6, 6, 6, 6), T(6, 3, 3, 6, 6, 6, 6)])
    with pytest.raises(StructureError) as e:
        check(sg)
    assert str(e.value) == (
        "pair {1, 2} is colliding, first by 1 2 6 6 6 6 6, "
        "and focused onto 3, first by 6 3 3 6 6 6 6"
    )


def test_an_element_moving_the_empty_state_is_a_structure_error():
    # (6 6 6 6 6 6 5) sends n-1 to 5: the checked scan refuses it before
    # any map is embedded
    raw = tuple(bytes(t) for t in ((6,) * 7, (6, 6, 6, 6, 6, 6, 5)))
    sg = TransitionSemigroup(n=7, raw=raw, raw_set=frozenset(raw))
    with pytest.raises(StructureError, match="element 6 6 6 6 6 6 5 does not fix state 6"):
        verify_injective(sg)
