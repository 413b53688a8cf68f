"""Tests for the case-by-case embedding and its inverse."""
import hashlib
import itertools
import json
import random
from typing import Sequence

import pytest

from sfsyn import injection
from sfsyn.collisions import StructureError, focused_triples, pair_statuses
from sfsyn.dfa import transition_semigroup, witness
from sfsyn.injection import (
    CaseExhaustionError,
    InjectivityReport,
    NotInImageError,
    PhiContext,
    PreconditionError,
    _eligible_movers,
    _forward,
    _interior,
    _interior_fixed,
    _inverse,
    _invert_with_cycles,
    _phi,
    _rebuild_chain,
    _restore,
    _zero_chain,
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
from sfsyn.transform import Transformation, cycles, format_transformation, zero_path
from test_acceptance import draw_seven_state_dfas
from test_collisions import consistent


def T(*images):
    return Transformation(tuple(images))


def report_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def own_ctx(t: Transformation) -> PhiContext:
    """Collision data of the semigroup generated by t alone.  The powers
    of t are needed: they collide the pairs along the walk of 0 that the
    inverse uses to stitch the walk back together."""
    sg = closure([t])
    assert consistent(sg), t
    return PhiContext(sg.n, sg.pair_scan.colliding)


@pytest.fixture(scope="module")
def v7():
    return closure(vsf_generators(7))


@pytest.fixture(scope="module")
def v7_ctx(v7):
    return PhiContext(v7.n, v7.pair_scan.colliding)


@pytest.fixture(scope="module")
def criterion_five_semigroups():
    return [transition_semigroup(d) for d in draw_seven_state_dfas()]


# ------------------------------------------------------------ guard rails


def test_small_n_rejected():
    ctx = PhiContext(n=4, colliding=0)
    with pytest.raises(ValueError):
        _forward((3, 1, 2, 3), ctx)
    with pytest.raises(ValueError):
        _inverse((3, 1, 2, 3), ctx)


def test_walk_into_cycle_rejected(v7_ctx):
    with pytest.raises(PreconditionError):
        _forward((1, 2, 3, 1, 6, 6, 6), v7_ctx)


def test_unfixed_sink_rejected(v7_ctx):
    with pytest.raises(PreconditionError):
        _forward((1, 6, 6, 6, 6, 6, 5), v7_ctx)


def test_size_mismatch_rejected(v7_ctx):
    with pytest.raises(ValueError):
        _forward((1, 2, 3, 4, 5, 6, 7, 7), v7_ctx)


# ---------------------------------------------------- pinned case labels


def test_collapsing_elements_are_case_1(v7_ctx):
    assert _forward((6, 2, 3, 4, 5, 1, 6), v7_ctx)[0] == "1"
    assert _forward((1, 6, 6, 6, 6, 6, 6), v7_ctx)[0] == "1"


def test_classify_signature_of_each_case(v7_ctx):
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
        assert _forward(t.images, own_ctx(t))[0] == expected, t


# --------------------------------------------------- pinned forward images


def test_forward_image_shared_preimage_chain(v7_ctx):
    # the walk of 0 is reversed and its start becomes a fixed point
    t = (1, 2, 6, 6, 6, 6, 6)
    case, image = _phi(t, v7_ctx)
    assert case == "3"
    assert image == (6, 1, 1, 6, 6, 6, 6)
    assert _inverse(image, v7_ctx) == t


def test_forward_image_two_fixed_points(v7_ctx):
    # the two isolated fixed points start swapping
    case, image = _phi((1, 6, 2, 3, 6, 6, 6), v7_ctx)
    assert case == "8"
    assert image == (6, 3, 3, 2, 6, 6, 6)


def test_inverse_of_pinned_images(v7_ctx):
    assert _inverse((6, 1, 1, 6, 6, 6, 6), v7_ctx) == (1, 2, 6, 6, 6, 6, 6)
    assert _inverse((6, 3, 3, 2, 6, 6, 6), v7_ctx) == (1, 6, 2, 3, 6, 6, 6)


def test_collapsing_input_is_its_own_image(v7_ctx):
    t = (6, 2, 3, 4, 5, 1, 6)
    assert _phi(t, v7_ctx) == ("1", t)


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
    ctx = own_ctx(t)
    case, image = _phi(t.images, ctx)
    assert _inverse(image, ctx) == t.images
    assert in_wsf_images(image)
    if case != "1":
        assert image != t.images


def test_every_case_number_is_exercised():
    seen = {_phi(t.images, own_ctx(t))[0].partition("(")[0] for t in ROUND_TRIP_EXAMPLES}
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
        ctx = PhiContext(sg.n, sg.pair_scan.colliding)
        _, image = _phi(images, ctx)
        assert _inverse(image, ctx) == images
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
        report_digest(report.to_json())
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
        report_digest(report.to_json())
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
    # every element of witness(6) lies in w_sf, so no map reaches _phi
    with pytest.raises(ValueError, match="needs n >= 7"):
        verify_injective(transition_semigroup(witness(6)))


def rewired(sg, monkeypatch, targets):
    # a broken forward map sending element i to the image the real one
    # gives element targets[i].  Only maps outside case 1 reach _phi, so
    # every rewired element must be one of them
    real = injection._phi
    index = {t: i for i, t in enumerate(sg.raw)}
    reached = set()

    def phi(t, ctx):
        case, image = real(t, ctx)
        i = index[t]
        reached.add(i)
        return case, real(sg.raw[targets[i]], ctx)[1] if i in targets else image

    monkeypatch.setattr(injection, "_phi", phi)
    report = verify_injective(sg)
    assert reached >= targets.keys()
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
    ],
)
def test_rewired_elements_sharing_an_image_are_reported(
    v7, monkeypatch, targets, first, second, image
):
    # element 20 and element 9 are case 1, so each is its own image
    report = rewired(v7, monkeypatch, targets)
    assert not report.images_distinct and report.all_images_collapsing and report.round_trips
    assert report.counterexample == (
        f"{format_transformation(v7.raw[first])} and {format_transformation(v7.raw[second])} "
        f"share the image {format_transformation(v7.raw[image])}"
    )


def test_rewired_elements_in_a_cycle_stay_distinct(v7, monkeypatch):
    # moving 3 -> 5 -> 21 -> 3 permutes the images: no repeat, even
    # though each moved image is another element's
    report = rewired(v7, monkeypatch, {3: 5, 5: 21, 21: 3})
    assert report.passed and report.counterexample is None


def test_non_collapsing_images_are_reported(v7, monkeypatch):
    # a broken forward map keeping every element as its own image: the
    # v_sf elements outside w_sf are caught, the last one is reported
    real = injection._phi
    monkeypatch.setattr(injection, "_phi", lambda t, ctx: (real(t, ctx)[0], t))
    report = verify_injective(v7)
    assert not report.all_images_collapsing and report.images_distinct
    assert report.counterexample == "1 6 6 5 3 4 6 maps to 1 6 6 5 3 4 6, which does not collapse"


def test_forward_map_over_all_of_bsf_seven():
    # _forward over every b_sf map on 7 states: no case runs out
    # and every image collapses
    ctx = PhiContext(7, 0)
    counts: dict[str, int] = {}
    for t in enumerate_bsf(7):
        case, image = _forward(t.images, ctx)
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
    ctx = PhiContext(sg.n, sg.pair_scan.colliding)
    case, image = _phi(t.images, ctx)
    assert case == "2"
    assert _inverse(image, ctx) == t.images
    report = verify_injective(sg)
    assert report.passed, report.counterexample


def test_report_json_shape(v7):
    data = verify_injective(v7).to_json()
    assert data["passed"] is True
    assert data["n"] == 7
    assert data["bound"] == 7781
    assert isinstance(data["case_counts"], dict)


# ------------------------------------------------------ strict inequality


def test_strict_bound_witness_exists_for_colliding_semigroup(v7, v7_ctx):
    w = strict_bound_witness(v7)
    assert w is not None
    assert w == T(6, 2, 2, 4, 5, 3, 6)
    assert in_wsf(w)
    with pytest.raises(NotInImageError):
        _inverse(w.images, v7_ctx)


def test_strict_bound_witness_misses_every_image(v7, v7_ctx):
    w = strict_bound_witness(v7)
    images = {_phi(t, v7_ctx)[1] for t in v7.raw}
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


# ----------------------------------- the per-map kernel against its oracle
#
# The kernel as it stood before case 1 became one w_sf test on the raw
# map: the b_sf guard first, then the collapse condition, in_degree
# counts per state and test, a case ladder walked twice (old_case
# picks the label, old_build re-derives what it needs for the image),
# and an inverse that scans the focused pairs even under an empty
# collision context.  The helpers it calls from the module (_interior,
# _eligible_movers, _interior_fixed, _zero_chain, _rebuild_chain,
# _restore, _invert_with_cycles) are unchanged since, except that
# _rebuild_chain looks pairs up in the context's mask rather than in a
# set of pair tuples.


def in_degree(t: Sequence[int], q: int) -> int:
    return list(t).count(q)


def collapses(images):
    last = len(images) - 1
    return images[0] == last or all(images[q] == last for q in range(1, last))


def old_guard(t: Sequence[int], ctx: PhiContext) -> None:
    if ctx.n < 7:
        raise ValueError("the embedding needs n >= 7")
    n = len(t)
    if n != ctx.n:
        raise ValueError(f"transformation on {n} states, context has {ctx.n}")
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


def old_case(t: Sequence[int], ctx: PhiContext) -> str:
    # the case label of an image sequence; the guard has checked b_sf,
    # so case 1 (w_sf) is the collapse condition alone
    old_guard(t, ctx)
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


def colliding_pairs_of(ctx: PhiContext) -> set[tuple[int, int]]:
    # the context's mask read back as pairs, bit i the i-th pair in
    # combinations order
    pairs = itertools.combinations(range(1, ctx.n - 1), 2)
    return {pair for i, pair in enumerate(pairs) if ctx.colliding >> i & 1}


def old_focused_colliding(s: Sequence[int], ctx: PhiContext) -> list[tuple[tuple[int, int], int]]:
    if not ctx.colliding:
        return []  # only colliding pairs are kept
    colliding = colliding_pairs_of(ctx)
    return [
        ((x, y), z)
        for x, y, z in sorted(focused_triples(s))
        if (x, y) in colliding
    ]


def old_inverse(s: Sequence[int], ctx: PhiContext) -> Sequence[int]:
    # the inverse on an image sequence
    if ctx.n < 7:
        raise ValueError("the embedding needs n >= 7")
    n = len(s)
    if n != ctx.n:
        raise ValueError(f"transformation on {n} states, context has {ctx.n}")
    fc = old_focused_colliding(s, ctx)
    if not fc:
        return s  # case 1
    cycs = cycles(s)
    if cycs:
        return _invert_with_cycles(s, ctx, fc, cycs)
    return old_invert_acyclic(s, ctx, fc)


def old_invert_acyclic(s, ctx, fc) -> Sequence[int]:
    n = len(s)
    on_fixed = [(pair, z) for pair, z in fc if z in pair and s[z] == z]
    if on_fixed:
        # fixed target inside the pair: cases 3 and 4
        if len(on_fixed) != 1:
            raise NotInImageError("several focused colliding pairs hit fixed points")
        (x, y), z = on_fixed[0]
        deg = in_degree(s, z)
        if deg == 2:
            return _rebuild_chain(s, z, ctx)  # case 3
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


def old_forward(t: Sequence[int], ctx: PhiContext) -> tuple[str, Sequence[int]]:
    case = old_case(t, ctx)
    return case, old_build(t, case)


def assert_kernel_matches_oracle(maps, ctx):
    # label, image and inverse of each map, or the same exception
    for t in maps:
        forward = outcome(_forward, t, ctx)
        assert forward == outcome(old_forward, t, ctx), t
        if isinstance(forward[0], str):
            image = forward[1]
            assert outcome(_inverse, image, ctx) == outcome(old_inverse, image, ctx), t


def test_kernel_matches_oracle_on_bsf_seven_and_near_wsf_maps():
    # every b_sf map, then every map with n-1 fixed that sends 0 or all
    # interior states to n-1: those with 0 among their images fail the
    # guard, and a w_sf test that forgot 0 would call them case 1
    ctx = PhiContext(7, 0)
    assert_kernel_matches_oracle([t.images for t in enumerate_bsf(7)], ctx)
    near = [(6, *mid, 6) for mid in itertools.product(range(7), repeat=5)]
    near += [(p, 6, 6, 6, 6, 6, 6) for p in range(6)]
    assert sum(0 in t for t in near) > 0
    assert_kernel_matches_oracle(near, ctx)
    assert_kernel_matches_oracle([bytes(t) for t in near], ctx)


def test_kernel_matches_oracle_on_vsf_seven(v7, v7_ctx):
    assert_kernel_matches_oracle(v7.raw, v7_ctx)
    # every w_sf map through the inverse: most are no image at all
    for s in enumerate_wsf(7).raw:
        assert outcome(_inverse, s, v7_ctx) == outcome(old_inverse, s, v7_ctx), s


def test_kernel_matches_oracle_on_criterion_five_samples(criterion_five_semigroups):
    for sg in criterion_five_semigroups:
        assert_kernel_matches_oracle(sg.raw, PhiContext(sg.n, sg.pair_scan.colliding))


# ------------------------------- the semigroup loop against its oracle
#
# verify_injective as it stood before it decided case 1 itself: every
# map goes through _phi, and every image gets its own w_sf test.


def old_verify_injective(sg: TransitionSemigroup) -> InjectivityReport:
    ctx = PhiContext(sg.n, sg.pair_scan.colliding)
    counts: dict[str, int] = {}
    moved: dict[bytes, bytes] = {}
    duplicate = None
    all_wsf = True
    round_trips = True
    counterexample = None
    for i, t in enumerate(sg.raw):
        try:
            case, image = _phi(t, ctx)
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
                        and _phi(image, ctx)[1] == image
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


def assert_loop_matches_oracle(sg: TransitionSemigroup) -> InjectivityReport:
    # every report byte, and the census in insertion order
    report, expected = verify_injective(sg), old_verify_injective(sg)
    assert report.to_json() == expected.to_json()
    assert list(report.case_counts.items()) == list(expected.case_counts.items())
    return report


def test_loop_matches_oracle_on_witness_vsf_and_wsf_seven(v7):
    assert assert_loop_matches_oracle(transition_semigroup(witness(7))).passed
    assert assert_loop_matches_oracle(v7).passed
    assert assert_loop_matches_oracle(enumerate_wsf(7)).passed


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


def test_an_element_moving_the_empty_state_is_a_structure_error():
    # (6 6 6 6 6 6 5) sends n-1 to 5: the checked scan refuses it before
    # any map is embedded
    raw = tuple(bytes(t) for t in ((6,) * 7, (6, 6, 6, 6, 6, 6, 5)))
    sg = TransitionSemigroup(n=7, raw=raw, raw_set=frozenset(raw))
    with pytest.raises(StructureError, match="element 6 6 6 6 6 6 5 does not fix state 6"):
        verify_injective(sg)
