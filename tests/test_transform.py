"""Transformation layer: composition, cycles, zero-path.

Maps compose through the closure kernel's tables: the product s t is
``s.translate(raw_table(t))`` on raw maps.

The oracles here are deliberately naive re-derivations.  The zero
path is checked against a step-by-step walk, cyclic states against
n-step reachability from themselves.
"""
import itertools

import pytest
from hypothesis import given, strategies as st

from sfsyn.transform import (
    Transformation,
    ZeroPath,
    format_transformation,
    zero_path,
)
from sfsyn.semigroup import raw_table


def transformations(n: int):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda xs: Transformation(tuple(xs))
    )


@st.composite
def sized_transformations(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return draw(transformations(n))


def product(s: Transformation, t: Transformation) -> Transformation:
    # s then t, through the kernel's translate table of t
    return Transformation(tuple(bytes(s.images).translate(raw_table(bytes(t.images)))))


def all_maps(n: int):
    for imgs in itertools.product(range(n), repeat=n):
        yield Transformation(imgs)


# ---------------------------------------------------------------- basics


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        Transformation((1, 2))
    with pytest.raises(ValueError):
        Transformation((0, -1))
    with pytest.raises(ValueError):
        Transformation(())


def test_composition_is_left_to_right():
    s = Transformation((1, 2, 0))
    t = Transformation((0, 0, 1))
    # q(st) = (qs)t, so the image tuple reads t through s
    assert product(s, t).images == (0, 1, 0)


@given(transformations(5), transformations(5))
def test_composition_matches_per_state_application(s, t):
    st_ = product(s, t)
    for q in range(5):
        assert st_[q] == t[s[q]]


@given(transformations(6), transformations(6), transformations(6))
def test_composition_associative(s, t, u):
    assert product(product(s, t), u) == product(s, product(t, u))


@given(sized_transformations())
def test_identity_is_neutral(t):
    e = Transformation(tuple(range(t.n)))
    assert product(e, t) == t
    assert product(t, e) == t


@given(sized_transformations())
def test_parse_format_round_trip(t):
    # the text form lists the images in order, for a map and its raw bytes
    text = format_transformation(t)
    assert Transformation(tuple(int(x) for x in text.split())) == t
    assert format_transformation(bytes(t.images)) == text


# ------------------------------------------------- counting and cycles


def cycles(t: Transformation | tuple[int, ...] | bytes) -> tuple[tuple[int, ...], ...]:
    """All cycles of length >= 2 of a map (a Transformation, or an
    image tuple or raw byte map), rotated to start at their least state
    and ordered by it; fixed points are not returned.  The package reads
    only cycle states (injection._cycle_states); this full form is the
    kernel oracle's (test_injection.py).  One pass finds them: a walk
    starts at each state no earlier walk reached and stops at the first
    state already reached; when that state is on the walk's own path,
    the path from it on is a new cycle."""
    images = t.images if isinstance(t, Transformation) else t
    walk = [-1] * len(images)  # the start of the walk that reached each state
    out: list[tuple[int, ...]] = []
    for start in range(len(images)):
        if walk[start] != -1:
            continue
        path = []
        q = start
        while walk[q] == -1:
            walk[q] = start
            path.append(q)
            q = images[q]
        if walk[q] == start and images[q] != q:
            cyc = path[path.index(q) :]
            i = cyc.index(min(cyc))
            out.append(tuple(cyc[i:] + cyc[:i]))
    out.sort()
    return tuple(out)


def _cyclic_oracle(t: Transformation) -> set[int]:
    # q is cyclic iff it reappears on its own forward walk
    out = set()
    for q in range(t.n):
        walk = q
        for _ in range(t.n):
            walk = t[walk]
            if walk == q:
                out.add(q)
                break
    return out


def test_cycles_against_walk_oracle_exhaustive_n4():
    for t in all_maps(4):
        got = cycles(t)
        cyc_states = {q for c in got for q in c}
        oracle = _cyclic_oracle(t)
        assert cyc_states == oracle - {q for q in range(t.n) if t[q] == q}
        for c in got:
            assert len(c) >= 2
            assert c[0] == min(c)  # rotated to least state
            for i, q in enumerate(c):
                assert t[q] == c[(i + 1) % len(c)]
        assert list(got) == sorted(got, key=lambda c: c[0])


def old_cycles(images) -> tuple[tuple[int, ...], ...]:
    # cycles as it stood with a separate pass for the cyclic states:
    # the oracle for the one-pass walk
    cyc_states = old_cyclic_states(images)
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for q in sorted(cyc_states):
        if q in seen:
            continue
        cyc = [q]
        cur = images[q]
        while cur != q:
            cyc.append(cur)
            cur = images[cur]
        seen.update(cyc)
        if len(cyc) >= 2:
            out.append(tuple(cyc))
    return tuple(out)


def old_cyclic_states(images) -> set[int]:
    n = len(images)
    color = [0] * n  # 0 unvisited, 1 in progress, 2 done
    cyclic: set[int] = set()
    for start in range(n):
        if color[start]:
            continue
        path = []
        cur = start
        while color[cur] == 0:
            color[cur] = 1
            path.append(cur)
            cur = images[cur]
        if color[cur] == 1:
            idx = path.index(cur)
            cyclic.update(path[idx:])
        for q in path:
            color[q] = 2
    return cyclic


def test_cycles_match_two_pass_oracle_exhaustive_to_n6():
    # every map on 1 to 6 states, as a Transformation, a tuple and a
    # raw byte map
    for n in range(1, 7):
        for imgs in itertools.product(range(n), repeat=n):
            expected = old_cycles(imgs)
            assert cycles(Transformation(imgs)) == expected, imgs
            assert cycles(imgs) == expected, imgs
            assert cycles(bytes(imgs)) == expected, imgs


def test_cycles_frozen_examples():
    assert cycles(Transformation((4, 2, 3, 1, 4))) == ((1, 2, 3),)
    assert cycles(Transformation((1, 0, 3, 2, 4))) == ((0, 1), (2, 3))
    assert cycles(Transformation(tuple(range(5)))) == ()


# ---------------------------------------------------------- zero path


def _zero_path_oracle(t: Transformation) -> tuple[list[int], int]:
    walk, q = [], 0
    while q not in walk:
        walk.append(q)
        q = t[q]
    return walk, len(walk) - walk.index(q)


@given(sized_transformations())
def test_zero_path_matches_walk_oracle(t):
    zp = zero_path(t)
    walk, period = _zero_path_oracle(t)
    assert list(zp.states) == walk
    assert zp.period == period
    assert zp.is_aperiodic == (period == 1)


def test_zero_path_frozen_examples():
    zp = zero_path(Transformation((1, 2, 6, 6, 6, 6, 6)))
    assert zp == ZeroPath(states=(0, 1, 2, 6), period=1)
    assert zp.is_aperiodic
    zp2 = zero_path(Transformation((1, 2, 1, 4, 4)))
    assert zp2 == ZeroPath(states=(0, 1, 2), period=2)
    assert not zp2.is_aperiodic
