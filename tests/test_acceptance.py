"""Acceptance gate: twelve frozen criteria, one verdict line each.

Each criterion owns one test and prints a single PASS/FAIL line, so a
verbose run reads as a checklist.  Expected numbers are pinned here as
literals; wall-clock ceilings are generous on purpose and only guard
against order-of-magnitude regressions.
"""
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from sfsyn.collisions import pair_statuses
from sfsyn.dfa import (
    Dfa,
    empty_state,
    is_minimal,
    suffix_free_violation,
    transition_semigroup,
    witness,
)
from sfsyn.injection import _phi, strict_bound_witness, verify_injective
from sfsyn.search import search_max
from sfsyn.semigroup import (
    closure,
    enumerate_bsf,
    enumerate_wsf,
    in_bsf_images,
    in_wsf,
    vsf_generators,
    witness_letters,
    wsf_bound,
)
from sfsyn.transform import Transformation, zero_path
from test_dfa import minimize

# sizes of the witness semigroups: (n-1)^(n-2) + n - 2
WITNESS_SIZES = {4: 11, 5: 67, 6: 629, 7: 7781, 8: 117655}
# count of maps that can occur in a suffix-free transition semigroup
CANDIDATE_COUNTS = {2: 1, 3: 3, 6: 1169}
# sizes of the injective-off-sink family
INJECTIVE_SIZES = {4: 13, 5: 73}

SEVEN_SAMPLE_SEED = 97231
SEVEN_SAMPLE_COUNT = 100
SMALL_CORPUS_SEED = 55117
SMALL_CORPUS_COUNT = 500

# wall-clock ceilings, seconds
SMALL_CLOSURE_S = 1.0
LARGE_CLOSURE_S = 30.0
CENSUS_S = 1.0
SAMPLED_SUITE_S = 4.3  # 25x the slowest of three runs (0.139-0.172 s, 2-core Xeon)
SEARCH_EIGHT_S = 32.4  # 25x the slowest of three fresh-process runs (1.20-1.30 s, 2-core Xeon)
# 25x the slowest of three fresh-process runs (2-core Xeon) is under 1 s
# for these four, so they sit at 1 s, a floor for the machine's pauses
SEARCH_SMALL_S = 1.0  # runs 0.0017-0.0024 s
SEARCH_SIX_S = 1.0  # runs 0.0084-0.0153 s
SEARCH_SEVEN_S = 1.0  # runs 0.029-0.036 s
LETTER_DROPS_S = 1.0  # runs 0.0135-0.0218 s
PREMISE_SWEEP_S = 11.3  # 25x the slowest of three runs (0.41-0.45 s, 2-core Xeon)
PREMISE_FIVE_S = 48.3  # 25x the slowest of three runs (1.89-1.93 s, 2-core Xeon)
# the four-state premise sweep: DFAs swept, minimal suffix-free ones
# among them, and the size of b_sf(4), which their semigroups meet
PREMISE_DFAS, PREMISE_MINIMAL, BSF_FOUR = 46800, 328, 15
# the five-state premise sweep, likewise, with the size of b_sf(5)
PREMISE_FIVE_DFAS, PREMISE_FIVE_MINIMAL, BSF_FIVE = 228480, 1908, 115


@contextmanager
def _verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {label}")
        raise
    print(f"criterion {num:02d}: PASS  {label}")


# ------------------------------------------------------------- corpora


def _random_candidate_letter(rng: random.Random, n: int = 7) -> Transformation:
    while True:
        images = tuple(rng.randint(1, n - 1) for _ in range(n - 1)) + (n - 1,)
        if in_bsf_images(images):
            return Transformation(images)


@pytest.fixture(scope="module")
def seven_state_dfas():
    return draw_seven_state_dfas()


def draw_seven_state_dfas() -> list[Dfa]:
    """Minimal suffix-free DFAs on 7 states: random letters drawn from
    the candidate maps, random interior finals, rejection-sampled."""
    rng = random.Random(SEVEN_SAMPLE_SEED)
    kept = []
    while len(kept) < SEVEN_SAMPLE_COUNT:
        k = rng.randint(2, 4)
        delta = tuple(_random_candidate_letter(rng) for _ in range(k))
        finals = frozenset(rng.sample(range(1, 6), rng.randint(1, 2)))
        d = Dfa(7, tuple("abcd"[:k]), delta, 0, finals)
        if suffix_free_violation(d) is None and is_minimal(d):
            kept.append(d)
    return kept


@pytest.fixture(scope="module")
def sampled_semigroups(seven_state_dfas):
    named = [
        transition_semigroup(witness(7)),
        closure(vsf_generators(7)),
    ]
    return named + [transition_semigroup(d) for d in seven_state_dfas]


@pytest.fixture(scope="module")
def small_corpus():
    """Unconstrained random DFAs, suffix-free or not, up to 5 states."""
    rng = random.Random(SMALL_CORPUS_SEED)
    out = []
    for i in range(SMALL_CORPUS_COUNT):
        if i % 2 == 0:
            n, k = rng.randint(1, 5), 2
        else:
            n, k = rng.randint(1, 3), 3
        delta = tuple(
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(k)
        )
        finals = frozenset(q for q in range(n) if rng.random() < 0.4)
        out.append(Dfa(n, tuple("abc"[:k]), delta, 0, finals))
    return out


def _accepted_words(d: Dfa, length: int) -> list[str]:
    out, level = [], [("", d.initial)]
    for _ in range(length + 1):
        nxt = []
        for word, q in level:
            if q in d.finals:
                out.append(word)
            for a, t in zip(d.letters, d.delta):
                nxt.append((word + a, t[q]))
        level = nxt
    return out


def _ab_star() -> Dfa:
    return Dfa(3, ("a", "b"), (Transformation((1, 2, 2)), Transformation((2, 1, 2))), 0, frozenset({1}))


def _a_star() -> Dfa:
    return Dfa(2, ("a",), (Transformation((0, 1)),), 0, frozenset({0}))


# ------------------------------------------------------------- criteria


def test_criterion_01_witness_semigroup_sizes():
    with _verdict(1, "witness semigroups reach (n-1)^(n-2) + n - 2"):
        for n, expected in sorted(WITNESS_SIZES.items()):
            start = time.perf_counter()
            size = transition_semigroup(witness(n)).size
            elapsed = time.perf_counter() - start
            assert size == expected, f"n={n}: {size} != {expected}"
            ceiling = SMALL_CLOSURE_S if n <= 6 else LARGE_CLOSURE_S
            assert elapsed < ceiling, f"n={n} took {elapsed:.2f}s"


def test_criterion_02_injective_family_sizes():
    with _verdict(2, "injective-off-sink family has sizes 13 and 73"):
        for n, expected in sorted(INJECTIVE_SIZES.items()):
            assert closure(vsf_generators(n)).size == expected


def test_criterion_03_candidate_map_census():
    with _verdict(3, "brute-force candidate census gives 1, 3, 1169"):
        start = time.perf_counter()
        for n, expected in sorted(CANDIDATE_COUNTS.items()):
            count = sum(
                1
                for imgs in itertools.product(range(n), repeat=n)
                if in_bsf_images(imgs)
            )
            assert count == expected, f"n={n}: {count} != {expected}"
        assert time.perf_counter() - start < CENSUS_S


def test_criterion_04_collision_dichotomy():
    with _verdict(4, "collapsing family never collides; injective family always does"):
        for n in (4, 5, 6):
            statuses = pair_statuses(enumerate_wsf(n))
            assert not any(s.colliding for s in statuses), f"n={n}"
        for n in (4, 5):
            statuses = pair_statuses(closure(vsf_generators(n)))
            assert all(s.colliding for s in statuses), f"n={n}"
            assert all(s.focused_by is None for s in statuses), f"n={n}"


def test_criterion_05_embedding_over_sampled_semigroups(sampled_semigroups):
    with _verdict(5, "embedding verified over witness, injective family, and samples"):
        assert len(sampled_semigroups) >= SEVEN_SAMPLE_COUNT + 2
        start = time.perf_counter()
        for sg in sampled_semigroups:
            report = verify_injective(sg)
            assert report.passed, report.counterexample
            assert report.bound == 7781
        assert time.perf_counter() - start < SAMPLED_SUITE_S


def test_criterion_06_strict_gap_for_colliding_semigroups(sampled_semigroups):
    with _verdict(6, "every colliding sample leaves a collapsing map unused"):
        colliding_seen = 0
        for sg in sampled_semigroups:
            if not any(s.colliding for s in pair_statuses(sg)):
                continue
            colliding_seen += 1
            gap = strict_bound_witness(sg)
            assert gap is not None
            assert in_wsf(gap)
            colliding = sg.pair_scan.colliding
            images = {_phi(t, colliding)[1] for t in sg.raw}
            assert bytes(gap.images) not in images
            assert sg.size < wsf_bound(7)
        assert colliding_seen >= SEVEN_SAMPLE_COUNT


def test_criterion_07_suffix_freeness_oracle(small_corpus):
    with _verdict(7, "suffix-freeness decision matches the word-pair oracle"):
        assert len(small_corpus) >= 500
        for d in small_corpus:
            accepted = set(_accepted_words(d, 2 * d.n + 2))
            naive = not any(
                w[i:] in accepted for w in accepted for i in range(1, len(w) + 1)
            )
            assert (suffix_free_violation(d) is None) == naive, d
        assert suffix_free_violation(_ab_star()) is None
        assert suffix_free_violation(_a_star()) is not None


def test_criterion_08_maximality_search():
    with _verdict(8, "exhaustive search finds a unique maximum at n = 4 to 8"):
        for n, target, kind in ((4, 13, "vsf"), (5, 73, "vsf")):
            result = search_max(n, target)
            assert result.max_size_found == target
            assert result.uniqueness_confirmed
            assert result.others == ()
            kinds = {c.kind: c.size for c in result.confirmations}
            assert kinds == {kind: target}
            assert result.stats.wall_time_s < SEARCH_SMALL_S
        result = search_max(6, 629)
        assert result.max_size_found == 629
        assert result.uniqueness_confirmed
        assert result.others == ()
        kinds = {c.kind: c.size for c in result.confirmations}
        assert kinds == {"wsf": 629}
        assert result.stats.wall_time_s < SEARCH_SIX_S
        result = search_max(7, 7781)
        assert result.max_size_found == 7781
        assert result.uniqueness_confirmed
        assert result.others == ()
        kinds = {c.kind: c.size for c in result.confirmations}
        assert kinds == {"wsf": 7781}
        assert result.stats.wall_time_s < SEARCH_SEVEN_S
        # any other semigroup here would contradict the paper's uniqueness
        result = search_max(8, 117655)
        assert result.max_size_found == 117655
        assert result.uniqueness_confirmed
        assert result.others == ()
        kinds = {c.kind: c.size for c in result.confirmations}
        assert kinds == {"wsf": 117655}
        assert result.stats.level_sizes == (592,)
        assert (result.stats.terminal_selections, result.stats.pruned_selections) == (382, 210)
        assert result.stats.wall_time_s < SEARCH_EIGHT_S


def test_criterion_09_letter_necessity():
    with _verdict(9, "dropping any witness letter loses the bound"):
        start = time.perf_counter()
        for n in (5, 6, 7):
            _, letters = witness_letters(n)
            bound = wsf_bound(n)
            for i in range(len(letters)):
                rest = list(letters[:i]) + list(letters[i + 1 :])
                assert closure(rest).size < bound, f"n={n}, letter {i}"
        assert time.perf_counter() - start < LETTER_DROPS_S


def test_criterion_10_empty_state_and_zero_paths(seven_state_dfas, small_corpus):
    with _verdict(10, "suffix-free corpus: empty state, aperiodic walks into it"):
        corpus = [witness(n) for n in (4, 5, 6, 7, 8)]
        corpus += seven_state_dfas
        corpus += [d for d in small_corpus if suffix_free_violation(d) is None]
        corpus.append(_ab_star())
        checked = 0
        for d in corpus:
            # on the minimal quotient: an empty state exists, and the walk
            # of state 0 under every element is aperiodic and ends there
            m = minimize(d)
            sink = empty_state(m)
            assert sink is not None, d
            for t in transition_semigroup(m).raw:
                zp = zero_path(t)
                assert zp.is_aperiodic, (d, t)
                assert zp.states[-1] == sink, (d, t)
            checked += 1
        assert checked >= SEVEN_SAMPLE_COUNT + 6


def _premise_sweep(n, deltas, finals_sets):
    """Every DFA on n states with initial state 0, one per letter tuple
    of deltas and final set: how many were swept, how many are minimal
    and suffix-free, how many elements of their semigroups lie outside
    b_sf, and the raw maps met inside it."""
    swept = kept = outside = 0
    met = set()
    for delta in deltas:
        names = tuple("abcdefgh"[: len(delta)])
        for finals in finals_sets:
            d = Dfa(n, names, delta, 0, finals)
            swept += 1
            if suffix_free_violation(d) is None and is_minimal(d):
                kept += 1
                for x in transition_semigroup(d).raw:
                    if in_bsf_images(x):
                        met.add(x)
                    else:
                        outside += 1
    return swept, kept, outside, met


def test_criterion_11_bsf_premise_on_four_states():
    """The premise behind the candidate maps: every element of the
    transition semigroup of a minimal suffix-free DFA is in b_sf.  The
    sweep takes every DFA on 4 states with three distinct letters that
    fix 3 and send no state to 0, under all 16 final sets.  Restricting
    the letters so assumes the premise's first two facts, an empty
    state (here 3) and no state mapping to the initial state 0, which
    only a sweep over unrestricted letters would check; the rest of the
    premise is checked on every semigroup the sweep meets."""
    with _verdict(11, "minimal suffix-free DFAs on 4 states stay in b_sf and meet all of it"):
        start = time.perf_counter()
        letters = [Transformation(images + (3,)) for images in itertools.product((1, 2, 3), repeat=3)]
        finals_sets = [
            frozenset(finals) for k in range(5) for finals in itertools.combinations(range(4), k)
        ]
        swept, kept, outside, met = _premise_sweep(4, itertools.combinations(letters, 3), finals_sets)
        assert (swept, kept, outside) == (PREMISE_DFAS, PREMISE_MINIMAL, 0)
        assert met == {bytes(t.images) for t in enumerate_bsf(4)}
        assert len(met) == BSF_FOUR
        assert time.perf_counter() - start < PREMISE_SWEEP_S


def test_criterion_12_bsf_premise_on_five_states():
    """The premise of criterion 11 at five states: every DFA on 5 states
    with two distinct letters that fix 4 and send no state to 0, under
    each of the 7 non-empty final sets inside {1, 2, 3}.  No other final
    set gives a minimal suffix-free DFA on 5 states: a final 0 accepts
    the empty word, a suffix of every word, so only the language {e},
    whose minimal DFA has 2 states; a final 4, fixed by every letter,
    accepts u and uu for any word u reaching it, or is unreachable; no
    final state at all gives the empty language, on 1 state.  The
    restricted letters assume the premise's first two facts, as in
    criterion 11."""
    with _verdict(12, "minimal suffix-free DFAs on 5 states stay in b_sf and meet all of it"):
        start = time.perf_counter()
        letters = [Transformation(images + (4,)) for images in itertools.product((1, 2, 3, 4), repeat=4)]
        finals_sets = [
            frozenset(finals) for k in range(1, 4) for finals in itertools.combinations((1, 2, 3), k)
        ]
        swept, kept, outside, met = _premise_sweep(5, itertools.combinations(letters, 2), finals_sets)
        assert (swept, kept, outside) == (PREMISE_FIVE_DFAS, PREMISE_FIVE_MINIMAL, 0)
        assert met == {bytes(t.images) for t in enumerate_bsf(5)}
        assert len(met) == BSF_FIVE
        assert time.perf_counter() - start < PREMISE_FIVE_S
