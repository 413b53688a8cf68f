"""DFA layer: witness construction, minimization, suffix-freeness,
empty state, relabeling, text round-trips.

Language-level oracles: exhaustive word enumeration for suffix
relations on small machines, and an exact pair-reachability product
for language equivalence.  trim and minimize, which the oracles and
acceptance criterion 10 build on, are test helpers over the package's
reachability and Moore refinement.
"""
import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from sfsyn.transform import Transformation
from sfsyn.dfa import (
    Dfa,
    _moore_blocks,
    empty_state,
    format_dfa,
    is_minimal,
    parse_dfa,
    reachable_states,
    relabel,
    renumber_initial_empty,
    suffix_free_violation,
    to_dot,
    transition_semigroup,
    witness,
)
from sfsyn.semigroup import enumerate_bsf, enumerate_wsf, wsf_bound


def quotient(dfa: Dfa, block) -> Dfa:
    # the reachable states merged by block id, numbered in breadth-first
    # order; the finals of a block are those of its first state
    index: dict[int, int] = {}
    reps = []
    for q in reachable_states(dfa):
        if block[q] not in index:
            index[block[q]] = len(reps)
            reps.append(q)
    return Dfa(
        n=len(reps),
        letters=dfa.letters,
        delta=tuple(
            Transformation(tuple(index[block[t[r]]] for r in reps)) for t in dfa.delta
        ),
        initial=0,
        finals=frozenset(i for i, r in enumerate(reps) if r in dfa.finals),
    )


def trim(dfa: Dfa) -> Dfa:
    """The reachable part, renumbered in breadth-first order."""
    return quotient(dfa, range(dfa.n))


def minimize(dfa: Dfa) -> Dfa:
    """The minimal quotient, renumbered in breadth-first order."""
    return quotient(dfa, _moore_blocks(dfa))


def ab_star() -> Dfa:
    # minimal DFA of the language: one a, then any number of b
    return Dfa(
        n=3,
        letters=("a", "b"),
        delta=(Transformation((1, 2, 2)), Transformation((2, 1, 2))),
        initial=0,
        finals=frozenset({1}),
    )


def a_star() -> Dfa:
    return Dfa(1, ("a",), (Transformation((0,)),), 0, frozenset({0}))


def random_dfas(n_max=4, letters=2):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, n_max))
        delta = tuple(
            Transformation(
                tuple(draw(st.integers(0, n - 1)) for _ in range(n))
            )
            for _ in range(letters)
        )
        finals = frozenset(
            q for q in range(n) if draw(st.booleans())
        )
        return Dfa(n, tuple("ab"[:letters]), delta, 0, finals)

    return build()


def words_up_to(dfa: Dfa, length: int):
    for k in range(length + 1):
        yield from ("".join(w) for w in itertools.product(dfa.letters, repeat=k))


def same_language(d1: Dfa, d2: Dfa) -> bool:
    # exact product reachability; alphabets must match
    assert d1.letters == d2.letters
    seen = {(d1.initial, d2.initial)}
    queue = [(d1.initial, d2.initial)]
    while queue:
        p, q = queue.pop()
        if (p in d1.finals) != (q in d2.finals):
            return False
        for t1, t2 in zip(d1.delta, d2.delta):
            nxt = (t1[p], t2[q])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


# ------------------------------------------------------------ construction


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(2, ("a", "a"), (Transformation((0, 1)),) * 2, 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), (Transformation((0,)),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), (Transformation((0, 1)),), 5, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), (Transformation((0, 1)),), 0, frozenset({7}))
    with pytest.raises(ValueError):
        Dfa(2, (), (), 0, frozenset())
    with pytest.raises(ValueError, match="empty letter name"):
        Dfa(2, ("",), (Transformation((0, 1)),), 0, frozenset())


def test_witness_images_frozen_n5():
    w = witness(5)
    assert w.letters == ("a", "b", "c", "d", "e")
    assert [t.images for t in w.delta] == [
        (4, 2, 3, 1, 4),
        (4, 2, 1, 3, 4),
        (4, 1, 2, 1, 4),
        (4, 4, 2, 3, 4),
        (1, 4, 4, 4, 4),
    ]
    assert w.initial == 0 and w.finals == frozenset({1})


def test_witness_n4_has_four_letters():
    w = witness(4)
    assert w.letters == ("b", "c", "d", "e")
    with pytest.raises(ValueError):
        witness(3)


def test_witness_semigroup_sizes():
    assert transition_semigroup(witness(5)).size == 67
    assert transition_semigroup(witness(6)).size == 629


def test_witness_semigroup_is_exactly_the_collapsing_family():
    for n in (4, 5, 6, 7):
        assert (
            transition_semigroup(witness(n)).raw_set
            == enumerate_wsf(n).raw_set
        )


def test_witness_minimal_and_suffix_free():
    for n in (4, 5, 6, 7, 8):
        w = witness(n)
        assert is_minimal(w)
        assert suffix_free_violation(w) is None


def test_one_letter_identity_semigroup():
    d = Dfa(3, ("a",), (Transformation((0, 1, 2)),), 0, frozenset({1}))
    assert transition_semigroup(d).size == 1


def test_ab_star_semigroup_size():
    assert transition_semigroup(ab_star()).size == 3


def test_run_and_accept():
    w = witness(5)
    assert w.run("") == 0
    assert w.run("e") == 1
    assert w.accepts("e")
    assert not w.accepts("ee")
    assert w.run("ea", start=0) == 2
    assert w.run("a", start=3) == 1
    with pytest.raises(ValueError, match="^unknown letter 'z'$"):
        w.run("az")


# ----------------------------------------------------------- minimization


def test_minimize_shrinks_duplicated_state():
    # states 1 and 3 are twins; quotient has 3 states
    d = Dfa(
        4,
        ("a", "b"),
        (Transformation((1, 2, 2, 2)), Transformation((3, 1, 2, 1))),
        0,
        frozenset({1, 3}),
    )
    m = minimize(d)
    assert m.n == 3
    assert not is_minimal(d)
    assert is_minimal(m)


@given(random_dfas())
def test_minimize_idempotent_and_preserves_language(d):
    m = minimize(d)
    assert minimize(m) == m
    assert is_minimal(m)
    for w in words_up_to(d, 2 * d.n):
        assert d.accepts(w) == m.accepts(w)


@given(random_dfas())
def test_is_minimal_matches_distinguishability_oracle(d):
    reachable = set(reachable_states(d))
    # two states are equivalent iff no word of length < n separates them
    def distinguishable(p, q):
        for w in words_up_to(d, d.n):
            if (d.run(w, start=p) in d.finals) != (d.run(w, start=q) in d.finals):
                return True
        return False

    expect = len(reachable) == d.n and all(
        distinguishable(p, q) for p in range(d.n) for q in range(p + 1, d.n)
    )
    assert is_minimal(d) == expect


def test_trim_drops_unreachable():
    d = Dfa(
        3,
        ("a",),
        (Transformation((1, 0, 2)),),
        0,
        frozenset({2}),
    )
    assert trim(d).n == 2


# -------------------------------------------------------- suffix-freeness


def test_ab_star_is_suffix_free():
    assert suffix_free_violation(ab_star()) is None


def test_a_star_violation_is_minimal_witness():
    assert suffix_free_violation(a_star()) == ("a", "")


def test_epsilon_language_is_suffix_free():
    d = Dfa(2, ("a",), (Transformation((1, 1)),), 0, frozenset({0}))
    assert suffix_free_violation(d) is None


def test_empty_language_is_suffix_free():
    d = Dfa(1, ("a",), (Transformation((0,)),), 0, frozenset())
    assert suffix_free_violation(d) is None


def naive_suffix_free(d: Dfa, length: int) -> bool:
    accepted = [w for w in words_up_to(d, length) if d.accepts(w)]
    for w in accepted:
        for v in accepted:
            if len(v) < len(w) and w.endswith(v):
                return False
    return True


@settings(max_examples=200)
@given(random_dfas())
def test_suffix_freeness_matches_word_oracle(d):
    got = suffix_free_violation(d) is None
    # the pair search bounds witness length by n^2, so 2n+2 words can
    # disagree only in the free direction; verify any violation exactly
    if got:
        assert naive_suffix_free(d, 2 * d.n + 2)
    else:
        w, v = suffix_free_violation(d)
        assert w
        assert d.accepts(w + v) and d.accepts(v)


def trimmed_suffix_free_violation(dfa: Dfa) -> tuple[str, str] | None:
    """The product search as it ran on the trimmed DFA, through
    Transformation lookups and tuple-keyed pairs: the oracle for the
    image-row search, which must return the same (w, v) or None."""
    d = trim(dfa)
    ini = d.initial
    # shortest non-empty word to each state
    word_to: dict[int, str] = {}
    frontier = deque()
    for name, t in zip(d.letters, d.delta):
        r = t[ini]
        if r not in word_to:
            word_to[r] = name
            frontier.append(r)
    while frontier:
        q = frontier.popleft()
        for name, t in zip(d.letters, d.delta):
            r = t[q]
            if r not in word_to:
                word_to[r] = word_to[q] + name
                frontier.append(r)
    # synchronized pair search
    parent: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {}
    pairs = deque()
    for r in word_to:
        pair = (r, ini)
        if pair not in parent:
            parent[pair] = None
            pairs.append(pair)
    while pairs:
        pair = pairs.popleft()
        p, q = pair
        if p in d.finals and q in d.finals:
            v = ""
            node: tuple[int, int] = pair
            while parent[node] is not None:
                node, name = parent[node]
                v = name + v
            return word_to[node[0]], v
        for name, t in zip(d.letters, d.delta):
            nxt = (t[p], t[q])
            if nxt not in parent:
                parent[nxt] = (pair, name)
                pairs.append(nxt)
    return None


def test_suffix_free_violation_matches_trimmed_oracle_exhaustively():
    # every DFA on 1-3 states over 1-2 letters, every initial state and
    # every final set: unreachable states and initial states other than
    # 0 included
    checked = violations = 0
    for n in range(1, 4):
        maps = [Transformation(images) for images in itertools.product(range(n), repeat=n)]
        for k in (1, 2):
            names = tuple("ab"[:k])
            for delta in itertools.product(maps, repeat=k):
                for initial in range(n):
                    for mask in range(1 << n):
                        finals = frozenset(q for q in range(n) if mask >> q & 1)
                        d = Dfa(n, names, delta, initial, finals)
                        got = suffix_free_violation(d)
                        assert got == trimmed_suffix_free_violation(d), d
                        checked += 1
                        violations += got is not None
    assert (checked, violations) == (18308, 14128)


@settings(max_examples=300)
@given(random_dfas())
def test_suffix_free_violation_matches_trimmed_oracle(d):
    assert suffix_free_violation(d) == trimmed_suffix_free_violation(d)


def test_suffix_free_violation_matches_trimmed_oracle_on_one_letter_four_states():
    # every one-letter DFA on 4 states, every initial state and every
    # final set: the initial state is final in half of them, where a
    # seed pair can be the witness
    checked = violations = 0
    for images in itertools.product(range(4), repeat=4):
        delta = (Transformation(images),)
        for initial in range(4):
            for mask in range(16):
                finals = frozenset(q for q in range(4) if mask >> q & 1)
                d = Dfa(4, ("a",), delta, initial, finals)
                got = suffix_free_violation(d)
                assert got == trimmed_suffix_free_violation(d), d
                checked += 1
                violations += got is not None
    assert (checked, violations) == (16384, 10640)


def test_suffix_free_violation_matches_trimmed_oracle_on_seven_state_stream():
    # 7-state DFAs as the embed benchmark draws them, none rejected: 2 to
    # 4 letters from b_sf(7), 1 or 2 interior finals.  Most violate
    # suffix-freeness, after a search of a few dozen pairs
    pool = enumerate_bsf(7)
    rng = random.Random(60817)
    violations = 0
    for _ in range(2000):
        k = rng.randint(2, 4)
        delta = tuple(rng.choice(pool) for _ in range(k))
        finals = frozenset(rng.sample(range(1, 6), rng.randint(1, 2)))
        d = Dfa(7, tuple("abcd"[:k]), delta, 0, finals)
        got = suffix_free_violation(d)
        assert got == trimmed_suffix_free_violation(d), d
        violations += got is not None
    assert violations == 1219


# ------------------------------------------------------------ empty state


def test_empty_state_examples():
    assert empty_state(witness(5)) == 4
    assert empty_state(ab_star()) == 2
    assert empty_state(a_star()) is None
    sigma_star = Dfa(1, ("a", "b"), (Transformation((0,)),) * 2, 0, frozenset({0}))
    assert empty_state(sigma_star) is None
    assert suffix_free_violation(sigma_star) is not None


# -------------------------------------------------------------- relabeling


def test_relabel_identity_and_inverse():
    w = witness(5)
    assert relabel(w, range(5)) == w
    perm = (2, 0, 4, 1, 3)
    inverse = [0] * 5
    for i, p in enumerate(perm):
        inverse[p] = i
    assert relabel(relabel(w, perm), inverse) == w
    with pytest.raises(ValueError):
        relabel(w, (0, 0, 1, 2, 3))


def test_relabel_preserves_language():
    w = witness(5)
    swapped = relabel(w, (0, 2, 1, 3, 4))
    # letters keep their names, so the languages must agree exactly
    assert same_language(w, swapped)


def test_renumber_initial_empty():
    w = witness(5)
    scrambled = relabel(w, (4, 1, 2, 3, 0))
    back = renumber_initial_empty(scrambled)
    assert back.initial == 0
    assert empty_state(back) == 4
    assert back == w
    with pytest.raises(ValueError):
        renumber_initial_empty(a_star())


def test_renumber_keeps_interior_order():
    w = witness(5)
    moved = relabel(w, (2, 0, 1, 3, 4))  # initial now 2, sink still 4
    back = renumber_initial_empty(moved)
    assert back.initial == 0 and empty_state(back) == 4
    assert same_language(relabel(back, (2, 0, 1, 3, 4)), moved)


# -------------------------------------------------------------- text forms


def test_format_parse_round_trip_bit_exact():
    for d in (witness(4), witness(5), ab_star(), a_star()):
        text = format_dfa(d)
        assert parse_dfa(text) == d
        assert format_dfa(parse_dfa(text)) == text


def test_format_header_layout():
    text = format_dfa(ab_star())
    assert text.splitlines()[0] == "n=3 letters=a,b initial=0 finals=1"
    assert text.splitlines()[1] == "a: 1 2 2"


def test_parse_rejects_malformed_input():
    good = format_dfa(ab_star())
    with pytest.raises(ValueError):
        parse_dfa("")
    with pytest.raises(ValueError):
        parse_dfa(good.replace("n=3", "n=three"))
    with pytest.raises(ValueError):
        parse_dfa(good.replace("a: 1 2 2", "a: 1 2"))  # partial row
    with pytest.raises(ValueError):
        parse_dfa("\n".join(good.splitlines()[:2]) + "\n")  # missing row
    with pytest.raises(ValueError):
        # rows out of header order are rejected, not reordered
        lines = good.splitlines()
        parse_dfa("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(ValueError):
        parse_dfa(good.replace(" initial=0", ""))
    with pytest.raises(ValueError, match="empty letter name in ',b'"):
        parse_dfa(good.replace("letters=a,b", "letters=,b").replace("a: ", ": "))
    with pytest.raises(ValueError, match="repeated header field 'finals'"):
        parse_dfa(good.replace("finals=1", "finals=1 finals=0"))
    with pytest.raises(ValueError, match="unknown header field 'final'"):
        parse_dfa(good.replace("finals=1", "finals=1 final=0"))
    # names the text format cannot carry are refused when the DFA is built
    for name in ("a,b", "a b", "a\tb", "a:", "a:b"):
        with pytest.raises(ValueError, match=re.escape(f"letter name {name!r}")):
            Dfa(2, (name,), (Transformation((1, 1)),), 0, frozenset())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.text(st.one_of(st.sampled_from(",:= #ab\t\n\x0b\x1c\x85\u2028"), st.characters()), max_size=4),
        min_size=1,
        max_size=3,
        unique=True,
    )
)
def test_every_accepted_letter_name_round_trips(names):
    # Dfa refuses exactly the names that are empty or hold a comma, a
    # colon or whitespace; every name it accepts survives the text format
    delta = (Transformation((1, 1)),) * len(names)
    unwritable = [x for x in names if not x or any(c in ",:" or c.isspace() for c in x)]
    try:
        d = Dfa(2, tuple(names), delta, 0, frozenset({1}))
    except ValueError:
        assert unwritable
        return
    assert not unwritable
    assert parse_dfa(format_dfa(d)) == d


def test_parse_empty_finals():
    d = Dfa(2, ("a",), (Transformation((1, 1)),), 0, frozenset())
    assert parse_dfa(format_dfa(d)) == d


def test_dot_marks_structure():
    dot = to_dot(witness(5))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot  # final state
    assert "style=dashed" in dot  # empty state
    assert "start -> 0" in dot
    # parallel edges merged onto one label
    assert 'label="d,e"' in dot or 'label="e,d"' in dot


def test_dot_escapes_quotes_and_backslashes_in_labels():
    # Dfa accepts both characters in a letter name; a DOT quoted string
    # needs each written with a backslash before it
    d = Dfa(2, ('a"b', "c\\"), (Transformation((1, 1)), Transformation((0, 1))), 0, frozenset({1}))
    edges = [line for line in to_dot(d).splitlines() if "->" in line and "start" not in line]
    assert edges == [
        '  0 -> 0 [label="c\\\\"];',
        '  0 -> 1 [label="a\\"b"];',
        '  1 -> 1 [label="a\\"b,c\\\\"];',
    ]
    # each quoted string closes where its label ends and unescapes to
    # the letter names
    quoted = re.compile(r'  \d+ -> \d+ \[label="((?:[^"\\]|\\.)*)"\];')
    labels = [re.sub(r"\\(.)", r"\1", quoted.fullmatch(line).group(1)) for line in edges]
    assert labels == ["c\\", 'a"b', 'a"b,c\\']
