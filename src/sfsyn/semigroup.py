"""Transition semigroups generated by transformations, and the three
families of transformations that govern suffix-free DFAs.

For the fixed conventions (initial state 0, empty state n-1):

* b_sf: transformations that can appear at all in the transition
  semigroup of a minimal suffix-free DFA.  No state maps to 0, state
  n-1 is fixed, and the image of 0 under any power never meets the
  image of an interior state under the same power except at n-1.
* v_sf: the b_sf maps that are injective except for collapsing into
  n-1.  Their closure is the largest attainable semigroup for n <= 5.
* w_sf: the b_sf maps that either send 0 to n-1 or send every interior
  state to n-1.  Their closure is the largest attainable semigroup for
  n >= 6 and has exactly (n-1)^(n-2) + n - 2 elements.

Composition of words is left to right throughout, so the witness word
of a product x * g is the witness word of x followed by g.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .transform import Transformation

Word = tuple[int, ...]  # generator indices


@dataclass(frozen=True)
class TransitionSemigroup:
    """A finite transformation semigroup with a distinguished generator
    list.  Elements are kept in breadth-first discovery order; witness
    words map each element to a shortest generating word (ties broken
    by generator order)."""

    n: int
    elements: tuple[Transformation, ...]
    generators: tuple[Transformation, ...]
    element_set: frozenset[Transformation]
    witness_words: dict[Transformation, Word] | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, t: Transformation) -> bool:
        return t in self.element_set


def _close_tuples(gens: Sequence[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], Word]]:
    """Breadth-first closure over raw image tuples.

    Returns elements in discovery order plus a shortest witness word per
    element.  Duplicated generators keep the word of their first copy.
    """
    words: dict[tuple[int, ...], Word] = {}
    order: list[tuple[int, ...]] = []
    for i, g in enumerate(gens):
        if g not in words:
            words[g] = (i,)
            order.append(g)
    queue = list(order)
    while queue:
        next_queue: list[tuple[int, ...]] = []
        for x in queue:
            wx = words[x]
            for i, g in enumerate(gens):
                y = tuple(g[v] for v in x)
                if y not in words:
                    words[y] = wx + (i,)
                    order.append(y)
                    next_queue.append(y)
        queue = next_queue
    return order, words


def closure(generators: Sequence[Transformation]) -> TransitionSemigroup:
    """Close a non-empty generator list under composition."""
    if not generators:
        raise ValueError("closure needs at least one generator")
    n = generators[0].n
    for g in generators:
        if g.n != n:
            raise ValueError(f"mixed state counts in generators: {g.n} vs {n}")
    order, words = _close_tuples([g.images for g in generators])
    elements = tuple(Transformation(t) for t in order)
    return TransitionSemigroup(
        n=n,
        elements=elements,
        generators=tuple(generators),
        element_set=frozenset(elements),
        witness_words={e: words[e.images] for e in elements},
    )


def _bsf_tuple(t: tuple[int, ...], n: int) -> bool:
    # raw-tuple core of in_bsf, shared with the search hot path
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


def in_bsf(t: Transformation) -> bool:
    """Membership in b_sf(n): no preimage of 0, n-1 fixed, and for every
    j >= 1 either 0 t^j = n-1 or 0 t^j differs from q t^j for all
    interior q.  Checking j <= n suffices: once the walk of 0 merges
    with the walk of some q the two stay merged, and both walks reach
    their final loop within n steps."""
    if t.n < 2:
        raise ValueError("b_sf membership needs n >= 2")
    return _bsf_tuple(t.images, t.n)


def in_vsf(t: Transformation) -> bool:
    """Membership in v_sf(n): b_sf and injective except into n-1."""
    if t.n < 4:
        raise ValueError("v_sf membership needs n >= 4")
    if not in_bsf(t):
        return False
    n = t.n
    seen: set[int] = set()
    for img in t.images:
        if img != n - 1:
            if img in seen:
                return False
            seen.add(img)
    return True


def in_wsf(t: Transformation) -> bool:
    """Membership in w_sf(n): b_sf and either 0 maps to n-1 or every
    interior state maps to n-1."""
    if t.n < 4:
        raise ValueError("w_sf membership needs n >= 4")
    if not in_bsf(t):
        return False
    n = t.n
    if t.images[0] == n - 1:
        return True
    return all(t.images[q] == n - 1 for q in range(1, n - 1))


def enumerate_bsf(n: int) -> tuple[Transformation, ...]:
    """All of b_sf(n) by direct scan, in lexicographic image order.

    Only images with t[n-1] = n-1 and 0 outside the range are scanned,
    which keeps the scan at (n-1)^(n-1) candidates.
    """
    if n < 2:
        raise ValueError("enumeration needs n >= 2")
    out = []
    for prefix in product(range(1, n), repeat=n - 1):
        t = prefix + (n - 1,)
        if _bsf_tuple(t, n):
            out.append(Transformation(t))
    return tuple(out)


def vsf_generators(n: int) -> tuple[Transformation, ...]:
    """The n generators of v_sf(n): the interior cycle a, the interior
    transposition b, and for each interior p the map sending 0 to p and
    p to n-1."""
    if n < 4:
        raise ValueError("v_sf generators need n >= 4")
    a = list(range(n))
    a[0] = n - 1
    for q in range(1, n - 2):
        a[q] = q + 1
    a[n - 2] = 1
    b = list(range(n))
    b[0], b[1], b[2] = n - 1, 2, 1
    gens = [Transformation(tuple(a)), Transformation(tuple(b))]
    for p in range(1, n - 1):
        c = list(range(n))
        c[0], c[p] = p, n - 1
        gens.append(Transformation(tuple(c)))
    return tuple(gens)


def wsf_bound(n: int) -> int:
    """The exact size of w_sf(n): (n-1)^(n-2) + n - 2.

    Python integers are unbounded, so the value is exact for any n.
    """
    if n < 2:
        raise ValueError("the bound needs n >= 2")
    return (n - 1) ** (n - 2) + n - 2


def witness_letters(n: int) -> tuple[tuple[str, ...], tuple[Transformation, ...]]:
    """The letters of the witness DFA: a cycles the interior states,
    b swaps states 1 and 2, c folds n-2 onto 1, d collapses {0, 1} to
    n-1, and e sends 0 to 1 and everything else to n-1.  For n = 4 the
    letters a and b coincide and the alphabet is b, c, d, e."""
    if n < 4:
        raise ValueError("witness letters need n >= 4")
    a = list(range(n))
    a[0] = n - 1
    for q in range(1, n - 2):
        a[q] = q + 1
    a[n - 2] = 1
    b = list(range(n))
    b[0], b[1], b[2] = n - 1, 2, 1
    c = list(range(n))
    c[0], c[n - 2] = n - 1, 1
    d = list(range(n))
    d[0], d[1] = n - 1, n - 1
    e = [n - 1] * n
    e[0] = 1
    letters = [Transformation(tuple(x)) for x in (a, b, c, d, e)]
    names = ("a", "b", "c", "d", "e")
    if n == 4:
        return names[1:], tuple(letters[1:])
    return names, tuple(letters)


def enumerate_wsf(n: int) -> TransitionSemigroup:
    """w_sf(n) built directly rather than by closing generators:
    (n-1)^(n-2) maps sending 0 and n-1 to n-1 with interior images in
    Q minus {0}, plus n-2 maps sending 0 to an interior state and all
    else to n-1."""
    if n < 4:
        raise ValueError("w_sf enumeration needs n >= 4")
    elems: list[Transformation] = []
    for mid in product(range(1, n), repeat=n - 2):
        elems.append(Transformation((n - 1,) + mid + (n - 1,)))
    for p in range(1, n - 1):
        t = [n - 1] * n
        t[0] = p
        elems.append(Transformation(tuple(t)))
    _, gens = witness_letters(n)
    return TransitionSemigroup(
        n=n,
        elements=tuple(elems),
        generators=gens,
        element_set=frozenset(elems),
        witness_words=None,
    )


def semiconstant_family(n: int) -> tuple[Transformation, ...]:
    """All maps that send a set S with 0 in S to n-1 and fix the rest,
    one per choice of interior part of S: 2^(n-2) maps in total."""
    if n < 4:
        raise ValueError("the semiconstant family needs n >= 4")
    out = []
    interior = list(range(1, n - 1))
    for mask in range(1 << (n - 2)):
        t = list(range(n))
        t[0] = n - 1
        for i, q in enumerate(interior):
            if mask >> i & 1:
                t[q] = n - 1
        out.append(Transformation(tuple(t)))
    return tuple(out)


def is_irreducibly_generated(generators: Sequence[Transformation]) -> bool:
    """True iff no generator lies in the closure of the others.

    A list with a duplicated generator is never irreducible.
    """
    if not generators:
        raise ValueError("irreducibility needs at least one generator")
    for i, g in enumerate(generators):
        others = [h for j, h in enumerate(generators) if j != i]
        if not others:
            continue  # a single generator is never redundant
        rest, _ = _close_tuples([h.images for h in others])
        if g.images in set(rest):
            return False
    return True


def word_string(word: Word, names: Sequence[str] | None = None) -> str:
    """Render a generator word; with no names, generators print as g0, g1, ..."""
    if names is None:
        return ".".join(f"g{i}" for i in word)
    return "".join(names[i] for i in word)


def format_semigroup(sg: TransitionSemigroup) -> str:
    lines = [f"n={sg.n} size={sg.size}"]
    for t in sg.elements:
        lines.append(" ".join(str(i) for i in t.images))
    return "\n".join(lines) + "\n"


def semigroup_to_json(sg: TransitionSemigroup, names: Sequence[str] | None = None) -> dict:
    """JSON-friendly dict with generators, size and witness words."""
    data: dict = {
        "n": sg.n,
        "size": sg.size,
        "generators": [" ".join(str(i) for i in g.images) for g in sg.generators],
        "elements": [],
    }
    for t in sg.elements:
        entry: dict = {"images": " ".join(str(i) for i in t.images)}
        if sg.witness_words is not None:
            entry["word"] = word_string(sg.witness_words[t], names)
        data["elements"].append(entry)
    return data
