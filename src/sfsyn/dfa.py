"""Complete DFAs over named letters, with the decision procedures the
rest of the package leans on: reachability, minimality, suffix-freeness
and empty state location, plus relabeling and the text and Graphviz
forms.

State 0 is the initial state by convention and, in the suffix-free
setting, the empty state sits at n-1 after renumber_initial_empty.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .semigroup import TransitionSemigroup, closure, witness_letters
from .transform import Transformation


@dataclass(frozen=True)
class Dfa:
    """A complete DFA.  delta is letter-major: delta[i] is the full
    transformation of letter letters[i]."""

    n: int
    letters: tuple[str, ...]
    delta: tuple[Transformation, ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a DFA needs at least one state")
        if not self.letters:
            raise ValueError("a DFA needs at least one letter")
        if "" in self.letters:
            raise ValueError(f"empty letter name in {','.join(self.letters)!r}")
        for name in self.letters:
            # the text format separates names by commas, rows by colons
            # and fields by whitespace
            if "," in name or ":" in name or any(c.isspace() for c in name):
                raise ValueError(f"letter name {name!r} contains a comma, a colon or whitespace")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letter names")
        if len(self.delta) != len(self.letters):
            raise ValueError("each letter needs exactly one transformation")
        for name, t in zip(self.letters, self.delta):
            if t.n != self.n:
                raise ValueError(f"letter {name!r} acts on {t.n} states, DFA has {self.n}")
        if not 0 <= self.initial < self.n:
            raise ValueError(f"initial state {self.initial} out of range")
        for f in self.finals:
            if not 0 <= f < self.n:
                raise ValueError(f"final state {f} out of range")

    def run(self, word: Iterable[str], start: int | None = None) -> int:
        """The state the word leads to from start, the initial state by
        default."""
        q = self.initial if start is None else start
        for name in word:
            try:
                i = self.letters.index(name)
            except ValueError:
                raise ValueError(f"unknown letter {name!r}") from None
            q = self.delta[i][q]
        return q

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.finals


def witness(n: int) -> Dfa:
    """The n-state witness DFA: initial 0, single final state 1, and
    the letter set from witness_letters.  Its transition semigroup is
    exactly w_sf(n), so its size meets (n-1)^(n-2) + n - 2."""
    names, letters = witness_letters(n)
    return Dfa(n=n, letters=names, delta=letters, initial=0, finals=frozenset({1}))


def transition_semigroup(dfa: Dfa) -> TransitionSemigroup:
    return closure(list(dfa.delta))


# ------------------------------------------------------------ reachability


def reachable_states(dfa: Dfa) -> tuple[int, ...]:
    """States reachable from the initial state, in breadth-first order
    with letters tried in alphabet order."""
    rows = [t.images for t in dfa.delta]
    seen = [False] * dfa.n
    seen[dfa.initial] = True
    order = [dfa.initial]
    for q in order:  # the list grows while it is walked
        for row in rows:
            r = row[q]
            if not seen[r]:
                seen[r] = True
                order.append(r)
    return tuple(order)


# -------------------------------------------------------------- minimality


def _moore_blocks(dfa: Dfa) -> list[int]:
    # block id per state; refine {F, Q-F} by transition signatures, a
    # new id per signature in order of first occurrence
    rows = [t.images for t in dfa.delta]
    block = [1 if q in dfa.finals else 0 for q in range(dfa.n)]
    while True:
        sig: dict[tuple[int, ...], int] = {}
        moved = ([block[r] for r in row] for row in rows)
        new = [sig.setdefault(key, len(sig)) for key in zip(block, *moved)]
        if new == block:
            return block
        block = new


def is_minimal(dfa: Dfa) -> bool:
    if len(reachable_states(dfa)) != dfa.n:
        return False
    return len(set(_moore_blocks(dfa))) == dfa.n


# --------------------------------------------------------- suffix-freeness


def suffix_free_violation(dfa: Dfa) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A pair (w, v) with w non-empty and both wv and v accepted, if one
    exists; None when the language is suffix-free.  Each word is a tuple
    of letter names, so it runs through accepts whatever the names.

    Runs the synchronized product of the DFA with itself: one track
    reads wv from the initial state, the other reads the suffix v.  The
    second track must start at the initial state, so the seed pairs are
    (r, initial) for every state r reachable by a non-empty word.
    Both searches are breadth-first, so the witness words are shortest.

    A pair is tested for "both final" when it is first reached, not
    when it is taken from the queue: the seeds in seed order (one can
    be both final only when the initial state is), then each pair as it
    is appended.  The queue is walked in append order and a pair's
    parent link is written once, when it is appended, so the first
    both-final pair appended is the one a test at removal would find
    first, with the same parent chain and the same witness.

    The DFA is not trimmed first: both searches start at the initial
    state, so they meet reachable states only, and the order in which
    they find states and pairs depends on the letter order alone, never
    on state names.  The witness is the one the trimmed DFA gives.  The
    searches read each letter's image row directly; the parent link of
    a pair (p, q) sits at p*n + q in a flat list of n*n entries.
    """
    n = dfa.n
    ini = dfa.initial
    finals = dfa.finals
    names = dfa.letters
    rows = [t.images for t in dfa.delta]
    # shortest non-empty word to each state, as a parent state (-1 for
    # the initial state read by one letter) and a last letter
    parent = [-2] * n  # -2: not reached
    letter = [0] * n
    found: list[int] = []
    for k, row in enumerate(rows):
        r = row[ini]
        if parent[r] == -2:
            parent[r] = -1
            letter[r] = k
            found.append(r)
    for q in found:  # the list grows while it is walked
        for k, row in enumerate(rows):
            r = row[q]
            if parent[r] == -2:
                parent[r] = q
                letter[r] = k
                found.append(r)
    # synchronized pair search; step[c] is -1 for an unseen pair, -2
    # for a seed, else the code of the pair it came from times the
    # number of letters, plus the letter
    width = len(rows)
    step = [-1] * (n * n)

    def words(c: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        v = []
        while step[c] != -2:
            c, k = divmod(step[c], width)
            v.append(names[k])
        w = []
        r = c // n
        while r != -1:
            w.append(names[letter[r]])
            r = parent[r]
        return tuple(reversed(w)), tuple(reversed(v))

    for r in found:
        step[r * n + ini] = -2
    if ini in finals:
        for r in found:
            if r in finals:
                return words(r * n + ini)
    letter_rows = list(enumerate(rows))
    pairs = [(r, ini) for r in found]
    for p, q in pairs:  # the list grows while it is walked
        base = (p * n + q) * width
        for k, row in letter_rows:
            a = row[p]
            b = row[q]
            d = a * n + b
            if step[d] == -1:
                step[d] = base + k
                if a in finals and b in finals:
                    return words(d)
                pairs.append((a, b))
    return None


# ------------------------------------------------------------ empty state


def empty_state(dfa: Dfa) -> int | None:
    """The least non-final state that every letter maps to itself.  In
    a minimal DFA this sink is unique when it exists; rejecting is
    automatic since the sink is not final."""
    rows = [t.images for t in dfa.delta]
    for q in range(dfa.n):
        if q not in dfa.finals and all(row[q] == q for row in rows):
            return q
    return None


# -------------------------------------------------------------- relabeling


def relabel(dfa: Dfa, permutation: Sequence[int]) -> Dfa:
    """Conjugate every transition by a bijection on states."""
    perm = tuple(permutation)
    if sorted(perm) != list(range(dfa.n)):
        raise ValueError("relabeling needs a bijection on the states")
    delta = []
    for t in dfa.delta:
        imgs = [0] * dfa.n
        for q in range(dfa.n):
            imgs[perm[q]] = perm[t[q]]
        delta.append(Transformation(tuple(imgs)))
    return Dfa(
        n=dfa.n,
        letters=dfa.letters,
        delta=tuple(delta),
        initial=perm[dfa.initial],
        finals=frozenset(perm[f] for f in dfa.finals),
    )


def renumber_initial_empty(dfa: Dfa) -> Dfa:
    """Relabel so the initial state is 0 and the empty state is n-1,
    with the remaining states keeping their relative order."""
    sink = empty_state(dfa)
    if sink is None:
        raise ValueError("no empty state to renumber")
    if sink == dfa.initial:
        raise ValueError("initial state is the empty state")
    middle = [q for q in range(dfa.n) if q not in (dfa.initial, sink)]
    order = [dfa.initial] + middle + [sink]
    perm = [0] * dfa.n
    for i, q in enumerate(order):
        perm[q] = i
    return relabel(dfa, perm)


# -------------------------------------------------------------- text forms


def format_dfa(dfa: Dfa) -> str:
    finals = ",".join(str(f) for f in sorted(dfa.finals))
    head = f"n={dfa.n} letters={','.join(dfa.letters)} initial={dfa.initial} finals={finals}"
    rows = [
        f"{name}: {' '.join(str(i) for i in t.images)}"
        for name, t in zip(dfa.letters, dfa.delta)
    ]
    return "\n".join([head] + rows) + "\n"


def _integer(text: str) -> int:
    # an optional minus sign and ASCII digits, as format_dfa writes
    # them; int() alone also takes "+2", "0_1" and other scripts' digits
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"not a plain integer: {text!r}")
    return int(text)


def parse_dfa(text: str) -> Dfa:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty DFA text")
    head = lines[0].split()
    fields: dict[str, str | None] = dict.fromkeys(("n", "letters", "initial", "finals"))
    for part in head:
        if "=" not in part:
            raise ValueError(f"bad header field {part!r}")
        key, _, value = part.partition("=")
        if key not in fields:
            raise ValueError(f"unknown header field {key!r}")
        if fields[key] is not None:
            raise ValueError(f"repeated header field {key!r}")
        fields[key] = value
    for key, value in fields.items():
        if value is None:
            raise ValueError(f"header is missing {key}")
    try:
        n = _integer(fields["n"])
        initial = _integer(fields["initial"])
    except ValueError:
        raise ValueError("header counts must be integers") from None
    if n < 1:
        raise ValueError(f"header n must be at least 1, got {n}")
    letters = tuple(fields["letters"].split(",")) if fields["letters"] else ()
    try:
        finals = (
            frozenset(_integer(f) for f in fields["finals"].split(","))
            if fields["finals"]
            else frozenset()
        )
    except ValueError:
        raise ValueError(
            f"header finals must be comma-separated integers, got {fields['finals']!r}"
        ) from None
    if len(lines) != 1 + len(letters):
        raise ValueError(
            f"expected {len(letters)} transition rows, found {len(lines) - 1}"
        )
    delta = []
    for name, line in zip(letters, lines[1:]):
        row_name, _, images = line.partition(":")
        if row_name.strip() != name:
            raise ValueError(
                f"transition rows must follow header order; expected {name!r}, "
                f"found {row_name.strip()!r}"
            )
        try:
            imgs = tuple(_integer(x) for x in images.split())
        except ValueError:
            raise ValueError(f"bad transition row for letter {name!r}") from None
        if len(imgs) != n:
            raise ValueError(
                f"letter {name!r} has {len(imgs)} images, expected {n}"
            )
        delta.append(Transformation(imgs))
    return Dfa(n=n, letters=letters, delta=tuple(delta), initial=initial, finals=finals)


def to_dot(dfa: Dfa) -> str:
    """Graphviz rendering; the empty state is drawn dashed, final
    states double-circled, and the initial state marked by an arrow
    from a phantom node."""
    sink = empty_state(dfa)
    out = ["digraph dfa {", "  rankdir=LR;", '  start [shape=none, label=""];']
    for q in range(dfa.n):
        attrs = ["shape=doublecircle" if q in dfa.finals else "shape=circle"]
        if q == sink:
            attrs.append("style=dashed")
        out.append(f"  {q} [{', '.join(attrs)}];")
    out.append(f"  start -> {dfa.initial};")
    edges: dict[tuple[int, int], list[str]] = {}
    for name, t in zip(dfa.letters, dfa.delta):
        for q in range(dfa.n):
            edges.setdefault((q, t[q]), []).append(name)
    for (q, r), names in sorted(edges.items()):
        label = ",".join(names).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  {q} -> {r} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"
