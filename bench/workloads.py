"""The benchmark's workloads.

Each workload builds its inputs when constructed, runs one verdict pass
through the same public calls its CLI command makes (``run_pass``,
timed), and checks every outcome of that pass afterwards (``check``,
untimed).  The library is passed in as the module ``sf`` so that each
set-up can import it afresh.
"""
from __future__ import annotations

import random
import time
from collections import Counter

# The embedding stream is one base stream of random DFAs, drawn from
# this fixed seed, that --seed relabels and reorders.  Fresh streams of
# an affordable size moved the accepted DFAs' p90 latency by about 20%
# from seed to seed (README.md), which no usable bound absorbs.
BASE_SEED = 14122281
EMBED_STATES = 7


class Tally:
    """Ops attempted and failed, job intervals and exact counters,
    summed over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.jobs: list[tuple[float, float]] = []  # perf_counter start, end
        self.counts: Counter = Counter()

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _expect(problems: list[str], what: str, actual, expected) -> None:
    if actual != expected:
        problems.append(f"{what}: expected {expected!r}, got {actual!r}")


def _count_search(stats, counts: Counter) -> None:
    counts["search.visited"] += stats.visited
    counts["search.selections"] += stats.selections
    counts["search.rejected_selections"] += stats.rejected_selections
    counts["search.terminal_selections"] += stats.terminal_selections
    counts["search.pruned_selections"] += stats.pruned_selections
    counts["search.extensions"] += stats.extensions
    for level, size in enumerate(stats.level_sizes[:2], start=1):
        counts[f"search.level{level}_size"] += size


def _canonical_probe(sf, n: int, tracer) -> None:
    """The public canonical form on every pool letter of the n-state
    search: the candidate maps minus the semiconstant family."""
    semiconstants = set(sf.semiconstant_family(n))
    letters = [t for t in sf.enumerate_bsf(n) if t not in semiconstants]
    with tracer.span("probe"):
        for t in letters:
            with tracer.span("search.canonicalize"):
                sf.canonicalize([t])


class Bound:
    """``sfsyn verify-bound --n 8``: the witness closure, its
    suffix-freeness and minimality, the pair scan and the embedding."""

    name = "bound"

    def __init__(self, sf, seed: int, smoke: bool) -> None:
        self.sf = sf
        self.n = 7 if smoke else 8
        self.dfa = sf.witness(self.n)

    def inputs(self) -> str:
        d = self.dfa
        return repr((d.n, d.letters, [t.images for t in d.delta], d.initial, sorted(d.finals)))

    def run_pass(self, tracer, tally: Tally):
        sf, d, span = self.sf, self.dfa, tracer.span
        with span("op"):
            start = time.perf_counter()
            with span("semigroup.closure"):
                sg = sf.transition_semigroup(d)
            with span("dfa.suffix_free"):
                violation = sf.suffix_free_violation(d)
            with span("dfa.is_minimal"):
                minimal = sf.is_minimal(d)
            with span("collisions.pair_statuses"):
                colliding = sum(1 for s in sf.pair_statuses(sg) if s.colliding)
            with span("injection.verify_injective"):
                inj = sf.verify_injective(sg)
            tally.jobs.append((start, time.perf_counter()))
        return sg.size, violation, minimal, colliding, inj

    def check(self, outcome, tally: Tally) -> None:
        size, violation, minimal, colliding, inj = outcome
        bound = self.sf.wsf_bound(self.n)
        problems: list[str] = []
        _expect(problems, "bound: semigroup size", size, bound)
        _expect(problems, "bound: suffix-freeness violation", violation, None)
        _expect(problems, "bound: minimal", minimal, True)
        _expect(problems, "bound: colliding pairs", colliding, 0)
        _expect(problems, "bound: embedding passes", inj.passed, True)
        _expect(problems, "bound: case census", inj.case_counts, {"1": bound})
        tally.op(problems)
        c = tally.counts
        c["dfa.suffix_free.checked"] += 1
        c["dfa.suffix_free.violations"] += violation is not None
        c["semigroup.closure.elements"] += size
        c["collisions.pair_statuses.elements"] += size
        c["injection.verify_injective.elements"] += inj.size
        c["injection.rewired"] += inj.size - inj.case_counts.get("1", 0)

    def probe(self, tracer) -> None:
        pass


def _base_stream(pool_size: int, count: int) -> list[tuple[list[int], list[int]]]:
    """Criterion-5 style DFAs as (letter indices into the pool, finals):
    2 to 4 letters, 1 or 2 interior finals."""
    rng = random.Random(BASE_SEED)
    stream = []
    for _ in range(count):
        k = rng.randint(2, 4)
        letters = [rng.randrange(pool_size) for _ in range(k)]
        finals = rng.sample(range(1, EMBED_STATES - 1), rng.randint(1, 2))
        stream.append((letters, finals))
    return stream


class Embed:
    """``sfsyn phi`` on a stream of random 7-state DFAs: most exit in the
    suffix-freeness search, the rest run all embedding cases on small
    semigroups."""

    name = "embed"

    def __init__(self, sf, seed: int, smoke: bool) -> None:
        self.sf = sf
        n = EMBED_STATES
        # sorted by images, so the stream does not depend on the order
        # in which the library enumerates the candidate maps
        pool = sorted((t.images for t in sf.enumerate_bsf(n)))
        rng = random.Random(seed)
        corpus = []
        for letters, finals in _base_stream(len(pool), 1_000 if smoke else 20_000):
            # relabel the interior states; 0 stays initial, n-1 empty
            perm = [0] + rng.sample(range(1, n - 1), n - 2) + [n - 1]
            delta = []
            for i in letters:
                images = [0] * n
                for q, r in enumerate(pool[i]):
                    images[perm[q]] = perm[r]
                delta.append(sf.Transformation(tuple(images)))
            rng.shuffle(delta)
            names = tuple("abcd"[: len(delta)])
            corpus.append(sf.Dfa(n, names, tuple(delta), 0, frozenset(perm[f] for f in finals)))
        rng.shuffle(corpus)
        self.corpus = corpus
        self.first: list | None = None
        self.digest: dict | None = None

    def inputs(self) -> str:
        return repr([(d.letters, [t.images for t in d.delta], sorted(d.finals)) for d in self.corpus])

    def run_pass(self, tracer, tally: Tally):
        out = []
        for d in self.corpus:
            with tracer.span("op"):
                out.append(self._judge(d, tracer.span, tally.jobs))
        return out

    def _judge(self, d, span, jobs: list):
        sf = self.sf
        start = time.perf_counter()
        with span("dfa.suffix_free"):
            violation = sf.suffix_free_violation(d)
        if violation is not None:
            return ("violation",) + violation
        with span("dfa.is_minimal"):
            minimal = sf.is_minimal(d)
        if not minimal:
            return ("nonminimal",)
        with span("semigroup.closure"):
            sg = sf.transition_semigroup(d)
        with span("injection.verify_injective"):
            inj = sf.verify_injective(sg)
        with span("collisions.pair_statuses"):
            colliding = any(s.colliding for s in sf.pair_statuses(sg))
        with span("injection.strict_gap"):
            gap = sf.strict_bound_witness(sg)
        jobs.append((start, time.perf_counter()))
        return ("accepted", inj, colliding, gap)

    def check(self, outcomes, tally: Tally) -> None:
        sf = self.sf
        bound = sf.wsf_bound(EMBED_STATES)
        kinds: Counter = Counter()
        cases: Counter = Counter()
        elements = rewired = colliding_count = 0
        keys = []
        for d, o in zip(self.corpus, outcomes):
            problems: list[str] = []
            kinds[o[0]] += 1
            if o[0] == "violation":
                _, w, v = o
                # re-checked by running the words, not by the product search
                if not (w and d.accepts(w + v) and d.accepts(v)):
                    problems.append(f"embed: rejection ({w!r}, {v!r}) does not re-check")
                key = o
            elif o[0] == "accepted":
                _, inj, colliding, gap = o
                _expect(problems, "embed: embedding passes", inj.passed, True)
                _expect(problems, "embed: bound", inj.bound, bound)
                if colliding:
                    if gap is None or not sf.in_wsf(gap):
                        problems.append(f"embed: colliding semigroup without a strict-gap witness ({gap!r})")
                elif gap is not None:
                    problems.append("embed: strict-gap witness for a semigroup without colliding pairs")
                cases.update(inj.case_counts)
                elements += inj.size
                rewired += inj.size - inj.case_counts.get("1", 0)
                colliding_count += colliding
                key = (o[0], inj.size, sorted(inj.case_counts.items()), colliding)
            else:
                key = o
            if self.first is not None and key != self.first[len(keys)]:
                problems.append(f"embed: DFA {len(keys)} judged differently than in the first pass")
            keys.append(key)
            tally.op(problems)
        if self.first is None:
            self.first = keys
            self.digest = {
                "candidates": len(outcomes),
                "accepted": kinds["accepted"],
                "not_suffix_free": kinds["violation"],
                "not_minimal": kinds["nonminimal"],
                "elements": elements,
                "cases": dict(sorted(cases.items())),
                "colliding": colliding_count,
            }
        c = tally.counts
        c["dfa.suffix_free.checked"] += len(outcomes)
        c["dfa.suffix_free.violations"] += kinds["violation"]
        c["semigroup.closure.elements"] += elements
        c["collisions.pair_statuses.elements"] += elements
        c["injection.verify_injective.elements"] += elements
        c["injection.rewired"] += rewired

    def probe(self, tracer) -> None:
        pass


class Search:
    """``sfsyn search`` at the paper's targets for n = 4, 5 and 6."""

    name = "search"

    def __init__(self, sf, seed: int, smoke: bool) -> None:
        self.sf = sf
        self.targets = ((4, 13, "vsf"), (5, 73, "vsf")) + (() if smoke else ((6, 629, "wsf"),))
        self.probe_n = 5 if smoke else 6

    def inputs(self) -> str:
        return repr(self.targets)

    def run_pass(self, tracer, tally: Tally):
        sf, span = self.sf, tracer.span
        job_n = self.targets[-1][0]
        out = []
        for n, target, _ in self.targets:
            with span("op"):
                start = time.perf_counter()
                with span("search.search_max"):
                    out.append(sf.search_max(n, target))
                if n == job_n:
                    tally.jobs.append((start, time.perf_counter()))
        return out

    def check(self, results, tally: Tally) -> None:
        for (n, target, kind), r in zip(self.targets, results):
            problems: list[str] = []
            _expect(problems, f"search n={n}: max_size_found", r.max_size_found, target)
            _expect(problems, f"search n={n}: others", r.others, ())
            _expect(problems, f"search n={n}: uniqueness_confirmed", r.uniqueness_confirmed, True)
            _expect(problems, f"search n={n}: confirmations", {c.kind: c.size for c in r.confirmations}, {kind: target})
            tally.op(problems)
            _count_search(r.stats, tally.counts)

    def probe(self, tracer) -> None:
        _canonical_probe(self.sf, self.probe_n, tracer)


class SearchDeep:
    """``sfsyn search --n 5 --target 72 --max-letters 2``: below the
    paper's target the search reaches level 2, where the stage-2/3
    pruning and the conflict matching run."""

    name = "search-deep"

    def __init__(self, sf, seed: int, smoke: bool) -> None:
        self.sf = sf
        self.max_letters = 1 if smoke else 2
        self.probe_n = 5 if smoke else 6

    def inputs(self) -> str:
        return repr((5, 72, self.max_letters))

    def run_pass(self, tracer, tally: Tally):
        sf, span = self.sf, tracer.span
        with span("op"):
            start = time.perf_counter()
            with span("search.search_max"):
                result = sf.search_max(5, 72, max_letters=self.max_letters)
            tally.jobs.append((start, time.perf_counter()))
        return result

    def check(self, r, tally: Tally) -> None:
        problems: list[str] = []
        _expect(problems, "search-deep: max_size_found", r.max_size_found, 73)
        _expect(problems, "search-deep: others", r.others, ())
        _expect(problems, "search-deep: capped", r.stats.capped, True)
        tally.op(problems)
        _count_search(r.stats, tally.counts)

    def probe(self, tracer) -> None:
        _canonical_probe(self.sf, self.probe_n, tracer)


WORKLOADS = {w.name: w for w in (Bound, Embed, Search, SearchDeep)}
