"""The benchmark reaches the library only through the names its
workloads call on the ``sf`` module and the search statistics it reads;
each must exist, so that removing one fails here rather than in a
benchmark run.  The other way round, every function the package exports
must be run by the CLI, the benchmark or another package module, not by
the tests alone.  And the interior pairs have one encoding, the
collisions module's pair_index, so no other module orders them itself.
The search reports from its own closures: it builds no DFA and re-checks
no reported semigroup's consistency."""
import ast
import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import sfsyn
from sfsyn.search import SearchStats

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"


def attributes_of(source: str, owner_name: str) -> set[str]:
    # attributes read off `<owner_name>` or `<anything>.<owner_name>`
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == owner_name:
            names.add(node.attr)
        elif isinstance(owner, ast.Attribute) and owner.attr == owner_name:
            names.add(node.attr)
    return names


def test_every_name_the_benchmark_calls_exists():
    names = attributes_of(WORKLOADS.read_text(encoding="utf-8"), "sf")
    assert {"search_max", "verify_injective", "canonicalize"} <= names
    missing = sorted(name for name in names if not hasattr(sfsyn, name))
    assert missing == []


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_workload_passes_a_smoke_pass():
    # one untraced smoke-size pass of each workload BENCHMARK.json names,
    # its probe included, checked by the workload's own gates
    workloads = load_bench_module("workloads")
    tracer = load_bench_module("tracer").NullTracer()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    for name in names:
        tally = workloads.Tally()
        workload = workloads.WORKLOADS[name](sfsyn, 1, True)
        workload.check(workload.run_pass(tracer, tally), tally)
        workload.probe(tracer)
        assert tally.attempted >= 1, name
        assert (tally.failed, tally.problems) == (0, []), name


def test_every_search_statistic_the_benchmark_reads_exists():
    names = attributes_of(WORKLOADS.read_text(encoding="utf-8"), "stats")
    assert {"visited", "selections", "rejected_selections", "capped"} <= names
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert sorted(names - fields) == []


SRC = Path(sfsyn.__file__).resolve().parent


def names_used(source: str) -> set[str]:
    # names read in a module body, imports aside
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_exported_function_has_a_caller_outside_the_tests():
    # a function in sfsyn.__all__ is called by the CLI, read as sf.<name>
    # by the benchmark, or used by a package module other than its own;
    # classes are exempt
    bench = attributes_of(WORKLOADS.read_text(encoding="utf-8"), "sf")
    used_in = {
        f"sfsyn.{path.stem}": names_used(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
    }
    uncalled = []
    for name in sfsyn.__all__:
        obj = getattr(sfsyn, name)
        if inspect.isclass(obj):
            continue
        callers = [m for m, used in used_in.items() if m != obj.__module__ and name in used]
        if name not in bench and not callers:
            uncalled.append(name)
    assert uncalled == []


def pair_order_builders(source: str) -> list[int]:
    # lines that reach itertools.combinations, by import or attribute, or
    # that loop over range(x + 1, ...), the hand-written pair order
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name in ("combinations", "*") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "combinations":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and node.args
            and isinstance(start := node.args[0], ast.BinOp)
            and isinstance(start.op, ast.Add)
            and isinstance(start.left, ast.Name)
            and isinstance(start.right, ast.Constant)
            and start.right.value == 1
        ):
            lines.append(node.lineno)
    return lines


def test_only_collisions_orders_the_interior_pairs():
    builders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := pair_order_builders(path.read_text(encoding="utf-8")))
    }
    assert list(builders) == ["collisions.py"]


def test_the_pair_order_guard_sees_each_form():
    assert pair_order_builders("from itertools import combinations") == [1]
    assert pair_order_builders("import itertools\nitertools.combinations(r, 2)") == [2]
    assert pair_order_builders("[(p, q) for p in r for q in range(p + 1, n)]") == [1]
    assert pair_order_builders("from itertools import compress, permutations") == []


def dfa_and_recheck_uses(source: str) -> list[int]:
    # lines that import from sfsyn.dfa, relatively or not, or that name
    # verify_suffix_free_consistency
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("dfa", "sfsyn.dfa") or (
                module in ("", "sfsyn") and any(alias.name == "dfa" for alias in node.names)
            ):
                lines.append(node.lineno)
            elif any(alias.name == "verify_suffix_free_consistency" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "sfsyn.dfa" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "verify_suffix_free_consistency":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "verify_suffix_free_consistency":
            lines.append(node.lineno)
    return lines


def test_the_search_imports_nothing_from_dfa():
    source = (SRC / "search.py").read_text(encoding="utf-8")
    assert dfa_and_recheck_uses(source) == []


def test_the_dfa_import_guard_sees_each_form():
    assert dfa_and_recheck_uses("from .dfa import Dfa") == [1]
    assert dfa_and_recheck_uses("from sfsyn.dfa import Dfa") == [1]
    assert dfa_and_recheck_uses("from . import dfa") == [1]
    assert dfa_and_recheck_uses("import sfsyn.dfa") == [1]
    assert dfa_and_recheck_uses("from .collisions import verify_suffix_free_consistency") == [1]
    assert dfa_and_recheck_uses("x\nverify_suffix_free_consistency(sg)") == [2]
    assert dfa_and_recheck_uses("collisions.verify_suffix_free_consistency(sg)") == [1]
    assert dfa_and_recheck_uses("from .collisions import pair_index, pair_masks") == []
