"""The benchmark reaches the library only through the names its
workloads call on the ``sf`` module and the search statistics it reads;
each must exist, so that removing one fails here rather than in a
benchmark run.  The other way round, every function the package exports
must be run by the CLI, the benchmark or another package module, not by
the tests alone.  And the interior pairs have one encoding, the
collisions module's pair_index, so no other module orders them itself,
and the collisions module keeps its witnesses as raw maps: it never
names Transformation.
The search reports from its own closures: it builds no DFA and re-checks
no reported semigroup's consistency.  One function writes the CLI's
timing lines, and no report takes a switch to include its timings.  The
package imports nothing outside the standard library."""
import ast
import dataclasses
import importlib.util
import inspect
import json
import sys
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


def transformation_uses(source: str) -> list[int]:
    # lines that import, read as an attribute or otherwise name
    # Transformation
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "Transformation" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Transformation":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Transformation":
            lines.append(node.lineno)
    return lines


def test_the_pair_layer_never_names_transformation():
    source = (SRC / "collisions.py").read_text(encoding="utf-8")
    assert transformation_uses(source) == []


def test_the_transformation_guard_sees_each_form():
    assert transformation_uses("from .transform import Transformation, format_transformation") == [1]
    assert transformation_uses("from . import transform\nx = transform.Transformation") == [2]
    assert transformation_uses("x\ny\nt = Transformation(tuple(x))") == [3]
    assert transformation_uses("def f(x) -> Transformation | None:\n    return x") == [1]
    assert transformation_uses("from .transform import format_transformation\nformat_transformation(x)") == []


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


def enumerate_bsf_uses(source: str) -> list[int]:
    # lines that import, read as an attribute or otherwise name
    # enumerate_bsf, the scan wrapped as Transformation objects
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "enumerate_bsf" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "enumerate_bsf":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "enumerate_bsf":
            lines.append(node.lineno)
    return lines


def test_the_search_never_names_enumerate_bsf():
    # the search context reads b_sf as raw maps off bsf_images' scan
    source = (SRC / "search.py").read_text(encoding="utf-8")
    assert enumerate_bsf_uses(source) == []


def test_the_enumerate_bsf_guard_sees_each_form():
    assert enumerate_bsf_uses("from .semigroup import RawMap, enumerate_bsf") == [1]
    assert enumerate_bsf_uses("from . import semigroup\nx = semigroup.enumerate_bsf(n)") == [2]
    assert enumerate_bsf_uses("x\ny\npool = enumerate_bsf(7)") == [3]
    assert enumerate_bsf_uses("f = enumerate_bsf") == [1]
    assert enumerate_bsf_uses("from .semigroup import bsf_images\nbsf_images(n)") == []


def timing_writers(source: str) -> list[str]:
    # the scopes, by qualified name ("" for the module body), holding a
    # string other than a docstring with a "# timing" line in it
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }
    writers = []

    def visit(node, owner: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            owner = f"{owner}.{name}" if owner else name
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "# timing" in node.value
            and id(node) not in docstrings
            and owner not in writers
        ):
            writers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return writers


def test_one_function_writes_the_timing_lines():
    writers = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in timing_writers(path.read_text(encoding="utf-8"))
    }
    assert writers == {("cli.py", "_report")}
    switch = "include" + "_timing"
    tests = Path(__file__).resolve().parent
    holders = [
        path.name
        for folder in (SRC, tests)
        for path in sorted(folder.glob("*.py"))
        if switch in path.read_text(encoding="utf-8")
    ]
    assert holders == []


def test_the_timing_guard_sees_each_form():
    assert timing_writers('def f(k, v):\n    return f"# timing {k}: {v}s"') == ["f"]
    assert timing_writers('def f():\n    def g():\n        return "# timing total"\n    return g') == ["f.g"]
    assert timing_writers('class R:\n    def render(self):\n        return "x\\n# timing a"') == ["R.render"]
    assert timing_writers('text = "# timing level 1"\nf = lambda: "# timing a"') == ["", "<lambda>"]
    assert timing_writers('"""# timing lines"""\ndef f():\n    """# timing"""\n    return 1') == []


def non_stdlib_imports(source: str) -> list[str]:
    # the top-level names of absolute imports outside the standard
    # library; relative imports stay inside the package
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        names += [m for m in modules if m.partition(".")[0] not in sys.stdlib_module_names]
    return names


def test_the_package_imports_only_the_standard_library():
    imports = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := non_stdlib_imports(path.read_text(encoding="utf-8")))
    }
    assert imports == {}


def test_the_stdlib_guard_sees_each_form():
    assert non_stdlib_imports("import numpy as np") == ["numpy"]
    assert non_stdlib_imports("import os, numpy.linalg") == ["numpy.linalg"]
    assert non_stdlib_imports("from pytest_benchmark import plugin") == ["pytest_benchmark"]
    assert non_stdlib_imports("from __future__ import annotations\nimport xml.dom") == []
    assert non_stdlib_imports("from . import dfa\nfrom .collisions import pair_index") == []
