"""The benchmark reaches the library only through the names its
workloads call on the ``sf`` module; each of them must exist on
``sfsyn``, so that removing one fails here rather than in a benchmark
run."""
import ast
from pathlib import Path

import sfsyn

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def sf_names(source: str) -> set[str]:
    # attributes read off `sf` or `self.sf`
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "sf":
            names.add(node.attr)
        elif isinstance(owner, ast.Attribute) and owner.attr == "sf":
            names.add(node.attr)
    return names


def test_every_name_the_benchmark_calls_exists():
    names = sf_names(WORKLOADS.read_text(encoding="utf-8"))
    assert {"search_max", "verify_injective", "canonicalize"} <= names
    missing = sorted(name for name in names if not hasattr(sfsyn, name))
    assert missing == []
