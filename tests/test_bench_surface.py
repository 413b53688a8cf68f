"""The benchmark reaches the library only through the names its
workloads call on the ``sf`` module and the search statistics it reads;
each must exist, so that removing one fails here rather than in a
benchmark run."""
import ast
import dataclasses
from pathlib import Path

import sfsyn
from sfsyn.search import SearchStats

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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


def test_every_search_statistic_the_benchmark_reads_exists():
    names = attributes_of(WORKLOADS.read_text(encoding="utf-8"), "stats")
    assert {"visited", "selections", "rejected_selections", "capped"} <= names
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert sorted(names - fields) == []
