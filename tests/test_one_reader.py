"""The package has one CSV ingestion path.

Datasets and theta files are both read by ``data.read_csv_rows``, the one
place in ``src/fusedfir`` that calls ``csv.reader``, and converted by
``data.float_columns``.  A second tokenizer, or numpy's text readers
beside it, would make two readers that must be kept equal.
"""

from __future__ import annotations

import ast
from pathlib import Path

import fusedfir

TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(fusedfir.__file__).parent.glob("*.py"))
}


def _call_sites(*names: str) -> list[str]:
    """``module:line`` of every call to ``<x>.<name>`` or ``<name>``."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names
    ]


def test_no_numpy_text_reader():
    sites = _call_sites("loadtxt", "genfromtxt", "fromregex")
    assert not sites, f"numpy text readers called at {sites}"


def test_one_csv_reader_call_site():
    sites = _call_sites("reader", "DictReader")
    assert len(sites) == 1, f"csv.reader must be called at exactly one site, got {sites}"
