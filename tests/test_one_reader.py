"""The package has one input reader and one error path.

Every input file, dataset, theta CSV, manifest or scenario config, is
read by ``data.read_text``, and JSON is parsed only by ``data.read_json``.
Datasets and theta files are both split by ``data.read_csv_rows``, the one
place in ``src/fusedfir`` that calls ``csv.reader``, and converted by
``data.float_columns``.  A second reader beside one of these would be a
second error policy that must be kept equal to the first.  Only
``cli.main`` catches every exception, to map typed errors to exit codes.

Likewise, problems and models are checked to share one ``ModelStructure``
only by ``data.shared_structure``, the one comparison of ``.structure``
attributes, and parameter vectors are stacked only by
``data.stack_values``, the one list comprehension over ``.values``.

Only ``data.generate_synthetic`` draws from ``numpy.random``, which costs
a child process about 6 MB of RSS to load; k-means uses ``random.Random``.
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


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether ``call`` is ``open(path, mode)`` or ``<path>.open(mode)`` with
    a read mode (the default, or any mode that is not a plain write)."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        positional = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = call.args[:1]
    else:
        return False
    modes = positional + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("wxabt"))


def test_one_file_read_site():
    sites = _call_sites("read_bytes")
    sites += [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "read_text"
            or _opens_for_reading(node)
        )
    ]
    assert len(sites) == 1, f"input files must be read at exactly one site, got {sites}"


def test_one_json_parse_site():
    sites = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("loads", "load")
        and getattr(node.func.value, "id", None) == "json"
    ]
    assert len(sites) == 1, f"JSON must be parsed at exactly one site, got {sites}"


def test_catch_all_only_in_cli_main():
    sites = []
    for module, tree in TREES.items():
        allowed = set()
        if module == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(n) for n in ast.walk(main)}
        sites += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and id(node) not in allowed
            and (node.type is None or getattr(node.type, "id", None) in ("Exception", "BaseException"))
        ]
    assert not sites, f"only cli.main may catch every exception, got {sites}"


def test_one_structure_comparison():
    sites = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Attribute) and operand.attr == "structure"
            for operand in [node.left, *node.comparators]
        )
    ]
    assert len(sites) == 1, f"structures must be compared at exactly one site, got {sites}"


def test_one_values_stack():
    sites = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ListComp)
        and isinstance(node.elt, ast.Attribute)
        and node.elt.attr == "values"
    ]
    assert len(sites) == 1, f"parameter vectors must be stacked at exactly one site, got {sites}"


def _numpy_random_uses(tree: ast.AST) -> list[ast.AST]:
    """``np.random`` / ``numpy.random`` attributes and imports of numpy.random."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "random"
        and getattr(node.value, "id", None) in ("np", "numpy")
        or isinstance(node, ast.Import)
        and any(alias.name.startswith("numpy.random") for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (
            (node.module or "").startswith("numpy.random")
            or node.module == "numpy" and any(alias.name == "random" for alias in node.names)
        )
    ]


def test_numpy_random_only_in_generate_synthetic():
    synth = next(
        n for n in TREES["data.py"].body
        if isinstance(n, ast.FunctionDef) and n.name == "generate_synthetic"
    )
    allowed = {id(n) for n in _numpy_random_uses(synth)}
    assert allowed, "generate_synthetic no longer draws from numpy.random"
    sites = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in _numpy_random_uses(tree)
        if id(node) not in allowed
    ]
    assert not sites, f"numpy.random used outside data.generate_synthetic at {sites}"
