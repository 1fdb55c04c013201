"""Generated inputs for ``fusedfir run``, driven through ``cli.main`` in process.

Each example writes a small manifest and its CSVs: 1-4 conditions, 1-3
taps, 1-3 channels and 2-40 rows, at a uniform scale from 1e-300 to
1e300, optionally with one channel rescaled, a constant channel, a
duplicated condition, a zero output, one defective cell, one manifest
entry after the first that lists one channel fewer, one dataset cut to
fewer rows than taps, or a grid of 1-3 values per weight given on the
command line, one of its lists perhaps repeating a value.  Whatever the
input, ``main`` returns 0, 2, 3 or 4 and raises nothing.  An exit 0
leaves a ``report.json`` that parses with finite models, and a second run
writes the same four outputs byte for byte.  A duplicated condition gets
the same model as its original, and the same label when there are at
least k distinct models.  A repeated grid value exits 2 before any data
is read.  A short entry exits 2 naming its dataset, unless a defect in
an entry before it stops the run first.  A cut dataset exits 2; with no
other defect, the message names it, or a dataset whose Gram products
overflow.

The runs use at most a 3 x 3 grid (2 x 2 by default) and
``--max-iter 300`` to keep each example cheap; the CLI only prints
numpy's overflow warnings, so they are ignored here rather than turned
into errors.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fusedfir.cli import main

# One cell's text is replaced by one of these; "{}" is the original text.
CELL_DEFECTS = ("nan", "inf", "-inf", "", '"{}"', "  {} ", "{}x")

OUTPUTS = ("report.json", "thetas.csv", "category_thetas.csv", "fit_matrix.csv")

DEFAULT_GRID = ((0.01, 0.1), (0.0, 0.01))


def dataset_name(d: int) -> str:
    """Dataset d is condition d // 2's estimation (even d) or validation set."""
    return f"C{10 * (d // 2 + 1)}-{d % 2 + 1}"


def rarely(strategy):
    """``strategy`` in about one example in four, None otherwise, so that
    the inputs that always exit 2 leave most examples to the other
    properties."""
    return st.integers(0, 3).flatmap(lambda i: st.none() if i else strategy)


def ascending(values):
    """1-3 distinct values of ``values`` in ascending order."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def scenarios(draw):
    K = draw(st.integers(1, 4))
    taps = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 3))
    rows = draw(st.integers(2, 40))
    datasets = 2 * K
    return {
        "K": K,
        "k": draw(st.integers(1, K)),
        "taps": taps,
        "channels": channels,
        "rows": rows,
        "seed": draw(st.integers(0, 2**16)),
        "scale": draw(st.integers(-300, 300)),
        "channel_scale": draw(st.none() | st.tuples(st.integers(0, channels - 1),
                                                    st.integers(-8, 8))),
        "constant_channel": draw(st.none() | st.integers(0, channels - 1)),
        "duplicate_condition": K >= 2 and draw(st.booleans()),
        "zero_output": draw(st.none() | st.integers(0, datasets - 1)),
        "cell": draw(st.none() | st.tuples(
            st.integers(0, datasets - 1), st.integers(0, rows - 1),
            st.integers(0, channels), st.sampled_from(CELL_DEFECTS),
        )),
        "short_entry": draw(st.none() | st.integers(1, datasets - 1)) if channels > 1 else None,
        # (dataset, rows left), fewer than the taps.
        "cut": draw(rarely(st.tuples(st.integers(0, datasets - 1),
                                     st.integers(1, taps - 1)))) if taps > 1 else None,
        "grid": draw(st.none() | st.tuples(ascending([0.0, 1e-3, 1e-2, 1e-1, 1.0]),
                                           ascending([0.0, 1e-4, 1e-2, 1.0]))),
        # The grid list (0: lambda1 factors, 1: lambda2 values) whose first
        # value is given twice.
        "repeat": draw(rarely(st.integers(0, 1))),
    }


def write_scenario(directory: Path, s: dict) -> Path:
    """The scenario's CSVs and manifest; condition i has datasets 2i
    (estimation) and 2i + 1 (validation)."""
    rng = np.random.default_rng(s["seed"])
    scale = 10.0 ** s["scale"]
    tables = []
    for d in range(2 * s["K"]):
        if s["duplicate_condition"] and d in (2, 3):
            tables.append(tables[d - 2].copy())
            continue
        X = rng.standard_normal((s["rows"], s["channels"]))
        y = X @ rng.standard_normal(s["channels"]) + 0.1 * rng.standard_normal(s["rows"])
        if s["channel_scale"] is not None:
            j, e = s["channel_scale"]
            X[:, j] *= 10.0 ** e
        if s["constant_channel"] is not None:
            X[:, s["constant_channel"]] = 1.0
        if s["zero_output"] == d:
            y[:] = 0.0
        tables.append(np.column_stack([X, y]) * scale)

    channels = [f"s{j + 1}" for j in range(s["channels"])]
    manifest = []
    for d, table in enumerate(tables):
        cells = [[f"{v:.17g}" for v in row] for row in table]
        if s["cell"] is not None and s["cell"][0] == d:
            _, r, c, defect = s["cell"]
            cells[r][c] = defect.format(cells[r][c])
        name = dataset_name(d)
        lines = [",".join(["t", *channels, "y"])]
        lines += [",".join([str(t + 1), *row]) for t, row in enumerate(cells)]
        if s["cut"] is not None and s["cut"][0] == d:
            del lines[1 + s["cut"][1]:]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.append({"name": name, "file": f"{name}.csv",
                         "role": "estimation" if d % 2 == 0 else "validation",
                         "channels": channels[:-1] if s["short_entry"] == d else channels,
                         "output": "y"})
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=scenarios())
def test_run_exits_with_a_known_code_and_finite_models(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        manifest = write_scenario(directory, scenario)

        grid = [list(values) for values in scenario["grid"] or DEFAULT_GRID]
        repeat = scenario["repeat"]
        if repeat is not None:
            grid[repeat].insert(0, grid[repeat][0])

        def run(out: Path) -> tuple[int, str]:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([
                    "run", "--manifest", str(manifest), "--out", str(out),
                    "--taps", str(scenario["taps"]), "--k", str(scenario["k"]),
                    "--max-iter", "300",
                    "--lambda1-factors", ",".join(map(repr, grid[0])),
                    "--lambda2-values", ",".join(map(repr, grid[1])),
                ])
            return code, stderr.getvalue()

        out = directory / "out"
        code, stderr = run(out)
        assert code in (0, 2, 3, 4)
        short, cell, cut = scenario["short_entry"], scenario["cell"], scenario["cut"]
        if repeat is not None:
            assert code == 2
            assert "must be strictly ascending" in stderr
            return
        if short is not None:
            assert code == 2
            if cell is None or cell[0] >= short:
                assert f"'{dataset_name(short)}'" in stderr
        if cut is not None:
            assert code == 2
            if cell is None and short is None:
                # With fewer rows than taps everywhere, the first dataset
                # built fails first.
                first = cut[0] if scenario["rows"] >= scenario["taps"] else 0
                assert (f"'{dataset_name(first)}': series shorter than tap count" in stderr
                        or "Gram products overflow" in stderr), stderr
        if code == 0:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            thetas = [*report["thetas"].values(), *(r["theta"] for r in report["refits"])]
            assert all(math.isfinite(v) for theta in thetas for v in theta)
            rerun = directory / "rerun"
            assert run(rerun)[0] == 0
            for name in OUTPUTS:
                assert (rerun / name).read_bytes() == (out / name).read_bytes()
            if scenario["duplicate_condition"]:
                original, copy = (np.asarray(report["thetas"][f"C{c}-1"]) for c in (10, 20))
                assert np.linalg.norm(copy - original) <= 1e-12 * np.linalg.norm(original)
                # k clusters of fewer distinct models must split equal ones.
                distinct = {tuple(theta) for theta in report["thetas"].values()}
                if scenario["k"] <= len(distinct):
                    labels = report["clusters"]["labels"]
                    assert labels["C10"] == labels["C20"]
