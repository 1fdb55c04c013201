"""Generated inputs for ``fusedfir run``, driven through ``cli.main`` in process.

Each example writes a small manifest and its CSVs: 1-4 conditions, 1-3
taps, 1-3 channels and 2-40 rows, at a uniform scale from 1e-300 to
1e300, optionally with one channel rescaled, a constant channel, a
duplicated condition, a zero output or one defective cell.  Whatever the
input, ``main`` returns 0, 2, 3 or 4 and raises nothing, and an exit 0
leaves a ``report.json`` that parses with finite models.

The runs use a 2 x 2 grid and ``--max-iter 300`` to keep each example
cheap; the CLI only prints numpy's overflow warnings, so they are ignored
here rather than turned into errors.
"""

from __future__ import annotations

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


@st.composite
def scenarios(draw):
    K = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    rows = draw(st.integers(2, 40))
    datasets = 2 * K
    return {
        "K": K,
        "k": draw(st.integers(1, K)),
        "taps": draw(st.integers(1, 3)),
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
        name = f"C{10 * (d // 2 + 1)}-{d % 2 + 1}"
        lines = [",".join(["t", *channels, "y"])]
        lines += [",".join([str(t + 1), *row]) for t, row in enumerate(cells)]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest.append({"name": name, "file": f"{name}.csv",
                         "role": "estimation" if d % 2 == 0 else "validation",
                         "channels": channels, "output": "y"})
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
        out = directory / "out"
        code = main([
            "run", "--manifest", str(manifest), "--out", str(out),
            "--taps", str(scenario["taps"]), "--k", str(scenario["k"]),
            "--max-iter", "300", "--lambda1-factors", "0.01,0.1",
            "--lambda2-values", "0,0.01",
        ])
        assert code in (0, 2, 3, 4)
        if code == 0:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            thetas = [*report["thetas"].values(), *(r["theta"] for r in report["refits"])]
            assert all(math.isfinite(v) for theta in thetas for v in theta)
