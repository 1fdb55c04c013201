from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fusedfir import Hyperparameters, ModelStructure, pipeline
from fusedfir.cli import main

SCENARIO = {
    "taps": 3,
    "channels": 2,
    "group_truths": [
        [1.0, 0.5, -0.25, 0.0, 0.0, 0.0],
        [-0.8, 0.9, 0.4, 0.0, 0.0, 0.0],
    ],
    "assignment": {
        "BR30": 0, "BR40": 0, "BR50": 0,
        "WBA20": 1, "WBA30": 1, "WBA40": 1,
    },
    "noise_sigma": 0.05,
    "irrelevant_channels": [2],
    "samples_per_condition": 120,
    "seed": 77,
}


def truths_with(i, value):
    """SCENARIO's group truths with truth i's first coefficient replaced."""
    truths = [list(t) for t in SCENARIO["group_truths"]]
    truths[i][0] = value
    return truths


def write_scenario(tmp_path, **overrides):
    config = dict(SCENARIO, **overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def checksums(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class TestSynth:
    def test_writes_datasets_and_manifest(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", str(config), "--out", str(out)]) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 12  # 6 conditions x {-1, -2}
        assert (out / "manifest.json").exists()
        assert (out / "ground_truth.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        roles = {e["name"]: e["role"] for e in manifest}
        assert roles["BR30-1"] == "estimation"
        assert roles["BR30-2"] == "validation"
        # The truth stays out of the manifest.
        assert "group_truths" not in json.dumps(manifest)

    def test_seed_repeat_checksum_equal(self, tmp_path):
        config = write_scenario(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["synth", str(config), "--out", str(out1)])
        main(["synth", str(config), "--out", str(out2)])
        assert checksums(out1) == checksums(out2)

    def test_noiseless_flag_in_sidecar(self, tmp_path):
        config = write_scenario(tmp_path, noise_sigma=0.0)
        out = tmp_path / "data"
        main(["synth", str(config), "--out", str(out)])
        sidecar = json.loads((out / "ground_truth.json").read_text())
        assert sidecar["noiseless"] is True

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"taps": 3}', encoding="utf-8")
        assert main(["synth", str(path), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "config, message",
        [
            ([1], "scenario config must be a JSON object"),
            ("taps", "scenario config must be a JSON object"),
            (dict(SCENARIO, assignment=[1]), "assignment must be a JSON object"),
            (dict(SCENARIO, group_truths=[1.0, 0.5]), "group_truths must be a list of lists"),
            (dict(SCENARIO, group_truths=3), "group_truths must be a list of lists"),
            (dict(SCENARIO, taps=None), "taps must be an integer, got None"),
            (dict(SCENARIO, channels=True), "channels must be an integer, got True"),
            (dict(SCENARIO, seed="x"), "seed must be an integer, got 'x'"),
            (dict(SCENARIO, samples_per_condition=1.5),
             "samples_per_condition must be an integer, got 1.5"),
            (dict(SCENARIO, irrelevant_channels=3), "irrelevant_channels must be a list"),
            (dict(SCENARIO, irrelevant_channels=[2.0]),
             "irrelevant_channels item must be an integer, got 2.0"),
            (dict(SCENARIO, assignment={"BR30": "0"}),
             "assignment['BR30'] must be an integer, got '0'"),
            (dict(SCENARIO, noise_sigma=[1]), "noise_sigma must be a finite number, got [1]"),
            (dict(SCENARIO, ar_coefficient=False),
             "ar_coefficient must be a finite number, got False"),
            (dict(SCENARIO, noise_sigma=10**400), "noise_sigma must be a finite number, got 1000"),
            (dict(SCENARIO, noise_sigma=float("nan")), "noise_sigma must be a finite number, got nan"),
            (dict(SCENARIO, group_truths=truths_with(0, "1.0")),
             "group_truths[0] must be a finite number, got '1.0'"),
            (dict(SCENARIO, group_truths=truths_with(1, None)),
             "group_truths[1] must be a finite number, got None"),
            (dict(SCENARIO, group_truths=truths_with(0, "x")),
             "group_truths[0] must be a finite number, got 'x'"),
        ],
        ids=["array", "string", "assignment-array", "truths-flat", "truths-number",
             "taps-null", "channels-bool", "seed-string", "samples-fraction",
             "irrelevant-number", "irrelevant-float", "assignment-string", "noise-list",
             "ar-bool", "noise-huge-integer", "noise-nan", "truth-string-number",
             "truth-null", "truth-string"],
    )
    def test_bad_config_shape_exit_2_names_field(self, tmp_path, capsys, config, message):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["synth", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_byte_order_mark(self, tmp_path):
        path = write_scenario(tmp_path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["synth", str(path), "--out", str(tmp_path / "data")]) == 0


@pytest.fixture
def synth_dir(tmp_path):
    config = write_scenario(tmp_path)
    out = tmp_path / "data"
    main(["synth", str(config), "--out", str(out)])
    return out


class TestBounds:
    def test_bounds_json(self, synth_dir, capsys):
        rc = main(["bounds", "--manifest", str(synth_dir / "manifest.json"), "--taps", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        K = 6
        assert report["lambda1_max"] > 0
        assert report["lambda2_max"] > 0
        ratio = report["lambda1_sufficient"] / report["lambda1_max"]
        assert abs(ratio - 2 * (K - 1) / K) <= 1e-9

    def test_single_condition_exit_3(self, tmp_path):
        config = write_scenario(tmp_path, assignment={"BR30": 0})
        out = tmp_path / "one"
        main(["synth", str(config), "--out", str(out)])
        rc = main(["bounds", "--manifest", str(out / "manifest.json"), "--taps", "3"])
        assert rc == 3

    def test_identical_conditions_zero_bound(self, tmp_path, capsys):
        # Same file served under two condition names, noise-free.
        config = write_scenario(tmp_path, noise_sigma=0.0, assignment={"BR30": 0})
        out = tmp_path / "dup"
        main(["synth", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        twin = dict(manifest[0], name="BR31-1")
        manifest.append(twin)
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()  # drop the synth summary line
        rc = main(["bounds", "--manifest", str(out / "manifest.json"), "--taps", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda1_max"] <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("exponent", [150, 151, 152])
    def test_overflowing_bound_exit_2_names_it(self, tmp_path, capsys, exponent):
        # Each Gram is finite, but the gradient norms behind lambda1_max are not.
        path = write_scaled_datasets(tmp_path, exponent, ("BR30-1", "BR40-1"), shifted=("BR40",))
        assert main(["bounds", "--manifest", str(path), "--taps", "2"]) == 2
        captured = capsys.readouterr()
        assert "error: lambda1_max is inf: the pooled least-squares fit overflows" in captured.err
        assert captured.out == ""

    def test_same_bounds_as_the_run_report(self, synth_dir, tmp_path, capsys):
        # Both commands bound the QR factors of the estimation problems, so
        # their floats agree bit for bit.
        manifest = str(synth_dir / "manifest.json")
        capsys.readouterr()
        assert main(["bounds", "--manifest", manifest, "--taps", "3"]) == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "run"
        assert main(["run", "--manifest", manifest, "--out", str(out), *RUN_ARGS]) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["bounds"] == printed

    def test_missing_manifest_exit_2(self, tmp_path):
        rc = main(["bounds", "--manifest", str(tmp_path / "none.json"), "--taps", "3"])
        assert rc == 2


def put_long_cell(path: Path) -> None:
    """Quote a cell longer than csv's field limit into row 2's ignored
    ``t`` column."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[0] = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


class TestFitCommand:
    def test_fit_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "fits"
        rc = main(
            ["fit", "--manifest", str(synth_dir / "manifest.json"), "--taps", "3", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "thetas.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 estimation conditions
        fits = json.loads((out / "fits.json").read_text())
        assert all(info["gram_positive_definite"] for info in fits.values())

    def test_cell_over_csv_field_limit_exit_2(self, synth_dir, tmp_path, capsys):
        put_long_cell(synth_dir / "BR40-1.csv")
        out = tmp_path / "fits"
        rc = main(["fit", "--manifest", str(synth_dir / "manifest.json"), "--taps", "3",
                   "--out", str(out)])
        assert rc == 2
        assert "BR40-1.csv: row 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_values_exit_2_without_output(self, tmp_path, capsys):
        # Finite cells near 1e160 pass the reader, but their squares
        # overflow, so no Gram product exists.
        path = write_scaled_datasets(tmp_path, 160, ("BR30-1", "BR40-1"))
        out = tmp_path / "fits"
        for argv in (["fit", "--out", str(out)], ["bounds"]):
            capsys.readouterr()
            assert main([*argv, "--manifest", str(path), "--taps", "2"]) == 2
            captured = capsys.readouterr()
            assert "error: condition 'BR30-1': its Gram products overflow" in captured.err
            assert captured.out == ""
        assert not out.exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_values_run_exit_2_naming_lambda1_max(self, tmp_path, capsys):
        cases = {
            # Each dataset's Gram products overflow.
            160: "error: condition 'BR30-1': its Gram products overflow",
            # Each Gram is finite, but the norms of the per-condition
            # gradients at the pooled fit overflow, so no weight grid exists.
            152: "error: lambda1_max is inf: the pooled least-squares fit overflows",
        }
        for exponent, message in cases.items():
            path = write_scaled_datasets(tmp_path, exponent, RUN_SCALED, shifted=("BR40",))
            out = tmp_path / "run"
            argv = ["run", "--manifest", str(path), "--out", str(out), "--taps", "2", "--k", "1"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert "bounds:" not in captured.out
            assert not out.exists()

    def test_identical_conditions_near_overflow_run_with_zero_lambda1_max(self, tmp_path):
        # Both conditions hold the same data, so the exact bound is 0.  Their
        # QR factors are equal, so the gradients at the pooled fit come out
        # exactly 0, where on the built rows their norms overflowed.
        path = write_scaled_datasets(tmp_path, 152, RUN_SCALED)
        out = tmp_path / "run"
        argv = ["run", "--manifest", str(path), "--out", str(out), "--taps", "2", "--k", "1"]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["bounds"]["lambda1_max"] == 0.0


RUN_SCALED = ("BR30-1", "BR30-2", "BR40-1", "BR40-2")


def write_scaled_datasets(tmp_path, exponent, names, shifted=()):
    """Datasets of 30 rows (input ``s1``, output ``y``) with every value
    near 10**exponent, and their manifest; a name ending in ``-1`` is an
    estimation dataset, any other a validation one.  Conditions listed in
    ``shifted`` get their outputs shifted by one row, so their data differ
    from the others'.  Returns the manifest path."""
    manifest = []
    for name in names:
        shift = int(name.split("-")[0] in shifted)
        rows = ["t,s1,y"] + [
            f"{i},{(-1) ** i * (1 + i % 3)}e{exponent},{(i + shift) % 5}e{exponent}"
            for i in range(30)
        ]
        (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        role = "estimation" if name.endswith("-1") else "validation"
        manifest.append({"name": name, "file": f"{name}.csv", "role": role,
                         "channels": ["s1"], "output": "y"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


RUN_ARGS = ["--taps", "3", "--k", "2", "--seed", "11",
            "--lambda1-factors", "0.0001,0.01,0.1", "--lambda2-values", "0,0.01"]


def key_schema(value):
    """Key sequence of every JSON object in ``value``, nested: an object
    becomes its (key, schema) pairs in order, a list the one schema its
    elements share, and a scalar None."""
    if isinstance(value, dict):
        return [(key, key_schema(v)) for key, v in value.items()]
    if isinstance(value, list):
        schemas = [key_schema(v) for v in value]
        assert all(s == schemas[0] for s in schemas), "list elements differ in schema"
        return schemas[0] if schemas else None
    return None


_CONDITIONS = sorted(SCENARIO["assignment"])
REPORT_SCHEMA = [
    ("schema", None),
    ("seed", None),
    ("structure", [("taps", None), ("channels", None), ("n_theta", None)]),
    ("k_clusters", None),
    ("fusion_variant", None),
    ("literal_criterion", None),
    ("conditions", None),
    ("notes", None),
    ("bounds", [
        ("lambda1_max", None),
        ("lambda2_max", None),
        ("lambda1_sufficient", None),
        ("theta_star", None),
        ("per_condition_gradients", None),
    ]),
    ("grid", [("lambda1_factors", None), ("lambda2_values", None), ("lambda1_bound", None)]),
    ("selected_hyperparameters", [
        ("lambda1", None), ("lambda2", None), ("fusion_variant", None),
    ]),
    ("score_table", [
        ("lambda1", None),
        ("lambda2", None),
        ("score", None),
        ("converged", None),
        ("iterations", None),
    ]),
    ("solve", [
        ("objective", [
            ("fit_term", None),
            ("fusion_term", None),
            ("sparsity_term", None),
            ("lambda1", None),
            ("lambda2", None),
            ("total", None),
        ]),
        ("iterations", None),
        ("converged", None),
        ("primal_residual", None),
        ("dual_residual", None),
        ("merged_pairs", None),
    ]),
    ("thetas", [(f"{c}-1", None) for c in _CONDITIONS]),
    ("clusters", [
        ("k", None),
        ("inertia", None),
        ("labels", [(c, None) for c in _CONDITIONS]),
        ("centroids", None),
    ]),
    ("refits", [
        ("category", None),
        ("members", None),
        ("model_source", None),
        ("theta", None),
        ("residual_norm_sq", None),
    ]),
    ("fit_reports", [("model_source", None), ("eval_dataset", None), ("fit_percent", None)]),
]


class TestRun:
    def test_run_outputs_and_idempotence(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out), *RUN_ARGS]
        assert main(argv) == 0
        for name in ("report.json", "thetas.csv", "category_thetas.csv", "fit_matrix.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert len(report["refits"]) == 2
        labels = report["clusters"]["labels"]
        assert labels["BR30"] == labels["BR40"] != labels["WBA30"]

        first = checksums(out)
        assert main(argv) == 0
        assert checksums(out) == first

    @pytest.mark.parametrize(
        "options",
        [[], ["--fusion-variant", "l2-squared", "--literal-criterion", "--auto-k"]],
    )
    def test_report_key_order_is_pinned(self, synth_dir, tmp_path, options):
        out = tmp_path / "run"
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out)]
        assert main([*argv, *RUN_ARGS, *options]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert key_schema(report) == REPORT_SCHEMA

    def test_fit_matrix_scores_the_built_validation_rows(self, synth_dir, tmp_path):
        # Without evaluation datasets, validation is also what FIT scores,
        # and FIT needs the spread of the raw outputs, which the QR factor
        # does not keep.
        manifest = synth_dir / "manifest.json"
        out = tmp_path / "run"
        assert main(["run", "--manifest", str(manifest), "--out", str(out), *RUN_ARGS]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        structure = ModelStructure(taps=3, channels=2)
        built = pipeline.load_problems(manifest, structure, ("validation",))["validation"]
        with (out / "fit_matrix.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header[1:] == [p.condition_name for p in built]
        for refit, row in zip(report["refits"], rows, strict=True):
            assert row[0] == refit["model_source"]
            theta = np.array(refit["theta"])
            for p, cell in zip(built, row[1:], strict=True):
                assert abs(float(cell) - pipeline.fit_metric(p.Y, p.Phi @ theta)) <= 1e-9

    def test_missing_manifest_exit_2(self, tmp_path):
        rc = main(
            ["run", "--manifest", str(tmp_path / "no.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        )
        assert rc == 2

    def test_squared_variant_flagged_same_clusters(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        base = ["run", "--manifest", str(synth_dir / "manifest.json"), *RUN_ARGS]
        assert main([*base, "--out", str(out1)]) == 0
        assert main([*base, "--out", str(out2), "--fusion-variant", "l2-squared"]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["fusion_variant"] == "l2"
        assert r2["fusion_variant"] == "l2_squared"
        assert r1["clusters"]["labels"] == r2["clusters"]["labels"]

    def test_trace_written(self, synth_dir, tmp_path):
        out = tmp_path / "tr"
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out), "--trace", *RUN_ARGS]
        assert main(argv) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,objective,primal_res,dual_res"

    def test_ground_truth_sidecar_never_needed(self, synth_dir, tmp_path):
        (synth_dir / "ground_truth.json").unlink()
        out = tmp_path / "blind"
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out), *RUN_ARGS]
        assert main(argv) == 0

    def test_missing_file_under_converge_dir_exit_2(self, tmp_path):
        # A data error stays a data error whatever words its path contains.
        config = write_scenario(tmp_path)
        data = tmp_path / "converge_study"
        main(["synth", str(config), "--out", str(data)])
        (data / "BR30-2.csv").unlink()
        argv = ["run", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 2

    def test_non_utf8_dataset_exit_2_names_file(self, synth_dir, tmp_path, capsys):
        path = synth_dir / "BR30-2.csv"
        path.write_bytes(path.read_bytes() + b"\xe9")
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 2
        assert "BR30-2.csv: not UTF-8 text" in capsys.readouterr().err

    def test_cell_over_csv_field_limit_names_file(self, synth_dir, tmp_path, capsys):
        put_long_cell(synth_dir / "WBA20-2.csv")
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 2
        assert "WBA20-2.csv: row 2: field larger than field limit" in capsys.readouterr().err

    def test_final_solve_nonconvergence_exit_4(self, synth_dir, tmp_path, monkeypatch):
        real_solve = pipeline.solve
        monkeypatch.setattr(
            pipeline,
            "grid_search",
            lambda *a, **kw: pipeline.GridSearchResult(Hyperparameters(0.0, 0.0), [], None),
        )
        monkeypatch.setattr(
            pipeline,
            "solve",
            lambda *a, **kw: dataclasses.replace(real_solve(*a, **kw), converged=False),
        )
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 4

    def test_no_grid_point_converges_exit_4(self, synth_dir, tmp_path, capsys):
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                "--max-iter", "1", *RUN_ARGS]
        assert main(argv) == 4
        assert "no grid point converged" in capsys.readouterr().err

    def test_negative_seed_exit_2_before_any_solve(self, synth_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append(a))
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                *RUN_ARGS, "--seed", "-1"]
        assert main(argv) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("factors,values,name", [
        ("1e-2,1e-2", "0,0", "lambda1_factors"),
        ("1e-2,1e-1", "0,1e-2,1e-2", "lambda2_values"),
        ("1e-1,1e-2", "0", "lambda1_factors"),
    ])
    def test_repeated_grid_value_exit_2_before_any_solve(
        self, synth_dir, tmp_path, monkeypatch, capsys, factors, values, name
    ):
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append(a))
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                *RUN_ARGS, "--lambda1-factors", factors, "--lambda2-values", values]
        assert main(argv) == 2
        assert f"{name} must be strictly ascending" in capsys.readouterr().err
        assert calls == []

    def test_output_listed_as_channel_exit_2_before_any_solve(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append(a))
        manifest = json.loads((synth_dir / "manifest.json").read_text(encoding="utf-8"))
        manifest[1]["channels"] = [*manifest[1]["channels"], manifest[1]["output"]]
        (synth_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                *RUN_ARGS]
        assert main(argv) == 2
        assert f"manifest entry 1 ({manifest[1]['name']!r}): channels" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_k_out_of_range_exit_2_before_any_solve(
        self, synth_dir, tmp_path, monkeypatch, capsys, k
    ):
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append(a))
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                *RUN_ARGS, "--k", k]
        assert main(argv) == 2
        assert f"k={k} out of range 1..6" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("option,field", [("--rho", "rho"), ("--eps-abs", "eps_abs"),
                                              ("--eps-rel", "eps_rel")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_solver_option_exit_2_before_any_solve(
        self, synth_dir, tmp_path, monkeypatch, capsys, option, field, value
    ):
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append(a))
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"),
                *RUN_ARGS, f"{option}={value}"]
        assert main(argv) == 2
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert calls == []

    def test_threads_option_is_gone(self, tmp_path):
        # The grid search is serial: there is no worker count to set.
        argv = ["run", "--manifest", "m.json", "--out", str(tmp_path / "o"), *RUN_ARGS,
                "--threads", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_duplicate_evaluation_name_exit_2(self, synth_dir, tmp_path):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        for source in ("BR30-2", "BR40-2"):
            entry = next(e for e in manifest if e["name"] == source)
            manifest.append(dict(entry, name="BR30-3", role="evaluation"))
        (synth_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 2


class TestMalformedManifest:
    @pytest.mark.parametrize("command", ["run", "bounds"])
    @pytest.mark.parametrize(
        "breakage, message",
        [
            (lambda m: ["x"], "manifest entry 0 must be a JSON object"),
            (lambda m: [dict(m[0], channels=5), *m[1:]], "manifest entry 0: channels"),
            (lambda m: [dict(m[0], channels="ab"), *m[1:]], "manifest entry 0: channels"),
            (lambda m: [*m[:3], dict(m[3], file=7), *m[4:]], "manifest entry 3: file"),
        ],
        ids=["entry-not-object", "channels-number", "channels-string", "file-number"],
    )
    def test_exit_2_naming_the_entry(self, synth_dir, tmp_path, capsys, command, breakage, message):
        path = synth_dir / "manifest.json"
        path.write_text(json.dumps(breakage(json.loads(path.read_text()))), encoding="utf-8")
        argv = [command, "--manifest", str(path), "--taps", "3"]
        if command == "run":
            argv += ["--out", str(tmp_path / "o"), *RUN_ARGS]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [("run", "BR40-1"), ("bounds", "BR40-1"), ("fit", "BR40-1"), ("eval", "BR40-2")],
    )
    def test_channel_count_differs_exit_2_naming_the_dataset(
        self, synth_dir, tmp_path, capsys, command, name
    ):
        # Both BR40 entries list one channel fewer than the first; each
        # command reads only its own roles' datasets.
        path = synth_dir / "manifest.json"
        path.write_text(json.dumps([
            dict(e, channels=e["channels"][:1]) if e["name"].startswith("BR40") else e
            for e in json.loads(path.read_text())
        ]), encoding="utf-8")
        out = tmp_path / "o"
        argv = {
            "run": ["run", "--out", str(out), *RUN_ARGS],
            "bounds": ["bounds", "--taps", "3", "--out", str(out)],
            "fit": ["fit", "--taps", "3", "--out", str(out)],
            "eval": ["eval", "--taps", "3", "--thetas", str(tmp_path / "t.csv"), "--out", str(out)],
        }[command]
        assert main([*argv, "--manifest", str(path)]) == 2
        role = "validation" if command == "eval" else "estimation"
        assert (f"error: {role} dataset '{name}' has 1 channels, structure requires 2"
                in capsys.readouterr().err)
        assert not out.exists()


class TestInputFiles:
    """Manifests, scenario configs, datasets and theta files are all read by
    ``data.read_text``: each failure is an exit 2 naming the file."""

    @staticmethod
    def argv(command, path, tmp_path):
        return {
            "run": ["run", "--manifest", str(path), "--out", str(tmp_path / "o"), *RUN_ARGS],
            "eval": ["eval", "--manifest", str(path), "--taps", "3",
                     "--thetas", str(tmp_path / "thetas.csv")],
            "synth": ["synth", str(path), "--out", str(tmp_path / "o")],
        }[command]

    @pytest.mark.parametrize("command", ["run", "eval", "synth"])
    def test_directory_exit_2_names_path(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.mkdir()
        assert main(self.argv(command, path, tmp_path)) == 2
        assert f"error: {path}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_non_utf8_manifest_exit_2_names_file(self, synth_dir, tmp_path, capsys, command):
        path = synth_dir / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b"BR30-1", b"BR\xe90-1"))
        assert main(self.argv(command, path, tmp_path)) == 2
        assert f"error: {path}: not UTF-8 text: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_invalid_json_exit_2_names_file(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.write_text('{"taps": 3,', encoding="utf-8")
        assert main(self.argv(command, path, tmp_path)) == 2
        assert f"error: {path}: not valid JSON: " in capsys.readouterr().err

    def test_manifest_with_byte_order_mark(self, synth_dir, capsys):
        path = synth_dir / "manifest.json"
        plain = main(["bounds", "--manifest", str(path), "--taps", "3"]), capsys.readouterr().out
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = main(["bounds", "--manifest", str(path), "--taps", "3"]), capsys.readouterr().out
        assert marked == plain
        assert plain[0] == 0


class TestEval:
    def test_eval_from_stored_thetas(self, synth_dir, tmp_path, capsys):
        run_out = tmp_path / "run"
        main(["run", "--manifest", str(synth_dir / "manifest.json"), "--out", str(run_out), *RUN_ARGS])
        matrix = tmp_path / "matrix.csv"
        rc = main(
            [
                "eval",
                "--manifest", str(synth_dir / "manifest.json"),
                "--taps", "3",
                "--thetas", str(run_out / "category_thetas.csv"),
                "--out", str(matrix),
            ]
        )
        assert rc == 0
        lines = matrix.read_text().strip().splitlines()
        assert lines[0].startswith("model_source,")
        assert len(lines) == 3  # two category models

    def test_repeated_model_name_exit_2(self, synth_dir, tmp_path):
        thetas = tmp_path / "thetas.csv"
        header = "name," + ",".join(f"theta_{i}" for i in range(6))
        thetas.write_text(f"{header}\nA,1,0,0,0,0,0\nA,2,0,0,0,0,0\n", encoding="utf-8")
        argv = ["eval", "--manifest", str(synth_dir / "manifest.json"), "--taps", "3", "--thetas", str(thetas)]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            (None, "No such file or directory"),
            (b"A,1\xe9,0,0,0,0,0\n", "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"),
            (b'A,"{long}",0,0,0,0,0\n', "row 2: field larger than field limit"),
        ],
        ids=["missing", "not-utf8", "over-field-limit"],
    )
    def test_bad_theta_file_exit_2_names_file(self, synth_dir, tmp_path, capsys, row, message):
        thetas = tmp_path / "thetas.csv"
        if row is not None:
            header = "name," + ",".join(f"theta_{i}" for i in range(6)) + "\n"
            long = b"1" * (csv.field_size_limit() + 1)
            thetas.write_bytes(header.encode() + row.replace(b"{long}", long))
        argv = ["eval", "--manifest", str(synth_dir / "manifest.json"), "--taps", "3", "--thetas", str(thetas)]
        assert main(argv) == 2
        assert f"error: {thetas}: {message}" in capsys.readouterr().err

    def test_name_with_comma_and_quote_round_trips(self, synth_dir, tmp_path, capsys):
        # One condition's estimation and validation datasets share a name
        # that CSV must quote.
        odd = 'BR30,"x'
        path = synth_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest:
            if entry["name"] in ("BR30-1", "BR30-2"):
                entry["name"] = odd
        path.write_text(json.dumps(manifest), encoding="utf-8")
        run_out = tmp_path / "run"
        assert main(["run", "--manifest", str(path), "--out", str(run_out), *RUN_ARGS]) == 0
        report = json.loads((run_out / "report.json").read_text())
        assert odd in report["thetas"]

        models = pipeline.read_theta_csv(run_out / "thetas.csv", ModelStructure(3, 2))
        assert list(models) == list(report["thetas"])
        for name, values in report["thetas"].items():
            assert models[name].values.tobytes() == np.asarray(values).tobytes()

        capsys.readouterr()
        argv = ["eval", "--manifest", str(path), "--taps", "3",
                "--thetas", str(run_out / "thetas.csv")]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert {row[0] for row in rows} == set(report["thetas"])
        assert all(len(row) == 3 for row in rows)
