from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusedfir import (
    ConditionDataset,
    IngestionError,
    ManifestEntry,
    ModelStructure,
    ParameterVector,
    SyntheticScenario,
    build_regressor,
    generate_synthetic,
    load_dataset,
    load_manifest,
)
from fusedfir.cli import main
from fusedfir.data import condition_of, parse_dataset_name, write_dataset_csv

from reference import parse_csv_rows
from test_cli import RUN_ARGS, write_scenario


def entry(name="BR30-1", file="d.csv", channels=("s1",), output="y", role="estimation"):
    return ManifestEntry(name=name, file=file, role=role, channels=tuple(channels), output=output)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadDataset:
    def test_single_channel(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n2,1.5,20\n3,2.5,30\n4,3.5,40\n")
        ds = load_dataset(p, entry())
        assert ds.sample_count == 4
        assert ds.n_channels == 1
        assert ds.output.tolist() == [10, 20, 30, 40]

    def test_two_channels_100_rows(self, tmp_path):
        rows = "\n".join(f"{t},{t*0.1},{t*0.2},{t*1.0}" for t in range(1, 101))
        p = write(tmp_path, "t,s1,s2,y\n" + rows + "\n")
        ds = load_dataset(p, entry(channels=("s1", "s2")))
        assert ds.sample_count == 100
        assert ds.n_channels == 2

    def test_column_mapping_by_header(self, tmp_path):
        p = write(tmp_path, "t,s2,s1,y\n1,9,1,5\n2,8,2,6\n")
        ds = load_dataset(p, entry(channels=("s1", "s2")))
        assert ds.inputs[:, 0].tolist() == [1, 2]
        assert ds.inputs[:, 1].tolist() == [9, 8]

    def test_nan_cell(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n2,nan,20\n")
        with pytest.raises(IngestionError, match=r"row 3.*s1"):
            load_dataset(p, entry())

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_cell(self, tmp_path, cell):
        p = write(tmp_path, f"t,s1,y\n1,0.5,10\n2,{cell},20\n")
        with pytest.raises(IngestionError, match=rf"row 3, column 's1': non-finite value '{cell}'"):
            load_dataset(p, entry())

    @given(
        values=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_crlf_copy_loads_identical_arrays(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("crlf")
        text = "t,s1,y\n" + "".join(
            f"{t},{x!r},{y!r}\n" for t, (x, y) in enumerate(values, start=1)
        )
        lf = load_dataset(write(tmp, text, "lf.csv"), entry())
        crlf_path = tmp / "crlf.csv"
        crlf_path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        crlf = load_dataset(crlf_path, entry())
        assert crlf.inputs.tobytes() == lf.inputs.tobytes()
        assert crlf.output.tobytes() == lf.output.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_line_endings_give_identical_regressors(self, tmp_path_factory, seed):
        # csv.writer ends rows with CRLF.  LF, CRLF and bare-CR copies of the
        # written file must all give the Phi and Y of the dataset itself.
        tmp = tmp_path_factory.mktemp("endings")
        ds = generate_synthetic(two_group_scenario(seed=seed, samples=12))[0]
        structure = ModelStructure(taps=3, channels=ds.n_channels)
        want = build_regressor(ds, structure)
        path = tmp / "d.csv"
        write_dataset_csv(ds, path)
        e = entry(channels=ds.channel_names)
        text = path.read_bytes().replace(b"\r\n", b"\n")
        for ending in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(text.replace(b"\n", ending))
            got = build_regressor(load_dataset(path, e), structure)
            assert got.Phi.tobytes() == want.Phi.tobytes()
            assert got.Y.tobytes() == want.Y.tobytes()

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n2,abc,20\n")
        with pytest.raises(IngestionError, match=r"row 3, column 's1': non-numeric cell 'abc'"):
            load_dataset(p, entry())

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n2,0.5\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_dataset(p, entry())

    def test_duplicate_header(self, tmp_path):
        p = write(tmp_path, "t,s1,s1,y\n1,2,3,4\n")
        with pytest.raises(IngestionError, match="duplicate"):
            load_dataset(p, entry())

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "t,s2,y\n1,2,3\n")
        with pytest.raises(IngestionError, match="missing column 's1'"):
            load_dataset(p, entry())

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(IngestionError, match="empty"):
            load_dataset(p, entry())

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n")
        with pytest.raises(IngestionError, match="no data rows"):
            load_dataset(p, entry())

    def test_trailing_blank_rows_accepted(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n2,1.5,20\n\n\n")
        ds = load_dataset(p, entry())
        assert ds.output.tolist() == [10, 20]

    def test_blank_row_before_data(self, tmp_path):
        p = write(tmp_path, "t,s1,y\n1,0.5,10\n\n2,1.5,20\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_dataset(p, entry())

    def test_byte_order_mark_on_channel_column(self, tmp_path):
        p = write(tmp_path, "\ufeffs1,t,y\n0.5,1,10\n1.5,2,20\n")
        ds = load_dataset(p, entry())
        assert ds.inputs[:, 0].tolist() == [0.5, 1.5]

    def test_roundtrip_write_read(self, tmp_path):
        ds = ConditionDataset(
            "BR30-1",
            np.array([[0.25, -1.5], [2.0, 3.125]]),
            np.array([1.0, -2.0]),
            channel_names=("s1", "s2"),
        )
        path = tmp_path / "rt.csv"
        write_dataset_csv(ds, path)
        back = load_dataset(path, entry(channels=("s1", "s2")))
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.output, ds.output)


# Cells a reader may get wrong: padded numbers, numbers in unusual forms,
# quoted cells and bad cells.
ODD_CELLS = [
    "+1", ".5", "5.", "-0", " 1.5 ", "\t2", "3\x0c", "\xa04", "1e-400", "0x10",
    "1_000", '"1.5"', '" 2 "', '""', "", " ", "#1", "# 1", "1 2", "abc",
    "nan", "-nan", "inf", "-Infinity", "1e999", "\u0661",
]


# A quoted cell one character over csv's field limit.
LONG_CELL = '"' + "1" * (csv.field_size_limit() + 1) + '"'


@st.composite
def dataset_texts(draw):
    """The text of a dataset CSV: well-formed, or with a few defects."""
    channels = draw(st.sampled_from([["s1"], ["s1", "s2"], ["s2", "s1"]]))
    header = ["t", *channels, "y", *draw(st.sampled_from([[], ["x"], ["x", "w"]]))]
    header = draw(st.sampled_from([header] * 4 + [[f" {h} " for h in header], header + ["y"]]))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
        st.integers(-10**6, 10**6).map(str),
    )
    rows = [
        [str(t + 1)] + [draw(number) for _ in header[1:]]
        for t in range(draw(st.integers(1, 6)))
    ]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row) - 1))
        row[col] = draw(st.sampled_from(ODD_CELLS + ["t1"]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(number))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1]))):
        blank = draw(st.sampled_from(["", "", " ", "\t", ",,"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    lines += [""] * draw(st.integers(0, 2))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    if not draw(st.booleans()):
        endings = st.just(draw(endings))
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def load_outcome(path, e):
    """The arrays load_dataset gives, or its IngestionError message."""
    try:
        ds = load_dataset(path, e)
    except IngestionError as exc:
        return str(exc)
    return ds.inputs.shape, ds.inputs.tobytes(), ds.output.tobytes()


class TestCReader:
    """``load_dataset`` against the row-by-row oracle, and the premise that
    lets numpy's C conversion stand in for ``float``."""

    @settings(max_examples=300)
    @given(text=dataset_texts())
    @example(text="t,s1,y\n\n1,0.5,10\n")
    @example(text="t,s1,y\r\n1,0.5,10\r\n\r\n2,1.5,20\r\n\r\n")
    @example(text="t,s1,y\n1,0.5,10\n \n")
    @example(text="t,s1,y\n1,0.5,10\n2,1.5\n")
    @example(text="t,s1,y,x\nnan,0.5,10,inf\n")
    @example(text="t,s1,y\n1, 1_000 ,10\n")
    # The rows before a csv error are checked before it is raised.
    @example(text=f"t,s1,y,note\n1,abc,10,a\n2,1.5,20,{LONG_CELL}\n")
    @example(text=f"t,s1,y,note\n1,0.5,10,a\n2,1.5\n3,1.5,20,{LONG_CELL}\n")
    @example(text=f"t,s1,y,note\n1,0.5,10,a\n\n2,1.5,20,b\n3,1.5,20,{LONG_CELL}\n")
    @example(text=f"t,s1,y,note\n1,0.5,10,a\n\n\n3,1.5,20,{LONG_CELL}\n")
    @example(text=f"t,s1,y,note\n1,0.5,10,a\n3,1.5,20,{LONG_CELL}\n4,x,1,1\n")
    def test_same_arrays_or_error_as_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        e = entry(channels=("s1", "s2") if "s2" in text else ("s1",))
        try:
            data = parse_csv_rows(path, [*e.channels, e.output])
        except IngestionError as exc:
            want = str(exc)
        else:
            inputs = data[:, : len(e.channels)]
            want = inputs.shape, inputs.tobytes(), data[:, -1].tobytes()
        assert load_outcome(path, e) == want

    @settings(max_examples=300)
    @given(
        cells=st.lists(
            st.one_of(
                st.floats().map(repr),
                st.floats().map(lambda v: f"{v:.17g}"),
                st.sampled_from(ODD_CELLS),
            ),
            max_size=8,
        )
    )
    @example(cells=ODD_CELLS)
    def test_numpy_converts_cells_as_float_does(self, cells):
        # The premise of the one conversion: np.array(cells, dtype=float)
        # accepts a list exactly when float() accepts every cell, gives
        # float()'s value bit for bit, and converts one cell alone alike.
        def outcome(convert, cell):
            try:
                return np.float64(convert(cell)).tobytes()
            except ValueError:
                return None

        want = [outcome(float, cell) for cell in cells]
        assert [outcome(lambda c: np.array(c, dtype=float), cell) for cell in cells] == want
        try:
            got = [v.tobytes() for v in np.array(cells, dtype=float)]
        except ValueError:
            got = None
        assert got == (None if None in want else want)

    @pytest.mark.parametrize("body", ["t,s1,y\n1,0.5,10\n", 't,s1,y\n1,"0.5",10\n'])
    def test_non_utf8_names_file(self, tmp_path, body):
        p = tmp_path / "latin.csv"
        p.write_bytes(body.replace("y", "y\xe9").encode("latin-1"))
        with pytest.raises(IngestionError, match=r"latin\.csv: not UTF-8 text: .*0xe9"):
            load_dataset(p, entry(output="y\xe9"))


class TestCsvFieldLimit:
    @pytest.mark.parametrize(
        "head,rows,row",
        [
            ("t,s1,y,note", ["1,0.5,10,a", "2,1.5,20,{long}", "3,2.5,30,b"], 3),
            ("t,s1,y,note", ["1,0.5,10,{long}"], 2),
            # Rows are counted as records, not lines.
            ("t,s1,y,note", ['1,0.5,10,"a\nb"', "2,1.5,20,{long}"], 3),
            ("t,s1,y,{long}", ["1,0.5,10,a"], 1),
        ],
    )
    def test_long_quoted_cell_names_file_and_row(self, tmp_path, head, rows, row):
        long = '"' + "1" * (csv.field_size_limit() + 1) + '"'
        text = "\n".join([head, *rows]).replace("{long}", long) + "\n"
        p = write(tmp_path, text)
        with pytest.raises(
            IngestionError, match=rf"d\.csv: row {row}: field larger than field limit"
        ):
            load_dataset(p, entry())


class TestManifest:
    def test_load(self, tmp_path):
        p = write(
            tmp_path,
            '[{"name": "BR30-1", "file": "a.csv", "role": "estimation",'
            ' "channels": ["s1"], "output": "y"}]',
            name="manifest.json",
        )
        entries = load_manifest(p)
        assert entries[0].name == "BR30-1"
        assert entries[0].role == "estimation"

    def test_bad_role(self, tmp_path):
        p = write(
            tmp_path,
            '[{"name": "a", "file": "a.csv", "role": "train", "channels": [], "output": "y"}]',
            name="manifest.json",
        )
        with pytest.raises(IngestionError, match="role"):
            load_manifest(p)

    def test_missing_field(self, tmp_path):
        p = write(tmp_path, '[{"name": "a"}]', name="manifest.json")
        with pytest.raises(IngestionError, match="missing field"):
            load_manifest(p)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(IngestionError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: No such file or directory"

    @pytest.mark.parametrize("char", ["\r", "\n", "\t", "\x00", "\x7f"])
    def test_non_printable_name(self, tmp_path, char):
        # Names go into CSV outputs, where a bare CR would split a row.
        manifest = [{"name": f"BR30{char}1", "file": "a.csv", "role": "estimation",
                     "channels": ["s1"], "output": "y"}]
        p = write(tmp_path, json.dumps(manifest), name="manifest.json")
        with pytest.raises(IngestionError, match="manifest entry 0: name .* non-printable"):
            load_manifest(p)


    @pytest.mark.parametrize("channels", [["s1", "s1"], ["s1", "s2", "y"], ["y"]])
    def test_channels_distinct_and_not_the_output(self, tmp_path, channels):
        # Listing the output as a channel would fit y(t) from y(t).
        manifest = [{"name": "BR30-1", "file": "a.csv", "role": "estimation",
                     "channels": channels, "output": "y"}]
        p = write(tmp_path, json.dumps(manifest), name="manifest.json")
        with pytest.raises(
            IngestionError, match=r"manifest entry 0 \('BR30-1'\): channels .* must be distinct"
        ):
            load_manifest(p)


class TestNames:
    def test_convention(self):
        assert parse_dataset_name("BR30-1") == ("BR30", 1)
        assert parse_dataset_name("WBA40-2") == ("WBA40", 2)
        assert parse_dataset_name("weird name") is None

    def test_nonconforming_name_is_its_own_condition(self):
        ds = ConditionDataset("not-a-name!", np.ones((2, 1)), np.ones(2))
        assert condition_of(ds.name) == "not-a-name!"
        assert condition_of("BR30-1") == "BR30"


class TestBuildRegressor:
    def test_hand_example(self):
        ds = ConditionDataset(
            "BR30-1", np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([10.0, 20.0, 30.0, 40.0])
        )
        p = build_regressor(ds, ModelStructure(taps=2, channels=1))
        assert p.Phi.tolist() == [[2, 1], [3, 2], [4, 3]]
        assert p.Y.tolist() == [20, 30, 40]

    def test_single_tap_identity(self):
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((7, 3))
        output = rng.standard_normal(7)
        ds = ConditionDataset("BR30-1", inputs, output)
        p = build_regressor(ds, ModelStructure(taps=1, channels=3))
        np.testing.assert_array_equal(p.Phi, inputs)
        np.testing.assert_array_equal(p.Y, output)

    def test_four_channel_fifty_tap_shape(self):
        # 4 channels at 50 taps give 200 columns; 1049 samples give 1000 rows.
        rng = np.random.default_rng(1)
        ds = ConditionDataset("BR30-1", rng.standard_normal((1049, 4)), rng.standard_normal(1049))
        p = build_regressor(ds, ModelStructure(taps=50, channels=4))
        assert p.Phi.shape == (1000, 200)
        assert p.Y.size == 1000

    def test_too_short(self):
        ds = ConditionDataset("BR30-1", np.ones((3, 1)), np.ones(3))
        with pytest.raises(ValueError, match="shorter than tap count"):
            build_regressor(ds, ModelStructure(taps=4, channels=1))

    def test_channel_mismatch(self):
        ds = ConditionDataset("BR30-1", np.ones((5, 2)), np.ones(5))
        with pytest.raises(ValueError, match="channels"):
            build_regressor(ds, ModelStructure(taps=2, channels=3))

    def test_sliding_window_overlap(self):
        rng = np.random.default_rng(2)
        ds = ConditionDataset("BR30-1", rng.standard_normal((30, 2)), rng.standard_normal(30))
        n = 5
        p = build_regressor(ds, ModelStructure(taps=n, channels=2))
        for j in range(2):
            block = p.Phi[:, j * n : (j + 1) * n]
            # Row t+1 shifted by one lag reproduces n-1 entries of row t.
            np.testing.assert_array_equal(block[1:, 1:], block[:-1, :-1])


class TestBlocks:
    def test_block_layout(self):
        s = ModelStructure(taps=2, channels=2)
        theta = ParameterVector(np.array([1.0, 2.0, 3.0, 4.0]), s)
        assert theta.block(2).tolist() == [3, 4]
        assert theta.block(1).tolist() == [1, 2]

    def test_single_channel_whole_vector(self):
        s = ModelStructure(taps=4, channels=1)
        theta = ParameterVector(np.arange(4.0), s)
        np.testing.assert_array_equal(theta.block(1), theta.values)

    def test_first_block_is_leading_50(self):
        s = ModelStructure(taps=50, channels=4)
        theta = ParameterVector(np.arange(200.0), s)
        np.testing.assert_array_equal(theta.block(1), np.arange(50.0))

    def test_out_of_range(self):
        s = ModelStructure(taps=2, channels=2)
        theta = ParameterVector(np.zeros(4), s)
        for j in (0, 3):
            with pytest.raises(IndexError):
                theta.block(j)

    def test_blocks_concatenate(self):
        s = ModelStructure(taps=3, channels=3)
        theta = ParameterVector(np.arange(9.0), s)
        rebuilt = np.concatenate([theta.block(j) for j in range(1, 4)])
        np.testing.assert_array_equal(rebuilt, theta.values)


def two_group_scenario(noise=0.1, seed=42, samples=40, taps=3):
    s = ModelStructure(taps=taps, channels=2)
    g0 = ParameterVector(np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0][: s.n_theta]), s)
    g1 = ParameterVector(np.array([-0.5, 1.0, -0.75, 0.0, 0.0, 0.0][: s.n_theta]), s)
    return SyntheticScenario(
        group_truths=(g0, g1),
        assignment={"BR30": 0, "BR40": 0, "WBA40": 1},
        noise_sigma=noise,
        irrelevant_channels=frozenset({2}),
        samples_per_condition=samples,
        seed=seed,
    )


class TestSynthetic:
    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # Only the synthetic generator filters, so the other commands skip
        # the cost of importing scipy.signal.
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, fusedfir.cli; print('scipy.signal' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_run_leaves_scipy_unloaded(self, tmp_path):
        # The run path needs numpy only: importing scipy would add about
        # 0.3 s and 28 MB to every run.  The grid search is serial, so the
        # run starts no thread and never imports a thread pool either.
        data = tmp_path / "data"
        assert main(["synth", str(write_scenario(tmp_path)), "--out", str(data)]) == 0
        code = (
            "import json, sys, threading\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import fusedfir, fusedfir.cli\n"
            "after_import = scipy_modules()\n"
            "rc = fusedfir.cli.main(sys.argv[1:])\n"
            "print(json.dumps({'rc': rc, 'after_import': after_import,\n"
            "                  'after_run': scipy_modules(),\n"
            "                  'pool': 'concurrent.futures' in sys.modules,\n"
            "                  'threads': threading.active_count()}))\n"
        )
        argv = ["run", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "run"),
                *RUN_ARGS]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {
            "rc": 0, "after_import": [], "after_run": [], "pool": False, "threads": 1
        }

    def test_dataset_count_and_names(self):
        datasets = generate_synthetic(two_group_scenario())
        names = [d.name for d in datasets]
        assert names == ["BR30-1", "BR30-2", "BR40-1", "BR40-2", "WBA40-1", "WBA40-2"]

    def test_determinism(self):
        a = generate_synthetic(two_group_scenario())
        b = generate_synthetic(two_group_scenario())
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.inputs, db.inputs)
            np.testing.assert_array_equal(da.output, db.output)

    def test_noiseless_residual_exact(self):
        scn = two_group_scenario(noise=0.0)
        structure = scn.structure
        for ds in generate_synthetic(scn):
            cond = parse_dataset_name(ds.name)[0]
            truth = scn.group_truths[scn.assignment[cond]]
            p = build_regressor(ds, structure)
            resid = p.Y - p.Phi @ truth.values
            assert np.abs(resid).max() <= 1e-10

    def test_noiseless_refit_scores_perfect_fit(self):
        from fusedfir import fit_metric, ls_fit

        scn = two_group_scenario(noise=0.0)
        ds = generate_synthetic(scn)[0]
        p = build_regressor(ds, scn.structure)
        theta = ls_fit(p).theta
        assert fit_metric(p.Y, p.Phi @ theta.values) == pytest.approx(100.0, abs=1e-9)

    def test_noisy_residual_equals_injected_noise_scale(self):
        scn = two_group_scenario(noise=0.05, samples=200)
        ds = generate_synthetic(scn)[0]
        truth = scn.group_truths[0]
        p = build_regressor(ds, scn.structure)
        resid = p.Y - p.Phi @ truth.values
        assert 0.01 < resid.std() < 0.1

    def test_irrelevant_channel_never_matters(self):
        scn = two_group_scenario(noise=0.0)
        ds = generate_synthetic(scn)[0]
        truth = scn.group_truths[0]
        junk = ds.inputs.copy()
        junk[:, 1] = 1e6 * np.arange(ds.sample_count)  # channel 2 is irrelevant
        altered = ConditionDataset(ds.name, junk, ds.output)
        p = build_regressor(altered, scn.structure)
        np.testing.assert_allclose(p.Phi @ truth.values, p.Y, atol=1e-9)

    def test_ar_coloring_keeps_unit_variance(self):
        scn = SyntheticScenario(
            group_truths=two_group_scenario().group_truths,
            assignment={"BR30": 0},
            noise_sigma=0.0,
            irrelevant_channels=frozenset({2}),
            samples_per_condition=20000,
            seed=3,
            ar_coefficient=0.8,
        )
        ds = generate_synthetic(scn)[0]
        assert abs(ds.inputs[:, 0].std() - 1.0) < 0.05
        lag1 = np.corrcoef(ds.inputs[1:, 0], ds.inputs[:-1, 0])[0, 1]
        assert abs(lag1 - 0.8) < 0.05

    def test_scenario_validation(self):
        s = ModelStructure(taps=2, channels=2)
        bad_truth = ParameterVector(np.array([1.0, 0.0, 0.5, 0.0]), s)
        with pytest.raises(ValueError, match="irrelevant channel"):
            SyntheticScenario(
                group_truths=(bad_truth,),
                assignment={"A1": 0},
                noise_sigma=0.0,
                irrelevant_channels=frozenset({2}),
                samples_per_condition=10,
                seed=0,
            )
        good = ParameterVector(np.array([1.0, 0.5, 0.0, 0.0]), s)
        with pytest.raises(ValueError, match="invalid group"):
            SyntheticScenario(
                group_truths=(good,),
                assignment={"A1": 5},
                noise_sigma=0.0,
                irrelevant_channels=frozenset({2}),
                samples_per_condition=10,
                seed=0,
            )


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            ConditionDataset("BR30-1", np.ones((3, 1)), np.ones(4))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ConditionDataset("BR30-1", np.array([[np.inf]]), np.ones(1))
