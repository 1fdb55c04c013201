"""Datasets, model structure, regressor matrices and synthetic scenarios.

One working condition contributes one multi-channel input series and one
output series.  A fixed tap count per channel turns each dataset into a
linear regression problem with channel-major parameter blocks.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAME_RE = re.compile(r"^(?P<cond>[A-Za-z]+\d+)-(?P<idx>\d+)$")

VALID_ROLES = ("estimation", "validation", "evaluation")


class IngestionError(ValueError):
    """Raised when a dataset file or manifest cannot be parsed."""


def parse_dataset_name(name: str) -> tuple[str, int] | None:
    """Split a name like ``BR30-1`` into (condition, replicate index).

    Returns None when the name does not follow the convention.
    """
    m = NAME_RE.match(name)
    if m is None:
        return None
    return m.group("cond"), int(m.group("idx"))


def condition_of(name: str) -> str:
    """Condition label of a dataset name; the name itself when nonconforming."""
    parsed = parse_dataset_name(name)
    return name if parsed is None else parsed[0]


@dataclass(frozen=True)
class ModelStructure:
    """Tap count per channel and channel count; parameters are channel-major.

    Block j (1-based) of a conforming parameter vector occupies indices
    [(j-1)*taps, j*taps), holding the lag-0..lag-(taps-1) coefficients of
    channel j.
    """

    taps: int
    channels: int

    def __post_init__(self) -> None:
        if self.taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")

    @property
    def n_theta(self) -> int:
        return self.taps * self.channels

    def block_slice(self, j: int) -> slice:
        """Index slice of channel j's block, j in 1..channels."""
        if not 1 <= j <= self.channels:
            raise IndexError(f"channel index {j} out of range 1..{self.channels}")
        return slice((j - 1) * self.taps, j * self.taps)


@dataclass(frozen=True)
class ParameterVector:
    """Flat coefficient vector with its block layout."""

    values: np.ndarray
    structure: ModelStructure

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size != self.structure.n_theta:
            raise ValueError(
                f"parameter vector has length {values.size}, "
                f"structure requires {self.structure.n_theta}"
            )

    def block(self, j: int) -> np.ndarray:
        """Coefficients of channel j (1-based)."""
        return self.values[self.structure.block_slice(j)]


def shared_structure(items: Sequence, what: str) -> ModelStructure:
    """The one structure of a list of problems or parameter vectors.

    Every check that problems and models share a layout is made here.  An
    empty list raises ValueError, as does the first item whose structure
    differs, named by its condition name (a problem) or as ``<what> <index>``.
    """
    if not items:
        raise ValueError(f"need at least one {what}")
    shared = items[0].structure
    for i, item in enumerate(items):
        if item.structure != shared:
            name = repr(item.condition_name) if hasattr(item, "condition_name") else f"{what} {i}"
            raise ValueError(f"structure mismatch: {name} has {item.structure}, expected {shared}")
    return shared


def stack_values(thetas: Sequence[ParameterVector]) -> np.ndarray:
    """The K x n_theta stack of parameter vectors that share one structure."""
    shared_structure(thetas, "parameter vector")
    return np.asarray([t.values for t in thetas])


@dataclass(frozen=True)
class ConditionDataset:
    """Input/output series recorded under one working condition.

    ``inputs`` is L x J (time by channel), ``output`` has length L.  Names
    normally follow ``<COND><speed>-<idx>`` (e.g. ``BR30-1``); any other
    name is accepted and taken whole as its own condition.
    """

    name: str
    inputs: np.ndarray
    output: np.ndarray
    channel_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float)
        output = np.asarray(self.output, dtype=float)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D array (time x channels)")
        if output.ndim != 1:
            raise ValueError("output must be a 1-D array")
        if inputs.shape[0] != output.size:
            raise ValueError(
                f"inputs have {inputs.shape[0]} rows but output has "
                f"{output.size} samples"
            )
        if inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise ValueError("dataset must have at least one sample and one channel")
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(output)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "output", output)

    @property
    def sample_count(self) -> int:
        return self.output.size

    @property
    def n_channels(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class RegressionProblem:
    """Stacked lag-window system Y = Phi @ theta + noise for one condition.
    ``run`` keeps estimation and validation problems as their (n + 1)-row QR
    factors (``estimation.qr_compress``), with the same fit term at every
    theta; FIT always uses the built rows."""

    Y: np.ndarray
    Phi: np.ndarray
    structure: ModelStructure
    condition_name: str

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=float)
        Phi = np.asarray(self.Phi, dtype=float)
        if Phi.ndim != 2 or Y.ndim != 1 or Phi.shape[0] != Y.size:
            raise ValueError("Phi must be M x n_theta with Y of length M")
        if Phi.shape[1] != self.structure.n_theta:
            raise ValueError(
                f"Phi has {Phi.shape[1]} columns, structure requires "
                f"{self.structure.n_theta}"
            )
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Phi", Phi)

    @property
    def n_rows(self) -> int:
        return self.Y.size


def build_regressor(ds: ConditionDataset, structure: ModelStructure) -> RegressionProblem:
    """Build the lag-window regression problem for one dataset.

    Row for time t (1-based, t = taps..L) holds, per channel j, the window
    [x_j(t), x_j(t-1), ..., x_j(t-taps+1)]; the target row is y(t).  This
    keeps every fully populated window, giving M = L - taps + 1 rows.
    Data whose squared norms (so Gram products) overflow raise ValueError.
    """
    n = structure.taps
    if ds.n_channels != structure.channels:
        raise ValueError(
            f"dataset has {ds.n_channels} channels, structure requires "
            f"{structure.channels}"
        )
    if ds.sample_count < n:
        raise ValueError(
            f"condition {ds.name!r}: series shorter than tap count: "
            f"L={ds.sample_count} < n={n}"
        )
    # sliding_window_view yields ascending-lag windows; flip to put lag 0 first.
    blocks = [
        np.lib.stride_tricks.sliding_window_view(ds.inputs[:, j], n)[:, ::-1]
        for j in range(structure.channels)
    ]
    Phi = np.ascontiguousarray(np.hstack(blocks))
    Y = ds.output[n - 1 :].copy()
    if not all(math.isfinite(np.vdot(a, a)) for a in (Phi, Y)):
        raise ValueError(f"condition {ds.name!r}: its Gram products overflow")
    return RegressionProblem(Y=Y, Phi=Phi, structure=structure, condition_name=ds.name)


# ---------------------------------------------------------------------------
# Manifest + CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    name: str
    file: str
    role: str
    channels: tuple[str, ...]
    output: str


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file, with or without a byte order mark.

    Every input file is read here.  An unreadable or non-UTF-8 file raises
    IngestionError naming it.
    """
    try:
        # Decoded whole, so a decoding error gives its offset in the file.
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise IngestionError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path: str | Path):
    """The value of a JSON input file, read by ``read_text``; invalid JSON
    raises IngestionError naming the file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest JSON array of {name, file, role, channels, output}."""
    raw = read_json(path)
    if not isinstance(raw, list) or not raw:
        raise IngestionError(f"manifest {path} must be a non-empty JSON array")
    entries = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise IngestionError(f"manifest entry {i} must be a JSON object, got {item!r}")
        try:
            fields = {f: item[f] for f in ("name", "file", "role", "output")}
            channels = item["channels"]
        except KeyError as exc:
            raise IngestionError(f"manifest entry {i} is missing field {exc}") from exc
        for field, value in fields.items():
            if not isinstance(value, str):
                raise IngestionError(
                    f"manifest entry {i}: {field} must be a string, got {value!r}"
                )
        if not fields["name"].isprintable():
            # Names are written to CSV outputs, and csv.writer leaves a
            # bare CR unquoted, so csv.reader would split the row there.
            raise IngestionError(
                f"manifest entry {i}: name {fields['name']!r} holds a "
                "non-printable character"
            )
        if fields["role"] not in VALID_ROLES:
            raise IngestionError(
                f"manifest entry {i}: role {fields['role']!r} not in {VALID_ROLES}"
            )
        if not (isinstance(channels, list) and channels
                and all(isinstance(c, str) for c in channels)):
            raise IngestionError(
                f"manifest entry {i}: channels must be a non-empty list of strings, "
                f"got {channels!r}"
            )
        if len(set(channels)) != len(channels) or fields["output"] in channels:
            raise IngestionError(
                f"manifest entry {i} ({fields['name']!r}): channels {channels!r} must be "
                f"distinct and must not include the output {fields['output']!r}"
            )
        entries.append(ManifestEntry(**fields, channels=tuple(channels)))
    return entries


def read_csv_rows(path: str | Path) -> tuple[list[list[str]], IngestionError | None]:
    """The rows ``csv.reader`` gives for the text ``read_text`` reads; a
    blank row is ``[]``, and row n of the file is item n - 1.

    A ``csv.Error`` ends the rows early and is returned as the IngestionError,
    naming the file and row, to raise once the rows before it are checked.
    """
    text = read_text(path)
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        return rows, IngestionError(f"{path}: row {len(rows) + 1}: {exc}")
    return rows, None


def float_columns(
    path: str | Path, header: list[str], rows: list[list[str]], rownums: Sequence[int],
    take: Sequence[int],
) -> np.ndarray:
    """The cells of ``rows`` at indices ``take`` as a len(rows) x len(take)
    array, from one ``np.array(cells, dtype=float)`` (which reads a cell as
    ``float`` does).  Only if a row is ragged or a cell not a finite number
    are the rows walked, to raise IngestionError for the first bad one.
    """
    width = len(header)
    if set(map(len, rows)) <= {width}:
        try:
            data = np.array([row[i] for row in rows for i in take], dtype=float)
            if np.isfinite(data).all():
                return data.reshape(len(rows), len(take))
        except ValueError:
            pass
    for rownum, row in zip(rownums, rows):
        if len(row) != width:
            raise IngestionError(f"{path}: row {rownum} has {len(row)} cells, header has {width}")
        for i in take:
            try:
                finite = np.isfinite(np.array(row[i], dtype=float))
            except ValueError:
                finite = None
            if not finite:
                problem = "non-numeric cell" if finite is None else "non-finite value"
                raise IngestionError(
                    f"{path}: row {rownum}, column {header[i]!r}: {problem} {row[i].strip()!r}"
                )
    raise RuntimeError("np.array rejected cells that it accepts one at a time")


def load_dataset(path: str | Path, entry: ManifestEntry) -> ConditionDataset:
    """Load one dataset CSV, mapping columns by header name.

    Expected layout: ordinal column ``t`` first, named input channels,
    output column last; extra columns are ignored.  Trailing blank rows are
    accepted.  A wanted cell is a finite number as Python's ``float`` reads
    it, padded or not, and may be quoted.  Rows come from ``read_csv_rows``
    and floats from ``float_columns``; a duplicate header, a missing
    column or a blank row before data raises IngestionError too.
    """
    path = Path(path)
    rows, broken = read_csv_rows(path)
    if not rows:
        raise broken or IngestionError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise IngestionError(f"{path}: duplicate header column {h!r}")
    wanted = list(entry.channels) + [entry.output]
    for name in wanted:
        if name not in header:
            raise IngestionError(f"{path}: header is missing column {name!r}")
    body = rows[1:]
    while body and not body[-1]:
        body.pop()
    blank = body.index([]) if [] in body else len(body)
    data = float_columns(
        path, header, body[:blank], range(2, blank + 2), [header.index(n) for n in wanted]
    )
    if blank < len(body):
        raise IngestionError(f"{path}: row {blank + 2} is blank but data follows")
    if broken or not len(data):
        raise broken or IngestionError(f"{path}: no data rows")
    return ConditionDataset(
        name=entry.name,
        inputs=data[:, : len(entry.channels)],
        output=data[:, -1],
        channel_names=entry.channels,
    )


def write_dataset_csv(ds: ConditionDataset, path: str | Path) -> None:
    """Write a dataset in the manifest CSV layout (t, channels..., output)."""
    path = Path(path)
    names = ds.channel_names or tuple(f"s{j+1}" for j in range(ds.n_channels))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *names, "y"])
        for t in range(ds.sample_count):
            writer.writerow(
                [t + 1]
                + [f"{v:.17g}" for v in ds.inputs[t]]
                + [f"{ds.output[t]:.17g}"]
            )


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticScenario:
    """Recipe for a benchmark with known group structure.

    Each condition is assigned one of the ground-truth models; irrelevant
    channels must carry exactly-zero blocks in every ground truth.  Inputs
    are unit-variance white noise unless ``ar_coefficient`` is nonzero, in
    which case a first-order autoregression with the same marginal variance
    colors them.
    """

    group_truths: tuple[ParameterVector, ...]
    assignment: dict[str, int]
    noise_sigma: float
    irrelevant_channels: frozenset[int]
    samples_per_condition: int
    seed: int
    ar_coefficient: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_truths", tuple(self.group_truths))
        object.__setattr__(
            self, "irrelevant_channels", frozenset(self.irrelevant_channels)
        )
        structure = shared_structure(self.group_truths, "ground-truth model")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.samples_per_condition < structure.taps:
            raise ValueError("samples_per_condition must cover at least one window")
        if not self.assignment:
            raise ValueError("assignment must cover at least one condition")
        for cond, gi in self.assignment.items():
            if not 0 <= gi < len(self.group_truths):
                raise ValueError(f"condition {cond!r} maps to invalid group {gi}")
        for j in self.irrelevant_channels:
            if not 1 <= j <= structure.channels:
                raise ValueError(f"irrelevant channel {j} out of range")
            for g in self.group_truths:
                if np.any(g.block(j) != 0.0):
                    raise ValueError(
                        f"irrelevant channel {j} has nonzero coefficients in a "
                        "ground truth"
                    )
        if not -1.0 < self.ar_coefficient < 1.0:
            raise ValueError("ar_coefficient must lie in (-1, 1)")

    @property
    def structure(self) -> ModelStructure:
        return self.group_truths[0].structure


def _simulate_output(
    inputs: np.ndarray, theta: ParameterVector, noise: np.ndarray
) -> np.ndarray:
    """FIR response with zero initial conditions plus additive noise."""
    from scipy.signal import lfilter  # deferred: only synthetic data needs it
    structure = theta.structure
    y = np.zeros(inputs.shape[0])
    for j in range(1, structure.channels + 1):
        y += lfilter(theta.block(j), [1.0], inputs[:, j - 1])
    return y + noise


def generate_synthetic(scn: SyntheticScenario) -> list[ConditionDataset]:
    """Draw the scenario's datasets: two per condition, "-1" and "-2".

    The "-1" replicate is meant for estimation and "-2" for validation.
    Output is the exact FIR response of the condition's group model, so on
    every fully populated window Y - Phi @ theta equals the injected noise.
    Deterministic for a fixed seed.
    """
    from scipy.signal import lfilter  # deferred: only synthetic data needs it
    rng = np.random.default_rng(scn.seed)
    structure = scn.structure
    L = scn.samples_per_condition
    channel_names = tuple(f"s{j+1}" for j in range(structure.channels))
    datasets = []
    for cond, gi in scn.assignment.items():
        theta = scn.group_truths[gi]
        for replicate in (1, 2):
            white = rng.standard_normal((L, structure.channels))
            if scn.ar_coefficient != 0.0:
                phi = scn.ar_coefficient
                inputs = lfilter(
                    [np.sqrt(1.0 - phi * phi)], [1.0, -phi], white, axis=0
                )
            else:
                inputs = white
            noise = scn.noise_sigma * rng.standard_normal(L)
            datasets.append(
                ConditionDataset(
                    name=f"{cond}-{replicate}",
                    inputs=inputs,
                    output=_simulate_output(inputs, theta, noise),
                    channel_names=channel_names,
                )
            )
    return datasets


def _typed(value, field: str, kind: type):
    """``value`` as ``kind``: a JSON integer for int, a finite JSON number for float."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)) or (
            kind is float and not abs(value) <= sys.float_info.max):
        noun = "an integer" if kind is int else "a finite number"
        raise IngestionError(f"scenario config: {field} must be {noun}, got {value!r}")
    return kind(value)


def scenario_from_config(config) -> SyntheticScenario:
    """Build a scenario from its JSON form (see the synth CLI command)."""
    if not isinstance(config, dict):
        raise IngestionError("scenario config must be a JSON object")
    try:
        structure = ModelStructure(*(_typed(config[f], f, int) for f in ("taps", "channels")))
        truths, assignment = config["group_truths"], config["assignment"]
        irrelevant = config.get("irrelevant_channels", [])
        if not (isinstance(truths, list) and all(isinstance(v, list) for v in truths)):
            raise IngestionError("scenario config: group_truths must be a list of lists")
        if not isinstance(assignment, dict):
            raise IngestionError("scenario config: assignment must be a JSON object")
        if not isinstance(irrelevant, list):
            raise IngestionError("scenario config: irrelevant_channels must be a list")
        return SyntheticScenario(
            group_truths=tuple(
                ParameterVector(
                    np.array([_typed(x, f"group_truths[{i}]", float) for x in v]), structure
                )
                for i, v in enumerate(truths)
            ),
            assignment={k: _typed(v, f"assignment[{k!r}]", int) for k, v in assignment.items()},
            noise_sigma=_typed(config["noise_sigma"], "noise_sigma", float),
            irrelevant_channels=frozenset(
                _typed(j, "irrelevant_channels item", int) for j in irrelevant
            ),
            **{f: _typed(config[f], f, int) for f in ("samples_per_condition", "seed")},
            ar_coefficient=_typed(config.get("ar_coefficient", 0.0), "ar_coefficient", float),
        )
    except KeyError as exc:
        raise IngestionError(f"scenario config is missing field {exc}") from exc
