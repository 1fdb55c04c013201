"""Command-line surface for reproducible batch runs.

Subcommands: ``synth`` (write a synthetic benchmark), ``bounds`` (penalty
upper bounds), ``fit`` (per-condition least squares), ``run`` (the full
pipeline), ``eval`` (cross-evaluation from stored coefficient CSVs).
Every command maps a typed error to its exit code through one table: 0 ok,
2 data/config error, 3 unmet precondition, 4 solver non-convergence.  Any
other error propagates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import FusionUndefinedError, compute_bounds
from .data import (
    IngestionError,
    ModelStructure,
    generate_synthetic,
    load_manifest,
    parse_dataset_name,
    read_json,
    scenario_from_config,
    write_dataset_csv,
)
from .estimation import ls_fit, qr_compress
from .pipeline import (
    GridSearchFailedError,
    GridSpec,
    SolverNotConvergedError,
    cross_evaluate,
    csv_writer,
    json_text,
    load_problems,
    read_theta_csv,
    run_pipeline,
    write_csv,
    write_fit_matrix_csv,
    write_theta_csv,
)
from .solver import SolverConfig, SolverNumericalError

EXIT_OK = 0
EXIT_DATA = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4

# Exit code of each error class, checked in order: FusionUndefinedError is
# a ValueError, as is IngestionError, which every input file fails with; a
# FileNotFoundError comes from an output path.
_EXIT_CODES = (
    (FusionUndefinedError, EXIT_PRECONDITION),
    ((GridSearchFailedError, SolverNotConvergedError), EXIT_NO_CONVERGENCE),
    ((FileNotFoundError, ValueError, SolverNumericalError), EXIT_DATA),
)


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _role_problems(manifest_path: Path, taps: int, roles: tuple[str, ...]):
    """Structure and problems of the first of ``roles`` the manifest lists."""
    entries = load_manifest(manifest_path)
    for role in roles:
        channels = [len(e.channels) for e in entries if e.role == role]
        if channels:
            structure = ModelStructure(taps=taps, channels=channels[0])
            return structure, load_problems(manifest_path, structure, (role,))[role]
    raise IngestionError(f"manifest has no {' or '.join(roles)} datasets")


def cmd_synth(args: argparse.Namespace) -> int:
    scenario = scenario_from_config(read_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    datasets = generate_synthetic(scenario)
    manifest = []
    for ds in datasets:
        write_dataset_csv(ds, out / f"{ds.name}.csv")
        parsed = parse_dataset_name(ds.name)
        role = "estimation" if parsed and parsed[1] == 1 else "validation"
        manifest.append(
            {
                "name": ds.name,
                "file": f"{ds.name}.csv",
                "role": role,
                "channels": list(ds.channel_names),
                "output": "y",
            }
        )
    (out / "manifest.json").write_text(json_text(manifest), encoding="utf-8")

    # Truth summary goes to a sidecar only; the manifest must stay blind.
    sidecar = {
        "assignment": dict(scenario.assignment),
        "group_truths": [[float(x) for x in g.values] for g in scenario.group_truths],
        "irrelevant_channels": sorted(scenario.irrelevant_channels),
        "noise_sigma": scenario.noise_sigma,
        "noiseless": scenario.noise_sigma == 0.0,
        "seed": scenario.seed,
    }
    (out / "ground_truth.json").write_text(json_text(sidecar), encoding="utf-8")
    print(
        f"synth: wrote {len(datasets)} datasets, manifest.json and "
        f"ground_truth.json to {out}"
    )
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    _, problems = _role_problems(Path(args.manifest), args.taps, ("estimation",))
    # Compressed as `run` compresses them, so both report the same bounds.
    report = compute_bounds([qr_compress(p) for p in problems])
    text = json_text(report.to_dict())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    _, problems = _role_problems(Path(args.manifest), args.taps, ("estimation",))
    fits = [ls_fit(p) for p in problems]
    summary = {
        p.condition_name: {
            "residual_norm_sq": f.residual_norm_sq,
            "gram_min_eig": f.gram_min_eig,
            "gram_positive_definite": f.gram_positive_definite,
        }
        for p, f in zip(problems, fits)
    }
    # Built first: json_text raises on a non-finite value, and a failed
    # fit should leave no partial output behind.
    text = json_text(summary)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_theta_csv(
        out / "thetas.csv",
        [p.condition_name for p in problems],
        [f.theta for f in fits],
    )
    (out / "fits.json").write_text(text, encoding="utf-8")
    print(f"fit: wrote {len(fits)} least-squares models to {out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = SolverConfig(
        rho=args.rho,
        eps_abs=args.eps_abs,
        eps_rel=args.eps_rel,
        max_iter=args.max_iter,
        trace=args.trace,
    )
    manifest_path = Path(args.manifest)
    entries = load_manifest(manifest_path)
    structure = ModelStructure(taps=args.taps, channels=len(entries[0].channels))
    grid = GridSpec(
        lambda1_factors=args.lambda1_factors or GridSpec().lambda1_factors,
        lambda2_values=args.lambda2_values or GridSpec().lambda2_values,
    )
    variant = "l2_squared" if args.fusion_variant == "l2-squared" else "l2"
    report = run_pipeline(
        manifest_path,
        structure,
        grid,
        args.k,
        cfg,
        args.seed,
        fusion_variant=variant,
        literal_criterion=args.literal_criterion,
        auto_k=args.auto_k,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    write_theta_csv(out / "thetas.csv", report.theta_names, report.solve_result.thetas)
    write_theta_csv(
        out / "category_thetas.csv",
        [cat.name for cat in report.categories],
        [cat.fit.theta for cat in report.categories],
    )
    write_fit_matrix_csv(out / "fit_matrix.csv", report.fit_reports)
    if args.trace and report.solve_result.trace is not None:
        rows = [["iter", "objective", "primal_res", "dual_res"]]
        rows += [
            [str(it), f"{obj:.17g}", f"{r:.17g}", f"{s:.17g}"]
            for it, obj, r, s in report.solve_result.trace
        ]
        write_csv(out / "trace.csv", rows)

    if report.bounds is not None:
        print(
            f"bounds: lambda1_max={report.bounds.lambda1_max:.6g} "
            f"lambda2_max={report.bounds.lambda2_max:.6g}"
        )
    else:
        print("bounds: skipped (single condition)")
    print(
        f"grid: selected lambda1={report.search.hp.lambda1:.6g} "
        f"lambda2={report.search.hp.lambda2:.6g}"
    )
    sr = report.solve_result
    print(
        f"solve: converged={sr.converged} iterations={sr.iterations} "
        f"objective={sr.objective.total:.6g}"
    )
    print(f"cluster: k={report.clusters.k} labels={report.clusters.labels}")
    print(f"refit: {len(report.categories)} categories")
    print(f"evaluate: {len(report.fit_reports)} FIT cells -> {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    structure, problems = _role_problems(
        Path(args.manifest), args.taps, ("evaluation", "validation")
    )
    models = read_theta_csv(args.thetas, structure)
    reports = cross_evaluate(models, problems)
    if args.out:
        write_fit_matrix_csv(args.out, reports)
        print(f"eval: wrote {len(reports)} FIT cells to {args.out}")
    else:
        csv_writer(sys.stdout).writerows(
            [
                r.model_source,
                r.eval_dataset,
                "undefined" if r.fit_percent is None else f"{r.fit_percent:.17g}",
            ]
            for r in reports
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusedfir",
        description="Fused FIR soft-sensor estimation across working conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bounds", help="closed-form penalty upper bounds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--taps", type=int, required=True)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fit", help="per-condition least-squares fits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--taps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("run", help="full estimation pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--taps", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="cluster count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--literal-criterion", action="store_true")
    p.add_argument("--fusion-variant", choices=("l2", "l2-squared"), default="l2")
    p.add_argument("--auto-k", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--lambda1-factors", type=_float_tuple, default=None)
    p.add_argument("--lambda2-values", type=_float_tuple, default=None)
    p.add_argument(
        "--rho", type=float, default=1.0,
        help="starting ADMM penalty; each solve adapts it by residual balancing",
    )
    p.add_argument("--eps-abs", type=float, default=1e-8)
    p.add_argument("--eps-rel", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=50_000)
    # The grid search is serial; perfbench's environment probe reads this.
    p.set_defaults(func=cmd_run, threads=1)

    p = sub.add_parser("eval", help="cross-evaluate stored models")
    p.add_argument("--manifest", required=True)
    p.add_argument("--taps", type=int, required=True)
    p.add_argument("--thetas", required=True, help="theta CSV written by fit/run")
    p.add_argument("--out", default=None, help="FIT matrix CSV path")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((c for cls, c in _EXIT_CODES if isinstance(exc, cls)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
