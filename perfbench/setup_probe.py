"""Set-up probe: a fresh interpreter imports fusedfir and ingests a manifest.

Usage: python3 setup_probe.py MANIFEST TAPS   -> prints {"problems": N, "rows": R}
       python3 setup_probe.py --env           -> prints the library environment

The benchmark times this whole process as ``setup_s``.  It goes through
the same public functions ``run`` uses: ``load_manifest``,
``load_dataset`` and ``build_regressor``.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path


def ingest(manifest: Path, taps: int) -> dict:
    from fusedfir import ModelStructure, build_regressor, load_dataset, load_manifest

    entries = load_manifest(manifest)
    structure = ModelStructure(taps=taps, channels=len(entries[0].channels))
    problems = [
        build_regressor(load_dataset(manifest.parent / e.file, e), structure)
        for e in entries
    ]
    return {"problems": len(problems), "rows": sum(p.n_rows for p in problems)}


def _blas_threads(package) -> dict:
    """Name and thread count of the OpenBLAS a package ships, if any."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": fn()}
    return {"library": None, "threads": None}


def environment() -> dict:
    import numpy
    import scipy

    from fusedfir.cli import build_parser

    defaults = build_parser().parse_args(
        ["run", "--manifest", "m", "--taps", "1", "--k", "1", "--out", "o"]
    )
    blas = {}
    for package in (numpy, scipy):
        info = package.__config__.CONFIG["Build Dependencies"]["blas"]
        blas[package.__name__] = {
            "name": info.get("name"),
            "version": info.get("version"),
            **_blas_threads(package),
        }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cli_threads_default": defaults.threads,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        result = environment()
    elif len(argv) == 2:
        result = ingest(Path(argv[0]), int(argv[1]))
    else:
        raise SystemExit(__doc__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
