"""Run ``fusedfir <args>`` with the span tracer installed.

Usage: python3 traced_cli.py SPANS_JSON REPORT_JSON -- <fusedfir arguments>

Times the import of ``fusedfir.cli``, installs the hooks, runs the CLI's
``main`` as the root span ``cli.main`` and writes the spans, counters and
missing hooks to SPANS_JSON.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_path, report_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    start = perf_counter()
    import fusedfir.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", fusedfir.cli.main)(cli_args)
    report_bytes = os.path.getsize(report_path) if code == 0 else 0
    tracer.dump(spans_path, import_s=import_s, report_bytes=report_bytes)
    return code


if __name__ == "__main__":
    sys.exit(main())
