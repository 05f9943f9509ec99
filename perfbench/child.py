"""One workload process: run the layres CLI once and time it from inside.

Usage: python3 child.py SRC CONFIG MODE RESULT_JSON SPAWN_TIME [--trace] [--setup-only]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, imports, ``parse_config``
and base-surface validation, up to the entry of ``cli.run``.  With
``--setup-only`` the process stops at that entry.  With ``--trace`` every
public call of each module is wrapped in a span (see spans.py).  The result
JSON holds the exit code, the monotonic times of spawn, entry and exit of
``cli.run``, peak RSS, the BLAS thread count in effect and, when traced,
the spans.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        if ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    src, config, mode, result_path, spawn = argv[:5]
    flags = set(argv[5:])
    sys.path.insert(0, src)
    from layres import bs_operator, cli, geometry, greens, resonance, specfun

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"layres imported from {cli.__file__}, not from {src}")
    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(dict(cli=cli, resonance=resonance, bs_operator=bs_operator,
                            geometry=geometry, greens=greens, specfun=specfun))
    marks = {}
    inner_run = cli.run

    def timed_run(cfg):
        marks["enter"] = time.monotonic()
        if "--setup-only" in flags:
            return 0
        try:
            return inner_run(cfg)
        finally:
            marks["exit"] = time.monotonic()

    cli.run = timed_run
    result = {}
    try:
        result["rc"] = cli.main([mode, "--config", config])
    except Exception:  # a traceback is a failed run, still reported
        result["rc"] = 1
        result["error"] = traceback.format_exc()
    result["t_spawn"] = float(spawn)
    if "enter" in marks:
        result["t_enter"] = marks["enter"]
        result["setup_s"] = marks["enter"] - float(spawn)
    if "exit" in marks:
        result["t_exit"] = marks["exit"]
        result["solve_s"] = marks["exit"] - marks["enter"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
