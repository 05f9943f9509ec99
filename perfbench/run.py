"""layres benchmark: one workload, one seed, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a layres checkout; the program is used from ``src/``.
Each CLI invocation is a fresh process (child.py) with BLAS pinned to one
thread through the environment.  The next invocation starts only after the
previous one ends.  This process, the workload processes and a speed probe
(probe.py) all run on one core.

Times are reported at a fixed core speed: each wall time is multiplied by
the mean of PROBE_REF_S / probe time over the probe samples inside it.  On
a shared host the speed of a core drifts by up to ~1.6x with other tenants'
load, which repetition does not average out; rescaling by the probe takes
most of that drift out.  The raw wall times are printed to stderr.

``--trace 0`` first starts SETUP_REPEATS processes that stop on entering
``cli.run`` (set-up samples), then runs whole invocations for as long as the
next one is expected to end within S seconds, at least one.  It reports the
median ``solve_s``, ``setup_s`` (over every process started) and
``peak_rss_mb``, and ``pole_ok_frac``.

``--trace 1`` runs one untraced and then one traced invocation and reports
the per-layer metrics of the traced one, with ``trace.overhead_s`` = traced
minus untraced ``solve_s``.  Spans are written to
``perfbench/out/<workload>/spans.json``.

Every pole of every invocation passes the gate in workloads.py.  The last
line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS, check_poles, load_reference, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
SETUP_REPEATS = 5
#: no run may pass this, so a run ends well inside the 180 s allowed
HARD_LIMIT_S = 170.0
PROBE_PERIOD_S = 0.05
#: probe kernel time of the reference core speed that reported times refer
#: to; near the probe's median on the 2-core VM the benchmark was defined on
PROBE_REF_S = 0.0005


def blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _openblas_version() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (TypeError, KeyError):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """Machine, library versions and thread settings of this run."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "openblas": _openblas_version(),
        "git_commit": _git_commit(),
        "blas_threads_env": BLAS_THREADS,
        "cores_used": sorted(os.sched_getaffinity(0)),
    }


class Probe:
    """The speed probe on this core, for the life of a ``with`` block."""

    def __init__(self, directory: Path, env: dict):
        self.stop = directory / "probe.stop"
        self.out = directory / "probe.json"
        for stale in (self.stop, self.out):
            stale.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.stop), str(self.out),
             repr(PROBE_PERIOD_S)], env=env, cwd=ROOT)
        self.samples = []

    def __enter__(self):
        time.sleep(1.0)  # numpy import, so samples cover the first interval
        return self

    def __exit__(self, *exc):
        self.stop.touch()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.out.exists():
            self.samples = json.loads(self.out.read_text(encoding="utf-8"))

    def speed(self, start: float, end: float) -> float:
        """Mean core speed from start to end, relative to the reference.

        An interval shorter than the probe period may hold no sample; it
        takes the sample nearest to it.
        """
        if not self.samples:
            raise RuntimeError("the speed probe recorded no samples")
        inside = [PROBE_REF_S / dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            _, dt = min(self.samples, key=lambda s: abs(s[0] - start))
            inside = [PROBE_REF_S / dt]
        return statistics.fmean(inside)

    def scaled(self, wall: float, start: float, end: float) -> float:
        """``wall`` (start to end) at the reference core speed.

        Work done is the integral of speed over time, so the wall time
        times the mean relative speed is the time the same work takes at
        the reference speed.
        """
        return wall * self.speed(start, end)


class Runner:
    """Starts workload processes for one run and checks their poles."""

    def __init__(self, workload, seed: int, reference: dict | None):
        self.workload = workload
        self.env = blas_env()
        self.dir = OUT / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.dir / "poles.csv"
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config(seed, str(self.csv)), encoding="utf-8")
        self.reference = reference
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.blas_threads_seen = set()

    def invoke(self, *flags) -> dict:
        """One child process; returns its result JSON, poles checked."""
        result_path = self.dir / "result.json"
        for stale in (result_path, self.csv):
            stale.unlink(missing_ok=True)
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.config),
               self.workload.mode, str(result_path), repr(time.monotonic()), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  capture_output=True, text=True, check=False)
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            returncode, stderr = None, f"timed out after {timeout:.0f} s"
        if returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            result = {"rc": returncode, "error": stderr}
        self.blas_threads_seen.add(result.get("blas_threads"))
        if "--setup-only" not in flags:
            self._check(result)
        return result

    def _check(self, result: dict) -> None:
        meta, rows = {}, []
        if result.get("rc") == 0 and self.csv.exists():
            meta, rows = read_csv(self.csv)
        verdict = check_poles(self.workload, meta, rows, self.reference)
        if result.get("rc") != 0:
            reason = f"exit code {result.get('rc')}: {result.get('error', '')[-300:]}"
            verdict = {key: reason for key in verdict}
        self.attempted += len(verdict)
        for key, reason in verdict.items():
            if reason is not None:
                self.failed += 1
                print(f"FAILED pole delta={key}: {reason}", file=sys.stderr)

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def _setup(probe: Probe, res: dict) -> float:
    return probe.scaled(res["setup_s"], res["t_spawn"], res["t_enter"])


def _solve(probe: Probe, res: dict) -> float:
    return probe.scaled(res["solve_s"], res["t_enter"], res["t_exit"])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def measure(runner: Runner, seconds: float) -> dict:
    with Probe(runner.dir, runner.env) as probe:
        results = [runner.invoke("--setup-only") for _ in range(SETUP_REPEATS)]
        start = time.monotonic()
        while True:
            t = time.monotonic()
            results.append(runner.invoke())
            last = time.monotonic() - t
            if (time.monotonic() - start) + last > seconds or \
                    runner.elapsed() + 2 * last > HARD_LIMIT_S:
                break
    set_up = [r for r in results if "t_enter" in r]
    solved = [r for r in results if "t_exit" in r]
    for r in solved:
        print(f"invocation: solve_s {_solve(probe, r)} (wall {r['solve_s']}), "
              f"setup_s {_setup(probe, r)} (wall {r['setup_s']})", file=sys.stderr)
    print(f"samples: solve_s {len(solved)}, setup_s {len(set_up)}, "
          f"probe {len(probe.samples)}", file=sys.stderr)
    return {
        "solve_s": (_median(_solve(probe, r) for r in solved), "s"),
        "setup_s": (_median(_setup(probe, r) for r in set_up), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in solved), "MB"),
        "pole_ok_frac": ((runner.attempted - runner.failed) / max(runner.attempted, 1),
                         "fraction"),
    }


def traced(runner: Runner) -> dict:
    with Probe(runner.dir, runner.env) as probe:
        plain = runner.invoke()
        res = runner.invoke("--trace")
    spans = res.get("spans", [])
    (runner.dir / "spans.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "work"], "spans": spans}),
        encoding="utf-8")
    metrics = layer_metrics(spans)
    if "t_exit" in res and "t_exit" in plain:
        metrics["trace.solve_s"] = (_solve(probe, res), "s")
        metrics["trace.overhead_s"] = (_solve(probe, res) - _solve(probe, plain), "s")
        metrics["trace.wall_solve_s"] = (res["solve_s"], "s")
        metrics["probe.speed"] = (probe.speed(res["t_enter"], res["t_exit"]), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "layres" / "cli.py").is_file():
        print(f"error: no layres sources under {SRC}", file=sys.stderr)
        return 2
    # every process started from here on inherits the one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name] if args.seed == 0 else None
    runner = Runner(workload, args.seed, reference)
    metrics = traced(runner) if args.trace else measure(runner, args.seconds)
    env["blas_threads_in_effect"] = sorted(runner.blas_threads_seen, key=str)
    (runner.dir / "env.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
