"""Write the CLI output of every benchmark workload and a generated batch.

    python tools/workload_outputs.py OUT [--src DIR] [--seeds 0 1 2 3]

For every workload of ``perfbench/workloads.py`` and every seed it writes
``OUT/<workload>_s<seed>.cfg`` and runs ``python -m layres.cli`` on it with
``layres`` imported from DIR (default: the ``src`` of this checkout) and
BLAS on one thread; the run writes ``OUT/<workload>_s<seed>.csv``.
``workloads.py`` is only read.

It then runs the fixed generated batches of GENERATED: all three surface
families, tilted planes, surfaces near and far from the wire and delta up
to 1, which the three workloads do not reach.  Batch (SEED, COUNT, (LO,
HI)) draws COUNT configs at quadrature orders LO to HI with the generator
of ``tests/test_generated_configs.py`` from ``SEED``, and runs them all
through ``cli.main`` in one interpreter, so that start-up is paid once per
batch.  Config i writes ``OUT/generated_s<SEED>_<i>.cfg`` and, unless it is
refused before any output, its ``.csv``; every config's exit code goes to
``OUT/generated_s<SEED>.csv``.

The tool exits 1 and names every workload run and every batch that fails;
a generated config that exits 1 or 2 is an outcome, not a failure.  The
outputs of two source trees, say a parent commit and a change, are then
compared by

    python tools/compare_outputs.py PARENT_OUT CHANGE_OUT
"""

import argparse
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
GENERATOR_PY = ROOT / "tests" / "test_generated_configs.py"
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

#: the fixed generated batches, (seed, count, (lowest, highest order))
GENERATED = ((1, 60, (6, 12)), (2, 30, (12, 16)))

#: one generated batch in a fresh interpreter, whose path holds DIR and this directory
_BATCH = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
          "import workload_outputs; "
          "workload_outputs.write_generated(sys.argv[1], *map(int, sys.argv[2:]))")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """``perfbench/workloads.py`` as a module, loaded from its file."""
    return _load("perfbench_workloads", WORKLOADS_PY)


def load_generator():
    """``tests/test_generated_configs.py`` as a module; it imports ``layres``."""
    return _load("generated_configs", GENERATOR_PY)


def write_generated(out, seed: int, count: int, lo: int, hi: int) -> None:
    """Draw one generated batch and run each config through ``cli.main`` here."""
    from layres.cli import main

    out = Path(out)
    generator = load_generator()
    rng = random.Random(seed)
    lines = [f"# seed = {seed}", f"# count = {count}", f"# orders = {lo} {hi}",
             "config,mode,exit"]
    for i in range(count):
        mode, *_, text = generator._config(rng, (lo, hi))
        name = f"generated_s{seed}_{i:03d}"
        config = out / f"{name}.cfg"
        config.write_text(f"{text}[output]\npath = {out / name}.csv\n", encoding="utf-8")
        lines.append(f"{name},{mode},{main([mode, '--config', str(config)])}")
    (out / f"generated_s{seed}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that layres is imported from")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    # DIR alone on the path, so that no other layres is imported
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(args.src.resolve())}
    failed = []
    for workload in load_workloads().WORKLOADS.values():
        for seed in args.seeds:
            name = f"{workload.name}_s{seed}"
            config = out / f"{name}.cfg"
            config.write_text(workload.config(seed, str(out / f"{name}.csv")),
                              encoding="utf-8")
            run = subprocess.run([sys.executable, "-m", "layres.cli", workload.mode,
                                  "--config", str(config)],
                                 cwd=out, env=env, capture_output=True, text=True)
            if run.returncode != 0:
                failed.append(name)
                print(f"{name}: exit {run.returncode}\n{run.stderr}", end="", file=sys.stderr)
    for seed, count, (lo, hi) in GENERATED:
        run = subprocess.run([sys.executable, "-c", _BATCH, str(out), str(seed), str(count),
                              str(lo), str(hi)], cwd=out, env=env, capture_output=True, text=True)
        if run.returncode != 0:
            name = f"generated_s{seed}"
            failed.append(name)
            print(f"{name}: exit {run.returncode}\n{run.stderr}", end="", file=sys.stderr)
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
