"""Write the CLI output of every benchmark workload at a few seeds.

    python tools/workload_outputs.py OUT [--src DIR] [--seeds 0 1 2 3]

For every workload of ``perfbench/workloads.py`` and every seed it writes
``OUT/<workload>_s<seed>.cfg`` and runs ``python -m layres.cli`` on it with
``layres`` imported from DIR (default: the ``src`` of this checkout) and
BLAS on one thread; the run writes ``OUT/<workload>_s<seed>.csv``.
``workloads.py`` is only read.  The tool exits 1 and names every run that
fails.  The outputs of two source trees, say a parent commit and a change,
are then compared by

    python tools/compare_outputs.py PARENT_OUT CHANGE_OUT
"""

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def load_workloads():
    """``perfbench/workloads.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
