"""Run every workload and print each metric with its unit and sample count.

    python3 perfbench/suite.py [--seeds 0 1 2]
    python3 perfbench/suite.py --write-reference

For each workload this runs run.py untraced once per seed, then traced once
on the first seed, each run as long as ``run_seconds`` in BENCHMARK.json.
It prints the median of every end-to-end metric over the runs, with the
quartiles and the number of runs, then the per-layer metrics of the traced
run and the tracing overhead (traced minus untraced ``solve_s``).
Everything, with the environment record, is written to
``perfbench/out/results.json``.

``--write-reference`` recomputes ``reference.json``: the seed-0 poles of
every workload from the current sources.  Use it only on a commit whose
poles are known to be right.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, Runner, environment
from workloads import REFERENCE_PATH, WORKLOADS, delta_key, read_csv

RESULTS = OUT / "results.json"


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def write_reference() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, seed=0, reference=None)
        runner.invoke()
        if runner.failed:
            raise RuntimeError(f"{name}: seed-0 poles fail the invariants")
        _, rows = read_csv(runner.csv)
        reference[name] = {delta_key(float(r["delta"])): [float(r["re_z"]), float(r["im_z"])]
                           for r in rows}
        print(f"{name}: {len(rows)} poles")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results = {"environment": environment(), "seeds": args.seeds,
               "seconds": seconds, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        layers = run_once(name, args.seeds[0], seconds, 1)
        all_correct &= layers["correct"] and all(r["correct"] for r in runs)
        end_to_end = {}
        print(f"\n== {name}: {sum(r['attempted'] for r in runs)} poles attempted, "
              f"{sum(r['failed'] for r in runs)} failed")
        for metric, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            end_to_end[metric] = {"unit": entry["unit"], **stats}
            print(f"{metric:<28} {stats['median']:>14.6g} {entry['unit']:<10} "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  runs {stats['n']}")
        print(f"-- traced run (seed {args.seeds[0]})")
        for metric, entry in layers["metrics"].items():
            print(f"{metric:<44} {entry['value']:>14.6g} {entry['unit']}")
        results["workloads"][name] = {"why": WORKLOADS[name].why, "runs": runs,
                                      "end_to_end": end_to_end, "traced": layers}
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
