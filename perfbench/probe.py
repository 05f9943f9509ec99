"""Speed probe: times a small fixed kernel on this core until told to stop.

Usage: python3 probe.py STOP_FILE OUT_JSON PERIOD_S

Started by run.py on the core the workload processes run on (affinity is
inherited).  Every PERIOD_S it times one kernel of small matrix products and
a Python loop, close to the mix the solver runs, and records
``[monotonic start, duration]``.  On a shared host the core's speed drifts
with other tenants' load; the mean probe time inside an interval measures
that speed, and run.py rescales wall times by it.  When STOP_FILE exists
the samples are written to OUT_JSON and the probe exits.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


def kernel(a: np.ndarray) -> float:
    s = 0.0
    for _ in range(20):
        s += float(np.einsum("ij,ij->", a @ a, a))
        s += sum(j * 0.5 for j in range(100))
    return s


def main(argv) -> int:
    stop, out, period = argv[0], argv[1], float(argv[2])
    a = np.random.default_rng(0).standard_normal((40, 40))
    samples = []
    while not os.path.exists(stop):
        t = time.monotonic()
        kernel(a)
        samples.append([t, time.monotonic() - t])
        time.sleep(period)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
