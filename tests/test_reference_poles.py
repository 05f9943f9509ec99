"""The benchmark's seed-0 poles, checked in the ordinary test run.

Each workload of ``perfbench/workloads.py`` writes its seed-0 config, the
CLI runs it, and every pole of the output passes the benchmark's own gate:
|z - z_ref| <= 1e-12 against ``perfbench/reference.json``, Im z < 0,
Re z in J_k and, on the acceptance sweep, the fitted exponents.  The
benchmark files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from layres.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WL = _workloads()
REFERENCE = WL.load_reference()


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_poles_match_reference(tmp_path, name):
    workload = WL.WORKLOADS[name]
    out = tmp_path / f"{name}.csv"
    config = tmp_path / f"{name}.cfg"
    config.write_text(workload.config(0, str(out)), encoding="utf-8")
    assert main([workload.mode, "--config", str(config)]) == 0
    meta, rows = WL.read_csv(out)
    verdicts = WL.check_poles(workload, meta, rows, REFERENCE[name])
    assert len(verdicts) == len(workload.deltas)
    assert verdicts == dict.fromkeys(verdicts), verdicts
