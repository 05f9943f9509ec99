"""The benchmark's seed-0 poles, checked in the ordinary test run.

Each workload of ``perfbench/workloads.py`` writes its seed-0 config, the
CLI runs it, and every pole of the output passes the benchmark's own gate:
|z - z_ref| <= 1e-12 against ``perfbench/reference.json``, Im z < 0,
Re z in J_k and, on the acceptance sweep, the fitted exponents.  The same
in-process run counts the eta_l evaluations and keeps every pole's
diagnostics.  The benchmark files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from layres import bs_operator, cli, resonance
from layres.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: most eta_l evaluations a seed-0 run may make; upper bounds, so that a
#: later saving keeps them true
MAX_ETA = {"sweep_disk12": 21, "pole_disk16": 3, "sweep_rect_wire12": 12}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WL = _workloads()
REFERENCE = WL.load_reference()


def _run(directory, name):
    """(meta, rows, eta_l evaluations, PoleResults) of the seed-0 run of ``name``."""
    workload = WL.WORKLOADS[name]
    out = directory / f"{name}.csv"
    config = directory / f"{name}.cfg"
    config.write_text(workload.config(0, str(out)), encoding="utf-8")
    calls, poles = [], []
    find_pole = resonance.find_pole

    def eta(*args, **kwargs):
        calls.append(args[0])
        return bs_operator.eta_l(*args, **kwargs)

    def recorded(*args, **kwargs):
        poles.append(find_pole(*args, **kwargs))
        return poles[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "eta_l", eta)
        mp.setattr(resonance, "find_pole", recorded)
        mp.setattr(cli, "find_pole", recorded)
        assert main([workload.mode, "--config", str(config)]) == 0
    return (*WL.read_csv(out), len(calls), poles)


@pytest.fixture(scope="module")
def seed_zero(tmp_path_factory):
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _run(tmp_path_factory.mktemp(name), name)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_poles_match_reference(seed_zero, name):
    workload = WL.WORKLOADS[name]
    meta, rows, _, _ = seed_zero(name)
    verdicts = WL.check_poles(workload, meta, rows, REFERENCE[name])
    assert len(verdicts) == len(workload.deltas)
    assert verdicts == dict.fromkeys(verdicts), verdicts


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_eta_evaluations(seed_zero, name):
    _, _, evaluations, poles = seed_zero(name)
    assert len(poles) == len(WL.WORKLOADS[name].deltas)
    assert evaluations == sum(res.diagnostics["eta_evaluations"] for res in poles)
    assert evaluations <= MAX_ETA[name]


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_fixed_point_contracts(seed_zero, name):
    # the last secant slope estimates |F'| = |4 pi beta (z - l^2) theta_l'|
    for res in seed_zero(name)[3]:
        assert res.diagnostics["contraction"] < 0.1
