"""The benchmark's seed-0 poles, checked in the ordinary test run.

Each workload of ``perfbench/workloads.py`` writes its seed-0 config, the
CLI runs it, and every pole of the output passes the benchmark's own gate:
|z - z_ref| <= 1e-12 against ``perfbench/reference.json``, Im z < 0,
Re z in J_k and, on the acceptance sweep, the fitted exponents.  The same
in-process run counts the eta_l evaluations, keeps every pole's
diagnostics and re-solves each pole from where its search stopped until
|g| stops falling, to hold the search to its own error estimate.  The
benchmark files are only read.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from layres import bs_operator, cli, resonance
from layres.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: most eta_l evaluations a seed-0 run may make; upper bounds, so that a
#: later saving keeps them true
MAX_ETA = {"sweep_disk12": 17, "pole_disk16": 3, "sweep_rect_wire12": 12}
#: the criteria that end a pole search (``resonance.find_pole``)
STOPS = {"relative", "floor", "exact"}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WL = _workloads()
REFERENCE = WL.load_reference()


def _floor_pole(z, state):
    """F(z) - the pole - at the least |g| of secant steps from z, taken until |g| stops falling.

    The iteration of ``find_pole`` on g(z) = z - F(z) = (z - l^2)(1 - exp(-4 pi eta_l)),
    started from z and F(z), with no stop but the rounding floor of |g|.
    """
    l2 = state.l**2

    def g(z):
        return (z - l2) * complex(-np.expm1(-4.0 * math.pi * bs_operator.eta_l(z, state)))

    points = [(z, g(z))]
    points.append((z - points[0][1], g(z - points[0][1])))
    while points[-1][1] != 0 and abs(points[-1][1]) < abs(points[-2][1]):
        (z0, g0), (z1, g1) = points[-2:]
        z2 = z1 - g1 * (z1 - z0) / (g1 - g0)
        points.append((z2, g(z2)))
    z, gz = min(points, key=lambda point: abs(point[1]))
    return z - gz


def _run(directory, name):
    """(meta, rows, eta_l evaluations, PoleResults, floor poles, states) of the seed-0 run.

    The floor pole of each result is :func:`_floor_pole` from its z, on its
    state, the one ``find_pole`` searched.
    """
    workload = WL.WORKLOADS[name]
    out = directory / f"{name}.csv"
    config = directory / f"{name}.cfg"
    config.write_text(workload.config(0, str(out)), encoding="utf-8")
    calls, poles, floors, states = [], [], [], []
    find_pole = resonance.find_pole

    def eta(*args, **kwargs):
        calls.append(args[0])
        return bs_operator.eta_l(*args, **kwargs)

    def recorded(state, *args, **kwargs):
        poles.append(find_pole(state, *args, **kwargs))
        states.append(state)
        floors.append(_floor_pole(poles[-1].z, state))
        return poles[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "eta_l", eta)
        mp.setattr(resonance, "find_pole", recorded)
        mp.setattr(cli, "find_pole", recorded)
        assert main([workload.mode, "--config", str(config)]) == 0
    return (*WL.read_csv(out), len(calls), poles, floors, states)


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
    meta, rows = seed_zero(name)[:2]
    verdicts = WL.check_poles(workload, meta, rows, REFERENCE[name])
    assert len(verdicts) == len(workload.deltas)
    assert verdicts == dict.fromkeys(verdicts), verdicts


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_eta_evaluations(seed_zero, name):
    evaluations, poles = seed_zero(name)[2:4]
    assert len(poles) == len(WL.WORKLOADS[name].deltas)
    assert evaluations == sum(res.diagnostics["eta_evaluations"] for res in poles)
    assert evaluations <= MAX_ETA[name]


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_fixed_point_contracts(seed_zero, name):
    # the first two points estimate |F'| = |4 pi beta (z - l^2) theta_l'|
    for res in seed_zero(name)[3]:
        assert res.diagnostics["contraction"] < 0.1


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_poles_within_their_error_estimate(seed_zero, name):
    # every search stops on a named criterion, and its pole lies within its
    # own error estimate of the pole solved to the floor of |g|; z itself is
    # held to the spacing of doubles at z, 4.4e-16 in Re z, on top of that
    for res, floor in zip(*seed_zero(name)[3:5]):
        assert res.diagnostics["stop"] in STOPS
        assert abs(res.z - floor) <= res.diagnostics["root_error"] \
            + sys.float_info.epsilon * abs(res.z)
        assert abs(res.z.imag - floor.imag) <= 1e-10 * abs(floor.imag)


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_seed_zero_neumann_series_matches_a_solve(seed_zero, name):
    # at eps_l and at each pole the guarded solve sums the Neumann series of
    # M_l in at most 12 terms, and theta_l from it lies within 1e-14 of the
    # theta_l of a dense solve, relative to |theta_l|
    _, _, _, poles, _, states = seed_zero(name)
    for res, state in zip(poles, states):
        assert 0 < res.diagnostics["neumann_terms"] <= 12
        weights, l = state.rule.weights, state.l
        for z in (state.params.eigenvalue(l), res.z):
            table = bs_operator.mode_table(z, state)
            w_l = table[:, l - 1]
            e = state.params.beta * (bs_operator.assemble_A_l(z, state, table)
                                     + bs_operator.assemble_free(z, state))
            diagnostics = {}
            t_w = bs_operator._guarded_solve(e, w_l, diagnostics)
            assert 0 < diagnostics["neumann_terms"] <= 12
            theta = np.sum(weights * w_l * np.linalg.solve(np.eye(len(e)) - e, w_l))
            assert abs(np.sum(weights * w_l * t_w) - theta) <= 1e-14 * abs(theta)
