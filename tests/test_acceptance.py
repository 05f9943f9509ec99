"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line (bypassing pytest's capture)
so a plain ``pytest tests/test_acceptance.py`` run shows the scorecard.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import kv

from layres.bs_operator import TAIL_TOL, SystemState
from layres.geometry import disk
from layres.greens import k0_cosine_sum, layer_green_modal
from layres.resonance import (
    find_determinant_root,
    find_pole,
    im_mu_closed_form,
    pole_state,
    sweep_delta,
)
from layres.specfun import (
    SpectralParams,
    first_sheet,
    gamma_from_gap,
    gamma_n,
    second_sheet,
)

PARAMS = SpectralParams(alpha=0.0, beta=0.4)
DISK = disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
SYM_DISK = disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.5)


@pytest.fixture(autouse=True)
def _scorecard(capfd):
    """Re-emit each criterion's PASS/FAIL line past pytest's capture."""
    yield
    out, _ = capfd.readouterr()
    with capfd.disabled():
        for line in out.splitlines():
            if line.startswith("criterion "):
                print(line, flush=True)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def pole16():
    state = pole_state(DISK, 0.08, 2, PARAMS, order=16)
    eta_root = find_pole(state)
    det_root = find_determinant_root(state)
    return state, eta_root, det_root


@pytest.fixture(scope="module")
def sweep14():
    deltas = [float(d) for d in np.geomspace(0.02, 0.12, 8)]
    start = time.monotonic()
    sw = sweep_delta(2, deltas, DISK, PARAMS, order=14)
    elapsed = time.monotonic() - start
    return sw, deltas, elapsed


def test_criterion_1_embedded_eigenvalue_zeros():
    worst = 0.0
    for alpha in (-1.0, 0.0, 0.5, 2.0):
        p = SpectralParams(alpha=alpha, beta=0.4)
        for n in range(1, 21):
            g = gamma_from_gap(complex(p.xi_alpha), n, first_sheet(), p)
            worst = max(worst, abs(g))
    _report(1, worst < 1e-12,
            f"max |Gamma_n(xi_alpha + n^2)| = {worst:.2e} over 4 alphas x n=1..20")


def test_criterion_2_prudnikov_identity():
    n = np.arange(1, 100_001)
    worst = 0.0
    for rho in (0.01, 0.1, 0.5, 1.0):
        kvals = kv(0, n * rho)
        for a in (0.0, 0.5, 1.0, 2.0, 3.0):
            brute = float(np.sum(kvals * np.cos(n * a)))
            worst = max(worst, abs(k0_cosine_sum(rho, a) - brute))
    _report(2, worst < 1e-8,
            f"max |closed form - 1e5-term sum| = {worst:.2e} on 4x5 grid")


def test_criterion_3_edge_of_the_wedge():
    rng = np.random.default_rng(7)
    eps = 1e-8
    worst_g, worst_gam = 0.0, 0.0
    for lam, k in ((2.5, 1), (6.0, 2)):
        up_ctx, dn_ctx = first_sheet(), second_sheet(k)
        for n in range(1, 6):
            d = gamma_n(lam + 1j * eps, n, up_ctx, PARAMS) - \
                gamma_n(lam - 1j * eps, n, dn_ctx, PARAMS)
            worst_gam = max(worst_gam, abs(d))
        for _ in range(5):
            x = np.array([rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5),
                          rng.uniform(0.5, 2.5)])
            xp = x + rng.uniform(0.2, 0.8, size=3)
            xp[2] = rng.uniform(0.5, 2.5)
            d = layer_green_modal(lam + 1j * eps, x, xp, up_ctx) - \
                layer_green_modal(lam - 1j * eps, x, xp, dn_ctx)
            worst_g = max(worst_g, abs(d))
    _report(3, worst_g < 1e-6 and worst_gam < 1e-8,
            f"max kernel jump {worst_g:.2e} (<1e-6), "
            f"max Gamma_n jump {worst_gam:.2e} (<1e-8) at eps=1e-8")


def test_criterion_4_scalar_determinant_equivalence(pole16):
    _, eta_root, det_root = pole16
    d_re = abs(eta_root.z.real - det_root.z.real)
    d_im = abs(eta_root.z.imag - det_root.z.imag)
    _report(4, d_re < 1e-8 and d_im < 1e-8,
            f"eta vs det root: |dRe| = {d_re:.2e}, |dIm| = {d_im:.2e} at order 16")


def test_criterion_5_width_scaling(sweep14):
    sw, _, elapsed = sweep14
    p_im, _, r2 = sw.fit_im
    p_re = sw.fit_re[0]
    ok = (3.8 < p_im < 4.2 and r2 > 0.999 and 1.9 < p_re < 2.1
          and not sw.failures and elapsed < 300.0)
    _report(5, ok,
            f"|Im mu| slope {p_im:.3f} (R^2 = {r2:.7f}), |Re mu| slope {p_re:.3f}, "
            f"{sw.poles[0].diagnostics['n_nodes']}-node sweep in {elapsed:.0f}s")


def test_criterion_6_sign_and_closed_form(sweep14):
    sw, deltas, _ = sweep14
    all_negative = all(res.mu.imag < 0.0 for res in sw.poles)
    d0, mu0 = sw.poles[0].delta, sw.poles[0].mu
    ratio = mu0.imag / sw.closed_form_im[0]
    st = pole_state(DISK, d0, 2, PARAMS, order=8)
    st_m = pole_state(DISK, d0, 2, SpectralParams(alpha=0.0, beta=-0.4), order=8)
    even = im_mu_closed_form(st) == im_mu_closed_form(st_m)
    _report(6, all_negative and 0.75 < ratio < 1.25 and even,
            f"Im mu < 0 at all 8 points: {all_negative}; "
            f"ratio to closed form {ratio:.3f} at delta = {d0:.3g}; "
            f"even in beta: {even}")


def test_criterion_7_symmetry_persistence():
    state = pole_state(SYM_DISK, 0.08, 2, PARAMS, order=16)
    res = find_pole(state)
    d_re = abs(res.z.real - PARAMS.eigenvalue(2))
    ok = d_re < 1e-12 and abs(res.z.imag) < 1e-12
    _report(7, ok,
            f"surface in x3 = pi/2: |Re z - eps_2| = {d_re:.2e}, "
            f"|Im z| = {abs(res.z.imag):.2e}")


def test_criterion_8_discretization_convergence(pole16):
    state16, eta_root, _ = pole16
    state32 = pole_state(DISK, 0.08, 2, PARAMS, order=32)
    res32 = find_pole(state32, seed=eta_root.z)
    d_order = abs(res32.z - eta_root.z)

    state_2n = SystemState(PARAMS, state16.layout, state16.ctx, 2,
                           n_cut=2 * state16.n_cut)
    res_2n = find_pole(state_2n, seed=eta_root.z)
    d_modes = abs(res_2n.z - eta_root.z)
    _report(8, d_order < 1e-6 and d_modes < TAIL_TOL,
            f"order 16->32 moves pole {d_order:.2e} (<1e-6); "
            f"n_max {state16.n_cut}->{2 * state16.n_cut} moves it "
            f"{d_modes:.2e} (<{TAIL_TOL:.0e})")


def test_criterion_9_derivative_law():
    worst = 0.0
    want = 1.0 / (4.0 * math.pi * PARAMS.xi_alpha)
    for l in (2, 3):
        eps_l = PARAMS.eigenvalue(l)
        k = int(math.floor(math.sqrt(eps_l)))
        ctx = second_sheet(k)
        h = 1e-6
        d = (gamma_n(eps_l + h, l, ctx, PARAMS)
             - gamma_n(eps_l - h, l, ctx, PARAMS)) / (2.0 * h)
        worst = max(worst, abs(d - want))
    _report(9, worst < 1e-8,
            f"max |dGamma_l/dz - 1/(4 pi xi_alpha)| = {worst:.2e} for l = 2, 3")
