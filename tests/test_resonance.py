import math

import numpy as np
import pytest

from layres import bs_operator, resonance
from layres.geometry import disk
from layres.resonance import (
    ConvergenceError,
    PoleResult,
    ThresholdCollisionError,
    embedded_eigenvalues,
    find_determinant_root,
    find_pole,
    fit_power_law,
    im_mu_closed_form,
    mu_lowest_order,
    pole_state,
    sweep_delta,
    window_index,
)
from layres.specfun import EULER_GAMMA, SpectralParams, gamma_from_gap, gamma_n

PARAMS = SpectralParams(alpha=0.0, beta=0.4)
BASE = disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
SYM = disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.5)


@pytest.fixture(scope="module")
def pole_08():
    st = pole_state(BASE, 0.08, 2, PARAMS, order=8)
    return find_pole(2, 0.08, st), st


@pytest.fixture(scope="module")
def traced_pole_12():
    """Order-12 pole with the point of every eta_l evaluation of its search."""
    st = pole_state(BASE, 0.08, 2, PARAMS, order=12)
    points = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "eta_l",
                   lambda z, *args, **kw: points.append(z) or bs_operator.eta_l(z, *args, **kw))
        res = find_pole(2, 0.08, st)
    return res, st, points


def _flat_eta(z, l, state, diagnostics=None):
    return 1.0 + 0.0j


class TestEmbeddedEigenvalues:
    def test_alpha_zero_classification(self):
        info = embedded_eigenvalues(PARAMS, range(1, 3))
        assert info[0].kind == "discrete" and info[0].window is None
        assert info[0].value == pytest.approx(-0.26095, abs=1e-4)
        assert info[1].kind == "embedded" and info[1].window == 1
        assert info[1].value == pytest.approx(2.73905, abs=1e-4)

    @pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.0, 0.5, 2.0])
    def test_first_eigenvalue_always_discrete(self, alpha):
        p = SpectralParams(alpha=alpha, beta=0.4)
        assert embedded_eigenvalues(p, [1])[0].value < 1.0

    def test_gamma_vanishes_at_eigenvalues(self):
        from layres.specfun import first_sheet
        for info in embedded_eigenvalues(PARAMS, range(1, 21)):
            g = gamma_from_gap(complex(PARAMS.xi_alpha), info.n, first_sheet(), PARAMS)
            assert abs(g) < 1e-12

    def test_threshold_collision_rejected(self):
        # alpha tuned so xi_alpha = -3, putting eps_2 = 1 on the threshold
        alpha = -(EULER_GAMMA + 0.5 * math.log(3.0 / 4.0)) / (2.0 * math.pi)
        p = SpectralParams(alpha=alpha, beta=0.4)
        assert abs(p.xi_alpha + 3.0) < 1e-12
        with pytest.raises(ThresholdCollisionError):
            embedded_eigenvalues(p, [2])

    def test_window_index(self):
        assert window_index(2.739) == 1
        assert window_index(7.739) == 2


class TestFindPole:
    def test_reference_pole(self, pole_08):
        res, _ = pole_08
        assert res.k == 1
        assert res.z.imag < 0.0
        assert res.k**2 < res.z.real < (res.k + 1) ** 2
        assert res.residual < 1e-12
        assert res.mu == pytest.approx(res.z - PARAMS.eigenvalue(2), abs=0)

    def test_mu_shrinks_with_delta(self, pole_08):
        res, _ = pole_08
        st_small = pole_state(BASE, 0.02, 2, PARAMS, order=8)
        small = find_pole(2, 0.02, st_small)
        assert abs(small.mu) < 0.1 * abs(res.mu)
        assert abs(res.mu) < 1e-3

    def test_determinant_root_agrees(self, pole_08):
        res, st = pole_08
        other = find_determinant_root(2, 0.08, st)
        assert abs(other.z - res.z) < 1e-8

    def test_symmetric_plane_pole_stays_embedded(self):
        st = pole_state(SYM, 0.08, 2, PARAMS, order=8)
        res = find_pole(2, 0.08, st)
        assert res.z.real == pytest.approx(PARAMS.eigenvalue(2), abs=1e-12)
        assert abs(res.z.imag) < 1e-12

    def test_discrete_mode_rejected(self):
        with pytest.raises(ValueError):
            pole_state(BASE, 0.08, 1, PARAMS, order=8)

    def test_secant_needs_few_eta_evaluations(self, traced_pole_12):
        res, _, points = traced_pole_12
        assert len(points) <= 6
        assert res.diagnostics["eta_evaluations"] == len(points)
        assert res.iterations == len(points) - 2
        assert res.residual < 1e-12

    def test_diagnostics_cover_every_evaluation(self, traced_pole_12):
        # the worst condition number of each solve over the whole search,
        # not the last evaluation's
        res, st, points = traced_pole_12
        per_point = []
        for z in points:
            d = {}
            bs_operator.eta_l(z, 2, st, diagnostics=d)
            per_point.append(d)
        for key in ("cond[I - beta R_SigmaSigma]", "cond[I - beta G A_l]"):
            assert res.diagnostics[key] == max(d[key] for d in per_point)
        assert res.diagnostics["n_nodes"] == 144

    def test_flat_eta_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(resonance, "eta_l", _flat_eta)
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        with pytest.raises(ConvergenceError):
            find_pole(2, 0.08, st)

    def test_iteration_budget_exhausted(self, pole_08):
        _, st = pole_08
        with pytest.raises(ConvergenceError):
            find_pole(2, 0.08, st, max_iter=1)

    def test_above_axis_result_rejected(self):
        with pytest.raises(ArithmeticError):
            PoleResult(z=2.7 + 1e-6j, mu=0.0, l=2, k=1, delta=0.1, residual=0.0,
                       iterations=1, diagnostics={})


class TestLowestOrder:
    def test_agrees_with_pole_at_small_delta(self):
        st = pole_state(BASE, 0.02, 2, PARAMS, order=8)
        res = find_pole(2, 0.02, st)
        mu0 = mu_lowest_order(2, 0.02, st)
        assert abs(mu0 - res.mu) / abs(res.mu) < 0.2

    def test_real_part_scales_with_area(self):
        deltas = np.array([0.02, 0.04, 0.08])
        vals = []
        for d in deltas:
            st = pole_state(BASE, d, 2, PARAMS, order=6)
            vals.append(abs(mu_lowest_order(2, d, st).real))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_beta_sign(self):
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        stm = pole_state(BASE, 0.05, 2, SpectralParams(alpha=0.0, beta=-0.4), order=6)
        a = mu_lowest_order(2, 0.05, st)
        b = mu_lowest_order(2, 0.05, stm)
        # leading (odd-in-beta) real part flips; the beta^2 imaginary part stays
        assert abs(a.real + b.real) < 0.05 * abs(a.real)
        assert a.imag == pytest.approx(b.imag, rel=1e-12)

    def test_matches_per_mode_loop(self):
        # reference: one mode vector and one pairing per mode; the batched
        # pairings only sum in another order
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        rule, ctx, w = st.rule, st.ctx, st.rule.weights
        eps = complex(PARAMS.eigenvalue(2))
        w_l = bs_operator.mode_vector(eps, 2, rule, ctx)
        cross = 0.0 + 0.0j
        for n in range(1, st.n_cut + 1):
            if n != 2:
                w_n = bs_operator.mode_vector(eps, n, rule, ctx)
                cross += complex(np.sum(w * w_l * w_n)) ** 2 / gamma_n(eps, n, ctx, PARAMS)
        dressed = complex(np.sum(w * w_l * st.free_op(eps).apply(w_l)))
        want = 4.0 * math.pi * PARAMS.xi_alpha * PARAMS.beta * (
            complex(np.sum(w * w_l * w_l)) + PARAMS.beta * (cross + dressed))
        assert abs(mu_lowest_order(2, 0.05, st) - want) <= 1e-12 * abs(want)


class TestImClosedForm:
    def test_negative_and_matches_pole(self, pole_08):
        res, st = pole_08
        cf = im_mu_closed_form(2, 0.08, st)
        assert cf < 0.0
        assert 0.75 < res.mu.imag / cf < 1.25

    def test_exactly_even_in_beta(self):
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        stm = pole_state(BASE, 0.05, 2, SpectralParams(alpha=0.0, beta=-0.4), order=6)
        assert im_mu_closed_form(2, 0.05, st) == im_mu_closed_form(2, 0.05, stm)

    def test_quartic_scaling(self):
        deltas = np.array([0.02, 0.04, 0.08])
        vals = []
        for d in deltas:
            st = pole_state(BASE, d, 2, PARAMS, order=6)
            vals.append(-im_mu_closed_form(2, d, st))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_symmetric_plane_vanishes(self):
        # chi_2(pi/2) only vanishes to roundoff, so "exact zero" means the
        # square of a ~1e-16 residue
        st = pole_state(SYM, 0.08, 2, PARAMS, order=8)
        assert abs(im_mu_closed_form(2, 0.08, st)) < 1e-30


class TestFitPowerLaw:
    def test_exact_square(self):
        pts = [(x, x**2) for x in (0.5, 1.0, 2.0, 4.0)]
        p, c, r2 = fit_power_law(pts)
        assert p == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_prefactor(self):
        pts = [(x, 3.0 * x**4) for x in (0.1, 0.2, 0.4, 0.8)]
        p, c, r2 = fit_power_law(pts)
        assert p == pytest.approx(4.0, abs=1e-12)
        assert c == pytest.approx(3.0, abs=1e-12)

    def test_noisy_exponent(self):
        xs = np.geomspace(0.01, 1.0, 12)
        pts = [(x, x**4 * (1.0 + 0.01 * (-1.0) ** i)) for i, x in enumerate(xs)]
        p, _, _ = fit_power_law(pts)
        assert 3.95 < p < 4.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 4.0)])

    def test_degenerate_abscissa(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, -1.0), (2.0, 4.0), (3.0, 9.0)])


class TestSweep:
    def test_mini_sweep(self, monkeypatch):
        builds = []
        build = bs_operator.singular_part_matrix
        monkeypatch.setattr(bs_operator, "singular_part_matrix",
                            lambda rule: builds.append(rule) or build(rule))
        base_state = pole_state(BASE, 1.0, 2, PARAMS, order=6)
        sw = sweep_delta(2, [0.02, 0.035, 0.06, 0.1], base_state)
        assert not sw.failures
        assert [b.surface for b in builds] == [BASE]  # one build, on the base rule
        assert [res.delta for res in sw.poles] == [0.02, 0.035, 0.06, 0.1]
        assert 3.5 < sw.fit_im[0] < 4.5
        assert 1.8 < sw.fit_re[0] < 2.2
        assert sw.fit_im[2] > 0.99
        for (_, mu), cf in zip(sw.points, sw.closed_form_im):
            assert mu.imag < 0.0
            assert cf < 0.0

    def test_poles_pinned(self):
        # 17-digit poles recorded at commit 54a7e27, where every mode vector
        # was built on its own; refactors must not move them
        res = find_pole(2, 0.08, pole_state(BASE, 0.08, 2, PARAMS, order=6))
        assert abs(res.z - complex(2.7389992754637413, -8.3332677049346686e-09)) <= 1e-12
        pinned = [(0.02, complex(2.7390496577400354, -3.2257848907156498e-11)),
                  (0.035, complex(2.7390427632041172, -3.0326857089933782e-10)),
                  (0.06, complex(2.739022848417632, -2.6291310898165579e-09)),
                  (0.1, complex(2.7389688444957905, -2.0400351833858323e-08))]
        sw = sweep_delta(2, [d for d, _ in pinned], pole_state(BASE, 1.0, 2, PARAMS, order=6))
        assert [res.delta for res in sw.poles] == [d for d, _ in pinned]
        for res, (_, z) in zip(sw.poles, pinned):
            assert abs(res.z - z) <= 1e-12

    def test_warm_start_matches_cold_poles(self):
        deltas = [0.02, 0.035, 0.06, 0.1]
        base_state = pole_state(BASE, 1.0, 2, PARAMS, order=6)
        warm = sweep_delta(2, deltas, base_state)
        cold = [find_pole(2, d, pole_state(BASE, d, 2, PARAMS, order=6,
                                           singular_base=base_state.singular_base))
                for d in deltas]
        for w, c in zip(warm.poles, cold):
            assert abs(w.z - c.z) < 1e-12
        # points after the first start from the delta^2 extrapolation
        assert sum(w.diagnostics["eta_evaluations"] for w in warm.poles[1:]) \
            < sum(c.diagnostics["eta_evaluations"] for c in cold[1:])

    def test_failed_point_recorded(self, monkeypatch):
        eta = resonance.eta_l
        monkeypatch.setattr(resonance, "eta_l", lambda z, l, state, diagnostics=None:
                            _flat_eta(z, l, state) if state.delta == 0.035
                            else eta(z, l, state, diagnostics=diagnostics))
        base_state = pole_state(BASE, 1.0, 2, PARAMS, order=6)
        sw = sweep_delta(2, [0.02, 0.035, 0.06, 0.1, 0.12], base_state)
        assert [d for d, _ in sw.failures] == [0.035]
        assert "root iteration failed" in sw.failures[0][1]
        assert [res.delta for res in sw.poles] == [0.02, 0.06, 0.1, 0.12]

    def test_unsorted_deltas_rejected(self):
        base_state = pole_state(BASE, 1.0, 2, PARAMS, order=6)
        with pytest.raises(ValueError):
            sweep_delta(2, [0.1, 0.05, 0.2, 0.3], base_state)

    def test_scaled_start_rejected(self):
        with pytest.raises(ValueError, match="unscaled"):
            sweep_delta(2, [0.02, 0.035, 0.06, 0.1], pole_state(BASE, 0.5, 2, PARAMS, order=4))

    def test_foreign_singular_base_rejected(self):
        other = pole_state(SYM, 1.0, 2, PARAMS, order=4).singular_base
        with pytest.raises(ValueError, match="singular_base"):
            pole_state(BASE, 0.08, 2, PARAMS, order=4, singular_base=other)


class TestDerivativeLaw:
    @pytest.mark.parametrize("l", [2, 3])
    def test_gamma_slope_at_eigenvalue(self, l):
        from layres.specfun import second_sheet
        eps = PARAMS.eigenvalue(l)
        ctx = second_sheet(window_index(eps))
        h = 1e-6
        d = (gamma_n(eps + h, l, ctx, PARAMS) - gamma_n(eps - h, l, ctx, PARAMS)) / (2 * h)
        want = 1.0 / (4.0 * math.pi * PARAMS.xi_alpha)
        assert abs(d - want) < 1e-8
