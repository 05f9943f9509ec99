import cmath
import dataclasses
import math

import numpy as np
import pytest

from layres import bs_operator, resonance
from layres.bs_operator import SystemState, pair_layout
from layres.geometry import build_quadrature, disk, rectangle_patch, scale_surface, \
    spherical_cap
from layres.greens import chi_n
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
from layres.specfun import EULER_GAMMA, SpectralParams, first_sheet, gamma_from_gap, \
    gamma_n, second_sheet

PARAMS = SpectralParams(alpha=0.0, beta=0.4)
BASE = disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
SYM = disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.5)
#: the benchmark's rectangle, 0.1 from the wire
WIRE_RECT = rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0.0, 1.0, 0.0),
                            direction2=(0.0, 0.0, 1.0), length1=0.6, length2=0.6)
#: 4.3 from the wire; alpha = 0.3 puts eps_2 = 3.97 just below the top of J_1
FAR = disk(center=(4.8, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
#: a whole sphere whose search for the l = 5 pole at delta = 1 runs onto z = l^2
SPHERE = spherical_cap(sphere_center=(2.0, 0.0, 1.5), radius=0.6, polar_angle=math.pi)
SPHERE_PARAMS = SpectralParams(alpha=0.2, beta=3.0)


@pytest.fixture(scope="module")
def pole_08():
    st = pole_state(BASE, 0.08, 2, PARAMS, order=8)
    return find_pole(st), st


@pytest.fixture(scope="module")
def traced_pole_12():
    """Order-12 pole with the point of every eta_l evaluation of its search."""
    st = pole_state(BASE, 0.08, 2, PARAMS, order=12)
    points = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "eta_l",
                   lambda z, *args, **kw: points.append(z) or bs_operator.eta_l(z, *args, **kw))
        res = find_pole(st)
    return res, st, points


def _flat_eta(z, state, diagnostics=None):
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

    @pytest.mark.parametrize("value", [0.5, -0.26])
    def test_window_index_refuses_discrete_values(self, value):
        with pytest.raises(ValueError,
                           match=f"eigenvalue {value} lies below the first threshold 1"):
            window_index(value)


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
        small = find_pole(st_small)
        assert abs(small.mu) < 0.1 * abs(res.mu)
        assert abs(res.mu) < 1e-3

    def test_determinant_root_agrees(self, pole_08):
        res, st = pole_08
        other = find_determinant_root(st)
        assert abs(other.z - res.z) < 1e-8

    def test_symmetric_plane_pole_stays_embedded(self):
        st = pole_state(SYM, 0.08, 2, PARAMS, order=8)
        res = find_pole(st)
        assert res.z.real == pytest.approx(PARAMS.eigenvalue(2), abs=1e-12)
        assert abs(res.z.imag) < 1e-12
        # Im mu is 0, so no error is small against it: the search ends at the
        # rounding floor of g and reports that floor as its error
        assert res.diagnostics["stop"] == "floor"
        assert res.diagnostics["root_error"] == res.residual < 1e-15

    def test_delta_comes_from_the_state(self, pole_08):
        res, st = pole_08
        assert st.rule.delta == 0.08 and res.delta == 0.08
        assert find_determinant_root(st).delta == 0.08

    def test_copy_state_is_made_from_its_layout(self, pole_08):
        # the copy's rule and corrections come together from PairLayout.scaled,
        # whose state gives pole_state's pole bit for bit; the copy's rule
        # alone is refused, since the unscaled surface and the scaled nodes
        # would give it corrections of neither
        res, _ = pole_08
        base = build_quadrature(BASE, 8)
        rmin = next(scale_surface(BASE, [0.08]))
        st = SystemState(PARAMS, pair_layout(base).scaled(0.08, rmin), second_sheet(1), 2)
        assert find_pole(st).z == res.z
        with pytest.raises(ValueError, match="PairLayout.scaled"):
            pair_layout(base.scaled(0.08, rmin))

    def test_state_names_its_eigenvalue(self, pole_08):
        res, st = pole_08
        assert st.l == 2 and res.l == 2
        res3 = find_pole(pole_state(BASE, 0.08, 3, PARAMS, order=4))
        assert (res3.l, res3.k) == (3, 2)

    def test_state_outside_its_window_refused(self, pole_08):
        # eps_3 lies in J_2, but the state of eps_2 continues through J_1
        _, st = pole_08
        with pytest.raises(ValueError, match=r"l = 3: eps_l = 7\.73.* J_1 = \(1, 4\)"):
            dataclasses.replace(st, l=3)
        # the first sheet is one sheet for every l
        assert dataclasses.replace(st, ctx=first_sheet(), l=3).l == 3

    def test_discrete_mode_rejected(self):
        with pytest.raises(ValueError):
            pole_state(BASE, 0.08, 1, PARAMS, order=8)

    def test_secant_needs_few_eta_evaluations(self, traced_pole_12):
        res, st, points = traced_pole_12
        assert len(points) <= 3
        assert res.diagnostics["eta_evaluations"] == len(points)
        assert res.iterations == len(points) - 2
        assert res.residual < 1e-12
        # the second point is F(z0) = z0 - g(z0), the first step of the fixed point
        z0 = points[0]
        g0 = (z0 - 4) * -np.expm1(-4.0 * math.pi * bs_operator.eta_l(z0, st))
        assert points[1] == z0 - g0

    def test_diagnostics_cover_every_evaluation(self, traced_pole_12):
        # the worst condition number of each solve and the most Neumann
        # terms over the whole search, not the last evaluation's
        res, st, points = traced_pole_12
        per_point = []
        for z in points:
            d = {}
            bs_operator.eta_l(z, st, diagnostics=d)
            per_point.append(d)
        key = "cond[I - beta (R_SigmaSigma + A_l)]"
        assert [k for k in res.diagnostics if k.startswith("cond[")] == [key]
        assert res.diagnostics[key] == max(d[key] for d in per_point)
        assert res.diagnostics["neumann_terms"] == max(d["neumann_terms"] for d in per_point)
        assert res.diagnostics["n_nodes"] == 144

    def test_flat_eta_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(resonance, "eta_l", _flat_eta)
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        seed = complex(PARAMS.eigenvalue(2))
        # the secant's second start point is F(seed) = seed - g(seed), with
        # g = (z - l^2)(1 - exp(-4 pi eta)); no step is allowed after it
        g0 = (seed - 4) * complex(-np.expm1(-4.0 * math.pi))
        stop = seed - g0
        g1 = abs(g0) * math.exp(-4.0 * math.pi)  # F contracts by exp(-4 pi)
        with monkeypatch.context() as patch, pytest.raises(ConvergenceError) as info:
            patch.setattr(resonance, "_MAX_ITER", 0)
            find_pole(st)
        assert str(info.value) == (f"root iteration failed after 0 steps from z = {seed}: "
                                   f"stopped at z = {stop} with |f| = {g1:.3g}")
        # eta has no root, so F has only its spurious fixed point l^2 = 4, the
        # top of J_1, where g vanishes whatever eta is; it is refused there
        with pytest.raises(ConvergenceError) as info:
            find_pole(st)
        assert str(info.value) == ("root iteration stopped at z = (4+0j), where g vanishes "
                                   "but eta_l = 1+0j is not 0")

    def test_fixed_point_on_another_branch_refused(self, monkeypatch):
        # eta = Gamma_l(z) - Gamma_l(root) + i/2: exp(-4 pi eta) is the same
        # as without the i/2, so F(seed) is the root, but eta_l is i/2 there
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        root = PARAMS.eigenvalue(2) + 2e-3 - 3e-6j
        monkeypatch.setattr(resonance, "eta_l", lambda z, state, diagnostics=None:
                            gamma_n(z, 2, state.ctx, PARAMS)
                            - gamma_n(root, 2, state.ctx, PARAMS) + 0.5j)
        with pytest.raises(ConvergenceError, match=r"but eta_l = .*0\.5j is not 0$"):
            find_pole(st)

    @pytest.mark.parametrize("root, at_seed", [(4.5 - 0.01j, False), (1e3, True)],
                             ids=["far-root", "at-seed"])
    def test_overflowing_exponential_stops_the_search(self, monkeypatch, root, at_seed):
        # exp(-4 pi eta) overflows, at F(seed) = -5.1e9 for a root far in J_2
        # and at the seed for a root at 1e3: g is infinite there, the search
        # ends in a ConvergenceError and numpy warns of nothing
        monkeypatch.setattr(resonance, "eta_l", lambda z, state, diagnostics=None: z - root)
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        seed = complex(PARAMS.eigenvalue(2))
        with pytest.raises(ConvergenceError, match=r"after 0 steps .* with \|f\| = inf$") as info:
            find_pole(st)
        assert (f"stopped at z = {seed} " in str(info.value)) is at_seed

    def test_seed_on_the_root_is_the_root(self, monkeypatch):
        # eta vanishes at the seed, so |g| < tol there and F(seed) = seed is
        # returned after no step
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        root = complex(PARAMS.eigenvalue(2)) - 1e-4 - 1e-6j
        monkeypatch.setattr(resonance, "eta_l",
                            lambda z, state, diagnostics=None: (z - root) * 1e-3)
        res = find_pole(st, seed=root)
        assert (res.z, res.residual, res.iterations) == (root, 0.0, 0)
        assert res.diagnostics["eta_evaluations"] == 1
        assert (res.diagnostics["stop"], res.diagnostics["root_error"]) == ("exact", 0.0)
        assert "contraction" not in res.diagnostics

    def test_tolerance_alone_does_not_stop(self, monkeypatch):
        # F(z) = root + q (z - root) with q = 1/4, from a seed 1.2e-12 off the
        # root: |g| is below ROOT_TOL at F(seed) already, but q |g| / (1 - q)
        # is not small against Im mu = -1e-6, so the search takes a step
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        root, q = PARAMS.eigenvalue(2) + 1e-4 - 1e-6j, 0.25
        monkeypatch.setattr(resonance, "eta_l", lambda z, state, diagnostics=None:
                            -cmath.log((root - 4 + q * (z - root)) / (z - 4)) / (4 * math.pi))
        res = find_pole(st, seed=root + 1.2e-12)
        assert res.iterations == 1 and res.diagnostics["stop"] == "relative"
        assert res.diagnostics["contraction"] == pytest.approx(q, rel=1e-3)
        assert res.diagnostics["root_error"] <= resonance.ROOT_REL_TOL * 1e-6
        assert abs(res.z - root) <= 1e-21  # one spacing of doubles at Im z = -1e-6

    def test_flat_determinant_stops_at_the_blind_point(self, monkeypatch):
        # Gamma_l det has no known slope: its second point stays z0 + 1e-7 |z0|
        monkeypatch.setattr(resonance, "gamma_n", lambda z, l, ctx, params: 1.0)
        monkeypatch.setattr(resonance, "bs_determinant", lambda z, state: 1.0 + 0.0j)
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        seed = PARAMS.eigenvalue(2) - 1e-4 - 1e-5j
        stop = seed + 1e-7 * abs(seed)
        with pytest.raises(ConvergenceError) as info:
            find_determinant_root(st)
        assert str(info.value) == (f"root iteration failed after 0 steps from z = {seed}: "
                                   f"stopped at z = {stop} with |f| = 1")

    def test_fixed_point_start_saves_evaluations(self, monkeypatch):
        # a stand-in eta = Gamma_l(z) - Gamma_l(root) with a root mu away
        # from eps_l: F inverts Gamma_l exactly, so F(seed) is the root and
        # the search ends there after two evaluations, fewer than the blind
        # start of the determinant route needs from the same seed
        st = pole_state(BASE, 0.08, 2, PARAMS, order=4)
        eps = PARAMS.eigenvalue(2)
        root = eps + 2e-3 - 3e-6j
        calls = []

        def stand_in(z, state, diagnostics=None):
            calls.append(z)
            return gamma_n(z, 2, state.ctx, PARAMS) - gamma_n(root, 2, state.ctx, PARAMS)

        monkeypatch.setattr(resonance, "eta_l", stand_in)
        monkeypatch.setattr(resonance, "gamma_n", lambda z, l, ctx, params: 1.0)
        monkeypatch.setattr(resonance, "bs_determinant", lambda z, state: stand_in(z, state))
        fixed_point = find_pole(st, seed=eps)
        n_fixed_point, calls[:] = len(calls), []
        blind = find_determinant_root(st, seed=eps)
        assert fixed_point.z == pytest.approx(root, abs=1e-13)
        assert blind.z == pytest.approx(root, abs=1e-13)
        assert n_fixed_point == fixed_point.diagnostics["eta_evaluations"] == 2 < len(calls)
        assert fixed_point.iterations == 0

    @pytest.mark.parametrize("order", [6, 16])
    def test_spurious_root_at_l_squared_ends_the_search(self, order, monkeypatch):
        # g = (z - l^2)(1 - exp(-4 pi eta_l)) vanishes at z = l^2 = 25 whatever
        # eta_l is; the search reaches it and used to run all 50 steps there
        calls = []
        real = resonance.eta_l

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        st = pole_state(SPHERE, 1.0, 5, SPHERE_PARAMS, order=order)
        monkeypatch.setattr(resonance, "eta_l", counted)
        with pytest.raises(ConvergenceError, match="g vanishes|escaped the window J_4"):
            find_pole(st)
        assert len(calls) <= 15 and abs(calls[-1] - 25.0) < 1e-13

    def test_iteration_budget_exhausted(self, pole_08, monkeypatch):
        res, st = pole_08
        assert res.iterations >= 1
        monkeypatch.setattr(resonance, "_MAX_ITER", res.iterations - 1)
        with pytest.raises(ConvergenceError):
            find_pole(st)

    def test_above_axis_result_rejected(self):
        with pytest.raises(ArithmeticError):
            PoleResult(z=2.7 + 1e-6j, mu=0.0, l=2, k=1, delta=0.1, residual=0.0,
                       iterations=1, diagnostics={})


def _linear_routes(monkeypatch, root):
    """Replace the function of both root routes by the linear z - root.

    For the eta route that function is g = (z - l^2)(1 - exp(-4 pi eta)),
    which eta = Gamma_l(z) - Gamma_l(root) makes z - root: F inverts Gamma_l.
    """
    monkeypatch.setattr(resonance, "eta_l", lambda z, state, diagnostics=None:
                        gamma_n(z, 2, state.ctx, PARAMS) - gamma_n(root, 2, state.ctx, PARAMS))
    monkeypatch.setattr(resonance, "gamma_n", lambda z, l, ctx, params: 1.0)
    monkeypatch.setattr(resonance, "bs_determinant", lambda z, state: z - root)


@pytest.fixture(scope="module")
def state4():
    return pole_state(BASE, 0.08, 2, PARAMS, order=4)


@pytest.mark.parametrize("route", [find_pole, find_determinant_root],
                         ids=["eta", "determinant"])
class TestRootDriver:
    def test_linear_stand_in_converges(self, route, state4, monkeypatch):
        root = PARAMS.eigenvalue(2) - 0.01 - 0.001j
        _linear_routes(monkeypatch, root)
        res = route(state4)
        assert res.z == pytest.approx(root, abs=1e-14) and res.k == 1
        assert res.mu == res.z - PARAMS.eigenvalue(2)
        assert res.diagnostics["n_nodes"] == 16

    def test_root_outside_window_raises(self, route, state4, monkeypatch):
        # eps_2 lies in J_1 = (1, 4); the only root lies in J_2
        _linear_routes(monkeypatch, 4.5 - 0.01j)
        with pytest.raises(ConvergenceError, match="escaped the window J_1"):
            route(state4)

    def test_one_iteration_is_not_enough(self, route, state4, monkeypatch):
        # the determinant's first secant step lands on the root but is itself
        # far above tol; the eta route stops on |g| alone, so it is given the
        # linear eta = z - root, whose g F(seed) and one step do not solve
        root = PARAMS.eigenvalue(2) - 0.01 - 0.001j
        _linear_routes(monkeypatch, root)
        if route is find_pole:
            monkeypatch.setattr(resonance, "eta_l",
                                lambda z, state, diagnostics=None: z - root)
        monkeypatch.setattr(resonance, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="root iteration failed"):
            route(state4)


def test_determinant_seed_on_the_root_still_steps(state4, monkeypatch):
    # the determinant route stops on |f| and the last step together, so a
    # seed on the root is left for the blind point and found again two
    # secant steps later (the eta route stops there at once, see above)
    root = PARAMS.eigenvalue(2) - 0.01 - 0.001j
    _linear_routes(monkeypatch, root)
    points = []
    monkeypatch.setattr(resonance, "bs_determinant",
                        lambda z, state: points.append(z) or z - root)
    res = find_determinant_root(state4, seed=root)
    assert points[:2] == [root, root + 1e-7 * abs(root)]
    assert res.z == pytest.approx(root, abs=1e-15) and res.iterations == 2


class TestModeCutoff:
    @pytest.mark.parametrize("surface, params, l, delta, order, n_cut", [
        (BASE, PARAMS, 2, 0.02, 14, 14), (BASE, PARAMS, 2, 0.12, 14, 14),
        (WIRE_RECT, PARAMS, 3, 0.05, 12, 138), (WIRE_RECT, PARAMS, 3, 0.4, 12, 138),
        (FAR, SpectralParams(alpha=0.3, beta=0.4), 2, 1.0, 8, 3),
    ], ids=["disk-0.02", "disk-0.12", "rectangle-0.05", "rectangle-0.4", "far-disk"])
    def test_pole_at_the_default_cutoff_is_converged(self, surface, params, l, delta,
                                                     order, n_cut):
        # the modes past the default cutoff, e^(-2 kappa_n r_min) <= 1e-12, do
        # not move the pole: twice as many give it again
        st = pole_state(surface, delta, l, params, order=order)
        assert st.n_cut == n_cut
        doubled = SystemState(params, st.layout, st.ctx, l, n_cut=2 * n_cut)
        a, b = find_pole(st), find_pole(doubled)
        assert abs(a.z - b.z) <= 1e-15
        assert abs(a.mu.imag - b.mu.imag) <= 1e-12 * abs(a.mu.imag)


class TestLowestOrder:
    def test_one_mode_table(self, monkeypatch):
        # w_l and the rank sum of A_l come from one mode_vector call
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        calls = []
        real = bs_operator.mode_vector

        def counted(z, n, *args):
            calls.append(np.asarray(n))
            return real(z, n, *args)

        monkeypatch.setattr(bs_operator, "mode_vector", counted)
        monkeypatch.setattr(resonance, "mode_vector", counted)
        mu_lowest_order(st)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.arange(1, st.n_cut + 1))

    def test_agrees_with_pole_at_small_delta(self):
        st = pole_state(BASE, 0.02, 2, PARAMS, order=8)
        res = find_pole(st)
        mu0 = mu_lowest_order(st)
        assert abs(mu0 - res.mu) / abs(res.mu) < 0.2

    def test_real_part_scales_with_area(self):
        deltas = np.array([0.02, 0.04, 0.08])
        vals = []
        for d in deltas:
            st = pole_state(BASE, d, 2, PARAMS, order=6)
            vals.append(abs(mu_lowest_order(st).real))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_beta_sign(self):
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        stm = pole_state(BASE, 0.05, 2, SpectralParams(alpha=0.0, beta=-0.4), order=6)
        a = mu_lowest_order(st)
        b = mu_lowest_order(stm)
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
        free = bs_operator.assemble_free(eps, st)
        dressed = complex(np.sum(w * w_l * (free @ w_l)))
        want = 4.0 * math.pi * PARAMS.xi_alpha * PARAMS.beta * (
            complex(np.sum(w * w_l * w_l)) + PARAMS.beta * (cross + dressed))
        assert abs(mu_lowest_order(st) - want) <= 1e-12 * abs(want)


class TestImClosedForm:
    def test_negative_and_matches_pole(self, pole_08):
        res, st = pole_08
        cf = im_mu_closed_form(st)
        assert cf < 0.0
        assert 0.75 < res.mu.imag / cf < 1.25

    @pytest.mark.parametrize("l", [2, 3], ids=["k1", "k2"])
    def test_matches_the_expansion_per_open_mode(self, l):
        # Gamma_n(eps_l) = iota - i/4 for n <= k, so with the pairing p:
        # 4 Im(p^2 / Gamma_n) = (8 iota Re p Im p + (Re p)^2 - (Im p)^2) / (iota^2 + 1/16)
        st = pole_state(BASE, 0.08, l, PARAMS, order=6)
        rule, ctx, eps = st.rule, st.ctx, PARAMS.eigenvalue(l)
        w_l = rule.weights * bs_operator.mode_vector(complex(eps), l, rule, ctx)
        want = 0.0
        for n in range(1, ctx.k + 1):
            p = complex(np.sum(w_l * bs_operator.mode_vector(complex(eps), n, rule, ctx)))
            iota = (2.0 * math.pi * PARAMS.alpha + math.log(math.sqrt(eps - n * n) / 2.0)
                    + EULER_GAMMA) / (2.0 * math.pi)
            coupling = float(np.real(np.sum(w_l * chi_n(n, rule.nodes[:, 2]))))
            want += (8.0 * iota * p.real * p.imag + p.real**2 - p.imag**2) \
                / (iota**2 + 0.0625) + coupling**2
        want *= math.pi * PARAMS.xi_alpha * PARAMS.beta**2
        assert ctx.k == l - 1
        assert abs(im_mu_closed_form(st) - want) <= 1e-14 * abs(want)

    def test_exactly_even_in_beta(self):
        st = pole_state(BASE, 0.05, 2, PARAMS, order=6)
        stm = pole_state(BASE, 0.05, 2, SpectralParams(alpha=0.0, beta=-0.4), order=6)
        assert im_mu_closed_form(st) == im_mu_closed_form(stm)

    def test_quartic_scaling(self):
        deltas = np.array([0.02, 0.04, 0.08])
        vals = []
        for d in deltas:
            st = pole_state(BASE, d, 2, PARAMS, order=6)
            vals.append(-im_mu_closed_form(st))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_symmetric_plane_vanishes(self):
        # chi_2(pi/2) only vanishes to roundoff, so "exact zero" means the
        # square of a ~1e-16 residue
        st = pole_state(SYM, 0.08, 2, PARAMS, order=8)
        assert abs(im_mu_closed_form(st)) < 1e-30


@pytest.mark.parametrize("call, message", [
    (lambda: embedded_eigenvalues(PARAMS, [0]), "mode indices start at 1"),
    (lambda: sweep_delta(5, [0.1, 0.3, 0.6, 1.0], SPHERE, SPHERE_PARAMS, order=6),
     "only 3 poles converged; need >= 4 to fit"),
], ids=["mode-index-zero", "too-few-poles"])
def test_refusal(call, message):
    with pytest.raises((ValueError, ArithmeticError)) as info:
        call()
    assert str(info.value) == message


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
        builds, layouts = [], []
        build = bs_operator.singular_part_matrix
        monkeypatch.setattr(bs_operator, "singular_part_matrix",
                            lambda rule, **kw: builds.append(rule) or build(rule, **kw))
        layout = bs_operator.pair_layout
        for module in (bs_operator, resonance):
            monkeypatch.setattr(module, "pair_layout",
                                lambda rule: layouts.append(rule) or layout(rule))
        sw = sweep_delta(2, [0.02, 0.035, 0.06, 0.1], BASE, PARAMS, order=6)
        assert not sw.failures
        # one singular build and one pair layout, both on the unscaled rule
        assert [b.surface for b in builds] == [BASE]
        assert [r.surface for r in layouts] == [BASE]
        assert [res.delta for res in sw.poles] == [0.02, 0.035, 0.06, 0.1]
        assert 3.5 < sw.fit_im[0] < 4.5
        assert 1.8 < sw.fit_re[0] < 2.2
        assert sw.fit_im[2] > 0.99
        for res, cf in zip(sw.poles, sw.closed_form_im):
            assert res.mu.imag < 0.0
            assert cf < 0.0

    def test_fewer_than_four_deltas_refused_before_any_pole(self, monkeypatch):
        def no_pole(*args, **kwargs):
            raise AssertionError("a pole was computed")

        for name in ("pair_layout", "_delta_states", "find_pole"):
            monkeypatch.setattr(resonance, name, no_pole)
        with pytest.raises(ValueError, match="at least 4 deltas"):
            sweep_delta(2, [0.02, 0.04, 0.08], BASE, PARAMS, order=4)

    def test_discrete_mode_refused_before_any_layout(self, monkeypatch):
        def no_layout(*args, **kwargs):
            raise AssertionError("a layout was built")

        for name in ("build_quadrature", "pair_layout"):
            monkeypatch.setattr(resonance, name, no_layout)
        with pytest.raises(ValueError, match="discrete"):
            sweep_delta(1, [0.02, 0.035, 0.06, 0.1], BASE, PARAMS, order=4)

    def test_poles_pinned(self):
        # 17-digit poles recorded at commit 54a7e27, where every mode vector
        # was built on its own; refactors must not move them
        res = find_pole(pole_state(BASE, 0.08, 2, PARAMS, order=6))
        assert abs(res.z - complex(2.7389992754637413, -8.3332677049346686e-09)) <= 1e-12
        pinned = [(0.02, complex(2.7390496577400354, -3.2257848907156498e-11)),
                  (0.035, complex(2.7390427632041172, -3.0326857089933782e-10)),
                  (0.06, complex(2.739022848417632, -2.6291310898165579e-09)),
                  (0.1, complex(2.7389688444957905, -2.0400351833858323e-08))]
        sw = sweep_delta(2, [d for d, _ in pinned], BASE, PARAMS, order=6)
        assert [res.delta for res in sw.poles] == [d for d, _ in pinned]
        for res, (_, z) in zip(sw.poles, pinned):
            assert abs(res.z - z) <= 1e-12

    def test_warm_start_matches_cold_poles(self):
        deltas = [0.02, 0.035, 0.06, 0.1]
        warm = sweep_delta(2, deltas, BASE, PARAMS, order=6)
        cold = [find_pole(pole_state(BASE, d, 2, PARAMS, order=6)) for d in deltas]
        for w, c in zip(warm.poles, cold):
            assert abs(w.z - c.z) < 1e-12
        # points after the first start from the predictor through the poles
        # before them
        assert sum(w.diagnostics["eta_evaluations"] for w in warm.poles[1:]) \
            < sum(c.diagnostics["eta_evaluations"] for c in cold[1:])

    def test_failed_point_recorded(self, monkeypatch):
        eta = resonance.eta_l
        monkeypatch.setattr(resonance, "eta_l", lambda z, state, diagnostics=None:
                            _flat_eta(z, state) if state.rule.delta == 0.035
                            else eta(z, state, diagnostics=diagnostics))
        sw = sweep_delta(2, [0.02, 0.035, 0.06, 0.1, 0.12], BASE, PARAMS, order=6)
        assert [d for d, _ in sw.failures] == [0.035]
        # a flat eta drives F to its spurious fixed point l^2 (see above)
        assert sw.failures[0][1].startswith("root iteration stopped at z = (4+0j)")
        assert [res.delta for res in sw.poles] == [0.02, 0.06, 0.1, 0.12]

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_predictor_reproduces_its_powers(self, count):
        # mu = c2 delta^2 + c3 delta^3 + c4 delta^4 is predicted exactly from
        # three poles, its first two powers from two and c2 delta^2 from one;
        # only the last three poles count
        eps = PARAMS.eigenvalue(2)
        powers = [(2, -5e-3 - 1e-7j), (3, 2e-2 + 3e-7j), (4, -0.1 - 2e-6j)][:min(count, 3)]

        def mu(d):
            return sum(c * d**p for p, c in powers)

        deltas = [0.01, 0.02, 0.03, 0.05][-count:]
        poles = [PoleResult(z=eps + mu(d), mu=mu(d), l=2, k=1, delta=d, residual=0.0,
                            iterations=0, diagnostics={}) for d in deltas]
        predicted = resonance._predicted_pole(eps, poles, 0.08)
        assert abs(predicted - (eps + mu(0.08))) <= 1e-15 * abs(mu(0.08)) + 4.5e-16

    def test_predictor_stops_where_its_series_diverges(self):
        # poles at the rounding floor, 1e-16 off mu = c2 delta^2, at deltas
        # below 2e-4: their divided differences are noise, which the cubic
        # through them carries to delta = 0.15 as a miss of 0.34, 3000 times
        # mu; its last Newton term is larger than the one before, so it is
        # left out, and the miss is 4 % of mu
        eps, c2 = PARAMS.eigenvalue(2), -5e-3 - 1e-7j
        poles = [PoleResult(z=eps + c2 * d * d + e, mu=c2 * d * d + e, l=2, k=1, delta=d,
                            residual=0.0, iterations=0, diagnostics={})
                 for d, e in [(1e-5, 1e-16), (2e-5, -1e-16), (2e-4, 1e-16)]]
        predicted = resonance._predicted_pole(eps, poles, 0.15)
        assert abs(predicted - eps - c2 * 0.15**2) < 0.05 * abs(c2 * 0.15**2)

    def test_unsorted_deltas_rejected(self):
        with pytest.raises(ValueError):
            sweep_delta(2, [0.1, 0.05, 0.2, 0.3], BASE, PARAMS, order=6)


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
