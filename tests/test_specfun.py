import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy import special
from scipy.integrate import quad
from scipy.special import iv, kv

from layres import specfun
from layres.specfun import (
    gamma_from_gap,
    EULER_GAMMA,
    BranchPointError,
    SheetContext,
    SpectralParams,
    bessel_i0,
    erf,
    erfcx,
    exp1,
    first_sheet,
    gamma_n,
    im_positive_sqrt,
    kappa_n,
    macdonald_k0,
    second_sheet,
    z0_kernel,
)


def k0_integral_oracle(w: float) -> float:
    # K0(w) = int_0^inf exp(-w cosh t) dt, independent of the implementation path;
    # split at t=1 so quad resolves both the flat head and the decaying tail
    head, e1 = quad(lambda t: math.exp(-w * math.cosh(t)), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    tail, e2 = quad(lambda t: math.exp(-w * math.cosh(t)), 1.0, 30.0, epsabs=1e-14, epsrel=1e-13)
    assert e1 + e2 < 1e-11
    return head + tail


def k0_scaled_integral_oracle(w: complex) -> complex:
    # K0(w) = e^-w int_0^inf exp(-w (cosh t - 1)) dt for Re w > 0; the scaled
    # integrand has no underflow, and beyond t = top it is below e^-40; the
    # imaginary part, some 1e-7 of the real one, needs only 1e-16 of it absolute
    def part(t, trig):
        return math.exp(-w.real * (math.cosh(t) - 1.0)) * trig(-w.imag * (math.cosh(t) - 1.0))

    top = max(2.0, math.acosh(1.0 + 40.0 / w.real))
    re = quad(part, 0.0, top, args=(math.cos,), epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
    im = quad(part, 0.0, top, args=(math.sin,), epsabs=1e-16 * re, epsrel=1.2e-14, limit=200)[0]
    return complex(re, im) * complex(np.exp(-w))


def i0_series_oracle(w: complex) -> complex:
    total, term = 1.0 + 0.0j, 1.0 + 0.0j
    for m in range(1, 200):
        term *= (w * w / 4.0) / (m * m)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def j0_series_oracle(x: float) -> float:
    total, term = 1.0, 1.0
    for m in range(1, 200):
        term *= -(x * x / 4.0) / (m * m)
        total += term
    return total


class TestSpectralParams:
    def test_xi_alpha_formula(self):
        p = SpectralParams(alpha=0.0, beta=1.0)
        assert p.xi_alpha == pytest.approx(-4.0 * math.exp(-2.0 * EULER_GAMMA), rel=1e-15)
        assert p.xi_alpha < 0

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 0.5, 2.0, 5.0])
    def test_xi_alpha_always_negative(self, alpha):
        assert SpectralParams(alpha=alpha, beta=0.3).xi_alpha < 0

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            SpectralParams(alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("alpha, beta, name", [
        (0.0, math.nan, "beta"), (0.0, math.inf, "beta"),
        (math.nan, 0.4, "alpha"), (math.inf, 0.4, "alpha"),
    ], ids=["beta-nan", "beta-inf", "alpha-nan", "alpha-inf"])
    def test_non_finite_coupling_rejected(self, alpha, beta, name):
        # refused by name, before xi_alpha is formed from alpha
        with pytest.raises(ValueError, match=f"^coupling {name} must be finite, got "):
            SpectralParams(alpha=alpha, beta=beta)


class TestSheetContext:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SheetContext(k=0, second=True)

    def test_window(self):
        assert second_sheet(2).window == (4.0, 9.0)


class TestMacdonaldK0:
    def test_w_equal_one(self):
        # spec value, frozen from the integral-representation oracle
        assert macdonald_k0(1.0) == pytest.approx(0.421024438240708, abs=1e-12)

    def test_against_integral_oracle_grid(self):
        for w in np.linspace(0.1, 10.0, 20):
            assert macdonald_k0(w) == pytest.approx(k0_integral_oracle(w), abs=1e-10)

    def test_large_argument_law(self):
        w = 10.0
        asym = math.sqrt(math.pi / (2 * w)) * math.exp(-w)
        assert abs(macdonald_k0(w) - asym) / asym < 0.013

    def test_small_argument_series(self):
        w = 1e-6
        expected = -math.log(w / 2.0) - EULER_GAMMA
        assert macdonald_k0(w) == pytest.approx(expected, abs=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            macdonald_k0(0.0)

    def test_underflow_policy(self):
        assert macdonald_k0(701.0) == 0.0
        assert macdonald_k0(690.0) != 0.0

    @pytest.mark.parametrize("x", [300.0, 500.0, 0.5, 1.9, 2.1, 7.9, 8.1, 50.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nearly_real_argument_vs_integral(self, x, sign):
        # |Im w| = 1e-7 Re w, the largest ratio macdonald_k0 sends to the
        # Chebyshev series, on both sides of the piece edges x = 2 and x = 8
        w = complex(x, sign * 1e-7 * x)
        want = k0_scaled_integral_oracle(w)
        assert abs(macdonald_k0(w) - want) < 1e-14 * abs(want)

    @pytest.mark.parametrize("l, k", [(2, 1), (3, 2)])
    def test_near_real_route_on_closed_modes(self, l, k):
        # w = kappa_n rho of the closed modes n <= 40, Im z from -1e-10 to
        # -1e-6 below eps_l, as the mode tables of a pole search reach them;
        # all such w with |w| > 2 take the Chebyshev series.  Against the
        # Laplace sum (5e-16 from mpmath) it is at most 1.1e-15 off in Re K0
        # and 1.1e-13 relative in Im K0; the bounds are twice that
        params = SpectralParams(alpha=0.0, beta=0.4)
        rho = np.linspace(0.05, 1.5, 30)
        n = np.arange(k + 1, 41)
        for im_z in -np.geomspace(1e-10, 1e-6, 5):
            kappa = kappa_n(params.eigenvalue(l) + 1j * im_z, n, second_sheet(k))
            w = np.multiply.outer(rho, kappa).ravel()
            w = w[(np.abs(w) > 2.0) & (w.real <= 700.0)]
            assert np.all(np.abs(w.imag) <= specfun._REAL_K0_RATIO * np.abs(w))
            got, want = macdonald_k0(w), specfun._k0_laplace(w)
            assert np.max(np.abs(got.real - want.real) / np.abs(want.real)) <= 2.2e-15
            assert np.max(np.abs(got.imag - want.imag) / np.abs(want.imag)) <= 2.2e-13

    def test_complex_argument_vs_series(self):
        # K0 via the defining relation K0 = lim of the series representation:
        # cross-check at a modest complex point using the Wronskian-free
        # ascending series K0(w) = -(ln(w/2)+gamma) I0(w) + sum H_m (w^2/4)^m/(m!)^2
        w = 0.7 + 0.4j
        i0 = i0_series_oracle(w)
        total = -(np.log(w / 2.0) + EULER_GAMMA) * i0
        term, harm = 1.0 + 0.0j, 0.0
        for m in range(1, 60):
            term *= (w * w / 4.0) / (m * m)
            harm += 1.0 / m
            total += term * harm
        assert macdonald_k0(w) == pytest.approx(total, abs=1e-13)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_at_one(self):
        assert bessel_i0(1.0) == pytest.approx(1.26606587775201, abs=1e-12)

    def test_imaginary_argument_is_j0(self):
        assert bessel_i0(2.0j) == pytest.approx(j0_series_oracle(2.0), abs=1e-10)
        assert bessel_i0(2.0j) == pytest.approx(0.223890779141236, abs=1e-10)

    def test_series_oracle_complex(self):
        for w in [0.3, 2.0 + 1.0j, -1.5 + 0.5j, 4.0j]:
            assert bessel_i0(w) == pytest.approx(i0_series_oracle(w), rel=1e-12)


def test_series_arguments_past_700_refused_at_once():
    # the series of E1 and I0 grow like e^|x|; at |x| = 800 they returned NaN
    # and at 1e300 their term count never ended, so the calls run in a child
    # process that a timeout stops
    code = ("from layres.specfun import bessel_i0, exp1\n"
            "for f, x in ((exp1, -800.0), (exp1, -1e300), (bessel_i0, 800.0), "
            "(bessel_i0, 1e300)):\n"
            "    try:\n        print(f(x))\n"
            "    except ValueError as exc:\n        print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(specfun.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    tail = "like e^|x|, which past |x| = 700 nears or leaves the double range"
    assert out.stdout.splitlines() == [
        f"E1(-800+0j) is out of range: on its series |E1| grows {tail}",
        f"E1(-1e+300+0j) is out of range: on its series |E1| grows {tail}",
        f"I0(800+0j) is out of range: on its series |I0| grows {tail}",
        f"I0(1e+300+0j) is out of range: on its series |I0| grows {tail}"]


class TestKappaN:
    def test_below_threshold_real(self):
        assert kappa_n(0.0, 2, first_sheet()) == pytest.approx(2.0, abs=1e-15)

    def test_above_threshold_first_sheet(self):
        # z = 2.5, n = 1: kappa = -i sqrt(1.5)
        val = kappa_n(2.5, 1, first_sheet())
        assert val == pytest.approx(-1j * math.sqrt(1.5), abs=1e-14)

    def test_conjugation_symmetry(self):
        z = 1.5 + 0.1j
        assert kappa_n(np.conj(z), 1, first_sheet()) == pytest.approx(
            np.conj(kappa_n(z, 1, first_sheet())), abs=1e-15)

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            kappa_n(4.0, 2, first_sheet())

    def test_re_kappa_positive_off_cut(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-5, 20), rng.uniform(-2, 2))
            for n in (1, 2, 5):
                if z.real >= n * n and abs(z.imag) < 1e-12:
                    continue
                assert kappa_n(z, n, first_sheet()).real > 0.0


class TestImPositiveSqrt:
    def test_positive_real(self):
        assert im_positive_sqrt(4.0) == pytest.approx(2.0)

    def test_negative_real(self):
        assert im_positive_sqrt(-4.0) == pytest.approx(2.0j)

    def test_lower_half_plane_flipped(self):
        s = im_positive_sqrt(1.0 - 1.0j)
        assert s.imag > 0


class TestGammaN:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", list(range(1, 51, 7)) + [50])
    def test_zero_at_eigenvalue(self, alpha, n):
        # gap form: z - n^2 = xi_alpha exactly, avoiding the float rounding of
        # xi_alpha + n^2 (which for alpha = 2 swamps the ~1e-11 gap)
        p = SpectralParams(alpha=alpha, beta=1.0)
        val = gamma_from_gap(p.xi_alpha, n, first_sheet(), p)
        assert abs(val) < 1e-12

    def test_zero_at_eigenvalue_via_z_moderate_alpha(self):
        # for O(1) gaps the plain z interface reaches the same zero
        p = SpectralParams(alpha=0.0, beta=1.0)
        for n in (1, 2, 5):
            assert abs(gamma_n(p.eigenvalue(n), n, first_sheet(), p)) < 1e-12

    def test_second_sheet_open_mode_value(self):
        # on the window J_2 at real lambda: (1/2pi)(2 pi a - psi(1) + ln sqrt(l-n^2) - (pi/2) i)
        p = SpectralParams(alpha=0.3, beta=1.0)
        lam, n, k = 6.0, 1, 2
        got = gamma_n(lam, n, second_sheet(k), p)
        expected = (
            2 * math.pi * p.alpha
            + EULER_GAMMA
            + math.log(math.sqrt(lam - n * n))
            - math.log(2.0)
            - (math.pi / 2) * 1j
        ) / (2 * math.pi)
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("lam,k", [(2.5, 1), (6.0, 2)])
    def test_edge_of_wedge(self, lam, k):
        p = SpectralParams(alpha=0.1, beta=1.0)
        eps = 1e-8
        for n in range(1, k + 3):
            up = gamma_n(lam + 1j * eps, n, first_sheet(), p)
            down = gamma_n(lam - 1j * eps, n, second_sheet(k), p)
            assert abs(up - down) < 1e-6

    def test_closed_mode_second_sheet_equals_first(self):
        p = SpectralParams(alpha=0.0, beta=1.0)
        z = 2.5 - 0.05j
        assert gamma_n(z, 3, second_sheet(1), p) == gamma_n(z, 3, first_sheet(), p)

    def test_conjugation_symmetry_first_sheet(self):
        p = SpectralParams(alpha=0.4, beta=1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(rng.uniform(-3, 12), rng.uniform(0.01, 2.0))
            for n in (1, 2, 4):
                a = gamma_n(np.conj(z), n, first_sheet(), p)
                b = np.conj(gamma_n(z, n, first_sheet(), p))
                assert a == pytest.approx(b, abs=1e-14)

    def test_derivative_at_eigenvalue(self):
        # d Gamma_n / dz at eps_n equals 1/(4 pi xi_alpha)
        p = SpectralParams(alpha=0.0, beta=1.0)
        for n in (2, 3):
            eps_n = p.eigenvalue(n)
            ctx = first_sheet()
            h = 1e-6
            der = (gamma_n(eps_n + h, n, ctx, p) - gamma_n(eps_n - h, n, ctx, p)) / (2 * h)
            assert der == pytest.approx(1.0 / (4 * math.pi * p.xi_alpha), abs=1e-8)

    @pytest.mark.parametrize("ctx", [first_sheet(2), second_sheet(2)], ids=["first", "second"])
    def test_mode_array_matches_scalar_calls(self, ctx):
        p = SpectralParams(alpha=0.1, beta=1.0)
        modes = np.arange(1, 278)
        for z in (6.0, 5.9 - 0.01j):
            got = gamma_n(z, modes, ctx, p)
            assert got.shape == modes.shape
            assert np.array_equal(got, [gamma_n(z, int(n), ctx, p) for n in modes])

    def test_mode_array_branch_point_names_mode(self):
        p = SpectralParams(alpha=0.0, beta=1.0)
        with pytest.raises(BranchPointError, match="= 9 "):
            gamma_n(9.0, np.arange(1, 6), second_sheet(2), p)
        with pytest.raises(ValueError, match="n must be >= 1"):
            gamma_n(2.5, np.arange(0, 3), first_sheet(), p)


class TestZ0Kernel:
    def test_first_sheet_collapses_to_k0(self):
        ctx = first_sheet()
        z, n, rho = -2.0 + 0.0j, 3, 0.8
        assert z0_kernel(z, n, rho, ctx) == macdonald_k0(kappa_n(z, n, ctx) * rho)

    def test_edge_of_wedge(self):
        lam, k, rho = 2.5, 1, 0.7
        eps = 1e-8
        for n in (1, 2, 3):
            up = z0_kernel(lam + 1j * eps, n, rho, first_sheet())
            down = z0_kernel(lam - 1j * eps, n, rho, second_sheet(k))
            assert abs(up - down) < 1e-6

    def test_closed_mode_identical_across_sheets(self):
        z = 2.5 - 0.02j
        for n in (2, 5):
            a = z0_kernel(z, n, 0.5, second_sheet(1))
            b = z0_kernel(z, n, 0.5, first_sheet())
            assert a == b

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            z0_kernel(2.5, 1, 0.0, first_sheet())

    @pytest.mark.parametrize("ratio", [1e-9, 1e-8, 1e-7])
    def test_closed_columns_match_complex_kv(self, ratio):
        # Im z = -2 ratio (n^2 - Re z) puts |Im kappa_n| / |kappa_n| at about
        # ratio for a closed n; columns at or below the guard take the Chebyshev series
        rho = np.geomspace(0.05, 3.0, 40)
        n = np.arange(3, 120)
        for sign in (1.0, -1.0):
            z = 7.7 - sign * 2.0 * ratio * (60.0**2 - 7.7) * 1j
            kap = kappa_n(z, n, second_sheet(2))
            guarded = np.abs(kap.imag) <= 1e-7 * np.abs(kap)
            assert np.count_nonzero(guarded) > 20
            arg = np.multiply.outer(rho, kap[guarded])
            want = kv(0, arg)
            keep = (arg.real < 650.0) & (want != 0.0)  # complex kv loses digits above
            got = z0_kernel(z, n[guarded], rho, second_sheet(2))
            assert np.max(np.abs(got - want)[keep] / np.abs(want[keep])) < 1e-14

    def test_mixed_columns_on_the_second_sheet(self):
        # k = 2: two open columns (kv plus the I0 term), closed columns near
        # their threshold through complex kv, and guarded ones through the Chebyshev series
        ctx = second_sheet(2)
        z, rho, n = 7.7 - 1e-4j, np.array([0.1, 0.35, 0.9]), np.arange(1, 80)
        kap = kappa_n(z, n, ctx)
        guarded = np.abs(kap.imag) <= 1e-7 * np.abs(kap)
        assert np.any(guarded) and np.any(~guarded & (n > 2))
        arg = np.multiply.outer(rho, kap)
        want = kv(0, arg) + np.where(n <= 2, 1j * math.pi * iv(0, -arg), 0.0)
        got = z0_kernel(z, n, rho, ctx)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
        assert np.array_equal(got[:, ~guarded], macdonald_k0(arg[:, ~guarded])
                              + np.where(n[~guarded] <= 2,
                                         1j * math.pi * bessel_i0(-arg[:, ~guarded]), 0.0))

    def test_exact_zero_beyond_underflow_on_both_paths(self):
        w = np.array([701.0, 701.0 + 1e-8j, 701.0 - 50.0j, 690.0 + 1e-8j])
        assert np.array_equal(macdonald_k0(w)[:3], np.zeros(3))
        assert macdonald_k0(w)[3] != 0.0
        # a closed column of z0_kernel whose argument passes Re w = 700
        val = z0_kernel(2.5 - 1e-6j, np.array([300, 400]), np.array([1.0, 2.5]), first_sheet())
        assert np.all(val[0] != 0.0) and np.all(val[1] == 0.0)

    def test_mode_array_is_last_axis(self):
        z, rho, n = 2.5 - 0.02j, np.array([0.3, 0.8, 1.5]), np.array([1, 2, 5])
        for ctx in (first_sheet(), second_sheet(1)):
            val = z0_kernel(z, n, rho, ctx)
            assert val.shape == (3, 3)
            for j, m in enumerate((1, 2, 5)):
                assert np.array_equal(val[:, j], z0_kernel(z, m, rho, ctx))
                assert val[1, j] == z0_kernel(z, m, 0.8, ctx)
            assert z0_kernel(z, n, 0.8, ctx).shape == (3,)


def _polar_grid(r_lo, r_hi, phase_lo, phase_hi, n_r=120, n_phase=61):
    r = np.geomspace(r_lo, r_hi, n_r)[:, None]
    return (r * np.exp(1j * np.linspace(phase_lo, phase_hi, n_phase))).ravel()


class TestAgainstScipy:
    """The numpy special functions against scipy.special over the arguments
    the test suite and the benchmark reach.  Where scipy is the less
    accurate of the two (against mpmath), the bound is scipy's error."""

    def test_real_k0(self):
        # the Chebyshev pieces; x <= 2 takes the ascending series of test_complex_k0
        x = np.geomspace(2.0, 2.5e4, 4000)[1:]
        k0 = specfun._k0_chebyshev(x.astype(complex))
        assert np.all(k0.imag == 0.0)
        live = x < 700.0  # beyond, K0 is below 1e-300 (macdonald_k0 returns 0)
        assert np.max(np.abs(k0.real[live] / special.k0(x[live]) - 1.0)) < 3e-15
        assert np.all(k0.real[~live] < 1e-300)

    def test_complex_k0(self):
        # the rounding of e^-w makes K0 relatively uncertain by about |w| ulp
        w = _polar_grid(2.6e-5, 703.0, -math.pi / 2, math.pi / 2)
        got, want = macdonald_k0(w), kv(0, w)
        keep = np.abs(want) > 1e-290  # scipy flushes smaller values to zero
        err = np.abs(got - want)[keep] / np.abs(want[keep])
        assert np.max(err / np.maximum(1.0, np.abs(w[keep]))) < 5e-15
        assert np.all(got[w.real > 700.0] == 0.0)

    def test_i0(self):
        # I0 has zeros near the imaginary axis: errors relative to its scale
        w = _polar_grid(1e-3, 35.1, -math.pi, math.pi, n_phase=121)
        w = w[w.real >= -1.5]
        scale = np.exp(np.abs(w.real)) / np.sqrt(np.maximum(1.0, np.abs(w)))
        assert np.max(np.abs(bessel_i0(w) - iv(0, w)) / scale) < 5e-15

    def test_exp1(self):
        # scipy's complex exp1 loses up to 5e-13 here, its real one does not
        w = _polar_grid(1.5e-4, 92.3, -0.999 * math.pi, 0.999 * math.pi, n_phase=121)
        w = w[w.real >= -14.85]
        assert np.max(np.abs(exp1(w) / special.exp1(w) - 1.0)) < 1e-12
        x = np.geomspace(1.5e-4, 92.3, 500)
        assert np.max(np.abs(exp1(x) / special.exp1(x) - 1.0)) < 5e-15
        for side in (1e-30j, -1e-30j):  # both sides of the cut
            axis = -x[x <= 14.85] + side
            assert np.max(np.abs(exp1(axis) / special.exp1(axis) - 1.0)) < 5e-15

    def test_erfcx(self):
        # scipy loses up to 3e-14 near the imaginary axis at |w| = 8
        w = _polar_grid(1e-4, 8.37, -math.pi, math.pi, n_phase=121)
        w = w[w.real >= -0.87]
        assert np.max(np.abs(erfcx(w) / special.erfcx(w) - 1.0)) < 5e-14

    def test_erf(self):
        w = _polar_grid(0.47, 2.71, -math.pi, math.pi, n_r=40)
        got = np.array([erf(v) for v in w])
        assert np.max(np.abs(got / special.erf(w) - 1.0)) < 5e-15


class TestAgainstMpmath:
    """Spot values at 30 digits, where scipy's own error would hide ours."""

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    def test_exp1_off_the_axis(self, mp):
        w = _polar_grid(1.5e-4, 92.3, -0.99 * math.pi, 0.99 * math.pi, n_r=25, n_phase=25)
        want = np.array([complex(mp.expint(1, mp.mpc(v.real, v.imag))) for v in w])
        assert np.max(np.abs(exp1(w) / want - 1.0)) < 1e-14

    def test_erfcx_near_the_imaginary_axis(self, mp):
        w = _polar_grid(1e-4, 8.37, 0.4 * math.pi, 0.6 * math.pi, n_r=25, n_phase=11)
        want = np.array([complex(mp.exp(mp.mpc(v.real, v.imag) ** 2)
                                 * mp.erfc(mp.mpc(v.real, v.imag))) for v in w])
        assert np.max(np.abs(erfcx(w) / want - 1.0)) < 2e-15

    def test_largest_series_arguments(self, mp):
        # |x| just inside 700 across each series region, its edges included;
        # I0 relative to its scale e^|Re w| / sqrt|w|, as near its zeros
        r = 699.9999
        edge = math.acos(2.0 / r - 1.0)  # |z| + Re z = 2
        z = r * np.exp(1j * np.concatenate([np.linspace(edge, math.pi, 7),
                                            -np.linspace(edge, math.pi, 7)]))
        z = np.append(z, [-r + 1e-30j, -r - 1e-30j])  # both sides of the cut
        want = np.array([complex(mp.expint(1, mp.mpc(v.real, v.imag))) for v in z])
        assert np.max(np.abs(exp1(z) / want - 1.0)) < 1e-14
        edge = math.acos(1.0 - 2.0 / r)  # |w| - |Re w| = 2
        w = r * np.exp(1j * np.linspace(-edge, edge, 9))
        w = np.concatenate([w, -w])
        want = np.array([complex(mp.besseli(0, mp.mpc(v.real, v.imag))) for v in w])
        scale = np.exp(np.abs(w.real)) / np.sqrt(np.abs(w))
        assert np.max(np.abs(bessel_i0(w) - want) / scale) < 1e-14

    def test_i0_off_its_series_up_to_re_700(self, mp):
        # off the series (|w| - Re w > 2) |I0| grows like e^(Re w): Re w just
        # below 700 is evaluated, and just past it refused before exp overflows
        w = 699.9999 + np.array([60.0, 300.0, 2000.0]) * 1j
        w = np.concatenate([w, -w, w.conj()])
        want = np.array([complex(mp.besseli(0, mp.mpc(v.real, v.imag))) for v in w])
        assert np.max(np.abs(bessel_i0(w) / want - 1.0)) < 1e-14
        for v in (700.0001 + 60j, -700.0001 - 2000j):
            with np.errstate(over="raise", invalid="raise"), \
                    pytest.raises(ValueError, match=r"off its series .* past Re w = 700 "):
                bessel_i0(v)

    def test_near_real_k0(self, mp):
        # the Chebyshev series, built at import from the Laplace sum, against
        # 40 digits: sqrt(x) e^x K0(x) on both pieces up to x = 1e4, and K0
        # itself from macdonald_k0 where it is above the underflow policy
        x = np.geomspace(2.0, 1e4, 800)[1:]
        with mp.workdps(40):
            k0_mp = [mp.besselk(0, v) for v in x]
            want = np.array([float(mp.sqrt(v) * mp.exp(v) * k) for v, k in zip(x, k0_mp)])
        scaled = np.empty_like(x)
        for (lo, hi), table in specfun._K0_CHEB.items():
            piece = (x > lo) & (x <= hi)
            mid, half = 0.5 * (1.0 / lo + 1.0 / hi), 0.5 * (1.0 / lo - 1.0 / hi)
            scaled[piece] = chebval((1.0 / x[piece] - mid) / half, table)
        assert np.max(np.abs(scaled / want - 1.0)) < 1.5e-15
        live = x <= 700.0
        k0 = macdonald_k0(x[live])
        assert np.all(k0.imag == 0.0)
        want = np.array([float(k) for k in k0_mp])[live]
        assert np.max(np.abs(k0.real / want - 1.0)) < 1.5e-15

    def test_k0_and_i0_on_the_imaginary_axis(self, mp):
        w = 1j * np.geomspace(1e-3, 35.0, 60)
        k0 = np.array([complex(mp.besselk(0, mp.mpc(0, v.imag))) for v in w])
        i0 = np.array([complex(mp.besseli(0, mp.mpc(0, v.imag))) for v in w])
        assert np.max(np.abs(macdonald_k0(w) / k0 - 1.0) / np.maximum(1.0, np.abs(w))) < 1e-15
        assert np.max(np.abs(bessel_i0(w) - i0) / np.sqrt(np.maximum(1.0, np.abs(w)))) < 1e-15
