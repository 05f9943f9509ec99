import math

import numpy as np
import pytest
from scipy.integrate import quad

from layres.specfun import (
    gamma_from_gap,
    EULER_GAMMA,
    BranchPointError,
    Sheet,
    SheetContext,
    SpectralParams,
    bessel_i0,
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


class TestSheetContext:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SheetContext(k=0, sheet=Sheet.SECOND)

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


class TestKappaN:
    def test_below_threshold_real(self):
        assert kappa_n(0.0, 2) == pytest.approx(2.0, abs=1e-15)

    def test_above_threshold_first_sheet(self):
        # z = 2.5, n = 1: kappa = -i sqrt(1.5)
        val = kappa_n(2.5, 1)
        assert val == pytest.approx(-1j * math.sqrt(1.5), abs=1e-14)

    def test_conjugation_symmetry(self):
        z = 1.5 + 0.1j
        assert kappa_n(np.conj(z), 1) == pytest.approx(np.conj(kappa_n(z, 1)), abs=1e-15)

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            kappa_n(4.0, 2)

    def test_re_kappa_positive_off_cut(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-5, 20), rng.uniform(-2, 2))
            for n in (1, 2, 5):
                if z.real >= n * n and abs(z.imag) < 1e-12:
                    continue
                assert kappa_n(z, n).real > 0.0


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

    def test_mode_array_is_last_axis(self):
        z, rho, n = 2.5 - 0.02j, np.array([0.3, 0.8, 1.5]), np.array([1, 2, 5])
        for ctx in (first_sheet(), second_sheet(1)):
            val = z0_kernel(z, n, rho, ctx)
            assert val.shape == (3, 3)
            for j, m in enumerate((1, 2, 5)):
                assert np.array_equal(val[:, j], z0_kernel(z, m, rho, ctx))
                assert val[1, j] == z0_kernel(z, m, 0.8, ctx)
            assert z0_kernel(z, n, 0.8, ctx).shape == (3,)
