import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import kv

from layres.greens import (
    EwaldGreen,
    KernelEvalConfig,
    calibrate_tail_constant,
    chi_n,
    k0_cosine_sum,
    layer_green,
    layer_green_modal,
)
from layres.specfun import SpectralParams, first_sheet, gamma_from_gap, second_sheet

X = np.array([1.0, 0.2, 1.3])
XP = np.array([0.6, -0.1, 0.9])


def brute_k0_cosine(rho, a, n_terms=100_000):
    n = np.arange(1, n_terms + 1)
    return float(np.sum(kv(0, n * rho) * np.cos(n * a)))


class TestChiN:
    def test_node_of_second_mode(self):
        assert chi_n(2, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_amplitude(self):
        assert chi_n(1, math.pi / 2) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-14)
        assert chi_n(1, math.pi / 2) == pytest.approx(0.7978845608, abs=1e-9)

    def test_mode_array_is_last_axis(self):
        x3 = np.array([0.3, 1.1, 2.0, 2.9])
        val = chi_n(np.array([1, 3]), x3)
        assert val.shape == (4, 2)
        assert np.array_equal(val[:, 1], chi_n(3, x3))

    def test_orthonormality(self):
        x, w = leggauss(64)
        x3 = 0.5 * math.pi * (x + 1.0)
        w = 0.5 * math.pi * w
        for n in range(1, 11):
            for m in range(1, 11):
                val = np.sum(w * chi_n(n, x3) * chi_n(m, x3))
                assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-12)


class TestK0CosineSum:
    def test_reference_point(self):
        assert k0_cosine_sum(0.5, 1.0) == pytest.approx(brute_k0_cosine(0.5, 1.0), abs=1e-10)

    @pytest.mark.parametrize("rho", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_brute_force_grid(self, rho, a):
        assert k0_cosine_sum(rho, a) == pytest.approx(brute_k0_cosine(rho, a), abs=1e-8)

    def test_leading_image_dominates_small_rho(self):
        val = k0_cosine_sum(0.01, 0.0)
        lead = math.pi / (2 * 0.01)
        assert abs(val - lead) / lead < 0.05

    def test_reflection_symmetry(self):
        for a in (0.3, 1.7, 2.9):
            assert k0_cosine_sum(0.4, a) == pytest.approx(k0_cosine_sum(0.4, 2 * math.pi - a),
                                                          abs=1e-13)

    def test_rho_positive_required(self):
        with pytest.raises(ValueError):
            k0_cosine_sum(0.0, 1.0)


class TestLayerGreenSplit:
    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = np.array([1 + rng.random(), rng.random(), 0.5 + 2 * rng.random()])
            xp = np.array([1 + rng.random(), rng.random(), 0.5 + 2 * rng.random()])
            a = layer_green(-2.0, x, xp)
            b = layer_green(-2.0, xp, x)
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("x3p", [1e-9, math.pi - 1e-9])
    def test_dirichlet_walls(self, x3p):
        xp = np.array([0.6, -0.1, x3p])
        assert abs(layer_green(-2.0, X, xp)) < 1e-8

    def test_split_matches_modal_sum(self):
        xp = X + np.array([0.5, 0.0, -0.3])
        for z in (-2.0, 2.5 + 0.3j):
            split = layer_green(z, X, xp)
            modal = layer_green_modal(z, X, xp, n_max=10_000)
            assert abs(split - modal) < 1e-9

    def test_edge_of_the_wedge(self):
        eps = 1e-8
        up = layer_green(2.5 + 1j * eps, X, XP, first_sheet())
        down = layer_green(2.5 - 1j * eps, X, XP, second_sheet(1))
        assert abs(up - down) < 1e-6

    def test_conjugation_symmetry(self):
        z = 1.5 + 0.4j
        a = layer_green(np.conj(z), X, XP)
        b = np.conj(layer_green(z, X, XP))
        assert a == pytest.approx(b, abs=1e-13)

    def test_truncation_robustness(self):
        cfg = KernelEvalConfig.for_separation(0.5, tail_tol=1e-10)
        cfg2 = KernelEvalConfig(n_max=2 * cfg.n_max, tail_tol=cfg.tail_tol)
        for z in (-2.0, 2.5 + 0.2j):
            a = layer_green(z, X, XP, cfg=cfg)
            b = layer_green(z, X, XP, cfg=cfg2)
            assert abs(a - b) < cfg.tail_tol

    def test_in_plane_coincidence_rejected(self):
        with pytest.raises(ValueError):
            layer_green(-2.0, X, np.array([1.0, 0.2, 0.7]))

    def test_tail_constant_is_small(self):
        assert 0.0 <= calibrate_tail_constant() < 1e-6


class TestEwaldGreen:
    @pytest.mark.parametrize("z,ctx", [
        (-2.0, None),
        (2.5 + 0.3j, None),
        (2.5 - 0.3j, second_sheet(1)),
        (6.0 - 0.2j, second_sheet(2)),
    ])
    def test_matches_modal_sum(self, z, ctx):
        ew = EwaldGreen(z, ctx)
        got = ew(X, XP)
        want = layer_green_modal(z, X, XP, ctx, n_max=20_000)
        assert abs(got - want) < 1e-12

    def test_matches_split_near_diagonal(self):
        ew = EwaldGreen(-2.0)
        for r in (1e-2, 1e-3):
            xp = X + np.array([r, 0.0, 0.0])
            assert abs(ew(X, xp) - layer_green(-2.0, X, xp)) < 1e-10

    def test_vertical_pairs_supported(self):
        # rho = 0 with x3 separation: split cannot do this, Ewald can;
        # compare against split at tiny-but-nonzero rho
        xp = np.array([1.0, 0.2, 0.9])
        ew = EwaldGreen(-2.0)
        val = ew(X, xp)
        near = layer_green(-2.0, X, np.array([1.0 + 1e-4, 0.2, 0.9]))
        assert abs(val - near) < 1e-6

    def test_edge_of_the_wedge(self):
        eps = 1e-8
        for lam, k in ((2.5, 1), (6.0, 2)):
            up = EwaldGreen(lam + 1j * eps)(X, XP)
            down = EwaldGreen(lam - 1j * eps, second_sheet(k))(X, XP)
            assert abs(up - down) < 1e-6

    def test_below_first_threshold_no_spurious_cut(self):
        # the kernel is analytic across (0, 1); +-i0 values must agree
        up = EwaldGreen(0.5 + 1e-12j)(X, XP)
        down = EwaldGreen(0.5 - 1e-12j)(X, XP)
        assert abs(up - down) < 1e-10

    def test_singular_part_bounded(self):
        ew = EwaldGreen(-2.0)
        d = np.array([1.0, 0.5, 1.0]) / np.linalg.norm([1.0, 0.5, 1.0])
        vals = []
        for r in (1e-3, 1e-4, 1e-5, 1e-6):
            xp = X + r * d
            vals.append(ew(X, xp) - 1.0 / (4 * math.pi * r))
        assert np.all(np.abs(vals) < 1.0)

    def test_regularized_diag_is_the_limit(self):
        for z, ctx in ((-2.0, None), (2.5 - 0.05j, second_sheet(1))):
            ew = EwaldGreen(z, ctx)
            gd = ew.regularized_diag(X)
            d = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
            r1, r2 = 1e-4, 1e-5
            v1 = ew(X, X + r1 * d) - 1.0 / (4 * math.pi * r1)
            v2 = ew(X, X + r2 * d) - 1.0 / (4 * math.pi * r2)
            # remainder approaches gd linearly in r
            assert abs(v2 - gd) < 2e-5
            assert abs(v2 - gd) < 0.2 * abs(v1 - gd) + 1e-10

    def test_pairs_vectorized_consistent(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([1 + rng.random(8), rng.random(8), 0.5 + 2 * rng.random(8)])
        b = np.column_stack([1 + rng.random(8), rng.random(8), 0.5 + 2 * rng.random(8)])
        ew = EwaldGreen(2.5 + 0.1j)
        vec = ew.pairs(a, b)
        for i in range(8):
            assert vec[i] == pytest.approx(ew(a[i], b[i]), abs=1e-14)

    def test_coincident_pair_rejected(self):
        with pytest.raises(ValueError):
            EwaldGreen(-2.0)(X, X)

    def test_large_rho_guard(self):
        ew = EwaldGreen(-2.0, j_max=8)
        with pytest.raises(ValueError, match="rho"):
            ew(X, X + np.array([50.0, 0.0, 0.0]))

    @pytest.mark.parametrize("j_max", [8, 16, 32])
    @pytest.mark.parametrize("z,ctx", [
        (2.739 - 1e-8j, second_sheet(1)),
        (2.739 + 1e-8j, None),
        (8.95 - 1e-8j, second_sheet(2)),
        (7.739 + 1e-8j, None),
    ], ids=["J1-sheet2", "J1-sheet1", "J2-sheet2", "J2-sheet1"])
    def test_spectral_radius_is_accurate(self, j_max, z, ctx):
        # every admitted separation is within ~1e-12 of the kernel scale
        # (|G| ~ 0.1 there); the bound j_max = 32 used to admit rho up to
        # 8.49, where the truncated polynomial was off by 1e2
        ew = EwaldGreen(z, ctx, j_max=j_max)
        for x3p in (1.0, 2.9):
            xp = np.array([X[0], X[1] + 0.99 * ew.rho_max, x3p])
            assert abs(ew(X, xp) - layer_green(z, X, xp, ctx)) < 2e-13
        with pytest.raises(ValueError, match="spectral radius"):
            ew(X, X + np.array([1.01 * ew.rho_max, 0.0, 0.0]))


class TestResidueLaw:
    def test_gamma_inverse_blowup_rate(self):
        # Gamma_l(z)/(z - eps_l) -> 1/(4 pi xi_alpha) near the eigenvalue
        p = SpectralParams(alpha=0.0, beta=1.0)
        target = 1.0 / (4 * math.pi * p.xi_alpha)
        for l in (1, 2):
            for h in (1e-5, 1e-5j, -1e-5 + 1e-5j):
                val = gamma_from_gap(p.xi_alpha + h, l, first_sheet(), p) / h
                assert abs(val - target) < 1e-6 * abs(target) + 1e-6
