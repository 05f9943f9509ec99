import copy
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import kv

from layres import greens
from layres.bs_operator import SystemState, pair_layout, pair_nodes
from layres.geometry import build_quadrature, disk, rectangle_patch, scale_surface
from layres.greens import (
    EwaldGreen,
    EwaldSplit,
    EwaldTables,
    calibrate_tail_constant,
    chi_n,
    k0_cosine_sum,
    layer_green_modal,
)
from layres.specfun import (
    SpectralParams,
    bessel_i0,
    first_sheet,
    gamma_from_gap,
    kappa_n,
    second_sheet,
)

SURFACES = {
    "disk": disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5),
    "rectangle": rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0.0, 1.0, 0.0),
                                 direction2=(0.0, 0.0, 1.0), length1=0.6, length2=0.6),
    "tilted-disk": disk(center=(1.0, 0.0, 1.0), normal=(0.3, -0.4, 0.866), radius=0.5),
}
X = np.array([1.0, 0.2, 1.3])
XP = np.array([0.6, -0.1, 0.9])
FIRST = first_sheet()


def ewald(z, ctx=FIRST, rho=0.6):
    """The kernel at z under the split a state takes for pairs up to rho apart in-plane."""
    return EwaldGreen(z, EwaldSplit.for_separation(rho, ctx), ctx)


def widest_admitted(ctx):
    """The widest separation EwaldSplit.for_separation admits (lo) and one it refuses (hi)."""
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            EwaldSplit.for_separation(mid, ctx)
            lo = mid
        except ValueError:
            hi = mid
    return lo, hi


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
    """The mode series layer_green_modal, the reference kernel of a single pair."""

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = np.array([1 + rng.random(), rng.random(), 0.5 + 2 * rng.random()])
            xp = np.array([1 + rng.random(), rng.random(), 0.5 + 2 * rng.random()])
            a = layer_green_modal(-2.0, x, xp, FIRST)
            b = layer_green_modal(-2.0, xp, x, FIRST)
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("x3p", [1e-9, math.pi - 1e-9])
    def test_dirichlet_walls(self, x3p):
        xp = np.array([0.6, -0.1, x3p])
        assert abs(layer_green_modal(-2.0, X, xp, FIRST)) < 1e-8

    def test_edge_of_the_wedge(self):
        eps = 1e-8
        up = layer_green_modal(2.5 + 1j * eps, X, XP, first_sheet())
        down = layer_green_modal(2.5 - 1j * eps, X, XP, second_sheet(1))
        assert abs(up - down) < 1e-6

    def test_conjugation_symmetry(self):
        z = 1.5 + 0.4j
        a = layer_green_modal(np.conj(z), X, XP, FIRST)
        b = np.conj(layer_green_modal(z, X, XP, FIRST))
        assert a == pytest.approx(b, abs=1e-13)

    def test_truncation_robustness(self):
        # X, XP are 0.5 apart in the plane: the default sums 115 modes
        for z, ctx in ((-2.0, FIRST), (2.5 + 0.2j, FIRST), (2.5 - 0.2j, second_sheet(1))):
            a = layer_green_modal(z, X, XP, ctx)
            b = layer_green_modal(z, X, XP, ctx, n_max=230)
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("rho", [1e-3, 1e-4])
    @pytest.mark.parametrize("z,ctx", [(-2.0, FIRST), (2.5 + 0.3j, FIRST),
                                       (2.5 - 0.3j, second_sheet(1))],
                             ids=["below", "J1-sheet1", "J1-sheet2"])
    def test_default_mode_count_follows_rho(self, rho, z, ctx):
        # the mode count grows like 1/rho: 10 000 modes are off by 1e-5
        # (relative) at rho = 1e-3 and by 0.2 at rho = 1e-4
        xp = X + np.array([rho, 0.0, 0.0])
        want = ewald(z, ctx)(X, xp)
        assert abs(layer_green_modal(z, X, xp, ctx) - want) < 1e-11 * abs(want)

    def test_mode_count_checks(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            layer_green_modal(-2.0, X, XP, FIRST, n_max=0)
        # rho = 1e-6 would need 3.7e7 modes by default
        with pytest.raises(ValueError, match=r"rho = 1e-06 needs n_max = 370000\d\d; "
                                             r"use EwaldGreen for nearly coincident"):
            layer_green_modal(-2.0, X, X + np.array([1e-6, 0.0, 0.1]), FIRST)

    def test_in_plane_coincidence_rejected(self):
        above = np.array([1.0, 0.2, 0.7])
        with pytest.raises(ValueError, match="diverges termwise at rho = 0"):
            layer_green_modal(-2.0, X, above, FIRST)

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
        ctx = ctx or FIRST
        ew = ewald(z, ctx)
        got = ew(X, XP)
        want = layer_green_modal(z, X, XP, ctx)
        assert abs(got - want) < 1e-12

    def test_matches_split_near_diagonal(self):
        ew = ewald(-2.0)
        for r in (1e-2, 1e-3):
            xp = X + np.array([r, 0.0, 0.0])
            assert abs(ew(X, xp) - layer_green_modal(-2.0, X, xp, FIRST)) < 1e-10

    def test_vertical_pairs_supported(self):
        # rho = 0 with x3 separation: the mode series cannot do this, Ewald
        # can; compare against the mode series at tiny-but-nonzero rho
        xp = np.array([1.0, 0.2, 0.9])
        ew = ewald(-2.0)
        val = ew(X, xp)
        near = layer_green_modal(-2.0, X, np.array([1.0 + 1e-4, 0.2, 0.9]), FIRST)
        assert abs(val - near) < 1e-6

    def test_edge_of_the_wedge(self):
        eps = 1e-8
        for lam, k in ((2.5, 1), (6.0, 2)):
            up = ewald(lam + 1j * eps, first_sheet(k))(X, XP)
            down = ewald(lam - 1j * eps, second_sheet(k))(X, XP)
            assert abs(up - down) < 1e-6

    def test_below_first_threshold_no_spurious_cut(self):
        # the kernel is analytic across (0, 1); +-i0 values must agree
        up = ewald(0.5 + 1e-12j)(X, XP)
        down = ewald(0.5 - 1e-12j)(X, XP)
        assert abs(up - down) < 1e-10

    def test_singular_part_bounded(self):
        ew = ewald(-2.0)
        d = np.array([1.0, 0.5, 1.0]) / np.linalg.norm([1.0, 0.5, 1.0])
        vals = []
        for r in (1e-3, 1e-4, 1e-5, 1e-6):
            xp = X + r * d
            vals.append(ew(X, xp) - 1.0 / (4 * math.pi * r))
        assert np.all(np.abs(vals) < 1.0)

    def test_regularized_diag_is_the_limit(self):
        for z, ctx in ((-2.0, FIRST), (2.5 - 0.05j, second_sheet(1))):
            ew = ewald(z, ctx)
            gd = ew.regularized_diag(X)
            d = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
            r1, r2 = 1e-4, 1e-5
            v1 = ew(X, X + r1 * d) - 1.0 / (4 * math.pi * r1)
            v2 = ew(X, X + r2 * d) - 1.0 / (4 * math.pi * r2)
            # remainder approaches gd linearly in r
            assert abs(v2 - gd) < 2e-5
            assert abs(v2 - gd) < 0.2 * abs(v1 - gd) + 1e-10

    @pytest.mark.parametrize("surface, order, z, ctx, orbits", [
        ("disk", 16, 4.0 - 1e-3j, second_sheet(1), 16),
        ("rectangle", 16, 9.5 - 1e-3j, second_sheet(2), 128),
        ("rectangle", 12, -2.0, first_sheet(), 72)],
        ids=["disk", "rectangle", "rectangle-first-sheet"])
    def test_regularized_diag_once_per_node_orbit(self, surface, order, z, ctx, orbits):
        # the state tabulates one coincident pair (i, i) per node orbit of the
        # kernel group, like any other pair orbit, and the layout's index takes
        # every diagonal entry to its orbit: bitwise the value of each node on
        # its own
        rule = build_quadrature(SURFACES[surface], order)
        state = SystemState(SWEEP_PARAMS, pair_layout(rule), ctx, 2 if ctx.k == 1 else 3)
        layout, tables = state.layout, state.tables
        assert np.array_equal(tables.coincident, np.flatnonzero(layout.rows == layout.cols))
        assert len(tables.coincident) == orbits
        ew = EwaldGreen(z, tables.split, ctx)
        values = ew.pairs(tables)
        each = [ew.regularized_diag(x) for x in rule.nodes]
        assert np.array_equal(values[np.diagonal(layout.index)], each)

    def test_pairs_vectorized_consistent(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([1 + rng.random(8), rng.random(8), 0.5 + 2 * rng.random(8)])
        b = np.column_stack([1 + rng.random(8), rng.random(8), 0.5 + 2 * rng.random(8)])
        ew = ewald(2.5 + 0.1j, rho=1.5)
        vec = ew(a, b)
        for i in range(8):
            assert vec[i] == pytest.approx(ew(a[i], b[i]), abs=1e-14)

    @pytest.mark.parametrize("z,ctx", [(2.5 + 0.1j, FIRST), (2.5 - 0.1j, second_sheet(1))],
                             ids=["sheet1", "sheet2"])
    def test_one_row_is_an_array(self, z, ctx):
        # a (1, 3) input is one row of pairs, like (N, 3): only two (3,)
        # points give a complex
        ew = ewald(z, ctx)
        row = ew(X[None], XP[None])
        assert isinstance(ew(X, XP), complex) and row.shape == (1,)
        assert row[0] == ew(X, XP)
        diag = ew.regularized_diag(X[None])
        assert isinstance(ew.regularized_diag(X), complex) and diag.shape == (1,)
        assert diag[0] == ew.regularized_diag(X)

    def test_coincident_pair_rejected(self):
        with pytest.raises(ValueError):
            ewald(-2.0)(X, X)

    def test_large_rho_guard(self):
        ew = EwaldGreen(-2.0, EwaldSplit(1.0, 8, 0.0), FIRST)
        with pytest.raises(ValueError, match="rho"):
            ew(X, X + np.array([50.0, 0.0, 0.0]))

    @pytest.mark.parametrize("j_max", [8, 16, 32])
    @pytest.mark.parametrize("z,ctx", [
        (2.739 - 1e-8j, second_sheet(1)),
        (2.739 + 1e-8j, FIRST),
        (8.95 - 1e-8j, second_sheet(2)),
        (7.739 + 1e-8j, FIRST),
    ], ids=["J1-sheet2", "J1-sheet1", "J2-sheet2", "J2-sheet1"])
    def test_spectral_radius_is_accurate(self, j_max, z, ctx):
        # every admitted separation is within ~1e-12 of the kernel scale
        # (|G| ~ 0.1 there) at eta = 1, the largest the geometry may choose;
        # the bound j_max = 32 used to admit rho up to 8.49, where the
        # truncated polynomial was off by 1e2
        split = EwaldSplit(1.0, j_max, z.real)
        ew = EwaldGreen(z, split, ctx)
        for x3p in (1.0, 2.9):
            xp = np.array([X[0], X[1] + 0.99 * split.rho_max, x3p])
            assert abs(ew(X, xp) - layer_green_modal(z, X, xp, ctx)) < 2e-13
        with pytest.raises(ValueError, match="spectral radius"):
            ew(X, X + np.array([1.01 * split.rho_max, 0.0, 0.0]))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_window_at_the_widest_admitted_pair(self, k):
        # the split the geometry takes for the widest pair it admits keeps
        # the kernel within 2e-13 of the mode series across J_k on both
        # sheets; a wider pair is refused with that split's radius (eta up
        # to 1 used to be admitted, off by 1e-7 at k = 4 and 1e14 at k = 7)
        lo, hi = widest_admitted(second_sheet(k))
        split = EwaldSplit.for_separation(lo, second_sheet(k))
        # sized for the whole window, with every open mode n <= k among the
        # spectral ones, which the second sheet's 2 pi i continuation needs
        assert split.re_top == (k + 1) ** 2 and split.n_spectral > k
        with pytest.raises(ValueError, match=f"spectral radius {split.rho_max:.3f}"):
            EwaldSplit.for_separation(hi, second_sheet(k))
        sheets = [(first_sheet(k), im) for im in (1e-3, 0.3)] \
            + [(second_sheet(k), im) for im in (-1e-3, -0.3)]
        for t in (0.05, 0.5, 0.95):
            for ctx, im in sheets:
                z = complex(k * k + t * (2 * k + 1), im)
                ew = EwaldGreen(z, split, ctx)
                x = np.array([1.0, 0.0, 1.3])
                for x3p in (0.2, 2.9):
                    xp = np.array([1.0, lo, x3p])  # exactly lo apart in-plane
                    assert abs(ew(x, xp) - layer_green_modal(z, x, xp, ctx)) < 2e-13, (z, x3p)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_second_sheet_is_the_open_mode_i0_term(self, k):
        # the 2 pi i on the open modes' E1 adds, through the spectral
        # polynomial, (i/2) sum_{n<=k} I0(-kappa_n rho) chi_n chi_n' to the
        # first sheet: checked against that sum at every admitted separation
        widest = widest_admitted(second_sheet(k))[0]
        split = EwaldSplit.for_separation(widest, second_sheet(k))
        n = np.arange(1, k + 1)
        x = np.array([1.0, 0.0, 1.3])
        for t in (0.05, 0.5, 0.95):
            for im in (-1e-3, -0.3):
                z = complex(k * k + t * (2 * k + 1), im)
                up = EwaldGreen(z, split, first_sheet(k))
                down = EwaldGreen(z, split, second_sheet(k))
                for rho in (widest, 0.5 * widest, 1e-2):
                    for x3p in (0.2, 2.9):
                        xp = np.array([1.0, rho, x3p])
                        i0 = bessel_i0(-kappa_n(z, n, second_sheet(k)) * rho)
                        want = 0.5j * np.sum(i0 * chi_n(n, x[2]) * chi_n(n, x3p))
                        assert abs(down(x, xp) - up(x, xp) - want) < 1e-13, (z, rho, x3p)


#: the benchmark sweeps (surface, l, order, deltas), each also at delta = 1
SWEEPS = {
    "disk": ("disk", 2, 12, tuple(np.geomspace(0.02, 0.12, 8)) + (1.0,)),
    "rectangle": ("rectangle", 3, 12, (0.05, 0.1, 0.2, 0.4, 1.0)),
}
SWEEP_PARAMS = SpectralParams(alpha=0.0, beta=0.4)


class TestEwaldTables:
    @pytest.mark.parametrize("sweep", SWEEPS, ids=list(SWEEPS))
    def test_state_tables_match_split_kernel(self, sweep):
        # every state takes the floor eta = 0.15, and its tables give the
        # kernel of the mode series at z near eps_l and across J_k, within
        # 2e-13 absolute or, for the 1/(4 pi r)-sized kernel of the closest
        # pairs, relative
        surface, l, order, deltas = SWEEPS[sweep]
        base = build_quadrature(SURFACES[surface], order)
        layout = pair_layout(base)
        eps = SWEEP_PARAMS.eigenvalue(l)
        k = int(math.floor(math.sqrt(eps)))
        rng = np.random.default_rng(3)
        for delta in deltas:
            state = SystemState(SWEEP_PARAMS,
                                layout.scaled(delta, next(scale_surface(base.surface, [delta]))),
                                second_sheet(k), l)
            rule = state.rule
            tables = state.tables
            assert state.tables is tables
            assert tables.split.eta == 0.15 and tables.split.re_top == (k + 1) ** 2
            x, xp = rule.nodes[layout.rows], rule.nodes[layout.cols]
            rho = np.hypot(x[:, 0] - xp[:, 0], x[:, 1] - xp[:, 1])
            apart = np.flatnonzero(rho > 0.0)  # the mode series needs rho > 0
            sample = np.concatenate([[np.argmax(rho), apart[np.argmin(rho[apart])]],
                                     rng.choice(apart, 4, replace=False)])
            for z in (eps - 1e-4j, k * k + 0.3 - 0.02j, (k + 1) ** 2 - 0.3 - 0.02j):
                got = EwaldGreen(z, tables.split, state.ctx).pairs(tables)[sample]
                want = np.array([layer_green_modal(z, x[i], xp[i], state.ctx) for i in sample])
                assert np.all(np.abs(got - want) < 2e-13 * np.maximum(1.0, np.abs(want))), \
                    (delta, z)

    @pytest.mark.parametrize("surface", ["rectangle", "disk", "tilted-disk"])
    def test_sine_table_is_the_cosine_difference(self, surface):
        # cos(n a-) - cos(n a+) = 2 sin(n x3) sin(n x3'): the table taken from
        # one sine per distinct height is that difference, at 30 digits, on
        # every pair of a rule.  The difference in doubles is no reference:
        # its rounded arguments n a+, up to about 50, put it off by up to
        # 7.8e-15 on the tilted disk, where the sine table is off by 3.6e-15
        mpmath = pytest.importorskip("mpmath")
        rule = build_quadrature(SURFACES[surface], 6)
        i, j = np.triu_indices(rule.n_nodes)
        x, xp = rule.nodes[i], rule.nodes[j]
        rho = np.hypot(x[:, 0] - xp[:, 0], x[:, 1] - xp[:, 1])
        split = EwaldSplit.for_separation(float(np.max(rho)), second_sheet(1))
        exact = {}
        with mpmath.workdps(30):
            for h, hp in set(zip(x[:, 2], xp[:, 2])):
                a_minus, a_plus = mpmath.mpf(h) - mpmath.mpf(hp), mpmath.mpf(h) + mpmath.mpf(hp)
                exact[h, hp] = [float(mpmath.cos(n * a_minus) - mpmath.cos(n * a_plus))
                                for n in range(1, split.n_spectral + 1)]
        want = np.array([exact[key] for key in zip(x[:, 2], xp[:, 2])])
        assert np.max(np.abs(EwaldTables(x, xp, split).cos_diff - want)) < 1e-14

    def test_sine_table_at_a_wall(self):
        # at equal heights 1e-6 above the wall cos(0) - cos(2 n x3) cancels to
        # about 1e-5 relative; the sine product keeps 2 sin^2(n x3) to 1e-15
        mpmath = pytest.importorskip("mpmath")
        x3 = 1e-6
        x, xp = np.array([[1.0, 0.0, x3]]), np.array([[1.2, 0.1, x3]])
        split = EwaldSplit.for_separation(0.3, second_sheet(1))
        got = EwaldTables(x, xp, split).cos_diff[0]
        with mpmath.workdps(30):
            want = np.array([float(2 * mpmath.sin(n * mpmath.mpf(x3)) ** 2)
                             for n in range(1, split.n_spectral + 1)])
        assert np.max(np.abs(got / want - 1.0)) < 1e-15
        n = np.arange(1, split.n_spectral + 1)
        cosine_form = 1.0 - np.cos(2.0 * n * x3)
        assert np.max(np.abs(cosine_form / want - 1.0)) > 1e-9

    def test_split_from_the_geometry(self):
        # eta at the floor while it admits rho, then the smallest eta that
        # does; j_max the smallest order that admits rho at that eta
        near = EwaldSplit.for_separation(0.6, second_sheet(2))
        assert near.eta == 0.15 and near.rho_max >= 0.6
        assert EwaldSplit(0.15, near.j_max - 1, 9.0).rho_max < 0.6
        wide = EwaldSplit.for_separation(3.0, second_sheet(2))
        assert 0.15 < wide.eta < 1.0 and wide.j_max == 32
        assert wide.rho_max == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(ValueError, match="spectral radius"):
            EwaldSplit.for_separation(4.2, second_sheet(2))

    def test_images_reach_r_cut(self):
        # the image range follows r_cut: every image inside it is kept, and a
        # larger cut-off changes the kernel by less than 1e-14 of its scale
        z, ctx = 8.9 - 1e-3j, second_sheet(2)
        x = np.array([[1.0, 0.2, 0.3], [1.0, 0.2, 2.9], [1.3, 0.0, 1.5]])
        xp = np.array([[1.2, 0.1, 2.8], [1.0, 0.6, 0.2], [1.0, 0.0, 1.4]])
        split = EwaldSplit.for_separation(0.5, second_sheet(2))
        wide = EwaldSplit(split.eta, split.j_max, 200.0)
        tables = EwaldTables(x, xp, split)
        u_cut = split.r_cut / (2.0 * math.sqrt(split.eta))
        assert np.all(tables.image_u < u_cut)
        assert len(EwaldTables(x, xp, wide).image_at) > len(tables.image_at)
        got = EwaldGreen(z, split, ctx).pairs(tables)
        want = EwaldGreen(z, wide, ctx)(x, xp)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))

    def test_tables_serve_both_sheets(self):
        # the tables hold nothing of the sheet: one set gives the point calls
        # of a first- and a second-sheet kernel
        x = np.array([[1.0, 0.2, 0.3], [1.0, 0.2, 2.9], [1.3, 0.0, 1.5]])
        xp = np.array([[1.2, 0.1, 2.8], [1.0, 0.6, 0.2], [1.0, 0.0, 1.4]])
        split = EwaldSplit.for_separation(0.5, second_sheet(2))
        tables = EwaldTables(x, xp, split)
        for ctx, z in ((first_sheet(2), 8.9 + 1e-3j), (second_sheet(2), 8.9 - 1e-3j)):
            ew = EwaldGreen(z, split, ctx)
            got = ew.pairs(tables)
            assert np.array_equal(got, ew(x, xp))
            assert np.max(np.abs(got - [ew(x[i], xp[i]) for i in range(3)])) < 1e-15

    def test_tables_of_another_split_refused(self):
        split = EwaldSplit.for_separation(0.5, second_sheet(2))
        tables = EwaldTables(X, XP, split)
        with pytest.raises(ValueError, match="another Ewald split"):
            EwaldGreen(8.9 - 1e-3j, EwaldSplit(1.0, 32, 9.0), second_sheet(2)).pairs(tables)


def _dedup_cases():
    """Tables of the pairs of an order-8 rule, each with the window's kernel, on both sheets."""
    for surface in ("rectangle", "disk", "tilted-disk"):
        layout = pair_layout(build_quadrature(SURFACES[surface], 8))
        x, xp, rho = pair_nodes(layout, layout.rule)
        for ctx, z in ((first_sheet(2), 8.9 + 1e-3j), (second_sheet(2), 8.9 - 1e-3j)):
            split = EwaldSplit.for_separation(rho, ctx)
            yield pytest.param(x, xp, EwaldTables(x, xp, split), EwaldGreen(z, split, ctx),
                               id=f"{surface}-{'second' if ctx.second else 'first'}")


DEDUP_CASES = list(_dedup_cases())


class TestDistinctImages:
    @pytest.mark.parametrize("x, xp, tables, ew", DEDUP_CASES)
    def test_distinct_u_strictly_increase(self, x, xp, tables, ew):
        assert len(tables.image_u) and np.all(np.diff(tables.image_u) > 0.0)
        assert tables.image_at.shape == tables.image_pair.shape == tables.image_weight.shape

    @pytest.mark.parametrize("x, xp, tables, ew", DEDUP_CASES)
    def test_every_image_finds_its_own_u(self, x, xp, tables, ew):
        # every image a-/+ + 2 pi m with 0 < R < r_cut, from an m range wider
        # than any kept image, in the order of the tables: a- before a+, m
        # ascending, pairs ascending
        split = tables.split
        rho = np.hypot(x[:, 0] - xp[:, 0], x[:, 1] - xp[:, 1])
        pair, sign, u = [], [], []
        for a, s in ((np.abs(x[:, 2] - xp[:, 2]), 1.0), (x[:, 2] + xp[:, 2], -1.0)):
            for m in range(-8, 9):
                R = np.hypot(rho, a + 2.0 * math.pi * m)
                keep = np.flatnonzero((R > 0.0) & (R < split.r_cut))
                pair.append(keep)
                sign.append(np.full(len(keep), s))
                u.append(R[keep] / (2.0 * math.sqrt(split.eta)))
        assert np.array_equal(tables.image_pair, np.concatenate(pair))
        assert np.array_equal(np.sign(tables.image_weight), np.concatenate(sign))
        assert np.array_equal(tables.image_u[tables.image_at], np.concatenate(u))

    @pytest.mark.parametrize("x, xp, tables, ew", DEDUP_CASES)
    def test_pairs_are_those_of_erfcx_at_every_image(self, x, xp, tables, ew):
        # the reference tables keep one u per image, so pairs calls erfcx at
        # every image: the kernel of the distinct distances is the same to the bit
        every = copy.copy(tables)
        every.image_u = tables.image_u[tables.image_at]
        every.image_at = np.arange(len(every.image_u))
        assert len(every.image_u) > len(tables.image_u)
        assert np.array_equal(ew.pairs(tables), ew.pairs(every))

    def test_rectangle_takes_erfcx_once_per_distinct_u(self, monkeypatch):
        # the benchmark rectangle at order 12: at each delta of its sweep
        # (n_cut and split of the state) fewer than 0.55 of its images have
        # a u of their own, and pairs passes erfcx two arguments per distinct u
        surface, l, order, _ = SWEEPS["rectangle"]
        layout = pair_layout(build_quadrature(SURFACES[surface], order))
        k = int(math.floor(math.sqrt(SWEEP_PARAMS.eigenvalue(l))))
        seen, erfcx = [], greens.erfcx

        def counted(w):
            seen.append(np.size(w))
            return erfcx(w)

        monkeypatch.setattr(greens, "erfcx", counted)
        deltas = (0.05, 0.1, 0.2, 0.4)
        for delta, r_min in zip(deltas, scale_surface(layout.rule.surface, deltas)):
            state = SystemState(SWEEP_PARAMS, layout.scaled(delta, r_min), second_sheet(k), l)
            tables = state.tables
            assert len(tables.image_u) <= 0.55 * len(tables.image_at)
            seen.clear()
            EwaldGreen(SWEEP_PARAMS.eigenvalue(l) - 1e-4j, tables.split, state.ctx).pairs(tables)
            assert 0 < sum(seen) <= 2 * len(tables.image_u)


class TestResidueLaw:
    def test_gamma_inverse_blowup_rate(self):
        # Gamma_l(z)/(z - eps_l) -> 1/(4 pi xi_alpha) near the eigenvalue
        p = SpectralParams(alpha=0.0, beta=1.0)
        target = 1.0 / (4 * math.pi * p.xi_alpha)
        for l in (1, 2):
            for h in (1e-5, 1e-5j, -1e-5 + 1e-5j):
                val = gamma_from_gap(p.xi_alpha + h, l, first_sheet(), p) / h
                assert abs(val - target) < 1e-6 * abs(target) + 1e-6
