import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from layres.bs_operator import (
    IllConditionedError,
    PoleCollisionError,
    SingularMatrices,
    SystemState,
    _product_rows,
    _rotation_orbits,
    assemble_A_l,
    assemble_alpha,
    assemble_free,
    bs_determinant,
    default_mode_cutoff,
    eta_l,
    mode_vector,
    neumann_apply,
    pair_layout,
    singular_part_matrix,
)
from layres.geometry import (
    QuadratureRule,
    Surface,
    build_quadrature,
    disk,
    rectangle_patch,
    scale_surface,
    spherical_cap,
    with_anchor,
)
from layres.greens import layer_green
from layres.specfun import BranchPointError, SpectralParams, first_sheet, gamma_n, \
    second_sheet

PARAMS = SpectralParams(alpha=0.0, beta=0.4)
DISK = disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
SMALL = scale_surface(DISK, 0.08)
SYM_DISK = disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.3)
CAP = spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=0.6, polar_angle=0.9)
RECT = rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0.0, 1.0, 0.0),
                       direction2=(0.0, 0.0, 1.0), length1=0.6, length2=0.6)
TILTED = disk(center=(1.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=0.5)


def _ellipse(a=0.5, b=0.3, center=(1.0, 0.0, 1.0)):
    """Elliptic disk: periodic azimuth, but no rotation maps it onto itself."""
    c = np.asarray(center, float)
    ex, ey = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

    def param_map(u, th):
        return c + np.multiply.outer(a * u * np.cos(th), ex) + \
            np.multiply.outer(b * u * np.sin(th), ey)

    def tangent1(u, th):
        return np.multiply.outer(a * np.cos(th) * np.ones_like(u), ex) + \
            np.multiply.outer(b * np.sin(th) * np.ones_like(u), ey)

    def tangent2(u, th):
        return np.multiply.outer(-a * u * np.sin(th), ex) + \
            np.multiply.outer(b * u * np.cos(th), ey)

    return Surface(name="ellipse", param_map=param_map, tangent1=tangent1,
                   tangent2=tangent2, domain=((0.0, 1.0), (0.0, 2.0 * np.pi)),
                   x0=c, periodic2=True)


ELLIPSE = _ellipse()


def _reference_singular(rule, duffy_order):
    """Row-by-row, sub-triangle-by-sub-triangle product integration.

    The plain loop form of :func:`singular_part_matrix`: same graded
    apex-Duffy rule, but every row integrated and every sub-triangle
    accumulated on its own.
    """
    surf = rule.surface
    p = rule.order
    (a1, b1), (a2, b2) = surf.domain
    xg, _ = np.polynomial.legendre.leggauss(p)
    q1_nodes = 0.5 * (b1 - a1) * xg + 0.5 * (a1 + b1)
    if surf.periodic2:
        q2_nodes = a2 + (b2 - a2) * (np.arange(p) + 0.5) / p
    else:
        q2_nodes = 0.5 * (b2 - a2) * xg + 0.5 * (a2 + b2)

    def lagrange(x_nodes, pts):
        out = np.ones((len(pts), len(x_nodes)))
        for j, xj in enumerate(x_nodes):
            for m, xm in enumerate(x_nodes):
                if m != j:
                    out[:, j] *= (pts - xm) / (xj - xm)
        return out

    def trig(pts):
        half = math.pi * (pts[:, None] - q2_nodes[None, :]) / (b2 - a2)
        s = np.sin(half)
        near = np.abs(s) < 1e-12
        s[near] = 1.0
        if p % 2 == 0:
            l = np.sin(p * half) * np.cos(half) / (p * s)
        else:
            l = np.sin(p * half) / (p * s)
        l[near] = 1.0
        return l

    xd, wd = np.polynomial.legendre.leggauss(duffy_order)
    xd = 0.5 * (xd + 1.0)
    wd = 0.5 * wd
    u, v = xd[:, None], xd[None, :]
    wuv = np.outer(wd, wd)
    n = rule.n_nodes
    p_inv, p_lin = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        q1, q2 = rule.param_nodes[i]
        h1 = float(np.linalg.norm(surf.tangent1(q1, q2)))
        h2 = float(np.linalg.norm(surf.tangent2(q1, q2)))
        lo2, hi2 = (q2 - 0.5 * (b2 - a2), q2 + 0.5 * (b2 - a2)) if surf.periodic2 \
            else (a2, b2)
        corners = ((a1, lo2), (b1, lo2), (b1, hi2), (a1, hi2))
        for t in range(4):
            c1 = np.array([h1 * (corners[t][0] - q1), h2 * (corners[t][1] - q2)])
            c2 = np.array([h1 * (corners[(t + 1) % 4][0] - q1),
                           h2 * (corners[(t + 1) % 4][1] - q2)])
            if abs(c1[0] * c2[1] - c1[1] * c2[0]) < 1e-14:
                continue
            edge = c2 - c1
            length = float(np.hypot(*edge))
            t0 = min(max(-float(c1 @ edge) / length**2, 0.0), 1.0)
            dist = abs(c1[0] * c2[1] - c1[1] * c2[0]) / length
            cuts = {0.0, 1.0} | ({t0} if 0.0 < t0 < 1.0 else set())
            for sgn in (1.0, -1.0):
                step = dist / length
                while 0.0 < t0 + sgn * step < 1.0:
                    cuts.add(t0 + sgn * step)
                    step *= 2.0
            cuts = sorted(cuts)
            for k in range(len(cuts) - 1):
                e1 = c1 + cuts[k] * edge
                e2 = c1 + cuts[k + 1] * edge
                det = abs(e1[0] * e2[1] - e1[1] * e2[0])
                qq1 = q1 + u * ((1.0 - v) * e1[0] + v * e2[0]) / h1
                qq2 = q2 + u * ((1.0 - v) * e1[1] + v * e2[1]) / h2
                r = np.linalg.norm(surf.param_map(qq1, qq2) - rule.nodes[i], axis=-1)
                base = det * wuv * u * surf.jacobian(qq1, qq2) / (h1 * h2)
                l1 = lagrange(q1_nodes, qq1.ravel())
                l2 = trig(qq2.ravel()) if surf.periodic2 else lagrange(q2_nodes, qq2.ravel())
                for kern, out in ((base / r, p_inv), (base * r, p_lin)):
                    out[i] += (l1[:, :, None] * (kern.ravel()[:, None, None]
                                                 * l2[:, None, :])).sum(axis=0).ravel()
    return p_inv / (4.0 * math.pi), p_lin


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def rule12():
    return build_quadrature(DISK, 12)


@pytest.fixture(scope="module")
def small_state():
    ctx = second_sheet(1)
    return SystemState(PARAMS, build_quadrature(SMALL, 8), ctx)


class TestAssembleFree:
    def test_far_probe_matches_kernel(self):
        # two distant point masses: no self-interaction subtleties, the
        # matrix is just the kernel at the node pairs
        nodes = np.array([[1.0, 0.0, 1.0], [3.0, 0.5, 2.0]])
        rule = QuadratureRule.from_tabulated(nodes, [0.3, 0.3])
        op = assemble_free(-2.0, rule)
        want = layer_green(-2.0, nodes[0], nodes[1])
        assert op.matrix[0, 1] == pytest.approx(want, abs=1e-12)
        assert op.matrix[1, 0] == pytest.approx(want, abs=1e-12)

    def test_positive_definite_below_spectrum(self, rule12):
        op = assemble_free(-5.0, rule12)
        sw = np.sqrt(rule12.weights)
        sym = sw[:, None] * op.matrix.real * sw[None, :]
        ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert ev.min() > 0.0

    def test_bilinear_form_symmetric(self, rule12):
        op = assemble_free(-5.0, rule12)
        f = np.exp(-8.0 * np.linalg.norm(rule12.nodes - rule12.nodes.mean(0), axis=1) ** 2)
        g = np.cos(3 * rule12.nodes[:, 0]) + rule12.nodes[:, 2]
        a = np.sum(rule12.weights * f * op.apply(g))
        b = np.sum(rule12.weights * g * op.apply(f))
        assert abs(a - b) < 1e-8

    def test_singular_matrices_duffy_converged(self):
        rule = build_quadrature(DISK, 6)
        a = singular_part_matrix(rule, 24)
        b = singular_part_matrix(rule, 36)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12

    @pytest.mark.parametrize("surface", [DISK, CAP, RECT, ELLIPSE],
                             ids=["disk", "cap", "rectangle", "ellipse"])
    def test_singular_matrices_match_loop_reference(self, surface):
        rule = build_quadrature(surface, 5)
        got = singular_part_matrix(rule, 16)
        want = _reference_singular(rule, 16)
        assert _rel_max(got[0], want[0]) < 1e-12
        assert _rel_max(got[1], want[1]) < 1e-12

    def test_quadratic_form_refinement(self):
        # the weak form of the operator converges as the rule refines
        fn = lambda x: np.exp(-np.linalg.norm(x - np.array([1.2, 0.1, 1.3]), axis=-1) ** 2)
        vals = []
        for p in (12, 24):
            r = build_quadrature(DISK, p)
            op = assemble_free(-5.0, r)
            f = fn(r.nodes)
            vals.append(np.sum(r.weights * f * op.apply(f)))
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_empty_rule(self):
        rule = QuadratureRule.from_tabulated(np.zeros((0, 3)), np.zeros(0))
        op = assemble_free(-2.0, rule)
        assert op.matrix.shape == (0, 0)

    def test_coincident_nodes_rejected(self):
        nodes = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        rule = QuadratureRule.from_tabulated(nodes, [0.3, 0.3])
        with pytest.raises(ValueError):
            assemble_free(-2.0, rule)


class TestSingularBuild:
    @pytest.mark.parametrize("surface, symmetric", [
        (DISK, True), (CAP, True), (scale_surface(CAP, 0.02), True),
        (with_anchor(DISK, (1.3, 0.2, 1.0)), True), (RECT, False), (ELLIPSE, False)],
        ids=["disk", "cap", "scaled-cap", "anchored-disk", "rectangle", "ellipse"])
    def test_rotation_orbits_detected_from_surface(self, surface, symmetric):
        assert _rotation_orbits(build_quadrature(surface, 6)) is symmetric

    @pytest.mark.parametrize("surface", [DISK, CAP], ids=["disk", "cap"])
    def test_orbit_rows_match_all_rows(self, surface):
        # relative error in the Frobenius norm: the all-rows build evaluates
        # the parametrization at q2 + offset for q2 up to 2 pi, whose rounding
        # puts ~1e-15 absolute noise on single entries near the polar centre
        rule = build_quadrature(surface, 12)
        orbit = singular_part_matrix(rule)
        every = _product_rows(rule, range(rule.n_nodes), 24)
        for got, want in zip(orbit, every):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    @pytest.mark.parametrize("surface", [DISK, CAP, RECT], ids=["disk", "cap", "rectangle"])
    @pytest.mark.parametrize("delta", [0.02, 0.08])
    def test_homothety_matches_direct_build(self, surface, delta):
        base = SingularMatrices(build_quadrature(surface, 8))
        scaled = build_quadrature(scale_surface(surface, delta), 8)
        st = SystemState(PARAMS, scaled, second_sheet(1), singular_base=base, delta=delta)
        direct = singular_part_matrix(scaled)
        assert _rel_max(st.singular[0], direct[0]) < 1e-12
        assert _rel_max(st.singular[1], direct[1]) < 1e-12

    def test_scaled_state_needs_its_base(self):
        with pytest.raises(ValueError, match="base"):
            SystemState(PARAMS, build_quadrature(SMALL, 4), second_sheet(1), delta=0.08)


class TestPairLayout:
    @pytest.mark.parametrize("surface", [DISK, SYM_DISK, CAP],
                             ids=["disk", "midplane-disk", "cap"])
    def test_orbit_fill_matches_all_pairs(self, surface):
        rule = build_quadrature(surface, 12)
        layout = pair_layout(rule)
        assert layout.orbit
        assert len(layout.rows) == 12 * (rule.n_nodes - 1)
        iu, ju = np.triu_indices(rule.n_nodes, k=1)
        every = dataclasses.replace(layout, rows=iu, cols=ju, orbit=False)
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        singular = singular_part_matrix(rule)
        got = assemble_free(z, rule, second_sheet(1), singular, layout=layout).matrix
        want = assemble_free(z, rule, second_sheet(1), singular, layout=every).matrix
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    @pytest.mark.parametrize("surface", [TILTED, RECT], ids=["tilted-disk", "rectangle"])
    def test_non_orbit_surfaces_keep_all_pairs(self, surface):
        rule = build_quadrature(surface, 6)
        layout = pair_layout(rule)
        assert not layout.orbit
        assert len(layout.rows) == rule.n_nodes * (rule.n_nodes - 1) // 2

    def test_tilted_disk_is_rotation_symmetric_but_not_kernel_symmetric(self):
        # its rotation axis is not vertical, so x3 varies along each ring
        # and filling the kernel matrix along the orbits would be wrong
        rule = build_quadrature(TILTED, 6)
        assert _rotation_orbits(rule)
        every = pair_layout(rule)
        first = np.arange(0, rule.n_nodes, 6)
        rows, cols = np.nonzero(~np.eye(rule.n_nodes, dtype=bool)[first])
        forced = dataclasses.replace(every, rows=first[rows], cols=cols, orbit=True)
        singular = singular_part_matrix(rule)
        got = assemble_free(-2.0, rule, None, singular, layout=forced).matrix
        want = assemble_free(-2.0, rule, None, singular, layout=every).matrix
        assert np.linalg.norm(got - want) / np.linalg.norm(want) > 1e-4

    def test_state_caches_layout(self, small_state):
        assert small_state.layout is small_state.layout


def _norm_sq(w, weights) -> complex:
    """Bilinear ||w||^2 = sum_i weights_i w_i^2."""
    return complex(np.sum(weights * w * w))


def _point_rule(x) -> QuadratureRule:
    """Unit-weight rule on the given node or nodes."""
    nodes = np.atleast_2d(x)
    return QuadratureRule.from_tabulated(nodes, np.ones(len(nodes)))


class TestModeVector:
    def test_even_modes_vanish_on_midplane(self):
        rule = build_quadrature(SYM_DISK, 8)
        for n in (2, 4):
            w = mode_vector(-2.0, n, rule, first_sheet())
            assert np.max(np.abs(w)) < 1e-14

    def test_zero_at_mode_nodes(self):
        rule = _point_rule([1.0, 0.0, math.pi / 2])
        assert mode_vector(2.0, 2, rule, first_sheet())[0] == pytest.approx(0.0, abs=1e-15)

    def test_real_below_threshold(self):
        p = SpectralParams(alpha=0.0, beta=1.0)
        z = p.eigenvalue(1)  # below the first threshold, all kappa_n real
        val = mode_vector(z, 1, _point_rule([0.8, 0.3, 1.1]), first_sheet())[0]
        assert abs(np.imag(val)) < 1e-15

    def test_conjugation_symmetry(self):
        z = 2.5 + 0.3j
        rule = _point_rule([0.8, 0.3, 1.1])
        for n in (1, 2, 4):
            a = mode_vector(np.conj(z), n, rule, first_sheet())
            b = np.conj(mode_vector(z, n, rule, first_sheet()))
            assert a == pytest.approx(b, abs=1e-13)

    def test_on_wire_rejected(self):
        with pytest.raises(ValueError):
            mode_vector(2.0, 1, _point_rule([0.0, 0.0, 1.0]), first_sheet())

    def test_decay_in_mode_number(self, rule12):
        # below every threshold the restriction decays like exp(-kappa_n r_min);
        # divide out the transverse factor sin(n x3)^2 (all nodes at x3 = 1)
        z = -1.0
        norms = [abs(_norm_sq(mode_vector(z, n, rule12, first_sheet()), rule12.weights))
                 / math.sin(n * 1.0) ** 2 for n in (6, 8, 10)]
        assert norms[1] < norms[0] * math.exp(-2 * 0.4)
        assert norms[2] < norms[1] * math.exp(-2 * 0.4)

    def test_norm_scales_with_area(self):
        z = -1.0
        deltas = np.array([0.02, 0.04, 0.08])
        norms = []
        for d in deltas:
            r = build_quadrature(scale_surface(DISK, d), 8)
            norms.append(abs(_norm_sq(mode_vector(z, 1, r, first_sheet()), r.weights)))
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("surface, z, ctx", [
        (SMALL, PARAMS.eigenvalue(2) - 0.002 - 1e-4j, second_sheet(1)),
        (RECT, PARAMS.eigenvalue(3) - 0.002 - 1e-4j, second_sheet(2)),
        (DISK, 2.5 + 0.3j, first_sheet()),
    ], ids=["disk-second-k1", "rect-second-k2", "disk-first"])
    def test_mode_array_matches_scalar_calls(self, surface, z, ctx):
        rule = build_quadrature(surface, 6)
        modes = np.arange(1, 61)
        w = mode_vector(z, modes, rule, ctx)
        assert w.shape == (rule.n_nodes, len(modes))
        for j, n in enumerate(range(1, 61)):
            assert np.array_equal(w[:, j], mode_vector(z, n, rule, ctx))

    def test_scalar_mode_gives_a_vector(self, rule12):
        assert mode_vector(-1.0, 3, rule12, first_sheet()).shape == (rule12.n_nodes,)

    def test_bad_entry_in_mode_array_rejected(self, rule12):
        with pytest.raises(BranchPointError, match="n\\^2 = 4"):
            mode_vector(4.0, np.array([1, 2, 3]), rule12, first_sheet())
        with pytest.raises(ValueError, match="n must be >= 1"):
            mode_vector(-1.0, np.array([1, 0, 3]), rule12, first_sheet())
        rule = _point_rule([[0.8, 0.3, 1.1], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="rho > 0"):
            mode_vector(-1.0, np.array([1, 2]), rule, first_sheet())


class TestRankSums:
    def test_a_l_excludes_mode_l(self):
        # on the midplane all even modes vanish, so for l = 2 removing the
        # mode changes nothing, while for l = 1 it removes the leading term
        rule = build_quadrature(SYM_DISK, 6)
        ctx = first_sheet()
        full = assemble_alpha(-2.0, rule, ctx, PARAMS, n_cut=12)
        free = assemble_free(-2.0, rule, ctx)
        a_2 = assemble_A_l(-2.0, 2, rule, ctx, PARAMS, n_cut=12)
        assert np.max(np.abs(full.matrix - free.matrix - a_2.matrix)) < 1e-13

    def test_a_l_norm_scales_with_area(self):
        deltas = np.array([0.02, 0.04, 0.08])
        norms = []
        for d in deltas:
            r = build_quadrature(scale_surface(DISK, d), 6)
            norms.append(assemble_A_l(-2.0, 1, r, first_sheet(), PARAMS, n_cut=20).op_norm())
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_rank_bound(self):
        rule = build_quadrature(SMALL, 6)
        op = assemble_A_l(-2.0, 1, rule, first_sheet(), PARAMS, n_cut=15)
        rank = np.linalg.matrix_rank(op.matrix, tol=1e-13)
        assert rank <= 14

    def test_mode_cutoff_doubling_converged(self, small_state):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        a = eta_l(z, 2, small_state)
        st2 = SystemState(PARAMS, small_state.rule, small_state.ctx,
                          n_cut=2 * small_state.n_cut)
        b = eta_l(z, 2, st2)
        assert abs(a - b) < 1e-10

    def test_product_matches_per_mode_loop(self):
        rule = build_quadrature(RECT, 6)
        ctx = second_sheet(2)
        z = PARAMS.eigenvalue(3) - 0.002 - 1e-4j
        got = assemble_A_l(z, 3, rule, ctx, PARAMS, n_cut=60).matrix
        want = np.zeros((rule.n_nodes, rule.n_nodes), dtype=complex)
        for n in range(1, 61):
            if n != 3:
                w = mode_vector(z, n, rule, ctx)
                want += np.multiply.outer(w, w) / gamma_n(z, n, ctx, PARAMS)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-14

    def test_default_mode_cutoff(self, rule12):
        n_cut = default_mode_cutoff(rule12, second_sheet(1), tail_tol=1e-12)
        assert n_cut >= 41


class TestEtaL:
    def test_empty_surface_reduces_to_gamma(self):
        rule = QuadratureRule.from_tabulated(np.zeros((0, 3)), np.zeros(0))
        st = SystemState(PARAMS, rule, second_sheet(1))
        z = 2.6 - 0.01j
        assert eta_l(z, 2, st) == pytest.approx(gamma_n(z, 2, st.ctx, PARAMS), abs=0)

    def test_symmetric_plane_decouples(self):
        # impurity on the x3 = pi/2 midplane: w_2 = 0, so eta_2 = Gamma_2
        rule = build_quadrature(SYM_DISK, 8)
        st = SystemState(PARAMS, rule, second_sheet(1))
        z = PARAMS.eigenvalue(2) - 0.002 - 1e-4j
        assert abs(eta_l(z, 2, st) - gamma_n(z, 2, st.ctx, PARAMS)) < 1e-25

    def test_rule_refinement(self):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        vals = []
        for p in (8, 12):
            st = SystemState(PARAMS, build_quadrature(SMALL, p), second_sheet(1))
            vals.append(eta_l(z, 2, st))
        assert abs(vals[0] - vals[1]) < 1e-9

    def test_analytic_in_z(self, small_state):
        # Cauchy-Riemann via centered differences on the second sheet
        z = PARAMS.eigenvalue(2) - 0.003 - 2e-4j
        h = 1e-6
        free = None
        dre = (eta_l(z + h, 2, small_state) - eta_l(z - h, 2, small_state)) / (2 * h)
        dim = (eta_l(z + 1j * h, 2, small_state) - eta_l(z - 1j * h, 2, small_state)) / (2j * h)
        assert abs(dre - dim) < 1e-5 * max(1.0, abs(dre))

    def test_pole_collision_guard(self, small_state):
        with pytest.raises(PoleCollisionError):
            eta_l(complex(PARAMS.eigenvalue(3)), 2, small_state)

    def test_ill_conditioned_guard(self, rule12):
        op = assemble_free(-5.0, rule12)
        lam = np.linalg.eigvals(op.weighted).real.max()
        bad = SpectralParams(alpha=0.0, beta=1.0 / lam)
        st = SystemState(bad, rule12, first_sheet())
        with pytest.raises(IllConditionedError):
            eta_l(-5.0, 1, st)


class TestDeterminant:
    def test_small_beta_near_one(self, rule12):
        weak = SpectralParams(alpha=0.0, beta=1e-8)
        st = SystemState(weak, rule12, first_sheet(), n_cut=10)
        assert bs_determinant(-5.0, st) == pytest.approx(1.0, abs=1e-5)

    def test_factorization_identity(self, small_state):
        # (I - b R_a) = (I - b R)(I - b G A_l)(I - b Gamma_l^-1 (w_l, .) T_l w_l)
        st = small_state
        rule, ctx, beta = st.rule, st.ctx, st.params.beta
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        n = rule.n_nodes
        eye = np.eye(n, dtype=complex)
        free = st.free_op(z)
        a_l = assemble_A_l(z, 2, rule, ctx, st.params, st.n_cut)
        r_a = assemble_alpha(z, rule, ctx, st.params, st.n_cut, free=free)
        lu_b = lu_factor(eye - beta * free.weighted)
        g_a = lu_solve(lu_b, a_l.weighted)
        lu_m = lu_factor(eye - beta * g_a)
        w_l = mode_vector(z, 2, rule, ctx)
        t_w = lu_solve(lu_m, lu_solve(lu_b, w_l))
        gl = gamma_n(z, 2, ctx, st.params)
        lhs = eye - beta * r_a.weighted
        rhs = ((eye - beta * free.weighted) @ (eye - beta * g_a)
               @ (eye - beta * np.outer(t_w, rule.weights * w_l) / gl))
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            resid = np.max(np.abs((lhs - rhs) @ v)) / np.max(np.abs(lhs @ v))
            assert resid < 1e-9

    def test_sheet_continuity_across_cut(self, rule12):
        # det is continuous from above (sheet I) to below (sheet II)
        eps = 1e-7
        lam = 1.9
        st_up = SystemState(PARAMS, rule12, first_sheet(), n_cut=45)
        st_dn = SystemState(PARAMS, rule12, second_sheet(1), n_cut=45)
        up = bs_determinant(lam + 1j * eps, st_up)
        dn = bs_determinant(lam - 1j * eps, st_dn)
        assert abs(up - dn) < 1e-5 * abs(up)


class TestNeumann:
    def test_matches_direct_solve(self, rule12):
        op = assemble_free(-2.0, rule12)
        beta = 0.25 / op.op_norm()
        assert beta * op.op_norm() < 0.3
        f = np.cos(rule12.nodes[:, 1])
        eye = np.eye(rule12.n_nodes, dtype=complex)
        direct = lu_solve(lu_factor(eye - beta * op.weighted), f.astype(complex))
        series = neumann_apply(op, beta, f)
        assert np.max(np.abs(direct - series)) < 1e-8
