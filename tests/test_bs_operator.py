import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from layres import bs_operator
from layres.bs_operator import (
    IllConditionedError,
    PairLayout,
    PoleCollisionError,
    SystemState,
    _node_group,
    _pair_orbits,
    _product_rows,
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
FLAT_RECT = rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1.0, 0.0, 0.0),
                            direction2=(0.0, 1.0, 0.0), length1=0.6, length2=0.4)
#: neither side is horizontal, so no reflection keeps x3
SLANTED = rectangle_patch(center=(1.0, 0.0, 1.2), direction1=(1.0, 0.0, 1.0),
                          direction2=(0.0, 1.0, 1.0), length1=0.6, length2=0.4)


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


def _op_norm(op, weights) -> float:
    """Spectral norm on L^2 of the Nystrom matrix op = K diag(w)."""
    sw = np.sqrt(weights)
    return float(np.linalg.norm(sw[:, None] * op / sw[None, :], ord=2))


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def rule12():
    return build_quadrature(DISK, 12)


@pytest.fixture(scope="module")
def small_state():
    ctx = second_sheet(1)
    return SystemState(PARAMS, build_quadrature(SMALL, 8), ctx, 2)


class TestAssembleFree:
    def test_far_probe_matches_kernel(self):
        # less its singular corrections, every off-diagonal entry is the
        # kernel at the node pair
        z = -2.0
        rule = build_quadrature(DISK, 6)
        layout = pair_layout(rule)
        mat = assemble_free(z, rule, None, layout) / rule.weights \
            - layout.corr_inv + z / (8.0 * math.pi) * layout.corr_lin
        for i, j in zip(*np.nonzero(~np.eye(rule.n_nodes, dtype=bool))):
            want = layer_green(z, rule.nodes[i], rule.nodes[j])
            assert mat[i, j] == pytest.approx(want, abs=1e-12)

    def test_positive_definite_below_spectrum(self, rule12):
        op = assemble_free(-5.0, rule12)
        sw = np.sqrt(rule12.weights)
        sym = sw[:, None] * op.real / sw[None, :]
        ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert ev.min() > 0.0

    def test_bilinear_form_symmetric(self, rule12):
        op = assemble_free(-5.0, rule12)
        f = np.exp(-8.0 * np.linalg.norm(rule12.nodes - rule12.nodes.mean(0), axis=1) ** 2)
        g = np.cos(3 * rule12.nodes[:, 0]) + rule12.nodes[:, 2]
        a = np.sum(rule12.weights * f * (op @ g))
        b = np.sum(rule12.weights * g * (op @ f))
        assert abs(a - b) < 1e-8

    def test_singular_matrices_duffy_converged(self):
        rule = build_quadrature(DISK, 6)
        a = singular_part_matrix(rule, 24)
        b = singular_part_matrix(rule, 36)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12

    @pytest.mark.parametrize("surface, order", [
        pytest.param(surface, order, id=name if order == 5 else f"{name}-order{order}")
        for order in (5, 6)
        for name, surface in (("disk", DISK), ("cap", CAP), ("rectangle", RECT),
                              ("ellipse", ELLIPSE))])
    def test_singular_matrices_match_loop_reference(self, surface, order):
        # order 6 reaches the half-weight k = p/2 trigonometric column, order 5
        # the folded middle rows of the rectangle and the ellipse
        rule = build_quadrature(surface, order)
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
            vals.append(np.sum(r.weights * f * (op @ f)))
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_coincident_nodes_rejected(self):
        # x(q) = c + |q1| L u1 + q2 L u2 folds the square onto its right half:
        # a valid surface whose Gauss nodes q1 and -q1 coincide
        c, u1, u2, length = np.array([1.0, 0.0, 1.0]), np.eye(3)[0], np.eye(3)[1], 0.4
        folded = Surface(
            name="folded",
            param_map=lambda q1, q2: c + np.multiply.outer(np.abs(q1) * length, u1)
            + np.multiply.outer(q2 * length, u2),
            tangent1=lambda q1, q2: np.multiply.outer(np.sign(q1) * length + 0.0 * q2, u1),
            tangent2=lambda q1, q2: np.multiply.outer(length + 0.0 * (q1 + q2), u2),
            domain=((-0.5, 0.5), (-0.5, 0.5)), x0=c)
        with pytest.raises(ValueError, match="quadrature nodes must be pairwise distinct"):
            assemble_free(-2.0, build_quadrature(folded, 4))


def _shift(p):
    """Node permutation of the one-node q2 shift on an order-p tensor rule."""
    return np.roll(np.arange(p * p).reshape(p, p), -1, axis=1).ravel()


def _with_pairs(layout, group):
    """``layout`` with the pairs of ``group`` (rows are node permutations)."""
    rows, cols, index = _pair_orbits(np.asarray(group))
    return dataclasses.replace(layout, rows=rows, cols=cols, index=index)


def _all_pairs(layout, n):
    return _with_pairs(layout, [np.arange(n)])


#: order-12 surfaces with their group size, integrated rows and kernel pairs
GROUPS = [
    (DISK, 24, 12, 534), (CAP, 24, 12, 534), (RECT, 4, 36, 5184),
    (FLAT_RECT, 4, 36, 2628), (SLANTED, 4, 36, 10296), (TILTED, 24, 12, 5184),
    (ELLIPSE, 2, 72, 5184)]
GROUP_IDS = ["disk", "cap", "rectangle", "flat-rectangle", "slanted-rectangle",
             "tilted-disk", "ellipse"]


class TestSingularBuild:
    @pytest.mark.parametrize("surface, symmetric", [
        (DISK, True), (CAP, True), (scale_surface(CAP, 0.02), True),
        (with_anchor(DISK, (1.3, 0.2, 1.0)), True), (RECT, False), (ELLIPSE, False)],
        ids=["disk", "cap", "scaled-cap", "anchored-disk", "rectangle", "ellipse"])
    def test_rotation_orbits_detected_from_surface(self, surface, symmetric):
        group = _node_group(build_quadrature(surface, 6))
        assert any(np.array_equal(g, _shift(6)) for g in group) is symmetric

    @pytest.mark.parametrize("surface, order", [
        (DISK, 12), (CAP, 12), (RECT, 8), (FLAT_RECT, 8), (SLANTED, 8), (TILTED, 8),
        (ELLIPSE, 8)], ids=GROUP_IDS)
    def test_orbit_rows_match_all_rows(self, surface, order):
        # relative error in the Frobenius norm: the all-rows build evaluates
        # the parametrization at q2 + offset for q2 up to 2 pi, whose rounding
        # puts ~1e-15 absolute noise on single entries near the polar centre
        rule = build_quadrature(surface, order)
        orbit = singular_part_matrix(rule)
        every = _product_rows(rule, range(rule.n_nodes), 24, np.arange(rule.n_nodes)[None])
        for got, want in zip(orbit, every):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    @pytest.mark.parametrize("surface, share", [(DISK, 0.5), (RECT, 1.0)],
                             ids=["disk", "even-rectangle"])
    def test_mirror_rows_integrate_half_the_points(self, surface, share):
        # every integrated disk row is fixed by a reflection and folded; an
        # even-order rectangle has no node on a mirror line
        rule = build_quadrature(surface, 8)
        group = _node_group(rule)
        rows = np.unique(group.min(axis=0))
        points = []

        def counted(q1, q2):
            points.append(np.size(q1))
            return surface.param_map(q1, q2)

        counting = dataclasses.replace(
            rule, surface=dataclasses.replace(surface, param_map=counted))
        counts = []
        for g in (group, np.arange(rule.n_nodes)[None]):
            points.clear()
            _product_rows(counting, rows, 16, g)
            counts.append(list(points))
        folded, whole = np.array(counts)
        assert len(whole) == len(rows)
        assert np.array_equal(folded, share * whole)

    @pytest.mark.parametrize("surface", [DISK, CAP, RECT], ids=["disk", "cap", "rectangle"])
    @pytest.mark.parametrize("delta", [0.02, 0.08])
    def test_homothety_matches_direct_build(self, surface, delta):
        got = pair_layout(build_quadrature(surface, 8)).scaled(delta)
        want = pair_layout(build_quadrature(scale_surface(surface, delta), 8))
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.index, want.index)
        assert _rel_max(got.corr_inv, want.corr_inv) < 1e-12
        assert _rel_max(got.corr_lin, want.corr_lin) < 1e-12


class TestNodeGroup:
    @pytest.mark.parametrize("surface, size, n_rows, n_pairs", GROUPS, ids=GROUP_IDS)
    def test_group_rows_and_pairs(self, surface, size, n_rows, n_pairs, monkeypatch):
        rule = build_quadrature(surface, 12)
        assert len(_node_group(rule)) == size
        integrated = []

        def rows_only(rule, rows, duffy_order, group):
            integrated.extend(rows)
            blank = np.zeros((len(rows), rule.n_nodes))
            return blank, blank

        monkeypatch.setattr(bs_operator, "_product_rows", rows_only)
        layout = pair_layout(rule)
        assert len(integrated) == n_rows
        assert len(layout.rows) == n_pairs
        assert np.all(layout.rows < layout.cols)

    def test_elements_are_distinct_permutations(self):
        group = _node_group(build_quadrature(DISK, 6))
        assert np.array_equal(group[0], np.arange(36))
        assert np.array_equal(np.sort(group, axis=1), np.broadcast_to(np.arange(36), group.shape))
        assert len({g.tobytes() for g in group}) == len(group)

    def test_tabulated_rule_gets_the_identity(self):
        # no reflection of the slanted rectangle keeps x3, so the kernel
        # subgroup is the identity: every upper-triangle pair is evaluated
        rule = build_quadrature(SLANTED, 3)
        assert len(_node_group(rule)) == 4
        layout = pair_layout(rule)
        rows, cols = np.triu_indices(9, 1)
        assert np.array_equal(layout.rows, rows) and np.array_equal(layout.cols, cols)
        index = np.full((9, 9), len(rows))
        index[rows, cols] = index[cols, rows] = np.arange(len(rows))
        assert np.array_equal(layout.index, index)

    def test_forced_x3_changing_reflection_is_wrong(self):
        # the q2 reflection of the benchmark rectangle is an isometry but
        # flips x3 about the centre, so the kernel does not share its orbits
        rule = build_quadrature(RECT, 12)
        layout = pair_layout(rule)
        group = _node_group(rule)
        assert len(group) == 4 and len(layout.rows) == 5184
        forced = _with_pairs(layout, group)
        z = PARAMS.eigenvalue(3) - 0.001 - 1e-4j
        got = assemble_free(z, rule, second_sheet(2), forced) / rule.weights
        want = assemble_free(z, rule, second_sheet(2), layout) / rule.weights
        assert np.linalg.norm(got - want) / np.linalg.norm(want) > 1e-4


class TestPairLayout:
    @pytest.mark.parametrize("surface", [DISK, SYM_DISK, CAP, RECT, FLAT_RECT, SLANTED,
                                         TILTED, ELLIPSE],
                             ids=["disk", "midplane-disk", "cap", "rectangle",
                                  "flat-rectangle", "slanted-rectangle", "tilted-disk",
                                  "ellipse"])
    def test_orbit_fill_matches_all_pairs(self, surface):
        rule = build_quadrature(surface, 12)
        layout = pair_layout(rule)
        every = _all_pairs(layout, rule.n_nodes)
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        got = assemble_free(z, rule, second_sheet(1), layout) / rule.weights
        want = assemble_free(z, rule, second_sheet(1), every) / rule.weights
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    def test_tilted_disk_is_rotation_symmetric_but_not_kernel_symmetric(self):
        # its rotation axis is not vertical, so x3 varies along each ring
        # and filling the kernel matrix along the rotation orbits would be wrong
        rule = build_quadrature(TILTED, 6)
        group = _node_group(rule)
        assert any(np.array_equal(g, _shift(6)) for g in group)
        every = _all_pairs(pair_layout(rule), rule.n_nodes)
        forced = _with_pairs(every, group)
        got = assemble_free(-2.0, rule, None, forced) / rule.weights
        want = assemble_free(-2.0, rule, None, every) / rule.weights
        assert np.linalg.norm(got - want) / np.linalg.norm(want) > 1e-4

    def test_state_caches_layout(self, small_state):
        # the state builds its layout once; a layout passed in is kept
        layout = small_state.layout
        assert isinstance(layout, PairLayout)
        st = SystemState(PARAMS, small_state.rule, small_state.ctx, 2, layout=layout)
        assert st.layout is layout


def _norm_sq(w, weights) -> complex:
    """Bilinear ||w||^2 = sum_i weights_i w_i^2."""
    return complex(np.sum(weights * w * w))


class TestModeVector:
    def test_even_modes_vanish_on_midplane(self):
        rule = build_quadrature(SYM_DISK, 8)
        for z in (-2.0, 2.0):
            for n in (2, 4):
                w = mode_vector(z, n, rule, first_sheet())
                assert np.max(np.abs(w)) < 1e-15

    def test_real_below_threshold(self):
        p = SpectralParams(alpha=0.0, beta=1.0)
        z = p.eigenvalue(1)  # below the first threshold, all kappa_n real
        val = mode_vector(z, 1, build_quadrature(DISK, 6), first_sheet())
        assert np.max(np.abs(np.imag(val))) < 1e-15

    def test_conjugation_symmetry(self):
        z = 2.5 + 0.3j
        rule = build_quadrature(DISK, 6)
        for n in (1, 2, 4):
            a = mode_vector(np.conj(z), n, rule, first_sheet())
            b = np.conj(mode_vector(z, n, rule, first_sheet()))
            assert a == pytest.approx(b, abs=1e-13)

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


class TestRankSums:
    def test_a_l_excludes_mode_l(self):
        # on the midplane all even modes vanish, so for l = 2 removing the
        # mode changes nothing, while for l = 1 it removes the leading term
        rule = build_quadrature(SYM_DISK, 6)
        ctx = first_sheet()
        full = assemble_alpha(-2.0, rule, ctx, PARAMS, n_cut=12)
        free = assemble_free(-2.0, rule, ctx)
        a_2 = assemble_A_l(-2.0, 2, rule, ctx, PARAMS, n_cut=12)
        assert np.max(np.abs((full - free - a_2) / rule.weights)) < 1e-13

    def test_a_l_norm_scales_with_area(self):
        deltas = np.array([0.02, 0.04, 0.08])
        norms = []
        for d in deltas:
            r = build_quadrature(scale_surface(DISK, d), 6)
            norms.append(_op_norm(assemble_A_l(-2.0, 1, r, first_sheet(), PARAMS, n_cut=20),
                                  r.weights))
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_rank_bound(self):
        rule = build_quadrature(SMALL, 6)
        op = assemble_A_l(-2.0, 1, rule, first_sheet(), PARAMS, n_cut=15)
        rank = np.linalg.matrix_rank(op / rule.weights, tol=1e-13)
        assert rank <= 14

    def test_mode_cutoff_doubling_converged(self, small_state):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        a = eta_l(z, small_state)
        st2 = SystemState(PARAMS, small_state.rule, small_state.ctx, 2,
                          n_cut=2 * small_state.n_cut)
        b = eta_l(z, st2)
        assert abs(a - b) < 1e-10

    def test_product_matches_per_mode_loop(self):
        rule = build_quadrature(RECT, 6)
        ctx = second_sheet(2)
        z = PARAMS.eigenvalue(3) - 0.002 - 1e-4j
        got = assemble_A_l(z, 3, rule, ctx, PARAMS, n_cut=60) / rule.weights
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
    def test_symmetric_plane_decouples(self):
        # impurity on the x3 = pi/2 midplane: w_2 = 0, so eta_2 = Gamma_2
        rule = build_quadrature(SYM_DISK, 8)
        st = SystemState(PARAMS, rule, second_sheet(1), 2)
        z = PARAMS.eigenvalue(2) - 0.002 - 1e-4j
        assert abs(eta_l(z, st) - gamma_n(z, 2, st.ctx, PARAMS)) < 1e-25

    def test_rule_refinement(self):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        vals = []
        for p in (8, 12):
            st = SystemState(PARAMS, build_quadrature(SMALL, p), second_sheet(1), 2)
            vals.append(eta_l(z, st))
        assert abs(vals[0] - vals[1]) < 1e-9

    def test_analytic_in_z(self, small_state):
        # Cauchy-Riemann via centered differences on the second sheet
        z = PARAMS.eigenvalue(2) - 0.003 - 2e-4j
        h = 1e-6
        free = None
        dre = (eta_l(z + h, small_state) - eta_l(z - h, small_state)) / (2 * h)
        dim = (eta_l(z + 1j * h, small_state) - eta_l(z - 1j * h, small_state)) / (2j * h)
        assert abs(dre - dim) < 1e-5 * max(1.0, abs(dre))

    def test_pole_collision_guard(self, small_state):
        with pytest.raises(PoleCollisionError, match="mode 3 "):
            eta_l(complex(PARAMS.eigenvalue(3)), small_state)

    def test_ill_conditioned_guard(self, rule12):
        # beta = 1 / lambda_max(R + A_1) makes M_1 = I - beta (R + A_1) singular
        ctx = first_sheet()
        n_cut = default_mode_cutoff(rule12, ctx)
        op = assemble_free(-5.0, rule12) + assemble_A_l(-5.0, 1, rule12, ctx, PARAMS, n_cut)
        lam = np.linalg.eigvals(op).real.max()
        st = SystemState(SpectralParams(alpha=0.0, beta=1.0 / lam), rule12, ctx, 1)
        with pytest.raises(IllConditionedError, match=r"I - beta \(R_SigmaSigma \+ A_l\)"):
            eta_l(-5.0, st)

    def test_one_factorization_per_eta(self, small_state, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(bs_operator, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("lu_factor", "lu_solve"):
            monkeypatch.setattr(bs_operator, name, counted(name))
        diagnostics = {}
        eta_l(PARAMS.eigenvalue(2) - 0.001 - 1e-4j, small_state, diagnostics)
        assert calls == ["lu_factor", "lu_solve"]
        assert list(diagnostics) == ["cond[I - beta (R_SigmaSigma + A_l)]"]


class TestDeterminant:
    def test_small_beta_near_one(self, rule12):
        weak = SpectralParams(alpha=0.0, beta=1e-8)
        st = SystemState(weak, rule12, first_sheet(), 1, n_cut=10)
        assert bs_determinant(-5.0, st) == pytest.approx(1.0, abs=1e-5)

    def test_factorization_identity(self, small_state):
        # (I - b R_a) = (I - b R)(I - b G A_l)(I - b Gamma_l^-1 (w_l, .) T_l w_l)
        st = small_state
        rule, ctx, beta = st.rule, st.ctx, st.params.beta
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        n = rule.n_nodes
        eye = np.eye(n, dtype=complex)
        free = assemble_free(z, rule, ctx, st.layout)
        a_l = assemble_A_l(z, 2, rule, ctx, st.params, st.n_cut)
        r_a = assemble_alpha(z, rule, ctx, st.params, st.n_cut, free=free)
        lu_b = lu_factor(eye - beta * free)
        g_a = lu_solve(lu_b, a_l)
        lu_m = lu_factor(eye - beta * g_a)
        w_l = mode_vector(z, 2, rule, ctx)
        t_w = lu_solve(lu_m, lu_solve(lu_b, w_l))
        gl = gamma_n(z, 2, ctx, st.params)
        lhs = eye - beta * r_a
        rhs = ((eye - beta * free) @ (eye - beta * g_a)
               @ (eye - beta * np.outer(t_w, rule.weights * w_l) / gl))
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            resid = np.max(np.abs((lhs - rhs) @ v)) / np.max(np.abs(lhs @ v))
            assert resid < 1e-9

    @pytest.mark.parametrize("point", ["second-sheet", "singular-free-part"])
    def test_eta_determinant_identity(self, small_state, rule12, point):
        # Gamma_l det(I - beta R_alpha) = eta_l det(M_l), M_l = I - beta (R + A_l)
        if point == "second-sheet":
            st, z = small_state, PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        else:
            # I - beta R is singular here (cond 2e15), M_1 is not
            lam = np.linalg.eigvals(assemble_free(-5.0, rule12)).real.max()
            st = SystemState(SpectralParams(alpha=0.0, beta=1.0 / lam), rule12,
                             first_sheet(), 1)
            z = -5.0
        rule, ctx, params, beta, l = st.rule, st.ctx, st.params, st.params.beta, st.l
        eye = np.eye(rule.n_nodes)
        free = assemble_free(z, rule, ctx, st.layout)
        m_l = eye - beta * (free + assemble_A_l(z, l, rule, ctx, params, st.n_cut))
        r_a = assemble_alpha(z, rule, ctx, params, st.n_cut, free=free)
        lhs = gamma_n(z, l, ctx, params) * np.linalg.det(eye - beta * r_a)
        rhs = eta_l(z, st) * np.linalg.det(m_l)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_sheet_continuity_across_cut(self, rule12):
        # det is continuous from above (sheet I) to below (sheet II)
        eps = 1e-7
        lam = 1.9
        st_up = SystemState(PARAMS, rule12, first_sheet(), 2, n_cut=45)
        st_dn = SystemState(PARAMS, rule12, second_sheet(1), 2, n_cut=45)
        up = bs_determinant(lam + 1j * eps, st_up)
        dn = bs_determinant(lam - 1j * eps, st_dn)
        assert abs(up - dn) < 1e-5 * abs(up)


class TestNeumann:
    def test_matches_direct_solve(self, rule12):
        op = assemble_free(-2.0, rule12)
        norm = _op_norm(op, rule12.weights)
        beta = 0.25 / norm
        assert beta * norm < 0.3
        f = np.cos(rule12.nodes[:, 1])
        eye = np.eye(rule12.n_nodes, dtype=complex)
        direct = lu_solve(lu_factor(eye - beta * op), f.astype(complex))
        series = neumann_apply(op, beta, f)
        assert np.max(np.abs(direct - series)) < 1e-8
