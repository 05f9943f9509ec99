import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from layres import bs_operator
from layres.bs_operator import (
    IllConditionedError,
    PairLayout,
    PoleCollisionError,
    SystemState,
    _duffy_order,
    _node_group,
    _pair_orbits,
    _product_rows,
    assemble_A_l,
    assemble_alpha,
    assemble_free,
    bs_determinant,
    eta_l,
    mode_cutoff,
    mode_table,
    mode_vector,
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
from layres.greens import EwaldGreen, EwaldSplit, EwaldTables, layer_green_modal
from layres.resonance import find_pole, pole_state
from layres.specfun import BranchPointError, SpectralParams, first_sheet, gamma_n, \
    second_sheet
from surface_copies import copy_surface

PARAMS = SpectralParams(alpha=0.0, beta=0.4)
DISK = disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
SMALL = copy_surface(DISK, 0.08)
SYM_DISK = disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.3)
CAP = spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=0.6, polar_angle=0.9)
RECT = rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0.0, 1.0, 0.0),
                       direction2=(0.0, 0.0, 1.0), length1=0.6, length2=0.6)
TILTED = disk(center=(1.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=0.5)
#: a cap larger than a hemisphere, whose pole is the most sensitive to its Duffy rule
WIDE_CAP = spherical_cap(sphere_center=(1.2, 0.0, 1.5), radius=0.6, polar_angle=2.3)
#: 4.3 from the wire; alpha = 0.3 puts eps_2 = 3.97 just below the top of J_1
FAR_DISK = disk(center=(4.8, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
FAR_PARAMS = SpectralParams(alpha=0.3, beta=0.4)
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

    def jacobian(u, th):
        return a * b * u * np.ones_like(th)

    return Surface(name="ellipse", param_map=param_map, jacobian=jacobian,
                   domain=((0.0, 1.0), (0.0, 2.0 * np.pi)), x0=c, periodic2=True)


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
            if abs(c1[0] * c2[1] - c1[1] * c2[0]) <= 1e-14 * np.hypot(*c1) * np.hypot(*c2):
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


def _state(layout, ctx=None, l=1, **kwargs):
    """State of eps_l on the rule of ``layout``; the first sheet by default."""
    return SystemState(PARAMS, layout, ctx or first_sheet(), l, **kwargs)


def _a_l(z, state):
    """A_l of ``state`` at z from its own mode table, as eta_l assembles it."""
    return assemble_A_l(z, state, mode_table(z, state))


def _term(n, eps_l, r_min):
    """e^(-2 kappa_n r_min), the size of the rank-sum term of mode n."""
    return math.exp(-2.0 * math.sqrt(n * n - eps_l) * r_min)


@pytest.fixture(scope="module")
def rule12():
    return build_quadrature(DISK, 12)


@pytest.fixture(scope="module")
def state12(rule12):
    return _state(pair_layout(rule12))


@pytest.fixture(scope="module")
def small_state():
    ctx = second_sheet(1)
    return SystemState(PARAMS, pair_layout(build_quadrature(SMALL, 8)), ctx, 2)


class TestAssembleFree:
    def test_far_probe_matches_kernel(self):
        # less its singular corrections, every off-diagonal entry is the
        # kernel at the node pair
        z = -2.0
        rule = build_quadrature(DISK, 6)
        st = _state(pair_layout(rule))
        layout = st.layout
        mat = assemble_free(z, st) / rule.weights \
            - layout.corr_inv + z / (8.0 * math.pi) * layout.corr_lin
        for i, j in zip(*np.nonzero(~np.eye(rule.n_nodes, dtype=bool))):
            want = layer_green_modal(z, rule.nodes[i], rule.nodes[j], first_sheet())
            assert mat[i, j] == pytest.approx(want, abs=1e-12)

    def test_positive_definite_below_spectrum(self, rule12, state12):
        op = assemble_free(-5.0, state12)
        sw = np.sqrt(rule12.weights)
        sym = sw[:, None] * op.real / sw[None, :]
        ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert ev.min() > 0.0

    def test_bilinear_form_symmetric(self, rule12, state12):
        op = assemble_free(-5.0, state12)
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
            op = assemble_free(-5.0, _state(pair_layout(r)))
            f = fn(r.nodes)
            vals.append(np.sum(r.weights * f * (op @ f)))
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_coincident_nodes_rejected(self):
        # a valid surface whose Gauss nodes q1 and -q1 coincide
        with pytest.raises(ValueError, match="quadrature nodes must be pairwise distinct"):
            assemble_free(-2.0, _state(pair_layout(build_quadrature(_folded(), 4))))


def _folded():
    """x(q) = c + |q1| L u1 + q2 L u2: the square folded onto its right half.

    |q1| is written sqrt(q1 q1), whose complex step has the derivative
    sign(q1) (np.abs has none); its Jacobian L^2 holds off the fold line,
    which has measure zero.
    """
    c, u1, u2, length = np.array([1.0, 0.0, 1.0]), np.eye(3)[0], np.eye(3)[1], 0.4
    return Surface(
        name="folded",
        param_map=lambda q1, q2: c + np.multiply.outer(np.sqrt(q1 * q1) * length, u1)
        + np.multiply.outer(q2 * length, u2),
        jacobian=lambda q1, q2: np.full(np.broadcast_shapes(np.shape(q1), np.shape(q2)),
                                        length**2),
        domain=((-0.5, 0.5), (-0.5, 0.5)), x0=c)


def _shift(p):
    """Node permutation of the one-node q2 shift on an order-p tensor rule."""
    return np.roll(np.arange(p * p).reshape(p, p), -1, axis=1).ravel()


def _with_pairs(layout, group):
    """``layout`` with the pairs of ``group`` (rows are node permutations)."""
    rows, cols, index = _pair_orbits(np.asarray(group))
    return dataclasses.replace(layout, rows=rows, cols=cols, index=index)


def _all_pairs(layout, n):
    return _with_pairs(layout, [np.arange(n)])


def _patch(bend):
    """Square x = c + q1 L e1 + q2 L e2 + bend q1 q2 L e3 on [-1/2, 1/2]^2."""
    c, (e1, e2, e3), length = np.array([1.0, 0.0, 1.0]), np.eye(3), 0.4

    def param_map(q1, q2):
        return (c + np.multiply.outer(q1 * length, e1) + np.multiply.outer(q2 * length, e2)
                + np.multiply.outer(bend * q1 * q2 * length, e3))

    def jacobian(q1, q2):
        # |t1 x t2| of t1 = L (e1 + b q2 e3), t2 = L (e2 + b q1 e3)
        return length**2 * np.sqrt(1.0 + bend**2 * (q1 * q1 + q2 * q2))

    return Surface(name="patch", param_map=param_map, jacobian=jacobian,
                   domain=((-0.5, 0.5), (-0.5, 0.5)), x0=c)


#: affine maps, on which p + 1 radial Duffy points are exact, and curved ones
AFFINE = [RECT, FLAT_RECT, SLANTED, copy_surface(RECT, 0.05)]
AFFINE_IDS = ["rectangle", "flat-rectangle", "slanted-rectangle", "scaled-rectangle"]
CURVED = [DISK, TILTED, CAP, ELLIPSE, _patch(0.1)]
CURVED_IDS = ["disk", "tilted-disk", "cap", "ellipse", "bent-patch"]

#: (surface, order, delta, l, alpha) of the poles that hold the Duffy order:
#: delta = 0.9 and l = 4 at orders 8-16 on disks and the wide cap, at order
#: 12 on flat, bent and elliptic surfaces, and two wide-cap poles at delta = 1
#: that a floor of 13 (order 10) and max(p + 1, 14) points (order 13) move
#: by 2.3e-13 and 3.5e-13
DUFFY_POLES = [
    *(pytest.param(surface, order, 0.9, 4, 0.145, id=f"{name}-{order}")
      for name, surface in (("disk", DISK), ("tilted-disk", TILTED), ("wide-cap", WIDE_CAP))
      for order in (8, 12, 16)),
    *(pytest.param(surface, 12, 0.9, 4, 0.145, id=f"{name}-12")
      for name, surface in (("rectangle", RECT), ("slanted-rectangle", SLANTED),
                            ("bent-patch", _patch(0.1)), ("ellipse", ELLIPSE))),
    pytest.param(WIDE_CAP, 10, 1.0, 3, 0.0, id="wide-cap-l3-delta1-10"),
    pytest.param(WIDE_CAP, 13, 1.0, 5, 0.0, id="wide-cap-l5-delta1-13"),
]


#: order-12 surfaces with their group size, integrated rows and kernel pairs
#: (the coincident ones included)
GROUPS = [
    (DISK, 24, 12, 546), (CAP, 24, 12, 546), (RECT, 4, 36, 5256),
    (FLAT_RECT, 4, 36, 2664), (SLANTED, 4, 36, 10440), (TILTED, 24, 12, 5256),
    (ELLIPSE, 2, 72, 5256)]
GROUP_IDS = ["disk", "cap", "rectangle", "flat-rectangle", "slanted-rectangle",
             "tilted-disk", "ellipse"]


class TestSingularBuild:
    @pytest.mark.parametrize("surface, symmetric", [
        (DISK, True), (CAP, True), (copy_surface(CAP, 0.02), True),
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
        orbit = singular_part_matrix(rule, 24)
        every = _product_rows(rule, range(rule.n_nodes), (24, 24),
                              np.arange(rule.n_nodes)[None])
        for got, want in zip(orbit, every):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    @pytest.mark.parametrize("surface", [DISK, ELLIPSE], ids=["disk", "ellipse"])
    def test_batched_bases_match_one_batch(self, surface, monkeypatch):
        # a few hundred points per batch splits every row: the disk's rows
        # are folded, the ellipse's are integrated whole
        rule = build_quadrature(surface, 8)
        want = singular_part_matrix(rule)
        monkeypatch.setattr(bs_operator, "_BATCH_POINTS", 300)
        got = singular_part_matrix(rule)
        assert _rel_max(got[0], want[0]) < 1e-14
        assert _rel_max(got[1], want[1]) < 1e-14

    @pytest.mark.parametrize("order", [12, 16])
    @pytest.mark.parametrize("surface", [RECT], ids=["rectangle"])
    def test_angular_duffy_order_holds_the_matrices(self, surface, order):
        # the default points along the base of each sub-triangle against 3p;
        # both take 3p towards the base, so that only the angular order
        # differs.  On curved maps the angular order alone moves the matrices
        # by up to 5.7e-12, and the pole test below holds it instead
        rule = build_quadrature(surface, order)
        group = _node_group(rule)
        m = _duffy_order(rule, group)
        assert m == max(order + 2, 14)
        rows = np.flatnonzero(np.bincount(group.min(axis=0)))
        got = _product_rows(rule, rows, (3 * order, m), group)
        want = _product_rows(rule, rows, (3 * order, 3 * order), group)
        assert _rel_max(got[0], want[0]) < 1e-13
        assert _rel_max(got[1], want[1]) < 1e-13

    @pytest.mark.parametrize("order", [3, 6, 12, 16])
    @pytest.mark.parametrize("surface", AFFINE, ids=AFFINE_IDS)
    def test_affine_patch_takes_p_plus_one_radial_points(self, surface, order):
        # along a Duffy ray of an affine map r is linear in u, so the radial
        # integrands are polynomials of degree 2p - 2 (p_inv) and 2p (p_lin)
        rule = build_quadrature(surface, order)
        group = _node_group(rule)
        assert _duffy_order(rule, group) >= order + 1
        got = singular_part_matrix(rule, group=group)
        want = singular_part_matrix(rule, max(3 * order, 48), group=group)
        assert _rel_max(got[0], want[0]) < 1e-13
        assert _rel_max(got[1], want[1]) < 1e-13

    @pytest.mark.parametrize("surface", CURVED, ids=CURVED_IDS)
    def test_curved_map_keeps_the_radial_order(self, surface):
        # curved maps take the one order max(p + 2, 14) too, except the
        # ellipse (below)
        rule = build_quadrature(surface, 12)
        want = 24 if surface is ELLIPSE else 14
        assert _duffy_order(rule, _node_group(rule)) == want

    @pytest.mark.parametrize("surface, order, delta, l, alpha", DUFFY_POLES)
    def test_curved_radial_order_holds_the_pole(self, surface, order, delta, l, alpha,
                                                monkeypatch):
        # the pole at strong coupling, against a build with 3p points in both
        # Duffy variables, to a tenth of the 1e-12 pole gate; p + 1 points
        # move the wide cap's order-8 pole by 7.5e-11
        params = SpectralParams(alpha=alpha, beta=0.902)
        got = find_pole(pole_state(surface, delta, l, params, order=order))
        monkeypatch.setattr(bs_operator, "_duffy_order", lambda rule, group: 3 * rule.order)
        want = find_pole(pole_state(surface, delta, l, params, order=order))
        assert abs(got.z - want.z) <= 1e-13

    def test_periodic_surface_without_rotation_keeps_the_radial_order(self):
        # max(p + 2, 14) points move a pole of the elliptic disk by up to 1.2e-12
        rule = build_quadrature(ELLIPSE, 8)
        group = _node_group(rule)
        assert _duffy_order(rule, group) == 24
        got = singular_part_matrix(rule, group=group)
        want = singular_part_matrix(rule, 24, group=group)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

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
            if not np.iscomplexobj(q1) and not np.iscomplexobj(q2):  # not a tangent
                points.append(np.size(q1))
            return surface.param_map(q1, q2)

        counting = dataclasses.replace(
            rule, surface=dataclasses.replace(surface, param_map=counted))
        counts = []
        for g in (group, np.arange(rule.n_nodes)[None]):
            points.clear()
            _product_rows(counting, rows, (16, 16), g)
            counts.append(list(points))
        folded, whole = np.array(counts)
        assert len(whole) == len(rows)
        assert np.array_equal(folded, share * whole)

    @pytest.mark.parametrize("surface", [DISK, CAP, RECT], ids=["disk", "cap", "rectangle"])
    @pytest.mark.parametrize("delta", [0.02, 0.08])
    def test_homothety_matches_direct_build(self, surface, delta):
        got = pair_layout(build_quadrature(surface, 8)).scaled(
            delta, next(scale_surface(surface, [delta])))
        want = pair_layout(build_quadrature(copy_surface(surface, delta), 8))
        assert np.array_equal(got.rule.nodes, want.rule.nodes)
        assert got.rule.delta == delta and got.rule.r_min == want.rule.r_min
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.index, want.index)
        assert _rel_max(got.corr_inv, want.corr_inv) < 1e-12
        assert _rel_max(got.corr_lin, want.corr_lin) < 1e-12

    @pytest.mark.parametrize("surface", [ELLIPSE, _patch(0.1), _folded(),
                                         copy_surface(RECT, 0.05)],
                             ids=["ellipse", "bent-patch", "folded", "scaled-rectangle"])
    def test_fixture_jacobian_is_the_tangent_cross_product(self, surface):
        (a1, b1), (a2, b2) = surface.domain
        g1, g2 = np.meshgrid(np.linspace(a1, b1, 37), np.linspace(a2, b2, 53), indexing="ij")
        cross = np.cross(surface.tangent1(g1, g2), surface.tangent2(g1, g2))
        assert np.allclose(surface.jacobian(g1, g2), np.linalg.norm(cross, axis=-1),
                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("surface", [DISK, RECT, CAP], ids=["disk", "rectangle", "cap"])
    def test_no_tangent_at_the_duffy_points(self, surface):
        # the Duffy points take the closed-form Jacobian; tangents, the
        # complex-valued param_map calls, are taken at the nodes and the
        # isometry probes
        calls = []

        def counted(q1, q2):
            calls.append((np.iscomplexobj(q1) or np.iscomplexobj(q2), np.broadcast(q1, q2).size))
            return surface.param_map(q1, q2)

        rule = build_quadrature(dataclasses.replace(surface, param_map=counted), 12)
        calls.clear()
        singular_part_matrix(rule)
        tangents = [size for complex_valued, size in calls if complex_valued]
        real = [size for complex_valued, size in calls if not complex_valued]
        # the Duffy points went through the counted map, as real parameters
        assert tangents and max(tangents) <= rule.n_nodes < max(real)

    @pytest.mark.parametrize("surface", [DISK, RECT], ids=["disk", "rectangle"])
    def test_one_tangent_call_per_build(self, surface):
        # the tangent lengths of every row come from one call per tangent
        rule = build_quadrature(surface, 8)
        group = _node_group(rule)
        rows = np.unique(group.min(axis=0))
        complex_calls = []

        def counted(q1, q2):
            if np.iscomplexobj(q1) or np.iscomplexobj(q2):
                complex_calls.append(np.broadcast(q1, q2).size)
            return surface.param_map(q1, q2)

        counting = dataclasses.replace(
            rule, surface=dataclasses.replace(surface, param_map=counted))
        complex_calls.clear()
        _product_rows(counting, rows, (16, 16), group)
        assert complex_calls == [len(rows), len(rows)]

    def test_build_memory_peak(self):
        # the order-16 disk of a one-pole run.  A row holds only its basis
        # coordinates and kernel weights beside its bases, and the n x n column
        # map is made after the rows: 4.16 MiB, where 5.13 MiB was the peak of
        # a row that also held its points, offsets and distances
        rule = build_quadrature(DISK, 16)
        group = _node_group(rule)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            singular_part_matrix(rule, group=group)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    @pytest.mark.parametrize("make", [
        lambda size: disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=size),
        lambda size: rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                                     direction2=(0, 1, 0), length1=1.2 * size,
                                     length2=0.8 * size),
    ], ids=["disk", "rectangle"])
    def test_small_surface_keeps_every_sub_triangle(self, make):
        # p_inv scales as R and p_lin as R^3; the coordinates cancel to about
        # 1e-16 / R relative.  A corner triangle dropped by an absolute bound
        # on its area put p_inv off by 3e-2 at R = 1e-6
        want_inv, want_lin = singular_part_matrix(build_quadrature(make(0.5), 8))
        for size in (1e-3, 1e-4, 1e-5, 1e-6, 3e-7, 1e-7):
            got_inv, got_lin = singular_part_matrix(build_quadrature(make(size), 8))
            assert _rel_max(got_inv / size, want_inv / 0.5) <= 3e-14 / size
            assert _rel_max(got_lin / size**3, want_lin / 0.5**3) <= 3e-14 / size


class TestNodeDistances:
    # the rules of the benchmark workloads sweep_disk12, pole_disk16 and
    # sweep_rect_wire12
    @pytest.mark.parametrize("surface, order", [(DISK, 12), (DISK, 16), (RECT, 12)],
                             ids=["disk12", "disk16", "rect12"])
    @pytest.mark.parametrize("delta", [1.0, 0.3])
    def test_equal_to_the_difference_array_form(self, surface, order, delta):
        rule = build_quadrature(surface, order)
        if delta != 1.0:
            rule = rule.scaled(delta, next(scale_surface(surface, [delta])))
        d = rule.nodes[:, None, :] - rule.nodes[None, :, :]
        want = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        assert np.array_equal(bs_operator._node_distances(rule.nodes), want)

    def test_sum_order(self):
        # on the benchmark rules one coordinate difference is 0, so only a
        # surface that spans all three pins the order of the sum
        nodes = build_quadrature(CAP, 8).nodes
        d1, d2, d3 = (np.subtract.outer(x, x) for x in nodes.T)
        want = np.sqrt((d1 * d1 + d3 * d3) + d2 * d2)
        assert not np.array_equal(np.sqrt((d1 * d1 + d2 * d2) + d3 * d3), want)
        assert np.array_equal(bs_operator._node_distances(nodes), want)

    def test_peak_is_two_square_arrays(self):
        # the (n, n, 3) difference array and its einsum took about 7 n^2
        nodes = build_quadrature(DISK, 16).nodes
        n = len(nodes)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bs_operator._node_distances(nodes)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestNodeGroup:
    @pytest.mark.parametrize("surface, size, n_rows, n_pairs", GROUPS, ids=GROUP_IDS)
    def test_group_rows_and_pairs(self, surface, size, n_rows, n_pairs, monkeypatch):
        rule = build_quadrature(surface, 12)
        assert len(_node_group(rule)) == size
        integrated = []

        def rows_only(rule, rows, orders, group):
            integrated.extend(rows)
            blank = np.zeros((len(rows), rule.n_nodes))
            return blank, blank

        monkeypatch.setattr(bs_operator, "_product_rows", rows_only)
        layout = pair_layout(rule)
        assert len(integrated) == n_rows
        assert len(layout.rows) == n_pairs
        assert np.all(layout.rows <= layout.cols)

    @pytest.mark.parametrize("make", [
        lambda size: disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=size),
        lambda size: rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                                     direction2=(0, 1, 0), length1=1.2 * size,
                                     length2=0.8 * size),
        lambda size: spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=size,
                                   polar_angle=0.9),
        lambda size: disk(center=(50.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=size),
    ], ids=["disk", "rectangle", "cap", "far-tilted-disk"])
    def test_small_surface_keeps_its_group(self, make):
        # the coordinates carry rounding of about eps |x|, which a bound
        # relative to the surface's own size alone refused below about
        # 1e-4 |x|: the disk's group fell from 16 to 1, so it took the
        # ellipse's Duffy rule and evaluated every kernel pair
        def group_and_pairs(size):
            rule = build_quadrature(make(size), 8)
            return len(_node_group(rule)), len(pair_layout(rule).rows)

        want = group_and_pairs(0.5)
        for size in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            assert group_and_pairs(size) == want

    def test_elements_are_distinct_permutations(self):
        group = _node_group(build_quadrature(DISK, 6))
        assert np.array_equal(group[0], np.arange(36))
        assert np.array_equal(np.sort(group, axis=1), np.broadcast_to(np.arange(36), group.shape))
        assert len({g.tobytes() for g in group}) == len(group)

    def test_tabulated_rule_gets_the_identity(self):
        # no reflection of the slanted rectangle keeps x3, so the kernel
        # subgroup is the identity: every upper-triangle pair, the diagonal
        # included, is evaluated
        rule = build_quadrature(SLANTED, 3)
        assert len(_node_group(rule)) == 4
        layout = pair_layout(rule)
        rows, cols = np.triu_indices(9)
        assert np.array_equal(layout.rows, rows) and np.array_equal(layout.cols, cols)
        index = np.empty((9, 9), dtype=int)
        index[rows, cols] = index[cols, rows] = np.arange(len(rows))
        assert np.array_equal(layout.index, index)

    def test_forced_x3_changing_reflection_is_wrong(self):
        # the q2 reflection of the benchmark rectangle is an isometry but
        # flips x3 about the centre, so the kernel does not share its orbits
        rule = build_quadrature(RECT, 12)
        layout = pair_layout(rule)
        group = _node_group(rule)
        assert len(group) == 4 and len(layout.rows) == 5256
        forced = _with_pairs(layout, group)
        z = PARAMS.eigenvalue(3) - 0.001 - 1e-4j
        got = assemble_free(z, _state(forced, second_sheet(2), 3)) / rule.weights
        want = assemble_free(z, _state(layout, second_sheet(2), 3)) / rule.weights
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
        got = assemble_free(z, _state(layout, second_sheet(1), 2)) / rule.weights
        want = assemble_free(z, _state(every, second_sheet(1), 2)) / rule.weights
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    def test_tilted_disk_is_rotation_symmetric_but_not_kernel_symmetric(self):
        # its rotation axis is not vertical, so x3 varies along each ring
        # and filling the kernel matrix along the rotation orbits would be wrong
        rule = build_quadrature(TILTED, 6)
        group = _node_group(rule)
        assert any(np.array_equal(g, _shift(6)) for g in group)
        every = _all_pairs(pair_layout(rule), rule.n_nodes)
        forced = _with_pairs(every, group)
        got = assemble_free(-2.0, _state(forced)) / rule.weights
        want = assemble_free(-2.0, _state(every)) / rule.weights
        assert np.linalg.norm(got - want) / np.linalg.norm(want) > 1e-4

    def test_state_caches_layout(self, small_state):
        # a state keeps the layout it is given and reads its rule from it
        layout = small_state.layout
        assert isinstance(layout, PairLayout)
        st = SystemState(PARAMS, layout, small_state.ctx, 2)
        assert st.layout is layout
        assert st.rule is layout.rule

    def test_copy_rule_refused_before_any_pair_table(self, monkeypatch):
        # a delta-copy's rule reaches a layout only through PairLayout.scaled,
        # which scales the corrections with it; pair_layout refuses it first
        rule = build_quadrature(SMALL, 8)
        copy = rule.scaled(0.08, next(scale_surface(SMALL, [0.08])))
        monkeypatch.setattr(bs_operator, "_node_distances",
                            lambda nodes: pytest.fail("an n x n array was built"))
        with pytest.raises(ValueError, match=r"delta = 0\.08: .*PairLayout\.scaled"):
            pair_layout(copy)

    def test_state_tables_serve_every_z(self):
        # built once per state and sized for J_k; far above the window top
        # they give the kernel of tables sized for that z (a tall rectangle
        # has images between the two cut-offs)
        tall = rectangle_patch(center=(0.1, 0.0, 1.2), direction1=(0.0, 1.0, 0.0),
                               direction2=(0.0, 0.0, 1.0), length1=0.6, length2=1.6)
        rule, ctx = build_quadrature(tall, 6), second_sheet(2)
        st = SystemState(PARAMS, pair_layout(rule), ctx, 3)
        tables = st.tables
        assert st.tables is tables and tables.split.re_top == 9.0
        z = 100.0 - 0.3j
        wide = EwaldSplit(tables.split.eta, tables.split.j_max, z.real)
        wide_tables = EwaldTables(rule.nodes[st.layout.rows], rule.nodes[st.layout.cols], wide)
        assert len(wide_tables.image_at) > len(tables.image_at)
        got = EwaldGreen(z, tables.split, ctx).pairs(tables)
        want = EwaldGreen(z, wide, ctx).pairs(wide_tables)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_mode_cutoff_below_window_index_refused(self):
        # l = 3 lies in J_2: n_cut = 1 would drop the open channel n = 2
        rule = build_quadrature(copy_surface(RECT, 0.2), 4)
        with pytest.raises(ValueError, match="n_cut = 1 is below the window index k = 2"):
            SystemState(PARAMS, pair_layout(rule), second_sheet(2), 3, n_cut=1)
        assert SystemState(PARAMS, pair_layout(rule), second_sheet(2), 3, n_cut=2).n_cut == 2


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
            r = build_quadrature(copy_surface(DISK, d), 8)
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
        st = _state(pair_layout(rule), ctx, 2, n_cut=12)
        full = assemble_alpha(-2.0, st)
        free = assemble_free(-2.0, st)
        a_2 = _a_l(-2.0, st)
        assert np.max(np.abs((full - free - a_2) / rule.weights)) < 1e-13

    def test_a_l_norm_scales_with_area(self):
        deltas = np.array([0.02, 0.04, 0.08])
        norms = []
        for d in deltas:
            r = build_quadrature(copy_surface(DISK, d), 6)
            norms.append(_op_norm(_a_l(-2.0, _state(pair_layout(r), n_cut=20)), r.weights))
        slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_rank_bound(self):
        rule = build_quadrature(SMALL, 6)
        op = _a_l(-2.0, _state(pair_layout(rule), n_cut=15))
        rank = np.linalg.matrix_rank(op / rule.weights, tol=1e-13)
        assert rank <= 14

    def test_mode_cutoff_doubling_converged(self, small_state):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        a = eta_l(z, small_state)
        st2 = SystemState(PARAMS, small_state.layout, small_state.ctx, 2,
                          n_cut=2 * small_state.n_cut)
        b = eta_l(z, st2)
        assert abs(a - b) < 1e-10

    def test_product_matches_per_mode_loop(self):
        rule = build_quadrature(RECT, 6)
        ctx = second_sheet(2)
        z = PARAMS.eigenvalue(3) - 0.002 - 1e-4j
        got = _a_l(z, _state(pair_layout(rule), ctx, 3, n_cut=60)) / rule.weights
        want = np.zeros((rule.n_nodes, rule.n_nodes), dtype=complex)
        for n in range(1, 61):
            if n != 3:
                w = mode_vector(z, n, rule, ctx)
                want += np.multiply.outer(w, w) / gamma_n(z, n, ctx, PARAMS)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-14

    @pytest.mark.parametrize("surface, delta, params, l, k, expected", [
        (RECT, 1.0, PARAMS, 3, 2, 138), (RECT, 0.4, PARAMS, 3, 2, 138),
        (RECT, 0.05, PARAMS, 3, 2, 138), (DISK, 1.0, PARAMS, 2, 1, 27),
        (DISK, 0.08, PARAMS, 2, 1, 14), (TILTED, 1.0, PARAMS, 2, 1, 21),
        # at delta = 0.2, e^(-2 n r_min) would drop mode 3, but kappa_3 = 2.24 keeps it
        (FAR_DISK, 1.0, FAR_PARAMS, 2, 1, 3), (FAR_DISK, 0.2, FAR_PARAMS, 2, 1, 3),
    ], ids=["rectangle-1", "rectangle-0.4", "rectangle-0.05", "disk-1", "disk-0.08",
            "tilted-1", "far-1", "far-0.2"])
    def test_default_mode_cutoff(self, surface, delta, params, l, k, expected):
        # a rank-sum term is a product of two factors e^(-kappa_n r_min): the
        # cutoff is the smallest whose first dropped term has
        # e^(-2 kappa r_min) <= 1e-12, below what the pole gates resolve
        rule = build_quadrature(copy_surface(surface, delta), 4)
        eps_l = params.eigenvalue(l)
        n_cut = mode_cutoff(rule, second_sheet(k), eps_l)
        assert n_cut == expected
        r_min = rule.surface.r_min
        assert _term(n_cut + 1, eps_l, r_min) <= 1e-12 < _term(n_cut, eps_l, r_min)

    def test_negative_eigenvalue_far_from_the_wire(self):
        # eps_1 = -0.26 on the first sheet, r_min = 100.5: kappa_n >= n, so the
        # cutoff takes max(eps_1, 0) and never the root of a negative number
        far = disk(center=(101.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
        rule = build_quadrature(far, 4)
        eps_1 = PARAMS.eigenvalue(1)
        assert eps_1 < 0.0 and rule.surface.r_min >= 100.0
        n_cut = mode_cutoff(rule, first_sheet(), eps_1)
        assert n_cut == 1
        assert _term(2, eps_1, rule.surface.r_min) <= 1e-12

    def test_cutoff_next_to_the_wire_is_closed_form(self):
        # r_min = 1e-5 asks for n_cut = 1381551, which a search mode by mode
        # would reach only after as many steps; the refusal names the value
        near = disk(center=(0.50001, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
        rule = build_quadrature(near, 4)
        eps_2 = PARAMS.eigenvalue(2)
        with pytest.raises(ValueError, match="need a mode table") as info:
            mode_cutoff(rule, second_sheet(1), eps_2)
        n_cut = int(str(info.value).split()[2])
        assert n_cut == 1381551
        r_min = rule.surface.r_min
        assert _term(n_cut + 1, eps_2, r_min) <= 1e-12 < _term(n_cut, eps_2, r_min)


class TestEtaL:
    def test_symmetric_plane_decouples(self):
        # impurity on the x3 = pi/2 midplane: w_2 = 0, so eta_2 = Gamma_2
        rule = build_quadrature(SYM_DISK, 8)
        st = SystemState(PARAMS, pair_layout(rule), second_sheet(1), 2)
        z = PARAMS.eigenvalue(2) - 0.002 - 1e-4j
        assert abs(eta_l(z, st) - gamma_n(z, 2, st.ctx, PARAMS)) < 1e-25

    def test_rule_refinement(self):
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        vals = []
        for p in (8, 12):
            st = SystemState(PARAMS, pair_layout(build_quadrature(SMALL, p)), second_sheet(1), 2)
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

    def test_ill_conditioned_guard(self, rule12, state12):
        # beta = 1 / lambda_max(R + A_1) makes M_1 = I - beta (R + A_1) singular
        op = assemble_free(-5.0, state12) + _a_l(-5.0, state12)
        lam = np.linalg.eigvals(op).real.max()
        st = SystemState(SpectralParams(alpha=0.0, beta=1.0 / lam), state12.layout,
                         first_sheet(), 1)
        with pytest.raises(IllConditionedError, match=r"I - beta \(R_SigmaSigma \+ A_l\)"):
            eta_l(-5.0, st)

    def test_singular_matrix_refused(self):
        # I - e = 0 has no inverse: its condition number is infinite
        with pytest.raises(IllConditionedError) as info:
            bs_operator._guarded_solve(np.eye(3), np.ones(3), None)
        assert str(info.value) == ("I - beta (R_SigmaSigma + A_l): condition number inf "
                                   "exceeds 1e12")

    def test_one_mode_table_per_eta(self, small_state, monkeypatch):
        # the rank sum's mode vectors and w_l come from one mode_vector call
        calls = []
        real = bs_operator.mode_vector

        def counted(z, n, *args):
            calls.append(np.asarray(n))
            return real(z, n, *args)

        monkeypatch.setattr(bs_operator, "mode_vector", counted)
        eta_l(PARAMS.eigenvalue(2) - 0.001 - 1e-4j, small_state)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.arange(1, small_state.n_cut + 1))

    @staticmethod
    def _explicit_states():
        """(state, z): a disk, a rectangle, and the rectangle's n_cut = 2 below l = 3."""
        rect = pair_layout(build_quadrature(copy_surface(RECT, 0.2), 4))
        z3 = PARAMS.eigenvalue(3) - 0.002 - 1e-4j
        return [(SystemState(PARAMS, pair_layout(build_quadrature(SMALL, 8)), second_sheet(1),
                             2, n_cut=20), PARAMS.eigenvalue(2) - 0.001 - 1e-4j),
                (SystemState(PARAMS, rect, second_sheet(2), 3, n_cut=60), z3),
                (SystemState(PARAMS, rect, second_sheet(2), 3, n_cut=2), z3)]

    def test_w_l_is_column_l_of_the_table(self, monkeypatch):
        # the right-hand side of the guarded solve is w_l itself, also where
        # the table reaches past n_cut to hold it
        seen = []
        real = bs_operator._guarded_solve

        def recorded(e, rhs, diagnostics):
            seen.append(rhs)
            return real(e, rhs, diagnostics)

        monkeypatch.setattr(bs_operator, "_guarded_solve", recorded)
        for st, z in self._explicit_states():
            eta_l(z, st)
            assert np.array_equal(seen.pop(), mode_vector(z, st.l, st.rule, st.ctx))

    def test_one_table_matches_two_calls_bitwise(self):
        # eta_l from one table equals, bit for bit, eta_l assembled from one
        # mode_vector call for the rank sum's modes n != l and one for w_l
        for st, z in self._explicit_states():
            params, rule, ctx, l = st.params, st.rule, st.ctx, st.l
            modes = np.arange(1, st.n_cut + 1)
            modes = modes[modes != l]
            a_l = bs_operator._rank_sum(z, st, modes, mode_vector(z, modes, rule, ctx))
            e = params.beta * (a_l + assemble_free(z, st))
            w_l = mode_vector(z, l, rule, ctx)
            t_w = bs_operator._guarded_solve(e, w_l, None)
            want = gamma_n(z, l, ctx, params) - params.beta * complex(
                np.sum(rule.weights * w_l * t_w))
            assert eta_l(z, st) == want

    def test_tables_built_once_per_state(self, monkeypatch):
        # the pairs, the coincident ones included, are tabulated in one table
        # at the first eta_l; later z only evaluate it
        built = []
        init = EwaldTables.__init__

        def counted(self, x, *args):
            built.append(len(x))
            init(self, x, *args)

        monkeypatch.setattr(EwaldTables, "__init__", counted)
        st = SystemState(PARAMS, pair_layout(build_quadrature(SMALL, 8)), second_sheet(1), 2)
        for dz in (-0.001 - 1e-4j, -0.002 - 1e-4j, -0.003 - 2e-4j):
            eta_l(PARAMS.eigenvalue(2) + dz, st)
        assert built == [len(st.layout.rows)]

    def test_one_kernel_call_per_assembly(self, small_state, monkeypatch):
        # the diagonal is the coincident pairs of the state's one table: each
        # assemble_free evaluates the kernel once, and never regularized_diag
        calls = []

        def counted(name):
            real = getattr(EwaldGreen, name)

            def wrapper(self, *args):
                calls.append(name)
                return real(self, *args)
            return wrapper

        for name in ("pairs", "regularized_diag"):
            monkeypatch.setattr(EwaldGreen, name, counted(name))
        for dz in (-0.001 - 1e-4j, -0.002 - 1e-4j, -0.003 - 2e-4j):
            assemble_free(PARAMS.eigenvalue(2) + dz, small_state)
        assert calls == ["pairs"] * 3

    def test_no_factorization_below_half(self, small_state, monkeypatch):
        # ||E||_1 <= 1/2: the Neumann series gives t, with no solve, inverse or
        # other factorization, and its recorded bound never lies below the
        # exact condition number
        calls = []

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("solve", "inv", "pinv", "lstsq", "det", "slogdet", "qr", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        diagnostics = {}
        eta = eta_l(z, small_state, diagnostics)
        assert calls == []
        monkeypatch.undo()
        key = "cond[I - beta (R_SigmaSigma + A_l)]"
        assert list(diagnostics) == [key, "neumann_terms"]
        e = PARAMS.beta * (assemble_free(z, small_state) + _a_l(z, small_state))
        enorm = np.linalg.norm(e, 1)
        assert enorm <= 0.5
        exact = np.linalg.cond(np.eye(len(e)) - e, 1)
        assert exact <= diagnostics[key] <= exact * (1.0 + enorm) / (1.0 - enorm)
        assert 2 <= diagnostics["neumann_terms"] < 53
        w_l = mode_vector(z, 2, small_state.rule, small_state.ctx)
        theta = np.sum(small_state.rule.weights * w_l * np.linalg.solve(np.eye(len(e)) - e, w_l))
        direct = gamma_n(z, 2, small_state.ctx, PARAMS) - PARAMS.beta * theta
        assert abs(eta - direct) <= 1e-14 * abs(PARAMS.beta * theta)

    def test_norm_above_half_takes_the_inverse(self, rule12, state12, monkeypatch):
        # beta = 3 / (4 ||R + A_1||_1): ||E||_1 = 3/4 would bound cond_1, yet
        # the series is left for the inverse, which records the exact cond_1
        op = assemble_free(-5.0, state12) + _a_l(-5.0, state12)
        params = SpectralParams(alpha=0.0, beta=0.75 / np.linalg.norm(op, 1))
        st = SystemState(params, state12.layout, first_sheet(), 1)
        assert 0.5 < np.linalg.norm(params.beta * op, 1) < 1.0
        m_l = np.eye(rule12.n_nodes) - params.beta * op
        exact = np.linalg.cond(m_l, 1)
        calls = []
        real = np.linalg.inv

        def counted(a):
            calls.append("inv")
            return real(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        diagnostics = {}
        eta = eta_l(-5.0, st, diagnostics)
        assert calls == ["inv"]
        cond = diagnostics["cond[I - beta (R_SigmaSigma + A_l)]"]
        assert cond == pytest.approx(exact, rel=1e-12)
        assert diagnostics["neumann_terms"] == 0
        w_l = mode_vector(-5.0, 1, rule12, first_sheet())
        direct = gamma_n(-5.0, 1, first_sheet(), params) \
            - params.beta * np.sum(rule12.weights * w_l * np.linalg.solve(m_l, w_l))
        assert eta == pytest.approx(direct, rel=1e-12)

    def test_zero_matrix_returns_the_rhs(self):
        # q = 0: one term, the rhs itself, and cond_1 = 1, with no 0 / 0
        rhs = np.array([1.0, -2.0 + 1j, 0.5j])
        diagnostics = {}
        with np.errstate(all="raise"):
            x = bs_operator._guarded_solve(np.zeros((3, 3)), rhs, diagnostics)
        assert np.array_equal(x, rhs)
        assert diagnostics == {"cond[I - beta (R_SigmaSigma + A_l)]": 1.0, "neumann_terms": 1}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rhs_stops_at_the_cap(self, bad):
        # a tail bound that is not finite certifies nothing: the series runs
        # to its 53 terms and stops there
        e = np.full((3, 3), 0.1)
        diagnostics = {}
        x = bs_operator._guarded_solve(e, np.array([bad, 1.0, 1.0]), diagnostics)
        assert diagnostics["neumann_terms"] == 53
        assert not np.any(np.isfinite(x))

    def test_failed_certificate_takes_the_exact_condition(self, rule12, state12):
        # beta = -2 / lambda_max(R + A_1): ||E||_1 >= 2 certifies nothing, yet
        # M_1 = I + 2 (R + A_1) / lambda_max is well conditioned, since R + A_1
        # is positive definite below the spectrum
        op = assemble_free(-5.0, state12) + _a_l(-5.0, state12)
        lam = np.linalg.eigvals(op).real.max()
        params = SpectralParams(alpha=0.0, beta=-2.0 / lam)
        st = SystemState(params, state12.layout, first_sheet(), 1)
        e = params.beta * op
        assert np.linalg.norm(e, 1) > 1.0
        m_l = np.eye(rule12.n_nodes) - e
        diagnostics = {}
        eta = eta_l(-5.0, st, diagnostics)
        cond = diagnostics["cond[I - beta (R_SigmaSigma + A_l)]"]
        assert cond == pytest.approx(np.linalg.cond(m_l, 1), rel=1e-12)
        assert cond < 10.0
        w_l = mode_vector(-5.0, 1, rule12, first_sheet())
        direct = gamma_n(-5.0, 1, first_sheet(), params) \
            - params.beta * np.sum(rule12.weights * w_l * np.linalg.solve(m_l, w_l))
        assert eta == pytest.approx(direct, rel=1e-12)


class TestDeterminant:
    def test_small_beta_near_one(self, rule12):
        weak = SpectralParams(alpha=0.0, beta=1e-8)
        st = SystemState(weak, pair_layout(rule12), first_sheet(), 1, n_cut=10)
        assert bs_determinant(-5.0, st) == pytest.approx(1.0, abs=1e-5)

    def test_factorization_identity(self, small_state):
        # (I - b R_a) = (I - b R)(I - b G A_l)(I - b Gamma_l^-1 (w_l, .) T_l w_l)
        st = small_state
        rule, ctx, beta = st.rule, st.ctx, st.params.beta
        z = PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        n = rule.n_nodes
        eye = np.eye(n, dtype=complex)
        free = assemble_free(z, st)
        a_l = _a_l(z, st)
        r_a = assemble_alpha(z, st)
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
    def test_eta_determinant_identity(self, small_state, rule12, state12, point):
        # Gamma_l det(I - beta R_alpha) = eta_l det(M_l), M_l = I - beta (R + A_l)
        if point == "second-sheet":
            st, z = small_state, PARAMS.eigenvalue(2) - 0.001 - 1e-4j
        else:
            # I - beta R is singular here (cond 2e15), M_1 is not
            lam = np.linalg.eigvals(assemble_free(-5.0, state12)).real.max()
            st = SystemState(SpectralParams(alpha=0.0, beta=1.0 / lam), state12.layout,
                             first_sheet(), 1)
            z = -5.0
        rule, ctx, params, beta, l = st.rule, st.ctx, st.params, st.params.beta, st.l
        eye = np.eye(rule.n_nodes)
        free = assemble_free(z, st)
        m_l = eye - beta * (free + _a_l(z, st))
        r_a = assemble_alpha(z, st)
        lhs = gamma_n(z, l, ctx, params) * np.linalg.det(eye - beta * r_a)
        rhs = eta_l(z, st) * np.linalg.det(m_l)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_sheet_continuity_across_cut(self, rule12):
        # det is continuous from above (sheet I) to below (sheet II)
        eps = 1e-7
        lam = 1.9
        layout = pair_layout(rule12)
        st_up = SystemState(PARAMS, layout, first_sheet(), 2, n_cut=45)
        st_dn = SystemState(PARAMS, layout, second_sheet(1), 2, n_cut=45)
        up = bs_determinant(lam + 1j * eps, st_up)
        dn = bs_determinant(lam - 1j * eps, st_dn)
        assert abs(up - dn) < 1e-5 * abs(up)
