"""Nystrom discretization of the surface operators and the resonance function.

Everything here acts on L^2(Sigma_delta) through a quadrature rule: an
operator with kernel K becomes its Nystrom matrix K diag(w), entries
K(x_i, x_j) w_j, so (Af)_i = sum_j K_ij w_j f_j.  Every assembly returns that
matrix as a plain complex ndarray.  The free kernel diagonal is fixed by
singularity subtraction: the non-smooth 1/(4 pi r) - z r/(8 pi) part is
integrated semi-analytically over the surface (apex-Duffy transform in
parameter space) and the C^2 remainder enters at its diagonal limit.

The wire enters through the mode vectors w_n(z) = omega_n(z)|_Sigma, all
retained modes from one call of :func:`mode_vector`.

Pairing convention (consequential): the pairings written (w_n(zbar), . ) are
implemented as the *bilinear* form sum_i w_i u_i v_i without conjugation,
using w_n(z) in both slots.  Since w_n(zbar) = conj(w_n(z)), the two agree
wherever the paper forms them, and the bilinear choice keeps every
assembled object analytic in z on each sheet, which the root finders rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from . import geometry, specfun
from .geometry import QuadratureRule
from .greens import EwaldGreen, chi_n
from .specfun import SheetContext, SpectralParams, first_sheet, gamma_n

__all__ = [
    "PoleCollisionError",
    "IllConditionedError",
    "SystemState",
    "PairLayout",
    "singular_part_matrix",
    "pair_layout",
    "assemble_free",
    "mode_vector",
    "assemble_A_l",
    "assemble_alpha",
    "eta_l",
    "bs_determinant",
    "neumann_apply",
    "default_mode_cutoff",
]

#: rcond below this means M_l = I - beta (R_SigmaSigma + A_l) is singular to working
#: precision (z on the spectrum of the impurity problem without mode l, a pole of
#: theta_l); eta_l there would be numerical noise, so we refuse.
_COND_LIMIT = 1e12

_GAMMA_FLOOR = 1e-10

#: Duffy points per modal-basis batch; one batch holds a whole folded disk
#: row up to order 21, and an unfolded row up to order 16
_BATCH_POINTS = 1 << 15


class PoleCollisionError(ArithmeticError):
    """A retained mode n != l has Gamma_n(z) ~ 0; the rank sum is singular."""


class IllConditionedError(ArithmeticError):
    """A Birman-Schwinger solve exceeded the condition-number budget."""


def _legendre_basis(t, p):
    """P_a(t) for a < p as a (p, N) array, by the three-term recurrence."""
    out = np.empty((p, len(t)))
    out[0] = 1.0
    out[1] = t
    for a in range(1, p - 1):
        out[a + 1] = ((2 * a + 1) * t * out[a] - a * out[a - 1]) / (a + 1)
    return out


def _trig_basis(psi, p):
    """[1, cos k psi, sin k psi for k < p/2, cos(p psi / 2) if p is even] as (p, N).

    Built by angle addition.  These span the trigonometric interpolants on p
    equispaced nodes psi_j = 2 pi j / p.
    """
    out = np.empty((p, len(psi)))
    out[0] = 1.0
    out[1] = np.cos(psi)
    if p > 2:
        out[2] = np.sin(psi)
    for k in range(2, p // 2 + 1):
        cos_prev, sin_prev = out[2 * k - 3], out[2 * k - 2]
        out[2 * k - 1] = cos_prev * out[1] - sin_prev * out[2]
        if 2 * k < p:
            out[2 * k] = sin_prev * out[1] + cos_prev * out[2]
    return out


def _legendre_map(p):
    """C with l_j = sum_a C[a, j] P_a for the Lagrange cardinals l_j on p Gauss nodes.

    Exact by Gauss quadrature: C[a, j] = (2a + 1)/2 w_j P_a(x_j).
    """
    x, w = leggauss(p)
    return (np.arange(p) + 0.5)[:, None] * _legendre_basis(x, p) * w


def _trig_map(p):
    """C with l_j = sum_a C[a, j] F_a for the cardinals l_j of :func:`_trig_basis`.

    The Dirichlet kernel: 1/p for the constant, 2/p cos or sin(k psi_j) for
    k < p/2 and half weight, 1/p cos(p psi_j / 2), for k = p/2.
    """
    weight = np.full(p, 2.0 / p)
    weight[0] = 1.0 / p
    if p % 2 == 0:
        weight[-1] = 1.0 / p
    return weight[:, None] * _trig_basis(2.0 * math.pi * np.arange(p) / p, p)


def _tensor_nodes(rule: QuadratureRule):
    """Parameter nodes (q1, q2) of a tensor rule laid out as build_quadrature's."""
    return rule.param_nodes[::rule.order, 0], rule.param_nodes[:rule.order, 1]


def _graded_triangles(corners):
    """Edges (e1, e2), each (K, 2), of the sub-triangles fanning out from the apex.

    ``corners`` are the four window corners relative to the apex, in
    metric-scaled coordinates.  The base of each corner triangle is cut
    geometrically around the foot of the apex perpendicular.
    """
    e1, e2 = [], []
    for t in range(4):
        c1, c2 = corners[t], corners[(t + 1) % 4]
        cross = c1[0] * c2[1] - c1[1] * c2[0]
        if abs(cross) < 1e-14:
            continue
        edge = c2 - c1
        length = float(np.hypot(*edge))
        t0 = min(max(-float(c1 @ edge) / length**2, 0.0), 1.0)
        dist = abs(cross) / length
        cuts = {0.0, 1.0}
        if 0.0 < t0 < 1.0:
            cuts.add(t0)
        for sgn in (1.0, -1.0):
            step = dist / length
            while 0.0 < t0 + sgn * step < 1.0:
                cuts.add(t0 + sgn * step)
                step *= 2.0
        cuts = np.array(sorted(cuts))[:, None]
        e1.append(c1 + cuts[:-1] * edge)
        e2.append(c1 + cuts[1:] * edge)
    return np.concatenate(e1), np.concatenate(e2)


def _product_rows(rule: QuadratureRule, rows, duffy_order: int, group: np.ndarray):
    """Rows ``rows`` of (p_inv, p_lin), each row one batched kernel evaluation.

    The apex-Duffy points of all graded sub-triangles around the node are
    stacked, so the parametrization and the Jacobian are evaluated once per
    row.  The kernel is integrated against the modal bases, Legendre
    polynomials in q1 and in q2 or the trigonometric basis in a periodic q2,
    built by recurrence as (p, N) arrays; two fixed p x p maps
    (:func:`_legendre_map`, :func:`_trig_map`) then take the p x p moments to
    the cardinal basis of the nodes.  A row with more than _BATCH_POINTS
    points (a folded disk row above order 21) has its bases evaluated in
    batches of that size, to bound the memory they take.

    A row whose node is fixed by a reflection h in ``group`` that moves only
    one parameter index (every node keeps its q1 index, or every node keeps
    its q2 index) is folded: its window and its sub-triangles are mirror
    images about the node's parameter line, the graded cuts split each
    self-mirrored edge at its foot, so only the sub-triangles on the
    negative side are integrated and the row is half + half[h].  A node
    fixed by a reflection in each parameter is folded twice.
    """
    surf = rule.surface
    p = rule.order
    n = rule.n_nodes
    (a1, b1), (a2, b2) = surf.domain
    span2 = b2 - a2
    map1 = _legendre_map(p)
    map2 = _trig_map(p) if surf.periodic2 else map1
    basis2 = _trig_basis if surf.periodic2 else _legendre_basis
    # psi = 0 at the first q2 node, t = 0 mid-domain
    origin2 = rule.param_nodes[0, 1] if surf.periodic2 else 0.5 * (a2 + b2)
    scale2 = 2.0 * math.pi / span2 if surf.periodic2 else 2.0 / span2
    # elements moving only q1 (axis 0) and only q2 (axis 1)
    index1, index2 = np.divmod(np.arange(n), p)
    moves = np.any(group != np.arange(n), axis=1)
    moves_only = [moves & np.all(group % p == index2, axis=1),
                  moves & np.all(group // p == index1, axis=1)]
    xd, wd = leggauss(duffy_order)
    xd = 0.5 * (xd + 1.0)
    wd = 0.5 * wd
    u = xd[:, None, None]
    v = xd[None, :, None]
    wu = np.outer(wd, wd) * xd[:, None]
    p_inv = np.empty((len(rows), n))
    p_lin = np.empty((len(rows), n))
    for k, i in enumerate(rows):
        q1, q2 = rule.param_nodes[i]
        h = np.array([np.linalg.norm(surf.tangent1(q1, q2)),
                      np.linalg.norm(surf.tangent2(q1, q2))])
        # window relative to the node; a periodic one is recentred on it
        lo2, hi2 = (-0.5 * span2, 0.5 * span2) if surf.periodic2 else (a2 - q2, b2 - q2)
        corners = h * np.array([[a1 - q1, lo2], [b1 - q1, lo2],
                                [b1 - q1, hi2], [a1 - q1, hi2]])
        e1, e2 = _graded_triangles(corners)
        fixed = group[:, i] == i
        folds = [(axis, group[np.argmax(only & fixed)])
                 for axis, only in enumerate(moves_only) if np.any(only & fixed)]
        for axis, _ in folds:
            negative = e1[:, axis] + e2[:, axis] < 0.0
            e1, e2 = e1[negative], e2[negative]
        det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        # (triangle, u, v) points of the Duffy map, parameter offsets last
        offset = u * ((1.0 - v) * e1[:, None, None, :] + v * e2[:, None, None, :]) / h
        qq1 = (q1 + offset[..., 0]).ravel()
        qq2 = (q2 + offset[..., 1]).ravel()
        r = np.linalg.norm(surf.param_map(qq1, qq2) - rule.nodes[i], axis=-1)
        c = (det[:, None, None] * wu).ravel() * surf.jacobian(qq1, qq2) / (h[0] * h[1])
        c_inv, c_lin = c / r, c * r
        t1 = (2.0 * qq1 - a1 - b1) / (b1 - a1)
        t2 = scale2 * (qq2 - origin2)
        acc_inv = np.zeros((p, p))
        acc_lin = np.zeros((p, p))
        for b in range(0, len(c), _BATCH_POINTS):
            part = slice(b, b + _BATCH_POINTS)
            f1 = _legendre_basis(t1[part], p)
            f2 = basis2(t2[part], p).T
            acc_inv += (f1 * c_inv[part]) @ f2
            acc_lin += (f1 * c_lin[part]) @ f2
        row_inv = (map1.T @ acc_inv @ map2).ravel()
        row_lin = (map1.T @ acc_lin @ map2).ravel()
        for _, mirror in folds:
            row_inv = row_inv + row_inv[mirror]
            row_lin = row_lin + row_lin[mirror]
        p_inv[k] = row_inv
        p_lin[k] = row_lin
    return p_inv / (4.0 * math.pi), p_lin


def _node_distances(nodes: np.ndarray) -> np.ndarray:
    return np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)


def _candidate_symmetries(rule: QuadratureRule):
    """(node permutation, parameter map) of each candidate generator.

    The permutation g takes node i to node g[i], and the parameter map takes
    every parameter point along.  The candidates are the one-node q2 shift
    of a periodic second parameter and the reflections q1 -> a1 + b1 - q1
    and q2 -> a2 + b2 - q2; each maps the tensor nodes of
    :func:`geometry.build_quadrature` onto themselves.
    """
    (a1, b1), (a2, b2) = rule.surface.domain
    grid = np.arange(rule.n_nodes).reshape(rule.order, rule.order)
    candidates = [(grid[::-1].ravel(), lambda q1, q2: (a1 + b1 - q1, q2)),
                  (grid[:, ::-1].ravel(), lambda q1, q2: (q1, a2 + b2 - q2))]
    if rule.surface.periodic2:
        step = (b2 - a2) / rule.order
        candidates.append((np.roll(grid, -1, axis=1).ravel(),
                           lambda q1, q2: (q1, q2 + step)))
    return candidates


def _is_isometry(rule: QuadratureRule, perm, param_map, dist) -> bool:
    """Whether a candidate of :func:`_candidate_symmetries` is an isometry.

    It must keep the node-to-node distances ``dist`` (a cheap prefilter),
    the squared distances from every node to probe points between the
    nodes, the tangent lengths and the Jacobian.  Then it acts on the
    surface as an isometry that keeps the rule, the integrand of row g[i]
    of the singular matrices is that of row i carried along, and so is
    the cardinal basis (its nodes are symmetric).
    """
    if not np.allclose(dist[np.ix_(perm, perm)], dist, rtol=0.0, atol=1e-12 * dist.max()):
        return False
    surf = rule.surface
    # off-node probes; the prefilter has covered the nodes
    g1, g2 = np.meshgrid(*(q[:-1] + np.diff(q) / math.pi for q in _tensor_nodes(rule)),
                         indexing="ij")
    m1, m2 = param_map(g1, g2)
    centre = rule.nodes.mean(axis=0)
    nodes = rule.nodes - centre
    norm2 = np.sum(nodes * nodes, axis=1)[:, None]

    def sq_dist(points):  # squared node-to-point distances, (n, points)
        points = points.reshape(-1, 3) - centre
        return norm2 + np.sum(points * points, axis=1) - 2.0 * nodes @ points.T

    d2 = sq_dist(surf.param_map(g1, g2))
    if not np.allclose(sq_dist(surf.param_map(m1, m2))[perm], d2,
                       rtol=0.0, atol=1e-12 * d2.max()):
        return False

    def metric(a, b):
        return np.stack([np.linalg.norm(surf.tangent1(a, b), axis=-1),
                         np.linalg.norm(surf.tangent2(a, b), axis=-1),
                         surf.jacobian(a, b)])

    return np.allclose(metric(m1, m2), metric(g1, g2), rtol=1e-12, atol=0.0)


def _node_group(rule: QuadratureRule, dist: np.ndarray | None = None) -> np.ndarray:
    """Node permutations of the rule that act on its surface as isometries.

    One row per group element, the identity first: the closure of the
    candidates that pass :func:`_is_isometry`, the identity alone when none
    does.  ``dist`` is the node-to-node distance matrix.
    """
    group = [np.arange(rule.n_nodes)]
    if dist is None:
        dist = _node_distances(rule.nodes)
    gens = [perm for perm, param_map in _candidate_symmetries(rule)
            if _is_isometry(rule, perm, param_map, dist)]
    seen = {group[0].tobytes()}
    for g in group:  # grows until closed under the generators
        for s in gens:
            h = s[g]
            if h.tobytes() not in seen:
                seen.add(h.tobytes())
                group.append(h)
    return np.array(group)


def _orbit_map(group: np.ndarray):
    """Orbit representatives of the nodes and columns carried along with them.

    rep[i] is the smallest node in the orbit of node i, and col[i, j] the
    smallest h[j] over the elements h that take i to rep[i].  So every
    matrix the group keeps (m[g[i], g[j]] = m[i, j]) has
    m[i, j] = m[rep[i], col[i, j]], and (rep[i], col[i, j]) is the smallest
    pair in the orbit of the pair (i, j).
    """
    rep = group.min(axis=0)
    n = len(rep)
    col = np.full((n, n), n)
    for h in group:
        hit = h == rep
        col[hit] = np.minimum(col[hit], h)
    return rep, col


def singular_part_matrix(rule: QuadratureRule, duffy_order: int | None = None,
                         group: np.ndarray | None = None):
    """Product-integration matrices of the non-smooth kernel parts.

    Returns (p_inv, p_lin): nodal-action matrices for the kernels
    1/(4 pi |x - x'|) and |x - x'|.  Entry (i, j) integrates the kernel
    against the cardinal function of node j, the polynomial (trigonometric
    in a periodic second direction) interpolant that is 1 at node j and 0 at
    the others.  It is computed in modal form (:func:`_product_rows`):
    moments against Legendre polynomials, or the trigonometric basis, mapped
    to the cardinal basis by fixed matrices.  The quadrature is apex-Duffy
    around node i (the Duffy Jacobian cancels the 1/r
    singularity; the |x - x'| kink sits at the apex too).  The triangle
    split is done in metric-scaled parameter coordinates -- each direction
    divided by the local tangent length at the node -- so the apex looks
    isotropic even where the parametrization is degenerate (polar centers),
    and each triangle base is geometrically graded around the foot of the
    apex perpendicular so no sub-triangle is a sliver (near-boundary nodes
    otherwise put an unresolved 1/r ridge across the angular variable).
    Both matrices are z-independent; together they let the assembly subtract
    the odd-in-r part 1/(4 pi r) - z r/(8 pi) of the nearest Yukawa image,
    leaving a remainder the plain rule integrates to high order.

    Only one row per orbit of ``group`` (:func:`_node_group` of the rule
    when not given) is integrated; the others follow from
    p[g[i], g[j]] = p[i, j].  A row that a reflection of ``group`` fixes is
    integrated over half its window and folded (:func:`_product_rows`).
    """
    if duffy_order is None:
        duffy_order = max(2 * rule.order, 24)
    if group is None:
        group = _node_group(rule)
    rep, col = _orbit_map(group)
    rows = np.unique(rep)
    at = np.searchsorted(rows, rep)[:, None]
    p_inv, p_lin = _product_rows(rule, rows, duffy_order, group)
    return p_inv[at, col], p_lin[at, col]


def _pair_orbits(group: np.ndarray):
    """Representative pairs and the n x n index of the pair orbits of ``group``.

    A pair orbit is that of (i, j) under the group and transposition; its
    representative is its smallest pair, so i < j.  ``index`` points every
    off-diagonal pair at its representative and the diagonal one past the
    last.
    """
    rep, col = _orbit_map(group)
    n = len(rep)
    key = rep[:, None] * n + col
    key = np.minimum(key, key.T)
    own = key.ravel() == np.arange(n * n)
    own[::n + 1] = False
    rows, cols = np.divmod(np.flatnonzero(own), n)
    slot = np.zeros(n * n, dtype=np.intp)
    slot[own] = np.arange(len(rows))
    index = slot[key]
    index[np.diag_indices(n)] = len(rows)
    return rows, cols, index


@dataclass(frozen=True)
class PairLayout:
    """Everything z-independent of the free-kernel assembly on one rule.

    ``rows``, ``cols`` are the node pairs whose kernel value is evaluated,
    one per pair orbit of the kernel group (:func:`pair_layout`), and
    ``index`` (n x n) points every off-diagonal pair at its representative
    and the diagonal at one slot past them.  ``corr_inv`` and
    ``corr_lin`` swap the plain Nystrom values of the model kernels
    1/(4 pi |x - x'|) and |x - x'| for their product integrals
    (:func:`singular_part_matrix`): p_inv / w - 1/(4 pi r) and p_lin / w - r,
    with w the rule weights and the model zero on the diagonal.
    """

    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    corr_inv: np.ndarray
    corr_lin: np.ndarray

    def scaled(self, delta: float) -> "PairLayout":
        """Layout of the delta-image of the rule under :func:`geometry.scale_surface`.

        The map x -> delta x + (1 - delta) x0 with the same order and
        parameter nodes is a similarity: it carries every isometry of the
        rule along with the same node permutation and keeps equal x3 equal,
        so the node group, its kernel subgroup and the pairs stay; p_inv
        scales by delta, p_lin by delta^3, w by delta^2 and r by delta, so
        corr_inv scales by 1/delta and corr_lin by delta.
        """
        return replace(self, corr_inv=self.corr_inv / delta,
                       corr_lin=delta * self.corr_lin)


def pair_layout(rule: QuadratureRule) -> PairLayout:
    """Pairs to evaluate and singular corrections of ``rule`` (see :class:`PairLayout`).

    The node group (:func:`_node_group`) is found once here.  The kernel
    depends on the in-plane separation, x3 and x3', so its pairs are grouped
    under the elements that keep every node's x3 (they keep the 3D distance
    too, hence the in-plane one).  The corrections come from
    :func:`singular_part_matrix` under the whole group.  Coincident nodes
    (a parametrization that folds onto itself) are rejected.
    """
    n = rule.n_nodes
    nodes = rule.nodes
    r = _node_distances(nodes)
    off = ~np.eye(n, dtype=bool)
    if float(np.min(r[off])) == 0.0:
        raise ValueError("quadrature nodes must be pairwise distinct")
    group = _node_group(rule, r)
    x3 = nodes[:, 2]
    keeps_x3 = np.all(np.abs(x3[group] - x3) <= 1e-14 * np.max(np.abs(x3)), axis=1)
    rows, cols, index = _pair_orbits(group[keeps_x3])
    inv_r = np.zeros((n, n))
    inv_r[off] = 1.0 / (4.0 * math.pi * r[off])
    p_inv, p_lin = singular_part_matrix(rule, group=group)
    w = rule.weights
    return PairLayout(rows, cols, index, p_inv / w - inv_r, p_lin / w - r)


def assemble_free(z: complex, rule: QuadratureRule, ctx: SheetContext | None = None,
                  layout: PairLayout | None = None) -> np.ndarray:
    """Nystrom matrix K diag(w) of the free layer resolvent R_SigmaSigma(z).

    The kernel is split as 1/(4 pi r) - z r/(8 pi) plus a C^2 remainder
    (those are the odd-in-r terms of the nearest image exp(-s r)/(4 pi r)
    through order r).  The remainder is handled by plain Nystrom with its
    diagonal limit from :meth:`EwaldGreen.regularized_diag`; the non-smooth
    part enters through the layout's corrections, which replace its Nystrom
    values by product integrals.

    ``layout`` (see :func:`pair_layout`) holds everything z-independent of
    ``rule``; pass it to reuse one across several z.
    """
    ctx = ctx or first_sheet()
    if layout is None:
        layout = pair_layout(rule)
    ew = EwaldGreen(z, ctx)
    nodes = rule.nodes
    mat = np.append(ew.pairs(nodes[layout.rows], nodes[layout.cols]), 0.0)[layout.index]
    mat[np.diag_indices(rule.n_nodes)] = ew.regularized_diag(nodes)
    mat += layout.corr_inv - z / (8.0 * math.pi) * layout.corr_lin
    return mat * rule.weights


def mode_vector(z: complex, n, rule: QuadratureRule, ctx: SheetContext) -> np.ndarray:
    """Mode vector w_n(z) = omega_n(z)|_Sigma at the rule nodes.

    omega_n(z; x) = (1/2 pi) Z0(kappa_n |x_perp|) chi_n(x3) is singular on
    the wire axis, which every :class:`geometry.Surface` keeps away from.
    For an array of mode indices ``n`` the result has one column per mode.
    """
    n = np.asarray(n)
    x = rule.nodes
    rho = np.hypot(x[:, 0], x[:, 1])
    return specfun.z0_kernel(z, n, rho, ctx) * chi_n(n, x[:, 2]) / (2.0 * math.pi)


def default_mode_cutoff(rule: QuadratureRule, ctx: SheetContext,
                        tail_tol: float = 1e-12) -> int:
    """n_max = max(k + 40, ceil(-ln tail_tol / r_min)) for the rank sums."""
    rmin = geometry.r_min(rule.surface)
    if rmin <= 0.0:
        raise ValueError("surface touches the wire axis; mode sums diverge")
    return max(ctx.k + 40, int(math.ceil(-math.log(tail_tol) / rmin)))


def _rank_sum(z, rule, ctx, params, modes: np.ndarray):
    """sum_n Gamma_n(z)^(-1) w_n w_n^T as one product (W / g) W^T, W = [w_n]."""
    g = gamma_n(z, modes, ctx, params)
    small = np.abs(g) < _GAMMA_FLOOR
    if np.any(small):
        k = int(np.argmax(small))
        raise PoleCollisionError(f"Gamma_{modes[k]}(z) = {g[k]:.3e} at z = {z}; "
                                 f"mode {modes[k]} sits on its eigenvalue")
    w = mode_vector(z, modes, rule, ctx)
    return (w / g) @ w.T


def assemble_A_l(z: complex, l: int, rule: QuadratureRule, ctx: SheetContext,
                 params: SpectralParams, n_cut: int) -> np.ndarray:
    """Nystrom matrix of A_l(z) = sum_{n != l} Gamma_n(z)^(-1) <w_n, . > w_n over n <= n_cut."""
    modes = np.arange(1, n_cut + 1)
    return _rank_sum(z, rule, ctx, params, modes[modes != l]) * rule.weights


def assemble_alpha(z: complex, rule: QuadratureRule, ctx: SheetContext,
                   params: SpectralParams, n_cut: int,
                   free: np.ndarray | None = None) -> np.ndarray:
    """Nystrom matrix of R_alpha = R_SigmaSigma + sum_{n <= n_cut} Gamma_n^(-1) <w_n, .> w_n."""
    if free is None:
        free = assemble_free(z, rule, ctx)
    return free + _rank_sum(z, rule, ctx, params, np.arange(1, n_cut + 1)) * rule.weights


def _guarded_lu(mat, what: str, diagnostics: dict | None = None):
    lu = lu_factor(mat)
    anorm = np.linalg.norm(mat, 1)
    rcond, info = zgecon(lu[0], anorm)
    if info != 0 or not np.isfinite(rcond) or rcond == 0.0 or 1.0 / rcond > _COND_LIMIT:
        cond = math.inf if rcond == 0.0 else 1.0 / rcond
        raise IllConditionedError(f"{what}: condition number {cond:.3e} exceeds 1e12")
    if diagnostics is not None:
        key = f"cond[{what}]"
        diagnostics[key] = max(diagnostics.get(key, 0.0), 1.0 / rcond)
    return lu


def neumann_apply(op: np.ndarray, beta: float, f: np.ndarray,
                  terms: int = 60) -> np.ndarray:
    """(I - beta op)^(-1) f via the Neumann series; cross-check for the solve."""
    acc = np.array(f, dtype=complex)
    cur = np.array(f, dtype=complex)
    for _ in range(terms):
        cur = beta * (op @ cur)
        acc += cur
    return acc


@dataclass
class SystemState:
    """Everything needed to evaluate eta_l / the determinant at a point z.

    ``l`` names eps_l; a second-sheet ``ctx`` whose window J_k misses eps_l is
    refused.  Holds the mode cutoff and the z-independent pair layout of ``rule``,
    so only the z-dependent kernel values are recomputed per z.  Without a
    ``layout`` the state builds one on ``rule`` itself.  ``delta`` is the scaling
    parameter of ``rule``, which a pole found on this state records;
    :mod:`resonance` passes the layout of the unscaled rule scaled to it.
    """

    params: SpectralParams
    rule: QuadratureRule
    ctx: SheetContext
    l: int
    tail_tol: float = 1e-12
    n_cut: int | None = None
    layout: PairLayout | None = field(default=None, repr=False)
    delta: float = 1.0

    def __post_init__(self):
        eps_l, (lo, hi) = self.params.eigenvalue(self.l), self.ctx.window
        if self.ctx.second and not lo < eps_l < hi:
            raise ValueError(f"l = {self.l}: eps_l = {eps_l} lies outside the window "
                             f"J_{self.ctx.k} = ({lo:g}, {hi:g}) of the second sheet")
        if self.n_cut is None:
            self.n_cut = default_mode_cutoff(self.rule, self.ctx, self.tail_tol)
        if self.layout is None:
            self.layout = pair_layout(self.rule)


def eta_l(z: complex, state: SystemState, diagnostics: dict | None = None) -> complex:
    """eta_l(z, delta) = Gamma_l(z) - beta theta_l(z, delta) at the l, delta of ``state``.

    theta_l = <w_l, T_l w_l> with T_l = (I - beta G A_l)^(-1) G and
    G = (I - beta R_SigmaSigma)^(-1).  So T_l = (G^(-1) - beta A_l)^(-1) = M_l^(-1)
    with M_l = I - beta (R_SigmaSigma + A_l): one guarded dense solve.
    """
    params, rule, ctx, l = state.params, state.rule, state.ctx, state.l
    gl = gamma_n(z, l, ctx, params)
    beta = params.beta
    a = assemble_free(z, rule, ctx, state.layout) \
        + assemble_A_l(z, l, rule, ctx, params, state.n_cut)
    lu = _guarded_lu(np.eye(rule.n_nodes) - beta * a, "I - beta (R_SigmaSigma + A_l)",
                     diagnostics)
    w_l = mode_vector(z, l, rule, ctx)
    return gl - beta * complex(np.sum(rule.weights * w_l * lu_solve(lu, w_l)))


def bs_determinant(z: complex, state: SystemState) -> complex:
    """det(I - beta R_alpha,SigmaSigma(z)) of the weighted Nystrom matrix.

    Has poles at the eigenvalues eps_n of every retained mode; root finders
    should work with Gamma_l(z) * det(...) to cancel the l-pole.
    """
    rule = state.rule
    r_alpha = assemble_alpha(z, rule, state.ctx, state.params, state.n_cut,
                             free=assemble_free(z, rule, state.ctx, state.layout))
    eye = np.eye(rule.n_nodes, dtype=complex)
    return complex(np.linalg.det(eye - state.params.beta * r_alpha))
