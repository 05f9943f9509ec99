"""Nystrom discretization of the surface operators and the resonance function.

Everything here acts on L^2(Sigma_delta) through a quadrature rule: an
operator with kernel K becomes its Nystrom matrix K diag(w), entries
K(x_i, x_j) w_j, so (Af)_i = sum_j K_ij w_j f_j.  Every assembly returns that
matrix as a plain complex ndarray.  The free kernel diagonal is fixed by
singularity subtraction: the non-smooth 1/(4 pi r) - z r/(8 pi) part is
integrated semi-analytically over the surface (apex-Duffy transform in
parameter space) and the C^2 remainder enters at its diagonal limit.

The wire enters through the mode vectors w_n(z) = omega_n(z)|_Sigma.  An
evaluation of eta_l takes all of them, the rank sum's and w_l, from one
table, one call of :func:`mode_vector` (:func:`mode_table`).  The rank sum
keeps the modes up to :func:`mode_cutoff`, past which its terms
Gamma_n^(-1) w_n w_n^T, products of two factors e^(-kappa_n r_min), have
decayed below TAIL_TOL.

Pairing convention (consequential): the pairings written (w_n(zbar), . ) are
implemented as the *bilinear* form sum_i w_i u_i v_i without conjugation,
using w_n(z) in both slots.  Since w_n(zbar) = conj(w_n(z)), the two agree
wherever the paper forms them, and the bilinear choice keeps every
assembled object analytic in z on each sheet, which the root finders rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import geometry, specfun
from .geometry import QuadratureRule
from .greens import _MAX_TABLE_ENTRIES, EwaldGreen, EwaldSplit, EwaldTables, chi_n
from .specfun import SheetContext, SpectralParams, gamma_n

__all__ = [
    "PoleCollisionError",
    "IllConditionedError",
    "SystemState",
    "PairLayout",
    "singular_part_matrix",
    "check_pair_tables",
    "pair_layout",
    "pair_nodes",
    "assemble_free",
    "mode_vector",
    "mode_table",
    "assemble_A_l",
    "assemble_alpha",
    "eta_l",
    "bs_determinant",
    "mode_cutoff",
    "TAIL_TOL",
]

#: bound on e^(-2 kappa_n r_min), the size of the first rank-sum term that the
#: mode cutoff drops
TAIL_TOL = 1e-12

#: A 1-norm condition number above this means M_l = I - beta (R_SigmaSigma + A_l) is
#: singular to working precision (z on the spectrum of the impurity problem without
#: mode l, a pole of theta_l); eta_l there would be numerical noise, so we refuse.
#: :func:`_guarded_solve` compares the exact one or a bound of at most 3 above it.
_COND_LIMIT = 1e12

#: the matrix of the guarded solve, named in its error and its cond[...] key
_M_L = "I - beta (R_SigmaSigma + A_l)"

_GAMMA_FLOOR = 1e-10

#: largest |w_n| the rank sum squares: e^350, whose square stays e^9.8 below
#: the double range, like the e^700 edge of specfun's series
_MODE_VECTOR_MAX = math.exp(0.5 * specfun._EXP_RANGE)

#: Duffy points per modal-basis batch; one batch holds a whole folded disk
#: row up to order 40, and an unfolded disk row up to order 29
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
    geometrically around the foot of the apex perpendicular.  A corner
    triangle is skipped when it is flat to rounding, |c1 x c2| <= 1e-14
    |c1| |c2|: relative, so that a small surface keeps all of its own.
    """
    e1, e2 = [], []
    for t in range(4):
        c1, c2 = corners[t], corners[(t + 1) % 4]
        cross = c1[0] * c2[1] - c1[1] * c2[0]
        if abs(cross) <= 1e-14 * np.hypot(*c1) * np.hypot(*c2):
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


def _product_rows(rule: QuadratureRule, rows, orders: tuple[int, int], group: np.ndarray):
    """Rows ``rows`` of (p_inv, p_lin), each row one batched kernel evaluation.

    The apex-Duffy points of all graded sub-triangles around the node are
    stacked, so the parametrization and the surface's closed-form Jacobian
    are evaluated once per row, and the tangents once per build, at the
    rows' nodes: none at a Duffy point.  ``orders``
    are the Gauss-Legendre orders (n_u, n_v) of the Duffy variables: u runs
    from the node to the base of a sub-triangle, v along that base;
    :func:`singular_part_matrix` gives both :func:`_duffy_order`.  The
    kernel is integrated against the modal bases, Legendre polynomials in
    q1 and in q2 or the trigonometric basis in a periodic q2, built by
    recurrence as (p, N) arrays; two fixed p x p maps
    (:func:`_legendre_map`, :func:`_trig_map`) then take the p x p moments
    to the cardinal basis of the nodes.  A row's points and bases are freed
    before the next row's are made, and a row with more than _BATCH_POINTS
    points (a folded disk row above order 40) has its bases evaluated in
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
    (xu, wu), (xv, wv) = ((0.5 * (x + 1.0), 0.5 * w) for x, w in map(leggauss, orders))
    u = xu[:, None, None]
    v = xv[None, :, None]
    wu = np.outer(wu, wv) * xu[:, None]
    q = rule.param_nodes[rows].T
    # tangent lengths sqrt(t . t) by a matrix product: bitwise np.linalg.norm of each vector
    lengths = np.sqrt([(t[:, None, :] @ t[:, :, None]).ravel()
                       for t in (surf.tangent1(*q), surf.tangent2(*q))]).T

    def kernel_points(i, h, fold_axes):
        """Basis coordinates (t1, t2) and weights of the two kernels at row i's Duffy points.

        Only the sub-triangles that the folds along ``fold_axes`` keep are
        integrated.  The points themselves are freed on return.
        """
        q1, q2 = rule.param_nodes[i]
        # window relative to the node; a periodic one is recentred on it
        lo2, hi2 = (-0.5 * span2, 0.5 * span2) if surf.periodic2 else (a2 - q2, b2 - q2)
        corners = h * np.array([[a1 - q1, lo2], [b1 - q1, lo2],
                                [b1 - q1, hi2], [a1 - q1, hi2]])
        e1, e2 = _graded_triangles(corners)
        for axis in fold_axes:
            negative = e1[:, axis] + e2[:, axis] < 0.0
            e1, e2 = e1[negative], e2[negative]
        det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        # (triangle, u, v) points of the Duffy map, parameter offsets last
        offset = u * ((1.0 - v) * e1[:, None, None, :] + v * e2[:, None, None, :]) / h
        qq1 = (q1 + offset[..., 0]).ravel()
        qq2 = (q2 + offset[..., 1]).ravel()
        d = surf.param_map(qq1, qq2) - rule.nodes[i]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        c = (det[:, None, None] * wu).ravel() * surf.jacobian(qq1, qq2) / (h[0] * h[1])
        return (2.0 * qq1 - a1 - b1) / (b1 - a1), scale2 * (qq2 - origin2), c / r, c * r

    def moments(i, h, fold_axes):
        """(p, p) moments of row i's two kernels; its bases are freed on return."""
        t1, t2, c_inv, c_lin = kernel_points(i, h, fold_axes)
        acc_inv = np.zeros((p, p))
        acc_lin = np.zeros((p, p))
        for b in range(0, len(c_inv), _BATCH_POINTS):
            part = slice(b, b + _BATCH_POINTS)
            f1 = _legendre_basis(t1[part], p)
            f2 = basis2(t2[part], p).T
            acc_inv += (f1 * c_inv[part]) @ f2
            acc_lin += (f1 * c_lin[part]) @ f2
        return acc_inv, acc_lin

    p_inv = np.empty((len(rows), n))
    p_lin = np.empty((len(rows), n))
    for k, i in enumerate(rows):
        fixed = group[:, i] == i
        folds = [(axis, group[np.argmax(only & fixed)])
                 for axis, only in enumerate(moves_only) if np.any(only & fixed)]
        acc_inv, acc_lin = moments(i, lengths[k], [axis for axis, _ in folds])
        row_inv = (map1.T @ acc_inv @ map2).ravel()
        row_lin = (map1.T @ acc_lin @ map2).ravel()
        for _, mirror in folds:
            row_inv = row_inv + row_inv[mirror]
            row_lin = row_lin + row_lin[mirror]
        p_inv[k] = row_inv
        p_lin[k] = row_lin
    return p_inv / (4.0 * math.pi), p_lin


def _node_distances(nodes: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of ``nodes`` (n, 3).

    The squared differences are summed in place one coordinate at a time,
    so the peak is two (n, n) arrays and no (n, n, 3) difference array.
    They are summed as (x1^2 + x3^2) + x2^2, the order of numpy's einsum
    over the (n, n, 3) difference array (numpy 2.4, x86-64), so that the
    distances equal that form's bit for bit.
    """
    n = len(nodes)
    sq, d = np.zeros((n, n)), np.empty((n, n))
    for x in nodes.T[[0, 2, 1]]:
        np.subtract.outer(x, x, out=d)
        d *= d
        sq += d
    return np.sqrt(sq, out=sq)


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
        candidates.append((_q2_shift(rule), lambda q1, q2: (q1, q2 + step)))
    return candidates


def _q2_shift(rule: QuadratureRule) -> np.ndarray:
    """Node permutation of the one-node shift of q2 on the tensor rule."""
    return np.roll(np.arange(rule.n_nodes).reshape(rule.order, rule.order), -1,
                   axis=1).ravel()


def _is_isometry(rule: QuadratureRule, perm, param_map, dist) -> bool:
    """Whether a candidate of :func:`_candidate_symmetries` is an isometry.

    It must keep the node-to-node distances ``dist`` (a cheap prefilter),
    the squared distances from every node to probe points between the
    nodes, the tangent lengths and the Jacobian.  Then it acts on the
    surface as an isometry that keeps the rule, the integrand of row g[i]
    of the singular matrices is that of row i carried along, and so is
    the cardinal basis (its nodes are symmetric).  Both distance checks
    allow the rounding of the coordinates, 64 eps max|x|, besides 1e-12 of
    the largest distance: a surface much smaller than its distance from
    the origin keeps its group.
    """
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(rule.nodes))
    if not np.allclose(dist[np.ix_(perm, perm)], dist, rtol=0.0,
                       atol=max(1e-12 * dist.max(), floor)):
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
    d2_max = d2.max()
    if not np.allclose(sq_dist(surf.param_map(m1, m2))[perm], d2, rtol=0.0,
                       atol=max(1e-12 * d2_max, 4.0 * floor * math.sqrt(d2_max))):
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


def _duffy_order(rule: QuadratureRule, group: np.ndarray) -> int:
    """Gauss points in each Duffy variable of :func:`singular_part_matrix`.

    m = max(p + 2, 14) on every surface.  On an affine map r is u |J e(v)|
    along each Duffy ray and the Jacobian is constant, so the radial
    integrands u (1/r) P_a P_b and u r P_a P_b are polynomials in u of
    degree 2p - 2 and 2p, which p + 1 points already integrate exactly;
    after the Duffy map the angular integrand is a smooth 1/|e(v)| times
    the basis.  On curved maps the rule is sized by the pole, not by the
    matrices: the pole sees them only through the smooth weighted density.
    On a cap wider than a hemisphere, the most sensitive surface known, the
    pole stays within 6.6e-14 of that of a 3p build at orders 6-20, delta
    0.5-1 and l 2-5, while the matrices move by up to 1.7e-4 of their
    largest entry.  Both terms are needed there: a floor of 13 moves a pole
    at order 10 by 5.8e-13, and max(p + 1, 14) one at order 13 by 3.5e-13.
    A periodic q2 without the one-node q2 shift in ``group`` (an elliptic
    disk) takes max(2p, 24): there m moves a pole by up to 1.2e-12.
    """
    p = rule.order
    if rule.surface.periodic2 and not np.any(np.all(group == _q2_shift(rule), axis=1)):
        return max(2 * p, 24)
    return max(p + 2, 14)


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
    leaving a remainder the plain rule integrates to high order.  The Duffy
    rule takes ``duffy_order`` Gauss points in both of its variables, by
    default :func:`_duffy_order`, max(p + 2, 14): exact on an affine map,
    and on a curved one holding the pole (not each matrix entry) within
    1e-13 of a 3p rule.

    Only one row per orbit of ``group`` (:func:`_node_group` of the rule
    when not given) is integrated; the others follow from
    p[g[i], g[j]] = p[i, j].  A row that a reflection of ``group`` fixes is
    integrated over half its window and folded (:func:`_product_rows`).
    """
    if group is None:
        group = _node_group(rule)
    order = _duffy_order(rule, group) if duffy_order is None else duffy_order
    # the distinct representatives; np.unique without index outputs would
    # import numpy.ma (about 15 ms) on its first call
    rows = np.flatnonzero(np.bincount(group.min(axis=0)))
    p_inv, p_lin = _product_rows(rule, rows, (order, order), group)
    # the n x n column map only now, so that it is not held beside a row's bases
    rep, col = _orbit_map(group)
    at = np.searchsorted(rows, rep)[:, None]
    return p_inv[at, col], p_lin[at, col]


def _pair_orbits(group: np.ndarray):
    """Representative pairs and the n x n index of the pair orbits of ``group``.

    A pair orbit is that of (i, j) under the group and transposition; its
    representative is its smallest pair, so i <= j, and the orbit of a
    coincident pair (i, i) holds coincident pairs only.  ``index`` points
    every pair at its representative.
    """
    rep, col = _orbit_map(group)
    n = len(rep)
    key = rep[:, None] * n + col
    key = np.minimum(key, key.T)
    own = key.ravel() == np.arange(n * n)
    rows, cols = np.divmod(np.flatnonzero(own), n)
    slot = np.zeros(n * n, dtype=np.intp)
    slot[own] = np.arange(len(rows))
    return rows, cols, slot[key]


@dataclass(frozen=True)
class PairLayout:
    """Everything z-independent of the free-kernel assembly on one rule.

    ``rule`` is the rule the layout belongs to: the unscaled one of
    :func:`pair_layout`, or a delta-copy's, which only :meth:`scaled` makes
    together with its corrections.  ``rows``, ``cols`` are the node pairs
    whose kernel value is evaluated, one per pair orbit of the kernel group
    (:func:`pair_layout`), the coincident pairs (i, i) of the diagonal among
    them.  ``index`` (n x n) points every pair at its representative.
    ``corr_inv`` and ``corr_lin`` swap the plain Nystrom values of the model
    kernels 1/(4 pi |x - x'|) and |x - x'| for their product integrals
    (:func:`singular_part_matrix`): p_inv / w - 1/(4 pi r) and p_lin / w - r,
    with w the rule weights and the model zero on the diagonal.
    """

    rule: QuadratureRule
    rows: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    corr_inv: np.ndarray
    corr_lin: np.ndarray

    def scaled(self, delta: float, r_min: float) -> "PairLayout":
        """Layout of the delta-copy of the rule, at distance ``r_min`` from the wire.

        Its rule is :meth:`geometry.QuadratureRule.scaled`.  The map
        x -> delta x + (1 - delta) x0 with the same order and parameter
        nodes is a similarity: it carries every isometry of the rule along
        with the same node permutation and keeps equal x3 equal, so the node
        group, its kernel subgroup and the pairs stay; p_inv scales by
        delta, p_lin by delta^3, w by delta^2 and r by delta, so corr_inv
        scales by 1/delta and corr_lin by delta.
        """
        return replace(self, rule=self.rule.scaled(delta, r_min),
                       corr_inv=self.corr_inv / delta, corr_lin=delta * self.corr_lin)


def pair_nodes(layout: PairLayout, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes x, x' of the layout's pairs on ``rule`` and their widest in-plane separation.

    ``rule`` is the layout's own or a delta-copy of it (:meth:`QuadratureRule.scaled`),
    whose widest pair is the one its state's Ewald split is chosen for.
    """
    x, xp = rule.nodes[layout.rows], rule.nodes[layout.cols]
    return x, xp, float(np.max(np.hypot(x[:, 0] - xp[:, 0], x[:, 1] - xp[:, 1])))


def check_pair_tables(order: int) -> None:
    """Refuse a quadrature order whose n x n pair tables exceed _MAX_TABLE_ENTRIES.

    A tensor rule of that order has n = order^2 nodes, so order 48 and above
    is refused; it decides this from the order alone, before any rule exists.
    """
    n = order * order
    if n * n > _MAX_TABLE_ENTRIES:
        raise ValueError(f"quadrature order {order} has {n} nodes, whose pair "
                         f"tables need {n * n} entries; the limit is {_MAX_TABLE_ENTRIES}")


def pair_layout(rule: QuadratureRule) -> PairLayout:
    """Pairs to evaluate and singular corrections of ``rule`` (see :class:`PairLayout`).

    The node group (:func:`_node_group`) is found once here.  The kernel
    depends on the in-plane separation, x3 and x3', so its pairs, the
    coincident ones included, are grouped under the elements that keep
    every node's x3 (they keep the 3D distance too, hence the in-plane
    one).  The corrections come from :func:`singular_part_matrix` under the
    whole group.  An order that :func:`check_pair_tables` refuses is refused
    before any n x n array exists, and so are coincident nodes (a
    parametrization that folds onto itself).  So is a delta-copy's rule,
    first: its layout is the unscaled one's :meth:`PairLayout.scaled`.
    """
    if rule.delta != 1.0:
        raise ValueError(f"pair_layout takes an unscaled rule, not the copy at delta = "
                         f"{rule.delta:g}: that copy's layout is PairLayout.scaled of the "
                         "unscaled rule's")
    check_pair_tables(rule.order)
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
    return PairLayout(rule, rows, cols, index, p_inv / w - inv_r, p_lin / w - r)


def assemble_free(z: complex, state: SystemState) -> np.ndarray:
    """Nystrom matrix K diag(w) of the free layer resolvent R_SigmaSigma(z).

    The kernel is split as 1/(4 pi r) - z r/(8 pi) plus a C^2 remainder
    (those are the odd-in-r terms of the nearest image exp(-s r)/(4 pi r)
    through order r).  The remainder is handled by plain Nystrom with its
    diagonal limit from the coincident pairs of the state's Ewald tables
    (:attr:`SystemState.tables`); the non-smooth part enters through the
    layout's corrections, which replace its Nystrom values by product
    integrals.  Everything z-independent comes from ``state``.
    """
    layout, tables = state.layout, state.tables
    mat = EwaldGreen(z, tables.split, state.ctx).pairs(tables)[layout.index]
    # in place, so one n x n temporary lives beside the result: eta_l holds
    # A_l meanwhile
    lin = z / (8.0 * math.pi) * layout.corr_lin
    mat += np.subtract(layout.corr_inv, lin, out=lin)
    mat *= state.rule.weights
    return mat


def mode_vector(z: complex, n, rule: QuadratureRule, ctx: SheetContext) -> np.ndarray:
    """Mode vector w_n(z) = omega_n(z)|_Sigma at the rule nodes.

    omega_n(z; x) = (1/2 pi) Z0(kappa_n |x_perp|) chi_n(x3) is singular on
    the wire axis, which every :class:`geometry.Surface` keeps away from.
    For an array of mode indices ``n`` the result has one column per mode.
    Z0 is evaluated once per distinct distance from the wire and chi_n once
    per distinct height, then gathered to the nodes.
    """
    n = np.asarray(n)
    x = rule.nodes
    rho, at_rho = np.unique(np.hypot(x[:, 0], x[:, 1]), return_inverse=True)
    x3, at_x3 = np.unique(x[:, 2], return_inverse=True)
    return specfun.z0_kernel(z, n, rho, ctx)[at_rho] * chi_n(n, x3)[at_x3] / (2.0 * math.pi)


def mode_cutoff(rule: QuadratureRule, ctx: SheetContext, eps_l: float,
                n_cut: int | None = None) -> int:
    """Mode cutoff of the rank sums on ``rule``: ``n_cut``, checked, or one from TAIL_TOL.

    A rank-sum term Gamma_n^(-1) w_n w_n^T is a product of two mode vectors,
    each of size about e^(-kappa_n r_min) (K0(x) ~ sqrt(pi/2x) e^(-x),
    Abramowitz & Stegun 9.7.2), with kappa_n = sqrt(n^2 - eps_l) at the
    pole.  Without ``n_cut`` the cutoff is the smallest whose first dropped
    mode has e^(-2 kappa r_min) <= TAIL_TOL, in closed form
    ceil(sqrt(max(eps_l, 0) + (L / 2 r_min)^2)) - 1 with L = -ln TAIL_TOL,
    and at least k and 1.  A negative eps_l (eps_1 on the first sheet) has
    kappa_n >= n, so 0 in its place keeps enough modes.  On the second
    sheet an ``n_cut`` below k is refused, and so is any cutoff whose mode
    table would hold more than _MAX_TABLE_ENTRIES entries.
    """
    if n_cut is None:
        tail = -math.log(TAIL_TOL) / (2.0 * geometry.r_min(rule))
        n_cut = max(ctx.k, 1, math.ceil(math.sqrt(max(eps_l, 0.0) + tail * tail)) - 1)
    elif ctx.second and n_cut < ctx.k:
        raise ValueError(f"n_cut = {n_cut} is below the window index k = "
                         f"{ctx.k}: it would drop open channels")
    entries = n_cut * rule.n_nodes
    if entries > _MAX_TABLE_ENTRIES:
        raise ValueError(f"n_cut = {n_cut} modes on {rule.n_nodes} nodes "
                         f"(r_min = {geometry.r_min(rule):.3g}) need a "
                         f"mode table of {entries} entries; "
                         f"the limit is {_MAX_TABLE_ENTRIES}")
    return n_cut


def mode_table(z: complex, state: SystemState) -> np.ndarray:
    """w_n(z) for n = 1 .. max(n_cut, l), column n - 1: one :func:`mode_vector` call.

    The rank sum of A_l takes its columns n <= n_cut, n != l, and w_l is
    column l - 1, also where a given n_cut lies below l.
    """
    return mode_vector(z, np.arange(1, max(state.n_cut, state.l) + 1), state.rule, state.ctx)


def _rank_sum(z, state: SystemState, modes: np.ndarray, w: np.ndarray):
    """sum_n Gamma_n(z)^(-1) w_n w_n^T as one product (W / g) W^T, W = ``w``.

    ``w`` holds the mode vectors of ``modes`` as columns, C-contiguous like
    a table of :func:`mode_vector`: BLAS sums a strided operand in another
    order.  A mode on its eigenvalue is refused first, then a mode vector
    above _MODE_VECTOR_MAX, before the product squares it.  Only an
    open mode n <= k can get there: on the second sheet its
    i pi I0(-kappa_n rho) grows like e^(Re kappa_n rho), which a z far from
    the real axis makes large; every other w_n decays in rho.
    """
    g = gamma_n(z, modes, state.ctx, state.params)
    small = np.abs(g) < _GAMMA_FLOOR
    if np.any(small):
        k = int(np.argmax(small))
        raise PoleCollisionError(f"Gamma_{modes[k]}(z) = {g[k]:.3e} at z = {z}; "
                                 f"mode {modes[k]} sits on its eigenvalue")
    open_ = modes <= state.ctx.k
    size = np.max(np.abs(w[:, open_]), axis=0, initial=0.0)
    if np.any(size > _MODE_VECTOR_MAX):
        n = modes[open_][np.argmax(size)]
        raise ValueError(f"w_{n}({complex(z):g}) is out of range: the rank sum squares the "
                         f"mode vectors, and past |w_n| = e^{0.5 * specfun._EXP_RANGE:g} "
                         "their squares near or leave the double range")
    return (w / g) @ w.T * state.rule.weights


def assemble_A_l(z: complex, state: SystemState, table: np.ndarray) -> np.ndarray:
    """Nystrom matrix of A_l(z) = sum_{n != l} Gamma_n(z)^(-1) <w_n, . > w_n over n <= n_cut.

    ``table`` is the :func:`mode_table` of ``state`` at z.
    """
    modes = np.arange(1, state.n_cut + 1)
    keep = modes != state.l
    return _rank_sum(z, state, modes[keep], table[:, :state.n_cut].compress(keep, axis=1))


def assemble_alpha(z: complex, state: SystemState) -> np.ndarray:
    """Nystrom matrix of R_alpha = R_SigmaSigma + sum_{n <= n_cut} Gamma_n^(-1) <w_n, .> w_n."""
    modes = np.arange(1, state.n_cut + 1)
    return assemble_free(z, state) + _rank_sum(
        z, state, modes, mode_vector(z, modes, state.rule, state.ctx))


def _guarded_solve(e, rhs, diagnostics: dict | None):
    """Solution of (I - e) x = rhs, refused when cond_1(I - e) exceeds _COND_LIMIT.

    With q = ||e||_1 <= 1/2, x is the Neumann series sum_k e^k rhs up to a tail bound
    ||e^k rhs||_1 q / (1 - q) <= eps ||x||_1 < inf, or 53 terms (at q = 1/2 the last is
    eps ||rhs||_1); then cond_1 <= (1 + q) / (1 - q) <= 3.  Else the inverse gives x and
    the exact cond_1.  ``diagnostics`` keep the worst cond_1 and the most terms.
    """
    q, terms = np.linalg.norm(e, 1), 0
    if q <= 0.5:
        cond, tol = (1.0 + q) / (1.0 - q), np.finfo(float).eps * (1.0 - q)
        x, term, terms = rhs, rhs, 1
        while terms < 53 and not np.abs(term).sum() * q <= tol * np.abs(x).sum() < math.inf:
            term, terms = e @ term, terms + 1
            x = x + term
    else:
        mat = np.eye(len(e)) - e
        try:
            inv = np.linalg.inv(mat)
            cond = np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)
        except np.linalg.LinAlgError:  # exactly singular
            cond = math.inf
        if not cond <= _COND_LIMIT:
            raise IllConditionedError(f"{_M_L}: condition number {cond:.3e} exceeds 1e12")
        x = inv @ rhs
    if diagnostics is not None:
        for key, value in ((f"cond[{_M_L}]", cond), ("neumann_terms", terms)):
            diagnostics[key] = max(diagnostics.get(key, 0), value)
    return x


@dataclass
class SystemState:
    """Everything needed to evaluate eta_l / the determinant at a point z.

    ``l`` names eps_l; a second-sheet ``ctx`` whose window J_k misses eps_l is
    refused, and so is an ``n_cut`` that :func:`mode_cutoff` refuses; without
    one the state takes the cutoff of TAIL_TOL.  ``n_cut`` is the one cutoff
    override, for a convergence check against twice the cutoff.  Holds the
    mode cutoff, the z-independent ``layout`` and its Ewald tables, so only
    the z-dependent kernel values are recomputed per z.  The state's
    rule is the layout's: :func:`pair_layout` of an unscaled rule, or its
    :meth:`PairLayout.scaled` on a delta-copy, whose ``rule.delta`` a pole
    found on this state records.
    """

    params: SpectralParams
    layout: PairLayout
    ctx: SheetContext
    l: int
    n_cut: int | None = None

    def __post_init__(self):
        eps_l, (lo, hi) = self.params.eigenvalue(self.l), self.ctx.window
        if self.ctx.second and not lo < eps_l < hi:
            raise ValueError(f"l = {self.l}: eps_l = {eps_l} lies outside the window "
                             f"J_{self.ctx.k} = ({lo:g}, {hi:g}) of the second sheet")
        self.n_cut = mode_cutoff(self.rule, self.ctx, eps_l, n_cut=self.n_cut)

    @property
    def rule(self) -> QuadratureRule:
        """The layout's rule."""
        return self.layout.rule

    @cached_property
    def tables(self) -> EwaldTables:
        """Ewald tables of the layout's pairs, the coincident ones included.

        Built at the first assembly.  Their split is chosen from the largest
        in-plane separation and the window of the state's sheet
        (:meth:`EwaldSplit.for_separation`).
        """
        x, xp, rho = pair_nodes(self.layout, self.rule)
        return EwaldTables(x, xp, EwaldSplit.for_separation(rho, self.ctx))


def eta_l(z: complex, state: SystemState, diagnostics: dict | None = None) -> complex:
    """eta_l(z, delta) = Gamma_l(z) - beta theta_l(z, delta) at the l, delta of ``state``.

    theta_l = <w_l, T_l w_l> with T_l = (I - beta G A_l)^(-1) G and
    G = (I - beta R_SigmaSigma)^(-1).  So T_l = (G^(-1) - beta A_l)^(-1) = M_l^(-1)
    with M_l = I - beta (R_SigmaSigma + A_l): one guarded solve, a Neumann series for small E.
    """
    params, rule, ctx, l = state.params, state.rule, state.ctx, state.l
    gl, beta = gamma_n(z, l, ctx, params), params.beta
    table = mode_table(z, state)
    # a copy, so that the table is freed before the Ewald kernel's
    # temporaries, the memory peak of an eta_l
    w_l = table[:, l - 1].copy()
    # the rank sum first: its mode vectors refuse a z out of range before
    # the Ewald kernel overflows on it
    e = assemble_A_l(z, state, table)
    del table
    e += assemble_free(z, state)
    e *= beta
    t_w = _guarded_solve(e, w_l, diagnostics)
    return gl - beta * complex(np.sum(rule.weights * w_l * t_w))


def bs_determinant(z: complex, state: SystemState) -> complex:
    """det(I - beta R_alpha,SigmaSigma(z)) of the weighted Nystrom matrix.

    Has poles at the eigenvalues eps_n of every retained mode; root finders
    should work with Gamma_l(z) * det(...) to cancel the l-pole.
    """
    eye = np.eye(state.rule.n_nodes, dtype=complex)
    return complex(np.linalg.det(eye - state.params.beta * assemble_alpha(z, state)))
