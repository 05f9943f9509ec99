"""Nystrom discretization of the surface operators and the resonance function.

Everything here acts on L^2(Sigma_delta) through a quadrature rule: an
operator with kernel K becomes the matrix K(x_i, x_j) combined with the rule
weights, (Af)_i = sum_j K_ij w_j f_j.  The free kernel diagonal is fixed by
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from . import geometry, specfun
from .geometry import QuadratureRule
from .greens import EwaldGreen, chi_n
from .specfun import SheetContext, SpectralParams, first_sheet, gamma_n

__all__ = [
    "DiscreteKernelOperator",
    "PoleCollisionError",
    "IllConditionedError",
    "SingularMatrices",
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

#: rcond below this means (I - beta R) sits on top of an impurity-band
#: resonance; results there would be numerical noise, so we refuse.
_COND_LIMIT = 1e12

_GAMMA_FLOOR = 1e-10

#: Duffy points per interpolation-basis batch; one batch holds a whole row
#: up to order 16
_BATCH_POINTS = 1 << 15


class PoleCollisionError(ArithmeticError):
    """A retained mode n != l has Gamma_n(z) ~ 0; the rank sum is singular."""


class IllConditionedError(ArithmeticError):
    """A Birman-Schwinger solve exceeded the condition-number budget."""


@dataclass(frozen=True)
class DiscreteKernelOperator:
    """Nystrom matrix of an integral operator on the rule's nodes."""

    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if m.shape != (len(w), len(w)):
            raise ValueError("matrix shape does not match the weight vector")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @cached_property
    def weighted(self) -> np.ndarray:
        """Matrix of the nodal action f -> K diag(w) f."""
        return self.matrix * self.weights[None, :]

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.weighted @ f

    def op_norm(self) -> float:
        """Spectral norm on L^2: similarity-transform with sqrt(w)."""
        if self.n_nodes == 0:
            return 0.0
        sw = np.sqrt(self.weights)
        return float(np.linalg.norm(sw[:, None] * self.matrix * sw[None, :], ord=2))


def _barycentric_weights(x):
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    return 1.0 / np.prod(d, axis=1)


def _lagrange_eval(x_nodes, bw, pts):
    """L[p, j] = l_j(pts[p]) by the barycentric formula (exact at nodes)."""
    diff = pts[:, None] - x_nodes[None, :]
    exact = diff == 0.0
    hit = exact.any(axis=1)
    diff[hit] = 1.0  # avoid 0-division; rows fixed below
    l = bw / diff
    l *= (1.0 / l.sum(axis=1))[:, None]
    l[hit] = exact[hit]
    return l


def _trig_cardinal(x_nodes, period, pts):
    """L[p, j] = periodic cardinal interpolant of node j at pts[p].

    Nodes must be equispaced over one period; the Dirichlet-kernel cardinal
    functions are periodic, so evaluation needs no seam handling.
    """
    n = len(x_nodes)
    half = math.pi * (pts[:, None] - x_nodes[None, :]) / period
    s = np.sin(half)
    near = np.abs(s) < 1e-12
    s[near] = 1.0
    if n % 2 == 0:
        l = np.sin(n * half) * np.cos(half) / (n * s)
    else:
        l = np.sin(n * half) / (n * s)
    l[near] = 1.0
    return l


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


def _product_rows(rule: QuadratureRule, rows, duffy_order: int):
    """Rows ``rows`` of (p_inv, p_lin), each row one batched kernel evaluation.

    The apex-Duffy points of all graded sub-triangles around the node are
    stacked, so the parametrization, the Jacobian and both interpolation
    bases are evaluated once per row and the row is two matrix products.
    Above order 16 a row has more than _BATCH_POINTS points; the bases are
    then evaluated in batches of that size to bound the memory they take.
    """
    surf = rule.surface
    p = rule.order
    q1_nodes, q2_nodes = _tensor_nodes(rule)
    bw1 = _barycentric_weights(q1_nodes)
    bw2 = None if surf.periodic2 else _barycentric_weights(q2_nodes)
    (a1, b1), (a2, b2) = surf.domain
    span2 = b2 - a2
    xd, wd = leggauss(duffy_order)
    xd = 0.5 * (xd + 1.0)
    wd = 0.5 * wd
    u = xd[:, None, None]
    v = xd[None, :, None]
    wu = np.outer(wd, wd) * xd[:, None]
    p_inv = np.empty((len(rows), p * p))
    p_lin = np.empty((len(rows), p * p))
    for k, i in enumerate(rows):
        q1, q2 = rule.param_nodes[i]
        h = np.array([np.linalg.norm(surf.tangent1(q1, q2)),
                      np.linalg.norm(surf.tangent2(q1, q2))])
        # window relative to the node; a periodic one is recentred on it
        lo2, hi2 = (-0.5 * span2, 0.5 * span2) if surf.periodic2 else (a2 - q2, b2 - q2)
        corners = h * np.array([[a1 - q1, lo2], [b1 - q1, lo2],
                                [b1 - q1, hi2], [a1 - q1, hi2]])
        e1, e2 = _graded_triangles(corners)
        det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        # (triangle, u, v) points of the Duffy map, parameter offsets last
        offset = u * ((1.0 - v) * e1[:, None, None, :] + v * e2[:, None, None, :]) / h
        qq1 = (q1 + offset[..., 0]).ravel()
        qq2 = (q2 + offset[..., 1]).ravel()
        r = np.linalg.norm(surf.param_map(qq1, qq2) - rule.nodes[i], axis=-1)
        c = (det[:, None, None] * wu).ravel() * surf.jacobian(qq1, qq2) / (h[0] * h[1])
        acc_inv = np.zeros((p, p))
        acc_lin = np.zeros((p, p))
        for b in range(0, len(c), _BATCH_POINTS):
            part = slice(b, b + _BATCH_POINTS)
            l1 = _lagrange_eval(q1_nodes, bw1, qq1[part])
            if surf.periodic2:
                l2 = _trig_cardinal(q2_nodes, span2, qq2[part])
            else:
                l2 = _lagrange_eval(q2_nodes, bw2, qq2[part])
            acc_inv += l1.T @ ((c[part] / r[part])[:, None] * l2)
            acc_lin += l1.T @ ((c[part] * r[part])[:, None] * l2)
        p_inv[k] = acc_inv.ravel()
        p_lin[k] = acc_lin.ravel()
    return p_inv / (4.0 * math.pi), p_lin


def _rotation_orbits(rule: QuadratureRule) -> bool:
    """Whether shifting q2 by one node spacing maps every row onto another.

    Holds when the second parameter is periodic and that shift preserves
    the distances from every node to probe points on and off the nodes, the
    tangent lengths and the Jacobian: then it acts on the surface as an
    isometry (a rotation for the disk and the cap), the integrand of row
    (i1, i2 + 1) is that of row (i1, i2) moved by one spacing, and so is
    the trigonometric basis.
    """
    surf = rule.surface
    if not surf.periodic2:
        return False
    p = rule.order
    q1_nodes, q2_nodes = _tensor_nodes(rule)
    a2, b2 = surf.domain[1]
    q1 = np.concatenate([q1_nodes, 0.5 * (q1_nodes[1:] + q1_nodes[:-1])])[:, None]
    for frac in (0.0, 1.0 / math.pi):
        g1, g2 = np.broadcast_arrays(q1, q2_nodes + frac * (b2 - a2) / p)
        probes = surf.param_map(g1, g2)
        for ring in rule.nodes.reshape(p, p, 3):  # the nodes of one q1
            dist = np.linalg.norm(ring[:, None, None] - probes, axis=-1)
            if not np.allclose(np.roll(dist, 1, axis=(0, 2)), dist,
                               rtol=0.0, atol=1e-12 * dist.max()):
                return False
        metric = np.stack([np.linalg.norm(surf.tangent1(g1, g2), axis=-1),
                           np.linalg.norm(surf.tangent2(g1, g2), axis=-1),
                           surf.jacobian(g1, g2)])
        if not np.allclose(np.roll(metric, 1, axis=-1), metric, rtol=1e-12, atol=0.0):
            return False
    return True


def _fill_orbits(first: np.ndarray, p: int) -> np.ndarray:
    """All rows from the first row of each orbit: row (i1, s) is row (i1, 0)
    cyclically shifted by s along the basis index j2."""
    out = np.empty((p * p, p * p), dtype=first.dtype)
    per_orbit = first.reshape(p, p, p)
    for s in range(p):
        out[s::p] = np.roll(per_orbit, s, axis=2).reshape(p, p * p)
    return out


def singular_part_matrix(rule: QuadratureRule, duffy_order: int | None = None):
    """Product-integration matrices of the non-smooth kernel parts.

    Returns (p_inv, p_lin): nodal-action matrices for the kernels
    1/(4 pi |x - x'|) and |x - x'|.  Row i integrates the kernel against the
    interpolation basis of node j (Legendre cardinal; trigonometric in a
    periodic second direction) with an apex-Duffy
    quadrature around node i (the Duffy Jacobian cancels the 1/r
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

    On a rotationally symmetric surface (see :func:`_rotation_orbits`) only
    the first row of each azimuthal orbit is integrated; the other rows are
    its cyclic shifts.  Every other surface gets all rows integrated.
    """
    surf = rule.surface
    if surf is None:
        raise ValueError("product integration needs a parametrized surface")
    p = rule.order
    if duffy_order is None:
        duffy_order = max(2 * p, 24)
    if not _rotation_orbits(rule):
        return _product_rows(rule, range(rule.n_nodes), duffy_order)
    first_inv, first_lin = _product_rows(rule, range(0, rule.n_nodes, p), duffy_order)
    return _fill_orbits(first_inv, p), _fill_orbits(first_lin, p)


class SingularMatrices:
    """(p_inv, p_lin) of one base rule, built on first use and then reused.

    Under the scaling x -> delta x + (1 - delta) x0 of
    :func:`geometry.scale_surface`, with the same order and parameter nodes,
    1/|x - x'| dS' scales by delta and |x - x'| dS' by delta^3, so the pair
    on the scaled rule is (delta p_inv, delta^3 p_lin) of the base rule.
    """

    def __init__(self, rule: QuadratureRule):
        self.rule = rule
        self._pair: tuple[np.ndarray, np.ndarray] | None = None

    def scaled(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        if self._pair is None:
            self._pair = singular_part_matrix(self.rule)
        p_inv, p_lin = self._pair
        return delta * p_inv, delta**3 * p_lin


def _kernel_orbits(rule: QuadratureRule) -> bool:
    """Whether the layer kernel matrix is cyclic along the rotation orbits.

    The kernel depends on the in-plane separation and on x3 and x3'.  When
    the one-node azimuthal shift is an isometry of the nodes
    (:func:`_rotation_orbits`) and every azimuthal ring has a single x3, the
    shift keeps x3, x3' and the 3D distance, so it keeps the in-plane
    separation too: it is a rotation about a vertical axis.  That holds for
    a horizontal disk and a cap with a vertical axis, not for tilted ones.
    """
    if rule.surface is None or not _rotation_orbits(rule):
        return False
    x3 = rule.nodes[:, 2].reshape(rule.order, rule.order)
    return bool(np.all(np.ptp(x3, axis=1) <= 1e-14 * np.max(np.abs(x3))))


@dataclass(frozen=True)
class PairLayout:
    """z-independent part of the free-kernel assembly on one rule.

    ``rows``, ``cols`` are the node pairs whose kernel value is evaluated:
    the upper triangle, or with ``orbit`` the first row (i1, 0) of each
    rotation orbit against every other node, the remaining rows being cyclic
    shifts of those (see :func:`_kernel_orbits`).  ``inv_r`` and ``r`` are
    the off-diagonal model matrices 1/(4 pi |x - x'|) and |x - x'|, zero on
    the diagonal.
    """

    rows: np.ndarray
    cols: np.ndarray
    orbit: bool
    inv_r: np.ndarray
    r: np.ndarray


def pair_layout(rule: QuadratureRule) -> PairLayout:
    """Pair layout of ``rule``; rejects coincident nodes."""
    n = rule.n_nodes
    nodes = rule.nodes
    r = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and float(np.min(r[off])) == 0.0:
        raise ValueError("quadrature nodes must be pairwise distinct")
    inv_r = np.zeros((n, n))
    inv_r[off] = 1.0 / (4.0 * math.pi * r[off])
    orbit = _kernel_orbits(rule)
    if orbit:
        first = np.arange(0, n, rule.order)
        rows, cols = np.nonzero(off[first])
        rows = first[rows]
    else:
        rows, cols = np.triu_indices(n, k=1)
    return PairLayout(rows, cols, orbit, inv_r, r)


def assemble_free(z: complex, rule: QuadratureRule, ctx: SheetContext | None = None,
                  singular: tuple[np.ndarray, np.ndarray] | None = None,
                  layout: PairLayout | None = None) -> DiscreteKernelOperator:
    """Nystrom matrix of the free layer resolvent R_SigmaSigma(z).

    The kernel is split as 1/(4 pi r) - z r/(8 pi) plus a C^2 remainder
    (those are the odd-in-r terms of the nearest image exp(-s r)/(4 pi r)
    through order r).  The non-smooth part enters through the z-independent
    product-integration matrices (:func:`singular_part_matrix`); the
    remainder is handled by plain Nystrom with its diagonal limit from
    :meth:`EwaldGreen.regularized_diag`.  For a tabulated rule without a
    parametrized surface only the regularized limit fixes the diagonal
    (documented fallback for point probes).

    ``layout`` (see :func:`pair_layout`) is the z-independent pair geometry
    of ``rule``; pass it to reuse one across several z.
    """
    ctx = ctx or first_sheet()
    n = rule.n_nodes
    if n == 0:
        return DiscreteKernelOperator(np.zeros((0, 0), complex), rule.weights)
    if layout is None:
        layout = pair_layout(rule)
    ew = EwaldGreen(z, ctx)
    nodes = rule.nodes
    rows, cols = layout.rows, layout.cols
    mat = np.zeros((n, n), dtype=complex)
    if n > 1:
        vals = ew.pairs(nodes[rows], nodes[cols])
        if layout.orbit:
            p = rule.order
            first = np.zeros((p, n), dtype=complex)
            first[rows // p, cols] = vals
            mat = _fill_orbits(first, p)
        else:
            mat[rows, cols] = vals
            mat[cols, rows] = vals
    diag = np.atleast_1d(ew.regularized_diag(nodes))
    if rule.surface is not None:
        if singular is None:
            singular = singular_part_matrix(rule)
        p_inv, p_lin = singular
        c_lin = -z / (8.0 * math.pi)
        mat -= layout.inv_r + c_lin * layout.r
        mat[np.arange(n), np.arange(n)] = diag
        mat += (p_inv + c_lin * p_lin) / rule.weights[None, :]
    else:
        mat[np.arange(n), np.arange(n)] = diag
    return DiscreteKernelOperator(mat, rule.weights)


def mode_vector(z: complex, n, rule: QuadratureRule, ctx: SheetContext) -> np.ndarray:
    """Mode vector w_n(z) = omega_n(z)|_Sigma at the rule nodes.

    omega_n(z; x) = (1/2 pi) Z0(kappa_n |x_perp|) chi_n(x3) is singular on
    the wire axis, so a node there is rejected.  For an array of mode
    indices ``n`` the result has one column per mode.
    """
    n = np.asarray(n)
    if rule.n_nodes == 0:
        return np.zeros((0,) + n.shape, complex)
    x = rule.nodes
    rho = np.hypot(x[:, 0], x[:, 1])
    return specfun.z0_kernel(z, n, rho, ctx) * chi_n(n, x[:, 2]) / (2.0 * math.pi)


def default_mode_cutoff(rule: QuadratureRule, ctx: SheetContext,
                        tail_tol: float = 1e-12) -> int:
    """n_max = max(k + 40, ceil(-ln tail_tol / r_min)) for the rank sums."""
    if rule.surface is not None:
        rmin = geometry.r_min(rule.surface)
    elif rule.n_nodes:
        rmin = float(np.min(np.hypot(rule.nodes[:, 0], rule.nodes[:, 1])))
    else:
        rmin = 1.0
    if rmin <= 0.0:
        raise ValueError("surface touches the wire axis; mode sums diverge")
    return max(ctx.k + 40, int(math.ceil(-math.log(tail_tol) / rmin)))


def _rank_sum(z, rule, ctx, params, modes: np.ndarray):
    """sum_n Gamma_n(z)^(-1) w_n w_n^T as one product (W / g) W^T, W = [w_n]."""
    g = np.array([gamma_n(z, n, ctx, params) for n in modes], dtype=complex)
    small = np.abs(g) < _GAMMA_FLOOR
    if np.any(small):
        k = int(np.argmax(small))
        raise PoleCollisionError(f"Gamma_{modes[k]}(z) = {g[k]:.3e} at z = {z}; "
                                 f"mode {modes[k]} sits on its eigenvalue")
    w = mode_vector(z, modes, rule, ctx)
    return (w / g) @ w.T


def assemble_A_l(z: complex, l: int, rule: QuadratureRule, ctx: SheetContext,
                 params: SpectralParams, n_cut: int | None = None,
                 tail_tol: float = 1e-12) -> DiscreteKernelOperator:
    """A_l(z) = sum_{n != l} Gamma_n(z)^(-1) <w_n, . > w_n, truncated rank sum."""
    if n_cut is None:
        n_cut = default_mode_cutoff(rule, ctx, tail_tol)
    modes = np.arange(1, n_cut + 1)
    return DiscreteKernelOperator(_rank_sum(z, rule, ctx, params, modes[modes != l]),
                                  rule.weights)


def assemble_alpha(z: complex, rule: QuadratureRule, ctx: SheetContext,
                   params: SpectralParams, n_cut: int | None = None,
                   tail_tol: float = 1e-12,
                   free: DiscreteKernelOperator | None = None) -> DiscreteKernelOperator:
    """Full wire-dressed operator R_alpha = R_SigmaSigma + sum_n Gamma_n^(-1) <w_n, .> w_n."""
    if n_cut is None:
        n_cut = default_mode_cutoff(rule, ctx, tail_tol)
    if free is None:
        free = assemble_free(z, rule, ctx)
    mat = free.matrix + _rank_sum(z, rule, ctx, params, np.arange(1, n_cut + 1))
    return DiscreteKernelOperator(mat, rule.weights)


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


def neumann_apply(op: DiscreteKernelOperator, beta: float, f: np.ndarray,
                  terms: int = 60) -> np.ndarray:
    """(I - beta K)^(-1) f via the Neumann series; cross-check for the solve."""
    acc = np.array(f, dtype=complex)
    cur = np.array(f, dtype=complex)
    for _ in range(terms):
        cur = beta * op.apply(cur)
        acc += cur
    return acc


@dataclass
class SystemState:
    """Everything needed to evaluate eta_l / the determinant at a point z.

    Caches the mode cutoff, the z-independent product-integration matrices
    and the pair layout; only the z-dependent kernel values are recomputed
    per z.  The matrices are ``singular_base`` scaled by ``delta``: those of
    the unscaled rule whose delta-image is ``rule`` (see SingularMatrices).
    By default they are built on ``rule`` itself, with delta = 1.
    """

    params: SpectralParams
    rule: QuadratureRule
    ctx: SheetContext
    tail_tol: float = 1e-12
    n_cut: int | None = None
    singular_base: SingularMatrices | None = field(default=None, repr=False)
    delta: float = 1.0
    _singular: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)
    _layout: PairLayout | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n_cut is None:
            self.n_cut = default_mode_cutoff(self.rule, self.ctx, self.tail_tol)
        if self.singular_base is None and self.rule.surface is not None:
            if self.delta != 1.0:
                raise ValueError("a scaled state needs the base matrices it scales")
            self.singular_base = SingularMatrices(self.rule)

    @property
    def singular(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached z-independent product-integration matrices (1/4 pi r and r)."""
        if self.singular_base is None:
            return None
        if self._singular is None:
            self._singular = self.singular_base.scaled(self.delta)
        return self._singular

    @property
    def layout(self) -> PairLayout:
        """Cached z-independent pair layout of the rule (see pair_layout)."""
        if self._layout is None:
            self._layout = pair_layout(self.rule)
        return self._layout

    def free_op(self, z: complex) -> DiscreteKernelOperator:
        return assemble_free(z, self.rule, self.ctx, self.singular, layout=self.layout)


def eta_l(z: complex, l: int, state: SystemState,
          diagnostics: dict | None = None) -> complex:
    """Resonance function eta_l(z, delta) = Gamma_l(z) - beta theta_l(z, delta).

    theta_l = <w_l, T_l w_l> with T_l = (I - beta G A_l)^(-1) G and
    G = (I - beta R_SigmaSigma)^(-1); both inverses are direct dense solves
    with condition-number guards.
    """
    params, rule, ctx = state.params, state.rule, state.ctx
    gl = gamma_n(z, l, ctx, params)
    if rule.n_nodes == 0:
        return gl
    beta = params.beta
    free = state.free_op(z)
    n = rule.n_nodes
    eye = np.eye(n, dtype=complex)
    lu_b = _guarded_lu(eye - beta * free.weighted, "I - beta R_SigmaSigma", diagnostics)
    a_l = assemble_A_l(z, l, rule, ctx, params, state.n_cut, state.tail_tol)
    g_a = lu_solve(lu_b, a_l.weighted)
    lu_m = _guarded_lu(eye - beta * g_a, "I - beta G A_l", diagnostics)
    w_l = mode_vector(z, l, rule, ctx)
    t_w = lu_solve(lu_m, lu_solve(lu_b, w_l))
    theta = complex(np.sum(rule.weights * w_l * t_w))
    return gl - beta * theta


def bs_determinant(z: complex, state: SystemState) -> complex:
    """det(I - beta R_alpha,SigmaSigma(z)) of the weighted Nystrom matrix.

    Has poles at the eigenvalues eps_n of every retained mode; root finders
    should work with Gamma_l(z) * det(...) to cancel the l-pole.
    """
    rule = state.rule
    if rule.n_nodes == 0:
        return 1.0 + 0.0j
    r_alpha = assemble_alpha(z, rule, state.ctx, state.params, state.n_cut,
                             state.tail_tol, free=state.free_op(z))
    eye = np.eye(rule.n_nodes, dtype=complex)
    return complex(np.linalg.det(eye - state.params.beta * r_alpha.weighted))
