"""Parametrized impurity surfaces, the delta-scaling family and quadrature.

Three analytic families are built in (planar rectangle patch, planar disk,
spherical cap); each is its map and a closed-form area Jacobian (rectangle
length1 length2, disk R^2 u, cap R^2 sin theta), and each refuses a size
(radius, length1, length2) that is not positive.  Every ``Surface`` takes
its tangents from its map by a complex step, and checks on a dense
parameter grid that it stays in the layer 0 <= x3 <= pi, touching a wall at
most on its rim, that its Jacobian equals |t1 x t2| of the map and is
nondegenerate, and searches its distance to the wire axis once (``r_min``,
which must exceed 1e-6); a disk or rectangle that the axis crosses is
refused in closed form first.  A delta-copy is no surface of its
own: the homothety keeps the layer, the walls and the Jacobian's sign, so
only its r_min is searched (:func:`scale_surface`, for every delta of a
sweep in one batch), and its rule is the surface's scaled
(:meth:`QuadratureRule.scaled`), which records its delta; a state
reaches that rule only through the copy's pair layout
(``bs_operator.PairLayout.scaled``).  Only
:func:`with_anchor` searches for x0 on the surface: the families put x0
there, and a delta-copy keeps it as its fixed point.  Every search is one
zoom grid on numpy alone over a batch of residuals (:func:`_search_min`);
a surface's r_min and :func:`with_anchor`'s distance are batches of one.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Surface",
    "QuadratureRule",
    "SurfaceValidationError",
    "rectangle_patch",
    "disk",
    "spherical_cap",
    "scale_surface",
    "build_quadrature",
    "r_min",
]

LAYER_HEIGHT = np.pi

#: grid of the layer, wall and Jacobian checks
_CHECK_GRID = 48

#: complex step of the tangents; a power of two, so q + ih and the division by h are exact
_STEP = 2.0**-100


class SurfaceValidationError(ValueError):
    """Surface is degenerate, leaves the layer or touches the wire axis."""


@dataclass(frozen=True)
class Surface:
    """Graph surface q in U -> x(q) in the layer: its map and its area Jacobian.

    ``param_map`` accepts real or complex array arguments (broadcasting over
    q1, q2) and returns stacked (..., 3) coordinates.  The tangents are its
    complex-step derivatives (:meth:`tangent1`), so it must be analytic and
    numpy must evaluate it at complex parameters (no ``np.hypot``, ``np.abs``,
    nor a cast of the parameters to float).
    ``jacobian`` returns the area element |t1 x t2| in closed form, of the
    broadcast shape of q1 and q2, since product integration evaluates it at
    every Duffy point; the check compares it with |t1 x t2| once, on its grid.
    ``domain`` is the parameter rectangle ((q1min, q1max), (q2min, q2max)).
    ``x0`` is the anchor of the delta-scaling and lies on the surface (checked
    by :func:`with_anchor`).  ``r_min`` is the distance to the wire axis.
    """

    name: str
    param_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], tuple[float, float]]
    x0: np.ndarray
    #: second parameter is periodic over its domain (disk/cap azimuth); the
    #: rule then puts trapezoid nodes on it, product integration recentres its
    #: window on each node with a trigonometric basis, and the one-node shift
    #: along it joins the reflections of q1 and q2 about their midpoints as a
    #: candidate node symmetry (bs_operator._node_group)
    periodic2: bool = False
    r_min: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        _validate_surface(self)

    def tangent1(self, q1, q2) -> np.ndarray:
        """dx/dq1 = Im x(q1 + ih, q2) / h: no difference is taken, so it is exact to rounding."""
        return self.param_map(q1 + 1j * _STEP, q2).imag / _STEP

    def tangent2(self, q1, q2) -> np.ndarray:
        """dx/dq2 = Im x(q1, q2 + ih) / h, as :meth:`tangent1`."""
        return self.param_map(q1, q2 + 1j * _STEP).imag / _STEP


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Nystrom rule on a surface; weights carry the area Jacobian.

    ``r_min`` is the distance of the rule's surface to the wire axis: the
    surface's own, or that of the delta-copy a :meth:`scaled` rule lies on.
    ``delta`` is the scaling parameter of that copy, 1 on the surface itself.
    """

    nodes: np.ndarray
    weights: np.ndarray
    param_nodes: np.ndarray
    surface: Surface
    order: int
    r_min: float
    delta: float

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def scaled(self, delta: float, r_min: float) -> "QuadratureRule":
        """The rule on the copy x -> delta x + (1 - delta) x0 of ``surface``, at distance ``r_min``.

        Same order and parameter nodes; the nodes are delta x + (1 - delta)
        x0, bitwise those of the rule built on the copy's parametrization,
        and the weights delta^2 w, since the copy's Jacobian is delta^2
        times the surface's.  ``surface`` stays the unscaled one, so its
        parameter domain holds, and the copy's ``delta`` is this rule's
        times ``delta``, so a copy of a copy is the copy of their product.
        delta = 1 gives the rule itself, and a delta so small that a weight
        underflows to 0 is refused.  ``r_min`` comes from
        :func:`scale_surface`.  A state takes a copy's rule only inside its
        pair layout, ``bs_operator.PairLayout.scaled``, which scales the
        singular corrections with it.
        """
        if delta == 1.0:
            return self
        weights = delta**2 * self.weights
        if not np.all(weights > 0.0):
            raise ValueError(f"delta = {delta} is too small: the copy's quadrature weights "
                             "delta^2 w underflow to 0")
        return replace(self, nodes=delta * self.nodes + (1.0 - delta) * self.surface.x0,
                       weights=weights, r_min=r_min, delta=self.delta * delta)


def _param_grid(surface: Surface, n: int):
    (a1, b1), (a2, b2) = surface.domain
    q1 = np.linspace(a1, b1, n)
    q2 = np.linspace(a2, b2, n)
    return np.meshgrid(q1, q2, indexing="ij")


def _validate_surface(surface: Surface) -> None:
    g1, g2 = _param_grid(surface, _CHECK_GRID)
    pts = surface.param_map(g1, g2)
    x3 = pts[..., 2]
    tol = 1e-12
    if np.any(x3 < -tol) or np.any(x3 > LAYER_HEIGHT + tol):
        raise SurfaceValidationError(f"surface {surface.name!r} leaves the layer 0 <= x3 <= pi")
    # interior points must be strictly inside; allow a measure-zero boundary touch
    interior = pts[1:-1, 1:-1, 2]
    if interior.size and (np.any(interior <= tol) or np.any(interior >= LAYER_HEIGHT - tol)):
        raise SurfaceValidationError(f"surface {surface.name!r} touches a wall in its interior")
    (rmin,) = _search_min(surface, lambda p, _: _axis_distance(p), np.empty((1, 0))).tolist()
    if not rmin > 1e-6:
        raise SurfaceValidationError(f"surface {surface.name!r} touches the wire axis")
    object.__setattr__(surface, "r_min", rmin)
    jac = surface.jacobian(g1, g2)
    with warnings.catch_warnings():
        # a map that casts its parameters to float drops the step with this warning
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            stepped = (surface.param_map(g1 + 1j * _STEP, g2),
                       surface.param_map(g1, g2 + 1j * _STEP))
            analytic = all(np.iscomplexobj(x) for x in stepped)
        except (TypeError, np.exceptions.ComplexWarning):
            analytic = False
    if not analytic:
        raise SurfaceValidationError(f"surface {surface.name!r}: its param_map must accept "
                                     "complex parameters (its tangents are complex steps)")
    t1, t2 = (x.imag / _STEP for x in stepped)  # tangent1, tangent2
    cross = np.linalg.norm(np.cross(t1, t2), axis=-1)
    if np.shape(jac) != cross.shape or not np.allclose(jac, cross, rtol=tol,
                                                       atol=tol * np.max(cross)):
        raise SurfaceValidationError(f"surface {surface.name!r}: its jacobian is not |t1 x t2|")
    if jac[1:-1, 1:-1].size and np.min(jac[1:-1, 1:-1]) <= 0.0:
        raise SurfaceValidationError(f"surface {surface.name!r} has a degenerate Jacobian")


def _search_min(surface: Surface, residual, params: np.ndarray) -> np.ndarray:
    """min of residual(x(q), c) over the domain for each row c of ``params``, by a zoom grid.

    One search on numpy alone for a batch of B residuals.  Row b starts at
    the argmin of residual(x, params[b]) over a 96 x 96 grid of the domain,
    with h one grid step: x is evaluated once and the residual one row at a
    time, so no (B, 96, 96) array is made.  Then every row evaluates a
    9 x 9 grid of +-h around its best point so far, clipped to the domain,
    in one param_map call of shape (B, 9, 9) with ``params`` reshaped to
    (B, 1, 1, ...), and h is divided by 4 until it falls below 1e-15 of the
    domain width.  Each row does the arithmetic of a search of its own: the
    same grids, residuals and first argmin.  No gradient is taken, so a
    minimum on the domain's edge or corner, on a periodic seam, or at a kink
    (|x - x0| = 0) is found like an interior one.  Returns the least value
    evaluated per row, so never more than the row's grid minimum.
    """
    n, m, size = 96, 9, len(params)
    g1, g2 = _param_grid(surface, n)
    pts = surface.param_map(g1, g2)
    best, q = np.empty(size), np.empty((size, 2))
    for b, c in enumerate(params):
        f = residual(pts, c)
        k = np.argmin(f)
        best[b], q[b] = f.flat[k], (g1.flat[k], g2.flat[k])
    lo, hi = np.array(surface.domain, dtype=float).T
    steps = np.outer(hi - lo, np.linspace(-1.0, 1.0, m))
    batch = np.reshape(params, (size, 1, 1) + np.shape(params)[1:])
    rows = np.arange(size)
    ratio = 1.0 / (n - 1)  # h / domain width
    while ratio >= 1e-15:
        axes = np.clip(q[:, :, None] + ratio * steps, lo[:, None], hi[:, None])
        z1 = np.repeat(axes[:, 0, :, None], m, axis=2)
        z2 = np.repeat(axes[:, 1, None, :], m, axis=1)
        f = residual(surface.param_map(z1, z2), batch).reshape(size, -1)
        k = f.argmin(axis=1)
        fk = f[rows, k]
        better = fk < best
        best = np.where(better, fk, best)
        q = np.where(better[:, None], np.stack([axes[rows, 0, k // m], axes[rows, 1, k % m]], 1), q)
        ratio /= 4.0
    return best


def _axis_distance(p: np.ndarray) -> np.ndarray:
    """Distance of the points p (..., 2 or 3) to the wire axis x1 = x2 = 0."""
    return np.hypot(p[..., 0], p[..., 1])


def _axis_distances(surface: Surface, deltas: Sequence[float]) -> list[float]:
    """r_min of the copy x -> delta x + (1 - delta) x0 of the surface, for each delta.

    One :func:`_search_min` over the batch; the copy's points are made from
    the surface's as the copy's parametrization delta x(q) + (1 - delta) x0
    makes them, so each value is the one the surface check of that copy
    alone finds.
    """
    x0 = surface.x0[:2]

    def residual(p, delta):
        return _axis_distance(delta * p[..., :2] + (1.0 - delta) * x0)

    return _search_min(surface, residual, np.reshape(deltas, (-1, 1))).tolist()


def _orthonormal_frame(normal: np.ndarray):
    n = np.asarray(normal, float)
    if not np.linalg.norm(n) > 0.0:
        raise SurfaceValidationError("normal has zero length")
    n = n / np.linalg.norm(n)
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2, n


def _centroid_x0(param_map, domain):
    (a1, b1), (a2, b2) = domain
    return np.asarray(param_map(np.array(0.5 * (a1 + b1)), np.array(0.5 * (a2 + b2))), float)


def _refuse_axis_crossing(name: str, center, e1, e2, inside) -> None:
    """Refuse a planar surface that the wire axis x1 = x2 = 0 crosses.

    The axis meets the plane through ``center`` spanned by the orthonormal
    e1, e2 at one point, unless it is parallel to the plane.  ``inside(s1,
    s2)`` says whether the point center + s1 e1 + s2 e2 lies in the surface.
    The grid search of r_min can miss such a crossing by a grid step, so it
    is found in closed form.
    """
    normal = np.cross(e1, e2)
    if normal[2] == 0.0:
        return
    offset = np.array([0.0, 0.0, (normal @ center) / normal[2]]) - center
    if inside(offset @ e1, offset @ e2):
        raise SurfaceValidationError(f"surface {name!r} touches the wire axis")


def _positive(value, key: str) -> float:
    value = float(value)
    if not value > 0.0:
        raise SurfaceValidationError(f"{key} must be positive, got {value!r}")
    return value


def rectangle_patch(center, direction1, direction2, length1: float, length2: float) -> Surface:
    """Planar rectangle patch spanned by two orthogonal in-plane directions, named "rectangle"."""
    length1, length2 = _positive(length1, "length1"), _positive(length2, "length2")
    c = np.asarray(center, float)
    u1 = np.asarray(direction1, float)
    u2 = np.asarray(direction2, float)
    if not np.linalg.norm(np.cross(u1, u2)) > 1e-12 * np.linalg.norm(u1) * np.linalg.norm(u2):
        raise SurfaceValidationError("direction1 and direction2 do not span a plane")
    u1 = u1 / np.linalg.norm(u1)
    u2 = u2 - u1 * (u1 @ u2)
    u2 /= np.linalg.norm(u2)
    _refuse_axis_crossing("rectangle", c, u1, u2,
                          lambda s1, s2: abs(s1) <= 0.5 * length1 and abs(s2) <= 0.5 * length2)

    def param_map(q1, q2):
        return c + np.multiply.outer(q1 * length1, u1) + np.multiply.outer(q2 * length2, u2)

    def jacobian(q1, q2):
        return np.full(np.broadcast_shapes(np.shape(q1), np.shape(q2)), length1 * length2)

    dom = ((-0.5, 0.5), (-0.5, 0.5))
    return Surface(name="rectangle", param_map=param_map, jacobian=jacobian, domain=dom,
                   x0=_centroid_x0(param_map, dom))


def disk(center, normal, radius: float) -> Surface:
    """Planar disk of given radius, named "disk"; parameters (u, theta) in [0,1] x [0,2pi]."""
    c = np.asarray(center, float)
    e1, e2, _ = _orthonormal_frame(normal)
    R = _positive(radius, "radius")
    _refuse_axis_crossing("disk", c, e1, e2, lambda s1, s2: np.hypot(s1, s2) <= R)

    def param_map(u, th):
        return (c
                + np.multiply.outer(R * u * np.cos(th), e1)
                + np.multiply.outer(R * u * np.sin(th), e2))

    def jacobian(u, th):
        return np.broadcast_to(R * R * u, np.broadcast_shapes(np.shape(u), np.shape(th)))

    dom = ((0.0, 1.0), (0.0, 2.0 * np.pi))
    return Surface(name="disk", param_map=param_map, jacobian=jacobian, domain=dom, x0=c,
                   periodic2=True)


def spherical_cap(sphere_center, radius: float, polar_angle: float) -> Surface:
    """Cap of a sphere, named "spherical_cap": polar angle in [0, polar_angle] from +x3."""
    c = np.asarray(sphere_center, float)
    e1, e2, a3 = _orthonormal_frame((0.0, 0.0, 1.0))
    R, th0 = _positive(radius, "radius"), float(polar_angle)
    if not 0.0 < th0 <= np.pi:
        raise SurfaceValidationError("polar_angle must be in (0, pi]")

    def param_map(th, ph):
        return (c
                + np.multiply.outer(R * np.sin(th) * np.cos(ph), e1)
                + np.multiply.outer(R * np.sin(th) * np.sin(ph), e2)
                + np.multiply.outer(R * np.cos(th), a3))

    def jacobian(th, ph):
        return np.broadcast_to(R * R * np.sin(th), np.broadcast_shapes(np.shape(th), np.shape(ph)))

    dom = ((0.0, th0), (0.0, 2.0 * np.pi))
    # centroid of the parameter rectangle sits at mid polar angle, phi = pi
    return Surface(name="spherical_cap", param_map=param_map, jacobian=jacobian, domain=dom,
                   x0=_centroid_x0(param_map, dom), periodic2=True)


def with_anchor(surface: Surface, x0) -> Surface:
    """The checked surface, r_min included, with another scaling anchor.

    x0 must be finite, and then only its distance to the surface is
    searched; it may be 1e-8 of the surface's extent on the check grid (the
    diagonal of its bounding box), or the rounding of its coordinates,
    64 eps max|x|, where that is larger.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise SurfaceValidationError(f"x0 = {x0} of surface {surface.name!r} is not finite")
    s = copy.copy(surface)
    object.__setattr__(s, "x0", x0)
    pts = s.param_map(*_param_grid(s, _CHECK_GRID)).reshape(-1, 3)
    extent = float(np.linalg.norm(np.ptp(pts, axis=0)))
    floor = 64.0 * np.finfo(float).eps * float(np.max(np.abs(pts)))
    (dist,) = _search_min(s, lambda p, a: np.linalg.norm(p - a, axis=-1), s.x0[None])
    if dist > max(1e-8 * extent, floor):
        raise SurfaceValidationError(f"x0 of surface {s.name!r} does not lie on the surface")
    return s


def scale_surface(surface: Surface, deltas: Sequence[float]) -> Iterator[float]:
    """r_min of the copies x_delta(q) = delta x(q) + (1-delta) x0 of the surface, in delta order.

    The homothety keeps all that the surface check tests but r_min: the
    layer is convex, so a copy stays in it; an interior point's x3 is
    delta times one strictly between the walls plus (1 - delta) times x0's
    in [0, pi], so it stays strictly between them; and the Jacobian is
    scaled by delta^2 > 0.  So a copy is not checked again, and no surface
    of it is made: its rule is the surface's rule scaled
    (:meth:`QuadratureRule.scaled`).  The r_min of every delta in (0, 1)
    is searched at the call, in one batched search
    (:func:`_axis_distances`); delta = 1 gives the surface's own.  The
    iterator refuses a delta outside (0, 1], or a copy whose r_min is not
    above 1e-6 (it touches the wire axis), only when it reaches it, so a
    caller that checks each copy before taking the next refuses in delta
    order.
    """
    deltas = list(deltas)
    inside = [d for d in deltas if 0.0 < d < 1.0]
    found = dict(zip(inside, _axis_distances(surface, inside))) if inside else {}
    found[1.0] = surface.r_min
    return (_copy_r_min(surface.name, d, found.get(d)) for d in deltas)


def _copy_r_min(name: str, delta: float, rmin: float | None) -> float:
    """The searched r_min of the copy at ``delta``, refused outside (0, 1] or on the axis."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must satisfy 0 < delta <= 1")
    if not rmin > 1e-6:
        raise SurfaceValidationError(f"surface '{name}@delta={delta:g}' touches the wire axis")
    return rmin


def build_quadrature(surface: Surface, order: int) -> QuadratureRule:
    """Tensor-product rule mapped through the parametrization.

    ``order`` is the point count per parameter direction (total order^2 nodes);
    weights include the surface Jacobian, so they sum to the area.  The rule
    is Gauss-Legendre in each direction, except that a periodic second
    parameter uses equispaced midpoints (the trapezoid rule, which is
    spectrally accurate for periodic integrands and supports trigonometric
    interpolation without a seam).
    """
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    (a1, b1), (a2, b2) = surface.domain
    x, w = leggauss(order)
    q1 = 0.5 * (b1 - a1) * x + 0.5 * (a1 + b1)
    w1 = 0.5 * (b1 - a1) * w
    if surface.periodic2:
        q2 = a2 + (b2 - a2) * (np.arange(order) + 0.5) / order
        w2 = np.full(order, (b2 - a2) / order)
    else:
        q2 = 0.5 * (b2 - a2) * x + 0.5 * (a2 + b2)
        w2 = 0.5 * (b2 - a2) * w
    g1, g2 = np.meshgrid(q1, q2, indexing="ij")
    pts = surface.param_map(g1, g2)
    jac = surface.jacobian(g1, g2)
    weights = np.multiply.outer(w1, w2) * jac
    return QuadratureRule(
        nodes=pts.reshape(-1, 3),
        weights=weights.reshape(-1),
        param_nodes=np.stack([g1.reshape(-1), g2.reshape(-1)], axis=1),
        surface=surface,
        order=order,
        r_min=surface.r_min,
        delta=1.0,
    )


def r_min(shape: Surface | QuadratureRule) -> float:
    """Minimum distance of a surface, or of a rule's surface, to the wire axis |x_perp| = 0.

    Searched once (``Surface.r_min``, by the zoom grid of ``_search_min``):
    when the surface is checked, or, for a delta-copy, in the one batched
    search of its :func:`scale_surface` call, which finds the value a search
    on the copy alone finds, and carried by its :meth:`QuadratureRule.scaled`
    rule.  Exact for the built-in analytic families at the 1e-9 level, and
    never above the minimum over the 96 x 96 start grid.
    """
    return shape.r_min
