"""Parametrized impurity surfaces, the delta-scaling family and quadrature.

Three analytic families are built in (planar rectangle patch, planar disk,
spherical cap); each carries closed-form tangents so Jacobians are exact.
Surfaces must stay strictly inside the layer 0 < x3 < pi and away from the
wire axis (r_min > 0); both are enforced at construction time on a dense
parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize

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

#: grid used for invariant checks and as the r_min search seed
_CHECK_GRID = 48


class SurfaceValidationError(ValueError):
    """Surface is degenerate, leaves the layer or touches the wire axis."""


@dataclass(frozen=True)
class Surface:
    """Graph surface q in U -> x(q) in the layer, with analytic tangents.

    ``param_map``, ``tangent1`` and ``tangent2`` accept array arguments
    (broadcasting over q1, q2) and return stacked (..., 3) coordinates.
    ``domain`` is the parameter rectangle ((q1min, q1max), (q2min, q2max)).
    ``x0`` is the anchor of the delta-scaling and must lie on the surface.
    """

    name: str
    param_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tangent2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], tuple[float, float]]
    x0: np.ndarray
    #: second parameter is periodic over its domain (disk/cap azimuth); the
    #: rule then puts trapezoid nodes on it, product integration recentres its
    #: window on each node with a trigonometric basis, and the one-node shift
    #: along it joins the reflections of q1 and q2 about their midpoints as a
    #: candidate node symmetry (bs_operator._node_group)
    periodic2: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        _validate_surface(self)

    def points(self, q1, q2) -> np.ndarray:
        return self.param_map(np.asarray(q1, float), np.asarray(q2, float))

    def jacobian(self, q1, q2) -> np.ndarray:
        t1 = self.tangent1(np.asarray(q1, float), np.asarray(q2, float))
        t2 = self.tangent2(np.asarray(q1, float), np.asarray(q2, float))
        return np.linalg.norm(np.cross(t1, t2), axis=-1)


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Nystrom rule on a surface; weights carry the area Jacobian."""

    nodes: np.ndarray
    weights: np.ndarray
    param_nodes: np.ndarray
    surface: Surface
    order: int

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))


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
    if _axial_min(surface, pts, g1, g2) <= 1e-6:
        raise SurfaceValidationError(f"surface {surface.name!r} touches the wire axis")
    jac = surface.jacobian(g1[1:-1, 1:-1], g2[1:-1, 1:-1])
    if jac.size and np.min(jac) <= 0.0:
        raise SurfaceValidationError(f"surface {surface.name!r} has a degenerate Jacobian")
    d0 = _distance_to_surface(surface, surface.x0, pts, g1, g2)
    if d0 > 1e-8 * max(1.0, float(np.max(np.abs(pts)))):
        raise SurfaceValidationError(f"x0 of surface {surface.name!r} does not lie on the surface")


def _axial_min(surface: Surface, pts, g1, g2) -> float:
    axial = np.hypot(pts[..., 0], pts[..., 1])
    i, j = np.unravel_index(np.argmin(axial), axial.shape)
    (a1, b1), (a2, b2) = surface.domain

    def objective(q):
        p = surface.param_map(np.array(q[0]), np.array(q[1]))
        return float(np.hypot(p[..., 0], p[..., 1]))

    res = minimize(objective, x0=[g1[i, j], g2[i, j]], bounds=[(a1, b1), (a2, b2)],
                   method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-12})
    return min(float(axial[i, j]), float(res.fun))


def _distance_to_surface(surface: Surface, x, pts, g1, g2) -> float:
    d = np.linalg.norm(pts - np.asarray(x, float), axis=-1)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    (a1, b1), (a2, b2) = surface.domain

    def objective(q):
        p = surface.param_map(np.array(q[0]), np.array(q[1]))
        return float(np.linalg.norm(np.asarray(p, float) - x))

    res = minimize(objective, x0=[g1[i, j], g2[i, j]], bounds=[(a1, b1), (a2, b2)],
                   method="L-BFGS-B", options={"ftol": 1e-16, "gtol": 1e-14})
    return min(float(d[i, j]), float(res.fun))


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


def rectangle_patch(center, direction1, direction2, length1: float, length2: float,
                    name: str = "rectangle") -> Surface:
    """Planar rectangle patch spanned by two orthogonal in-plane directions."""
    c = np.asarray(center, float)
    u1 = np.asarray(direction1, float)
    u2 = np.asarray(direction2, float)
    if not np.linalg.norm(np.cross(u1, u2)) > 1e-12 * np.linalg.norm(u1) * np.linalg.norm(u2):
        raise SurfaceValidationError("direction1 and direction2 do not span a plane")
    u1 = u1 / np.linalg.norm(u1)
    u2 = u2 - u1 * (u1 @ u2)
    u2 /= np.linalg.norm(u2)

    def param_map(q1, q2):
        return c + np.multiply.outer(q1 * length1, u1) + np.multiply.outer(q2 * length2, u2)

    def tangent1(q1, q2):
        return np.broadcast_to(length1 * u1, np.broadcast_shapes(np.shape(q1), np.shape(q2)) + (3,))

    def tangent2(q1, q2):
        return np.broadcast_to(length2 * u2, np.broadcast_shapes(np.shape(q1), np.shape(q2)) + (3,))

    dom = ((-0.5, 0.5), (-0.5, 0.5))
    return Surface(name=name, param_map=param_map, tangent1=tangent1, tangent2=tangent2,
                   domain=dom, x0=_centroid_x0(param_map, dom))


def disk(center, normal, radius: float, name: str = "disk") -> Surface:
    """Planar disk of given radius; parameters (u, theta) in [0,1] x [0,2pi]."""
    c = np.asarray(center, float)
    e1, e2, _ = _orthonormal_frame(normal)
    R = float(radius)

    def param_map(u, th):
        return (c
                + np.multiply.outer(R * u * np.cos(th), e1)
                + np.multiply.outer(R * u * np.sin(th), e2))

    def tangent1(u, th):
        return np.multiply.outer(R * np.cos(th) * np.ones_like(u), e1) + \
            np.multiply.outer(R * np.sin(th) * np.ones_like(u), e2)

    def tangent2(u, th):
        return np.multiply.outer(-R * u * np.sin(th), e1) + np.multiply.outer(R * u * np.cos(th), e2)

    dom = ((0.0, 1.0), (0.0, 2.0 * np.pi))
    return Surface(name=name, param_map=param_map, tangent1=tangent1, tangent2=tangent2,
                   domain=dom, x0=c, periodic2=True)


def spherical_cap(sphere_center, radius: float, polar_angle: float, axis=(0.0, 0.0, 1.0),
                  name: str = "spherical_cap") -> Surface:
    """Cap of a sphere: polar angle in [0, polar_angle] around ``axis``."""
    c = np.asarray(sphere_center, float)
    e1, e2, a3 = _orthonormal_frame(axis)
    R, th0 = float(radius), float(polar_angle)
    if not 0.0 < th0 <= np.pi:
        raise ValueError("polar_angle must be in (0, pi]")

    def param_map(th, ph):
        return (c
                + np.multiply.outer(R * np.sin(th) * np.cos(ph), e1)
                + np.multiply.outer(R * np.sin(th) * np.sin(ph), e2)
                + np.multiply.outer(R * np.cos(th), a3))

    def tangent1(th, ph):
        return (np.multiply.outer(R * np.cos(th) * np.cos(ph), e1)
                + np.multiply.outer(R * np.cos(th) * np.sin(ph), e2)
                + np.multiply.outer(-R * np.sin(th), a3))

    def tangent2(th, ph):
        return (np.multiply.outer(-R * np.sin(th) * np.sin(ph), e1)
                + np.multiply.outer(R * np.sin(th) * np.cos(ph), e2))

    dom = ((0.0, th0), (0.0, 2.0 * np.pi))
    # centroid of the parameter rectangle sits at mid polar angle, phi = pi
    return Surface(name=name, param_map=param_map, tangent1=tangent1, tangent2=tangent2,
                   domain=dom, x0=_centroid_x0(param_map, dom), periodic2=True)


def with_anchor(surface: Surface, x0) -> Surface:
    """Same surface with a different scaling anchor (must lie on the surface)."""
    return Surface(name=surface.name, param_map=surface.param_map, tangent1=surface.tangent1,
                   tangent2=surface.tangent2, domain=surface.domain, x0=np.asarray(x0, float),
                   periodic2=surface.periodic2)


def scale_surface(surface: Surface, delta: float) -> Surface:
    """Shrink the surface toward its anchor: x_delta(q) = delta x(q) + (1-delta) x0.

    Areas scale by delta^2; the scaled surface is re-validated against the
    layer and wire constraints.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must satisfy 0 < delta <= 1")
    if delta == 1.0:
        return surface
    x0 = surface.x0.copy()
    base_map, base_t1, base_t2 = surface.param_map, surface.tangent1, surface.tangent2

    def param_map(q1, q2):
        return delta * base_map(q1, q2) + (1.0 - delta) * x0

    def tangent1(q1, q2):
        return delta * base_t1(q1, q2)

    def tangent2(q1, q2):
        return delta * base_t2(q1, q2)

    return Surface(name=f"{surface.name}@delta={delta:g}", param_map=param_map,
                   tangent1=tangent1, tangent2=tangent2, domain=surface.domain, x0=x0,
                   periodic2=surface.periodic2)


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
    )


def r_min(surface: Surface) -> float:
    """Minimum distance of the surface to the wire axis |x_perp| = 0.

    Dense-grid scan refined by bounded local descent; exact for the built-in
    analytic families at the 1e-9 level.
    """
    g1, g2 = _param_grid(surface, 96)
    pts = surface.param_map(g1, g2)
    return _axial_min(surface, pts, g1, g2)
