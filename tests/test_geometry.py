import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from layres import cli, geometry, resonance
from layres.geometry import (
    Surface,
    SurfaceValidationError,
    build_quadrature,
    disk,
    r_min,
    rectangle_patch,
    scale_surface,
    spherical_cap,
    with_anchor,
)
from layres.specfun import SpectralParams
from surface_copies import copy_surface


def make_disk(radius=0.5):
    return disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=radius)


def half_cylinder(radius=0.5):
    """x(q) = (R cos q2, R sin q2, q1) around the wire; x0 at q2 = 0."""
    def param_map(q1, q2):
        q1, q2 = np.broadcast_arrays(q1, q2)
        return np.stack([radius * np.cos(q2), radius * np.sin(q2), q1], axis=-1)

    def jacobian(q1, q2):
        return np.full(np.broadcast_shapes(np.shape(q1), np.shape(q2)), radius)

    return Surface(name="half-cylinder", param_map=param_map, jacobian=jacobian,
                   domain=((1.0, 2.0), (0.0, np.pi)), x0=(radius, 0.0, 1.5))


def square(fold=lambda q1: q1, lift=lambda q1, q2: 0.0 * q1 * q2):
    """x = c + L fold(q1) e1 + L q2 e2 + L lift(q1, q2) e3 on [-1/2, 1/2]^2, Jacobian L^2.

    The Jacobian is that of the flat square whatever ``fold`` and ``lift``
    make of the map.
    """
    c, (e1, e2, e3), length = np.array([1.0, 0.0, 1.0]), np.eye(3), 0.4

    def param_map(q1, q2):
        return (c + np.multiply.outer(fold(q1) * length, e1) + np.multiply.outer(q2 * length, e2)
                + np.multiply.outer(lift(q1, q2) * length, e3))

    def jacobian(q1, q2):
        return np.full(np.broadcast_shapes(np.shape(q1), np.shape(q2)), length**2)

    return Surface(name="square", param_map=param_map, jacobian=jacobian,
                   domain=((-0.5, 0.5), (-0.5, 0.5)), x0=c)


class TestFactories:
    def test_disk_points_in_plane(self):
        s = make_disk()
        q = build_quadrature(s, 8)
        assert np.allclose(q.nodes[:, 2], 1.0, atol=1e-14)
        d = np.linalg.norm(q.nodes - np.array([1.0, 0.0, 1.0]), axis=1)
        assert np.all(d <= 0.5 + 1e-12)

    def test_disk_tilted_normal(self):
        n = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        s = disk(center=(1.0, 0.0, 1.5), normal=n, radius=0.3)
        q = build_quadrature(s, 8)
        # all nodes lie in the plane through the center orthogonal to n
        assert np.allclose((q.nodes - np.array([1.0, 0.0, 1.5])) @ n, 0.0, atol=1e-13)

    def test_rectangle_corners(self):
        s = rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                            direction2=(0, 1, 0), length1=0.4, length2=0.6)
        corner = s.param_map(np.array(0.5), np.array(0.5))
        assert np.allclose(corner, [1.2, 0.3, 1.0])

    def test_spherical_cap_on_sphere(self):
        s = spherical_cap(sphere_center=(1.5, 0.0, 1.5), radius=0.4, polar_angle=0.8)
        q = build_quadrature(s, 10)
        r = np.linalg.norm(q.nodes - np.array([1.5, 0.0, 1.5]), axis=1)
        assert np.allclose(r, 0.4, atol=1e-13)

    def test_surface_outside_layer_rejected(self):
        with pytest.raises(SurfaceValidationError):
            disk(center=(1.0, 0.0, 3.5), normal=(1.0, 0.0, 0.0), radius=0.5)

    def test_surface_through_axis_rejected(self):
        with pytest.raises(SurfaceValidationError):
            disk(center=(0.1, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)

    def test_zero_normal_rejected(self):
        with pytest.raises(SurfaceValidationError, match="normal has zero length"):
            disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 0.0), radius=0.5)

    @pytest.mark.parametrize("direction1, direction2", [
        ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)), ((0.0, 1.0, 1.0), (0.0, -3.0, -3.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))],
        ids=["parallel", "antiparallel", "zero-direction1", "zero-direction2"])
    def test_directions_spanning_no_plane_rejected(self, direction1, direction2):
        with pytest.raises(SurfaceValidationError, match="do not span a plane"):
            rectangle_patch(center=(1.0, 0.0, 1.0), direction1=direction1,
                            direction2=direction2, length1=0.5, length2=0.5)

    def test_bad_anchor_rejected(self):
        s = make_disk()
        with pytest.raises(SurfaceValidationError):
            with_anchor(s, (2.5, 0.0, 1.0))

    @pytest.mark.parametrize("anchor", [(1.5 + 1e-7, 0.0, 1.0), (1.2, 0.1, 1.0 + 1e-7)],
                             ids=["beyond-rim", "above-plane"])
    def test_anchor_just_off_the_surface_rejected(self, anchor):
        with pytest.raises(SurfaceValidationError, match="does not lie on the surface"):
            with_anchor(make_disk(), anchor)

    @pytest.mark.parametrize("anchor", [(math.nan, 0.0, 1.0), (1.2, math.nan, 1.0),
                                        (1.2, 0.0, math.nan), (math.inf, 0.0, 1.0)],
                             ids=["nan-x1", "nan-x2", "nan-x3", "inf-x1"])
    def test_non_finite_anchor_rejected(self, anchor):
        # a NaN distance compared with the tolerance is False, so without this
        # check a NaN anchor passed and its delta-copies failed for another reason
        with pytest.raises(SurfaceValidationError,
                           match="^x0 = .* of surface 'disk' is not finite$"):
            with_anchor(make_disk(), anchor)

    def test_anchor_on_rim_accepted(self):
        s = with_anchor(make_disk(), (1.5, 0.0, 1.0))
        assert np.allclose(s.x0, [1.5, 0.0, 1.0])

    def test_anchor_off_a_tiny_disk_rejected(self):
        # 5e-9 off the plane is 5 radii: the tolerance follows the surface's
        # own extent
        tiny = make_disk(radius=1e-9)
        with pytest.raises(SurfaceValidationError, match="does not lie on the surface"):
            with_anchor(tiny, (1.0, 0.0, 1.0 + 5e-9))

    @pytest.mark.parametrize("center, normal, anchor", [
        ((1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
        ((1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0000000010000000, 0.0, 1.0)),
        ((3.0, 2.0, 0.7), (0.657, -0.568, 0.496), (2.9999999993459907, 1.9999999992435136, 0.7)),
    ], ids=["centre", "rim", "tilted-rim"])
    def test_anchor_on_a_tiny_disk_accepted(self, center, normal, anchor):
        # the tilted rim point, rounded from the exact one, is 2.2e-16 off the
        # nearest point the search finds: 8 times 1e-8 of the extent, inside
        # the rounding floor 64 eps max|x|
        tiny = disk(center=center, normal=normal, radius=1e-9)
        assert np.array_equal(with_anchor(tiny, anchor).x0, anchor)

    @pytest.mark.parametrize("make, key", [
        (lambda size: make_disk(radius=size), "radius"),
        (lambda size: spherical_cap(sphere_center=(1.5, 0.0, 1.5), radius=size,
                                    polar_angle=0.8), "radius"),
        (lambda size: rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                                      direction2=(0, 1, 0), length1=size, length2=0.5),
         "length1"),
        (lambda size: rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                                      direction2=(0, 1, 0), length1=0.5, length2=size),
         "length2"),
    ], ids=["disk", "cap", "rectangle-length1", "rectangle-length2"])
    @pytest.mark.parametrize("size", [0.0, -0.5])
    def test_nonpositive_size_rejected(self, make, key, size):
        with pytest.raises(SurfaceValidationError, match=f"{key} must be positive"):
            make(size)

    @pytest.mark.parametrize("surface, anchor", [
        (make_disk(), (0.0, 0.0)),
        (disk(center=(1.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=0.5), (0.0, 0.0)),
        (rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0, 1, 0), direction2=(0, 0, 1),
                         length1=0.6, length2=0.6), (0.0, 0.0)),
        (spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=0.6, polar_angle=0.9),
         (0.45, math.pi)),
    ], ids=["disk", "tilted-disk", "rectangle", "cap"])
    def test_family_anchor_on_surface(self, surface, anchor):
        # the families put x0 on the surface by construction; nothing else checks it
        assert np.array_equal(surface.x0, surface.param_map(*np.array(anchor)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: spherical_cap(sphere_center=(0.3, 0.0, 1.5), radius=0.6, polar_angle=2.0),
     SurfaceValidationError, "surface 'spherical_cap' touches the wire axis"),
    (lambda: rectangle_patch(center=(1, 0, 0), direction1=(1, 0, 0), direction2=(0, 1, 0),
                             length1=0.4, length2=0.4),
     SurfaceValidationError, "surface 'rectangle' touches a wall in its interior"),
    (lambda: spherical_cap(sphere_center=(1.2, 0.0, 1.5), radius=0.6, polar_angle=4.0),
     SurfaceValidationError, "polar_angle must be in (0, pi]"),
    (lambda: build_quadrature(make_disk(), 1), ValueError, "quadrature order must be >= 2"),
    # a bent map whose Jacobian is the flat one
    (lambda: square(lift=lambda q1, q2: 0.1 * q1 * q2),
     SurfaceValidationError, "surface 'square': its jacobian is not |t1 x t2|"),
    # np.abs is not analytic: its complex step gives t1 = 0
    (lambda: square(fold=np.abs),
     SurfaceValidationError, "surface 'square': its jacobian is not |t1 x t2|"),
    (lambda: square(lift=lambda q1, q2: 0.1 * np.hypot(q1, q2)), SurfaceValidationError,
     "surface 'square': its param_map must accept complex parameters "
     "(its tangents are complex steps)"),
    # the cast drops the step with a ComplexWarning, and t1 = 0
    (lambda: square(fold=lambda q1: np.asarray(q1, dtype=float)), SurfaceValidationError,
     "surface 'square': its param_map must accept complex parameters "
     "(its tangents are complex steps)"),
    # no warning, but the step comes back real
    (lambda: square(fold=np.real, lift=lambda q1, q2: 0.0), SurfaceValidationError,
     "surface 'square': its param_map must accept complex parameters "
     "(its tangents are complex steps)"),
], ids=["cap-across-the-axis", "rectangle-on-the-wall", "polar-angle-above-pi", "order-one",
        "bent-map-flat-jacobian", "abs-map", "hypot-map", "float-cast-map", "real-part-map"])
def test_refusal(build, error, message, recwarn):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
    assert not [w.message for w in recwarn]


class TestJacobians:
    @pytest.mark.parametrize("surface", [
        make_disk(),
        disk(center=(1.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=0.5),
        rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0, 1, 0), direction2=(0, 0, 1),
                        length1=0.6, length2=0.6),
        rectangle_patch(center=(1.0, 0.0, 1.2), direction1=(1, 0, 1), direction2=(0, 1, 1),
                        length1=0.6, length2=0.4),
        spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=0.6, polar_angle=0.9),
        spherical_cap(sphere_center=(1.5, 0.0, 1.5), radius=0.4, polar_angle=math.pi),
        half_cylinder(),
        copy_surface(make_disk(), 0.08),
        copy_surface(half_cylinder(), 0.3),
    ], ids=["disk", "tilted-disk", "rectangle", "slanted-rectangle", "cap", "whole-sphere",
            "half-cylinder", "disk-copy", "half-cylinder-copy"])
    def test_closed_form_is_the_tangent_cross_product(self, surface):
        # on a grid unlike the surface check's, edges included
        (a1, b1), (a2, b2) = surface.domain
        g1, g2 = np.meshgrid(np.linspace(a1, b1, 37), np.linspace(a2, b2, 53), indexing="ij")
        jac = surface.jacobian(g1, g2)
        cross = np.cross(surface.tangent1(g1, g2), surface.tangent2(g1, g2))
        assert jac.shape == g1.shape
        assert np.allclose(jac, np.linalg.norm(cross, axis=-1), rtol=1e-13, atol=0.0)

    def test_wrong_closed_form_refused(self):
        # R u is the disk's Jacobian divided by R; the check names the surface
        radius = 0.5
        with pytest.raises(SurfaceValidationError, match="surface 'disk': its jacobian is not"):
            dataclasses.replace(make_disk(radius),
                                jacobian=lambda u, th: radius * u * np.ones_like(th))


def disk_tangents(normal, radius):
    """The closed-form tangents ``disk`` carried before they came from its map."""
    e1, e2, _ = geometry._orthonormal_frame(normal)

    def tangent1(u, th):
        return np.multiply.outer(radius * np.cos(th) * np.ones_like(u), e1) + \
            np.multiply.outer(radius * np.sin(th) * np.ones_like(u), e2)

    def tangent2(u, th):
        return np.multiply.outer(-radius * u * np.sin(th), e1) + \
            np.multiply.outer(radius * u * np.cos(th), e2)

    return tangent1, tangent2


def rectangle_tangents(direction1, direction2, length1, length2):
    """The closed-form tangents ``rectangle_patch`` carried before they came from its map."""
    u1 = np.asarray(direction1, float) / np.linalg.norm(direction1)
    u2 = np.asarray(direction2, float) - u1 * (u1 @ np.asarray(direction2, float))
    u2 /= np.linalg.norm(u2)

    def tangent1(q1, q2):
        return np.broadcast_to(length1 * u1, np.broadcast_shapes(np.shape(q1), np.shape(q2)) + (3,))

    def tangent2(q1, q2):
        return np.broadcast_to(length2 * u2, np.broadcast_shapes(np.shape(q1), np.shape(q2)) + (3,))

    return tangent1, tangent2


def cap_tangents(radius):
    """The closed-form tangents ``spherical_cap`` carried before they came from its map."""
    e1, e2, a3 = geometry._orthonormal_frame((0.0, 0.0, 1.0))

    def tangent1(th, ph):
        return (np.multiply.outer(radius * np.cos(th) * np.cos(ph), e1)
                + np.multiply.outer(radius * np.cos(th) * np.sin(ph), e2)
                + np.multiply.outer(-radius * np.sin(th), a3))

    def tangent2(th, ph):
        return (np.multiply.outer(-radius * np.sin(th) * np.sin(ph), e1)
                + np.multiply.outer(radius * np.sin(th) * np.cos(ph), e2))

    return tangent1, tangent2


@pytest.mark.parametrize("surface, closed_forms", [
    (disk(center=(1.0, 0.0, 1.0), normal=(1.0, 0.0, 1.0), radius=0.5),
     disk_tangents((1.0, 0.0, 1.0), 0.5)),
    (rectangle_patch(center=(1.0, 0.0, 1.2), direction1=(1, 0, 1), direction2=(0, 1, 1),
                     length1=0.6, length2=0.4),
     rectangle_tangents((1, 0, 1), (0, 1, 1), 0.6, 0.4)),
    (spherical_cap(sphere_center=(1.2, 0.0, 1.5), radius=0.6, polar_angle=2.3),
     cap_tangents(0.6)),
], ids=["tilted-disk", "slanted-rectangle", "wide-cap"])
def test_complex_step_tangents_are_the_closed_forms(surface, closed_forms):
    # bitwise equal with this numpy; 2 ulp of the tangent's length allow
    # another libm's complex sin and cos
    (a1, b1), (a2, b2) = surface.domain
    rng = np.random.default_rng(7)
    q1, q2 = rng.uniform(a1, b1, 2000), rng.uniform(a2, b2, 2000)
    for got, closed_form in zip((surface.tangent1(q1, q2), surface.tangent2(q1, q2)),
                                closed_forms):
        want = closed_form(q1, q2)
        ulp = np.spacing(np.linalg.norm(want, axis=-1))[:, None]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2.0 * ulp)


class TestAreas:
    def test_rectangle_area_exact(self):
        s = rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                            direction2=(0, 1, 0), length1=0.4, length2=0.6)
        q = build_quadrature(s, 4)
        assert q.weights.sum() == pytest.approx(0.24, abs=1e-15)

    @pytest.mark.parametrize("order", [8, 16])
    def test_disk_area(self, order):
        q = build_quadrature(make_disk(), order)
        assert q.weights.sum() == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_cap_area(self):
        th0 = 0.8
        s = spherical_cap(sphere_center=(1.5, 0.0, 1.5), radius=0.4, polar_angle=th0)
        q = build_quadrature(s, 16)
        exact = 2.0 * math.pi * 0.4**2 * (1.0 - math.cos(th0))
        assert q.weights.sum() == pytest.approx(exact, rel=1e-12)

    def test_weights_positive(self):
        q = build_quadrature(make_disk(), 12)
        assert np.all(q.weights > 0)
        assert q.n_nodes == 144


class TestScaling:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
    def test_area_scales_quadratically(self, delta):
        s = make_disk()
        a0 = build_quadrature(s, 16).weights.sum()
        a = build_quadrature(copy_surface(s, delta), 16).weights.sum()
        assert a == pytest.approx(delta**2 * a0, rel=1e-10)

    @pytest.mark.parametrize("surface", [make_disk(), with_anchor(make_disk(), (1.5, 0.0, 1.0)),
                                         rectangle_patch(center=(0.1, 0.0, 1.0),
                                                         direction1=(0, 1, 0),
                                                         direction2=(0, 0, 1),
                                                         length1=0.6, length2=0.6)],
                             ids=["disk", "anchored-disk", "rectangle"])
    def test_scaled_rule_is_the_copy_rule(self, surface):
        # the rule built on the copy's own parametrization has bitwise the
        # scaled nodes, and weights within rounding of delta^2 w: its
        # Jacobian is |delta t1 x delta t2|
        rule = build_quadrature(surface, 12)
        for delta, found in zip(DEFAULT_DELTAS, scale_surface(surface, DEFAULT_DELTAS)):
            scaled = rule.scaled(delta, found)
            direct = build_quadrature(copy_surface(surface, delta), 12)
            assert np.array_equal(scaled.nodes, direct.nodes)
            assert np.array_equal(scaled.param_nodes, direct.param_nodes)
            assert np.max(np.abs(scaled.weights / direct.weights - 1.0)) <= 1e-15
            assert scaled.r_min == found == direct.r_min
            assert (scaled.order, scaled.surface) == (12, surface)

    def test_anchor_is_fixed_point(self):
        s = with_anchor(make_disk(), (1.5, 0.0, 1.0))
        # the anchor stays put; every other point contracts toward it
        q = build_quadrature(s, 6)
        qd = q.scaled(0.25, next(scale_surface(s, [0.25])))
        expected = 0.25 * q.nodes + 0.75 * np.array([1.5, 0.0, 1.0])
        assert np.allclose(qd.nodes, expected, atol=1e-14)
        d = np.linalg.norm(qd.nodes - np.array([1.5, 0.0, 1.0]), axis=1)
        assert np.all(d <= 0.25 * 1.0 + 1e-12)

    def test_delta_one_is_identity(self):
        s = make_disk()
        assert next(scale_surface(s, [1.0])) == s.r_min
        rule = build_quadrature(s, 4)
        assert rule.scaled(1.0, s.r_min) is rule

    def test_invalid_delta(self):
        s = make_disk()
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                next(scale_surface(s, [bad]))

    @pytest.mark.parametrize("delta", [1e-300, 5e-324])
    def test_underflowing_weights_refused_by_name(self, delta):
        rule = build_quadrature(make_disk(), 4)
        with pytest.raises(ValueError, match=rf"^delta = {delta} is too small: the copy's "
                                             r"quadrature weights delta\^2 w underflow to 0$"):
            rule.scaled(delta, 1.0)

    def test_copy_reaching_the_axis_refused(self):
        # a non-convex base: shrinking toward x0 pulls the far side onto the
        # wire, at distance R |2 delta - 1|
        s = half_cylinder()
        assert r_min(s) == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(SurfaceValidationError, match="touches the wire axis"):
            next(scale_surface(s, [0.5]))
        assert next(scale_surface(s, [0.9])) == pytest.approx(0.4, abs=1e-9)
        assert next(scale_surface(s, [0.3])) == pytest.approx(0.2, abs=1e-9)

    def test_scaling_cannot_escape_constraints(self):
        # anchor on the rim closest to the axis: shrinking keeps r_min positive
        s = with_anchor(make_disk(), (0.5, 0.0, 1.0))
        assert next(scale_surface(s, [0.1])) > 0.0


class TestRMin:
    def test_disk_r_min(self):
        assert r_min(make_disk()) == pytest.approx(0.5, abs=1e-9)

    def test_scaled_disk_r_min(self):
        # center fixed, rim contracts: r_min = 1 - 0.5 delta
        assert next(scale_surface(make_disk(), [0.2])) == pytest.approx(0.9, abs=1e-9)

    def test_offset_rectangle(self):
        s = rectangle_patch(center=(2.0, 0.0, 1.0), direction1=(0, 1, 0),
                            direction2=(0, 0, 1), length1=0.5, length2=0.5)
        # plane x = 2, y in [-0.25, 0.25]: closest point is y = 0
        assert r_min(s) == pytest.approx(2.0, abs=1e-9)

    def test_minimum_on_the_periodic_seam(self):
        # the rim point closest to the axis, (0, -0.5, 1), is theta = 0 = 2 pi
        s = disk(center=(0.0, -1.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
        assert abs(r_min(s) - 0.5) < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: disk(center=(-0.001, -0.014, 0.97), normal=(-0.94, 0.336, 0.582),
                     radius=0.561),
        lambda: rectangle_patch(center=(0.05, -0.03, 1.2), direction1=(1.0, 0.0, 0.4),
                                direction2=(0.2, 1.0, -0.7), length1=0.3, length2=0.2)],
        ids=["tilted-disk", "tilted-rectangle"])
    def test_pierced_surface_refused(self, make):
        # the axis crosses the surface's plane inside it, so r_min is 0; on the
        # disk the grid search alone found 2.0e-4
        with pytest.raises(SurfaceValidationError, match="touches the wire axis"):
            make()

    def test_crossing_outside_the_surface_accepted(self):
        # the axis meets the plane 0.05 beyond the rim of a horizontal disk
        # and of a tilted one; both keep the searched r_min
        flat = disk(center=(0.55, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=0.5)
        assert r_min(flat) == pytest.approx(0.05, abs=1e-9)
        tilted = disk(center=(0.5, 0.0, 1.0), normal=(1.0, 0.0, 1.0),
                      radius=0.5 * math.sqrt(2.0) - 0.05)
        assert 0.0 < r_min(tilted) < 0.05

    def test_minimum_at_a_corner(self):
        # both parameter bounds active: the corner (0.75, 0.75)
        s = rectangle_patch(center=(1.0, 1.0, 1.0), direction1=(1, 0, 0),
                            direction2=(0, 1, 0), length1=0.5, length2=0.5)
        assert abs(r_min(s) - 0.75 * math.sqrt(2.0)) < 1e-12


class TestChecksRunOnce:
    def test_bounded_searches(self, monkeypatch):
        calls = []
        search = geometry._search_min

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(geometry, "_search_min", counted)

        def searches(make):
            calls.clear()
            out = make()
            return out, len(calls)

        base, n = searches(make_disk)
        assert n == 1  # r_min; the anchor is the center by construction
        found, n = searches(lambda: list(scale_surface(base, DEFAULT_DELTAS)))
        assert n == 1  # one batched r_min search for all 8 copies
        rule = build_quadrature(base, 4)
        _, n = searches(lambda: [r_min(rule.scaled(d, f)) for d, f in zip(DEFAULT_DELTAS, found)])
        assert n == 0  # a scaled rule carries its r_min
        anchored, n = searches(lambda: with_anchor(base, (1.5, 0.0, 1.0)))
        assert n == 1  # only the outside anchor; r_min is carried over
        assert r_min(anchored) == r_min(base)
        _, n = searches(lambda: resonance.sweep_delta(2, DEFAULT_DELTAS, base,
                                                      SpectralParams(0.0, 0.4), order=4))
        assert n == 1  # a sweep of 8 deltas searches its copies once


#: the CLI's default sweep, the 8 deltas of the acceptance and benchmark sweeps
DEFAULT_DELTAS = cli._KEYS["surface", "deltas"][1]
SWEEP_RECT = rectangle_patch(center=(0.1, 0.0, 1.0), direction1=(0, 1, 0),
                             direction2=(0, 0, 1), length1=0.6, length2=0.6)


class TestDeltaCopies:
    """The copies of one ``scale_surface`` call: one batched r_min search, no other check.

    No copy is a surface in the program; the full check of one is run here on
    the copy built by the test (``surface_copies.copy_surface``).
    """

    @pytest.mark.parametrize("surface", [make_disk(), SWEEP_RECT], ids=["disk", "rectangle"])
    @pytest.mark.parametrize("deltas", [DEFAULT_DELTAS, (0.05, 0.1, 0.2, 0.4)],
                             ids=["default", "rect-sweep"])
    def test_batch_equals_one_delta_at_a_time(self, surface, deltas):
        batch = list(scale_surface(surface, deltas))
        assert batch == [next(scale_surface(surface, [d])) for d in deltas]

    @pytest.mark.parametrize("surface, deltas", [
        (make_disk(), DEFAULT_DELTAS),
        (disk(center=(1.0, 0.0, math.pi / 2), normal=(0.0, 0.0, 1.0), radius=0.5),
         DEFAULT_DELTAS),
        (SWEEP_RECT, DEFAULT_DELTAS + (0.05, 0.1, 0.2, 0.4)),
        (spherical_cap(sphere_center=(1.2, 0.0, 0.6), radius=0.6, polar_angle=0.9),
         DEFAULT_DELTAS + (0.5, 0.9)),
        (spherical_cap(sphere_center=(1.0, 0.0, 1.0), radius=0.5, polar_angle=math.pi),
         DEFAULT_DELTAS),
        (with_anchor(make_disk(), (1.5, 0.0, 1.0)), DEFAULT_DELTAS + (0.25, 0.9)),
        (with_anchor(make_disk(), (0.5, 0.0, 1.0)), DEFAULT_DELTAS + (0.1, 0.9)),
        (half_cylinder(), (0.3, 0.9)),
    ], ids=["disk", "midplane-disk", "rectangle", "cap", "sphere", "anchored-far-rim",
            "anchored-near-rim", "half-cylinder"])
    def test_full_check_passes_on_every_copy(self, surface, deltas):
        # the homothety keeps the layer, the walls and the Jacobian's sign, so a
        # copy is not checked again; the full check of the copy surface,
        # which its constructor runs, agrees and finds the same r_min
        for delta, found in zip(deltas, scale_surface(surface, deltas)):
            assert copy_surface(surface, delta).r_min == found

    def test_batch_memory_is_one_start_grid(self):
        def peak(deltas):
            tracemalloc.start()
            try:
                list(scale_surface(make_disk(), deltas))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(DEFAULT_DELTAS) <= peak(DEFAULT_DELTAS[:1]) + 2**19

    @pytest.mark.parametrize("deltas, message", [
        ([0.3, 0.4, 0.4995, 0.5], "n_cut = 27631 modes on 256 nodes \\(r_min = 0.0005\\) need "
                                  "a mode table of 7073536 entries; the limit is 5000000"),
        ([0.3, 0.4, 0.5, 0.6], "surface 'half-cylinder@delta=0.5' touches the wire axis"),
    ], ids=["mode-table-first", "axis"])
    def test_sweep_refuses_the_first_faulty_delta(self, deltas, message):
        # delta = 0.4995 comes within 5e-4 of the wire and delta = 0.5 reaches it;
        # the copies are refused one by one, so the first fault is named
        with pytest.raises(ValueError, match=f"^{message}$"):
            resonance.sweep_delta(2, deltas, half_cylinder(), SpectralParams(0.0, 0.4),
                                  order=16)

    def test_refusal_waits_for_its_copy(self):
        copies = scale_surface(half_cylinder(), [0.3, 0.5, 1.5])
        assert next(copies) == pytest.approx(0.2, abs=1e-9)
        with pytest.raises(SurfaceValidationError, match="touches the wire axis"):
            next(copies)
        copies = scale_surface(half_cylinder(), [0.9, 1.5, 0.5])
        next(copies)
        with pytest.raises(ValueError, match="delta must satisfy"):
            next(copies)


class TestTabulated:
    def test_nonpositive_weight_rejected(self):
        rule = build_quadrature(make_disk(), 4)
        with pytest.raises(ValueError, match="weights must be positive"):
            dataclasses.replace(rule, weights=-rule.weights)
