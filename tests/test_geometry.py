import dataclasses
import math

import numpy as np
import pytest

from layres.geometry import (
    SurfaceValidationError,
    build_quadrature,
    disk,
    r_min,
    rectangle_patch,
    scale_surface,
    spherical_cap,
    with_anchor,
)


def make_disk(radius=0.5):
    return disk(center=(1.0, 0.0, 1.0), normal=(0.0, 0.0, 1.0), radius=radius)


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
        corner = s.points(0.5, 0.5)
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

    def test_anchor_on_rim_accepted(self):
        s = with_anchor(make_disk(), (1.5, 0.0, 1.0))
        assert np.allclose(s.x0, [1.5, 0.0, 1.0])


class TestAreas:
    def test_rectangle_area_exact(self):
        s = rectangle_patch(center=(1.0, 0.0, 1.0), direction1=(1, 0, 0),
                            direction2=(0, 1, 0), length1=0.4, length2=0.6)
        q = build_quadrature(s, 4)
        assert q.area == pytest.approx(0.24, abs=1e-15)

    @pytest.mark.parametrize("order", [8, 16])
    def test_disk_area(self, order):
        q = build_quadrature(make_disk(), order)
        assert q.area == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_cap_area(self):
        th0 = 0.8
        s = spherical_cap(sphere_center=(1.5, 0.0, 1.5), radius=0.4, polar_angle=th0)
        q = build_quadrature(s, 16)
        exact = 2.0 * math.pi * 0.4**2 * (1.0 - math.cos(th0))
        assert q.area == pytest.approx(exact, rel=1e-12)

    def test_weights_positive(self):
        q = build_quadrature(make_disk(), 12)
        assert np.all(q.weights > 0)
        assert q.n_nodes == 144


class TestScaling:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
    def test_area_scales_quadratically(self, delta):
        s = make_disk()
        a0 = build_quadrature(s, 16).area
        a = build_quadrature(scale_surface(s, delta), 16).area
        assert a == pytest.approx(delta**2 * a0, rel=1e-10)

    def test_anchor_is_fixed_point(self):
        s = with_anchor(make_disk(), (1.5, 0.0, 1.0))
        sd = scale_surface(s, 0.25)
        # the anchor stays put; every other point contracts toward it
        q = build_quadrature(s, 6)
        qd = build_quadrature(sd, 6)
        expected = 0.25 * q.nodes + 0.75 * np.array([1.5, 0.0, 1.0])
        assert np.allclose(qd.nodes, expected, atol=1e-14)
        d = np.linalg.norm(qd.nodes - np.array([1.5, 0.0, 1.0]), axis=1)
        assert np.all(d <= 0.25 * 1.0 + 1e-12)

    def test_delta_one_is_identity(self):
        s = make_disk()
        assert scale_surface(s, 1.0) is s

    def test_invalid_delta(self):
        s = make_disk()
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                scale_surface(s, bad)

    def test_scaling_cannot_escape_constraints(self):
        # anchor on the rim closest to the axis: shrinking keeps r_min positive
        s = with_anchor(make_disk(), (0.5, 0.0, 1.0))
        sd = scale_surface(s, 0.1)
        assert r_min(sd) > 0.0


class TestRMin:
    def test_disk_r_min(self):
        assert r_min(make_disk()) == pytest.approx(0.5, abs=1e-9)

    def test_scaled_disk_r_min(self):
        # center fixed, rim contracts: r_min = 1 - 0.5 delta
        sd = scale_surface(make_disk(), 0.2)
        assert r_min(sd) == pytest.approx(0.9, abs=1e-9)

    def test_offset_rectangle(self):
        s = rectangle_patch(center=(2.0, 0.0, 1.0), direction1=(0, 1, 0),
                            direction2=(0, 0, 1), length1=0.5, length2=0.5)
        # plane x = 2, y in [-0.25, 0.25]: closest point is y = 0
        assert r_min(s) == pytest.approx(2.0, abs=1e-9)


class TestTabulated:
    def test_nonpositive_weight_rejected(self):
        rule = build_quadrature(make_disk(), 4)
        with pytest.raises(ValueError, match="weights must be positive"):
            dataclasses.replace(rule, weights=-rule.weights)
