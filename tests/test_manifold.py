import math

import numpy as np
import pytest

from grassopt import manifold, numerics
from grassopt.errors import DimensionError, PreconditionError
from grassopt.manifold import GrassmannPoint, TangentVector


def _point(values):
    return GrassmannPoint(np.asarray(values, dtype=float))


def _random_tangent(y, rng, norm=None):
    h = manifold.project_tangent(y, rng.standard_normal(y.dim))
    if norm is not None:
        h = TangentVector(h.v * (norm / h.norm()), y)
    return h


def test_point_requires_unit_norm():
    with pytest.raises(PreconditionError):
        GrassmannPoint(np.array([1.0, 1.0]))


def test_point_requires_dimension_two():
    with pytest.raises(DimensionError):
        GrassmannPoint(np.array([1.0]))


def test_tangent_vector_rejects_non_tangent():
    y = _point([1.0, 0.0])
    with pytest.raises(PreconditionError, match="not tangent"):
        TangentVector(np.array([0.5, 0.5]), y)


def test_project_parallel_gradient_vanishes():
    y = _point([1.0, 0.0])
    h = manifold.project_tangent(y, np.array([5.0, 0.0]))
    assert np.array_equal(h.v, [0.0, 0.0])


def test_project_coordinate_aligned():
    y = _point([1.0, 0.0])
    h = manifold.project_tangent(y, np.array([3.7, -2.5]))
    assert h.v == pytest.approx([0.0, -2.5], abs=1e-15)


def test_project_reconstruction_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = GrassmannPoint.random(16, rng)
        g = rng.standard_normal(16)
        h = manifold.project_tangent(y, g)
        assert abs(float(y.y @ h.v)) < 1e-12
        recon = h.v + float(y.y @ g) * y.y
        assert np.max(np.abs(recon - g)) < 1e-12


def test_exp_map_zero_velocity():
    y = _point([0.6, 0.8])
    assert manifold.exp_map(y, manifold.zero_tangent(y)) is y


def test_exp_map_quarter_turn():
    y = _point([1.0, 0.0])
    h = TangentVector(np.array([0.0, math.pi / 2]), y)
    out = manifold.exp_map(y, h)
    assert out.y == pytest.approx([0.0, 1.0], abs=1e-15)


def test_exp_map_periodicity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = GrassmannPoint.random(8, rng)
        h = _random_tangent(y, rng, norm=rng.uniform(0.01, math.pi))
        wrapped = TangentVector((1.0 + 2.0 * math.pi / h.norm()) * h.v, y)
        a = manifold.exp_map(y, h)
        b = manifold.exp_map(y, wrapped)
        assert np.max(np.abs(a.y - b.y)) < 1e-9


def test_exp_map_stays_unit():
    rng = np.random.default_rng(2)
    for _ in range(200):
        y = GrassmannPoint.random(5, rng)
        h = _random_tangent(y, rng, norm=rng.uniform(0.0, math.pi))
        assert abs(np.linalg.norm(manifold.exp_map(y, h).y) - 1.0) < 1e-12


def test_parallel_translate_zero_step_returns_delta():
    rng = np.random.default_rng(3)
    y = GrassmannPoint.random(6, rng)
    delta = _random_tangent(y, rng)
    out = manifold.parallel_translate(y, delta, manifold.zero_tangent(y))
    assert out is delta


def test_parallel_translate_self_matches_general_form():
    rng = np.random.default_rng(4)
    for n in (2, 3, 16, 257):
        for _ in range(50):
            y = GrassmannPoint.random(n, rng)
            h = _random_tangent(y, rng, norm=rng.uniform(0.01, math.pi))
            simplified = manifold.parallel_translate_self(y, h)
            general = manifold.parallel_translate(y, h, h)
            assert np.max(np.abs(simplified.v - general.v)) < 1e-12


def test_parallel_translate_isometry_and_tangency():
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = GrassmannPoint.random(32, rng)
        delta = _random_tangent(y, rng)
        h = _random_tangent(y, rng, norm=rng.uniform(0.01, math.pi))
        out = manifold.parallel_translate(y, delta, h)
        assert abs(out.norm() - delta.norm()) < 1e-12 * (1.0 + delta.norm())
        new_point = manifold.exp_map(y, h)
        assert abs(float(new_point.y @ out.v)) < 1e-9


def test_parallel_translate_self_analytic():
    y = _point([1.0, 0.0])
    h = TangentVector(np.array([0.0, math.pi / 2]), y)
    out = manifold.parallel_translate_self(y, h)
    assert out.v == pytest.approx([-math.pi / 2, 0.0], abs=1e-15)


def test_norm_clip_below_threshold_unchanged():
    y = _point([1.0, 0.0])
    h = TangentVector(np.array([0.0, 0.05]), y)
    assert manifold.norm_clip(h, 0.1) is h


def test_norm_clip_scales_to_threshold():
    y = _point([1.0, 0.0])
    h = TangentVector(np.array([0.0, 0.2]), y)
    clipped = manifold.norm_clip(h, 0.1)
    assert clipped.norm() == pytest.approx(0.1, abs=1e-15)
    assert clipped.v == pytest.approx(h.v / 2.0, abs=1e-15)


def test_norm_clip_zero_vector():
    y = _point([1.0, 0.0])
    h = manifold.zero_tangent(y)
    assert manifold.norm_clip(h, 0.1).norm() == 0.0


def test_tangent_inner_examples():
    rng = np.random.default_rng(6)
    y = GrassmannPoint.random(12, rng)
    h = _random_tangent(y, rng)
    assert manifold.tangent_inner(h, h) == pytest.approx(h.norm() ** 2, rel=1e-12)
    a = _random_tangent(y, rng)
    b = _random_tangent(y, rng)
    assert manifold.tangent_inner(a, b) == pytest.approx(numerics.dot(a.v, b.v), rel=1e-12, abs=1e-12)


def test_tangent_inner_base_mismatch():
    rng = np.random.default_rng(7)
    y1 = GrassmannPoint.random(4, rng)
    y2 = GrassmannPoint.random(4, rng)
    with pytest.raises(PreconditionError):
        manifold.tangent_inner(_random_tangent(y1, rng), _random_tangent(y2, rng))


def test_geodesic_angle_examples():
    y = _point([1.0, 0.0])
    assert manifold.geodesic_angle(y, y) == 0.0
    assert manifold.geodesic_angle(y, _point([-1.0, 0.0])) == 0.0
    assert manifold.geodesic_angle(y, _point([0.0, 1.0])) == pytest.approx(math.pi / 2)


def test_geodesic_angle_matches_step_norm():
    rng = np.random.default_rng(8)
    for _ in range(100):
        y = GrassmannPoint.random(9, rng)
        h = _random_tangent(y, rng, norm=rng.uniform(0.0, math.pi / 2 * 0.999))
        angle = manifold.geodesic_angle(y, manifold.exp_map(y, h))
        assert abs(angle - h.norm()) < 1e-9
