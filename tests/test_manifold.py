import math

import numpy as np
import pytest

from grassopt import manifold
from grassopt.errors import DimensionError, PreconditionError


def _units(n, p, rng):
    """A bundle of p random unit columns in R^n."""
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def _col_norm(a):
    return np.linalg.norm(a, axis=0)


def _random_tangents(y, rng, norms=None):
    h = manifold.project_columns(y, rng.standard_normal(y.shape))
    if norms is not None:
        h = h * (norms / _col_norm(h))
    return h


def test_point_requires_dimension_two():
    with pytest.raises(DimensionError):
        manifold.require_unit(np.array([1.0]))
    with pytest.raises(DimensionError):
        manifold.require_unit(np.array([[1.0, -1.0]]))


def test_point_requires_unit_norm():
    with pytest.raises(PreconditionError):
        manifold.require_unit(np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError):
        manifold.require_unit(np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.1]]))
    manifold.require_unit(np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.0]]))


def test_tangent_vector_rejects_non_tangent():
    y = np.array([1.0, 0.0])
    with pytest.raises(PreconditionError, match="not tangent"):
        manifold.require_tangent(y, np.array([0.5, 0.5]))
    manifold.require_tangent(y, np.array([0.0, 0.5]))


def test_project_parallel_gradient_vanishes():
    h = manifold.project_columns(np.array([1.0, 0.0]), np.array([5.0, 0.0]))
    assert np.array_equal(h, [0.0, 0.0])


def test_project_coordinate_aligned():
    h = manifold.project_columns(np.array([1.0, 0.0]), np.array([3.7, -2.5]))
    assert h == pytest.approx([0.0, -2.5], abs=1e-15)


def test_project_reconstruction_oracle():
    rng = np.random.default_rng(0)
    y = _units(16, 50, rng)
    g = rng.standard_normal((16, 50))
    h = manifold.project_columns(y, g)
    assert np.max(np.abs(np.sum(y * h, axis=0))) < 1e-12
    recon = h + np.sum(y * g, axis=0) * y
    assert np.max(np.abs(recon - g)) < 1e-12


def test_geodesic_zero_velocity():
    y = np.array([0.6, 0.8])
    delta = np.array([0.8, -0.6])
    y_new, moved = manifold.geodesic_columns(y, np.zeros(2), delta)
    assert y_new.tobytes() == y.tobytes()
    assert moved.tobytes() == delta.tobytes()


def test_geodesic_quarter_turn():
    y_new, _ = manifold.geodesic_columns(np.array([1.0, 0.0]), np.array([0.0, math.pi / 2]))
    assert y_new == pytest.approx([0.0, 1.0], abs=1e-15)


def test_geodesic_periodicity():
    rng = np.random.default_rng(1)
    y = _units(8, 50, rng)
    h = _random_tangents(y, rng, rng.uniform(0.01, math.pi, 50))
    wrapped = (1.0 + 2.0 * math.pi / _col_norm(h)) * h
    a, _ = manifold.geodesic_columns(y, h)
    b, _ = manifold.geodesic_columns(y, wrapped)
    assert np.max(np.abs(a - b)) < 1e-9


def test_geodesic_stays_unit():
    rng = np.random.default_rng(2)
    y = _units(5, 200, rng)
    h = _random_tangents(y, rng, rng.uniform(0.0, math.pi, 200))
    y_new, _ = manifold.geodesic_columns(y, h)
    assert np.max(np.abs(_col_norm(y_new) - 1.0)) < 1e-12


def test_transport_zero_step_returns_delta():
    rng = np.random.default_rng(3)
    y = _units(6, 1, rng)[:, 0]
    delta = _random_tangents(y, rng)
    _, moved = manifold.geodesic_columns(y, np.zeros(6), delta)
    assert moved.tobytes() == delta.tobytes()


def test_self_transport_matches_general_form():
    rng = np.random.default_rng(4)
    for n in (2, 3, 16, 257):
        y = _units(n, 50, rng)
        h = _random_tangents(y, rng, rng.uniform(0.01, math.pi, 50))
        _, simplified = manifold.geodesic_columns(y, h)
        _, general = manifold.geodesic_columns(y, h, h)
        assert np.max(np.abs(simplified - general)) < 1e-12


def test_transport_isometry_and_tangency():
    rng = np.random.default_rng(5)
    y = _units(32, 100, rng)
    delta = _random_tangents(y, rng)
    h = _random_tangents(y, rng, rng.uniform(0.01, math.pi, 100))
    new_point, out = manifold.geodesic_columns(y, h, delta)
    assert np.all(np.abs(_col_norm(out) - _col_norm(delta)) < 1e-12 * (1.0 + _col_norm(delta)))
    assert np.max(np.abs(np.sum(new_point * out, axis=0))) < 1e-9


def test_self_transport_analytic():
    _, out = manifold.geodesic_columns(np.array([1.0, 0.0]), np.array([0.0, math.pi / 2]))
    assert out == pytest.approx([-math.pi / 2, 0.0], abs=1e-15)


def test_norm_clip_below_threshold_unchanged():
    h = np.array([0.0, 0.05])
    clipped, nh = manifold.clip_columns(h, 0.1)
    assert clipped.tobytes() == h.tobytes()
    assert nh == 0.05


def test_norm_clip_scales_to_threshold():
    h = np.array([0.0, 0.2])
    clipped, nh = manifold.clip_columns(h, 0.1)
    assert np.linalg.norm(clipped) == pytest.approx(0.1, abs=1e-15)
    assert clipped == pytest.approx(h / 2.0, abs=1e-15)
    assert nh == pytest.approx(0.2, abs=1e-15)


def test_norm_clip_zero_vector():
    clipped, _ = manifold.clip_columns(np.zeros(2), 0.1)
    assert np.linalg.norm(clipped) == 0.0


def test_geodesic_angle_examples():
    y = np.array([1.0, 0.0])
    assert manifold.angle_columns(y, y) == 0.0
    assert manifold.angle_columns(y, np.array([-1.0, 0.0])) == 0.0
    assert manifold.angle_columns(y, np.array([0.0, 1.0])) == pytest.approx(math.pi / 2)


def test_geodesic_angle_matches_step_norm():
    rng = np.random.default_rng(8)
    y = _units(9, 100, rng)
    h = _random_tangents(y, rng, rng.uniform(0.0, math.pi / 2 * 0.999, 100))
    y_new, _ = manifold.geodesic_columns(y, h)
    assert np.max(np.abs(manifold.angle_columns(y, y_new) - _col_norm(h))) < 1e-9
