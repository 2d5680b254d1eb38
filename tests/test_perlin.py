from __future__ import annotations

import numpy as np
import pytest

from priormap import PerlinParams, WarpField


def _norm_grid(fov_side: float = 90.0, n: int = 128) -> np.ndarray:
    axis = np.linspace(-fov_side / 2.0, fov_side / 2.0, n)
    gx, gy = np.meshgrid(axis, axis)
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_zero_sigma_is_zero_everywhere():
    field = WarpField(PerlinParams(), sigma=0.0, seed=1)
    pts = np.random.default_rng(0).uniform(-45, 45, (64, 2))
    np.testing.assert_array_equal(field(pts), np.zeros_like(pts))


def test_grid_statistics_contract():
    sigma = 0.7
    field = WarpField(PerlinParams(), sigma=sigma, seed=42)
    disp = field(_norm_grid())
    for axis in range(2):
        assert abs(disp[:, axis].mean()) < 1e-6 * sigma
        assert abs(disp[:, axis].std() - sigma) < 1e-3 * sigma


def test_deterministic_per_seed():
    pts = np.random.default_rng(1).uniform(-40, 40, (32, 2))
    a = WarpField(PerlinParams(), 1.0, seed=5)(pts)
    b = WarpField(PerlinParams(), 1.0, seed=5)(pts)
    np.testing.assert_array_equal(a, b)
    c = WarpField(PerlinParams(), 1.0, seed=6)(pts)
    assert not np.array_equal(a, c)


def test_field_is_function_of_position():
    field = WarpField(PerlinParams(), 1.0, seed=9)
    p = np.array([[3.0, -7.0]])
    np.testing.assert_array_equal(field(p), field(p.copy()))


def test_single_point_call_shape():
    field = WarpField(PerlinParams(), 1.0, seed=2)
    out = field(np.array([1.0, 2.0]))
    assert out.shape == (2,)


def test_nearby_points_correlated_across_seeds():
    # Shortened version of the acceptance Monte Carlo.
    params = PerlinParams()
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.1 * params.grid_scale, 0.0]])
    da, db = [], []
    for seed in range(200):
        field = WarpField(params, 1.0, seed)
        da.append(field(a)[0, 0])
        db.append(field(b)[0, 0])
    corr = np.corrcoef(da, db)[0, 1]
    assert corr > 0.9


def test_param_validation():
    with pytest.raises(ValueError):
        PerlinParams(grid_scale=0.0)
    with pytest.raises(ValueError):
        PerlinParams(octaves=0)
    with pytest.raises(ValueError):
        WarpField(PerlinParams(), sigma=-1.0, seed=0)
