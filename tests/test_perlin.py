from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priormap import PerlinParams, WarpField, philox_stream
from priormap.perlin import MAX_AMPLITUDE


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


def _reference_raw(params: PerlinParams, seed: int, pts: np.ndarray) -> np.ndarray:
    """The warp kernel's slow form: per-octave-row tables drawn as the field
    draws them, and the textbook two-level hash with a wrap per level,
    evaluated at a list of points."""
    rng = philox_stream(seed)
    rows = 2 * params.octaves
    perm = np.empty((rows, 256), dtype=np.intp)
    gx = np.empty((rows, 256))
    gy = np.empty((rows, 256))
    offsets = np.empty((rows, 2))
    for r in range(rows):
        perm[r] = rng.permutation(256)
        angles = rng.uniform(0.0, 2.0 * np.pi, 256)
        gx[r] = np.cos(angles)
        gy[r] = np.sin(angles)
        offsets[r] = rng.uniform(0.0, 256.0, 2)
    octave = np.tile(np.arange(params.octaves), 2)
    freq = (params.lacunarity**octave / params.grid_scale)[:, None]
    amp = (params.persistence**octave)[:, None]
    row = np.arange(rows)[:, None]
    cx = pts[:, 0][None, :] * freq + offsets[:, 0][:, None]
    cy = pts[:, 1][None, :] * freq + offsets[:, 1][:, None]
    xi, yi = np.floor(cx), np.floor(cy)
    xf, yf = cx - xi, cy - yi
    ix, iy = xi.astype(np.intp) & 255, yi.astype(np.intp) & 255

    def corner(dx, dy):
        h = perm[row, (perm[row, (ix + dx) & 255] + iy + dy) & 255]
        return gx[row, h] * (xf - dx) + gy[row, h] * (yf - dy)

    u = xf * xf * xf * (xf * (xf * 6.0 - 15.0) + 10.0)
    v = yf * yf * yf * (yf * (yf * 6.0 - 15.0) + 10.0)
    n00, n10, n01, n11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
    nx0 = (n10 - n00) * u + n00
    nx1 = (n11 - n01) * u + n01
    noise = ((nx1 - nx0) * v + nx0) * amp
    return noise.reshape(2, params.octaves, -1).sum(axis=1).T


_params = st.builds(
    PerlinParams,
    grid_scale=st.floats(0.5, 200.0),
    octaves=st.integers(1, 9),
    persistence=st.floats(0.05, 1.5),
    lacunarity=st.floats(1.1, 4.0),
)


@given(_params, st.floats(1.0, 400.0), st.integers(0, (1 << 62) - 1))
@settings(max_examples=60, deadline=None)
def test_separable_grid_matches_point_list_bit_for_bit(params, fov_side, seed):
    field = WarpField(params, 1.0, seed, fov_side=fov_side)
    mesh = _norm_grid(fov_side)
    grid = field._grid_raw()
    assert grid.flags.c_contiguous and grid.shape == (128 * 128, 2)
    listed = field._raw(mesh)
    assert grid.tobytes() == np.ascontiguousarray(listed).tobytes()
    assert grid.tobytes() == np.ascontiguousarray(_reference_raw(params, seed, mesh)).tobytes()
    assert field._mean.tobytes() == listed.mean(axis=0).tobytes()
    assert field._std.tobytes() == listed.std(axis=0).tobytes()


@given(_params, st.integers(0, (1 << 62) - 1), st.integers(1, 3000), st.floats(1.0, 1e4))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_at_any_points(params, seed, n, spread):
    pts = np.random.default_rng(seed % 1000).uniform(-spread, spread, (n, 2))
    field = WarpField(params, 1.0, seed)
    got = np.ascontiguousarray(field._raw(pts))
    assert got.tobytes() == np.ascontiguousarray(_reference_raw(params, seed, pts)).tobytes()


@pytest.mark.parametrize("bad", [
    {"grid_scale": float("inf")}, {"grid_scale": float("nan")}, {"persistence": float("inf")},
    {"lacunarity": float("nan")}, {"lacunarity": -1.0}, {"octaves": 2.5}, {"octaves": True},
    {"grid_scale": "15"},
])
def test_params_reject_non_finite_and_non_numbers(bad):
    with pytest.raises(ValueError):
        PerlinParams(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"octaves": 10**9}, "octaves must be at most 32"),
    ({"octaves": 33, "lacunarity": 1.01}, "octaves must be at most 32"),
    ({"lacunarity": 1e200, "octaves": 3}, "highest octave frequency.*got inf"),
    ({"grid_scale": 1e-310}, "highest octave frequency.*got inf"),
    # With lacunarity below 1 the first octave is the highest.
    ({"lacunarity": 0.5, "grid_scale": 1e-7}, "highest octave frequency.*got 1e\\+07"),
    ({"lacunarity": 10.0, "octaves": 9, "grid_scale": 10.0}, "got 1e\\+07"),
])
def test_params_reject_octaves_and_frequency_beyond_bounds(bad, message):
    with pytest.raises(ValueError, match=message):
        PerlinParams(**bad)


@pytest.mark.parametrize("bad, got", [
    ({"persistence": 1e200, "octaves": 2}, "1e+200"),
    ({"persistence": 1e11, "octaves": 32, "lacunarity": 1.0}, "inf"),  # the power overflows
    ({"persistence": 1e50, "octaves": 3}, "1e+100"),  # 1e50**2 rounds to just above 1e100
])
def test_params_reject_amplitude_beyond_bound(bad, got):
    # Only constructed: a field built from these would overflow its grid.
    message = ("the largest octave amplitude, max(1, persistence**(octaves - 1)), "
               f"must be at most 1e+100, got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PerlinParams(**bad)


def test_params_accept_their_bounds():
    # Each bound met with equality; 1e6**1 / 1.0 is exact.
    assert PerlinParams(octaves=32, lacunarity=1.0).octaves == 32
    assert PerlinParams(lacunarity=1e6, octaves=2, grid_scale=1.0).lacunarity == 1e6
    assert PerlinParams(persistence=MAX_AMPLITUDE, octaves=2).persistence == 1e100


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_field_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
        WarpField(PerlinParams(), sigma=sigma, seed=0)


def test_fields_built_on_threads_match_serial():
    # Each thread builds and samples fields in its own scratch arrays.
    pts = np.random.default_rng(3).uniform(-50, 50, (300, 2))
    params = PerlinParams(octaves=3)

    def work(first: int) -> list[bytes]:
        out = []
        for seed in range(first, first + 12):
            field = WarpField(params, 1.0, seed)
            out.append(field._mean.tobytes() + field._std.tobytes() + field(pts).tobytes())
        return out

    serial = [work(12 * k) for k in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(work, [12 * k for k in range(4)]))
    assert threaded == serial
