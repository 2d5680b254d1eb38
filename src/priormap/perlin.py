"""Seeded gradient-noise displacement fields.

A warp field stacks octaves of 2D Perlin gradient noise into a fractional
Brownian motion sum, one independent scalar field per displacement axis.
Each field is renormalized to zero mean and unit standard deviation over a
dense grid spanning the field of view, then scaled by the requested
displacement magnitude, so the magnitude parameter reads directly as the
displacement standard deviation in meters.

All octaves of both axis fields are evaluated in one batched pass over a
128x128 normalization grid, which keeps field construction cheap enough
for Monte-Carlo use while sampling well above the finest default octave's
wavelength.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import philox_stream

#: Hash-table period in lattice cells; the noise tiles after this many
#: cells, far beyond any field of view at sane grid scales.
_TABLE = 256
_MASK = _TABLE - 1
#: Renormalization grid resolution per axis.
_NORM_GRID = 128


@dataclass(frozen=True)
class PerlinParams:
    """Shape parameters of the fractional-Brownian-motion sum.

    persistence defaults to 0.4 so displacements a tenth of a cell apart
    stay strongly correlated (the point of a coherent warp) while higher
    octaves still add visible texture.
    """

    grid_scale: float = 15.0
    octaves: int = 4
    persistence: float = 0.4
    lacunarity: float = 2.0

    def __post_init__(self) -> None:
        if not self.grid_scale > 0:
            raise ValueError("grid_scale must be positive")
        if self.octaves < 1:
            raise ValueError("octaves must be at least 1")
        if not self.persistence > 0:
            raise ValueError("persistence must be positive")
        if not self.lacunarity > 0:
            raise ValueError("lacunarity must be positive")


class WarpField:
    """Continuous, seeded 2D -> 2D displacement field over a square FOV.

    Calling the field with an (n, 2) array of coordinates returns the
    (n, 2) displacement at those coordinates. Coincident inputs always get
    identical displacements because the field is a pure function of
    position.
    """

    def __init__(
        self,
        params: PerlinParams,
        sigma: float,
        seed: int,
        fov_side: float = 90.0,
    ):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.params = params
        self.sigma = float(sigma)
        self.fov_side = float(fov_side)
        rng = philox_stream(seed)
        rows = 2 * params.octaves  # x-axis octaves first, then y-axis
        perm = np.empty((rows, _TABLE), dtype=np.intp)
        gx = np.empty((rows, _TABLE), dtype=np.float64)
        gy = np.empty((rows, _TABLE), dtype=np.float64)
        offsets = np.empty((rows, 2), dtype=np.float64)
        for r in range(rows):
            perm[r] = rng.permutation(_TABLE)
            angles = rng.uniform(0.0, 2.0 * np.pi, _TABLE)
            gx[r] = np.cos(angles)
            gy[r] = np.sin(angles)
            offsets[r] = rng.uniform(0.0, float(_TABLE), 2)
        octave = np.tile(np.arange(params.octaves), 2)
        self._freq = (params.lacunarity**octave / params.grid_scale)[:, None]
        self._amp = (params.persistence**octave)[:, None]
        self._off_x = offsets[:, 0][:, None]
        self._off_y = offsets[:, 1][:, None]
        self._row_base = (np.arange(rows, dtype=np.intp) * _TABLE)[:, None]
        self._perm_flat = perm.ravel()
        self._gx_flat = gx.ravel()
        self._gy_flat = gy.ravel()

        half = self.fov_side / 2.0
        axis = np.linspace(-half, half, _NORM_GRID)
        mesh_x, mesh_y = np.meshgrid(axis, axis)
        grid = np.column_stack([mesh_x.ravel(), mesh_y.ravel()])
        raw = self._raw(grid)
        self._mean = raw.mean(axis=0)
        self._std = raw.std(axis=0)

    def _raw_chunk(self, pts: np.ndarray) -> np.ndarray:
        """Unnormalized octave-summed noise per axis for one chunk."""
        cx = pts[:, 0][None, :] * self._freq + self._off_x
        cy = pts[:, 1][None, :] * self._freq + self._off_y
        xi = np.floor(cx)
        yi = np.floor(cy)
        xf = cx
        xf -= xi
        yf = cy
        yf -= yi
        ix = xi.astype(np.intp)
        ix &= _MASK
        iy = yi.astype(np.intp)
        iy &= _MASK
        base = self._row_base
        p = self._perm_flat
        pix = p[base + ix]
        ix += 1
        ix &= _MASK
        pix1 = p[base + ix]
        pix += iy
        pix1 += iy
        h00 = base + p[base + (pix & _MASK)]
        h10 = base + p[base + (pix1 & _MASK)]
        pix += 1
        pix1 += 1
        h01 = base + p[base + (pix & _MASK)]
        h11 = base + p[base + (pix1 & _MASK)]
        gx = self._gx_flat
        gy = self._gy_flat
        xm = xf - 1.0
        ym = yf - 1.0
        n00 = gx[h00] * xf + gy[h00] * yf
        n10 = gx[h10] * xm + gy[h10] * yf
        n01 = gx[h01] * xf + gy[h01] * ym
        n11 = gx[h11] * xm + gy[h11] * ym
        u = xf * xf * xf * (xf * (xf * 6.0 - 15.0) + 10.0)
        v = yf * yf * yf * (yf * (yf * 6.0 - 15.0) + 10.0)
        n10 -= n00
        n10 *= u
        n10 += n00  # nx0
        n11 -= n01
        n11 *= u
        n11 += n01  # nx1
        n11 -= n10
        n11 *= v
        n11 += n10
        n11 *= self._amp  # (rows, n)
        octaves = self.params.octaves
        return n11.reshape(2, octaves, -1).sum(axis=1).T

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        # Chunk so the pipeline's temporaries stay cache-resident; the
        # evaluation is memory-bound otherwise.
        chunk = 8192
        if pts.shape[0] <= chunk:
            return self._raw_chunk(pts)
        out = np.empty((pts.shape[0], 2), dtype=np.float64)
        for start in range(0, pts.shape[0], chunk):
            out[start : start + chunk] = self._raw_chunk(pts[start : start + chunk])
        return out

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts[None, :]
        if self.sigma == 0.0:
            out = np.zeros_like(pts)
        else:
            raw = self._raw(pts)
            safe_std = np.where(self._std > 0.0, self._std, 1.0)
            out = (raw - self._mean) / safe_std * self.sigma
            out[:, self._std == 0.0] = 0.0
        return out[0] if squeeze else out

