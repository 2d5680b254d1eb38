"""Seeded gradient-noise displacement fields.

A warp field stacks octaves of 2D Perlin gradient noise into a fractional
Brownian motion sum, one independent scalar field per displacement axis.
Each field is renormalized to zero mean and unit standard deviation over a
dense grid spanning the field of view, then scaled by the requested
displacement magnitude, so the magnitude parameter reads directly as the
displacement standard deviation in meters.

The normalization grid is 128x128 points, which samples well above the
finest default octave's wavelength. It is separable: the lattice
coordinate, floor, fraction, fade weight and first hash of a grid point
depend on one axis only, so the noise kernel computes them on the 128
axis values per octave row and broadcasts only the second hash level, the
gradient dot products and the interpolation over the grid. Every value is
the same floating-point operation on the same operands as at a listed
point, so the grid, and the mean and standard deviation taken over it, is
bit-identical to evaluating the 16,384 grid points one by one.

Memory is laid out so that building and sampling fields touches the same
pages every time, whatever the state of the heap. An array above glibc's
mmap threshold (about 128 KB) that is allocated per pass is mapped fresh,
or not, depending on the heap, and a fresh mapping costs its page faults
on every pass. So the broadcast work (32,768 kernel cells per pass, 256 KB
per array) and the grid itself run in per-thread scratch arrays that are
allocated once and reused; each pass sums its octaves straight into the
caller's output; and every other temporary is a single-axis array of at
most 2,048 cells for a list of points (16 KB), or of the 128 grid values
per octave row (8 KB at the default 4 octaves, 64 KB at 32). Larger point
passes do not pay: a dozen 64 KB temporaries per pass (8,192 cells) are
each below the threshold, but freeing them lets glibc trim the heap, and
the next pass faults the pages in again (ru_minflt over 8 warp frames rose
from about 6,300 to 29,700).
"""
from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .config import finite_number
from .rng import philox_stream

#: Hash-table period in lattice cells; the noise tiles after this many
#: cells, far beyond any field of view at sane grid scales.
_TABLE = 256
_MASK = _TABLE - 1
#: Renormalization grid resolution per axis.
_NORM_GRID = 128
#: Kernel cells (octave rows x points) per pass: at most this many per
#: single-axis array (16 KB of float64), and at most _GRID_CELLS per
#: broadcast array, which live in the scratch arrays (256 KB each).
_AXIS_CELLS = 2048
_GRID_CELLS = 32768

#: Most octaves a field stacks. One normalization-grid line of every
#: octave row (2 * 32 * 128 cells) must fit the _GRID_CELLS budget.
MAX_OCTAVES = 32
#: Ceiling on the highest octave frequency, in cycles per meter (a
#: micrometer wavelength): below it, points within 1e9 m of the pose keep
#: their lattice coordinates under 2**53, where floor and cast are exact.
MAX_FREQUENCY = 1e6
#: Ceiling on the largest octave amplitude: at 32 octaves of unit-scale
#: noise, the squares the normalization sums over the grid stay finite.
MAX_AMPLITUDE = 1e100

_local = threading.local()


def _scratch(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A view at shape of this thread's scratch array called name. It grows
    to the largest shape asked for and is overwritten by the next caller on
    the thread, so a view is valid only until then."""
    held = _local.__dict__.setdefault("arrays", {})
    cells = math.prod(shape)
    arr = held.get(name)
    if arr is None or arr.size < cells:
        arr = held[name] = np.empty(cells, dtype=dtype)
    return arr[:cells].reshape(shape)


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
        for name in ("grid_scale", "persistence", "lacunarity"):
            finite_number(getattr(self, name), name, positive=True)
        octaves = self.octaves
        if isinstance(octaves, bool) or not isinstance(octaves, numbers.Integral) or octaves < 1:
            raise ValueError(f"octaves must be an integer of at least 1, got {octaves!r}")
        if octaves > MAX_OCTAVES:
            raise ValueError(f"octaves must be at most {MAX_OCTAVES}, got {octaves!r}")
        # Octave k's frequency is lacunarity**k / grid_scale and its
        # amplitude persistence**k, so each peaks at the first or the last
        # octave; a power that overflows counts as inf.
        with np.errstate(over="ignore"):
            frequency = max(1.0, np.float64(self.lacunarity) ** (octaves - 1)) / self.grid_scale
            amplitude = max(1.0, np.float64(self.persistence) ** (octaves - 1))
        if not frequency <= MAX_FREQUENCY:
            raise ValueError(
                "the highest octave frequency, max(1, lacunarity**(octaves - 1)) / grid_scale, "
                f"must be at most {MAX_FREQUENCY:g} per meter, got {frequency:g}"
            )
        if not amplitude <= MAX_AMPLITUDE:
            raise ValueError(
                "the largest octave amplitude, max(1, persistence**(octaves - 1)), "
                f"must be at most {MAX_AMPLITUDE:g}, got {amplitude:g}"
            )


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
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"sigma must be non-negative and finite, got {sigma!r}")
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
        shape = (rows, 1, 1)  # kernel arrays are (row, line, point)
        self._freq = (params.lacunarity**octave / params.grid_scale).reshape(shape)
        self._amp = (params.persistence**octave).reshape(shape)
        self._off_x = offsets[:, 0].reshape(shape)
        self._off_y = offsets[:, 1].reshape(shape)
        row = np.arange(rows, dtype=np.intp)[:, None]
        self._row_base = (row * _TABLE).reshape(shape)
        # The first hash level already offset into its row of the corner
        # tables. Those hold each row's permuted gradients twice over, so
        # first hash + lattice y (+ 1), at most 2 * _TABLE - 1, indexes the
        # second hash level's gradient without a wrap or a second lookup.
        self._perm_flat = (perm + row * (2 * _TABLE)).ravel()
        self._gx = np.tile(np.take_along_axis(gx, perm, axis=1), 2).ravel()
        self._gy = np.tile(np.take_along_axis(gy, perm, axis=1), 2).ravel()

        raw = self._grid_raw()
        self._mean = raw.mean(axis=0)
        # raw.std(axis=0), step for step as numpy takes it, but in place
        # rather than through a grid-sized temporary.
        raw -= self._mean
        np.square(raw, out=raw)
        self._std = np.sqrt(raw.sum(axis=0) / raw.shape[0])

    def _grid_raw(self) -> np.ndarray:
        """Raw noise on the normalization grid, C-contiguous (16384, 2) in
        meshgrid point order (x varies fastest), in this thread's scratch."""
        half = self.fov_side / 2.0
        axis = np.linspace(-half, half, _NORM_GRID)
        rows = 2 * self.params.octaves
        lines = _GRID_CELLS // (rows * _NORM_GRID)
        raw = _scratch("grid", (_NORM_GRID * _NORM_GRID, 2))
        for i in range(0, _NORM_GRID, lines):
            self._raw_chunk(axis[None, :], axis[i : i + lines, None],
                            raw[i * _NORM_GRID : (i + lines) * _NORM_GRID])
        return raw

    def _raw_chunk(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        """Unnormalized octave-summed noise per axis at the points (x, y),
        into out, (points, 2) in C order of the broadcast.

        x and y are 2-D and broadcast against each other: (1, n) each for a
        list of points, (1, k) and (l, 1) for a grid of l lines of k points.
        Everything that depends on one coordinate is computed at that
        coordinate's shape; the broadcast work runs in this thread's
        scratch arrays.
        """
        cx = x * self._freq + self._off_x
        cy = y * self._freq + self._off_y
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
        px0 = p[base + ix]
        ix += 1
        ix &= _MASK
        px1 = p[base + ix]
        xm = xf - 1.0
        ym = yf - 1.0
        u = xf * xf * xf * (xf * (xf * 6.0 - 15.0) + 10.0)
        v = yf * yf * yf * (yf * (yf * 6.0 - 15.0) + 10.0)

        shape = np.broadcast_shapes(cx.shape, cy.shape)  # (rows, lines, points)
        h = _scratch("hash", shape, np.intp)
        t, n00, n10, n01, n11 = (_scratch(k, shape) for k in ("t", "n00", "n10", "n01", "n11"))
        gx = self._gx
        gy = self._gy

        def corner(dx: np.ndarray, dy: np.ndarray, out: np.ndarray, up: int) -> None:
            """out = gx[h + up] * dx + gy[h + up] * dy, the corner's gradient
            dot; the tables from up on give gx[h + 1] without an add over h.
            The hashes are always in range; mode="clip" only spares the copy
            take's default mode makes when given out."""
            gx[up:].take(h, out=t, mode="clip")
            np.multiply(t, dx, out=t)
            gy[up:].take(h, out=out, mode="clip")
            out *= dy
            out += t

        np.add(px0, iy, out=h)
        corner(xf, yf, n00, 0)
        corner(xf, ym, n01, 1)
        np.add(px1, iy, out=h)
        corner(xm, yf, n10, 0)
        corner(xm, ym, n11, 1)
        n10 -= n00
        n10 *= u
        n10 += n00  # nx0
        n11 -= n01
        n11 *= u
        n11 += n01  # nx1
        n11 -= n10
        n11 *= v
        n11 += n10
        n11 *= self._amp
        # The octaves are added one by one, in order: numpy's sum adds 8 or
        # more pairwise when they are the contiguous axis (a chunk of one
        # point), and a point's warp would then depend on the call it is in.
        octaves = n11.reshape(2, self.params.octaves, -1)
        total = out.T
        np.copyto(total, octaves[:, 0])
        for k in range(1, octaves.shape[1]):
            total += octaves[:, k]

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        step = _AXIS_CELLS // (2 * self.params.octaves)
        out = np.empty((pts.shape[0], 2), dtype=np.float64)
        for start in range(0, pts.shape[0], step):
            chunk = pts[start : start + step]
            self._raw_chunk(chunk[None, :, 0], chunk[None, :, 1], out[start : start + step])
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

