"""Synthetic prior mutations and their seeded, ordered composition.

Discrete mutations change how many features a frame has or what class they
carry; continuous mutations warp geometry. Every mutation consumes its own
counter-based stream, so a recipe applied to a frame is a pure function of
(frame, recipe) regardless of worker count or evaluation order, and any
mutation with zero probability or zero magnitude returns its input
bit-identically.

perturb_frames applies a recipe to a chunk of frames at once, on stacked
columns: one (N, 2) points array and per-feature columns. A mutation is one
pass over them: the first uniform draw of every feature comes from
rng.first_uniforms over the chunk's keys, normals from each feature's
scalar stream into its rows, and the final clip is one clip_features
pass. Each output feature is built once. apply_recipe and each public
mutation are views of this on one frame, bit for bit what they computed
feature by feature. A point that a mutation leaves non-finite raises
`frame <id>: points must be finite (no NaN/Inf)`, naming its frame.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .config import finite_number, read_config
from .model import (
    DEFAULT_DIMS,
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    InvarianceClass,
    MapFeature,
    MapFrame,
    ModelDims,
    clip_features,
    clip_to_fov,  # unused here; bench/tracing.py times calls through it
    feature_rows,
    rigid_transformed,
    ring_fault,
)
from .perlin import PerlinParams, WarpField
from .rng import MutationStream, first_uniforms, keyed_stream, mutation_keys, stable_key, words


class MutationKind(Enum):
    DROP_FEATURES = "drop_features"
    DUPLICATE_FEATURES = "duplicate_features"
    WRONG_CLASS = "wrong_class"
    JITTER_CONTROL_POINTS = "jitter_control_points"
    SHIFT_FEATURES = "shift_features"
    LOCALIZATION_NOISE = "localization_noise"
    PERLIN_WARP = "perlin_warp"


#: The parameters each kind takes, in record order. perlin is optional and
#: defaults to PerlinParams().
_PARAMS = {
    MutationKind.DROP_FEATURES: ("p",),
    MutationKind.DUPLICATE_FEATURES: ("p",),
    MutationKind.WRONG_CLASS: ("p",),
    MutationKind.JITTER_CONTROL_POINTS: ("sigma",),
    MutationKind.SHIFT_FEATURES: ("sigma",),
    MutationKind.LOCALIZATION_NOISE: ("sigma", "sigma_yaw_deg"),
    MutationKind.PERLIN_WARP: ("sigma", "perlin"),
}

#: Ceiling on sigma (meters) and sigma_yaw_deg (degrees): far beyond any
#: field of view, and small enough that no Gaussian draw times it, added to
#: a coordinate, overflows a double.
MAX_SIGMA = 1e6


@dataclass(frozen=True)
class MutationSpec:
    """One mutation with exactly the parameters its kind needs. kind may be
    given by its name and perlin as a JSON object, as in a recipe record."""

    kind: MutationKind
    p: float | None = None
    sigma: float | None = None
    sigma_yaw_deg: float | None = None
    perlin: PerlinParams | None = None

    def __post_init__(self) -> None:
        try:
            kind = MutationKind(self.kind)
        except ValueError:
            raise ValueError(f"unknown kind {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        wanted = _PARAMS[kind]
        for name in ("p", "sigma", "sigma_yaw_deg", "perlin"):
            value = getattr(self, name)
            if value is None:
                if name in wanted and name != "perlin":
                    raise ValueError(f"{kind.value}: parameter '{name}' is required")
            elif name not in wanted:
                raise ValueError(f"{kind.value}: parameter '{name}' does not apply")
            elif name == "p":
                if not 0.0 <= finite_number(value, f"{kind.value}: p") <= 1.0:
                    raise ValueError(f"{kind.value}: p must lie in [0, 1]")
            elif name != "perlin":
                if finite_number(value, f"{kind.value}: {name}") < 0.0:
                    raise ValueError(f"{kind.value}: {name} must be non-negative")
                if value > MAX_SIGMA:
                    raise ValueError(f"{kind.value}: {name} must be at most {MAX_SIGMA:g}")
        if kind is MutationKind.PERLIN_WARP and not isinstance(self.perlin, PerlinParams):
            raw = {} if self.perlin is None else self.perlin
            object.__setattr__(self, "perlin", read_config(PerlinParams, raw, "perlin"))


@dataclass(frozen=True)
class PerturbRecipe:
    """Ordered mutation list plus the master seed that keys every stream. A
    mutation may be given as its JSON object, as in a recipe file."""

    mutations: tuple[MutationSpec, ...]
    master_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.mutations, (list, tuple)):
            raise ValueError(f"mutations must be a list, got {self.mutations!r}")
        object.__setattr__(self, "mutations", tuple(
            m if isinstance(m, MutationSpec) else read_config(MutationSpec, m, f"mutations[{i}]")
            for i, m in enumerate(self.mutations)))
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        # philox_stream keys each part modulo 2**64: seeds outside the range
        # would alias seeds inside it.
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")


def recipe_from_dict(raw: Mapping) -> PerturbRecipe:
    """Read a recipe config, in which mutations may be left out."""
    return read_config(PerturbRecipe, {"mutations": [], **raw}, "recipe")


def recipe_to_dict(recipe: PerturbRecipe) -> dict:
    muts = []
    for m in recipe.mutations:
        rec = asdict(m)
        muts.append({"kind": m.kind.value, **{name: rec[name] for name in _PARAMS[m.kind]}})
    return {"master_seed": recipe.master_seed, "mutations": muts}


def low_all_noise_recipe(master_seed: int) -> PerturbRecipe:
    """The low-noise baseline: every mutation except the Perlin warp, with
    0.1 probability for discrete mutations and 0.1 m (and 0.1 degrees of
    yaw) for continuous ones. Discrete mutations run first so later warps
    diverge duplicated copies."""
    return PerturbRecipe(
        mutations=(
            MutationSpec(MutationKind.DROP_FEATURES, p=0.1),
            MutationSpec(MutationKind.DUPLICATE_FEATURES, p=0.1),
            MutationSpec(MutationKind.WRONG_CLASS, p=0.1),
            MutationSpec(MutationKind.JITTER_CONTROL_POINTS, sigma=0.1),
            MutationSpec(MutationKind.SHIFT_FEATURES, sigma=0.1),
            MutationSpec(MutationKind.LOCALIZATION_NOISE, sigma=0.1, sigma_yaw_deg=0.1),
        ),
        master_seed=master_seed,
    )


#: The most frames perturb_frames is given at once by the CLI: the unit
#: of its array passes, and a bound on the memory they take.
CHUNK_FRAMES = 256


class _Columns:
    """A chunk of frames as stacked columns: the (N, 2) points of all their
    features in frame order, and per feature its point count, frame index,
    class, invariance and confidence. The mutation passes below work on
    these in place; frames_out builds each output feature once."""

    def __init__(self, frames: Sequence[MapFrame], frame_keys: np.ndarray):
        self.frames = frames
        self.frame_keys = frame_keys
        feats = [f for frame in frames for f in frame.features]
        self.points = np.concatenate([f.points for f in feats]) if feats else np.empty((0, 2))
        self.sizes = np.array([f.n_points for f in feats], dtype=np.intp)
        self.frame = np.repeat(np.arange(len(frames)), [len(f.features) for f in frames])
        self.cls = np.array([f.feature_class for f in feats], dtype=object)
        self.inv = np.array([f.invariance for f in feats], dtype=object)
        self.conf = np.array([f.confidence for f in feats], dtype=np.float64)

    def feature_keys(self, master_seed: int, mutation: int) -> np.ndarray:
        """Each feature's stream key, by its index in its frame."""
        counts = np.bincount(self.frame, minlength=len(self.frames))
        first = np.cumsum(counts) - counts
        index = np.arange(len(self.frame)) - first[self.frame]
        return mutation_keys(master_seed, self.frame_keys[self.frame], mutation, index)

    def frame_rows(self) -> list[tuple[int, int]]:
        """Each frame's (start, end) rows of points."""
        rows = np.bincount(self.frame, self.sizes, minlength=len(self.frames)).astype(np.intp)
        ends = np.cumsum(rows).tolist()
        return list(zip([0, *ends], ends))

    def take(self, idx: np.ndarray) -> None:
        """Keep features idx, in that order."""
        self.points = self.points[feature_rows(self.sizes, idx)]
        self.sizes, self.frame, self.cls, self.inv, self.conf = (
            column[idx] for column in (self.sizes, self.frame, self.cls, self.inv, self.conf))

    def frames_out(self, m: int | None = None) -> list[MapFrame]:
        """The frames rebuilt from the columns, each feature's points a
        read-only view of the stack. With m, each feature is first clipped
        to its frame's field of view (clip_features), and each frame keeps
        its first m features."""
        points = self.points
        points.flags.writeable = False
        k = len(self.sizes)
        if m is not None and k:
            half = np.array([f.fov_side / 2.0 for f in self.frames])[self.frame]
            source, pieces = clip_features(points, self.sizes, self.inv == InvarianceClass.POLYGON,
                                           half)
        else:
            source, pieces = np.arange(k), [None] * k
        ends = np.cumsum(self.sizes).tolist()
        starts = [0, *ends]
        cls, inv, conf = self.cls.tolist(), self.inv.tolist(), self.conf.tolist()
        out: list[list[MapFeature]] = [[] for _ in self.frames]
        build = MapFeature.from_checked
        m = len(source) if m is None else m
        for i, f, piece in zip(source.tolist(), self.frame[source].tolist(), pieces):
            if len(out[f]) < m:
                rows = points[starts[i] : ends[i]] if piece is None else piece
                out[f].append(build(cls[i], inv[i], rows, conf[i]))
        return [frame.with_features(feats) for frame, feats in zip(self.frames, out)]


# The mutation passes. Each works in place on the columns of a chunk that
# has features, and returns whether it applied: False when its parameters
# make it the identity. Streams are keyed by (master seed, frame key,
# mutation index, feature index in the frame as the pass sees it).


def _drop(c: _Columns, p: float, master_seed: int, mutation: int) -> bool:
    if p == 0.0:
        return False
    u = first_uniforms(c.feature_keys(master_seed, mutation))
    c.take(np.flatnonzero(~(u < p)))
    return True


def _duplicate(c: _Columns, p: float, m_max: int, master_seed: int, mutation: int) -> bool:
    if p == 0.0:
        return False
    dup = first_uniforms(c.feature_keys(master_seed, mutation)) < p
    counts = np.bincount(c.frame, minlength=len(c.frames))
    # The flagged features before each one in its frame: the first
    # m_max - count of a frame are copied.
    before = np.cumsum(dup) - dup
    first = (np.cumsum(counts) - counts)[c.frame]
    dup &= before - before[first] < np.maximum(0, m_max - counts)[c.frame]
    c.take(np.repeat(np.arange(len(dup)), 1 + dup))
    return True


def _corrupt(c: _Columns, p: float, master_seed: int, mutation: int) -> bool:
    if p == 0.0:
        return False
    keys = c.feature_keys(master_seed, mutation)
    ends = np.cumsum(c.sizes)
    for i in np.flatnonzero(first_uniforms(keys) < p).tolist():
        gen = keyed_stream(keys[i].tolist())
        gen.uniform()  # the flip draw, taken above
        ring = ring_fault(c.points[ends[i] - c.sizes[i] : ends[i]]) is None
        others = [x for x in REAL_CLASSES if x is not c.cls[i]
                  and (ring or DEFAULT_INVARIANCE[x] is not InvarianceClass.POLYGON)]
        c.cls[i] = others[int(gen.integers(len(others)))]
        c.inv[i] = DEFAULT_INVARIANCE[c.cls[i]]
    return True


def _jitter(c: _Columns, sigma: float, master_seed: int, mutation: int) -> bool:
    if sigma == 0.0:
        return False
    noise = np.empty_like(c.points)
    ends = np.cumsum(c.sizes).tolist()
    for key, a, b in zip(c.feature_keys(master_seed, mutation).tolist(), [0, *ends], ends):
        keyed_stream(key).standard_normal(out=noise[a:b])
    noise *= sigma
    c.points += noise
    return True


def _shift(c: _Columns, sigma: float, master_seed: int, mutation: int) -> bool:
    if sigma == 0.0:
        return False
    delta = np.empty((len(c.sizes), 2))
    for key, row in zip(c.feature_keys(master_seed, mutation).tolist(), delta):
        keyed_stream(key).standard_normal(out=row)
    delta *= sigma
    c.points += np.repeat(delta, c.sizes, axis=0)
    return True


def _localize(c: _Columns, sigma_xy: float, sigma_yaw_deg: float, master_seed: int,
              mutation: int) -> bool:
    if sigma_xy == 0.0 and sigma_yaw_deg == 0.0:
        return False
    keys = mutation_keys(master_seed, c.frame_keys, mutation).tolist()
    for key, (a, b) in zip(keys, c.frame_rows()):
        if a == b:
            continue
        gen = keyed_stream(key)
        dx, dy = gen.standard_normal(2) * sigma_xy
        dyaw = math.radians(gen.standard_normal() * sigma_yaw_deg)
        if dx != 0.0 or dy != 0.0 or dyaw != 0.0:
            c.points[a:b] = rigid_transformed(c.points[a:b], float(dx), float(dy), dyaw)
    return True


def _warp(c: _Columns, sigma: float, params: PerlinParams, master_seed: int,
          mutation: int) -> bool:
    if sigma == 0.0:
        return False
    keys = mutation_keys(master_seed, c.frame_keys, mutation).tolist()
    for key, frame, (a, b) in zip(keys, c.frames, c.frame_rows()):
        if a == b:
            continue
        seed = int(keyed_stream(key).integers(0, 1 << 62))
        warp = WarpField(params, sigma, seed, fov_side=frame.fov_side)
        rows = c.points[a:b]
        rows += warp(rows)
    return True


def _one_frame(frame: MapFrame, stream: MutationStream, mutate, *params) -> MapFrame:
    """A mutation pass on one frame, keyed by stream: the frame itself when
    the pass does not apply or the frame has no features."""
    if not frame.features:
        return frame
    c = _Columns([frame], words([stream.frame_key]))
    if not mutate(c, *params, stream.master_seed, stream.mutation_index):
        return frame
    _check_finite(c)
    return c.frames_out()[0]


def _check_finite(c: _Columns) -> None:
    if not np.isfinite(c.points).all():
        row = np.flatnonzero(~np.isfinite(c.points).all(axis=1))[0]
        frame = c.frames[c.frame[np.searchsorted(np.cumsum(c.sizes), row, side="right")]]
        raise ValueError(f"frame {frame.frame_id}: points must be finite (no NaN/Inf)")


def drop_features(frame: MapFrame, p: float, stream: MutationStream) -> MapFrame:
    """Remove each feature independently with probability p, keeping
    survivor order."""
    return _one_frame(frame, stream, _drop, p)


def duplicate_features(
    frame: MapFrame, p: float, m_max: int, stream: MutationStream
) -> MapFrame:
    """Append an exact copy of each feature with probability p, inserted
    right after its source; excess copies beyond m_max are dropped in draw
    order."""
    return _one_frame(frame, stream, _duplicate, p, m_max)


def corrupt_class(
    frame: MapFrame,
    p: float,
    stream: MutationStream,
) -> MapFrame:
    """Replace each feature's class, with probability p, by a uniformly
    random different real class; the invariance class follows
    DEFAULT_INVARIANCE and geometry is untouched. A feature whose points
    break the polygon rule (fewer than 3, or a closed loop) is never given
    a polygon class."""
    return _one_frame(frame, stream, _corrupt, p)


def jitter_control_points(frame: MapFrame, sigma: float, stream: MutationStream) -> MapFrame:
    """Offset every coordinate of every control point by an independent
    zero-mean Gaussian draw of the given standard deviation."""
    return _one_frame(frame, stream, _jitter, sigma)


def shift_features(frame: MapFrame, sigma: float, stream: MutationStream) -> MapFrame:
    """Translate each feature rigidly by one zero-mean Gaussian draw, so
    feature shape is preserved exactly up to floating point."""
    return _one_frame(frame, stream, _shift, sigma)


def localization_noise(
    frame: MapFrame, sigma_xy: float, sigma_yaw_deg: float, stream: MutationStream
) -> MapFrame:
    """Apply one global Gaussian yaw-and-position draw to the whole frame,
    mimicking a robot localization error the prior cannot explain away."""
    return _one_frame(frame, stream, _localize, sigma_xy, sigma_yaw_deg)


def perlin_warp(
    frame: MapFrame, sigma: float, params: PerlinParams, stream: MutationStream
) -> MapFrame:
    """Displace every control point by a frame-wide coherent warp field
    sampled at the point's coordinates, all of the frame's points in one
    call."""
    return _one_frame(frame, stream, _warp, sigma, params)


def _apply_one(c: _Columns, spec: MutationSpec, master_seed: int, index: int,
               dims: ModelDims) -> bool:
    kind = spec.kind
    if kind is MutationKind.DROP_FEATURES:
        return _drop(c, spec.p, master_seed, index)
    if kind is MutationKind.DUPLICATE_FEATURES:
        return _duplicate(c, spec.p, dims.m, master_seed, index)
    if kind is MutationKind.WRONG_CLASS:
        return _corrupt(c, spec.p, master_seed, index)
    if kind is MutationKind.JITTER_CONTROL_POINTS:
        return _jitter(c, spec.sigma, master_seed, index)
    if kind is MutationKind.SHIFT_FEATURES:
        return _shift(c, spec.sigma, master_seed, index)
    if kind is MutationKind.LOCALIZATION_NOISE:
        return _localize(c, spec.sigma, spec.sigma_yaw_deg, master_seed, index)
    return _warp(c, spec.sigma, spec.perlin, master_seed, index)


def perturb_frames(
    frames: Sequence[MapFrame],
    recipe: PerturbRecipe,
    dims: ModelDims = DEFAULT_DIMS,
) -> list[MapFrame]:
    """apply_recipe on each frame, all frames at once: every mutation is one
    pass over the chunk's stacked columns, the final clip is one
    clip_features pass, and each output feature is built once. The output
    is bit for bit that of apply_recipe frame by frame."""
    c = _Columns(frames, words([stable_key(f.frame_id) for f in frames]))
    for index, spec in enumerate(recipe.mutations):
        if not len(c.sizes):  # no mutation adds a feature to none
            break
        if _apply_one(c, spec, recipe.master_seed, index, dims):
            _check_finite(c)
    return c.frames_out(dims.m)


def apply_recipe(
    frame: MapFrame,
    recipe: PerturbRecipe,
    dims: ModelDims = DEFAULT_DIMS,
) -> MapFrame:
    """Apply a recipe's mutations in order, then re-clip to the field of
    view so the output stays schema-valid after large shifts. The re-clip
    can split a feature into pieces, so the clipped frame keeps only its
    first dims.m features, the rule duplicate_features applies. Each
    mutation gets an independent stream keyed by (master seed, frame id,
    index). This is perturb_frames on one frame."""
    return perturb_frames([frame], recipe, dims)[0]
