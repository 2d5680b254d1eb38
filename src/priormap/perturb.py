"""Synthetic prior mutations and their seeded, ordered composition.

Discrete mutations change how many features a frame has or what class they
carry; continuous mutations warp geometry. Every mutation consumes its own
counter-based stream, so a recipe applied to a frame is a pure function of
(frame, recipe) regardless of worker count or evaluation order, and any
mutation with zero probability or zero magnitude returns its input
bit-identically.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Mapping

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
    apply_rigid_transform,
    clip_to_fov,
    ring_fault,
)
from .perlin import PerlinParams, WarpField
from .rng import MutationStream, stable_key


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


def drop_features(frame: MapFrame, p: float, stream: MutationStream) -> MapFrame:
    """Remove each feature independently with probability p, keeping
    survivor order."""
    if p == 0.0 or not frame.features:
        return frame
    kept = [
        f
        for i, f in enumerate(frame.features)
        if not stream.feature(i).uniform() < p
    ]
    return frame.with_features(kept)


def duplicate_features(
    frame: MapFrame, p: float, m_max: int, stream: MutationStream
) -> MapFrame:
    """Append an exact copy of each feature with probability p, inserted
    right after its source; excess copies beyond m_max are dropped in draw
    order."""
    if p == 0.0 or not frame.features:
        return frame
    flags = [stream.feature(i).uniform() < p for i in range(len(frame.features))]
    budget = max(0, m_max - len(frame.features))
    out: list[MapFeature] = []
    for feat, dup in zip(frame.features, flags):
        out.append(feat)
        if dup and budget > 0:
            out.append(feat)
            budget -= 1
    return frame.with_features(out)


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
    if p == 0.0 or not frame.features:
        return frame
    out: list[MapFeature] = []
    for i, feat in enumerate(frame.features):
        gen = stream.feature(i)
        if gen.uniform() < p:
            ring = ring_fault(feat.points) is None
            others = [c for c in REAL_CLASSES if c is not feat.feature_class
                      and (ring or DEFAULT_INVARIANCE[c] is not InvarianceClass.POLYGON)]
            new_class = others[int(gen.integers(len(others)))]
            feat = MapFeature(
                feature_class=new_class,
                invariance=DEFAULT_INVARIANCE[new_class],
                points=feat.points,
                confidence=feat.confidence,
            )
        out.append(feat)
    return frame.with_features(out)


def jitter_control_points(frame: MapFrame, sigma: float, stream: MutationStream) -> MapFrame:
    """Offset every coordinate of every control point by an independent
    zero-mean Gaussian draw of the given standard deviation."""
    if sigma == 0.0 or not frame.features:
        return frame
    out = []
    for i, feat in enumerate(frame.features):
        noise = stream.feature(i).standard_normal(feat.points.shape) * sigma
        out.append(feat.with_points(feat.points + noise))
    return frame.with_features(out)


def shift_features(frame: MapFrame, sigma: float, stream: MutationStream) -> MapFrame:
    """Translate each feature rigidly by one zero-mean Gaussian draw, so
    feature shape is preserved exactly up to floating point."""
    if sigma == 0.0 or not frame.features:
        return frame
    out = []
    for i, feat in enumerate(frame.features):
        delta = stream.feature(i).standard_normal(2) * sigma
        out.append(feat.with_points(feat.points + delta))
    return frame.with_features(out)


def localization_noise(
    frame: MapFrame, sigma_xy: float, sigma_yaw_deg: float, stream: MutationStream
) -> MapFrame:
    """Apply one global Gaussian yaw-and-position draw to the whole frame,
    mimicking a robot localization error the prior cannot explain away."""
    if sigma_xy == 0.0 and sigma_yaw_deg == 0.0:
        return frame
    gen = stream.frame()
    dx, dy = gen.standard_normal(2) * sigma_xy
    dyaw = math.radians(gen.standard_normal() * sigma_yaw_deg)
    return apply_rigid_transform(frame, float(dx), float(dy), dyaw)


def perlin_warp(
    frame: MapFrame, sigma: float, params: PerlinParams, stream: MutationStream
) -> MapFrame:
    """Displace every control point by a frame-wide coherent warp field
    sampled at the point's coordinates, all of the frame's points in one
    call."""
    if sigma == 0.0 or not frame.features:
        return frame
    seed = int(stream.frame().integers(0, 1 << 62))
    warp = WarpField(params, sigma, seed, fov_side=frame.fov_side)
    moved = np.concatenate([f.points for f in frame.features])
    moved += warp(moved)
    pieces = np.split(moved, np.cumsum([f.n_points for f in frame.features[:-1]]))
    return frame.with_features(f.with_points(q) for f, q in zip(frame.features, pieces))


def _apply_one(
    frame: MapFrame,
    spec: MutationSpec,
    stream: MutationStream,
    dims: ModelDims,
) -> MapFrame:
    kind = spec.kind
    if kind is MutationKind.DROP_FEATURES:
        return drop_features(frame, spec.p, stream)
    if kind is MutationKind.DUPLICATE_FEATURES:
        return duplicate_features(frame, spec.p, dims.m, stream)
    if kind is MutationKind.WRONG_CLASS:
        return corrupt_class(frame, spec.p, stream)
    if kind is MutationKind.JITTER_CONTROL_POINTS:
        return jitter_control_points(frame, spec.sigma, stream)
    if kind is MutationKind.SHIFT_FEATURES:
        return shift_features(frame, spec.sigma, stream)
    if kind is MutationKind.LOCALIZATION_NOISE:
        return localization_noise(frame, spec.sigma, spec.sigma_yaw_deg, stream)
    return perlin_warp(frame, spec.sigma, spec.perlin, stream)


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
    index)."""
    frame_key = stable_key(frame.frame_id)
    current = frame
    for index, spec in enumerate(recipe.mutations):
        stream = MutationStream(recipe.master_seed, frame_key, index)
        current = _apply_one(current, spec, stream, dims)
    clipped = clip_to_fov(current)
    return clipped.with_features(clipped.features[: dims.m])
