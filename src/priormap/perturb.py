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
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .model import (
    DEFAULT_DIMS,
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    MapFeature,
    MapFrame,
    ModelDims,
    apply_rigid_transform,
    clip_to_fov,
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


_DISCRETE = {
    MutationKind.DROP_FEATURES,
    MutationKind.DUPLICATE_FEATURES,
    MutationKind.WRONG_CLASS,
}


#: Ceiling on sigma (meters) and sigma_yaw_deg (degrees): far beyond any
#: field of view, and small enough that no Gaussian draw times it, added to
#: a coordinate, overflows a double.
MAX_SIGMA = 1e6


@dataclass(frozen=True)
class MutationSpec:
    """One mutation with exactly the parameters its kind needs."""

    kind: MutationKind
    p: float | None = None
    sigma: float | None = None
    sigma_yaw_deg: float | None = None
    perlin: PerlinParams | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind in _DISCRETE:
            wanted, stray = ("p",), ("sigma", "sigma_yaw_deg", "perlin")
        elif kind in (MutationKind.JITTER_CONTROL_POINTS, MutationKind.SHIFT_FEATURES):
            wanted, stray = ("sigma",), ("p", "sigma_yaw_deg", "perlin")
        elif kind is MutationKind.LOCALIZATION_NOISE:
            wanted, stray = ("sigma", "sigma_yaw_deg"), ("p", "perlin")
        else:  # PERLIN_WARP; the perlin params block is optional
            wanted, stray = ("sigma",), ("p", "sigma_yaw_deg")
        for name in wanted:
            if getattr(self, name) is None:
                raise ValueError(f"{kind.value}: parameter '{name}' is required")
        for name in stray:
            if getattr(self, name) is not None:
                raise ValueError(f"{kind.value}: parameter '{name}' does not apply")
        for name in ("p", "sigma", "sigma_yaw_deg"):
            value = getattr(self, name)
            if value is None:
                continue
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and math.isfinite(value)):
                raise ValueError(f"{kind.value}: {name} must be a finite number, got {value!r}")
            if name == "p":
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{kind.value}: p must lie in [0, 1]")
            elif value < 0.0:
                raise ValueError(f"{kind.value}: {name} must be non-negative")
            elif value > MAX_SIGMA:
                raise ValueError(f"{kind.value}: {name} must be at most {MAX_SIGMA:g}")
        if kind is MutationKind.PERLIN_WARP and self.perlin is None:
            object.__setattr__(self, "perlin", PerlinParams())


@dataclass(frozen=True)
class PerturbRecipe:
    """Ordered mutation list plus the master seed that keys every stream."""

    mutations: tuple[MutationSpec, ...]
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mutations", tuple(self.mutations))
        object.__setattr__(self, "master_seed", int(self.master_seed))


_KIND_BY_VALUE = {k.value: k for k in MutationKind}
_PERLIN_KEYS = ("grid_scale", "octaves", "persistence", "lacunarity")


def recipe_from_dict(raw: Mapping) -> PerturbRecipe:
    """Parse a recipe config; unknown keys are rejected at every level."""
    rec = dict(raw)
    if "master_seed" not in rec:
        raise ValueError("recipe: missing 'master_seed'")
    seed = rec.pop("master_seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("recipe: 'master_seed' must be an integer")
    raw_muts = rec.pop("mutations", [])
    if rec:
        raise ValueError(f"recipe: unknown key(s): {', '.join(sorted(rec))}")
    if not isinstance(raw_muts, list):
        raise ValueError("recipe: 'mutations' must be a list")
    mutations = []
    for i, m in enumerate(raw_muts):
        where = f"recipe.mutations[{i}]"
        if not isinstance(m, dict):
            raise ValueError(f"{where}: expected an object")
        m = dict(m)
        kind_name = m.pop("kind", None)
        if kind_name not in _KIND_BY_VALUE:
            raise ValueError(f"{where}: unknown kind {kind_name!r}")
        perlin = None
        if "perlin" in m:
            praw = m.pop("perlin")
            if not isinstance(praw, dict):
                raise ValueError(f"{where}.perlin: expected an object")
            praw = dict(praw)
            kwargs = {k: praw.pop(k) for k in _PERLIN_KEYS if k in praw}
            if praw:
                raise ValueError(f"{where}.perlin: unknown key(s): {', '.join(sorted(praw))}")
            try:
                perlin = PerlinParams(**kwargs)
            except ValueError as exc:
                raise ValueError(f"{where}.perlin: {exc}") from None
        known = {k: m.pop(k) for k in ("p", "sigma", "sigma_yaw_deg") if k in m}
        if m:
            raise ValueError(f"{where}: unknown key(s): {', '.join(sorted(m))}")
        try:
            spec = MutationSpec(kind=_KIND_BY_VALUE[kind_name], perlin=perlin, **known)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        mutations.append(spec)
    return PerturbRecipe(mutations=tuple(mutations), master_seed=seed)


def recipe_to_dict(recipe: PerturbRecipe) -> dict:
    muts = []
    for m in recipe.mutations:
        rec: dict = {"kind": m.kind.value}
        if m.p is not None:
            rec["p"] = m.p
        if m.sigma is not None:
            rec["sigma"] = m.sigma
        if m.sigma_yaw_deg is not None:
            rec["sigma_yaw_deg"] = m.sigma_yaw_deg
        if m.kind is MutationKind.PERLIN_WARP:
            rec["perlin"] = {
                "grid_scale": m.perlin.grid_scale,
                "octaves": m.perlin.octaves,
                "persistence": m.perlin.persistence,
                "lacunarity": m.perlin.lacunarity,
            }
        muts.append(rec)
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
    DEFAULT_INVARIANCE and geometry is untouched."""
    if p == 0.0 or not frame.features:
        return frame
    out: list[MapFeature] = []
    for i, feat in enumerate(frame.features):
        gen = stream.feature(i)
        if gen.uniform() < p:
            others = [c for c in REAL_CLASSES if c is not feat.feature_class]
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
