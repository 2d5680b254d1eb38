"""Shared builders for frames, features, and synthetic world maps."""
from __future__ import annotations

import numpy as np

from priormap import (
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
)


def line_feature(
    y: float = 0.0,
    x0: float = -30.0,
    x1: float = 30.0,
    n: int = 20,
    cls: FeatureClass = FeatureClass.LANE_CENTER,
    confidence: float = 1.0,
) -> MapFeature:
    pts = np.column_stack([np.linspace(x0, x1, n), np.full(n, y)])
    return MapFeature(cls, DEFAULT_INVARIANCE[cls], pts, confidence)


def ring_feature(
    cx: float = 0.0,
    cy: float = 0.0,
    radius: float = 5.0,
    n: int = 20,
    cls: FeatureClass = FeatureClass.DRIVEWAY,
    confidence: float = 1.0,
) -> MapFeature:
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])
    return MapFeature(cls, InvarianceClass.POLYGON, pts, confidence)


def random_feature(
    rng: np.random.Generator,
    n: int = 20,
    cls: FeatureClass | None = None,
    span: float = 80.0,
    confidence: float | None = None,
) -> MapFeature:
    """A smooth random polyline (or ring) well inside a span x span box. A
    ring has at least 3 points, as a polygon must."""
    if cls is None:
        cls = REAL_CLASSES[int(rng.integers(len(REAL_CLASSES)))]
    inv = DEFAULT_INVARIANCE[cls]
    half = span / 2.0 - 5.0
    if inv is InvarianceClass.POLYGON:
        cx, cy = rng.uniform(-half + 6, half - 6, 2)
        radius = rng.uniform(2.0, 5.0)
        ang = np.linspace(0.0, 2.0 * np.pi, max(n, 3), endpoint=False)
        wobble = 1.0 + 0.2 * np.sin(ang * int(rng.integers(1, 4)))
        pts = np.column_stack(
            [cx + radius * wobble * np.cos(ang), cy + radius * wobble * np.sin(ang)]
        )
    else:
        start = rng.uniform(-half, half, 2)
        heading = rng.uniform(0, 2 * np.pi)
        steps = rng.uniform(1.0, 3.0, n - 1)
        turns = rng.normal(0.0, 0.15, n - 1)
        pts = [start]
        for step, turn in zip(steps, turns):
            heading += turn
            nxt = pts[-1] + step * np.array([np.cos(heading), np.sin(heading)])
            pts.append(np.clip(nxt, -half, half))
        pts = np.asarray(pts)
    conf = confidence if confidence is not None else 1.0
    return MapFeature(cls, inv, pts, conf)


def random_frame(
    rng: np.random.Generator,
    frame_id: str = "frame",
    n_features: int = 8,
    n_points: int = 20,
    fov_side: float = 90.0,
) -> MapFrame:
    feats = tuple(random_feature(rng, n_points, span=fov_side) for _ in range(n_features))
    return MapFrame(frame_id, Pose2D(0.0, 0.0, 0.0), fov_side, feats)


def grid_world(
    n_blocks: int = 4,
    block: float = 120.0,
    n_points: int = 12,
) -> list[MapFeature]:
    """A deterministic grid of lanes, dividers, boundaries, and driveways
    covering roughly (n_blocks * block) meters per side, world frame."""
    feats: list[MapFeature] = []
    extent = n_blocks * block
    for k in range(n_blocks + 1):
        offset = k * block
        for cls, shift in (
            (FeatureClass.LANE_CENTER, 0.0),
            (FeatureClass.LANE_DIVIDER, 3.5),
            (FeatureClass.ROAD_BOUNDARY, 7.0),
        ):
            pts_h = np.column_stack(
                [np.linspace(0.0, extent, n_points), np.full(n_points, offset + shift)]
            )
            feats.append(MapFeature(cls, DEFAULT_INVARIANCE[cls], pts_h))
            pts_v = np.column_stack(
                [np.full(n_points, offset + shift), np.linspace(0.0, extent, n_points)]
            )
            feats.append(MapFeature(cls, DEFAULT_INVARIANCE[cls], pts_v))
    for bx in range(n_blocks):
        for by in range(n_blocks):
            cx = bx * block + block / 2.0
            cy = by * block + block / 2.0
            feats.append(ring_feature(cx, cy, radius=6.0, n=n_points))
    return feats
