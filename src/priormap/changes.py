"""Map-version change mining: diff two map versions, buffer the changed
areas into regions, find trajectory windows that see those regions, and cut
(outdated prior, current ground truth) scene pairs around poses.

Feature identity is taken from stable ids when both versions carry them;
otherwise the features of each class are matched geometrically by one
assignment that pairs as many features as it can within a Chamfer distance
gate and then takes the least total Chamfer distance. The gate separates a
moved feature from an unrelated add/remove pair.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .evaluation import chamfer_distance
from .matching import linear_sum_assignment
from .model import (
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
    clip_to_fov,
    resample_polyline,
    world_to_ego,
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in meters; intersection tests are closed (touching
    boundaries count)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def intersects(self, other: "Box") -> bool:
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def union(self, other: "Box") -> "Box":
        return Box(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "Box":
        return Box(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    def to_dict(self) -> dict:
        return {
            "min_x": self.min_x,
            "min_y": self.min_y,
            "max_x": self.max_x,
            "max_y": self.max_y,
        }


def feature_box(feature: MapFeature) -> Box:
    return Box(*feature.bounds())


@dataclass(frozen=True)
class MapVersion:
    """A world-frame map snapshot with per-feature stable ids."""

    version_id: str
    features: tuple[MapFeature, ...]
    feature_ids: tuple[str, ...]
    has_ids: bool
    extent: Box

    @classmethod
    def build(
        cls,
        version_id: str,
        features: Sequence[MapFeature],
        feature_ids: Sequence[str] | None = None,
    ) -> "MapVersion":
        feats = tuple(features)
        if feature_ids is None:
            ids = tuple(f"{i}" for i in range(len(feats)))
            has_ids = False
        else:
            ids = tuple(feature_ids)
            if len(ids) != len(feats):
                raise ValueError("feature_ids must match features in length")
            if len(set(ids)) != len(ids):
                raise ValueError("feature ids must be unique")
            has_ids = True
        if feats:
            boxes = [feature_box(f) for f in feats]
            extent = Box(
                min(b.min_x for b in boxes),
                min(b.min_y for b in boxes),
                max(b.max_x for b in boxes),
                max(b.max_y for b in boxes),
            )
        else:
            extent = Box(0.0, 0.0, 0.0, 0.0)
        return cls(
            version_id=version_id,
            features=feats,
            feature_ids=ids,
            has_ids=has_ids,
            extent=extent,
        )


@dataclass(frozen=True)
class ChangeReport:
    """Diff between two map versions. change_bounds carries one box per
    change (old and new geometry unioned for modifications) so regions can
    be derived without the source maps."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    modified: tuple[tuple[str, str, float], ...]
    change_bounds: tuple[Box, ...]
    regions: tuple[Box, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified)

    def to_dict(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "modified": [
                {"old_id": o, "new_id": n, "chamfer": c} for o, n, c in self.modified
            ],
            "regions": [b.to_dict() for b in self.regions],
        }


def _diff_by_ids(
    old: MapVersion, new: MapVersion, modify_tol: float
) -> tuple[list[str], list[str], list[tuple[str, str, float]], list[Box]]:
    old_by_id = dict(zip(old.feature_ids, old.features))
    new_by_id = dict(zip(new.feature_ids, new.features))
    removed = sorted(set(old_by_id) - set(new_by_id))
    added = sorted(set(new_by_id) - set(old_by_id))
    modified: list[tuple[str, str, float]] = []
    bounds = [feature_box(old_by_id[i]) for i in removed]
    bounds += [feature_box(new_by_id[i]) for i in added]
    for fid in sorted(set(old_by_id) & set(new_by_id)):
        d = chamfer_distance(old_by_id[fid], new_by_id[fid])
        if d > modify_tol:
            modified.append((fid, fid, d))
            bounds.append(feature_box(old_by_id[fid]).union(feature_box(new_by_id[fid])))
    return added, removed, modified, bounds


def diff_maps(
    old: MapVersion,
    new: MapVersion,
    modify_tol: float = 0.25,
    max_match_dist: float = 10.0,
) -> ChangeReport:
    """Diff two map versions into added, removed, and modified features.

    Without ids on both sides, each class is matched by one assignment:
    it pairs as many features as it can within the max_match_dist Chamfer
    gate, then takes the least total Chamfer distance. A feature left
    unpaired is a removal or an addition, so a feature moved beyond the gate
    shows as one of each. Matched pairs within modify_tol are unchanged;
    pairs above it are modified.
    """
    if not max_match_dist >= 0.0:
        raise ValueError(f"max_match_dist must be a non-negative distance, got {max_match_dist}")
    if old.has_ids and new.has_ids:
        added, removed, modified, bounds = _diff_by_ids(old, new, modify_tol)
        return ChangeReport(tuple(added), tuple(removed), tuple(modified), tuple(bounds))

    added: list[str] = []
    removed: list[str] = []
    modified: list[tuple[str, str, float]] = []
    bounds: list[Box] = []
    classes = sorted(
        {f.feature_class for f in old.features} | {f.feature_class for f in new.features},
        key=lambda c: c.value,
    )
    for cls in classes:
        old_idx = [i for i, f in enumerate(old.features) if f.feature_class is cls]
        new_idx = [j for j, f in enumerate(new.features) if f.feature_class is cls]
        # Chamfer distance is never below the gap between two bounding boxes,
        # so only pairs whose boxes lie within the gate can match.
        box_old = np.array([old.features[i].bounds() for i in old_idx]).reshape(-1, 1, 4)
        box_new = np.array([new.features[j].bounds() for j in new_idx]).reshape(1, -1, 4)
        gap = np.maximum(box_new[..., :2] - box_old[..., 2:], box_old[..., :2] - box_new[..., 2:])
        near = np.linalg.norm(np.maximum(gap, 0.0), axis=-1) <= max_match_dist
        cost = np.full(near.shape, np.inf)
        for a, b in zip(*np.nonzero(near)):
            cost[a, b] = chamfer_distance(old.features[old_idx[a]], new.features[new_idx[b]])
        gated = cost <= max_match_dist
        # Each gated cost is at most the gate, so this exceeds any total of
        # them: the solver pairs as many gated features as it can before it
        # minimizes their total. A huge cost (say 1e18) would round the gated
        # costs away in the solver's sums once a forbidden pair is forced in.
        forbidden = max_match_dist * min(len(old_idx), len(new_idx)) + 1.0
        rows, cols = linear_sum_assignment(np.where(gated, cost, forbidden))
        matched_old = set()
        matched_new = set()
        for a, b in zip(rows, cols):
            if not gated[a, b]:
                continue
            matched_old.add(a)
            matched_new.add(b)
            d = float(cost[a, b])
            if d > modify_tol:
                i, j = old_idx[a], new_idx[b]
                modified.append((old.feature_ids[i], new.feature_ids[j], d))
                bounds.append(feature_box(old.features[i]).union(feature_box(new.features[j])))
        for a, i in enumerate(old_idx):
            if a not in matched_old:
                removed.append(old.feature_ids[i])
                bounds.append(feature_box(old.features[i]))
        for b, j in enumerate(new_idx):
            if b not in matched_new:
                added.append(new.feature_ids[j])
                bounds.append(feature_box(new.features[j]))
    return ChangeReport(tuple(added), tuple(removed), tuple(modified), tuple(bounds))


def change_regions(report: ChangeReport, buffer: float = 20.0) -> tuple[Box, ...]:
    """Buffer each change's bounding box and merge overlapping boxes until
    stable; regions come back sorted by (min_x, min_y)."""
    boxes = [b.expanded(buffer) for b in report.change_bounds]
    merged = True
    while merged:
        merged = False
        out: list[Box] = []
        for box in boxes:
            for k, existing in enumerate(out):
                if existing.intersects(box):
                    out[k] = existing.union(box)
                    merged = True
                    break
            else:
                out.append(box)
        boxes = out
    return tuple(sorted(boxes, key=lambda b: (b.min_x, b.min_y, b.max_x, b.max_y)))


@dataclass(frozen=True)
class SceneWindow:
    """A fixed-duration trajectory slice anchored at the first pose whose
    field of view intersects a change region."""

    anchor_index: int
    t_start: float
    t_end: float
    pose_indices: tuple[int, ...]


def _fov_box(pose: Pose2D, fov_side: float) -> Box:
    # Axis-aligned in the world frame, ignoring yaw: a conservative
    # superset used only for the intersection test.
    half = fov_side / 2.0
    return Box(pose.x - half, pose.y - half, pose.x + half, pose.y + half)


def mine_frames(
    trajectory: Sequence[tuple[float, Pose2D]],
    regions: Sequence[Box],
    fov_side: float = 90.0,
    window: float = 30.0,
) -> list[SceneWindow]:
    """Scan a time-sorted trajectory for windows of the given duration in
    which at least one pose's FOV square intersects a change region; each
    window is anchored at its first intersecting pose and windows do not
    overlap."""
    times = [t for t, _ in trajectory]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory must be sorted by time")
    if not window >= 0.0:
        raise ValueError(f"window must be a non-negative duration, got {window}")
    hits = [
        any(_fov_box(pose, fov_side).intersects(region) for region in regions)
        for _, pose in trajectory
    ]
    windows: list[SceneWindow] = []
    i = 0
    n = len(trajectory)
    while i < n:
        if not hits[i]:
            i += 1
            continue
        t0 = times[i]
        t1 = t0 + window
        end = bisect.bisect_right(times, t1, lo=i)
        windows.append(
            SceneWindow(anchor_index=i, t_start=t0, t_end=t1, pose_indices=tuple(range(i, end)))
        )
        i = end
    return windows


@dataclass(frozen=True)
class ScenePair:
    """An (outdated prior, current ground truth) pair cropped to the same
    ego-centered field of view."""

    frame_id: str
    pose: Pose2D
    prior: MapFrame
    ground_truth: MapFrame


def _crop_version(
    version: MapVersion, pose: Pose2D, fov_side: float, n_points: int, frame_id: str
) -> MapFrame:
    # Coarse world-frame prefilter: anything reaching the FOV square at any
    # yaw lies within the circumscribed axis-aligned box.
    reach = fov_side * math.sqrt(2.0) / 2.0
    keep_box = Box(pose.x - reach, pose.y - reach, pose.x + reach, pose.y + reach)
    nearby = [f for f in version.features if keep_box.intersects(feature_box(f))]
    ego = [f.with_points(world_to_ego(f.points, pose)) for f in nearby]
    frame = MapFrame(frame_id=frame_id, ego_pose=pose, fov_side=fov_side, features=tuple(ego))
    clipped = clip_to_fov(frame)
    out = []
    for feat in clipped.features:
        closed = feat.invariance is InvarianceClass.POLYGON
        pts = resample_polyline(feat.points, n_points, closed=closed)
        out.append(replace(feat, points=pts, confidence=1.0))
    return clipped.with_features(out)


def build_scene_pair(
    old: MapVersion,
    new: MapVersion,
    pose: Pose2D,
    fov_side: float = 90.0,
    n_points: int = 20,
    frame_id: str | None = None,
) -> ScenePair:
    """Cut both map versions to the yaw-aligned FOV square around a pose:
    the old version becomes the prior, the new one the ground truth."""
    for version in (old, new):
        if not version.extent.contains_point(pose.x, pose.y):
            raise ValueError(
                f"pose ({pose.x:g}, {pose.y:g}) outside extent of map '{version.version_id}'"
            )
    fid = frame_id if frame_id is not None else f"pose_{pose.x:.3f}_{pose.y:.3f}"
    prior = _crop_version(old, pose, fov_side, n_points, fid)
    ground_truth = _crop_version(new, pose, fov_side, n_points, fid)
    return ScenePair(frame_id=fid, pose=pose, prior=prior, ground_truth=ground_truth)
