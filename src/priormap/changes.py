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
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class MapVersion:
    """A world-frame map snapshot with per-feature stable ids. Row i of the
    read-only (n, 4) `boxes` array is feature i's bounds()."""

    version_id: str
    features: tuple[MapFeature, ...]
    feature_ids: tuple[str, ...]
    has_ids: bool
    extent: Box
    boxes: np.ndarray = field(repr=False, compare=False)

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
        boxes = np.array([f.bounds() for f in feats], dtype=np.float64).reshape(-1, 4)
        boxes.flags.writeable = False
        extent = (
            Box(*boxes[:, :2].min(axis=0).tolist(), *boxes[:, 2:].max(axis=0).tolist())
            if feats else Box(0.0, 0.0, 0.0, 0.0)
        )
        return cls(version_id, feats, ids, has_ids, extent, boxes)

    def box(self, i: int) -> Box:
        return Box(*self.boxes[i].tolist())


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
    old_at = {fid: i for i, fid in enumerate(old.feature_ids)}
    new_at = {fid: j for j, fid in enumerate(new.feature_ids)}
    removed = sorted(set(old_at) - set(new_at))
    added = sorted(set(new_at) - set(old_at))
    modified: list[tuple[str, str, float]] = []
    bounds = [old.box(old_at[fid]) for fid in removed]
    bounds += [new.box(new_at[fid]) for fid in added]
    for fid in sorted(set(old_at) & set(new_at)):
        i, j = old_at[fid], new_at[fid]
        d = chamfer_distance(old.features[i], new.features[j])
        if d > modify_tol:
            modified.append((fid, fid, d))
            bounds.append(old.box(i).union(new.box(j)))
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
        box_old = old.boxes[old_idx].reshape(-1, 1, 4)
        box_new = new.boxes[new_idx].reshape(1, -1, 4)
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
                bounds.append(old.box(i).union(new.box(j)))
        for a, i in enumerate(old_idx):
            if a not in matched_old:
                removed.append(old.feature_ids[i])
                bounds.append(old.box(i))
        for b, j in enumerate(new_idx):
            if b not in matched_new:
                added.append(new.feature_ids[j])
                bounds.append(new.box(j))
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


#: Poses tested against the regions per array comparison in mine_frames.
_POSE_CHUNK = 4096


def _overlaps(lo: np.ndarray, hi: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(k, r) closed-overlap test, as Box.intersects, between the boxes with
    corners lo[i], hi[i] and the (r, 4) boxes."""
    return (
        (lo[:, None, 0] <= boxes[:, 2])
        & (boxes[:, 0] <= hi[:, None, 0])
        & (lo[:, None, 1] <= boxes[:, 3])
        & (boxes[:, 1] <= hi[:, None, 1])
    )


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
    # Each pose's FOV square, axis-aligned in the world frame and ignoring
    # yaw: a conservative superset used only for the intersection test.
    half = fov_side / 2.0
    centers = np.array([(p.x, p.y) for _, p in trajectory]).reshape(-1, 2)
    boxes = np.array([(r.min_x, r.min_y, r.max_x, r.max_y) for r in regions]).reshape(-1, 4)
    hits: list[bool] = []
    for c in np.split(centers, range(_POSE_CHUNK, len(centers), _POSE_CHUNK)):
        hits += _overlaps(c - half, c + half, boxes).any(axis=1).tolist()
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
    center = np.array([[pose.x, pose.y]])
    keep = _overlaps(center - reach, center + reach, version.boxes)[0]
    nearby = [version.features[i] for i in np.flatnonzero(keep)]
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
