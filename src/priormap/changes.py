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
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from .evaluation import (
    chamfer_distance,  # unused here; bench/tracing.py counts calls through it
    chamfer_pairs,
)
from .model import (
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
    clip_pieces,
    clip_to_fov,  # unused here; bench/tracing.py times calls through it
    group_indices,
    resample_polyline,  # unused here; bench/tracing.py counts calls through it
    resampled_pieces,
    ring_fault,
    world_to_ego,
)
from .solver import linear_sum_assignment


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


def _bounds(features: Sequence[MapFeature]) -> np.ndarray:
    """The (k, 4) rows of each feature's bounds(), in one pass per point
    count over the features of that count. Each column is reduced in point
    order, as bounds() reduces it, so a tie between 0.0 and -0.0 resolves
    the same way (np.minimum.reduceat resolves some differently)."""
    boxes = np.empty((len(features), 4))
    for rows in group_indices(f.n_points for f in features).values():
        block = np.stack([features[i].points for i in rows])
        boxes[rows, :2] = block.min(axis=1)
        boxes[rows, 2:] = block.max(axis=1)
    return boxes


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
        boxes = _bounds(feats)
        boxes.flags.writeable = False
        extent = (
            Box(*boxes[:, :2].min(axis=0).tolist(), *boxes[:, 2:].max(axis=0).tolist())
            if feats else Box(0.0, 0.0, 0.0, 0.0)
        )
        return cls(version_id, feats, ids, has_ids, extent, boxes)


@dataclass(frozen=True)
class ChangeReport:
    """Diff between two map versions. The read-only (k, 4) change_bounds
    array holds one box per change, removed then added then modified (old
    and new geometry unioned), so regions need not read the source maps."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    modified: tuple[tuple[str, str, float], ...]
    change_bounds: np.ndarray = field(repr=False, compare=False)
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
            "regions": [asdict(b) for b in self.regions],
        }


def _report(
    old: MapVersion, new: MapVersion, removed: list[int], added: list[int],
    matched: list[tuple[int, int, float]], modify_tol: float,
) -> ChangeReport:
    """The report of removed old rows, added new rows and matched (old row,
    new row, chamfer) triples, each in output order; a matched pair above
    modify_tol is modified."""
    modified = [(i, j, d) for i, j, d in matched if d > modify_tol]
    i_mod = [i for i, _, _ in modified]
    j_mod = [j for _, j, _ in modified]
    unions = np.hstack([np.minimum(old.boxes[i_mod, :2], new.boxes[j_mod, :2]),
                        np.maximum(old.boxes[i_mod, 2:], new.boxes[j_mod, 2:])])
    bounds = np.concatenate([old.boxes[removed], new.boxes[added], unions])
    bounds.flags.writeable = False
    return ChangeReport(
        added=tuple(new.feature_ids[j] for j in added),
        removed=tuple(old.feature_ids[i] for i in removed),
        modified=tuple((old.feature_ids[i], new.feature_ids[j], d) for i, j, d in modified),
        change_bounds=bounds,
    )


def diff_maps(
    old: MapVersion,
    new: MapVersion,
    modify_tol: float = 0.25,
    max_match_dist: float = 10.0,
) -> ChangeReport:
    """Diff two map versions into added, removed, and modified features.

    With ids on both sides, features are joined on their ids. Without,
    each class is matched by one assignment: it pairs as many features as it
    can within the max_match_dist Chamfer gate, then takes the least total
    Chamfer distance. A feature left unpaired is a removal or an addition,
    so a feature moved beyond the gate shows as one of each. Matched pairs
    within modify_tol are unchanged; pairs above it are modified.
    """
    if not modify_tol >= 0.0:
        raise ValueError(f"modify_tol must be a non-negative distance, got {modify_tol}")
    if not max_match_dist >= 0.0:
        raise ValueError(f"max_match_dist must be a non-negative distance, got {max_match_dist}")
    if old.has_ids and new.has_ids:
        old_at = {fid: i for i, fid in enumerate(old.feature_ids)}
        new_at = {fid: j for j, fid in enumerate(new.feature_ids)}
        removed = [old_at[fid] for fid in sorted(old_at.keys() - new_at.keys())]
        added = [new_at[fid] for fid in sorted(new_at.keys() - old_at.keys())]
        pairs = [(old_at[fid], new_at[fid]) for fid in sorted(old_at.keys() & new_at.keys())]
        dist = chamfer_pairs([old.features[i].points for i, _ in pairs],
                             [new.features[j].points for _, j in pairs])
        matched = [(i, j, d) for (i, j), d in zip(pairs, dist.tolist())]
        return _report(old, new, removed, added, matched, modify_tol)

    removed, added, matched = [], [], []
    classes = sorted(
        {f.feature_class for f in old.features} | {f.feature_class for f in new.features},
        key=lambda c: c.value,
    )
    for cls in classes:
        old_idx = np.flatnonzero([f.feature_class is cls for f in old.features])
        new_idx = np.flatnonzero([f.feature_class is cls for f in new.features])
        # Chamfer distance is never below the gap between two bounding boxes,
        # so only pairs whose boxes lie within the gate can match.
        box_old = old.boxes[old_idx].reshape(-1, 1, 4)
        box_new = new.boxes[new_idx].reshape(1, -1, 4)
        gap = np.maximum(box_new[..., :2] - box_old[..., 2:], box_old[..., :2] - box_new[..., 2:])
        near = np.linalg.norm(np.maximum(gap, 0.0), axis=-1) <= max_match_dist
        cost = np.full(near.shape, np.inf)
        a, b = np.nonzero(near)
        cost[a, b] = chamfer_pairs([old.features[i].points for i in old_idx[a].tolist()],
                                   [new.features[j].points for j in new_idx[b].tolist()])
        gated = cost <= max_match_dist
        # Each gated cost is at most the gate, so this exceeds any total of
        # them: the solver pairs as many gated features as it can before it
        # minimizes their total. A huge cost (say 1e18) would round the gated
        # costs away in the solver's sums once a forbidden pair is forced in.
        forbidden = max_match_dist * min(len(old_idx), len(new_idx)) + 1.0
        rows, cols = linear_sum_assignment(np.where(gated, cost, forbidden))
        keep = gated[rows, cols]
        rows, cols = rows[keep], cols[keep]
        matched += zip(old_idx[rows].tolist(), new_idx[cols].tolist(), cost[rows, cols].tolist())
        removed += np.delete(old_idx, rows).tolist()
        added += np.delete(new_idx, cols).tolist()
    return _report(old, new, removed, added, matched, modify_tol)


def _overlaps(lo: np.ndarray, hi: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(k, r) closed-overlap test, as Box.intersects, between the boxes with
    corners lo[i], hi[i] and the (r, 4) boxes."""
    return (
        (lo[:, None, 0] <= boxes[:, 2])
        & (boxes[:, 0] <= hi[:, None, 0])
        & (lo[:, None, 1] <= boxes[:, 3])
        & (boxes[:, 1] <= hi[:, None, 1])
    )


def change_regions(report: ChangeReport, buffer: float = 20.0) -> tuple[Box, ...]:
    """Buffer each change's bounding box and merge overlapping boxes until
    no two overlap; regions come back sorted by (min_x, min_y, max_x, max_y).

    The regions are the finest grouping of the buffered boxes whose group
    boxes are pairwise disjoint. Every merge is forced in any such grouping,
    so it is unique and does not depend on the order of the changes.
    """
    if not 0.0 <= buffer < math.inf:
        raise ValueError(f"buffer must be a finite non-negative distance, got {buffer}")
    boxes = report.change_bounds + np.array([-buffer, -buffer, buffer, buffer])
    merged = True
    while merged:
        out = np.empty_like(boxes)
        k = 0
        for box in boxes:
            hit = np.flatnonzero(_overlaps(box[None, :2], box[None, 2:], out[:k])[0])
            if hit.size:
                j = hit[0]
                out[j, :2] = np.minimum(out[j, :2], box[:2])
                out[j, 2:] = np.maximum(out[j, 2:], box[2:])
            else:
                out[k] = box
                k += 1
        merged = k < len(boxes)
        boxes = out[:k]
    return tuple(Box(*b) for b in sorted(boxes.tolist()))


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
    if not 0.0 <= window < math.inf:
        raise ValueError(f"window must be a finite non-negative duration, got {window}")
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


def _crop(version: MapVersion, frames: Sequence[MapFrame], n_points: int) -> list[MapFrame]:
    """Each frame, empty and of one fov_side, filled with the version's
    features in its field of view, in its ego frame, each piece resampled
    to n_points with confidence 1: in one pass over all frames."""
    if not frames:
        return []
    fov_side = frames[0].fov_side
    # Coarse world-frame prefilter: anything reaching the FOV square at any
    # yaw lies within the circumscribed axis-aligned box. Frame w takes the
    # features item[window == w], in feature order.
    reach = fov_side * math.sqrt(2.0) / 2.0
    centers = np.array([(f.ego_pose.x, f.ego_pose.y) for f in frames])
    window, item = np.nonzero(_overlaps(centers - reach, centers + reach, version.boxes))
    feats = [version.features[i] for i in item.tolist()]
    sizes = np.fromiter(map(attrgetter("n_points"), feats), dtype=np.intp, count=len(feats))
    ego = np.concatenate([f.points for f in feats]) if feats else np.empty((0, 2))
    # One transform per frame, over the points of all its features.
    starts = np.concatenate([[0], np.cumsum(sizes)])
    rows = starts[np.searchsorted(window, range(len(frames) + 1))].tolist()
    for frame, a, b in zip(frames, rows, rows[1:]):
        ego[a:b] = world_to_ego(ego[a:b], frame.ego_pose)
    if not np.isfinite(ego).all():
        raise ValueError("points must be finite (no NaN/Inf)")
    polygon = np.fromiter((f.invariance is InvarianceClass.POLYGON for f in feats), dtype=bool,
                          count=len(feats))
    source, pieces, _ = clip_pieces(ego, sizes, polygon, fov_side / 2.0)
    out = resampled_pieces(list(map(feats.__getitem__, source.tolist())), pieces, n_points,
                           confidence=1.0)
    # The one MapFeature check that resampled_pieces skips: the polygon rule.
    for feat in out:
        fault = ring_fault(feat.points) if feat.invariance is InvarianceClass.POLYGON else None
        if fault:
            raise ValueError(fault)
    ends = np.searchsorted(window[source], range(len(frames) + 1)).tolist()
    return [frame.with_features(out[a:b]) for frame, a, b in zip(frames, ends, ends[1:])]


def build_scene_pairs(
    old: MapVersion,
    new: MapVersion,
    poses: Sequence[Pose2D],
    fov_side: float = 90.0,
    n_points: int = 20,
    frame_ids: Sequence[str] | None = None,
) -> list[ScenePair]:
    """Cut both map versions to the yaw-aligned FOV square around each pose,
    in one pass per version: the old version becomes the prior, the new
    one the ground truth. Pair k is named frame_ids[k], by default after
    its pose's position."""
    for pose in poses:
        for version in (old, new):
            if not version.extent.contains_point(pose.x, pose.y):
                raise ValueError(
                    f"pose ({pose.x:g}, {pose.y:g}) outside extent of map '{version.version_id}'"
                )
    if frame_ids is None:
        frame_ids = [f"pose_{pose.x:.3f}_{pose.y:.3f}" for pose in poses]
    if len(frame_ids) != len(poses):
        raise ValueError("frame_ids must match poses in length")
    frames = [MapFrame(frame_id=fid, ego_pose=pose, fov_side=fov_side)
              for fid, pose in zip(frame_ids, poses)]
    priors = _crop(old, frames, n_points)
    truths = _crop(new, frames, n_points)
    return [ScenePair(f.frame_id, f.ego_pose, prior, truth)
            for f, prior, truth in zip(frames, priors, truths)]


def build_scene_pair(
    old: MapVersion,
    new: MapVersion,
    pose: Pose2D,
    fov_side: float = 90.0,
    n_points: int = 20,
    frame_id: str | None = None,
) -> ScenePair:
    """build_scene_pairs at one pose."""
    frame_ids = None if frame_id is None else [frame_id]
    return build_scene_pairs(old, new, [pose], fov_side, n_points, frame_ids)[0]
