"""Chamfer-distance mAP over predicted map frames.

Predictions and ground truth are matched greedily per frame and per class
in descending confidence order; a prediction claims the nearest unmatched
label when their symmetric Chamfer distance is within the threshold. The
distances are computed once per frame and class, as one matrix that every
threshold's matching reads. Average precision integrates the interpolated
precision envelope with a threshold sweep over confidence levels, which
makes the result invariant to frame and prediction ordering. The report
averages per-class AP over thresholds first, then over classes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import finite_number
from .model import (
    REAL_CLASSES,
    FeatureClass,
    MapFeature,
    MapFrame,
    resample_polyline,  # unused here; bench/tracing.py counts calls through it
)


#: Ceiling on densify: a pair of features densified to it is a 1000 x 1000
#: block of point distances, 8 MB per float64 array that chamfer_matrix
#: holds, while a value near 1e15 would ask numpy for petabytes.
MAX_DENSIFY = 1000


@dataclass(frozen=True)
class EvalConfig:
    """Thresholds are meters of Chamfer distance, strictly increasing.
    Predictions classified no-object or scored below the floor are dropped
    before matching. densify > 0 resamples features to that many points
    (at most MAX_DENSIFY) before the distance computation."""

    thresholds: tuple[float, ...] = (0.5, 1.0, 1.5)
    classes: tuple[FeatureClass, ...] = REAL_CLASSES
    score_floor: float = 0.05
    densify: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.thresholds, (list, tuple)):
            raise ValueError(f"thresholds must be a list of numbers, got {self.thresholds!r}")
        ts = tuple(float(finite_number(t, "thresholds")) for t in self.thresholds)
        if not ts or any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be positive and strictly increasing")
        if not isinstance(self.classes, (list, tuple)):
            raise ValueError(f"classes must be a list of class names, got {self.classes!r}")
        try:
            classes = tuple(map(FeatureClass, self.classes))
        except ValueError as exc:
            raise ValueError(f"classes: {exc}") from None
        finite_number(self.score_floor, "score_floor")
        densify = finite_number(self.densify, "densify")
        if not (isinstance(densify, numbers.Integral) and (densify == 0 or densify >= 2)):
            raise ValueError(f"densify must be 0 or an integer of at least 2, got {densify!r}")
        if densify > MAX_DENSIFY:
            raise ValueError(f"densify must be at most {MAX_DENSIFY}, got {densify!r}")
        object.__setattr__(self, "thresholds", ts)
        object.__setattr__(self, "classes", classes)


#: Most elements of the (rows, labels, na, nb) distance block that
#: chamfer_matrix holds at once (8 MB of float64 per block array).
_BLOCK_ELEMENTS = 1 << 20


def chamfer_matrix(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Symmetric Chamfer distance of every pair from a (P, na, 2) and a
    (G, nb, 2) point stack, as a (P, G) array.

    Each directed mean is taken over the last axis of a fresh array, so it
    sums in the same pairwise order as a 1-D mean and every entry equals
    the pair's distance computed alone, bit for bit. Rows and columns are
    split into blocks of at most _BLOCK_ELEMENTS point pairs (or of one
    feature pair, if that alone is larger), which changes no reduction
    order.
    """
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    out = np.empty((pa.shape[0], pb.shape[0]))
    pair_points = max(1, pa.shape[1] * pb.shape[1])
    cols = max(1, min(pb.shape[0], _BLOCK_ELEMENTS // pair_points))
    rows = max(1, _BLOCK_ELEMENTS // (cols * pair_points))
    for j in range(0, pb.shape[0], cols):
        b = pb[j : j + cols]
        for i in range(0, pa.shape[0], rows):
            a = pa[i : i + rows]
            dist = a[:, None, :, None, 0] - b[None, :, None, :, 0]
            dy = a[:, None, :, None, 1] - b[None, :, None, :, 1]
            dist *= dist
            dy *= dy
            dist += dy
            np.sqrt(dist, out=dist)
            out[i : i + rows, j : j + cols] = 0.5 * (
                dist.min(axis=3).mean(axis=-1) + dist.min(axis=2).mean(axis=-1)
            )
    return out


def chamfer_distance(a: MapFeature | np.ndarray, b: MapFeature | np.ndarray) -> float:
    """Symmetric Chamfer distance between two control-point sets: the mean
    of the two directed mean nearest-point distances."""
    pa = a.points if isinstance(a, MapFeature) else np.asarray(a, dtype=np.float64)
    pb = b.points if isinstance(b, MapFeature) else np.asarray(b, dtype=np.float64)
    return float(chamfer_matrix(pa[None], pb[None])[0, 0])


def _distance_rows(preds: Sequence[MapFeature], gts: Sequence[MapFeature]) -> list[list[float]]:
    """Chamfer distance of every (prediction, label) pair, one row per
    prediction: one chamfer_matrix call per pair of point counts."""
    dist = np.empty((len(preds), len(gts)))
    gt_groups = [(idx, np.stack([gts[j].points for j in idx])) for idx in _by_point_count(gts)]
    for idx in _by_point_count(preds):
        pa = np.stack([preds[i].points for i in idx])
        for gt_idx, pb in gt_groups:
            dist[np.ix_(idx, gt_idx)] = chamfer_matrix(pa, pb)
    return dist.tolist()


def _by_point_count(features: Sequence[MapFeature]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for k, f in enumerate(features):
        groups.setdefault(f.n_points, []).append(k)
    return list(groups.values())


def _confidence_order(preds: Sequence[MapFeature]) -> list[int]:
    return sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, i))


def _greedy_hits(dist: list[list[float]], order: list[int], n_gt: int, tau: float) -> list[bool]:
    """Greedy one-to-one matching over a distance matrix: in the given
    order each prediction takes the first strictly nearest untaken label if
    that distance is within tau. Returns whether each prediction, in order,
    is a true positive."""
    taken = [False] * n_gt
    hits = []
    for i in order:
        best_j = -1
        best_d = math.inf
        for j, d in enumerate(dist[i]):
            if d < best_d and not taken[j]:
                best_j = j
                best_d = d
        hit = best_j >= 0 and best_d <= tau
        if hit:
            taken[best_j] = True
        hits.append(hit)
    return hits


@dataclass
class FrameMatches:
    """Greedy matching outcome for one frame and one class."""

    tp_confidences: list[float] = field(default_factory=list)
    fp_confidences: list[float] = field(default_factory=list)
    fn: int = 0


def match_predictions(
    preds: Sequence[MapFeature], gts: Sequence[MapFeature], tau: float
) -> FrameMatches:
    """Greedy one-to-one matching within a class: in descending confidence
    order each prediction takes the lowest-Chamfer unmatched label if that
    distance is within tau, otherwise it is a false positive; leftover
    labels count as false negatives."""
    order = _confidence_order(preds)
    hits = _greedy_hits(_distance_rows(preds, gts), order, len(gts), tau)
    out = FrameMatches(fn=len(gts) - sum(hits))
    for i, hit in zip(order, hits):
        (out.tp_confidences if hit else out.fp_confidences).append(preds[i].confidence)
    return out


def average_precision(records: Sequence[tuple[float, bool]], n_gt: int) -> float | None:
    """Area under the interpolated precision-recall curve.

    records are (confidence, is_true_positive) pairs pooled over the
    dataset; recall is measured against the total label count. Equal
    confidences enter the curve together, so the result does not depend on
    input ordering. Returns None when there are no labels.
    """
    if n_gt <= 0:
        return None
    if not records:
        return 0.0
    confs = np.asarray([r[0] for r in records], dtype=np.float64)
    flags = np.asarray([r[1] for r in records], dtype=bool)
    order = np.argsort(-confs, kind="stable")
    confs = confs[order]
    flags = flags[order]
    # One PR point per distinct confidence level (threshold sweep).
    boundaries = np.nonzero(np.diff(confs))[0]
    cut = np.concatenate([boundaries, [len(confs) - 1]])
    tp = np.cumsum(flags)[cut].astype(np.float64)
    fp = np.cumsum(~flags)[cut].astype(np.float64)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * envelope).sum())


@dataclass(frozen=True)
class EvalReport:
    """AP per class and threshold, per-class means, the overall mAP, and
    aggregate TP/FP/FN counts per threshold."""

    ap: Mapping[FeatureClass, Mapping[float, float | None]]
    class_mean: Mapping[FeatureClass, float | None]
    mean_ap: float | None
    counts: Mapping[float, tuple[int, int, int]]
    config: EvalConfig

    def to_dict(self) -> dict:
        return {
            "ap": {
                cls.value: {f"{tau:g}": self.ap[cls][tau] for tau in self.config.thresholds}
                for cls in self.config.classes
            },
            "class_mean_ap": {cls.value: self.class_mean[cls] for cls in self.config.classes},
            "mean_ap": self.mean_ap,
            "counts": {
                f"{tau:g}": {"tp": c[0], "fp": c[1], "fn": c[2]}
                for tau, c in ((t, self.counts[t]) for t in self.config.thresholds)
            },
        }


def _usable_predictions(frame: MapFrame, config: EvalConfig) -> list[MapFeature]:
    return [
        f
        for f in frame.features
        if f.feature_class is not FeatureClass.NO_OBJECT and f.confidence >= config.score_floor
    ]


def pair_frames(
    pred_frames: Sequence[MapFrame], gt_frames: Sequence[MapFrame]
) -> list[tuple[MapFrame, MapFrame]]:
    """Pair frames 1:1 by frame id, in ground-truth order; mismatches raise
    with the offending ids listed."""
    pred_by_id = {f.frame_id: f for f in pred_frames}
    gt_by_id = {f.frame_id: f for f in gt_frames}
    if len(pred_by_id) != len(pred_frames) or len(gt_by_id) != len(gt_frames):
        raise ValueError("duplicate frame ids in input")
    missing_pred = sorted(set(gt_by_id) - set(pred_by_id))
    missing_gt = sorted(set(pred_by_id) - set(gt_by_id))
    if missing_pred or missing_gt:
        parts = []
        if missing_pred:
            parts.append(f"missing predictions for: {', '.join(missing_pred)}")
        if missing_gt:
            parts.append(f"missing ground truth for: {', '.join(missing_gt)}")
        raise ValueError("; ".join(parts))
    return [(pred_by_id[f.frame_id], f) for f in gt_frames]


def evaluate(
    pred_frames: Sequence[MapFrame],
    gt_frames: Sequence[MapFrame],
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Evaluate predicted frames against ground truth frames paired by id.

    Classes with no labels anywhere are excluded from the mAP mean; the
    mAP is the mean over remaining classes of the mean over thresholds.
    An error in the work on one frame names the frame.
    """
    pairs = pair_frames(pred_frames, gt_frames)
    records: dict[FeatureClass, dict[float, list[tuple[float, bool]]]] = {
        cls: {tau: [] for tau in config.thresholds} for cls in config.classes
    }
    n_gt: dict[FeatureClass, int] = {cls: 0 for cls in config.classes}
    for pred_frame, gt_frame in pairs:
        preds = _usable_predictions(pred_frame, config)
        gts = gt_frame.features
        if config.densify:
            try:
                preds = [f.resampled(config.densify) for f in preds]
                gts = [f.resampled(config.densify) for f in gts]
            except ValueError as exc:
                raise ValueError(f"frame {gt_frame.frame_id}: {exc}") from exc
        for cls in config.classes:
            cls_preds = [f for f in preds if f.feature_class is cls]
            cls_gts = [f for f in gts if f.feature_class is cls]
            n_gt[cls] += len(cls_gts)
            order = _confidence_order(cls_preds)
            confidences = [cls_preds[i].confidence for i in order]
            dist = _distance_rows(cls_preds, cls_gts)
            for tau in config.thresholds:
                hits = _greedy_hits(dist, order, len(cls_gts), tau)
                records[cls][tau].extend(zip(confidences, hits))
    ap: dict[FeatureClass, dict[float, float | None]] = {}
    class_mean: dict[FeatureClass, float | None] = {}
    for cls in config.classes:
        ap[cls] = {
            tau: average_precision(records[cls][tau], n_gt[cls]) for tau in config.thresholds
        }
        vals = [v for v in ap[cls].values() if v is not None]
        class_mean[cls] = float(np.mean(vals)) if vals else None
    present = [v for v in class_mean.values() if v is not None]
    mean_ap = float(np.mean(present)) if present else None
    counts = {}
    for tau in config.thresholds:
        hits = [hit for cls in config.classes for _, hit in records[cls][tau]]
        tp = sum(hits)
        counts[tau] = (tp, len(hits) - tp, sum(n_gt.values()) - tp)
    return EvalReport(ap=ap, class_mean=class_mean, mean_ap=mean_ap, counts=counts, config=config)
