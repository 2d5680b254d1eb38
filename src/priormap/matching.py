"""Single-stage set-matching loss for vectorized map features.

The pairwise cost between a prediction and a label is the L1 distance over
control points, minimized over the label's symmetry group (identity for
directed polylines, reversal for undirected ones, all cyclic shifts of
both orientations for polygons). Each invariance class is costed in one
pass over its own label columns, so the class matrices partition cleanly;
a focal classification cost and an optional edge-direction penalty are
blended in, and one Hungarian pass on the combined matrix yields the
optimal assignment whose matched entries are summed directly. All
tie-breaks (permutation argmin, assignment) are deterministic, so results
are stable across runs, platforms, and worker counts.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import finite_number
from .model import (
    DEFAULT_DIMS,
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    ModelDims,
    pad_to_fixed,
    resample_polyline,  # unused here; bench/tracing.py counts calls through it
)

#: Column order of class-score vectors; the no-object score sits last.
SCORE_CLASSES: tuple[FeatureClass, ...] = REAL_CLASSES + (FeatureClass.NO_OBJECT,)
_SCORE_INDEX = {c: i for i, c in enumerate(SCORE_CLASSES)}

_PROB_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Blend weights for the combined cost matrix.

    combined = class_weight * focal
             + point_weight * (point_cost + cosine_weight * edge_penalty)

    The edge-direction penalty is evaluated under the L1-minimizing
    permutation by default; with joint_cosine the permutation minimizes
    the positional and direction terms together.
    """

    class_weight: float = 2.0
    point_weight: float = 5.0
    cosine_weight: float = 0.02
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    joint_cosine: bool = False

    def __post_init__(self) -> None:
        for name in ("class_weight", "point_weight", "cosine_weight", "focal_alpha", "focal_gamma"):
            if finite_number(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not isinstance(self.joint_cosine, bool):
            raise ValueError(f"joint_cosine must be true or false, got {self.joint_cosine!r}")


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Fixed-size prediction tensor: points (m, n, 2) and class-score rows
    over SCORE_CLASSES that each sum to one."""

    points: np.ndarray
    class_scores: np.ndarray

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        scores = np.ascontiguousarray(self.class_scores, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError(f"points must have shape (m, n, 2), got {pts.shape}")
        if scores.shape != (pts.shape[0], len(SCORE_CLASSES)):
            raise ValueError(
                f"class_scores must have shape ({pts.shape[0]}, {len(SCORE_CLASSES)})"
            )
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(scores)):
            raise ValueError("prediction tensors must be finite")
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("class scores must lie in [0, 1]")
        if not np.allclose(scores.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("class score rows must sum to 1")
        pts.flags.writeable = False
        scores.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "class_scores", scores)

    @property
    def m(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Fixed-size label tensor: points (m, n, 2) with per-row semantic and
    invariance classes; padded rows carry NO_OBJECT."""

    points: np.ndarray
    classes: tuple[FeatureClass, ...]
    invariances: tuple[InvarianceClass, ...]

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError(f"points must have shape (m, n, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("label points must be finite")
        if len(self.classes) != pts.shape[0] or len(self.invariances) != pts.shape[0]:
            raise ValueError("classes and invariances must have one entry per row")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "invariances", tuple(self.invariances))

    @property
    def m(self) -> int:
        return self.points.shape[0]


def _padded(frame: MapFrame, dims: ModelDims) -> tuple[tuple[MapFeature, ...], np.ndarray]:
    """A frame's features resampled to dims.n_points and padded to dims.m
    slots, with their stacked (m, n_points, 2) points."""
    padded = pad_to_fixed([f.resampled(dims.n_points) for f in frame.features], dims)
    return padded, np.stack([f.points for f in padded])


def label_set_from_frame(frame: MapFrame, dims: ModelDims = DEFAULT_DIMS) -> LabelSet:
    """Stack a frame's features into a padded label tensor."""
    padded, points = _padded(frame, dims)
    return LabelSet(
        points=points,
        classes=tuple(f.feature_class for f in padded),
        invariances=tuple(f.invariance for f in padded),
    )


def prediction_set_from_frame(frame: MapFrame, dims: ModelDims = DEFAULT_DIMS) -> PredictionSet:
    """Stack a predicted frame into a prediction tensor.

    A feature's score vector puts its confidence on its class and the
    remaining mass on no-object; padded slots score no-object outright.
    """
    padded, points = _padded(frame, dims)
    scores = np.zeros((dims.m, len(SCORE_CLASSES)), dtype=np.float64)
    for i, feat in enumerate(padded):
        if feat.feature_class is FeatureClass.NO_OBJECT:
            scores[i, _SCORE_INDEX[FeatureClass.NO_OBJECT]] = 1.0
        else:
            scores[i, _SCORE_INDEX[feat.feature_class]] = feat.confidence
            scores[i, _SCORE_INDEX[FeatureClass.NO_OBJECT]] = 1.0 - feat.confidence
    return PredictionSet(points=points, class_scores=scores)


@functools.lru_cache(maxsize=None)
def valid_permutations(invariance: InvarianceClass, n_points: int) -> np.ndarray:
    """Enumerate the symmetry group of an invariance class as a read-only
    (count, n_points) array of index rows, in canonical order (identity
    first, then reversal, then their shifts).

    Directed polylines admit only the identity; undirected ones add the
    reversal; polygons admit every cyclic shift of both orientations
    (2 * n_points entries, deduplicated for n_points = 2).
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    ident = tuple(range(n_points))
    if invariance is InvarianceClass.DIRECTED_POLYLINE:
        rows = [ident]
    elif invariance is InvarianceClass.UNDIRECTED_POLYLINE:
        rows = [ident, ident[::-1]]
    else:
        rows = [ring[s:] + ring[:s] for ring in (ident, ident[::-1]) for s in range(n_points)]
    perms = np.asarray(list(dict.fromkeys(rows)), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def _edge_penalty(pe: np.ndarray, le: np.ndarray) -> np.ndarray:
    """Mean (1 - cos) between paired prediction and label edges, given
    edge arrays that broadcast to (..., m, k, n - 1, 2).

    Edge pairs where either edge has zero length contribute penalty 1.
    """
    dot = pe[..., 0] * le[..., 0] + pe[..., 1] * le[..., 1]
    # sqrt of the squared-norm product keeps cos exactly +-1 for exactly
    # parallel or antiparallel edge pairs
    nsq_p = pe[..., 0] * pe[..., 0] + pe[..., 1] * pe[..., 1]
    nsq_l = le[..., 0] * le[..., 0] + le[..., 1] * le[..., 1]
    denom = np.sqrt(nsq_p * nsq_l)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0.0, dot / denom, 0.0)
    # The mean's summation order follows the memory layout, and loss
    # reports depend on it bit for bit. With prediction rows innermost and
    # edges next, the edges add one after another (pairwise for a one-slot
    # frame), the order the reference build in the tests pins.
    terms = np.ascontiguousarray(np.moveaxis(1.0 - cos, -3, -1))  # (..., k, n-1, m)
    return np.moveaxis(terms.mean(axis=-2), -1, -2)


def _class_pass(
    pred_points: np.ndarray, label_points: np.ndarray, perms: np.ndarray, joint_weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetry-minimized L1 cost and edge penalty of every prediction
    against the label columns of one invariance class, both under each
    pair's selected permutation.

    The permutation argmin breaks ties toward the lowest canonical index;
    with a non-zero joint weight it runs on the blended positional-plus-
    direction objective, which needs the penalty under every permutation.
    """
    permuted = pred_points[:, perms, :]  # (m, P, n, 2)
    diff = np.moveaxis(permuted, 1, 0)[:, :, None, :, :] - label_points[None, None]
    l1 = np.abs(diff).sum(axis=(3, 4))  # (P, m, k)
    pred_edges = np.diff(permuted, axis=2)  # (m, P, n-1, 2)
    label_edges = np.diff(label_points, axis=1)  # (k, n-1, 2)
    if joint_weight:
        penalty = _edge_penalty(np.moveaxis(pred_edges, 1, 0)[:, :, None], label_edges)
        selected = (l1 + joint_weight * penalty).argmin(axis=0)  # first minimum wins
        chosen = np.take_along_axis(penalty, selected[None], axis=0)[0]
    else:
        selected = l1.argmin(axis=0)  # first minimum wins
        rows = np.arange(pred_points.shape[0])[:, None]
        chosen = _edge_penalty(pred_edges[rows, selected], label_edges)
    cost = np.take_along_axis(l1, selected[None], axis=0)[0]
    return cost, chosen


def _class_columns(labels: LabelSet, invariance: InvarianceClass) -> np.ndarray:
    """Boolean mask of the label columns of one invariance class, no-object
    pads excluded."""
    return np.array(
        [
            inv is invariance and cls is not FeatureClass.NO_OBJECT
            for cls, inv in zip(labels.classes, labels.invariances)
        ],
        dtype=bool,
    )


def point_cost_matrix(
    pred: PredictionSet, labels: LabelSet, invariance: InvarianceClass
) -> np.ndarray:
    """Pairwise symmetry-minimized L1 cost for one invariance class; label
    columns of any other class (including no-object pads) are zero. Each
    class's columns of the point total hold exactly that class's cost."""
    total = combined_cost_matrix(pred, labels).point_total
    return np.where(_class_columns(labels, invariance), total, 0.0)


def point_cost_total(pred: PredictionSet, labels: LabelSet) -> np.ndarray:
    """Sum of the three class matrices. The class columns partition the
    label indices, so each column equals exactly one class matrix column."""
    return combined_cost_matrix(pred, labels).point_total


def edge_direction_penalty(
    pred: PredictionSet, labels: LabelSet, joint_cosine_weight: float | None = None
) -> np.ndarray:
    """Pairwise mean (1 - cos) between consecutive prediction and label
    edges, evaluated under each pair's selected permutation; masked columns
    are zero and zero-length edges contribute penalty 1."""
    weights = LossWeights()
    if joint_cosine_weight:
        weights = LossWeights(cosine_weight=joint_cosine_weight, joint_cosine=True)
    return combined_cost_matrix(pred, labels, weights).cosine


def focal_cost_matrix(
    pred: PredictionSet, labels: LabelSet, alpha: float = 0.25, gamma: float = 2.0
) -> np.ndarray:
    """Pairwise focal matching cost of each prediction for each label's
    class (positive-minus-negative form); no-object columns use the
    no-object score. Probabilities are clamped away from 0 and 1."""
    cols = np.array([_SCORE_INDEX[c] for c in labels.classes], dtype=np.intp)
    p = pred.class_scores[:, cols]  # (predictions, labels)
    p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    positive = alpha * (1.0 - p) ** gamma * (-np.log(p))
    negative = (1.0 - alpha) * p**gamma * (-np.log(1.0 - p))
    return positive - negative


@dataclass(frozen=True, eq=False)
class LossMatrices:
    """All pairwise cost matrices feeding the assignment step."""

    point_total: np.ndarray
    focal: np.ndarray
    cosine: np.ndarray
    combined: np.ndarray


def combined_cost_matrix(
    pred: PredictionSet, labels: LabelSet, weights: LossWeights = LossWeights()
) -> LossMatrices:
    """Blend focal, positional, and edge-direction costs into the single
    matrix the Hungarian step minimizes; component matrices ride along for
    introspection.

    Each invariance class is costed in one pass over its own label
    columns; no-object pads and other classes' columns stay zero.
    """
    if pred.points.shape != labels.points.shape:
        raise ValueError(
            f"shape mismatch: predictions {pred.points.shape} vs labels {labels.points.shape}"
        )
    joint = weights.cosine_weight if weights.joint_cosine else 0.0
    point_total = np.zeros((pred.m, labels.m), dtype=np.float64)
    cosine = np.zeros((pred.m, labels.m), dtype=np.float64)
    for invariance in InvarianceClass:
        cols = np.flatnonzero(_class_columns(labels, invariance))
        if not cols.size:
            continue
        perms = valid_permutations(invariance, pred.points.shape[1])
        cost, chosen = _class_pass(pred.points, labels.points[cols], perms, joint)
        point_total[:, cols] = cost
        cosine[:, cols] = chosen
    focal = focal_cost_matrix(pred, labels, weights.focal_alpha, weights.focal_gamma)
    combined = weights.class_weight * focal + weights.point_weight * (
        point_total + weights.cosine_weight * cosine
    )
    return LossMatrices(
        point_total=point_total,
        focal=focal,
        cosine=cosine,
        combined=combined,
    )


@dataclass(frozen=True)
class MatchResult:
    """A perfect matching: assignment[i] is the label index matched to
    prediction i; total_loss is the sum of the matched cost entries."""

    assignment: tuple[int, ...]
    total_loss: float
    pair_losses: tuple[float, ...]


def _lsap_spec() -> importlib.machinery.ModuleSpec | None:
    """The spec of scipy's compiled `optimize/_lsap` extension, found
    without importing scipy, or None."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    dirs = [os.path.join(d, "optimize") for d in scipy_spec.submodule_search_locations]
    return importlib.machinery.PathFinder.find_spec("_lsap", dirs)


def _load_solver():
    """scipy's rectangular assignment solver. The compiled kernel is loaded
    on its own, because importing the scipy.optimize package around it
    takes about three times as long as importing numpy; a layout where the
    kernel is not an extension exposing the solver falls back to the
    package import."""
    spec = _lsap_spec()
    if spec is not None and isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        solve = getattr(module, "linear_sum_assignment", None)
        if callable(solve):
            return solve
    from scipy.optimize import linear_sum_assignment as solve

    return solve


_solver = None
_solver_lock = threading.Lock()


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's rectangular assignment solver, loaded once per process at
    the first solve: of the subcommands only `loss`, `diff` and `mine`
    solve assignments, so the others load no solver at all."""
    global _solver
    if _solver is None:
        with _solver_lock:
            if _solver is None:
                _solver = _load_solver()
    return _solver(cost)


def _lexicographic_refine(cost: np.ndarray, base_cols: np.ndarray) -> np.ndarray:
    """Among all minimum-cost assignments, pick the lexicographically
    smallest assignment vector.

    Rows are fixed in order; for each row the smallest column admitting an
    optimal completion wins. Totals are compared with exactly rounded sums
    so equal-cost completions are recognized reliably.
    """
    m = cost.shape[0]
    optimum = math.fsum(cost[i, base_cols[i]] for i in range(m))
    current = list(base_cols)
    available = sorted(range(m))
    fixed_entries: list[float] = []
    for row in range(m):
        incumbent = current[row]
        for col in available:
            if col >= incumbent:
                break
            rest_rows = list(range(row + 1, m))
            rest_cols = [c for c in available if c != col]
            sub = cost[np.ix_(rest_rows, rest_cols)]
            rr, cc = linear_sum_assignment(sub)
            candidate = math.fsum(
                fixed_entries
                + [float(cost[row, col])]
                + [float(sub[a, b]) for a, b in zip(rr, cc)]
            )
            if candidate == optimum:
                incumbent = col
                for a, b in zip(rr, cc):
                    current[rest_rows[a]] = rest_cols[b]
                break
        current[row] = incumbent
        fixed_entries.append(float(cost[row, incumbent]))
        available.remove(incumbent)
    return np.asarray(current, dtype=np.intp)


def hungarian_assign(cost: np.ndarray) -> MatchResult:
    """Solve the square assignment problem for a minimum-cost perfect
    matching, deterministically tie-broken to the lexicographically
    smallest assignment vector."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(cost)
    assignment = _lexicographic_refine(cost, cols)
    matched = cost[np.arange(cost.shape[0]), assignment]
    return MatchResult(
        assignment=tuple(int(c) for c in assignment),
        total_loss=float(matched.sum()),
        pair_losses=tuple(float(v) for v in matched),
    )


@dataclass(frozen=True)
class MatchedLoss:
    """The single-stage objective value for one frame.

    Components are the raw matched sums of each cost matrix, so
    total = class_weight * classification
          + point_weight * (positional + cosine_weight * cosine).
    """

    assignment: tuple[int, ...]
    total: float
    pair_losses: tuple[float, ...]
    positional: float
    classification: float
    cosine: float


def matched_loss(
    pred: PredictionSet, labels: LabelSet, weights: LossWeights = LossWeights()
) -> MatchedLoss:
    """Build the combined matrix, find the optimal assignment, and sum the
    matched entries directly: the single-stage objective."""
    matrices = combined_cost_matrix(pred, labels, weights)
    result = hungarian_assign(matrices.combined)
    rows = np.arange(pred.m)
    cols = np.asarray(result.assignment, dtype=np.intp)
    return MatchedLoss(
        assignment=result.assignment,
        total=result.total_loss,
        pair_losses=result.pair_losses,
        positional=float(matrices.point_total[rows, cols].sum()),
        classification=float(matrices.focal[rows, cols].sum()),
        cosine=float(matrices.cosine[rows, cols].sum()),
    )
