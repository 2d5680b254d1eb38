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
import math
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
    resampled_features,
)
from .solver import linear_sum_assignment

#: Column order of class-score vectors; the no-object score sits last.
SCORE_CLASSES: tuple[FeatureClass, ...] = REAL_CLASSES + (FeatureClass.NO_OBJECT,)
_SCORE_INDEX = {c: i for i, c in enumerate(SCORE_CLASSES)}

_PROB_EPS = 1e-8

#: Ceiling on each LossWeights weight: far beyond any useful blend, and
#: small enough that the weighted focal and direction terms stay below
#: about 1e14 (the focal cost is at most about 18.4 per unit of focal_alpha
#: or of 1 - focal_alpha, the direction penalty at most 2), so that no
#: weight alone makes the combined matrix overflow.
MAX_WEIGHT = 1e6


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
            value = finite_number(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            if value > MAX_WEIGHT:
                raise ValueError(f"{name} must be at most {MAX_WEIGHT:g}")
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
    slots, with their points stacked (m, n_points, 2)."""
    padded = pad_to_fixed(resampled_features(frame.features, dims.n_points), dims)
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


def _edge_penalty(pred_edges: np.ndarray, label_edges: np.ndarray) -> np.ndarray:
    """Mean (1 - cos) between paired prediction and label edges, given
    (n - 1, 2, ...) edge arrays whose trailing axes broadcast, summed edge
    by edge in order. Edge pairs where either edge has zero length
    contribute penalty 1."""
    pred_sq, label_sq = (e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] for e in (pred_edges, label_edges))
    total = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for (px, py), (lx, ly), p_sq, l_sq in zip(pred_edges, label_edges, pred_sq, label_sq):
            dot = px * lx + py * ly
            # sqrt of the squared-norm product keeps cos exactly +-1 for
            # exactly parallel or antiparallel edge pairs
            denom = np.sqrt(p_sq * l_sq)
            total += 1.0 - np.where(denom > 0.0, dot / denom, 0.0)
    return total / len(label_edges)


def _class_pass(
    pred_points: np.ndarray, label_points: np.ndarray, perms: np.ndarray, joint_weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetry-minimized L1 cost and edge penalty of every prediction
    against the label columns of one invariance class, both under each
    pair's selected permutation.

    The L1 adds one (P, rows, k) pass of |dx| + |dy| per control point in
    order, so like the penalty each entry depends on its own pair alone.
    Each pair's permutation is the argmin of those rounded sums, the lowest
    canonical index among equal sums. Permutations whose exact L1 ties can
    round to different sums, and then the lowest rounded one wins: when a
    prediction and a label do not overlap in x and in y, every permutation
    has the same exact L1, so rounding alone picks it. With a non-zero
    joint weight the argmin runs on the blended positional-plus-direction
    objective, which needs the penalty under every permutation.
    """
    pred = pred_points[:, perms].transpose(2, 3, 1, 0)  # (n, 2, P, rows)
    label = label_points.transpose(1, 2, 0)  # (n, 2, k)
    l1 = np.zeros(pred.shape[2:] + label.shape[2:])
    dx, dy = np.empty_like(l1), np.empty_like(l1)
    for (px, py), (lx, ly) in zip(pred[..., None], label):
        np.abs(np.subtract(px, lx, out=dx), out=dx)
        np.abs(np.subtract(py, ly, out=dy), out=dy)
        dx += dy
        l1 += dx
    pred_edges, label_edges = np.diff(pred, axis=0), np.diff(label, axis=0)
    if joint_weight:
        penalty = _edge_penalty(pred_edges[..., None], label_edges)
        selected = (l1 + joint_weight * penalty).argmin(axis=0)  # first minimum wins
        chosen = np.take_along_axis(penalty, selected[None], axis=0)[0]
    else:
        selected = l1.argmin(axis=0)  # first minimum wins
        rows = np.arange(pred_points.shape[0])[:, None]
        chosen = _edge_penalty(pred_edges[:, :, selected, rows], label_edges)
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
    # Rows equal bit for bit (the no-object pads) are costed once.
    rows = pred.points.reshape(pred.m, 2 * pred.points.shape[1])
    rows = rows.view(f"V{rows.strides[0]}")[:, 0]  # each row's bytes as one value
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    for invariance in InvarianceClass:
        cols = np.flatnonzero(_class_columns(labels, invariance))
        if not cols.size:
            continue
        perms = valid_permutations(invariance, pred.points.shape[1])
        cost, chosen = _class_pass(pred.points[first], labels.points[cols], perms, joint)
        point_total[:, cols] = cost[inverse]
        cosine[:, cols] = chosen[inverse]
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


def _tight_pairs(cost: np.ndarray, base_cols: np.ndarray) -> list[list[bool]]:
    """Which pairs (row, column) can lie in an assignment whose exactly
    rounded total equals the base assignment's.

    Bellman-Ford over the columns, row i's move from base_cols[i] to j
    costing cost[i, j] - cost[i, base_cols[i]], gives a dual (u, v), and an
    assignment totals sum(u) + sum(v) plus its reduced costs c - u - v. One
    holding a pair whose reduced cost exceeds the bound (the rounding of
    each reduced cost and of both totals, and any negative reduced cost)
    misses the optimum. So only tight pairs on a cycle of tight moves
    (column j reaches column base_cols[i]) can.
    """
    m = cost.shape[0]
    on_base = cost[np.arange(m), base_cols]
    step = cost - on_base[:, None]
    v = np.zeros(m)
    for _ in range(m):
        shorter = np.minimum(v, (v[base_cols][:, None] + step).min(axis=0))
        if np.array_equal(shorter, v):
            break
        v = shorter
    u = on_base - v[base_cols]
    reduced = cost - u[:, None] - v
    eps, size = np.finfo(np.float64).eps, np.abs(cost).max(initial=0.0)
    err = 2 * eps * (size + np.abs(u).max(initial=0.0) + np.abs(v).max(initial=0.0))
    below = max(0.0, err - reduced.min(initial=0.0))
    above = max(0.0, reduced[np.arange(m), base_cols].max(initial=0.0)) + err
    tight = ~(reduced > err + (m - 1) * below + m * above + 2 * eps * m * size)  # NaN: tight
    reach = tight[np.argsort(base_cols)].astype(np.float64)  # [a, b]: column a's row may move to b
    for _ in range((m - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return (tight & (reach[:, base_cols].T > 0.0)).tolist()


def _lexicographic_refine(cost: np.ndarray, base_cols: np.ndarray) -> np.ndarray:
    """Among all minimum-cost assignments, pick the lexicographically
    smallest assignment vector.

    Rows are fixed in order; for each row the smallest tight column
    admitting an optimal completion wins. Totals are compared with exactly
    rounded sums so equal-cost completions are recognized reliably.
    """
    m = cost.shape[0]
    optimum = math.fsum(cost[i, base_cols[i]] for i in range(m))
    tight = _tight_pairs(cost, base_cols)
    current = list(base_cols)
    available = sorted(range(m))
    fixed_entries: list[float] = []
    for row in range(m):
        incumbent = current[row]
        for col in filter(tight[row].__getitem__, available):
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
