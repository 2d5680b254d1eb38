from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priormap import (
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    DegenerateFeatureError,
    FeatureClass,
    InvarianceClass,
    LabelSet,
    LossWeights,
    MapFeature,
    MapFrame,
    ModelDims,
    Pose2D,
    PredictionSet,
    combined_cost_matrix,
    focal_cost_matrix,
    hungarian_assign,
    label_set_from_frame,
    matched_loss,
    pad_to_fixed,
    point_cost_matrix,
    point_cost_total,
    prediction_set_from_frame,
    valid_permutations,
)
from priormap.matching import SCORE_CLASSES, linear_sum_assignment

# ---------------------------------------------------------------------------
# Independent oracles. These re-derive every quantity from first principles
# (explicit permutation matrices, scalar loops, exhaustive enumeration) and
# must stay decoupled from the library's vectorized implementations.
# ---------------------------------------------------------------------------


def oracle_valid_sequences(invariance: InvarianceClass, n: int) -> list[tuple[int, ...]]:
    """Filter all n! index sequences by the symmetry definition itself."""
    out = []
    for seq in itertools.permutations(range(n)):
        if invariance is InvarianceClass.DIRECTED_POLYLINE:
            ok = seq == tuple(range(n))
        elif invariance is InvarianceClass.UNDIRECTED_POLYLINE:
            ok = seq == tuple(range(n)) or seq == tuple(reversed(range(n)))
        else:
            # Polygon symmetry: consecutive entries step by a fixed +-1
            # around the ring.
            steps = {(seq[k + 1] - seq[k]) % n for k in range(n - 1)}
            ok = steps == {1} or steps == {n - 1}
        if ok:
            out.append(seq)
    return out


def oracle_point_cost_entry(
    pred_row: np.ndarray, label_row: np.ndarray, invariance: InvarianceClass
) -> float:
    """Min over explicit permutation matrices of the summed L1 residual."""
    n = pred_row.shape[0]
    best = math.inf
    for seq in oracle_valid_sequences(invariance, n):
        mat = np.zeros((n, n))
        for k, s in enumerate(seq):
            mat[k, s] = 1.0
        best = min(best, float(np.abs(mat @ pred_row - label_row).sum()))
    return best


def oracle_point_cost_matrix(
    pred_points: np.ndarray, labels: LabelSet, invariance: InvarianceClass
) -> np.ndarray:
    m = pred_points.shape[0]
    out = np.zeros((m, m))
    for j in range(m):
        if labels.invariances[j] is not invariance:
            continue
        if labels.classes[j] is FeatureClass.NO_OBJECT:
            continue
        for i in range(m):
            out[i, j] = oracle_point_cost_entry(
                pred_points[i], labels.points[j], invariance
            )
    return out


def oracle_assignment(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimum over all m! assignments; lexicographic tie-break."""
    m = cost.shape[0]
    rows = np.arange(m)
    best_total = math.inf
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(m)):
        total = float(cost[rows, list(perm)].sum())
        if total < best_total or (total == best_total and (best is None or perm < best)):
            best_total = total
            best = perm
    return best, best_total


def oracle_focal_entry(p: float, alpha: float, gamma: float) -> float:
    p = min(max(p, 1e-8), 1 - 1e-8)
    return alpha * (1 - p) ** gamma * (-math.log(p)) - (1 - alpha) * p**gamma * (
        -math.log(1 - p)
    )


def oracle_edge_penalties(
    pred_row: np.ndarray, label_row: np.ndarray, invariance: InvarianceClass
) -> list[float]:
    """Scalar re-computation of the per-edge penalty for every sequence
    tied (to rounding) at the minimum L1 cost.

    L1 costs of different symmetries can tie exactly (swapping two pairings
    on the same side of the labels preserves the sum), so an oracle pinning
    a single winner would be over-strict.
    """
    n = pred_row.shape[0]
    costs = []
    for seq in valid_permutations(invariance, n):
        costs.append(float(np.abs(pred_row[seq] - label_row).sum()))
    tie_cut = min(costs) + 1e-9 * (1.0 + min(costs))
    penalties = []
    for seq, cost in zip(valid_permutations(invariance, n), costs):
        if cost > tie_cut:
            continue
        permuted = pred_row[seq]
        total = 0.0
        for k in range(n - 1):
            pe = permuted[k + 1] - permuted[k]
            le = label_row[k + 1] - label_row[k]
            denom = float(np.linalg.norm(pe) * np.linalg.norm(le))
            cos = float(np.dot(pe, le)) / denom if denom > 0 else 0.0
            total += 1.0 - cos
        penalties.append(total / (n - 1))
    return penalties


def random_instance(
    rng: np.random.Generator, m: int, n: int, label_classes=REAL_CLASSES
):
    """A random prediction/label pair with mixed classes and some pads."""
    n_real = int(rng.integers(1, m + 1))
    classes = []
    invariances = []
    pts = np.zeros((m, n, 2))
    real_positions = sorted(rng.choice(m, size=n_real, replace=False).tolist())
    for j in range(m):
        if j in real_positions:
            cls = label_classes[int(rng.integers(len(label_classes)))]
            classes.append(cls)
            invariances.append(DEFAULT_INVARIANCE[cls])
            pts[j] = rng.uniform(-10, 10, (n, 2))
        else:
            classes.append(FeatureClass.NO_OBJECT)
            invariances.append(InvarianceClass.DIRECTED_POLYLINE)
    labels = LabelSet(points=pts, classes=tuple(classes), invariances=tuple(invariances))
    pred_pts = rng.uniform(-10, 10, (m, n, 2))
    scores = rng.uniform(0.05, 1.0, (m, len(SCORE_CLASSES)))
    scores /= scores.sum(axis=1, keepdims=True)
    pred = PredictionSet(points=pred_pts, class_scores=scores)
    return pred, labels


# ---------------------------------------------------------------------------
# Permutation sets
# ---------------------------------------------------------------------------


class TestPermutations:
    def test_directed_identity_only(self):
        ps = valid_permutations(InvarianceClass.DIRECTED_POLYLINE, 5)
        np.testing.assert_array_equal(ps, [[0, 1, 2, 3, 4]])

    def test_undirected_reversal(self):
        ps = valid_permutations(InvarianceClass.UNDIRECTED_POLYLINE, 3)
        np.testing.assert_array_equal(ps, [[0, 1, 2], [2, 1, 0]])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_polygon_is_dihedral_orbit(self, n):
        ps = valid_permutations(InvarianceClass.POLYGON, n)
        got = {tuple(int(v) for v in row) for row in ps}
        expected = set(oracle_valid_sequences(InvarianceClass.POLYGON, n))
        assert got == expected
        assert len(ps) == 2 * n

    def test_polygon_n2_deduplicated(self):
        ps = valid_permutations(InvarianceClass.POLYGON, 2)
        assert len(ps) == 2

    def test_canonical_order_starts_with_identity(self):
        for inv in InvarianceClass:
            ps = valid_permutations(inv, 4)
            np.testing.assert_array_equal(ps[0], [0, 1, 2, 3])

    def test_cached_array_is_read_only(self):
        ps = valid_permutations(InvarianceClass.POLYGON, 4)
        with pytest.raises(ValueError):
            ps[0, 0] = 1


# ---------------------------------------------------------------------------
# Point cost matrices
# ---------------------------------------------------------------------------


class TestPointCost:
    def _simple_sets(self):
        rng = np.random.default_rng(0)
        pred, labels = random_instance(rng, 4, 5)
        return pred, labels

    def test_equal_rows_give_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, (3, 4, 2))
        labels = LabelSet(
            points=pts,
            classes=(FeatureClass.LANE_CENTER,) * 3,
            invariances=(InvarianceClass.DIRECTED_POLYLINE,) * 3,
        )
        scores = np.full((3, len(SCORE_CLASSES)), 1.0 / len(SCORE_CLASSES))
        pred = PredictionSet(points=pts.copy(), class_scores=scores)
        mat = point_cost_matrix(pred, labels, InvarianceClass.DIRECTED_POLYLINE)
        assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0 and mat[2, 2] == 0.0
        assert mat[0, 1] > 0.0

    def test_reversed_undirected_is_zero(self):
        rng = np.random.default_rng(2)
        row = rng.uniform(-5, 5, (6, 2))
        labels = LabelSet(
            points=row[None],
            classes=(FeatureClass.LANE_DIVIDER,),
            invariances=(InvarianceClass.UNDIRECTED_POLYLINE,),
        )
        pred = PredictionSet(
            points=row[::-1][None].copy(),
            class_scores=np.full((1, len(SCORE_CLASSES)), 1.0 / len(SCORE_CLASSES)),
        )
        mat = point_cost_matrix(pred, labels, InvarianceClass.UNDIRECTED_POLYLINE)
        assert mat[0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_permutation_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred, labels = random_instance(rng, 3, 4)
        for inv in InvarianceClass:
            got = point_cost_matrix(pred, labels, inv)
            want = oracle_point_cost_matrix(pred.points, labels, inv)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_mask_partition(self, seed):
        rng = np.random.default_rng(100 + seed)
        pred, labels = random_instance(rng, 5, 4)
        total = point_cost_total(pred, labels)
        per_class = {inv: point_cost_matrix(pred, labels, inv) for inv in InvarianceClass}
        for j in range(labels.m):
            if labels.classes[j] is FeatureClass.NO_OBJECT:
                assert not total[:, j].any()
                continue
            inv = labels.invariances[j]
            np.testing.assert_array_equal(total[:, j], per_class[inv][:, j])
            for other, mat in per_class.items():
                if other is not inv:
                    assert not mat[:, j].any()

    @pytest.mark.parametrize("seed", range(6))
    def test_label_symmetry_invariance(self, seed):
        # Reordering a label row by any member of its own symmetry group
        # must leave its column of the total unchanged.
        rng = np.random.default_rng(200 + seed)
        pred, labels = random_instance(rng, 4, 5)
        total = point_cost_total(pred, labels)
        for j in range(labels.m):
            if labels.classes[j] is FeatureClass.NO_OBJECT:
                continue
            perms = valid_permutations(labels.invariances[j], 5)
            seq = perms[int(rng.integers(len(perms)))]
            new_pts = labels.points.copy()
            new_pts[j] = labels.points[j][seq]
            relabeled = LabelSet(
                points=new_pts, classes=labels.classes, invariances=labels.invariances
            )
            new_total = point_cost_total(pred, relabeled)
            np.testing.assert_allclose(new_total[:, j], total[:, j], atol=1e-12)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(3)
        pred, labels = random_instance(rng, 3, 4)
        bad = PredictionSet(
            points=rng.uniform(-1, 1, (3, 5, 2)),
            class_scores=pred.class_scores,
        )
        with pytest.raises(ValueError, match="shape mismatch"):
            point_cost_matrix(bad, labels, InvarianceClass.POLYGON)

    def test_lipschitz_under_coordinate_perturbation(self):
        rng = np.random.default_rng(4)
        pred, labels = random_instance(rng, 4, 5)
        base = point_cost_total(pred, labels)
        eps = 1e-4
        bumped_pts = pred.points.copy()
        bumped_pts[2, 3, 0] += eps
        bumped = PredictionSet(points=bumped_pts, class_scores=pred.class_scores)
        delta = np.abs(point_cost_total(bumped, labels) - base)
        assert delta.max() <= eps + 1e-12


# ---------------------------------------------------------------------------
# Edge-direction (cosine) penalty
# ---------------------------------------------------------------------------


def edge_direction_penalty(pred: PredictionSet, labels: LabelSet) -> np.ndarray:
    """Pairwise mean (1 - cos) between consecutive prediction and label
    edges under each pair's selected permutation: the cost build's cosine
    matrix, whose masked columns are zero."""
    return combined_cost_matrix(pred, labels).cosine


class TestEdgePenalty:
    def _pred_labels(self, pred_pts, label_pts, inv, cls):
        labels = LabelSet(points=label_pts[None], classes=(cls,), invariances=(inv,))
        pred = PredictionSet(
            points=pred_pts[None],
            class_scores=np.full((1, len(SCORE_CLASSES)), 1.0 / len(SCORE_CLASSES)),
        )
        return pred, labels

    def test_identical_polylines_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        pred, labels = self._pred_labels(
            pts, pts.copy(), InvarianceClass.DIRECTED_POLYLINE, FeatureClass.LANE_CENTER
        )
        assert edge_direction_penalty(pred, labels)[0, 0] == 0.0

    def test_antiparallel_gives_two(self):
        label = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pred_pts = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        pred, labels = self._pred_labels(
            pred_pts, label, InvarianceClass.DIRECTED_POLYLINE, FeatureClass.LANE_CENTER
        )
        assert edge_direction_penalty(pred, labels)[0, 0] == 2.0

    def test_zero_length_edges_contribute_one(self):
        label = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pred_pts = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])  # first edge degenerate
        pred, labels = self._pred_labels(
            pred_pts, label, InvarianceClass.DIRECTED_POLYLINE, FeatureClass.LANE_CENTER
        )
        # zero-length first edge -> 1; second edge parallel -> 0
        assert edge_direction_penalty(pred, labels)[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_edge_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        pred, labels = random_instance(rng, 4, 5)
        got = edge_direction_penalty(pred, labels)
        for i in range(4):
            for j in range(4):
                if labels.classes[j] is FeatureClass.NO_OBJECT:
                    assert got[i, j] == 0.0
                    continue
                wanted = oracle_edge_penalties(
                    pred.points[i], labels.points[j], labels.invariances[j]
                )
                assert any(got[i, j] == pytest.approx(w, abs=1e-12) for w in wanted)


# ---------------------------------------------------------------------------
# Focal classification cost
# ---------------------------------------------------------------------------


class TestFocalCost:
    def _sets(self, scores, label_classes):
        m = scores.shape[0]
        pts = np.zeros((m, 3, 2))
        labels = LabelSet(
            points=pts,
            classes=tuple(label_classes),
            invariances=(InvarianceClass.DIRECTED_POLYLINE,) * m,
        )
        pred = PredictionSet(points=pts.copy(), class_scores=scores)
        return pred, labels

    def test_monotone_decreasing_in_confidence(self):
        lo = np.zeros((2, len(SCORE_CLASSES)))
        lo[:, 0] = 1e-8
        lo[:, -1] = 1.0 - 1e-8
        hi = np.zeros((2, len(SCORE_CLASSES)))
        hi[:, 0] = 1.0 - 1e-8
        hi[:, -1] = 1e-8
        classes = (FeatureClass.LANE_CENTER, FeatureClass.LANE_CENTER)
        pred_lo, labels = self._sets(lo, classes)
        pred_hi, _ = self._sets(hi, classes)
        cost_lo = focal_cost_matrix(pred_lo, labels)
        cost_hi = focal_cost_matrix(pred_hi, labels)
        assert np.all(cost_hi < cost_lo)
        # confident-and-right is a negative (rewarding) matching cost
        expected = -0.75 * (1.0 - 1e-8) ** 2 * (-math.log(1e-8))
        assert cost_hi[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_constant_when_gamma_zero_alpha_half(self):
        scores = np.full((3, len(SCORE_CLASSES)), 1.0 / len(SCORE_CLASSES))
        scores = np.zeros((3, len(SCORE_CLASSES)))
        scores[:, :2] = 0.5
        classes = (FeatureClass.LANE_CENTER, FeatureClass.LANE_DIVIDER, FeatureClass.LANE_CENTER)
        pred, labels = self._sets(scores, classes)
        cost = focal_cost_matrix(pred, labels, alpha=0.5, gamma=0.0)
        np.testing.assert_allclose(cost, cost[0, 0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        pred, labels = random_instance(rng, 5, 3)
        alpha, gamma = 0.25, 2.0
        got = focal_cost_matrix(pred, labels, alpha, gamma)
        col_of = {c: k for k, c in enumerate(SCORE_CLASSES)}
        for i in range(5):
            for j in range(5):
                p = pred.class_scores[i, col_of[labels.classes[j]]]
                assert got[i, j] == pytest.approx(
                    oracle_focal_entry(p, alpha, gamma), abs=1e-12
                )


# ---------------------------------------------------------------------------
# Reference all-columns build. The library costs each invariance class in
# one pass over that class's label columns only; this is the earlier build,
# which costs every class over all label columns and all permutations, then
# masks the other columns to zero. The one-pass build must reproduce it
# bit for bit.
# ---------------------------------------------------------------------------


def reference_column_mask(labels: LabelSet, invariance: InvarianceClass) -> np.ndarray:
    return np.array(
        [
            inv is invariance and cls is not FeatureClass.NO_OBJECT
            for cls, inv in zip(labels.classes, labels.invariances)
        ],
        dtype=bool,
    )


def reference_l1_per_permutation(pred_points, label_points, perms) -> np.ndarray:
    """(P, m, k) L1 per permutation, summed over the control points in order,
    each point adding its |dx| + |dy|: the order the library pins."""
    permuted = np.moveaxis(pred_points[:, perms, :], 1, 0)  # (P, m, n, 2)
    total = np.zeros((len(perms), len(pred_points), len(label_points)))
    for j in range(pred_points.shape[1]):
        diff = permuted[:, :, None, j, :] - label_points[None, None, :, j, :]  # (P, m, k, 2)
        total = total + (np.abs(diff[..., 0]) + np.abs(diff[..., 1]))
    return total


def reference_edge_penalty_for_perms(pred_points, label_points, perms) -> np.ndarray:
    """(P, m, k) mean (1 - cos), summed over the edges in order, then divided
    by the edge count."""
    terms = 1.0 - _reference_cosines(pred_points, label_points, perms)  # (P, m, k, n-1)
    total = np.zeros(terms.shape[:3])
    for e in range(terms.shape[3]):
        total = total + terms[..., e]
    return total / terms.shape[3]


def _reference_cosines(pred_points, label_points, perms) -> np.ndarray:
    permuted = np.moveaxis(pred_points[:, perms, :], 1, 0)  # (P, m, n, 2)
    pe = np.diff(permuted, axis=2)  # (P, m, n-1, 2)
    le = np.diff(label_points, axis=1)  # (k, n-1, 2)
    dot = np.einsum("pike,jke->pijk", pe, le)
    nsq_p = np.einsum("pike,pike->pik", pe, pe)
    nsq_l = np.einsum("jke,jke->jk", le, le)
    denom = np.sqrt(nsq_p[:, :, None, :] * nsq_l[None, None, :, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, dot / denom, 0.0)


def numpy_order_l1_per_permutation(pred_points, label_points, perms) -> np.ndarray:
    """The L1 as one numpy reduction, whose order follows the memory layout:
    the form the library used before its order was pinned."""
    permuted = np.moveaxis(pred_points[:, perms, :], 1, 0)  # (P, m, n, 2)
    diff = permuted[:, :, None, :, :] - label_points[None, None, :, :, :]
    return np.abs(diff).sum(axis=(3, 4))  # (P, m, k)


def numpy_order_edge_penalty_for_perms(pred_points, label_points, perms) -> np.ndarray:
    return (1.0 - _reference_cosines(pred_points, label_points, perms)).mean(axis=3)


def reference_class_costs(pred, labels, invariance, joint_cosine_weight=None):
    perms = valid_permutations(invariance, pred.points.shape[1])
    l1 = reference_l1_per_permutation(pred.points, labels.points, perms)
    objective = l1
    if joint_cosine_weight is not None and joint_cosine_weight != 0.0:
        objective = l1 + joint_cosine_weight * reference_edge_penalty_for_perms(
            pred.points, labels.points, perms
        )
    selected = objective.argmin(axis=0)
    cost = np.take_along_axis(l1, selected[None], axis=0)[0]
    mask = reference_column_mask(labels, invariance)
    cost = np.where(mask[None, :], cost, 0.0)
    return cost, selected, mask


def reference_cost_matrices(pred, labels, weights: LossWeights) -> dict:
    joint = weights.cosine_weight if weights.joint_cosine else None
    by_class = {}
    point_total = np.zeros((pred.m, labels.m))
    cosine = np.zeros((pred.m, labels.m))
    for invariance in InvarianceClass:
        cost, selected, mask = reference_class_costs(pred, labels, invariance, joint)
        by_class[invariance] = cost
        point_total += cost
        if not mask.any():
            continue
        perms = valid_permutations(invariance, pred.points.shape[1])
        penalty = reference_edge_penalty_for_perms(pred.points, labels.points, perms)
        chosen = np.take_along_axis(penalty, selected[None], axis=0)[0]
        cosine[:, mask] = chosen[:, mask]
    focal = focal_cost_matrix(pred, labels, weights.focal_alpha, weights.focal_gamma)
    combined = weights.class_weight * focal + weights.point_weight * (
        point_total + weights.cosine_weight * cosine
    )
    return {
        "point_by_class": by_class,
        "point_total": point_total,
        "focal": focal,
        "cosine": cosine,
        "combined": combined,
    }


class TestOnePassMatchesReference:
    WEIGHTS = (LossWeights(), LossWeights(joint_cosine=True, cosine_weight=5.0))

    def _assert_identical(self, pred, labels):
        for weights in self.WEIGHTS:
            got = combined_cost_matrix(pred, labels, weights)
            want = reference_cost_matrices(pred, labels, weights)
            if not weights.joint_cosine:  # point_cost_matrix is the default-weight view
                for inv in InvarianceClass:
                    got_class = point_cost_matrix(pred, labels, inv)
                    assert np.array_equal(got_class, want["point_by_class"][inv]), inv
            for name in ("point_total", "focal", "cosine", "combined"):
                assert np.array_equal(getattr(got, name), want[name]), name

    @pytest.mark.parametrize("seed", range(20))
    def test_default_dims(self, seed):
        # a zero-length edge in some rows exercises the penalty-1 branch
        rng = np.random.default_rng(1100 + seed)
        pred, labels = random_instance(rng, 50, 20)
        pts = pred.points.copy()
        pts[::7, 3] = pts[::7, 2]
        self._assert_identical(PredictionSet(points=pts, class_scores=pred.class_scores), labels)

    def test_frame_without_polygon_columns(self):
        rng = np.random.default_rng(1200)
        lanes = (FeatureClass.LANE_CENTER, FeatureClass.LANE_DIVIDER)
        pred, labels = random_instance(rng, 50, 20, label_classes=lanes)
        assert InvarianceClass.POLYGON not in {
            inv for inv, cls in zip(labels.invariances, labels.classes)
            if cls is not FeatureClass.NO_OBJECT
        }
        self._assert_identical(pred, labels)

    @pytest.mark.parametrize("cls", REAL_CLASSES)
    def test_single_slot(self, cls):
        rng = np.random.default_rng(1300)
        pred, labels = random_instance(rng, 1, 20, label_classes=(cls,))
        self._assert_identical(pred, labels)


class TestSummationOrder:
    """The L1 and the edge penalty are summed point by point and edge by edge
    in order, so an entry's bits depend on its own pair alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_reference_is_numpy_order_from_two_rows(self, seed):
        # The references above pin the order explicitly. numpy's layout-
        # dependent reductions, the library's earlier form, take the same
        # order whenever the frame has at least two rows.
        rng = np.random.default_rng(1350 + seed)
        for m, k in ((2, 1), (2, 7), (13, 5), (50, 50)):
            pred = rng.uniform(-30, 30, (m, 20, 2))
            label = rng.uniform(-30, 30, (k, 20, 2))
            pred[::3, 4] = pred[::3, 3]  # zero-length edges
            for inv in InvarianceClass:
                perms = valid_permutations(inv, 20)
                assert np.array_equal(reference_l1_per_permutation(pred, label, perms),
                                      numpy_order_l1_per_permutation(pred, label, perms))
                assert np.array_equal(reference_edge_penalty_for_perms(pred, label, perms),
                                      numpy_order_edge_penalty_for_perms(pred, label, perms))

    @pytest.mark.parametrize("cls", REAL_CLASSES)
    def test_pair_entries_do_not_depend_on_slot_count(self, cls):
        rng = np.random.default_rng(1400)
        uniform = np.full(len(SCORE_CLASSES), 1.0 / len(SCORE_CLASSES))
        for _ in range(12):
            pred_row, label_row = rng.uniform(-30, 30, (2, 20, 2))
            for weights in TestOnePassMatchesReference.WEIGHTS:
                seen = set()
                for m in (1, 2, 50):
                    pred_pts, label_pts = rng.uniform(-30, 30, (2, m, 20, 2))
                    pred_pts[0], label_pts[0] = pred_row, label_row
                    labels = LabelSet(points=label_pts, classes=(cls,) * m,
                                      invariances=(DEFAULT_INVARIANCE[cls],) * m)
                    pred = PredictionSet(points=pred_pts, class_scores=np.tile(uniform, (m, 1)))
                    got = combined_cost_matrix(pred, labels, weights)
                    seen.add((got.point_total[0, 0], got.cosine[0, 0]))
                assert len(seen) == 1, seen


_NO_OBJECT_SCORES = np.eye(len(SCORE_CLASSES))[-1]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.sampled_from([2, 3, 5, 20]),
    joint=st.booleans(),
    data=st.data(),
)
def test_rows_are_separable(seed, m, n, joint, data):
    """combined_cost_matrix on any selection of the prediction rows, no-object
    pads and duplicate rows included, gives those rows of the full matrices:
    what lets the cost build pass each distinct row once."""
    rng = np.random.default_rng(seed)
    pred, labels = random_instance(rng, m, n)
    pts, scores = pred.points.copy(), pred.class_scores.copy()
    pads = data.draw(st.integers(0, m))
    pts[m - pads:], scores[m - pads:] = 0.0, _NO_OBJECT_SCORES
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=3)):
        pts[i] = pts[j]
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    weights = LossWeights(joint_cosine=joint, cosine_weight=5.0 if joint else 0.02)
    full = combined_cost_matrix(PredictionSet(points=pts, class_scores=scores), labels, weights)
    part = combined_cost_matrix(
        PredictionSet(points=pts[rows], class_scores=scores[rows]), labels, weights
    )
    for name in ("point_total", "focal", "cosine", "combined"):
        assert np.array_equal(getattr(part, name), getattr(full, name)[rows]), name


# ---------------------------------------------------------------------------
# Combined matrix and Hungarian assignment
# ---------------------------------------------------------------------------


class TestCombined:
    @pytest.mark.parametrize("seed", range(4))
    def test_weight_zeroing_is_exact(self, seed):
        rng = np.random.default_rng(500 + seed)
        pred, labels = random_instance(rng, 4, 4)
        only_points = combined_cost_matrix(
            pred, labels, LossWeights(class_weight=0.0, point_weight=3.0, cosine_weight=0.0)
        )
        np.testing.assert_array_equal(
            only_points.combined, 3.0 * point_cost_total(pred, labels)
        )
        only_class = combined_cost_matrix(
            pred, labels, LossWeights(class_weight=2.0, point_weight=0.0)
        )
        np.testing.assert_array_equal(only_class.combined, 2.0 * focal_cost_matrix(pred, labels))

    def test_joint_cosine_changes_selection_only_when_enabled(self):
        rng = np.random.default_rng(7)
        pred, labels = random_instance(rng, 4, 6)
        post_hoc = combined_cost_matrix(pred, labels, LossWeights(joint_cosine=False))
        joint = combined_cost_matrix(
            pred, labels, LossWeights(joint_cosine=True, cosine_weight=5.0)
        )
        # joint selection can only raise the pure positional term
        assert np.all(joint.point_total >= post_hoc.point_total - 1e-12)


class TestHungarian:
    def test_identity_favoring_matrix(self):
        cost = np.ones((4, 4)) - np.eye(4)
        res = hungarian_assign(cost)
        assert res.assignment == (0, 1, 2, 3)
        assert res.total_loss == 0.0

    def test_known_fixture(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        want_assign, want_total = oracle_assignment(cost)
        assert want_total == 5.0  # frozen from the enumeration oracle
        res = hungarian_assign(cost)
        assert res.total_loss == want_total
        assert res.assignment == want_assign
        assert res.pair_losses == (1.0, 2.0, 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_on_random(self, seed):
        rng = np.random.default_rng(600 + seed)
        m = int(rng.integers(2, 7))
        cost = rng.uniform(0, 10, (m, m))
        _, want_total = oracle_assignment(cost)
        res = hungarian_assign(cost)
        assert res.total_loss == want_total

    @pytest.mark.parametrize("seed", range(20))
    def test_lexicographic_tie_break(self, seed):
        # Small-integer costs force ties; the result must be the
        # lexicographically smallest among all optimal assignments.
        rng = np.random.default_rng(700 + seed)
        m = int(rng.integers(2, 6))
        cost = rng.integers(0, 3, (m, m)).astype(float)
        want_assign, want_total = oracle_assignment(cost)
        res = hungarian_assign(cost)
        assert res.total_loss == want_total
        assert res.assignment == want_assign

    def test_all_equal_matrix_gives_identity(self):
        res = hungarian_assign(np.zeros((5, 5)))
        assert res.assignment == (0, 1, 2, 3, 4)

    def test_beats_random_matchings_at_larger_m(self):
        # enumeration is infeasible at m=30; spot-check optimality against
        # random alternative perfect matchings instead
        rng = np.random.default_rng(77)
        cost = rng.uniform(0, 10, (30, 30))
        res = hungarian_assign(cost)
        rows = np.arange(30)
        for _ in range(200):
            alt = rng.permutation(30)
            assert res.total_loss <= float(cost[rows, alt].sum()) + 1e-12

    def test_solves_through_module_attribute(self, monkeypatch):
        # Solver calls are counted by patching matching.linear_sum_assignment
        # (bench/tracing.py), so every solve must go through that name.
        import priormap.matching as matching

        solve, shapes = matching.linear_sum_assignment, []

        def counting(cost):
            shapes.append(cost.shape)
            return solve(cost)

        cost = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        want = hungarian_assign(cost)
        monkeypatch.setattr(matching, "linear_sum_assignment", counting)
        assert hungarian_assign(cost) == want
        assert shapes and shapes[0] == (3, 3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian_assign(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hungarian_assign(np.zeros((2, 3)))


def reference_lexicographic_refine(cost: np.ndarray, base_cols: np.ndarray) -> np.ndarray:
    """The tie-break before it filtered by reduced costs, kept as the oracle:
    rows are fixed in order, and each smaller available column is tried by
    solving its completion, accepted when the exactly rounded total equals
    the base's."""
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


def reference_assignment(cost: np.ndarray) -> tuple[int, ...]:
    base = linear_sum_assignment(cost)[1]
    return tuple(int(c) for c in reference_lexicographic_refine(cost, base))


def realistic_loss_matrix(seed: int, weights: LossWeights) -> np.ndarray:
    """The combined matrix of a default-dims frame whose predictions are a
    noisy subset of its labels with duplicates: pads and near-ties as in
    a perturbed prior."""
    from conftest import random_frame

    rng = np.random.default_rng(seed)
    labels = random_frame(rng, n_features=int(rng.integers(5, 45)))
    kept = [f for f in labels.features if rng.random() < 0.8]
    kept += [kept[int(i)] for i in rng.integers(0, len(kept), 3)] if kept else []
    preds = [
        f.with_points(f.points + rng.normal(0.0, 0.3, f.points.shape)) if rng.random() < 0.5 else f
        for f in kept
    ]
    pred = prediction_set_from_frame(labels.with_features(preds))
    return combined_cost_matrix(pred, label_set_from_frame(labels), weights).combined


class TestTieBreakMatchesOracle:
    """hungarian_assign re-solves only the pairs whose reduced cost lets
    them lie in an optimal assignment; the full refine is the oracle."""

    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_tie_heavy_integer_costs(self, m):
        rng = np.random.default_rng(1500 + m)
        cost = rng.integers(0, 3, (m, m)).astype(float)
        cost[m // 2:m // 2 + 10] = cost[m // 2]  # identical rows, as no-object pads give
        assert hungarian_assign(cost).assignment == reference_assignment(cost)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("joint", [False, True], ids=["post-hoc", "joint"])
    def test_real_loss_matrices(self, seed, joint):
        cost = realistic_loss_matrix(1600 + seed, LossWeights(joint_cosine=joint))
        assert hungarian_assign(cost).assignment == reference_assignment(cost)

    @pytest.mark.parametrize("seed", range(30))
    def test_every_optimal_pair_is_tight(self, seed):
        # Enumerate every assignment whose exactly rounded total equals the
        # optimum: each of its pairs must pass the filter.
        import priormap.matching as matching

        rng = np.random.default_rng(1700 + seed)
        m = int(rng.integers(2, 7))
        cost = rng.integers(0, 3, (m, m)) * rng.choice([1.0, 0.1, 1e-9])
        cost += rng.choice([0.0, 1e8])
        tight = np.array(matching._tight_pairs(cost, linear_sum_assignment(cost)[1]))
        optimum = min(math.fsum(cost[range(m), perm]) for perm in itertools.permutations(range(m)))
        for perm in itertools.permutations(range(m)):
            if math.fsum(cost[range(m), perm]) == optimum:
                assert tight[range(m), perm].all()

    def test_tie_free_matrix_needs_one_solve(self, monkeypatch):
        import priormap.matching as matching

        solve, calls = matching.linear_sum_assignment, []
        monkeypatch.setattr(matching, "linear_sum_assignment",
                            lambda c: calls.append(1) or solve(c))
        hungarian_assign(np.random.default_rng(1800).uniform(0, 10, (50, 50)))
        assert len(calls) == 1


class TestCompiledSolver:
    """solver.linear_sum_assignment, which matching and changes import,
    loads scipy's compiled `_lsap` kernel without the scipy.optimize
    package; scipy.optimize's own solver is the oracle, so every output
    and error must be the same."""

    @pytest.fixture(scope="class")
    def kernel(self):
        import importlib.machinery

        import priormap.solver as solver

        # The kernel path, not the fallback. Python keeps one copy of a
        # single-phase extension's functions, so once scipy.optimize is
        # imported a later load may hand out the package's function object.
        assert isinstance(solver._lsap_spec().loader, importlib.machinery.ExtensionFileLoader)
        return solver._load_solver()

    @staticmethod
    def _same(kernel, cost):
        from scipy.optimize import linear_sum_assignment as oracle

        got, want = kernel(cost), oracle(cost)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_square(self, kernel, seed):
        self._same(kernel, np.random.default_rng(900 + seed).uniform(0, 10, (50, 50)))

    @pytest.mark.parametrize("shape", [(7, 30), (30, 7), (1, 5), (5, 1)])
    def test_rectangular_both_orientations(self, kernel, shape):
        self._same(kernel, np.random.default_rng(sum(shape)).uniform(0, 10, shape))

    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_tie_heavy_integer_costs(self, kernel, m):
        self._same(kernel, np.random.default_rng(m).integers(0, 3, (m, m)).astype(float))

    def test_empty(self, kernel):
        self._same(kernel, np.zeros((0, 0)))

    @pytest.mark.parametrize("cost", [
        np.array([[np.nan, 1.0], [1.0, 0.0]]),
        np.array([[np.inf, np.inf], [1.0, 1.0]]),
    ], ids=["nan", "infeasible-inf"])
    def test_same_errors(self, kernel, cost):
        from scipy.optimize import linear_sum_assignment as oracle

        with pytest.raises(ValueError) as want:
            oracle(cost)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            kernel(cost)

    def test_concurrent_first_solves_load_once(self, monkeypatch):
        import sys
        import threading
        import time

        import priormap.solver as solver

        load, loads = solver._load_solver, []

        def slow_load():
            loads.append(threading.get_ident())
            time.sleep(0.01)  # widen the window in which a second load could start
            return load()

        monkeypatch.setattr(solver, "_solver", None)
        monkeypatch.setattr(solver, "_load_solver", slow_load)
        cost = np.random.default_rng(5).uniform(0, 10, (20, 20))
        workers = 8
        start = threading.Barrier(workers)
        results = [None] * workers

        def solve(k):
            start.wait(timeout=10)
            results[k] = solver.linear_sum_assignment(cost)[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(loads) == 1
        assert all(np.array_equal(r, results[0]) for r in results)

    @pytest.mark.parametrize("spec", [None, "json"], ids=["no-spec", "source-module"])
    def test_falls_back_to_scipy_optimize(self, tmp_path, monkeypatch, spec):
        import importlib.util

        import priormap.solver as solver
        from conftest import random_frame
        from priormap import write_scenes
        from priormap.cli import main
        from scipy.optimize import linear_sum_assignment as oracle

        rng = np.random.default_rng(31)
        scenes = tmp_path / "scenes.jsonl"
        write_scenes([random_frame(rng, f"frame_{i}", n_features=6) for i in range(3)], scenes)
        argv = ["loss", "--pred", str(scenes), "--labels", str(scenes), "--m-max", "10"]
        assert main([*argv, "--out", str(tmp_path / "kernel.json")]) == 0
        found = importlib.util.find_spec(spec) if spec else None
        monkeypatch.setattr(solver, "_lsap_spec", lambda: found)
        monkeypatch.setattr(solver, "_solver", None)
        assert main([*argv, "--out", str(tmp_path / "package.json")]) == 0
        assert solver._solver is oracle
        assert (tmp_path / "kernel.json").read_bytes() == (tmp_path / "package.json").read_bytes()


class TestMatchedLoss:
    def _confident_instance(self, rng, m, n):
        pred, labels = random_instance(rng, m, n)
        scores = np.zeros((m, len(SCORE_CLASSES)))
        col_of = {c: k for k, c in enumerate(SCORE_CLASSES)}
        for j, cls in enumerate(labels.classes):
            scores[j, col_of[cls]] = 1.0
        pred = PredictionSet(points=labels.points.copy(), class_scores=scores)
        return pred, labels

    @pytest.mark.parametrize("seed", range(10))
    def test_self_match_identity(self, seed):
        rng = np.random.default_rng(800 + seed)
        weights = LossWeights()
        pred, labels = self._confident_instance(rng, 5, 4)
        out = matched_loss(pred, labels, weights)
        assert out.positional == 0.0
        assert out.assignment == tuple(range(5))
        assert out.total == pytest.approx(weights.class_weight * out.classification, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(900 + seed)
        pred, labels = random_instance(rng, 5, 4)
        base = matched_loss(pred, labels)
        order = rng.permutation(5)
        shuffled = PredictionSet(
            points=pred.points[order], class_scores=pred.class_scores[order]
        )
        out = matched_loss(shuffled, labels)
        assert out.total == pytest.approx(base.total, rel=1e-12, abs=1e-12)
        # the assignment permutes along with the rows
        for new_i, old_i in enumerate(order):
            assert out.assignment[new_i] == base.assignment[old_i]

    @pytest.mark.parametrize("seed", range(8))
    def test_total_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pred, labels = random_instance(rng, 4, 3)
        matrices = combined_cost_matrix(pred, labels)
        _, want_total = oracle_assignment(matrices.combined)
        out = matched_loss(pred, labels)
        assert out.total == want_total

    def test_empty_frame(self):
        pred = PredictionSet(points=np.zeros((0, 5, 2)),
                             class_scores=np.zeros((0, len(SCORE_CLASSES))))
        labels = LabelSet(points=np.zeros((0, 5, 2)), classes=(), invariances=())
        out = matched_loss(pred, labels)
        assert out.assignment == () and out.total == 0.0

    def test_matched_total_lipschitz(self):
        rng = np.random.default_rng(11)
        weights = LossWeights(class_weight=1.0, point_weight=1.0, cosine_weight=0.0)
        pred, labels = random_instance(rng, 4, 4)
        base = matched_loss(pred, labels, weights).total
        eps = 1e-4
        bumped_pts = pred.points.copy()
        bumped_pts[1, 2, 1] += eps
        bumped = PredictionSet(points=bumped_pts, class_scores=pred.class_scores)
        out = matched_loss(bumped, labels, weights).total
        assert abs(out - base) <= eps * pred.m + 1e-12


class TestSetBuildResamplesOnce:
    """The prediction and label sets resample a frame's features in one
    resampled_features pass; the per-feature MapFeature.resampled path is
    the oracle."""

    @staticmethod
    def _frame(rng, counts):
        from conftest import random_feature

        feats = [random_feature(rng, n) for n in counts]
        return MapFrame("f", Pose2D(0.0, 0.0, 0.0), 90.0, tuple(feats))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_feature_resample(self, seed):
        rng = np.random.default_rng(1900 + seed)
        dims = ModelDims(m=12, n_points=int(rng.integers(3, 25)))
        frame = self._frame(rng, rng.integers(2, 30, int(rng.integers(0, 13))))
        oracle = pad_to_fixed([f.resampled(dims.n_points) for f in frame.features], dims)
        want = np.stack([f.points for f in oracle])
        labels = label_set_from_frame(frame, dims)
        assert np.array_equal(labels.points, want)
        assert labels.classes == tuple(f.feature_class for f in oracle)
        assert labels.invariances == tuple(f.invariance for f in oracle)
        assert np.array_equal(prediction_set_from_frame(frame, dims).points, want)

    def test_first_fault_as_per_feature(self):
        rng = np.random.default_rng(1950)
        frame = self._frame(rng, [5, 20, 7])
        far = np.array([[-1e200, 0.0], [0.0, 0.0], [1e200, 0.0]])
        bad = MapFeature(FeatureClass.LANE_CENTER, InvarianceClass.DIRECTED_POLYLINE, far)
        frame = frame.with_features(frame.features[:2] + (bad,) + frame.features[2:])
        with pytest.raises(DegenerateFeatureError) as want:
            [f.resampled(20) for f in frame.features]
        with pytest.raises(DegenerateFeatureError, match=f"^{re.escape(str(want.value))}$"):
            label_set_from_frame(frame)
