from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from priormap import (
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    LabelSet,
    LossWeights,
    PredictionSet,
    combined_cost_matrix,
    focal_cost_matrix,
    hungarian_assign,
    matched_loss,
    point_cost_matrix,
    point_cost_total,
    valid_permutations,
)
from priormap.matching import SCORE_CLASSES

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
    permuted = np.moveaxis(pred_points[:, perms, :], 1, 0)  # (P, m, n, 2)
    diff = permuted[:, :, None, :, :] - label_points[None, None, :, :, :]
    return np.abs(diff).sum(axis=(3, 4))  # (P, m, m)


def reference_edge_penalty_for_perms(pred_points, label_points, perms) -> np.ndarray:
    permuted = np.moveaxis(pred_points[:, perms, :], 1, 0)  # (P, m, n, 2)
    pe = np.diff(permuted, axis=2)  # (P, m, n-1, 2)
    le = np.diff(label_points, axis=1)  # (m, n-1, 2)
    dot = np.einsum("pike,jke->pijk", pe, le)
    nsq_p = np.einsum("pike,pike->pik", pe, pe)
    nsq_l = np.einsum("jke,jke->jk", le, le)
    denom = np.sqrt(nsq_p[:, :, None, :] * nsq_l[None, None, :, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0.0, dot / denom, 0.0)
    return (1.0 - cos).mean(axis=3)  # (P, m, m)


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


class TestCompiledSolver:
    """matching.linear_sum_assignment loads scipy's compiled `_lsap` kernel
    without the scipy.optimize package; scipy.optimize's own solver is the
    oracle, so every output and error must be the same."""

    @pytest.fixture(scope="class")
    def kernel(self):
        import importlib.machinery

        import priormap.matching as matching

        # The kernel path, not the fallback. Python keeps one copy of a
        # single-phase extension's functions, so once scipy.optimize is
        # imported a later load may hand out the package's function object.
        assert isinstance(matching._lsap_spec().loader, importlib.machinery.ExtensionFileLoader)
        return matching._load_solver()

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

        import priormap.matching as matching

        load, loads = matching._load_solver, []

        def slow_load():
            loads.append(threading.get_ident())
            time.sleep(0.01)  # widen the window in which a second load could start
            return load()

        monkeypatch.setattr(matching, "_solver", None)
        monkeypatch.setattr(matching, "_load_solver", slow_load)
        cost = np.random.default_rng(5).uniform(0, 10, (20, 20))
        workers = 8
        start = threading.Barrier(workers)
        results = [None] * workers

        def solve(k):
            start.wait(timeout=10)
            results[k] = matching.linear_sum_assignment(cost)[1]

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

        import priormap.matching as matching
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
        monkeypatch.setattr(matching, "_lsap_spec", lambda: found)
        monkeypatch.setattr(matching, "_solver", None)
        assert main([*argv, "--out", str(tmp_path / "package.json")]) == 0
        assert matching._solver is oracle
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
