from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import line_feature, random_feature, random_frame
from priormap import (
    EvalConfig,
    FeatureClass,
    InvarianceClass,
    MapFrame,
    Pose2D,
    average_precision,
    chamfer_distance,
    chamfer_matrix,
    chamfer_pairs,
    evaluate,
    match_predictions,
    resample_polyline,
)
from priormap import evaluation
from priormap.model import REAL_CLASSES

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_chamfer(pa, pb) -> float:
    """Pure-python nearest-point scan."""
    def directed(xs, ys):
        total = 0.0
        for x in xs:
            best = math.inf
            for y in ys:
                d = math.hypot(x[0] - y[0], x[1] - y[1])
                best = min(best, d)
            total += best
        return total / len(xs)

    return 0.5 * (directed(pa, pb) + directed(pb, pa))


def pairwise_chamfer(pa, pb) -> float:
    """The per-pair numpy Chamfer distance that evaluation computed before
    its matrix kernel; bit-exact oracle for chamfer_matrix."""
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return 0.5 * (float(dist.min(axis=1).mean()) + float(dist.min(axis=0).mean()))


def oracle_greedy_match(preds, gts, tau, distance=oracle_chamfer):
    """Second implementation of the greedy protocol using sorted tuples."""
    order = sorted(range(len(preds)), key=lambda k: (-preds[k].confidence, k))
    free = set(range(len(gts)))
    tp, fp = [], []
    for k in order:
        ranked = sorted(
            ((distance(preds[k].points, gts[j].points), j) for j in free),
        )
        if ranked and ranked[0][0] <= tau:
            free.discard(ranked[0][1])
            tp.append(preds[k].confidence)
        else:
            fp.append(preds[k].confidence)
    return tp, fp, len(free)


def oracle_average_precision(records, n_gt):
    """Threshold-sweep AP computed with explicit python loops."""
    if n_gt <= 0:
        return None
    if not records:
        return 0.0
    levels = sorted({c for c, _ in records}, reverse=True)
    points = []
    for level in levels:
        tp = sum(1 for c, flag in records if flag and c >= level)
        fp = sum(1 for c, flag in records if not flag and c >= level)
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for k, (recall, _) in enumerate(points):
        envelope = max(p for _, p in points[k:])
        ap += (recall - prev_recall) * envelope
        prev_recall = recall
    return ap


def oracle_evaluate(pred_frames, gt_frames, thresholds, classes, floor):
    """From-scratch re-implementation of the whole protocol."""
    gt_by_id = {f.frame_id: f for f in gt_frames}
    per_class = {cls: {t: [] for t in thresholds} for cls in classes}
    n_gt = {cls: 0 for cls in classes}
    for pf in pred_frames:
        gf = gt_by_id[pf.frame_id]
        for cls in classes:
            preds = [
                f
                for f in pf.features
                if f.feature_class is cls
                and f.feature_class is not FeatureClass.NO_OBJECT
                and f.confidence >= floor
            ]
            gts = [f for f in gf.features if f.feature_class is cls]
            n_gt[cls] += len(gts)
            for t in thresholds:
                tp, fp, _ = oracle_greedy_match(preds, gts, t)
                per_class[cls][t].extend((c, True) for c in tp)
                per_class[cls][t].extend((c, False) for c in fp)
    class_means = []
    for cls in classes:
        if n_gt[cls] == 0:
            continue
        aps = [oracle_average_precision(per_class[cls][t], n_gt[cls]) for t in thresholds]
        class_means.append(sum(aps) / len(aps))
    return sum(class_means) / len(class_means) if class_means else None


# ---------------------------------------------------------------------------


class TestChamfer:
    def test_identical_zero(self):
        f = line_feature()
        assert chamfer_distance(f, f) == 0.0

    def test_parallel_offset_exact(self):
        a = line_feature(y=0.0)
        b = line_feature(y=2.5)
        assert chamfer_distance(a, b) == 2.5

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-10, 10, (20, 2))
        b = rng.uniform(-10, 10, (20, 2))
        assert chamfer_distance(a, b) == pytest.approx(oracle_chamfer(a, b), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_nonnegative(self, seed):
        rng = np.random.default_rng(50 + seed)
        a = rng.uniform(-10, 10, (7, 2))
        b = rng.uniform(-10, 10, (13, 2))
        assert chamfer_distance(a, b) == chamfer_distance(b, a)
        assert chamfer_distance(a, b) > 0.0


def random_points(rng, n, scale=1.0):
    return rng.normal(0.0, 10.0, (n, 2)) * scale


def reference_matrix(pa, pb):
    return np.array([[pairwise_chamfer(a, b) for b in pb] for a in pa]).reshape(len(pa), len(pb))


class TestChamferMatrix:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 130, 199, 200])
    def test_pairwise_summation_edges_bit_exact(self, n):
        rng = np.random.default_rng(n)
        pa = np.stack([random_points(rng, n) for _ in range(3)])
        pb = np.stack([random_points(rng, n + 1) for _ in range(2)])
        got = chamfer_matrix(pa, pb)
        assert got.shape == (3, 2)
        assert np.array_equal(got, reference_matrix(pa, pb))
        assert np.array_equal(chamfer_matrix(pb, pa), got.T)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_stacks_bit_exact(self, seed):
        rng = np.random.default_rng(1000 + seed)
        na, nb = (int(v) for v in rng.integers(2, 201, 2))
        p, g = (int(v) for v in rng.integers(1, 5, 2))
        scale = math.exp(rng.uniform(-20.0, 20.0))
        pa = np.stack([random_points(rng, na, scale) for _ in range(p)])
        pb = np.stack([random_points(rng, nb, scale) for _ in range(g)])
        got = chamfer_matrix(pa, pb)
        assert np.array_equal(got, reference_matrix(pa, pb))
        for i in range(p):
            for j in range(g):
                assert chamfer_distance(pa[i], pb[j]) == got[i, j]
        if na * nb <= 2_000:
            assert got[0, 0] == pytest.approx(oracle_chamfer(pa[0], pb[0]), rel=1e-12)

    def test_one_by_one_and_empty_sides(self):
        rng = np.random.default_rng(7)
        a, b = random_points(rng, 5), random_points(rng, 9)
        one = chamfer_matrix(a[None], b[None])
        assert one.shape == (1, 1) and one[0, 0] == pairwise_chamfer(a, b)
        assert chamfer_matrix(np.empty((0, 5, 2)), b[None]).shape == (0, 1)
        assert chamfer_matrix(a[None], np.empty((0, 9, 2))).shape == (1, 0)
        assert chamfer_matrix(np.empty((0, 5, 2)), np.empty((0, 9, 2))).shape == (0, 0)

    @pytest.mark.parametrize("cap", [1, 60, 1_000])
    def test_blocks_over_the_cap_bit_exact(self, monkeypatch, cap):
        rng = np.random.default_rng(cap)
        pa = np.stack([random_points(rng, 6) for _ in range(11)])
        pb = np.stack([random_points(rng, 4) for _ in range(13)])
        want = chamfer_matrix(pa, pb)
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", cap)
        assert np.array_equal(chamfer_matrix(pa, pb), want)
        assert np.array_equal(want, reference_matrix(pa, pb))


class TestChamferPairs:
    def _pairs(self, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """300 pairs over 40 point sets of 1 to 30 points, so point counts
        mix and a set recurs in many pairs, on either side."""
        rng = np.random.default_rng(seed)
        sets = [random_points(rng, int(rng.integers(1, 31)), math.exp(rng.uniform(-20, 20)))
                for _ in range(40)]
        return ([sets[i] for i in rng.integers(0, 40, 300)],
                [sets[i] for i in rng.integers(0, 40, 300)])

    @pytest.mark.parametrize("cap", [None, 1, 50, 2_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_chamfer_distance_bit_for_bit(self, monkeypatch, seed, cap):
        a, b = self._pairs(seed)
        want = np.array([chamfer_distance(x, y) for x, y in zip(a, b)])
        assert want.tobytes() == np.array([pairwise_chamfer(x, y) for x, y in zip(a, b)]).tobytes()
        if cap is not None:
            monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", cap)
        got = chamfer_pairs(a, b)
        assert got.shape == (300,) and got.tobytes() == want.tobytes()

    def test_no_pairs(self):
        assert chamfer_pairs([], []).shape == (0,)


class TestMatchPredictions:
    def test_perfect_predictions(self):
        gts = [line_feature(y=i * 10.0) for i in range(3)]
        out = match_predictions(gts, gts, tau=0.5)
        assert len(out.tp_confidences) == 3
        assert out.fp_confidences == [] and out.fn == 0

    def test_no_predictions(self):
        gts = [line_feature(y=i * 10.0) for i in range(4)]
        out = match_predictions([], gts, tau=0.5)
        assert out.fn == 4 and not out.tp_confidences

    def test_higher_confidence_wins_competition(self):
        gt = [line_feature(y=0.0)]
        weak = line_feature(y=0.1, confidence=0.4)
        strong = line_feature(y=0.2, confidence=0.9)
        out = match_predictions([weak, strong], gt, tau=1.0)
        assert out.tp_confidences == [0.9]
        assert out.fp_confidences == [0.4]

    def test_tie_goes_to_first_label(self):
        # The strong prediction is exactly 1 m from both labels; taking the
        # first leaves the weak one only the far label.
        gts = [line_feature(y=1.0), line_feature(y=-1.0)]
        preds = [line_feature(y=0.0, confidence=0.9), line_feature(y=1.2, confidence=0.5)]
        out = match_predictions(preds, gts, tau=1.0)
        assert out.tp_confidences == [0.9] and out.fp_confidences == [0.5] and out.fn == 1
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, tuple(gts))
        report = evaluate([frame.with_features(preds)], [frame], EvalConfig(thresholds=(1.0,)))
        assert report.counts[1.0] == (1, 1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_second_implementation(self, seed):
        rng = np.random.default_rng(100 + seed)
        preds = [
            random_feature(rng, n=8, cls=FeatureClass.LANE_CENTER,
                           confidence=float(rng.uniform(0.1, 1.0)))
            for _ in range(3)
        ]
        gts = [random_feature(rng, n=8, cls=FeatureClass.LANE_CENTER) for _ in range(3)]
        for tau in (0.5, 2.0, 10.0, 50.0):
            out = match_predictions(preds, gts, tau)
            tp, fp, fn = oracle_greedy_match(preds, gts, tau)
            assert sorted(out.tp_confidences) == sorted(tp)
            assert sorted(out.fp_confidences) == sorted(fp)
            assert out.fn == fn


class TestAveragePrecision:
    def test_all_true_positives(self):
        records = [(0.9, True), (0.8, True), (0.7, True)]
        assert average_precision(records, 3) == 1.0

    def test_all_false_positives(self):
        records = [(0.9, False), (0.5, False)]
        assert average_precision(records, 2) == 0.0

    def test_hand_computed_fixture(self):
        # 2 labels; ranked TP, FP, TP -> 1.0 * 0.5 + (2/3) * 0.5
        records = [(1.0, True), (0.9, False), (0.8, True)]
        assert average_precision(records, 2) == pytest.approx(1.0 / 2 + 2.0 / 3 / 2, abs=1e-9)

    def test_zero_labels_undefined(self):
        assert average_precision([(0.5, False)], 0) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_order_invariance_and_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        # coarse confidences force ties across records
        records = [(rng.randint(1, 5) / 5.0, rng.random() < 0.6) for _ in range(n)]
        n_gt = max(1, sum(1 for _, f in records if f) + rng.randint(0, 3))
        base = average_precision(records, n_gt)
        assert base == pytest.approx(oracle_average_precision(records, n_gt), abs=1e-12)
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert average_precision(shuffled, n_gt) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def _frames(self, seed=0, n_frames=3):
        rng = np.random.default_rng(seed)
        return [random_frame(rng, f"frame_{i}", n_features=6) for i in range(n_frames)]

    def test_perfect_predictions_map_one(self):
        gts = self._frames()
        report = evaluate(gts, gts)
        assert report.mean_ap == 1.0
        for tau, (tp, fp, fn) in report.counts.items():
            assert fp == 0 and fn == 0

    def test_far_shifted_predictions_map_zero(self):
        # widely separated features so a 5 m shift cannot re-match elsewhere
        gts = [
            MapFrame(
                f"frame_{i}",
                Pose2D(0, 0, 0),
                90.0,
                tuple(line_feature(y=-30.0 + 15.0 * k, cls=cls)
                      for k, cls in enumerate(REAL_CLASSES)),
            )
            for i in range(3)
        ]
        shifted = [
            f.with_features([g.with_points(g.points + [0.0, 5.0]) for g in f.features])
            for f in gts
        ]
        report = evaluate(shifted, gts)
        assert report.mean_ap == 0.0

    def test_missing_frames_listed(self):
        gts = self._frames()
        with pytest.raises(ValueError, match="frame_2"):
            evaluate(gts[:2], gts)

    def test_ap_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        gts = self._frames(seed=6)
        noisy = [
            f.with_features(
                [g.with_points(g.points + rng.normal(0, 0.4, g.points.shape)) for g in f.features]
            )
            for f in gts
        ]
        config = EvalConfig(thresholds=(0.25, 0.5, 1.0, 2.0))
        report = evaluate(noisy, gts, config)
        for cls in config.classes:
            aps = [report.ap[cls][t] for t in config.thresholds if report.ap[cls][t] is not None]
            assert all(b >= a - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_score_floor_and_no_object_excluded(self):
        gt = MapFrame("f", Pose2D(0, 0, 0), 90.0, (line_feature(),))
        lowconf = line_feature(confidence=0.01)
        pred = MapFrame("f", Pose2D(0, 0, 0), 90.0, (lowconf,))
        report = evaluate([pred], [gt])
        # the sole prediction is dropped by the floor -> pure miss
        assert report.mean_ap == 0.0
        assert report.counts[0.5] == (0, 0, 1)

    def test_densify_resamples_before_matching(self):
        # a coarse 3-point diagonal vs a dense version of the same segment:
        # densification tightens the Chamfer distance toward the true zero
        coarse = np.array([[0.0, 0.0], [15.0, 9.0], [30.0, 0.0]])
        dense = resample_polyline(coarse, 24)
        gt = MapFrame("f", Pose2D(0, 0, 0), 90.0, (line_feature().with_points(coarse),))
        pred = MapFrame("f", Pose2D(0, 0, 0), 90.0, (line_feature().with_points(dense),))
        plain = chamfer_distance(pred.features[0], gt.features[0])
        report = evaluate([pred], [gt], EvalConfig(thresholds=(plain / 2,), densify=64))
        # without densification the coarse sampling misses; with it, a hit
        assert report.mean_ap == 1.0

    def test_frame_order_invariance(self):
        gts = self._frames(seed=9, n_frames=4)
        rng = np.random.default_rng(1)
        noisy = [
            f.with_features(
                [g.with_points(g.points + rng.normal(0, 0.5, g.points.shape)) for g in f.features]
            )
            for f in gts
        ]
        a = evaluate(noisy, gts).mean_ap
        b = evaluate(noisy[::-1], gts[::-1]).mean_ap
        assert a == pytest.approx(b, abs=1e-12)

    def test_ten_frame_suite_matches_second_implementation(self):
        rng = np.random.default_rng(12)
        gts = [random_frame(rng, f"f{i}", n_features=5, n_points=8) for i in range(10)]
        preds = []
        for f in gts:
            feats = []
            for g in f.features:
                if rng.uniform() < 0.15:
                    continue  # dropped feature
                pts = g.points + rng.normal(0.0, 0.5, g.points.shape)
                feats.append(
                    g.with_points(pts).__class__(
                        g.feature_class, g.invariance, pts,
                        confidence=float(rng.uniform(0.2, 1.0)),
                    )
                )
            preds.append(f.with_features(feats))
        config = EvalConfig()
        got = evaluate(preds, gts, config).mean_ap
        want = oracle_evaluate(
            preds, gts, config.thresholds, config.classes, config.score_floor
        )
        assert got == pytest.approx(want, abs=1e-9)


def mixed_frames(rng, n_frames, classes=REAL_CLASSES):
    """Ground truth with mixed point counts per class, including exact
    duplicate labels (tied distances), and noisy, partly dropped, partly
    doubled predictions with coarse (tied) confidences."""
    gts, preds = [], []
    for k in range(n_frames):
        feats = []
        for _ in range(int(rng.integers(3, 10))):
            cls = classes[int(rng.integers(len(classes)))]
            feats.append(random_feature(rng, n=int(rng.integers(2, 12)), cls=cls))
        feats += feats[: int(rng.integers(0, 2))]
        noisy = []
        for g in feats:
            for _ in range(int(rng.choice([0, 1, 1, 1, 2]))):
                pts = g.points + rng.normal(0.0, rng.choice([0.1, 0.6, 2.0]), g.points.shape)
                noisy.append(g.__class__(g.feature_class, g.invariance, pts,
                                         confidence=int(rng.integers(1, 6)) / 5.0))
        gts.append(MapFrame(f"f{k}", Pose2D(0, 0, 0), 90.0, tuple(feats)))
        preds.append(gts[-1].with_features(noisy))
    return preds, gts


def oracle_report(pred_frames, gt_frames, config):
    """AP and counts from the per-threshold greedy over per-pair Chamfer."""
    def dense(f):
        if config.densify <= 0 or f.n_points == config.densify:
            return f
        closed = f.invariance is InvarianceClass.POLYGON
        return f.with_points(resample_polyline(f.points, config.densify, closed=closed))

    gt_by_id = {f.frame_id: f for f in gt_frames}
    records = {cls: {t: [] for t in config.thresholds} for cls in config.classes}
    counts = {t: [0, 0, 0] for t in config.thresholds}
    n_gt = dict.fromkeys(config.classes, 0)
    for pf in pred_frames:
        gf = gt_by_id[pf.frame_id]
        for cls in config.classes:
            preds = [dense(f) for f in pf.features
                     if f.feature_class is cls and f.confidence >= config.score_floor]
            gts = [dense(f) for f in gf.features if f.feature_class is cls]
            n_gt[cls] += len(gts)
            for t in config.thresholds:
                tp, fp, fn = oracle_greedy_match(preds, gts, t, distance=pairwise_chamfer)
                records[cls][t] += [(c, True) for c in tp] + [(c, False) for c in fp]
                counts[t] = [counts[t][0] + len(tp), counts[t][1] + len(fp), counts[t][2] + fn]
    ap = {cls: {t: average_precision(records[cls][t], n_gt[cls]) for t in config.thresholds}
          for cls in config.classes}
    return ap, {t: tuple(c) for t, c in counts.items()}


class TestEvaluateAgainstPerThresholdGreedy:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_frames(self, seed):
        rng = np.random.default_rng(300 + seed)
        preds, gts = mixed_frames(rng, n_frames=4)
        config = EvalConfig(thresholds=(0.3, 0.8, 1.5, 4.0))
        report = evaluate(preds, gts, config)
        assert (report.ap, report.counts) == oracle_report(preds, gts, config)

    @pytest.mark.parametrize("densify", [2, 7, 30])
    def test_densify(self, densify):
        rng = np.random.default_rng(densify)
        preds, gts = mixed_frames(rng, n_frames=3)
        config = EvalConfig(densify=densify)
        report = evaluate(preds, gts, config)
        assert (report.ap, report.counts) == oracle_report(preds, gts, config)

    def test_class_over_the_block_cap(self, monkeypatch):
        rng = np.random.default_rng(77)
        preds, gts = mixed_frames(rng, n_frames=2, classes=(FeatureClass.LANE_CENTER,))
        config = EvalConfig(thresholds=(0.5, 2.0))
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 50)
        report = evaluate(preds, gts, config)
        assert (report.ap, report.counts) == oracle_report(preds, gts, config)

    def test_class_with_predictions_and_no_labels(self):
        rng = np.random.default_rng(4)
        lanes = [random_feature(rng, n=6, cls=FeatureClass.LANE_CENTER) for _ in range(3)]
        gt = MapFrame("f", Pose2D(0, 0, 0), 90.0, (line_feature(cls=FeatureClass.DRIVEWAY),))
        pred = gt.with_features(lanes)
        report = evaluate([pred], [gt])
        assert (report.ap, report.counts) == oracle_report([pred], [gt], EvalConfig())
        out = match_predictions(lanes, [], tau=1.0)
        assert out.tp_confidences == [] and len(out.fp_confidences) == 3 and out.fn == 0

    def test_densified_class_memory_stays_bounded(self):
        """50 + 50 same-class features at densify=100 make a (50, 50, 100,
        100) distance block, about 200 MB per float64 array if built whole."""
        rng = np.random.default_rng(5)
        feats = tuple(random_feature(rng, n=12, cls=FeatureClass.LANE_CENTER) for _ in range(50))
        gt = MapFrame("f", Pose2D(0, 0, 0), 90.0, feats)
        pred = gt.with_features(f.with_points(f.points + 0.3) for f in feats)
        tracemalloc.start()
        try:
            report = evaluate([pred], [gt], EvalConfig(densify=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts[1.5][0] == 50
        assert peak < 64e6
