from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_feature, random_feature, random_frame, ring_feature
from priormap import (
    DegenerateFeatureError,
    FeatureClass,
    FrameOverflowError,
    InvarianceClass,
    MapFeature,
    MapFrame,
    ModelDims,
    Pose2D,
    apply_rigid_transform,
    clip_to_fov,
    pad_to_fixed,
    resample_polyline,
)
from priormap.model import polyline_length, ring_fault


def arc_position_oracle(polyline: np.ndarray, point: np.ndarray, closed: bool) -> float:
    """Brute-force arc position of a point lying on a polyline: scan every
    segment, project, and take the globally nearest location."""
    ring = np.vstack([polyline, polyline[:1]]) if closed else polyline
    best = (np.inf, 0.0)
    arc = 0.0
    for a, b in zip(ring[:-1], ring[1:]):
        seg = b - a
        seg_len = float(np.linalg.norm(seg))
        if seg_len == 0.0:
            continue
        t = float(np.clip(np.dot(point - a, seg) / seg_len**2, 0.0, 1.0))
        proj = a + t * seg
        d = float(np.linalg.norm(point - proj))
        if d < best[0]:
            best = (d, arc + t * seg_len)
        arc += seg_len
    assert best[0] < 1e-9, "point does not lie on the polyline"
    return best[1]


class TestResample:
    def test_uniform_spacing_on_line(self):
        out = resample_polyline([[0.0, 0.0], [3.0, 0.0]], 4)
        np.testing.assert_array_equal(out, [[0, 0], [1, 0], [2, 0], [3, 0]])

    def test_unit_square_closed(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = resample_polyline(square, 4, closed=True)
        positions = [arc_position_oracle(square, p, closed=True) for p in out]
        gaps = np.diff(positions + [positions[0] + 4.0])
        np.testing.assert_allclose(gaps, 1.0, atol=1e-9)
        assert abs(polyline_length(out, closed=True) - 4.0) < 1e-9

    def test_identity_on_already_uniform(self):
        pts = np.column_stack([np.linspace(0, 10, 7), np.zeros(7)])
        out = resample_polyline(pts, 7)
        np.testing.assert_allclose(out, pts, atol=1e-12)

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(3)
        pts = np.cumsum(rng.uniform(0.5, 1.5, size=(9, 2)), axis=0)
        out = resample_polyline(pts, 13)
        np.testing.assert_array_equal(out[0], pts[0])
        np.testing.assert_array_equal(out[-1], pts[-1])

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFeatureError, match="degenerate feature"):
            resample_polyline([[1.0, 1.0], [1.0, 1.0]], 4)

    @pytest.mark.parametrize("feature, closed", [
        (line_feature(n=7), False), (ring_feature(n=7), True),
    ])
    def test_feature_resampled(self, feature, closed):
        assert feature.resampled(7) is feature
        out = feature.resampled(12)
        assert out.points.tobytes() == resample_polyline(feature.points, 12, closed).tobytes()
        assert (out.feature_class, out.invariance, out.confidence) == (
            feature.feature_class, feature.invariance, feature.confidence)
        assert not out.points.flags.writeable

    @pytest.mark.parametrize("points, closed, message", [
        ([[0.0, 0.0], [0.0, 5e-324]], False, "zero arc length"),  # the square underflows
        ([[0.0, 0.0], [5e-324, 0.0], [5e-324, 5e-324]], True, "zero arc length"),
        ([[-1e200, 0.0], [1e200, 0.0]], False, "infinite arc length"),  # the square overflows
        ([[-1.7e308, 0.0], [1.7e308, 0.0]], False, "infinite arc length"),  # so does the step
        ([[0.0, 0.0], [1e308, 0.0], [1e308, 1e308]], True, "infinite arc length"),
    ])
    def test_length_must_be_positive_and_finite(self, points, closed, message):
        with pytest.raises(DegenerateFeatureError, match=f"^degenerate feature: {message}$"):
            resample_polyline(points, 5, closed=closed)

    def test_consecutive_duplicates_tolerated(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        out = resample_polyline(pts, 5)
        np.testing.assert_allclose(out[:, 0], [0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)

    @given(
        st.integers(4, 24),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_arc_positions_uniform(self, n_out, seed, closed):
        # x strictly increasing keeps the polyline self-distant so the
        # projection oracle is unambiguous.
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(3, 9))
        xs = np.cumsum(rng.uniform(1.0, 3.0, n_in))
        ys = rng.uniform(-2.0, 2.0, n_in)
        pts = np.column_stack([xs, ys])
        if closed:
            # close far below so the return edge cannot shadow the top run
            pts = np.vstack([pts, [[xs[-1], -50.0], [xs[0], -50.0]]])
        total = polyline_length(pts, closed=closed)
        out = resample_polyline(pts, n_out, closed=closed)
        positions = [arc_position_oracle(pts, p, closed) for p in out]
        if closed:
            gaps = np.diff(positions + [positions[0] + total])
            np.testing.assert_allclose(gaps, total / n_out, rtol=1e-6, atol=1e-9)
        else:
            np.testing.assert_allclose(
                positions, np.linspace(0.0, total, n_out), rtol=1e-6, atol=1e-9
            )


class TestPose:
    @pytest.mark.parametrize(
        "raw, want",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (math.tau + 0.5, 0.5),
            (-math.tau - 0.5, -0.5),
        ],
    )
    def test_yaw_normalized_to_half_open_interval(self, raw, want):
        pose = Pose2D(0.0, 0.0, raw)
        assert pose.yaw == pytest.approx(want, abs=1e-12)
        assert -math.pi < pose.yaw <= math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Pose2D(math.nan, 0.0, 0.0)


class TestRigidTransform:
    def test_zero_transform_is_bit_identical(self):
        frame = random_frame(np.random.default_rng(0))
        out = apply_rigid_transform(frame, 0.0, 0.0, 0.0)
        assert out is frame

    def test_quarter_rotation(self):
        feat = MapFeature(
            FeatureClass.LANE_CENTER,
            InvarianceClass.DIRECTED_POLYLINE,
            [[1.0, 0.0], [2.0, 0.0]],
        )
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (feat,))
        out = apply_rigid_transform(frame, 0.0, 0.0, math.pi / 2)
        np.testing.assert_allclose(out.features[0].points, [[0, 1], [0, 2]], atol=1e-12)

    def test_inverse_round_trip(self):
        frame = random_frame(np.random.default_rng(1))
        dx, dy, dyaw = 3.0, -2.0, 0.7
        fwd = apply_rigid_transform(frame, dx, dy, dyaw)
        c, s = math.cos(-dyaw), math.sin(-dyaw)
        back = apply_rigid_transform(fwd, -(c * dx - s * dy), -(s * dx + c * dy), -dyaw)
        for a, b in zip(back.features, frame.features):
            np.testing.assert_allclose(a.points, b.points, atol=1e-9)

    def test_ego_pose_unchanged(self):
        frame = random_frame(np.random.default_rng(2))
        out = apply_rigid_transform(frame, 1.0, 2.0, 0.3)
        assert out.ego_pose == frame.ego_pose

    @given(st.integers(0, 10_000), st.floats(-10, 10), st.floats(-10, 10), st.floats(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_isometry(self, seed, dx, dy, dyaw):
        frame = random_frame(np.random.default_rng(seed), n_features=3)
        out = apply_rigid_transform(frame, dx, dy, dyaw)
        before = np.vstack([f.points for f in frame.features])
        after = np.vstack([f.points for f in out.features])
        db = np.linalg.norm(before[:, None] - before[None, :], axis=2)
        da = np.linalg.norm(after[:, None] - after[None, :], axis=2)
        np.testing.assert_allclose(da, db, atol=1e-9)


class TestWithPoints:
    """with_points against its slow form, dataclasses.replace, which re-runs
    every check of the constructor."""

    @staticmethod
    def _same(a: MapFeature, b: MapFeature) -> bool:
        return (
            type(a) is type(b)
            and vars(a).keys() == vars(b).keys()
            and a == b
            and a.points.tobytes() == b.points.tobytes()
            and a.points.dtype == b.points.dtype
            and a.points.flags.c_contiguous
            and not a.points.flags.writeable
            and repr(a) == repr(b)
        )

    def test_matches_replace(self):
        rng = np.random.default_rng(31)
        for k in range(200):
            feat = random_feature(rng, n=int(rng.integers(2, 30)), confidence=float(rng.uniform()))
            new = rng.normal(0.0, 50.0, (int(rng.integers(1, 30)), 2))
            before = feat.points.copy()
            for points in (new, new.tolist(), new.astype(np.float32), np.asfortranarray(new),
                           new[::-1], new.astype(np.int64)):
                got = feat.with_points(points)
                if feat.invariance is InvarianceClass.POLYGON and ring_fault(got.points):
                    # with_points checks the points alone, not the polygon rule.
                    with pytest.raises(ValueError, match=ring_fault(got.points)):
                        dataclasses.replace(feat, points=points)
                    continue
                assert self._same(got, dataclasses.replace(feat, points=points)), k
                assert got.feature_class is feat.feature_class
                assert got.confidence == feat.confidence
            assert feat.points.tobytes() == before.tobytes()

    @pytest.mark.parametrize("points", [
        np.zeros((3, 3)), np.zeros(4), np.zeros((0, 2, 1)), [[0.0, float("nan")]],
        [[float("inf"), 1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]], "ab",
    ])
    def test_errors_match_replace(self, points):
        feat = line_feature(n=4)
        with pytest.raises(Exception) as slow:
            dataclasses.replace(feat, points=points)
        with pytest.raises(type(slow.value)) as fast:
            feat.with_points(points)
        assert str(fast.value) == str(slow.value)


class TestPadding:
    def test_counting(self):
        dims = ModelDims(m=5, n_points=4)
        feats = [line_feature(n=4), line_feature(y=5, n=4)]
        padded = pad_to_fixed(feats, dims)
        assert len(padded) == 5
        assert padded[0] == feats[0] and padded[1] == feats[1]
        for pad in padded[2:]:
            assert pad.feature_class is FeatureClass.NO_OBJECT
            assert pad.confidence == 0.0
            assert not pad.points.any()

    def test_empty_input(self):
        padded = pad_to_fixed([], ModelDims(m=3, n_points=4))
        assert len(padded) == 3
        assert all(p.feature_class is FeatureClass.NO_OBJECT for p in padded)

    def test_full_input_unchanged(self):
        dims = ModelDims(m=2, n_points=4)
        feats = [line_feature(n=4), line_feature(y=3, n=4)]
        assert pad_to_fixed(feats, dims) == tuple(feats)

    def test_overflow(self):
        dims = ModelDims(m=1, n_points=4)
        with pytest.raises(FrameOverflowError, match="frame overflow"):
            pad_to_fixed([line_feature(n=4), line_feature(y=1, n=4)], dims)

    def test_double_padding_is_an_error(self):
        dims = ModelDims(m=4, n_points=4)
        padded = pad_to_fixed([line_feature(n=4)], dims)
        with pytest.raises(ValueError, match="no-object"):
            pad_to_fixed(padded, dims)


class TestClip:
    def test_all_inside_unchanged(self):
        frame = random_frame(np.random.default_rng(5))
        out = clip_to_fov(frame)
        assert out == frame

    def test_fully_outside_dropped(self):
        inside = line_feature(y=0.0)
        outside = line_feature(y=200.0)
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (inside, outside))
        out = clip_to_fov(frame)
        assert len(out.features) == 1
        assert out.features[0] == inside

    def test_boundary_coordinate_exact(self):
        feat = MapFeature(
            FeatureClass.LANE_CENTER,
            InvarianceClass.DIRECTED_POLYLINE,
            [[0.0, 0.0], [50.0, 0.0]],
        )
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (feat,))
        out = clip_to_fov(frame)
        assert out.features[0].points[-1, 0] == 45.0

    def test_crossing_line_split_into_pieces(self):
        # Enters, leaves through the top, re-enters: two pieces.
        pts = np.array([[-40.0, 0.0], [-20.0, 60.0], [0.0, 60.0], [20.0, 0.0]])
        feat = MapFeature(FeatureClass.ROAD_BOUNDARY, InvarianceClass.UNDIRECTED_POLYLINE, pts)
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (feat,))
        out = clip_to_fov(frame)
        assert len(out.features) == 2
        for piece in out.features:
            assert piece.n_points == feat.n_points
            assert np.all(np.abs(piece.points) <= 45.0 + 1e-12)

    def test_polygon_clipped_to_ring(self):
        ring = ring_feature(cx=43.0, cy=0.0, radius=6.0, n=16)
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (ring,))
        out = clip_to_fov(frame)
        assert len(out.features) == 1
        clipped = out.features[0]
        assert clipped.invariance is InvarianceClass.POLYGON
        assert clipped.n_points == 16
        assert np.all(clipped.points[:, 0] <= 45.0 + 1e-12)

    def test_polygon_fully_outside_dropped(self):
        ring = ring_feature(cx=100.0, cy=100.0, radius=3.0)
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (ring,))
        assert clip_to_fov(frame).features == ()


# The per-segment / per-vertex clipper that clip_to_fov replaced, kept as the
# oracle for the array clip.
_ORACLE_HALFPLANES = ((0, False), (0, True), (1, False), (1, True))


def _oracle_clip_segment_halfplane(a, b, axis, bound, keep_below):
    fa = a[axis] - bound
    fb = b[axis] - bound
    ina = fa <= 0.0 if keep_below else fa >= 0.0
    inb = fb <= 0.0 if keep_below else fb >= 0.0
    if ina and inb:
        return a, b
    if not ina and not inb:
        return None
    t = fa / (fa - fb)
    cross = a + t * (b - a)
    cross[axis] = bound
    return (a, cross) if ina else (cross, b)


def _oracle_clip_segment(a, b, lo, hi):
    seg = (a.copy(), b.copy())
    for axis, below in _ORACLE_HALFPLANES:
        bound = hi if below else lo
        seg = _oracle_clip_segment_halfplane(seg[0], seg[1], axis, bound, below)
        if seg is None:
            return None
    return seg


def _oracle_clip_polyline(pts, lo, hi):
    pieces, current = [], None
    for i in range(pts.shape[0] - 1):
        seg = _oracle_clip_segment(pts[i], pts[i + 1], lo, hi)
        if seg is None:
            current = None
            continue
        a, b = seg
        if current is not None and np.array_equal(current[-1], a):
            current.append(b)
        else:
            current = [a, b]
            pieces.append(current)
    return [np.asarray(p) for p in pieces]


def _oracle_clip_polygon(pts, lo, hi):
    poly = [p.copy() for p in pts]
    for axis, below in _ORACLE_HALFPLANES:
        bound = hi if below else lo
        if not poly:
            return None
        out = []
        for i, cur in enumerate(poly):
            prev = poly[i - 1]
            fc = cur[axis] - bound
            fp = prev[axis] - bound
            cur_in = fc <= 0.0 if below else fc >= 0.0
            prev_in = fp <= 0.0 if below else fp >= 0.0
            if cur_in != prev_in:
                t = fp / (fp - fc)
                cross = prev + t * (cur - prev)
                cross[axis] = bound
                out.append(cross)
            if cur_in:
                out.append(cur.copy())
        poly = out
    kept = []
    for p in poly:
        if not kept or not np.array_equal(kept[-1], p):
            kept.append(p)
    if len(kept) > 1 and np.array_equal(kept[0], kept[-1]):
        kept.pop()
    if len(kept) < 3:
        return None
    ring = np.asarray(kept)
    return ring if polyline_length(ring, closed=True) > 0.0 else None


def oracle_clip_to_fov(frame: MapFrame) -> MapFrame:
    half = frame.fov_side / 2.0
    lo, hi = -half, half
    out = []
    for feat in frame.features:
        pts = feat.points
        if np.all((pts >= lo) & (pts <= hi)):
            out.append(feat)
        elif feat.invariance is InvarianceClass.POLYGON:
            ring = _oracle_clip_polygon(pts, lo, hi)
            if ring is not None:
                out.append(feat.with_points(resample_polyline(ring, feat.n_points, closed=True)))
        else:
            for piece in _oracle_clip_polyline(pts, lo, hi):
                if polyline_length(piece) > 0.0:
                    out.append(feat.with_points(resample_polyline(piece, feat.n_points)))
    return frame.with_features(out)


def edge_case_feature(rng: np.random.Generator, half: float) -> tuple[str, MapFeature]:
    """A random feature near the FOV square of half-side `half`, of one of
    the kinds the clip must get right; returns (kind, feature)."""
    kind = ["walk", "on_edge", "repeats", "corner_ring", "outside"][int(rng.integers(5))]
    cls = [FeatureClass.LANE_CENTER, FeatureClass.LANE_DIVIDER, FeatureClass.DRIVEWAY][
        int(rng.integers(3))]
    n = int(rng.integers(2, 16))
    if kind == "corner_ring":
        cls = FeatureClass.DRIVEWAY
        corner = rng.choice([-half, half], 2)
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, max(n, 3)))
        pts = corner + rng.uniform(2.0, 20.0) * np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        # A random walk with long steps, so it leaves the square and comes back.
        steps = rng.normal(0.0, rng.uniform(5.0, 40.0), (n, 2))
        pts = rng.uniform(-1.2 * half, 1.2 * half, 2) + np.cumsum(steps, axis=0)
    if kind == "on_edge":
        # Snap to a grid that holds the edges, so vertices land exactly on
        # them and segments run along them.
        pts = np.round(pts / (half / 3.0)) * (half / 3.0)
    if kind == "repeats":
        pts = np.repeat(pts, rng.integers(1, 4, len(pts)), axis=0)
    if kind == "outside":
        pts = pts + rng.choice([-1.0, 1.0], 2) * (3.0 * half + np.abs(pts).max())
    # A drawn driveway that breaks the polygon rule (2 points, or a last
    # vertex snapped onto the first) is kept as a polyline.
    polygon = cls is FeatureClass.DRIVEWAY and ring_fault(pts) is None
    inv = InvarianceClass.POLYGON if polygon else InvarianceClass.UNDIRECTED_POLYLINE
    return kind, MapFeature(cls, inv, pts)


class TestClipMatchesOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_frames_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        seen = {"pieces>1": 0, "dropped": 0, "on_edge": 0, "repeats": 0, "corner_ring": 0}
        for k in range(80):
            half = float(rng.choice([45.0, 30.0, 12.5]))
            drawn = [edge_case_feature(rng, half) for _ in range(int(rng.integers(0, 9)))]
            frame = MapFrame(f"f{k}", Pose2D(0, 0, 0), 2.0 * half, tuple(f for _, f in drawn))
            want = oracle_clip_to_fov(frame)
            got = clip_to_fov(frame)
            assert got == want
            for a, b in zip(got.features, want.features):
                assert a.points.tobytes() == b.points.tobytes()
            for kind, feat in drawn:
                one = oracle_clip_to_fov(frame.with_features([feat])).features
                seen["pieces>1"] += len(one) > 1
                seen["dropped"] += not one
                if kind in seen and np.any(np.abs(feat.points) > half):
                    seen[kind] += 1
        assert min(seen.values()) > 0, seen

    def test_hand_cases_bit_identical(self):
        on_edge = [[-45.0, 0.0], [-45.0, 10.0], [-60.0, 10.0], [-45.0, 20.0], [0.0, 45.0]]
        repeats = [[0.0, 0.0], [0.0, 0.0], [50.0, 0.0], [50.0, 0.0], [50.0, 5.0], [0.0, 5.0]]
        back_and_forth = [[-50.0, 0.0], [50.0, 0.0], [50.0, 10.0], [-50.0, 10.0]]
        touch_corner = [[40.0, 50.0], [50.0, 40.0]]
        feats = [
            MapFeature(FeatureClass.LANE_CENTER, InvarianceClass.DIRECTED_POLYLINE, pts)
            for pts in (on_edge, repeats, back_and_forth, touch_corner)
        ] + [
            ring_feature(cx=45.0, cy=-45.0, radius=10.0, n=7),
            ring_feature(cx=45.0, cy=45.0, radius=1e-3, n=3),
            MapFeature(FeatureClass.DRIVEWAY, InvarianceClass.POLYGON,
                       [[45.0, 0.0], [60.0, 0.0], [60.0, 10.0], [45.0, 10.0]]),
            ring_feature(cx=300.0, cy=0.0),
        ]
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, tuple(feats))
        assert clip_to_fov(frame) == oracle_clip_to_fov(frame)
        # Pieces per feature: the repeated outside vertex ends a piece, the
        # corner touch has zero length, and the ring along the edge is flat.
        counts = [len(clip_to_fov(frame.with_features([f])).features) for f in feats]
        assert counts == [2, 2, 2, 0, 1, 1, 0, 0]

    def test_empty_frame(self):
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, ())
        assert clip_to_fov(frame) == oracle_clip_to_fov(frame) == frame


class TestPolygonRule:
    @pytest.mark.parametrize("points, fault", [
        (np.zeros((0, 2)), "polygons need at least 3 points"),
        ([[0.0, 0.0]], "polygons need at least 3 points"),
        ([[0.0, 0.0], [1.0, 0.0]], "polygons need at least 3 points"),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], "polygons must not repeat the closing vertex"),
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-0.0, 0.0]],
         "polygons must not repeat the closing vertex"),
    ])
    def test_map_feature_refuses(self, points, fault):
        assert ring_fault(np.asarray(points, dtype=np.float64).reshape(-1, 2)) == fault
        with pytest.raises(ValueError, match=f"^{fault}$"):
            MapFeature(FeatureClass.DRIVEWAY, InvarianceClass.POLYGON, points)
        if len(points) >= 2:  # a polyline may take the same points
            MapFeature(FeatureClass.LANE_DIVIDER, InvarianceClass.UNDIRECTED_POLYLINE, points)
