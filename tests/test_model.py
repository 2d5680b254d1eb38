from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_feature, random_frame, ring_feature
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
from priormap.model import polyline_length


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
