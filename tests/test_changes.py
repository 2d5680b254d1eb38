from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priormap.changes as changes
from conftest import grid_world, line_feature, ring_feature
from priormap import (
    DEFAULT_INVARIANCE,
    Box,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    MapVersion,
    Pose2D,
    build_scene_pair,
    build_scene_pairs,
    change_regions,
    chamfer_distance,
    diff_maps,
    evaluate,
    mine_frames,
    read_map_version,
    resample_polyline,
    write_map_version,
)
from priormap.model import clip_pieces, world_to_ego
from test_chain import _case
from test_model import _oracle_clip_polygon, _oracle_clip_polyline, reference_length

GATE = 10.0


def sloped_segment(rng, cls=FeatureClass.LANE_CENTER, n=20):
    """A straight segment with random x-range and slope, near the origin."""
    x0 = float(rng.uniform(-30, 30))
    x = np.linspace(x0, x0 + float(rng.uniform(5, 25)), n)
    y = float(rng.uniform(-10, 10)) + float(rng.uniform(-0.6, 0.6)) * (x - x0)
    return MapFeature(cls, DEFAULT_INVARIANCE[cls], np.column_stack([x, y]))


def oracle_diff_class(old_feats, new_feats, modify_tol, gate):
    """Exhaustive matching oracle for one class group: among all maximum
    injective matchings, lexicographically minimize (pairs beyond the gate,
    total in-gate Chamfer), mirroring the forbidden-cost formulation."""
    n_old, n_new = len(old_feats), len(new_feats)
    swap = n_old > n_new
    a, b = (new_feats, old_feats) if swap else (old_feats, new_feats)
    best = None
    for injection in itertools.permutations(range(len(b)), len(a)):
        forbidden = 0
        cost = 0.0
        pairs = []
        for i, j in enumerate(injection):
            d = chamfer_distance(a[i], b[j])
            if d > gate:
                forbidden += 1
            else:
                cost += d
                pairs.append((i, j, d))
        key = (forbidden, cost)
        if best is None or key < best[0]:
            best = (key, pairs)
    matched = [(j, i, d) if swap else (i, j, d) for i, j, d in best[1]]
    modified = [(i, j, d) for i, j, d in matched if d > modify_tol]
    matched_old = {i for i, _, _ in matched}
    matched_new = {j for _, j, _ in matched}
    removed = [i for i in range(n_old) if i not in matched_old]
    added = [j for j in range(n_new) if j not in matched_new]
    return added, removed, modified


class TestDiffMaps:
    def _version(self, feats, vid="v", ids=None):
        return MapVersion.build(vid, feats, ids)

    def test_identical_maps_empty(self):
        feats = grid_world(n_blocks=2)
        report = diff_maps(self._version(feats, "old"), self._version(feats, "new"))
        assert report.is_empty

    def test_translated_feature_is_modified(self):
        base = [line_feature(y=0.0, x0=0.0, x1=30.0), line_feature(y=50.0, x0=0.0, x1=30.0)]
        moved = [base[0].with_points(base[0].points + [0.0, 2.0]), base[1]]
        report = diff_maps(self._version(base, "old"), self._version(moved, "new"),
                           modify_tol=0.25)
        assert report.added == () and report.removed == ()
        assert len(report.modified) == 1
        old_id, new_id, d = report.modified[0]
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_added_and_removed(self):
        old = [line_feature(y=0.0), ring_feature(cx=20.0, cy=20.0)]
        new = [line_feature(y=0.0), line_feature(y=30.0, cls=FeatureClass.ROAD_BOUNDARY)]
        report = diff_maps(self._version(old, "old"), self._version(new, "new"))
        assert len(report.removed) == 1 and len(report.added) == 1

    def _assert_matches_oracle(self, old, new):
        report = diff_maps(self._version(old, "old"), self._version(new, "new"),
                           modify_tol=0.25, max_match_dist=GATE)
        added, removed, modified = oracle_diff_class(old, new, 0.25, GATE)
        assert sorted(report.added) == sorted(str(j) for j in added)
        assert sorted(report.removed) == sorted(str(i) for i in removed)
        got_mod = sorted((o, n) for o, n, _ in report.modified)
        want_mod = sorted((str(i), str(j)) for i, j, _ in modified)
        assert got_mod == want_mod

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_old = int(rng.integers(1, 5))
        n_new = int(rng.integers(1, 5))
        cls = FeatureClass.LANE_CENTER
        old = [line_feature(y=float(rng.uniform(-40, 40)), x0=-20, x1=20, cls=cls)
               for _ in range(n_old)]
        new = [line_feature(y=float(rng.uniform(-40, 40)), x0=-20, x1=20, cls=cls)
               for _ in range(n_new)]
        self._assert_matches_oracle(old, new)
        # Equal-length parallel lines tie exactly (their Chamfer distance is
        # |dy|), so non-parallel segments of random extent pin the matching.
        old = [sloped_segment(rng) for _ in range(int(rng.integers(2, 7)))]
        new = [sloped_segment(rng) for _ in range(int(rng.integers(2, 7)))]
        self._assert_matches_oracle(old, new)

    def test_connected_grid_evaluates_only_gated_pairs(self, monkeypatch):
        # One class, 8 x 8 blocks of 30 m segments joined at every node, so
        # the whole network is one chain of features within the gate.
        side, block = 8, 30.0
        feats = []
        for i in range(side + 1):
            for k in range(side):
                across = line_feature(y=i * block, x0=k * block, x1=(k + 1) * block)
                feats += [across, across.with_points(across.points[:, ::-1])]
        moved_idx = 36  # a horizontal segment, moved across its own direction
        moved = list(feats)
        moved[moved_idx] = feats[moved_idx].with_points(feats[moved_idx].points + [0.0, 1.5])
        calls = []
        stacked = changes.chamfer_pairs

        def counted(a, b):
            # The candidate pairs the one stacked pass per class receives.
            for pa, pb in zip(a, b):
                calls.append((Box(*pa.min(axis=0), *pa.max(axis=0)),
                              Box(*pb.min(axis=0), *pb.max(axis=0))))
            return stacked(a, b)

        monkeypatch.setattr(changes, "chamfer_pairs", counted)
        report = diff_maps(self._version(feats, "old"), self._version(moved, "new"),
                           max_match_dist=GATE)
        assert report.added == () and report.removed == ()
        ((old_id, new_id, d),) = report.modified
        assert (old_id, new_id) == (str(moved_idx), str(moved_idx))
        assert d == pytest.approx(1.5, abs=1e-12)
        assert calls
        for a, b in calls:
            gap_x = max(0.0, a.min_x - b.max_x, b.min_x - a.max_x)
            gap_y = max(0.0, a.min_y - b.max_y, b.min_y - a.max_y)
            assert math.hypot(gap_x, gap_y) <= GATE
        assert len(calls) < len(feats) ** 2 / 10

    def test_solves_through_module_attribute(self, monkeypatch):
        # Assignment sizes are counted by patching changes.linear_sum_assignment
        # (bench/tracing.py), so the id-less diff must solve through that name.
        solve, shapes = changes.linear_sum_assignment, []

        def counting(cost):
            shapes.append(cost.shape)
            return solve(cost)

        old = [line_feature(y=0.0), line_feature(y=20.0),
               line_feature(y=0.0, cls=FeatureClass.ROAD_BOUNDARY)]
        new = [old[0].with_points(old[0].points + [0.0, 1.0]), old[2]]
        monkeypatch.setattr(changes, "linear_sum_assignment", counting)
        report = diff_maps(self._version(old, "old"), self._version(new, "new"))
        assert report.modified[0][:2] == ("0", "0") and report.removed == ("1",)
        assert sorted(shapes) == [(1, 1), (2, 1)]

    def test_zero_gate_still_matches_identical_features(self):
        a = line_feature(y=0.0)
        b = line_feature(y=50.0)
        moved_b = b.with_points(b.points + [0.0, 1.0])
        report = diff_maps(self._version([a, b], "old"), self._version([moved_b, a], "new"),
                           max_match_dist=0.0)
        assert report.removed == ("1",)
        assert report.added == ("0",)
        assert report.modified == ()

    @pytest.mark.parametrize("gate", [-1.0, float("nan")])
    def test_invalid_gate_rejected(self, gate):
        version = self._version([line_feature()])
        with pytest.raises(ValueError, match="max_match_dist"):
            diff_maps(version, version, max_match_dist=gate)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_invalid_modify_tol_rejected(self, tol):
        # Accepted, nan would lose the 0.5 m move, and -1 would mark the
        # unmoved feature (Chamfer 0.0) modified.
        old = self._version([line_feature(y=0.0), line_feature(y=30.0)], "old")
        new = self._version([line_feature(y=0.0), line_feature(y=30.5)], "new")
        with pytest.raises(ValueError, match=f"^modify_tol must be a non-negative distance, "
                                             f"got {tol}$"):
            diff_maps(old, new, modify_tol=tol)
        assert diff_maps(old, new, modify_tol=0.0).modified == (("1", "1", 0.5),)

    def test_beyond_gate_becomes_add_remove(self):
        old = [line_feature(y=0.0)]
        new = [line_feature(y=GATE + 15.0)]
        report = diff_maps(self._version(old, "o"), self._version(new, "n"),
                           max_match_dist=GATE)
        assert report.modified == ()
        assert len(report.added) == 1 and len(report.removed) == 1

    def test_id_based_diff(self):
        old_feats = [line_feature(y=0.0), line_feature(y=20.0)]
        new_feats = [old_feats[0].with_points(old_feats[0].points + [0.0, 3.0]),
                     line_feature(y=40.0)]
        old = self._version(old_feats, "old", ids=["a", "b"])
        new = self._version(new_feats, "new", ids=["a", "c"])
        report = diff_maps(old, new)
        assert report.added == ("c",)
        assert report.removed == ("b",)
        assert report.modified[0][:2] == ("a", "a")

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        old = [line_feature(y=float(rng.uniform(-40, 40))) for _ in range(4)]
        new = [line_feature(y=float(rng.uniform(-40, 40))) for _ in range(3)]
        fwd = diff_maps(self._version(old, "o"), self._version(new, "n"))
        rev = diff_maps(self._version(new, "n"), self._version(old, "o"))
        assert set(fwd.added) == set(rev.removed)
        assert set(fwd.removed) == set(rev.added)
        assert {(o, n) for o, n, _ in fwd.modified} == {(n, o) for o, n, _ in rev.modified}


def oracle_regions(bounds, buffer):
    """The pairwise merge-until-stable loop change_regions replaced: each
    buffered box joins the first kept box it touches, and passes repeat
    until one merges nothing."""
    boxes = [Box(x0 - buffer, y0 - buffer, x1 + buffer, y1 + buffer) for x0, y0, x1, y1 in bounds]
    merged = True
    while merged:
        merged = False
        out = []
        for box in boxes:
            for k, existing in enumerate(out):
                if existing.intersects(box):
                    out[k] = Box(min(existing.min_x, box.min_x), min(existing.min_y, box.min_y),
                                 max(existing.max_x, box.max_x), max(existing.max_y, box.max_y))
                    merged = True
                    break
            else:
                out.append(box)
        boxes = out
    return tuple(sorted(boxes, key=lambda b: (b.min_x, b.min_y, b.max_x, b.max_y)))


# Integer corners on a small grid, so boxes often touch at an edge or a
# corner, nest, or repeat exactly.
_corner = st.integers(-12, 12)
_size = st.integers(0, 6)
_box_rows = st.lists(st.tuples(_corner, _corner, _size, _size).map(
    lambda r: (float(r[0]), float(r[1]), float(r[0] + r[2]), float(r[1] + r[3]))), max_size=30)


def _report_with_bounds(rows):
    bounds = np.array(rows, dtype=np.float64).reshape(-1, 4)
    empty = MapVersion.build("empty", [])
    return replace(diff_maps(empty, empty), change_bounds=bounds)


class TestChangeRegions:
    @settings(max_examples=300, deadline=None)
    @given(rows=_box_rows, buffer=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def test_matches_merge_loop_oracle(self, rows, buffer):
        regions = change_regions(_report_with_bounds(rows), buffer=buffer)
        assert regions == oracle_regions(rows, buffer)
        for a, b in itertools.combinations(regions, 2):
            assert not a.intersects(b)
        for x0, y0, x1, y1 in rows:
            assert any(r.min_x <= x0 - buffer and r.min_y <= y0 - buffer
                       and x1 + buffer <= r.max_x and y1 + buffer <= r.max_y for r in regions)

    def test_merge_reaches_box_neither_part_touched(self):
        # Boxes 1 and 2 touch at a corner and join into a box that reaches
        # box 0, which neither touched alone, so one pass is not enough.
        rows = [(3.0, 0.0, 4.0, 0.5), (0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 5.0, 2.0)]
        regions = change_regions(_report_with_bounds(rows), buffer=0.0)
        assert regions == (Box(0.0, 0.0, 5.0, 2.0),) == oracle_regions(rows, 0.0)

    @pytest.mark.parametrize("buffer", [-100.0, -1e-300, float("nan"), float("inf")])
    def test_invalid_buffer_rejected(self, buffer):
        # Accepted, -100 would give an inverted region that no window
        # touches, and nan or inf regions that JSON cannot hold.
        report = _report_with_bounds([(0.0, 0.0, 10.0, 10.0)])
        with pytest.raises(ValueError, match=f"^buffer must be a finite non-negative distance, "
                                             f"got {buffer}$"):
            change_regions(report, buffer=buffer)
        assert change_regions(report, buffer=0.0) == (Box(0.0, 0.0, 10.0, 10.0),)

    def test_no_changes_no_regions(self):
        report = diff_maps(
            MapVersion.build("a", [line_feature()]), MapVersion.build("b", [line_feature()])
        )
        assert change_regions(report) == ()

    def test_point_change_buffered_box(self):
        old = MapVersion.build("a", [MapFeature(
            FeatureClass.LANE_CENTER,
            InvarianceClass.DIRECTED_POLYLINE,
            [[5.0, 5.0], [5.0, 5.0]],
        )])
        new = MapVersion.build("b", [])
        report = diff_maps(old, new)
        (region,) = change_regions(report, buffer=10.0)
        assert region == Box(-5.0, -5.0, 15.0, 15.0)

    def test_nearby_changes_merge(self):
        f1 = line_feature(y=0.0, x0=0.0, x1=1.0)
        f2 = line_feature(y=5.0, x0=0.0, x1=1.0)
        old = MapVersion.build("a", [f1, f2])
        new = MapVersion.build("b", [])
        report = diff_maps(old, new)
        regions = change_regions(report, buffer=10.0)
        assert len(regions) == 1
        assert regions[0] == Box(-10.0, -10.0, 11.0, 15.0)

    def test_distant_changes_stay_separate(self):
        f1 = line_feature(y=0.0, x0=0.0, x1=1.0)
        f2 = line_feature(y=100.0, x0=0.0, x1=1.0)
        report = diff_maps(MapVersion.build("a", [f1, f2]), MapVersion.build("b", []))
        assert len(change_regions(report, buffer=10.0)) == 2


def _straight_trajectory(speed=4.0, t_end=120.0, dt=1.0, x0=-200.0):
    return [
        (t, Pose2D(x0 + speed * t, 0.0, 0.0))
        for t in np.arange(0.0, t_end + dt / 2, dt)
    ]


class TestMineFrames:
    def test_far_trajectory_no_windows(self):
        traj = _straight_trajectory()
        regions = [Box(5_000.0, 5_000.0, 5_100.0, 5_100.0)]
        assert mine_frames(traj, regions) == []

    def test_corner_touch_counts(self):
        pose = Pose2D(5.0, 5.0, 0.0)
        regions = [Box(50.0, 50.0, 60.0, 60.0)]  # corner exactly at FOV corner
        windows = mine_frames([(0.0, pose)], regions, fov_side=90.0)
        assert len(windows) == 1

    def test_window_times_match_analytic_entry(self):
        speed, dt = 4.0, 1.0
        traj = _straight_trajectory(speed=speed, dt=dt)
        region = Box(100.0, -5.0, 110.0, 5.0)
        windows = mine_frames(traj, [region], fov_side=90.0, window=30.0)
        # FOV reaches the region when x + 45 >= 100 -> t = (55 - -200)/4
        t_enter = (region.min_x - 45.0 - (-200.0)) / speed
        assert len(windows) >= 1
        first = windows[0]
        assert t_enter <= first.t_start <= t_enter + dt
        assert first.t_end == first.t_start + 30.0

    def test_windows_anchored_and_disjoint(self):
        traj = _straight_trajectory(t_end=300.0)
        regions = [Box(-60.0, -10.0, -50.0, 10.0), Box(300.0, -10.0, 310.0, 10.0)]
        windows = mine_frames(traj, regions, window=30.0)
        assert len(windows) >= 2
        for win in windows:
            t, pose = traj[win.anchor_index]
            assert t == win.t_start
            fov = Box(pose.x - 45, pose.y - 45, pose.x + 45, pose.y + 45)
            assert any(fov.intersects(r) for r in regions)
        for a, b in zip(windows, windows[1:]):
            assert b.t_start > a.t_end

    def test_unsorted_trajectory_rejected(self):
        traj = [(1.0, Pose2D(0, 0, 0)), (0.5, Pose2D(1, 0, 0))]
        with pytest.raises(ValueError, match="sorted"):
            mine_frames(traj, [Box(-1, -1, 1, 1)])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scan_oracle(self, seed):
        # Whole-second times with repeats, so window ends land on pose times.
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.integers(0, 3, 200)).astype(float)
        xs = np.cumsum(rng.normal(0.0, 20.0, 200))
        traj = [(float(t), Pose2D(float(x), 0.0, 0.0)) for t, x in zip(times, xs)]
        regions = [Box(-100.0, -5.0, -90.0, 5.0), Box(60.0, -5.0, 80.0, 5.0)]
        hits = [any(Box(p.x - 45, p.y - 45, p.x + 45, p.y + 45).intersects(r)
                    for r in regions) for _, p in traj]
        want = []
        i = 0
        while i < len(traj):
            if hits[i]:
                members = [j for j in range(i, len(traj)) if times[j] <= times[i] + 5.0]
                want.append((i, times[i], times[i] + 5.0, tuple(members)))
                i = members[-1] + 1
            else:
                i += 1
        got = mine_frames(traj, regions, fov_side=90.0, window=5.0)
        assert [(w.anchor_index, w.t_start, w.t_end, w.pose_indices) for w in got] == want
        assert want

    @pytest.mark.parametrize("window", [-1.0, float("nan"), float("inf")])
    def test_invalid_window_rejected(self, window):
        with pytest.raises(ValueError, match="^window must be a finite non-negative duration"):
            mine_frames([(0.0, Pose2D(0, 0, 0))], [Box(-1, -1, 1, 1)], window=window)


    @pytest.mark.parametrize("chunk", [changes._POSE_CHUNK, 7])
    def test_hits_match_box_intersects_scan(self, chunk, monkeypatch):
        # Integer coordinates, so many FOV squares touch a region exactly at
        # an edge or a corner; window 0 over distinct times anchors one
        # window at every hit, so the anchors are the hits.
        monkeypatch.setattr(changes, "_POSE_CHUNK", chunk)
        rng = np.random.default_rng(11)
        traj = [(float(t), Pose2D(float(x), float(y), float(yaw)))
                for t, (x, y, yaw) in enumerate(rng.integers(-300, 300, (3000, 3)))]
        regions = [Box(float(x), float(y), float(x + w), float(y + h))
                   for x, y, w, h in zip(*rng.integers(-300, 300, (2, 40)),
                                         *rng.integers(0, 30, (2, 40)))]
        want = [i for i, (_, p) in enumerate(traj)
                if any(Box(p.x - 45.0, p.y - 45.0, p.x + 45.0, p.y + 45.0).intersects(r)
                       for r in regions)]
        got = mine_frames(traj, regions, fov_side=90.0, window=0.0)
        assert [w.anchor_index for w in got] == want
        assert all(w.pose_indices == (w.anchor_index,) for w in got)
        assert 0 < len(want) < len(traj)

    def test_no_regions_or_poses(self):
        traj = _straight_trajectory()
        assert mine_frames(traj, []) == []
        assert mine_frames([], [Box(-1.0, -1.0, 1.0, 1.0)]) == []


class TestBuildScenePair:
    def _world(self):
        return MapVersion.build("old", grid_world(n_blocks=3))

    def test_equal_maps_give_equal_pair(self):
        world = self._world()
        pose = Pose2D(180.0, 180.0, 0.3)
        pair = build_scene_pair(world, world, pose)
        assert pair.prior == pair.ground_truth
        assert all(f.n_points == 20 for f in pair.prior.features)
        assert all(f.confidence == 1.0 for f in pair.prior.features)

    def test_added_feature_appears_only_in_ground_truth(self):
        world = self._world()
        extra = line_feature(y=0.0, x0=170.0, x1=190.0)
        extra = extra.with_points(extra.points + [0.0, 182.0])
        new = MapVersion.build("new", list(world.features) + [extra])
        pair = build_scene_pair(world, new, Pose2D(180.0, 180.0, 0.0))
        assert len(pair.ground_truth.features) == len(pair.prior.features) + 1

    def test_pose_outside_extent_rejected(self):
        world = self._world()
        with pytest.raises(ValueError, match="outside extent"):
            build_scene_pair(world, world, Pose2D(-500.0, 0.0, 0.0))

    def test_invariant_under_world_reanchoring(self):
        # rigidly re-anchoring both maps and the pose leaves the ego-frame
        # crops unchanged up to floating point
        inner = [f for f in grid_world(n_blocks=3)
                 if max(abs(np.asarray(f.bounds()) - 180.0)) < 25.0]
        old = MapVersion.build("old", inner)
        new = MapVersion.build("new", [
            f.with_points(f.points + [1.0, 0.0]) if k == 0 else f
            for k, f in enumerate(inner)
        ])
        pose = Pose2D(180.0, 180.0, 0.4)
        base = build_scene_pair(old, new, pose)

        dx, dy, dyaw = 500.0, -250.0, 0.9
        c, s = math.cos(dyaw), math.sin(dyaw)
        rot = np.array([[c, -s], [s, c]])

        def move(feats):
            return [f.with_points(f.points @ rot.T + [dx, dy]) for f in feats]

        moved_pose = Pose2D(
            c * pose.x - s * pose.y + dx, s * pose.x + c * pose.y + dy, pose.yaw + dyaw
        )
        shifted = build_scene_pair(
            MapVersion.build("old", move(old.features)),
            MapVersion.build("new", move(new.features)),
            moved_pose,
        )
        for a, b in zip(base.prior.features + base.ground_truth.features,
                        shifted.prior.features + shifted.ground_truth.features):
            assert a.feature_class is b.feature_class
            np.testing.assert_allclose(a.points, b.points, atol=1e-8)

    @pytest.mark.parametrize("yaw", [0.0, 0.7, -2.0])
    def test_crop_matches_per_feature_resample(self, yaw):
        # The one stacked resample per crop against cutting each feature
        # exactly and resampling each piece alone, rebuilt with the
        # constructor's checks. Confidences below 1, which the crop sets to 1.
        world = MapVersion.build("old", [replace(f, confidence=0.25 + 0.5 * (k % 2)) for k, f in
                                         enumerate(grid_world(n_blocks=3, block=60.0, n_points=9))])
        pose = Pose2D(170.0, 95.0, yaw)
        got = build_scene_pair(world, world, pose, n_points=13, frame_id="f").prior
        _assert_identical(got, oracle_crop(world, pose, 90.0, 13, "f"))
        assert len(got.features) > 10
        assert any(f.invariance is InvarianceClass.POLYGON for f in got.features)
        assert any(np.abs(f.points).max() == 45.0 for f in got.features)

    def test_crop_keeps_the_polygon_rule(self):
        world = self._world()
        with pytest.raises(ValueError,
                           match="^frame pose_180.000_180.000: polygons need at least 3 points$"):
            build_scene_pair(world, world, Pose2D(180.0, 180.0, 0.0), n_points=2)

    def test_feature_the_ego_transform_rounds_to_a_point_gives_no_piece(self, tmp_path):
        # Features one ulp long, which every reader accepts; the shift to the
        # ego origin of a pose 19 m away rounds each to a point. Each gives
        # no piece, as a cut piece of zero length gives none; the crop's
        # resample used to fail on them with "zero arc length".
        one = math.nextafter(1.0, 2.0)
        lane = MapFeature(FeatureClass.LANE_CENTER, InvarianceClass.DIRECTED_POLYLINE,
                          [[0.0, 0.0], [100.0, 100.0]])
        divider = MapFeature(FeatureClass.LANE_DIVIDER, InvarianceClass.UNDIRECTED_POLYLINE,
                             [[1.0, 1.0], [one, 1.0]])
        ring = MapFeature(FeatureClass.DRIVEWAY, InvarianceClass.POLYGON,
                          [[1.0, 1.0], [one, 1.0], [1.0, one]])
        path = tmp_path / "map.jsonl"
        write_map_version("v", [lane, divider, ring], path)
        world = MapVersion.build(*read_map_version(path))
        pose = Pose2D(20.0, 20.0, 0.0)
        ego = world_to_ego(np.concatenate([divider.points, ring.points]), pose)
        assert (ego == [-19.0, -19.0]).all()
        pair = build_scene_pair(world, world, pose, n_points=5)
        assert [f.feature_class for f in pair.prior.features] == [FeatureClass.LANE_CENTER]
        # A divider 3.6e-15 m long beside a 100 m lane, at yaw 0.67: whether
        # the rotation rounds it to a point depends on the BLAS kernel, and
        # the crop succeeds either way.
        divider = divider.with_points([[30.0, 7.0], [math.nextafter(30.0, 100.0), 7.0]])
        world = MapVersion.build("v", [lane.with_points([[0.0, 0.0], [100.0, 0.0]]), divider])
        pair = build_scene_pair(world, world, Pose2D(0.0, 0.0, 0.67))
        assert pair.prior.features[0].feature_class is FeatureClass.LANE_CENTER

    @pytest.mark.parametrize("yaw", [0.0, math.pi / 2, 1.1, -2.2])
    def test_prior_gt_relation_invariant_under_yaw(self, yaw):
        # Content kept inside the inscribed circle is cropped identically at
        # any yaw, so the pass-through score must not depend on heading.
        inner = [f for f in grid_world(n_blocks=3)
                 if max(abs(np.asarray(f.bounds()) - 180.0)) < 25.0]
        old = MapVersion.build("old", inner)
        moved = [
            f.with_points(f.points + [1.0, 0.0]) if k == 0 else f
            for k, f in enumerate(inner)
        ]
        new = MapVersion.build("new", moved)
        base = build_scene_pair(old, new, Pose2D(180.0, 180.0, 0.0))
        rotated = build_scene_pair(old, new, Pose2D(180.0, 180.0, yaw))
        score_base = evaluate([base.prior], [base.ground_truth]).mean_ap
        score_rot = evaluate([rotated.prior], [rotated.ground_truth]).mean_ap
        assert score_rot == pytest.approx(score_base, abs=1e-9)


class TestChangeBounds:
    @staticmethod
    def _union(a, b):
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a.bounds(), b.bounds()
        return [min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1)]

    def _assert_bounds(self, report, old, new):
        old_at = dict(zip(old.feature_ids, old.features))
        new_at = dict(zip(new.feature_ids, new.features))
        want = ([list(old_at[i].bounds()) for i in report.removed]
                + [list(new_at[j].bounds()) for j in report.added]
                + [self._union(old_at[i], new_at[j]) for i, j, _ in report.modified])
        assert report.change_bounds.shape == (len(want), 4)
        assert report.change_bounds.tolist() == want

    def _maps(self, seed):
        rng = np.random.default_rng(seed)
        old = [sloped_segment(rng, cls) for cls in (FeatureClass.LANE_CENTER,
                                                     FeatureClass.ROAD_BOUNDARY) for _ in range(4)]
        new = [f.with_points(f.points + rng.normal(0.0, 2.0, 2)) for f in old[1:]]
        return old, new + [sloped_segment(rng)]

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_feature_bound_unions_without_ids(self, seed):
        old_feats, new_feats = self._maps(seed)
        old, new = MapVersion.build("old", old_feats), MapVersion.build("new", new_feats)
        report = diff_maps(old, new)
        assert report.modified
        self._assert_bounds(report, old, new)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_feature_bound_unions_with_ids(self, seed):
        old_feats, new_feats = self._maps(seed)
        old = MapVersion.build("old", old_feats, [f"f{k}" for k in range(len(old_feats))])
        new = MapVersion.build("new", new_feats, [f"f{k}" for k in range(1, len(new_feats) + 1)])
        report = diff_maps(old, new)
        assert report.modified and report.added == ("f8",) and report.removed == ("f0",)
        self._assert_bounds(report, old, new)

    def test_read_only(self):
        old = MapVersion.build("old", [line_feature(y=0.0)])
        report = diff_maps(old, MapVersion.build("new", [line_feature(y=1.0)]))
        with pytest.raises(ValueError, match="read-only"):
            report.change_bounds[0, 0] = 1.0

    def test_empty_diff_has_no_rows(self):
        version = MapVersion.build("v", grid_world(n_blocks=2))
        assert diff_maps(version, version).change_bounds.shape == (0, 4)


class TestVersionBoxes:
    def test_boxes_are_feature_bounds(self):
        feats = grid_world(n_blocks=2)
        version = MapVersion.build("v", feats)
        assert version.boxes.shape == (len(feats), 4)
        assert version.boxes.tolist() == [list(f.bounds()) for f in feats]
        assert version.extent == Box(*version.boxes[:, :2].min(axis=0),
                                     *version.boxes[:, 2:].max(axis=0))

    def test_boxes_resolve_signed_zero_ties_as_bounds_does(self):
        # Coordinates that tie between 0.0 and -0.0: each box must hold the
        # very zero that bounds() returns, sign included. np.minimum.reduceat
        # gives -0.0 as min_x and 0.0 as max_y of the first feature, where
        # bounds() gives 0.0 and -0.0.
        x = [0.0, -0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -0.0, 0.5, 1.0, 1.0, 1.0, -0.0, 0.5, 0.0, 0.5]
        rng = np.random.default_rng(0)
        feats = [MapFeature(FeatureClass.LANE_CENTER, InvarianceClass.DIRECTED_POLYLINE, pts)
                 for pts in [np.column_stack([x, np.negative(x)]),
                             *(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (int(n), 2))
                               for n in rng.integers(2, 60, 200))]]
        boxes = MapVersion.build("v", feats).boxes
        assert boxes.tobytes() == np.array([f.bounds() for f in feats]).tobytes()

    def test_boxes_read_only(self):
        version = MapVersion.build("v", [line_feature()])
        with pytest.raises(ValueError, match="read-only"):
            version.boxes[0, 0] = 1.0

    def test_empty_version(self):
        empty = MapVersion.build("empty", [])
        assert empty.boxes.shape == (0, 4)
        assert empty.extent == Box(0.0, 0.0, 0.0, 0.0)
        full = MapVersion.build("full", [line_feature(y=5.0)])
        report = diff_maps(empty, full)
        assert report.added == ("0",) and report.removed == () and report.modified == ()
        assert diff_maps(full, empty).removed == ("0",)
        assert diff_maps(empty, empty).is_empty
        pair = build_scene_pair(empty, empty, Pose2D(0.0, 0.0, 0.3))
        assert pair.prior.features == () and pair.ground_truth.features == ()

    def test_box_touching_prefilter_square_is_kept(self, monkeypatch):
        # The prefilter square reaches fov * sqrt(2) / 2 from the pose; a
        # feature box touching it exactly (at an edge, and at a corner) is
        # handed to the clip, one a step further out is not.
        reach = 90.0 * math.sqrt(2.0) / 2.0
        beyond = float(np.nextafter(reach, np.inf))
        pose = Pose2D(0.0, 0.0, 0.0)

        def segment(x0, y0, x1, y1):
            return MapFeature(FeatureClass.LANE_CENTER, InvarianceClass.DIRECTED_POLYLINE,
                              [[x0, y0], [x1, y1]])

        touching = [segment(reach, 0.0, reach + 5.0, 0.0),
                    segment(-reach - 5.0, 1.0, -reach, 1.0),
                    segment(reach, reach, reach + 5.0, reach + 5.0)]
        outside = [segment(beyond, 0.0, beyond + 5.0, 0.0),
                   segment(-5.0, -beyond - 5.0, 5.0, -beyond)]
        centre = segment(-1.0, 0.0, 1.0, 0.0)
        version = MapVersion.build("v", [centre, *touching, *outside])
        seen = []

        def recording(points, sizes, polygon, half):
            seen.append(len(sizes))
            return clip_pieces(points, sizes, polygon, half)

        monkeypatch.setattr(changes, "clip_pieces", recording)
        pair = build_scene_pair(version, version, pose)
        assert seen == [4, 4]
        assert len(pair.prior.features) == 1


def _oracle_pieces(points: np.ndarray, polygon: bool, half: float) -> list[np.ndarray]:
    """The exact pieces of one ego-frame feature inside the square
    [-half, half]^2, cut by the reference clipper of test_model: the
    feature itself when it lies inside, and no resample."""
    lo, hi = -half, half
    if np.all((points >= lo) & (points <= hi)):
        return [points]
    if polygon:
        ring = _oracle_clip_polygon(points, lo, hi)
        return [] if ring is None else [ring]
    return [p for p in _oracle_clip_polyline(points, lo, hi) if reference_length(p) > 0.0]


def oracle_crop(version: MapVersion, pose: Pose2D, fov_side: float, n_points: int,
                frame_id: str) -> MapFrame:
    """The crop of one version around one pose, window by window and
    feature by feature: each feature near the pose, in the ego frame, cut
    exactly at the square's edge, and each piece resampled once to
    n_points and built with the constructor's checks, confidence 1. The
    oracle for build_scene_pairs."""
    reach = fov_side * math.sqrt(2.0) / 2.0
    square = Box(pose.x - reach, pose.y - reach, pose.x + reach, pose.y + reach)
    out = []
    for f in version.features:
        if not square.intersects(Box(*f.bounds())):
            continue
        polygon = f.invariance is InvarianceClass.POLYGON
        for piece in _oracle_pieces(world_to_ego(f.points, pose), polygon, fov_side / 2.0):
            out.append(MapFeature(f.feature_class, f.invariance,
                                  resample_polyline(piece, n_points, closed=polygon)))
    return MapFrame(frame_id=frame_id, ego_pose=pose, fov_side=fov_side, features=tuple(out))


def _assert_identical(got: MapFrame, want: MapFrame) -> None:
    assert (got.frame_id, got.ego_pose, got.fov_side) == (want.frame_id, want.ego_pose,
                                                           want.fov_side)
    assert len(got.features) == len(want.features)
    for a, b in zip(got.features, want.features):
        assert (a.feature_class, a.invariance, a.confidence) == (
            b.feature_class, b.invariance, b.confidence)
        assert a.points.shape == b.points.shape and a.points.tobytes() == b.points.tobytes()
        assert not a.points.flags.writeable


def _assert_pairs_match_oracle(old, new, poses, fov_side, n_points):
    ids = [f"window_{k:04d}" for k in range(len(poses))]
    pairs = build_scene_pairs(old, new, poses, fov_side=fov_side, n_points=n_points,
                              frame_ids=ids)
    assert [p.frame_id for p in pairs] == ids
    for pose, fid, pair in zip(poses, ids, pairs):
        _assert_identical(pair.prior, oracle_crop(old, pose, fov_side, n_points, fid))
        _assert_identical(pair.ground_truth, oracle_crop(new, pose, fov_side, n_points, fid))
    return pairs


class TestBuildScenePairsMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(_case(), st.sampled_from([None, 60.0]), st.sampled_from([None, 7]))
    def test_generated_grids_and_drives(self, case, fov_side, n_points):
        # The grids, changes and drives of the stage-chain property, at its
        # drawn --fov and --n-points or at 60 m and 7 points.
        old_feats, new_feats, drive, dims, mine, _ = case
        fov_side = float(mine[1]) if fov_side is None else fov_side
        n_points = int(dims[1]) if n_points is None else n_points
        old, new = MapVersion.build("old", old_feats), MapVersion.build("new", new_feats)
        poses = [pose for _, pose in drive[::max(1, len(drive) // 16)]
                 if old.extent.contains_point(pose.x, pose.y)
                 and new.extent.contains_point(pose.x, pose.y)]
        _assert_pairs_match_oracle(old, new, poses, fov_side, n_points)

    def test_polygon_across_the_edge_and_an_empty_window(self):
        # Blocks of 200 m: a driveway of radius 6 at (100, 100) straddles the
        # edge x = -30 of the 60 m square around (125, 100) at yaw 0, and
        # across a corner at a turned yaw; around (150, 150) nothing is near.
        world = grid_world(n_blocks=3, block=200.0, n_points=12)
        old = MapVersion.build("old", world)
        new = MapVersion.build("new", [f.with_points(f.points + [0.5, 0.0]) for f in world])
        poses = [Pose2D(125.0, 100.0, 0.0), Pose2D(150.0, 150.0, 0.3),
                 Pose2D(125.0, 125.0, math.pi / 4), Pose2D(210.0, 190.0, -1.0)]
        pairs = _assert_pairs_match_oracle(old, new, poses, 60.0, 7)
        polygons = [[f for f in pair.prior.features if f.invariance is InvarianceClass.POLYGON]
                    for pair in pairs]
        assert len(polygons[0]) == 1 and polygons[0][0].n_points == 7
        assert pairs[1].prior.features == () and pairs[1].ground_truth.features == ()
        assert all(pair.prior.features for pair in pairs[2:])

    def test_no_poses(self):
        version = MapVersion.build("v", grid_world(n_blocks=1))
        assert build_scene_pairs(version, version, []) == []

    def test_frame_ids_must_match_poses(self):
        version = MapVersion.build("v", grid_world(n_blocks=1))
        with pytest.raises(ValueError, match="frame_ids must match poses in length"):
            build_scene_pairs(version, version, [Pose2D(10.0, 10.0, 0.0)], frame_ids=["a", "b"])


def _distance_to_polyline(points: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Each point's distance to the nearest point of the polyline."""
    a, ab = line[:-1], np.diff(line, axis=0)
    ap = points[:, None] - a
    length2 = (ab * ab).sum(axis=1)
    t = np.clip((ap * ab).sum(axis=2) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    return np.linalg.norm(ap - t[..., None] * ab, axis=2).min(axis=1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi), st.booleans(), st.integers(3, 40))
def test_mined_crossing_pieces_lie_on_the_clipped_feature(seed, yaw, polygon, n_points):
    # A curved road of 20 points about 6 m apart, or a driveway ring of 12,
    # across the edge x = 45 of the 90 m square in the ego frame: every
    # mined point lies on the exactly clipped piece, as one resample of it
    # puts it, and an open piece keeps the clipped ends.
    rng = np.random.default_rng(seed)
    edge = np.array([45.0, rng.uniform(-40.0, 40.0)])
    if polygon:
        cls = FeatureClass.DRIVEWAY
        angle = np.sort(rng.uniform(0.0, 2.0 * math.pi, 12))
        radius = rng.uniform(5.0, 15.0, 12)
        ego = edge + [rng.uniform(-4.0, 4.0), 0.0] + radius[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)])
    else:
        cls = FeatureClass.LANE_CENTER
        heading = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.normal(0.0, 0.4, 19))
        walk = np.cumsum(np.column_stack([np.cos(heading), np.sin(heading)]) * 6.0, axis=0)
        walk = np.vstack([[0.0, 0.0], walk])
        ego = walk - walk[10] + edge + [1.0, 0.0]
    pose = Pose2D(*rng.uniform(-100.0, 100.0, 2), yaw)
    c, s = math.cos(yaw), math.sin(yaw)
    world = ego @ np.array([[c, s], [-s, c]]) + [pose.x, pose.y]
    anchor = MapFeature(FeatureClass.LANE_DIVIDER, InvarianceClass.UNDIRECTED_POLYLINE,
                        [[pose.x - 1.0, pose.y], [pose.x + 1.0, pose.y]])
    version = MapVersion.build("v", [MapFeature(cls, DEFAULT_INVARIANCE[cls], world), anchor])
    pair = build_scene_pair(version, version, pose, n_points=n_points)
    mined = [f for f in pair.prior.features if f.feature_class is cls]
    exact = _oracle_pieces(world_to_ego(world, pose), polygon, 45.0)
    assert len(mined) == len(exact)
    for feat, piece in zip(mined, exact):
        line = np.vstack([piece, piece[:1]]) if polygon else piece
        assert _distance_to_polyline(feat.points, line).max() <= 1e-9
        if not polygon:
            assert feat.points[[0, -1]].tolist() == piece[[0, -1]].tolist()
            assert np.abs(feat.points[[0, -1]]).max() == 45.0
