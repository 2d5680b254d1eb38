from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import priormap.changes as changes
from conftest import grid_world, line_feature, ring_feature
from priormap import (
    DEFAULT_INVARIANCE,
    Box,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapVersion,
    Pose2D,
    build_scene_pair,
    change_regions,
    chamfer_distance,
    diff_maps,
    evaluate,
    clip_to_fov,
    mine_frames,
)

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

        def counted(a, b):
            calls.append((Box(*a.bounds()), Box(*b.bounds())))
            return chamfer_distance(a, b)

        monkeypatch.setattr(changes, "chamfer_distance", counted)
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


class TestChangeRegions:
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

    @pytest.mark.parametrize("window", [-1.0, float("nan")])
    def test_invalid_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
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


class TestVersionBoxes:
    def test_boxes_are_feature_bounds(self):
        feats = grid_world(n_blocks=2)
        version = MapVersion.build("v", feats)
        assert version.boxes.shape == (len(feats), 4)
        assert version.boxes.tolist() == [list(f.bounds()) for f in feats]
        assert version.extent == Box(*version.boxes[:, :2].min(axis=0),
                                     *version.boxes[:, 2:].max(axis=0))

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

        def recording(frame):
            seen.append(len(frame.features))
            return clip_to_fov(frame)

        monkeypatch.setattr(changes, "clip_to_fov", recording)
        pair = build_scene_pair(version, version, pose)
        assert seen == [4, 4]
        assert len(pair.prior.features) == 1
