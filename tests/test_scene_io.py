from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import line_feature, random_frame
from priormap import (
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
    SceneFormatError,
    read_map_version,
    read_scenes,
    read_trajectory,
    write_map_version,
    write_scenes,
    write_trajectory,
)


class TestSceneRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = [random_frame(rng, f"frame_{i}", n_features=4) for i in range(5)]
        path = tmp_path / "scenes.jsonl"
        write_scenes(frames, path)
        assert read_scenes(path) == frames

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_awkward_floats(self, tmp_path_factory, seed):
        # Full-precision doubles, including tiny and huge magnitudes.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((4, 2)) * np.exp(rng.uniform(-30, 30, (4, 2)))
        feat = MapFeature(FeatureClass.LANE_DIVIDER, InvarianceClass.UNDIRECTED_POLYLINE, pts,
                          confidence=float(rng.uniform()))
        frame = MapFrame("f", Pose2D(rng.normal(), rng.normal(), rng.uniform(-3, 3)), 90.0, (feat,))
        path = tmp_path_factory.mktemp("io") / "one.jsonl"
        write_scenes([frame], path)
        (back,) = read_scenes(path)
        assert back == frame
        np.testing.assert_array_equal(back.features[0].points, pts)

    def test_field_order_is_stable(self, tmp_path):
        frame = MapFrame("f", Pose2D(1, 2, 0.5), 90.0, (line_feature(n=3),))
        path = tmp_path / "one.jsonl"
        write_scenes([frame], path)
        line = path.read_text().strip()
        rec = json.loads(line)
        assert list(rec) == ["frame_id", "ego_pose", "fov_side", "features"]
        assert list(rec["ego_pose"]) == ["x", "y", "yaw"]
        assert list(rec["features"][0]) == ["class", "invariance", "confidence", "points"]

    def test_write_is_deterministic(self, tmp_path):
        frames = [random_frame(np.random.default_rng(3), "a")]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_scenes(frames, p1)
        write_scenes(frames, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _per_point_scene_bytes(frames) -> bytes:
    """The scene writer as it was before points went out through
    ndarray.tolist(): every coordinate passed through float() one by one.
    Kept as the oracle for the bytes write_scenes produces."""
    lines = []
    for frame in frames:
        record = {
            "frame_id": frame.frame_id,
            "ego_pose": {"x": frame.ego_pose.x, "y": frame.ego_pose.y, "yaw": frame.ego_pose.yaw},
            "fov_side": frame.fov_side,
            "features": [
                {
                    "class": f.feature_class.value,
                    "invariance": f.invariance.value,
                    "confidence": f.confidence,
                    "points": [[float(x), float(y)] for x, y in f.points],
                }
                for f in frame.features
            ],
        }
        lines.append(json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n")
    return "".join(lines).encode("utf-8")


#: Coordinates whose text form is easy to get wrong: signed zero, the
#: smallest subnormal, the largest double, and values around the switch
#: to exponent notation.
_AWKWARD = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-7, 1e-4,
            1e15, 1e16, 1e22, -1.7976931348623157e308, 1.7976931348623157e308, 3.0, 0.1)


class TestWriterMatchesPerPointOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_identical(self, tmp_path, seed):
        rng = np.random.default_rng(700 + seed)
        frames = []
        for k in range(4):
            frame = random_frame(rng, f"frame_{k}", n_features=int(rng.integers(0, 9)))
            features = []
            for f in frame.features:
                pts = f.points * np.exp(rng.uniform(-40, 40))
                picks = rng.random(pts.shape) < 0.3
                pts[picks] = rng.choice(_AWKWARD, size=int(picks.sum()))
                features.append(f.with_points(pts))
            frames.append(frame.with_features(features))
        path = tmp_path / "scenes.jsonl"
        write_scenes(frames, path)
        assert path.read_bytes() == _per_point_scene_bytes(frames)
        assert b"-0.0" in path.read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _feature(draw):
    invariance = draw(st.sampled_from(list(InvarianceClass)))
    n = draw(st.integers(3 if invariance is InvarianceClass.POLYGON else 2, 6))
    pts = np.array(draw(st.lists(st.tuples(_finite, _finite), min_size=n, max_size=n)))
    assume(invariance is not InvarianceClass.POLYGON or not np.array_equal(pts[0], pts[-1]))
    return MapFeature(draw(st.sampled_from(REAL_CLASSES)), invariance, pts,
                      confidence=draw(st.floats(0.0, 1.0)))


@st.composite
def _frame(draw):
    frame_id = draw(st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8))
    pose = Pose2D(draw(_finite), draw(_finite), draw(_finite))
    fov_side = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return MapFrame(frame_id, pose, fov_side, tuple(draw(st.lists(_feature(), max_size=4))))


class TestSceneRoundTripProperty:
    @given(st.lists(_frame(), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_write_then_read_is_exact(self, tmp_path_factory, frames):
        path = tmp_path_factory.mktemp("io") / "scenes.jsonl"
        write_scenes(frames, path)
        back = read_scenes(path)
        assert back == frames
        for got, want in zip(back, frames):
            for a, b in zip(got.features, want.features):
                assert a.points.tobytes() == b.points.tobytes()  # signed zeros too
        # every number is written in its shortest exact form, so equal bytes
        # on a second write mean every value came back bit for bit
        again = tmp_path_factory.mktemp("io") / "again.jsonl"
        write_scenes(back, again)
        assert again.read_bytes() == path.read_bytes()


class TestSceneErrors:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _good_line(self, frame_id="f"):
        frame = MapFrame(frame_id, Pose2D(0, 0, 0), 90.0, (line_feature(n=3),))
        import priormap.scene_io as sio

        return json.dumps(sio.frame_to_record(frame), separators=(",", ":"))

    def test_error_names_line_number(self, tmp_path):
        lines = [self._good_line(f"f{i}") for i in range(6)] + ["{not json"]
        path = self._write_lines(tmp_path, lines)
        with pytest.raises(SceneFormatError, match="line 7"):
            read_scenes(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        rec = json.loads(self._good_line())
        rec["extra"] = 1
        path = self._write_lines(tmp_path, [json.dumps(rec)])
        with pytest.raises(SceneFormatError, match="unknown field.*extra"):
            read_scenes(path)

    def test_nan_rejected(self, tmp_path):
        rec = self._good_line().replace("90.0", "NaN")
        path = self._write_lines(tmp_path, [rec])
        with pytest.raises(SceneFormatError, match="non-finite"):
            read_scenes(path)

    def test_no_object_rejected_in_input(self, tmp_path):
        rec = json.loads(self._good_line())
        rec["features"][0]["class"] = "no_object"
        path = self._write_lines(tmp_path, [json.dumps(rec)])
        with pytest.raises(SceneFormatError, match="no_object"):
            read_scenes(path)

    def test_polygon_closing_vertex_rejected(self, tmp_path):
        rec = json.loads(self._good_line())
        rec["features"][0]["invariance"] = "polygon"
        rec["features"][0]["points"] = [[0, 0], [1, 0], [1, 1], [0, 0]]
        path = self._write_lines(tmp_path, [json.dumps(rec)])
        with pytest.raises(SceneFormatError, match="closing vertex"):
            read_scenes(path)

    def test_missing_field_named(self, tmp_path):
        rec = json.loads(self._good_line())
        del rec["features"][0]["confidence"]
        path = self._write_lines(tmp_path, [json.dumps(rec)])
        with pytest.raises(SceneFormatError, match="features\\[0\\].*confidence"):
            read_scenes(path)


class TestMapVersionFile:
    def test_round_trip_with_ids(self, tmp_path):
        feats = [line_feature(y=i, n=4) for i in range(3)]
        ids = ["a", "b", "c"]
        path = tmp_path / "map.jsonl"
        write_map_version("v2020", feats, path, feature_ids=ids)
        version_id, back, back_ids = read_map_version(path)
        assert version_id == "v2020"
        assert back == feats
        assert back_ids == ids

    def test_round_trip_without_ids(self, tmp_path):
        feats = [line_feature(y=i, n=4) for i in range(2)]
        path = tmp_path / "map.jsonl"
        write_map_version("v", feats, path)
        _, back, back_ids = read_map_version(path)
        assert back == feats and back_ids is None

    def test_mixed_ids_rejected(self, tmp_path):
        path = tmp_path / "map.jsonl"
        write_map_version("v", [line_feature(n=3)], path, feature_ids=["x"])
        with open(path, "a") as fh:
            import priormap.scene_io as sio

            fh.write(json.dumps(sio.feature_to_record(line_feature(y=2, n=3))) + "\n")
        with pytest.raises(SceneFormatError, match="all features or none"):
            read_map_version(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SceneFormatError, match="version header"):
            read_map_version(path)


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        poses = [(float(i), Pose2D(i * 2.0, -i, 0.1 * i)) for i in range(5)]
        path = tmp_path / "traj.jsonl"
        write_trajectory(poses, path)
        assert read_trajectory(path) == poses

    def test_missing_timestamp_is_schema_error(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text('{"x":0.0,"y":0.0,"yaw":0.0}\n')
        with pytest.raises(SceneFormatError, match="missing field 't'"):
            read_trajectory(path)
