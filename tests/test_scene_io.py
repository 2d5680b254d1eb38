from __future__ import annotations

import json
import math
import re
from dataclasses import replace

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
from priormap import scene_io as sio
from priormap.model import polyline_length


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
        # Full-precision doubles, including tiny magnitudes and huge ones up
        # to the readers' bound.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((4, 2)) * np.exp(rng.uniform(-30, 30, (4, 2)))
        pts = np.clip(pts, -sio.MAX_COORDINATE, sio.MAX_COORDINATE)
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
#: smallest subnormal, the coordinate bound and the double below it, and
#: values around the switch to exponent notation. Larger magnitudes are
#: refused by the writers, as by the readers.
_AWKWARD = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-7, 1e-4,
            1e9, -1e9, 999999999.9999999, 3.0, 0.1)


class TestWriterMatchesPerPointOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_identical(self, tmp_path, seed):
        rng = np.random.default_rng(700 + seed)
        frames = []
        for k in range(4):
            frame = random_frame(rng, f"frame_{k}", n_features=int(rng.integers(0, 9)))
            features = []
            for f in frame.features:
                # the points of the frame's 90 m span stay within MAX_COORDINATE
                pts = f.points * np.exp(rng.uniform(-40, 16))
                picks = rng.random(pts.shape) < 0.3
                pts[picks] = rng.choice(_AWKWARD, size=int(picks.sum()))
                features.append(f.with_points(pts))
            frames.append(frame.with_features(features))
        path = tmp_path / "scenes.jsonl"
        write_scenes(frames, path)
        assert path.read_bytes() == _per_point_scene_bytes(frames)
        assert b"-0.0" in path.read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
#: Feature points and pose x and y: the readers refuse larger magnitudes.
_coordinate = st.floats(-sio.MAX_COORDINATE, sio.MAX_COORDINATE)


@st.composite
def _feature(draw):
    invariance = draw(st.sampled_from(list(InvarianceClass)))
    n = draw(st.integers(3 if invariance is InvarianceClass.POLYGON else 2, 6))
    pts = np.array(draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=n, max_size=n)))
    assume(invariance is not InvarianceClass.POLYGON or not np.array_equal(pts[0], pts[-1]))
    # zero arc length as a double: the readers refuse it
    assume(polyline_length(pts, closed=invariance is InvarianceClass.POLYGON) > 0.0)
    return MapFeature(draw(st.sampled_from(REAL_CLASSES)), invariance, pts,
                      confidence=draw(st.floats(0.0, 1.0)))


@st.composite
def _frame(draw):
    frame_id = draw(st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8))
    pose = Pose2D(draw(_coordinate), draw(_coordinate), draw(_finite))
    fov_side = draw(st.floats(min_value=0.0, max_value=sio.MAX_COORDINATE, exclude_min=True))
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


#: Coordinates drawn from a few values, so that rings often repeat a vertex.
_ring_coordinate = st.sampled_from([0.0, -0.0, 1.0, 2.5])


@given(st.lists(st.tuples(_ring_coordinate, _ring_coordinate), max_size=6))
@settings(max_examples=80, deadline=None)
def test_every_polygon_map_feature_takes_reads_back(tmp_path_factory, pairs):
    pts = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    try:
        feat = MapFeature(FeatureClass.DRIVEWAY, InvarianceClass.POLYGON, pts)
    except ValueError as exc:
        # Refused by the one polygon rule, and by the readers alike.
        assume(len(pts) >= 2)
        record = {"class": "driveway", "invariance": "polygon", "confidence": 1.0,
                  "points": pts.tolist()}
        with pytest.raises(SceneFormatError, match=f"^feature\\.points: {exc}$"):
            sio.feature_from_record(record, "feature")
        assert sio._bulk_features([record]) is None
        return
    out = tmp_path_factory.mktemp("io")
    frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (feat,))
    write_scenes([frame], out / "scenes.jsonl")
    assert read_scenes(out / "scenes.jsonl") == [frame]
    write_map_version("v", [feat], out / "map.jsonl")
    assert read_map_version(out / "map.jsonl") == ("v", [feat], None)


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


@pytest.mark.parametrize("kind, pose, message", [
    ("frame", {"x": 0.0, "y": 0.0}, "frame 'f'.ego_pose: missing field 'yaw'"),
    ("frame", {"x": 0.0, "y": "1", "yaw": 0.0}, "frame 'f'.ego_pose.y: expected a number"),
    ("frame", {"x": 0.0, "y": 0.0, "yaw": "@raw:1e999@"},
     "frame 'f'.ego_pose.yaw: must be finite"),
    ("frame", {"x": 0.0, "y": 0.0, "yaw": 0.0, "z": 1}, "frame 'f'.ego_pose: unknown field(s): z"),
    ("frame", [0.0, 0.0, 0.0], "frame 'f'.ego_pose: expected an object"),
    ("trajectory", {"y": 0.0, "yaw": 0.0}, "pose: missing field 'x'"),
    ("trajectory", {"x": True, "y": 0.0, "yaw": 0.0}, "pose.x: expected a number"),
    ("trajectory", {"x": 0.0, "y": 0.0, "yaw": 0.0, "z": 1}, "pose: unknown field(s): z"),
])
def test_pose_errors_name_the_field(tmp_path, kind, pose, message):
    # Frame poses and trajectory lines share one pose parser.
    if kind == "frame":
        record = {"frame_id": "f", "ego_pose": pose, "fov_side": 90.0, "features": []}
    else:
        record = {"t": 0.0, **pose}
    path = tmp_path / "poses.jsonl"
    path.write_text(_dumps_raw(record) + "\n")
    with pytest.raises(SceneFormatError) as info:
        (read_scenes if kind == "frame" else read_trajectory)(path)
    assert str(info.value) == f"{path}: line 1: {message}"


# A writer refuses what its reader refuses of an id, class, coordinate,
# fov_side, pose, arc length or polygon: it raises the reader's error for the
# same records, naming the line, and leaves no file.

_FAR = line_feature(x0=0.0, x1=2e9, n=3)
_FLAT = line_feature(x0=1.0, x1=1.0, n=3)
#: The padding class on real geometry; the constructor takes it.
_NO_OBJECT = replace(line_feature(), feature_class=FeatureClass.NO_OBJECT)
#: A polygon that repeats its closing vertex; the constructor refuses it.
_CLOSED_RING = MapFeature.from_checked(
    FeatureClass.DRIVEWAY, InvarianceClass.POLYGON,
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), 1.0)


def _refused_like_read(tmp_path, write, read, records: list[dict]) -> str:
    """What write raises, checked against what read raises on a file of
    the same records; no file may be left. Returns the message after the
    file name."""
    out, raw = tmp_path / "out.jsonl", tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    with pytest.raises(SceneFormatError) as want:
        read(raw)
    with pytest.raises(SceneFormatError) as got:
        write(out)
    assert not out.exists()
    assert str(got.value) == str(want.value).replace(str(raw), str(out))
    return str(got.value).removeprefix(f"{out}: ")


_AT_BOUND = "must be at most 1e+09 m in magnitude"


class TestWritersRefuseWhatReadersRefuse:
    @pytest.mark.parametrize("change, message", [
        (dict(fov_side=1e10), f"frame 'f1'.fov_side: {_AT_BOUND}"),
        (dict(ego_pose=Pose2D(0.0, -2e9, 0.0)), f"frame 'f1'.ego_pose.y: {_AT_BOUND}"),
        (dict(features=(line_feature(), _FAR)), f"frame 'f1'.features[1].points[2][0]: {_AT_BOUND}"),
        (dict(features=(_FLAT,)), "frame 'f1'.features[0].points: zero arc length"),
        (dict(features=(_CLOSED_RING,)),
         "frame 'f1'.features[0].points: polygons must not repeat the closing vertex"),
        (dict(features=(line_feature(), _NO_OBJECT)),
         "frame 'f1'.features[1].class: 'no_object' is not allowed in input files"),
        (dict(frame_id=7), "frame.frame_id: expected a string"),
    ], ids=["fov_side", "pose", "coordinate", "zero arc length", "polygon rule", "class",
            "frame id"])
    def test_write_scenes(self, tmp_path, change, message):
        good = MapFrame("f0", Pose2D(0.0, 0.0, 0.0), 90.0, (line_feature(),))
        frames = [good, replace(good, **{"frame_id": "f1", **change}), good]
        got = _refused_like_read(tmp_path, lambda path: write_scenes(frames, path), read_scenes,
                                 [sio.frame_to_record(f) for f in frames])
        assert got == f"line 2: {message}"

    @pytest.mark.parametrize("feature, message", [
        (_FAR, f"feature[1].points[2][0]: {_AT_BOUND}"),
        (_FLAT, "feature[1].points: zero arc length"),
        (_CLOSED_RING, "feature[1].points: polygons must not repeat the closing vertex"),
        (_NO_OBJECT, "feature[1].class: 'no_object' is not allowed in input files"),
    ], ids=["coordinate", "zero arc length", "polygon rule", "class"])
    def test_write_map_version(self, tmp_path, feature, message):
        assert self._map_version_refused(tmp_path, "v", [line_feature(), feature], ["a", "b"]) == (
            f"line 3: {message}")

    @pytest.mark.parametrize("version_id, ids, message", [
        (7, ["a", "b"], "line 1: header.version_id: expected a string"),
        ("v", ["a", 7], "line 3: feature.id: expected a string"),
    ], ids=["version id", "feature id"])
    def test_write_map_version_ids(self, tmp_path, version_id, ids, message):
        features = [line_feature(), line_feature(y=5.0)]
        assert self._map_version_refused(tmp_path, version_id, features, ids) == message

    @staticmethod
    def _map_version_refused(tmp_path, version_id, features, ids) -> str:
        records = [{"version_id": version_id},
                   *({"id": i, **sio.feature_to_record(f)} for i, f in zip(ids, features))]
        return _refused_like_read(
            tmp_path, lambda path: write_map_version(version_id, features, path, ids),
            read_map_version, records)

    @pytest.mark.parametrize("pose, message", [
        (Pose2D(2e9, 0.0, 0.0), f"pose.x: {_AT_BOUND}"),
        (Pose2D(0.0, -1e9 - 1.0, 0.0), f"pose.y: {_AT_BOUND}"),
    ], ids=["x", "y"])
    def test_write_trajectory(self, tmp_path, pose, message):
        poses = [(0.0, Pose2D(0.0, 0.0, 0.0)), (1.0, pose)]
        records = [{"t": t, "x": p.x, "y": p.y, "yaw": p.yaw} for t, p in poses]
        got = _refused_like_read(tmp_path, lambda path: write_trajectory(poses, path),
                                 read_trajectory, records)
        assert got == f"line 2: {message}"

    def test_refusal_keeps_an_existing_file(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text("kept\n")
        with pytest.raises(SceneFormatError):
            write_trajectory([(float("inf"), Pose2D(0.0, 0.0, 0.0))], path)
        assert path.read_text() == "kept\n"


#: 401 digits: a JSON integer too large for a double.
_HUGE = 10**400


class TestHugeIntegers:
    """An integer too large for a double is rejected like a non-finite number."""

    def _read_error(self, tmp_path, record: dict, read=read_scenes) -> str:
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SceneFormatError) as info:
            read(path)
        return str(info.value).removeprefix(f"{path}: line 1: ")

    def _frame_record(self) -> dict:
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (line_feature(n=3), line_feature(y=2, n=4)))
        return sio.frame_to_record(frame)

    def test_point_coordinate(self, tmp_path):
        rec = self._frame_record()
        rec["features"][1]["points"][2][0] = _HUGE
        assert self._read_error(tmp_path, rec) == (
            "frame 'f'.features[1].points[2][0]: must be finite")

    def test_fov_side(self, tmp_path):
        rec = self._frame_record()
        rec["fov_side"] = _HUGE
        assert self._read_error(tmp_path, rec) == "frame 'f'.fov_side: must be finite"

    def test_confidence(self, tmp_path):
        rec = self._frame_record()
        rec["features"][0]["confidence"] = -_HUGE
        assert self._read_error(tmp_path, rec) == (
            "frame 'f'.features[0].confidence: must be finite")

    def test_trajectory_timestamp(self, tmp_path):
        rec = {"t": _HUGE, "x": 0.0, "y": 0.0, "yaw": 0.0}
        assert self._read_error(tmp_path, rec, read_trajectory) == "pose.t: must be finite"

    def test_map_version_coordinate(self, tmp_path):
        path = tmp_path / "map.jsonl"
        write_map_version("v", [line_feature(n=3)], path)
        rec = sio.feature_to_record(line_feature(y=1, n=3))
        rec["points"][0][1] = _HUGE
        with open(path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        with pytest.raises(SceneFormatError) as info:
            read_map_version(path)
        assert str(info.value) == f"{path}: line 3: feature[1].points[0][1]: must be finite"

    def test_large_integer_that_fits_is_read_exactly(self, tmp_path):
        rec = self._frame_record()
        rec["features"][1]["points"][2] = [10**9, -(10**9)]  # MAX_COORDINATE is allowed
        rec["fov_side"] = 10**9  # so is a field of view of that side
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        (frame,) = read_scenes(path)
        assert frame.features[1].points[2].tolist() == [1e9, -1e9]
        assert frame.fov_side == 1e9

    @pytest.mark.parametrize("side", [10**9 + 1, 1e10, 10**300 + 1])
    def test_fov_side_beyond_the_coordinate_bound(self, tmp_path, side):
        rec = self._frame_record()
        rec["fov_side"] = side
        assert self._read_error(tmp_path, rec) == (
            "frame 'f'.fov_side: must be at most 1e+09 m in magnitude")


def test_json_errors_match_json_loads():
    for text in ("\ufeff{}", "{not json", "", "[1,", '{"a": 1} x', '{"a": NaN}', "-Infinity"):
        with pytest.raises(ValueError) as want:
            json.loads(text, parse_constant=sio._reject_constant)
        with pytest.raises(ValueError) as got:
            sio._decode(text)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert sio._decode('{"a": [1, 2.5, -0.0]}') == {"a": [1, 2.5, -0.0]}


# The bulk feature builder against the per-feature validator. With
# `_bulk_features` patched to return None, every frame is read through the
# per-feature validator alone: that read is the oracle for the result and
# for every error message.


def _outcome(read, path):
    try:
        return read(path)
    except SceneFormatError as exc:
        return f"error: {exc}"


def _bulk_and_oracle(read, path, monkeypatch):
    """(outcome of the read, outcome of the oracle read, how many record
    lists the bulk check accepted)."""
    accepted = []
    bulk_features = sio._bulk_features

    def spy(records):
        features = bulk_features(records)
        accepted.append(features is not None)
        return features

    with monkeypatch.context() as patch:
        patch.setattr(sio, "_bulk_features", spy)
        got = _outcome(read, path)
    with monkeypatch.context() as patch:
        patch.setattr(sio, "_bulk_features", lambda records: None)
        want = _outcome(read, path)
    return got, want, sum(accepted)


def _with_integer_coordinates(record: dict, rng) -> dict:
    """Write some coordinates as JSON integers, +-MAX_COORDINATE and
    negative zero among them, and some confidences of 1.0 as 1."""
    for feat in record["features"]:
        if feat["confidence"] == 1.0 and rng.random() < 0.3:
            feat["confidence"] = 1
        for pair in feat["points"]:
            if rng.random() < 0.3:
                k = int(rng.integers(2))
                pair[k] = rng.choice([0, -0, 7, -3, 10**9, -(10**9)])
                pair[k] = int(pair[k])
    return record


def _assert_same_frames(got, want):
    assert got == want
    for a, b in zip(got, want):
        for fa, fb in zip(a.features, b.features):
            assert fa.points.tobytes() == fb.points.tobytes()
            assert not fa.points.flags.writeable
            assert type(fa.confidence) is type(fb.confidence) is float


class TestBulkReaderMatchesValidator:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_frames(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(900 + seed)
        lines = []
        for k in range(5):
            frame = random_frame(rng, f"frame_{k}", n_features=int(rng.integers(0, 12)),
                                 n_points=int(rng.integers(3, 25)))
            # tiny and huge magnitudes, the points of the frame's 90 m span
            # staying within MAX_COORDINATE
            features = [f.with_points(f.points * np.exp(rng.uniform(-30, 16)))
                        for f in frame.features]
            rec = sio.frame_to_record(frame.with_features(features))
            lines.append(json.dumps(_with_integer_coordinates(rec, rng)))
        path = tmp_path / "scenes.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got, want, accepted = _bulk_and_oracle(read_scenes, path, monkeypatch)
        assert accepted == 5
        _assert_same_frames(got, want)

    @pytest.mark.parametrize("with_ids", [False, True])
    def test_random_map_versions(self, tmp_path, monkeypatch, with_ids):
        rng = np.random.default_rng(950 + with_ids)
        feats = [random_frame(rng, n_features=1, n_points=int(rng.integers(3, 25))).features[0]
                 for _ in range(30)]
        ids = [f"f{k}" for k in range(30)] if with_ids else None
        path = tmp_path / "map.jsonl"
        write_map_version("v", feats, path, feature_ids=ids)
        got, want, accepted = _bulk_and_oracle(read_map_version, path, monkeypatch)
        assert accepted == 1  # one bulk pass over the whole file
        assert got == want and got[1] == feats
        for fa, fb in zip(got[1], want[1]):
            assert fa.points.tobytes() == fb.points.tobytes()
            assert not fa.points.flags.writeable


def _raw(token: str) -> str:
    """A JSON number token that json.dumps cannot write, such as 1e999."""
    return f"@raw:{token}@"


def _dumps_raw(record) -> str:
    return re.sub(r'"@raw:([^@]*)@"', r"\1", json.dumps(record))


def _last_point(value):
    """Corrupt the last point's y coordinate."""
    return lambda f: {**f, "points": [*f["points"][:-1], [f["points"][-1][0], value]]}


def _last_pair(value):
    return lambda f: {**f, "points": [*f["points"][:-1], value]}


def _without(key):
    return lambda f: {k: v for k, v in f.items() if k != key}


def _polygon(points):
    return lambda f: {**f, "invariance": "polygon", "points": points(f["points"])}


#: (name, corruption of the last feature record, start of the validator's
#: message after the feature's path). The corruption is always at the last
#: feature, so a bulk check that stops early would pass it.
_CORRUPTIONS = [
    ("coordinate true", _last_point(True), ".points[5][1]: expected a number"),
    ("coordinate string", _last_point("1"), ".points[5][1]: expected a number"),
    ("coordinate null", _last_point(None), ".points[5][1]: expected a number"),
    ("coordinate 1e999", _last_point(_raw("1e999")), ".points[5][1]: must be finite"),
    ("coordinate 401 digits", _last_point(_HUGE), ".points[5][1]: must be finite"),
    ("coordinate 1e200", _last_point(1e200), ".points[5][1]: must be at most 1e+09 m in"),
    ("coordinate -1e9 - 1", _last_point(-(10**9 + 1)), ".points[5][1]: must be at most 1e+09 m"),
    ("pair of 3", _last_pair([1.0, 2.0, 3.0]), ".points[5]: expected an [x, y] pair"),
    ("pair of 1", _last_pair([1.0]), ".points[5]: expected an [x, y] pair"),
    ("pair as object", _last_pair({"x": 1.0, "y": 2.0}), ".points[5]: expected an [x, y] pair"),
    ("pair as number", _last_pair(1.0), ".points[5]: expected an [x, y] pair"),
    ("one-point list", lambda f: {**f, "points": f["points"][:1]},
     ": 'points' must be a list of at least 2"),
    ("points null", lambda f: {**f, "points": None}, ": 'points' must be a list of at least 2"),
    ("unknown key", lambda f: {**f, "colour": "red"}, ": unknown field(s): colour"),
    ("missing points", _without("points"), ": missing field 'points'"),
    ("missing confidence", _without("confidence"), ": missing field 'confidence'"),
    ("non-object feature", lambda f: [f["points"]], ": expected an object"),
    ("no_object class", lambda f: {**f, "class": "no_object"}, ".class: 'no_object' is not"),
    ("unknown class", lambda f: {**f, "class": "bridge"}, ".class: unknown class 'bridge'"),
    ("polygon of 2", _polygon(lambda p: p[:2]), ".points: polygons need at least 3"),
    ("polygon closed", _polygon(lambda p: [*p[:3], p[0]]), ".points: polygons must not repeat"),
    ("confidence 1.5", lambda f: {**f, "confidence": 1.5}, ".confidence: must lie in [0, 1]"),
    ("confidence true", lambda f: {**f, "confidence": True}, ".confidence: expected a number"),
    ("confidence string", lambda f: {**f, "confidence": "1"}, ".confidence: expected a number"),
    ("confidence 401 digits", lambda f: {**f, "confidence": _HUGE}, ".confidence: must be finite"),
    ("class number", lambda f: {**f, "class": 1}, ".class: expected a string"),
    ("class list", lambda f: {**f, "class": ["lane_center"]}, ".class: expected a string"),
    ("points coincide", lambda f: {**f, "points": [f["points"][0]] * len(f["points"])},
     ".points: zero arc length"),
    # The points differ, but the square of every step underflows to 0.
    ("subnormal step", lambda f: {**f, "points": [[0.0, 0.0]] * 5 + [[0.0, 5e-324]]},
     ".points: zero arc length"),
    # So do the open steps of this polyline; only the step from its last
    # point back to its first, which counts for polygons alone, does not.
    ("underflowing steps", lambda f: {**f, "class": "lane_divider",
                                      "invariance": "undirected_polyline",
                                      "points": [[k * 1e-162, 0.0] for k in range(6)]},
     ".points: zero arc length"),
]


def _trajectory_and_oracle(path, monkeypatch):
    """(outcome of read_trajectory, outcome of the record-by-record read,
    whether the bulk pass accepted the file)."""
    accepted = []
    bulk_poses = sio._bulk_poses

    def spy(p):
        poses = bulk_poses(p)
        accepted.append(poses is not None)
        return poses

    with monkeypatch.context() as patch:
        patch.setattr(sio, "_bulk_poses", spy)
        got = _outcome(read_trajectory, path)
    with monkeypatch.context() as patch:
        patch.setattr(sio, "_bulk_poses", lambda p: None)
        want = _outcome(read_trajectory, path)
    return got, want, accepted == [True]


def _trajectory_lines(rng, n: int) -> list[dict]:
    """Pose records with some values written as JSON integers: huge ones
    that fit a double (+-MAX_COORDINATE for x and y) and negative zero
    among them, and yaws far outside (-pi, pi]."""
    records = []
    for k in range(n):
        rec = {"t": 0.2 * k, "x": float(rng.normal(0, 1e3)), "y": float(rng.normal(0, 1e3)),
               "yaw": float(rng.uniform(-20, 20))}
        for key in rec:
            if rng.random() < 0.2:
                huge = [10**9, -(10**9)] if key in "xy" else [2**53 + 1, -(10**30), 10**300]
                rec[key] = int(rng.choice([0, -0, 7, -3, *huge]))
        records.append(rec)
    return records


class TestBulkTrajectoryRead:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_trajectories(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(970 + seed)
        lines = [json.dumps(rec) for rec in _trajectory_lines(rng, int(rng.integers(0, 60)))]
        for k in sorted(rng.integers(0, len(lines) + 1, 3), reverse=True):
            lines.insert(k, " \t")  # blank lines are skipped
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got, want, accepted = _trajectory_and_oracle(path, monkeypatch)
        assert accepted
        assert got == want
        for (ta, pa), (tb, pb) in zip(got, want):
            assert type(ta) is type(tb) is float and math.copysign(1, ta) == math.copysign(1, tb)
            for name in ("x", "y", "yaw"):
                va, vb = getattr(pa, name), getattr(pb, name)
                assert type(va) is float and va == vb
                assert math.copysign(1, va) == math.copysign(1, vb)

    @pytest.mark.parametrize("line, message", [
        (lambda r: {**r, "t": True}, "pose.t: expected a number"),
        (lambda r: {**r, "x": "1"}, "pose.x: expected a number"),
        (lambda r: {**r, "y": None}, "pose.y: expected a number"),
        (lambda r: {**r, "yaw": [0.0]}, "pose.yaw: expected a number"),
        (lambda r: {**r, "yaw": _raw("1e999")}, "pose.yaw: must be finite"),
        (lambda r: {**r, "x": _raw("NaN")}, "non-finite number 'NaN' is not allowed"),
        (lambda r: {**r, "t": _HUGE}, "pose.t: must be finite"),
        (lambda r: {**r, "x": 1e200}, "pose.x: must be at most 1e+09 m in magnitude"),
        (lambda r: {**r, "y": -(10**9 + 1)}, "pose.y: must be at most 1e+09 m in magnitude"),
        (lambda r: {k: v for k, v in r.items() if k != "y"}, "pose: missing field 'y'"),
        (lambda r: {k: v for k, v in r.items() if k != "t"}, "pose: missing field 't'"),
        (lambda r: {**r, "z": 0.0}, "pose: unknown field(s): z"),
        (lambda r: {"z" if k == "yaw" else k: v for k, v in r.items()},
         "pose: missing field 'yaw'"),
        (lambda r: [r["t"], r["x"]], "record must be a JSON object"),
        (lambda r: "{broken", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ], ids=["t true", "x string", "y null", "yaw list", "yaw 1e999", "x NaN", "t 401 digits",
            "x 1e200", "y -1e9 - 1",
            "missing y", "missing t", "unknown key", "yaw renamed", "array record", "broken JSON"])
    def test_corrupt_last_line(self, tmp_path, monkeypatch, line, message):
        records = _trajectory_lines(np.random.default_rng(99), 6)
        last = line(records[-1])
        path = tmp_path / "traj.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records[:-1])
                        + (last if isinstance(last, str) else _dumps_raw(last)) + "\n")
        got, want, accepted = _trajectory_and_oracle(path, monkeypatch)
        assert not accepted
        assert got == want == f"error: {path}: line 6: {message}"

    def test_invalid_utf8_after_a_fault(self, tmp_path, monkeypatch):
        # The record-by-record read meets the bad record before the bad bytes
        # in a later chunk of the file, and so names it.
        records = _trajectory_lines(np.random.default_rng(98), 400)
        records[1]["t"] = True
        path = tmp_path / "traj.jsonl"
        path.write_bytes("".join(json.dumps(r) + "\n" for r in records).encode() + b"\xff\n")
        got, want, accepted = _trajectory_and_oracle(path, monkeypatch)
        assert not accepted
        assert got == want == f"error: {path}: line 2: pose.t: expected a number"


def _good_line(read, k: int) -> str:
    """Line k (from 0) of a valid file of the kind read reads."""
    if read is read_trajectory:
        return json.dumps({"t": float(k), "x": 0.0, "y": 0.0, "yaw": 0.0})
    if read is read_map_version and k == 0:
        return json.dumps({"version_id": "v"})
    if read is read_map_version:
        return json.dumps(sio.feature_to_record(line_feature(y=float(k), n=3)))
    frame = MapFrame(f"f{k}", Pose2D(0, 0, 0), 90.0, (line_feature(y=float(k), n=3),))
    return json.dumps(sio.frame_to_record(frame))


_BAD_RECORD = {read_scenes: '{"frame_id": "x"}', read_map_version: '{"class": "lane_center"}',
               read_trajectory: '{"t": 1.0}'}
_READERS = pytest.mark.parametrize("read", list(_BAD_RECORD),
                                   ids=["scenes", "map version", "trajectory"])


def _file_of(tmp_path, lines: list[str], undecodable: int | None = None):
    """A file of lines; line undecodable (from 1) gets a 0xff byte after its
    first character."""
    data = [line.encode() for line in lines]
    if undecodable is not None:
        line = data[undecodable - 1]
        data[undecodable - 1] = line[:1] + b"\xff" + line[1:]
    path = tmp_path / "file.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in data))
    return path


class TestUndecodableLine:
    @_READERS
    @pytest.mark.parametrize("bad", [1, 3, 300])
    def test_named_by_file_and_line(self, tmp_path, read, bad):
        # Line 300 lies past the decoder's first read-ahead chunk.
        path = _file_of(tmp_path, [_good_line(read, k) for k in range(400)], bad)
        assert _outcome(read, path) == (
            f"error: {path}: line {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 1: invalid start byte")

    @_READERS
    def test_earlier_record_fault_named_first(self, tmp_path, read):
        lines = [_good_line(read, k) for k in range(3)]
        lines[1] = _BAD_RECORD[read]
        want = _outcome(read, _file_of(tmp_path, lines))
        assert want.startswith(f"error: {tmp_path / 'file.jsonl'}: line 2: ")
        assert _outcome(read, _file_of(tmp_path, lines, undecodable=3)) == want


def _non_ascii_lines(read) -> list[str]:
    """A valid file of the kind read reads whose line 2 is not ASCII: a
    frame id "café", a map feature id "ß", or a trajectory's blank line of
    a no-break space."""
    if read is read_map_version:
        ids = ["ß", "b", "c"]
        return [json.dumps({"version_id": "v"}),
                *(json.dumps({"id": i, **sio.feature_to_record(line_feature(y=float(k), n=3))},
                             ensure_ascii=False) for k, i in enumerate(ids))]
    lines = [_good_line(read, k) for k in range(3)]
    if read is read_scenes:
        lines[1] = lines[1].replace('"f1"', '"café"')
        return lines
    return [lines[0], "\u00a0", *lines[1:]]


class TestNonAsciiLine:
    @_READERS
    def test_read_unchanged(self, tmp_path, read):
        lines = _non_ascii_lines(read)
        assert not lines[1].isascii()
        got = read(_file_of(tmp_path, lines))
        if read is read_scenes:
            assert [f.frame_id for f in got] == ["f0", "café", "f2"]
        elif read is read_map_version:
            assert got[0] == "v" and got[2] == ["ß", "b", "c"]
            assert got[1] == [line_feature(y=float(k), n=3) for k in range(3)]
        else:
            assert got == [(float(k), Pose2D(0.0, 0.0, 0.0)) for k in range(3)]

    @_READERS
    def test_undecodable_line_after_it_is_named(self, tmp_path, read):
        path = _file_of(tmp_path, _non_ascii_lines(read), undecodable=3)
        assert _outcome(read, path) == (
            f"error: {path}: line 3: 'utf-8' codec can't decode byte 0xff "
            "in position 1: invalid start byte")


def test_polygon_closing_step_counts(tmp_path, monkeypatch):
    # The squares of this ring's open steps underflow, that of its closing
    # step does not: a polygon of positive length, which both paths take.
    ring = MapFeature(FeatureClass.DRIVEWAY, InvarianceClass.POLYGON,
                      [[k * 1e-162, 0.0] for k in range(6)])
    frame = MapFrame("f", Pose2D(0.0, 0.0, 0.0), 90.0, (ring,))
    path = tmp_path / "scenes.jsonl"
    write_scenes([frame], path)
    got, want, accepted = _bulk_and_oracle(read_scenes, path, monkeypatch)
    assert got == want == [frame]
    assert accepted == 1


class TestBulkReaderErrors:
    def _frame_records(self) -> list[dict]:
        rng = np.random.default_rng(31)
        return [sio.frame_to_record(random_frame(rng, f"frame_{k}", n_features=6, n_points=6))
                for k in range(3)]

    @pytest.mark.parametrize("name, corrupt, message", _CORRUPTIONS,
                             ids=[c[0] for c in _CORRUPTIONS])
    def test_scene_corruption(self, tmp_path, monkeypatch, name, corrupt, message):
        records = self._frame_records()
        records[1]["features"][-1] = corrupt(records[1]["features"][-1])
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(_dumps_raw(rec) + "\n" for rec in records))
        got, want, accepted = _bulk_and_oracle(read_scenes, path, monkeypatch)
        assert got == want
        assert got.startswith(f"error: {path}: line 2: frame 'frame_1'.features[5]{message}")
        assert accepted >= 1  # the frame before the corrupt one

    @pytest.mark.parametrize("name, corrupt, message", _CORRUPTIONS,
                             ids=[c[0] for c in _CORRUPTIONS])
    def test_map_version_corruption(self, tmp_path, monkeypatch, name, corrupt, message):
        frame = random_frame(np.random.default_rng(32), n_features=3, n_points=6)
        records = [sio.feature_to_record(f) for f in frame.features]
        records[-1] = corrupt(records[-1])
        path = tmp_path / "map.jsonl"
        path.write_text(f'{{"version_id":"v"}}\n' + "".join(_dumps_raw(r) + "\n" for r in records))
        got, want, accepted = _bulk_and_oracle(read_map_version, path, monkeypatch)
        assert got == want
        if name == "non-object feature":
            assert got == f"error: {path}: line 4: record must be a JSON object"
        else:
            assert got.startswith(f"error: {path}: line 4: feature[2]{message}")
        assert accepted == 0  # the one bulk pass over the file refused it

    def test_map_version_names_the_first_fault(self, tmp_path, monkeypatch):
        # The whole-file bulk pass fails on the later lines too; the reader
        # still names the fault on the earliest line.
        records = [sio.feature_to_record(f) for f in
                   random_frame(np.random.default_rng(33), n_features=3).features]
        records[1]["confidence"] = 1.5
        lines = ['{"version_id":"v"}', *map(json.dumps, records[:2]), "{not json",
                 json.dumps({"id": "x", **records[2]})]
        path = tmp_path / "map.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got, want, accepted = _bulk_and_oracle(read_map_version, path, monkeypatch)
        assert got == want == f"error: {path}: line 3: feature[1].confidence: must lie in [0, 1]"
        assert accepted == 0

    def test_empty_feature_list(self, tmp_path, monkeypatch):
        records = self._frame_records()
        records[2]["features"] = []
        path = tmp_path / "scenes.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        got, want, accepted = _bulk_and_oracle(read_scenes, path, monkeypatch)
        _assert_same_frames(got, want)
        assert got[2].features == ()
        assert accepted == 3
