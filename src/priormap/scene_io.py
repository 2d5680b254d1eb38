"""Line-delimited file formats: scenes, world map versions, trajectories.

Every record is one JSON object per line with fields emitted in a fixed
order, so repeated runs produce diff-stable, byte-identical files.
Coordinates round-trip bit-exactly because Python serializes doubles via
their shortest exact decimal representation. Readers are strict: unknown
keys, non-finite numbers, coordinates beyond MAX_COORDINATE, malformed
records and features no stage can use (zero arc length as a double, or a
polygon that is no open ring) are rejected with the offending line number
and field path. Writers refuse what readers refuse of an id, class,
coordinate, fov_side, pose, arc length or polygon: they raise the message
the reader would give for the line, and write no file. A writer writes to
a temporary file and puts it in the target's place only once every line
is written, so a refused or failed write leaves no new file and an
existing one as it was; write_scenes checks its frames a chunk
at a time as it writes them, so its memory does not grow with the file.
"""
from __future__ import annotations

import json
import math
import os
import stat
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from itertools import accumulate, chain, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .model import (
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
    polyline_length,
    positive_length,
    ring_fault,
)


class SceneFormatError(ValueError):
    """A record failed schema validation."""


#: Largest magnitude of a coordinate in a file (feature points, pose x and
#: y), in meters: far beyond any map, and small enough that squared steps
#: and distances between such points stay finite as doubles.
MAX_COORDINATE = 1e9


def _reject_constant(token: str):
    raise SceneFormatError(f"non-finite number {token!r} is not allowed")


#: One decoder and one encoder for every line: ``json.loads`` and
#: ``json.dumps`` with keyword arguments build a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _decode(text: str):
    """``json.loads(text, parse_constant=_reject_constant)``, BOM check included."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def _loads(line: str) -> dict:
    try:
        obj = _decode(line)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise SceneFormatError("record must be a JSON object")
    return obj


def _take(record: dict, key: str, where: str):
    if key not in record:
        raise SceneFormatError(f"{where}: missing field '{key}'")
    return record.pop(key)


def _no_extras(record: dict, where: str) -> None:
    if record:
        extras = ", ".join(sorted(record))
        raise SceneFormatError(f"{where}: unknown field(s): {extras}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError(f"{where}: expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer too large for a double
        out = math.inf
    if not math.isfinite(out):
        raise SceneFormatError(f"{where}: must be finite")
    return out


def _as_coordinate(value, where: str) -> float:
    out = _as_float(value, where)
    if abs(out) > MAX_COORDINATE:
        raise SceneFormatError(f"{where}: must be at most {MAX_COORDINATE:g} m in magnitude")
    return out


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise SceneFormatError(f"{where}: expected a string")
    return value


def _pose(rec: dict, where: str) -> Pose2D:
    """The pose in the fields x, y and yaw of rec, which must hold no other
    field; consumes rec."""
    x, y, yaw = (parse(_take(rec, k, where), f"{where}.{k}")
                 for k, parse in (("x", _as_coordinate), ("y", _as_coordinate), ("yaw", _as_float)))
    _no_extras(rec, where)
    return Pose2D(x=x, y=y, yaw=yaw)


_CLASS_BY_VALUE = {c.value: c for c in FeatureClass}
_INVARIANCE_BY_VALUE = {c.value: c for c in InvarianceClass}


def _parse_points(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) < 2:
        raise SceneFormatError(f"{where}: 'points' must be a list of at least 2 [x, y] pairs")
    pts = np.empty((len(raw), 2), dtype=np.float64)
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SceneFormatError(f"{where}.points[{k}]: expected an [x, y] pair")
        pts[k, 0] = _as_coordinate(pair[0], f"{where}.points[{k}][0]")
        pts[k, 1] = _as_coordinate(pair[1], f"{where}.points[{k}][1]")
    return pts


_NUMBER_TYPES = {float, int}


def _doubles(values: list, columns: int) -> np.ndarray | None:
    """The values as a float64 array of the given number of columns, when
    each is a number (``bool`` is not one) that a double can hold; else
    None."""
    if set(map(type, values)) - _NUMBER_TYPES:
        return None
    try:
        return np.array(values, dtype=np.float64).reshape(-1, columns)
    except OverflowError:  # an integer too large for a double
        return None


def _within(values: np.ndarray, bounds: float | tuple[float, ...]) -> bool:
    """Whether every value is at most its column's bound in magnitude,
    which no NaN is."""
    return bool((np.abs(values) <= bounds).all())


#: Bounds of the columns t, x, y and yaw of a pose. A magnitude of at most
#: the largest double is finite.
_POSE_BOUNDS = (sys.float_info.max, MAX_COORDINATE, MAX_COORDINATE, sys.float_info.max)


def _geometry_ok(pts: np.ndarray, lens: Sequence[int], invariances: Sequence[InvarianceClass]) -> bool:
    """Whether the features (one or more) whose points are the consecutive
    runs of lens rows of pts, of the given invariances, are what every
    stage can use: at least 2 points each, every coordinate at most
    MAX_COORDINATE in magnitude (so finite), polygons keep the polygon
    rule, and every feature has some step whose squared length
    dx**2 + dy**2 is positive as a double, a polygon's closing step
    included (resample_polyline's rule). The one numeric check of
    features, for readers and writers alike."""
    if min(lens) < 2 or not _within(pts, MAX_COORDINATE):
        return False
    ends = list(accumulate(lens))
    starts = [0, *ends[:-1]]
    polygon = InvarianceClass.POLYGON
    if any(ring_fault(pts[a:b]) for inv, a, b in zip(invariances, starts, ends) if inv is polygon):
        return False
    # The coordinate bound keeps every square finite.
    return bool(positive_length(pts, lens, np.array([inv is polygon for inv in invariances])).all())


def _features_ok(features: Sequence[MapFeature]) -> bool:
    """Whether built features are what the readers accept: real classes
    only (no no_object) and _geometry_ok."""
    if not features:
        return True
    if FeatureClass.NO_OBJECT in map(attrgetter("feature_class"), features):
        return False
    points = list(map(attrgetter("points"), features))
    return _geometry_ok(np.concatenate(points), list(map(len, points)),
                        list(map(attrgetter("invariance"), features)))


def _all_str(values: Iterable) -> bool:
    return all(isinstance(v, str) for v in values)


_FEATURE_FIELDS = itemgetter("class", "invariance", "confidence", "points")

#: The classes a feature in a file may carry: no_object is refused.
_INPUT_CLASS_BY_VALUE = {c.value: c for c in REAL_CLASSES}


def _bulk_features(records: list) -> list[MapFeature] | None:
    """The features of a list of feature records, checked and built in
    passes over the whole list.

    Checks what feature_from_record checks, with C-level passes: each
    record is an object with exactly the four fields; its class (a real
    one) and invariance are found by dict lookup; each confidence is a
    number (``bool`` is not one) in [0, 1] as a double; each ``points`` is
    a list of pairs, each pair a list of 2 numbers; and the points pass
    _geometry_ok.
    The points go through one read-only array, of which each feature holds
    a view. Returns None when any check fails; the caller then runs
    feature_from_record on each record, which names the fault.
    """
    if not records:
        return []
    if set(map(type, records)) - {dict} or set(map(len, records)) - {4}:
        return None
    try:
        names, inv_names, confs, raws = zip(*map(_FEATURE_FIELDS, records))
        classes = list(map(_INPUT_CLASS_BY_VALUE.__getitem__, names))
        invariances = list(map(_INVARIANCE_BY_VALUE.__getitem__, inv_names))
    except (KeyError, TypeError):  # a missing field, unknown or unhashable name
        return None
    # Python compares an int with a float exactly, so the range check holds
    # for the double each confidence becomes, and refuses inf.
    if set(map(type, confs)) - _NUMBER_TYPES or not (min(confs) >= 0 and max(confs) <= 1):
        return None
    if set(map(type, raws)) - {list}:
        return None
    pairs = list(chain.from_iterable(raws))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    pts = _doubles(list(chain.from_iterable(pairs)), 2)
    lens = list(map(len, raws))
    if pts is None or not _geometry_ok(pts, lens, invariances):
        return None
    pts.flags.writeable = False
    ends = list(accumulate(lens))
    build = MapFeature.from_checked
    return [
        build(cls, inv, pts[a:b], float(c))
        for cls, inv, a, b, c in zip(classes, invariances, [0, *ends], ends, confs)
    ]


def feature_to_record(feature: MapFeature) -> dict:
    return {
        "class": feature.feature_class.value,
        "invariance": feature.invariance.value,
        "confidence": feature.confidence,
        "points": feature.points.tolist(),
    }


def feature_from_record(record: dict, where: str) -> MapFeature:
    """Validate one feature record, naming the first fault in it."""
    if not isinstance(record, dict):
        raise SceneFormatError(f"{where}: expected an object")
    rec = dict(record)
    cls_name = _as_str(_take(rec, "class", where), f"{where}.class")
    if cls_name not in _CLASS_BY_VALUE:
        raise SceneFormatError(f"{where}.class: unknown class {cls_name!r}")
    cls = _CLASS_BY_VALUE[cls_name]
    if cls is FeatureClass.NO_OBJECT:
        raise SceneFormatError(f"{where}.class: 'no_object' is not allowed in input files")
    inv_name = _as_str(_take(rec, "invariance", where), f"{where}.invariance")
    if inv_name not in _INVARIANCE_BY_VALUE:
        raise SceneFormatError(f"{where}.invariance: unknown invariance {inv_name!r}")
    invariance = _INVARIANCE_BY_VALUE[inv_name]
    confidence = _as_float(_take(rec, "confidence", where), f"{where}.confidence")
    if not (0.0 <= confidence <= 1.0):
        raise SceneFormatError(f"{where}.confidence: must lie in [0, 1]")
    pts = _parse_points(_take(rec, "points", where), where)
    _no_extras(rec, where)
    if invariance is InvarianceClass.POLYGON:
        fault = ring_fault(pts)
        if fault:
            raise SceneFormatError(f"{where}.points: {fault}")
    if not polyline_length(pts, closed=invariance is InvarianceClass.POLYGON) > 0.0:
        raise SceneFormatError(f"{where}.points: zero arc length")
    return MapFeature(feature_class=cls, invariance=invariance, points=pts, confidence=confidence)


def frame_to_record(frame: MapFrame) -> dict:
    return {
        "frame_id": frame.frame_id,
        "ego_pose": {"x": frame.ego_pose.x, "y": frame.ego_pose.y, "yaw": frame.ego_pose.yaw},
        "fov_side": frame.fov_side,
        "features": [feature_to_record(f) for f in frame.features],
    }


def frame_from_record(record: dict) -> MapFrame:
    rec = dict(record)
    frame_id = _as_str(_take(rec, "frame_id", "frame"), "frame.frame_id")
    where = f"frame '{frame_id}'"
    pose_rec = _take(rec, "ego_pose", where)
    if not isinstance(pose_rec, dict):
        raise SceneFormatError(f"{where}.ego_pose: expected an object")
    pose = _pose(dict(pose_rec), f"{where}.ego_pose")
    # Bounded like a coordinate, so every point inside the field of view is.
    fov_side = _as_coordinate(_take(rec, "fov_side", where), f"{where}.fov_side")
    feats_rec = _take(rec, "features", where)
    if not isinstance(feats_rec, list):
        raise SceneFormatError(f"{where}.features: expected a list")
    _no_extras(rec, where)
    features = _bulk_features(feats_rec)
    if features is None:
        features = [feature_from_record(fr, f"{where}.features[{k}]")
                    for k, fr in enumerate(feats_rec)]
    return MapFrame(frame_id=frame_id, ego_pose=pose, fov_side=fov_side, features=features)


_T = TypeVar("_T")
_R = TypeVar("_R")


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, numbered from 1. A line that is no
    UTF-8 raises a SceneFormatError naming it, once every line before it
    has been yielded."""
    # Each undecodable byte is read as a lone surrogate, which no UTF-8
    # text holds: such a line cannot go back to bytes and be decoded again.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SceneFormatError(f"{path}: line {lineno}: {exc}") from None
            yield lineno, line


def _parse_numbered(path: str | Path, numbered: Iterable[tuple[int, _R]],
                    parse: Callable[[_R], _T]) -> list[_T]:
    """parse of each item of the (line number, item) pairs, in order; the
    first fault is reported with the file and its line number."""
    out: list[_T] = []
    for lineno, item in numbered:
        try:
            out.append(parse(item))
        except SceneFormatError as exc:
            raise SceneFormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def _read_records(path: str | Path, parse: Callable[[dict], _T]) -> list[_T]:
    """Parse every non-blank line of a line-delimited file in order; the
    first fault in the file, a record that fails or a line that is no
    UTF-8, is reported with the file and its line number."""
    lines = ((lineno, line) for lineno, line in _numbered_lines(path) if line.strip())
    return _parse_numbered(path, lines, lambda line: parse(_loads(line)))


def _replaceable(target: str) -> bool:
    """Whether a new file renamed over target leaves it what it was: target
    is missing, or a regular file with one link, owned by this user, that
    this user may write, in a directory this user may write."""
    try:
        st = os.stat(target)
    except OSError:
        return True  # open() reports what is wrong
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
            and os.access(target, os.W_OK) and os.access(os.path.dirname(target), os.W_OK))


def _write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write one record per line, into a temporary file beside path that
    replaces path once the last record is written, with path's permission
    bits. records may raise as it is consumed: path is then left as it was.
    A path that a replacement would change (a device, a pipe, a hard link,
    another user's file, a file in a read-only directory) gets the lines of
    an anonymous temporary file, copied in once the last one is written."""
    target = os.path.realpath(path)
    in_place = not _replaceable(target)
    head, name = os.path.split(target)
    tmp = target if in_place else os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with (tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") if in_place
              else nullcontext()) as spool:
            lines = (line for record in records for line in (_ENCODER.encode(record), "\n"))
            if in_place:
                spool.writelines(lines)
                spool.seek(0)
                lines = spool
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        if not in_place:
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = os.fspath(path)
        raise


#: Frames write_scenes checks at once, before it writes them. The check
#: stacks a chunk's points: 64 frames of 40 features take about 2.4 MB of
#: temporaries, 256 frames about 9 MB, which showed in perturb's peak RSS.
_WRITE_CHUNK = 64


def write_scenes(frames: Iterable[MapFrame], path: str | Path) -> None:
    """Write one frame per line. A frame id, class, coordinate, fov_side,
    pose, arc length or polygon that read_scenes would refuse is refused
    with the message it would give for the line, and no file is written.
    The frames are checked _WRITE_CHUNK at a time, each chunk before it is
    written."""

    def records() -> Iterator[dict]:
        frames_left = iter(frames)
        start = 1
        while chunk := list(islice(frames_left, _WRITE_CHUNK)):
            bounded = [(f.ego_pose.x, f.ego_pose.y, f.fov_side) for f in chunk]
            if not (_all_str(map(attrgetter("frame_id"), chunk))
                    and _within(np.array(bounded), MAX_COORDINATE)
                    and _features_ok(list(chain.from_iterable(f.features for f in chunk)))):
                _parse_numbered(path, enumerate(map(frame_to_record, chunk), start=start),
                                frame_from_record)
            start += len(chunk)
            yield from map(frame_to_record, chunk)

    _write_records(path, records())


def read_scenes(path: str | Path) -> list[MapFrame]:
    return _read_records(path, frame_from_record)


def pair_frames(
    pred_frames: Sequence[MapFrame], gt_frames: Sequence[MapFrame]
) -> list[tuple[MapFrame, MapFrame]]:
    """Pair frames 1:1 by frame id, in ground-truth order; repeated and
    unpaired ids raise, listed by side."""
    pred_by_id = {f.frame_id: f for f in pred_frames}
    gt_by_id = {f.frame_id: f for f in gt_frames}
    faults = []
    for side, frames, ids, other in (("predictions", pred_frames, pred_by_id, gt_by_id),
                                     ("ground truth", gt_frames, gt_by_id, pred_by_id)):
        repeated = sorted(i for i, n in Counter(f.frame_id for f in frames).items() if n > 1)
        if repeated:
            faults.append(f"duplicate frame ids in {side}: {', '.join(repeated)}")
        missing = sorted(other.keys() - ids.keys())
        if missing:
            faults.append(f"missing {side} for: {', '.join(missing)}")
    if faults:
        raise ValueError("; ".join(faults))
    return [(pred_by_id[f.frame_id], f) for f in gt_frames]


def write_map_version(
    version_id: str,
    features: Sequence[MapFeature],
    path: str | Path,
    feature_ids: Sequence[str] | None = None,
) -> None:
    """Write a world-frame map version: a header line, then one feature per
    line with an optional stable id. An id, class, coordinate, arc length
    or polygon that read_map_version would refuse is refused with the
    message it would give for the line, and no file is written."""
    if feature_ids is not None and len(feature_ids) != len(features):
        raise ValueError("feature_ids must match features in length")
    records = [{"version_id": version_id}, *map(feature_to_record, features)]
    if feature_ids is not None:
        records[1:] = ({"id": i, **rec} for i, rec in zip(feature_ids, records[1:]))
    ids = () if feature_ids is None else feature_ids
    if not (_all_str([version_id, *ids]) and _features_ok(features)):
        _map_version_lines(path, feature_from_record, records)
    _write_records(path, records)


def _map_version_lines(
    path: str | Path, feature: Callable[[dict, str], _T] | None = None,
    records: Sequence[dict] | None = None,
) -> tuple[str, list, list[str]]:
    """The version id, the feature records and the feature ids of a map
    version file, in line order; with feature given, each record is
    replaced by feature(record, its path) as its line is read. With records
    given, they are read in place of the file's lines, numbered from 1."""
    version_id: str | None = None
    items: list = []
    ids: list[str] = []

    def parse(rec: dict) -> None:
        nonlocal version_id
        if version_id is None:
            version_id = _as_str(_take(rec, "version_id", "header"), "header.version_id")
            _no_extras(rec, "header")
            return
        has_id = "id" in rec
        # ids is non-empty exactly when the first feature carried an id.
        if items and has_id != bool(ids):
            raise SceneFormatError("feature ids must be present on all features or none")
        if has_id:
            ids.append(_as_str(rec.pop("id"), "feature.id"))
        items.append(rec if feature is None else feature(rec, f"feature[{len(items)}]"))

    if records is None:
        _read_records(path, parse)
    else:
        _parse_numbered(path, enumerate(map(dict, records), start=1), parse)
    if version_id is None:
        raise SceneFormatError(f"{path}: missing version header line")
    return version_id, items, ids


def read_map_version(path: str | Path) -> tuple[str, list[MapFeature], list[str] | None]:
    """Read a map version file; returns (version_id, features, ids or None).

    The feature records of the whole file go through one _bulk_features
    pass. When that or any other check fails, the file is read again with
    each record through feature_from_record as its line comes, which names
    the first fault in the file."""
    try:
        version_id, records, ids = _map_version_lines(path)
        features = _bulk_features(records)
    except SceneFormatError:
        features = None
    if features is None:
        version_id, features, ids = _map_version_lines(path, feature_from_record)
    return version_id, features, (ids or None)


_POSE_FIELDS = itemgetter("t", "x", "y", "yaw")


def write_trajectory(poses: Sequence[tuple[float, Pose2D]], path: str | Path) -> None:
    """Write one (t, pose) per line. A t or pose that read_trajectory would
    refuse is refused with the message it would give for the line, and no
    file is written."""
    records = [{"t": float(t), "x": pose.x, "y": pose.y, "yaw": pose.yaw} for t, pose in poses]
    if not _within(np.array(list(map(_POSE_FIELDS, records))).reshape(-1, 4), _POSE_BOUNDS):
        _parse_numbered(path, enumerate(records, start=1),
                        lambda rec: _timed_pose_from_record(dict(rec)))
    _write_records(path, records)


def _timed_pose_from_record(rec: dict) -> tuple[float, Pose2D]:
    t = _as_float(_take(rec, "t", "pose"), "pose.t")
    return t, _pose(rec, "pose")


def _bulk_poses(records: list[dict]) -> list[tuple[float, Pose2D]] | None:
    """The (t, pose) of each trajectory record, checked and built in passes
    over the whole list.

    Checks what _timed_pose_from_record checks, with C-level passes: each
    record has exactly the fields t, x, y and yaw, each a number (``bool``
    is not one) that is finite as a double, x and y at most MAX_COORDINATE
    in magnitude. Returns None when any check fails; the caller then runs
    _timed_pose_from_record on each record, which names the fault.
    """
    if set(map(len, records)) - {4}:
        return None
    try:
        values = list(chain.from_iterable(map(_POSE_FIELDS, records)))
    except KeyError:
        return None
    flat = _doubles(values, 4)
    if flat is None or not _within(flat, _POSE_BOUNDS):
        return None
    t, x, y, yaw = flat.T.tolist()
    return list(zip(t, map(Pose2D.from_checked, x, y, yaw)))


def read_trajectory(path: str | Path) -> list[tuple[float, Pose2D]]:
    """Read a trajectory file: one (t, pose) per non-blank line, in order.

    The records of the whole file go through one _bulk_poses pass. When
    that or any other check fails, the file is read again with each record
    through _timed_pose_from_record, which names the first fault in the
    file."""
    try:
        poses = _bulk_poses(_read_records(path, dict))
    except SceneFormatError:
        poses = None
    if poses is None:
        poses = _read_records(path, _timed_pose_from_record)
    return poses


def load_json_config(path: str | Path) -> dict:
    """Load a single-object JSON config file, rejecting non-finite numbers.
    Its errors leave naming the file to the caller, which names it once."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = _decode(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise SceneFormatError("config must be a JSON object")
    return obj
