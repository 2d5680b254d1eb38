"""Line-delimited file formats: scenes, world map versions, trajectories.

Every record is one JSON object per line with fields emitted in a fixed
order, so repeated runs produce diff-stable, byte-identical files.
Coordinates round-trip bit-exactly because Python serializes doubles via
their shortest exact decimal representation. Readers are strict: unknown
keys, non-finite numbers, malformed records and features no stage can use
(zero arc length as a double, or a polygon that is no open ring) are rejected
with the offending line number and field path.
"""
from __future__ import annotations

import json
import math
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .model import (
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    Pose2D,
    polyline_length,
    ring_fault,
)


class SceneFormatError(ValueError):
    """A record failed schema validation."""


def _reject_constant(token: str):
    raise SceneFormatError(f"non-finite number {token!r} is not allowed")


#: One decoder for every line: ``json.loads`` with keyword arguments builds a
#: new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


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


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise SceneFormatError(f"{where}: expected a string")
    return value


def _pose(rec: dict, where: str) -> Pose2D:
    """The pose in the fields x, y and yaw of rec, which must hold no other
    field; consumes rec."""
    x, y, yaw = (_as_float(_take(rec, k, where), f"{where}.{k}") for k in ("x", "y", "yaw"))
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
        pts[k, 0] = _as_float(pair[0], f"{where}.points[{k}][0]")
        pts[k, 1] = _as_float(pair[1], f"{where}.points[{k}][1]")
    return pts


_NUMBER_TYPES = {float, int}

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
    a list of at least 2 pairs, each pair a list of 2 numbers, each number
    finite as a double; polygons keep the polygon rule, and every feature
    has some step whose squared length dx**2 + dy**2 is positive as a
    double, a polygon's closing step included (resample_polyline's rule).
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
    lens = list(map(len, raws))
    if min(lens) < 2:
        return None
    pairs = list(chain.from_iterable(raws))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    values = list(chain.from_iterable(pairs))
    if set(map(type, values)) - _NUMBER_TYPES:
        return None
    try:
        flat = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer too large for a double
        return None
    if not np.isfinite(flat).all():
        return None
    flat.flags.writeable = False
    pts = flat.reshape(-1, 2)
    ends = list(accumulate(lens))
    starts = [0, *ends[:-1]]
    polygon = InvarianceClass.POLYGON
    if any(ring_fault(pts[a:b]) for inv, a, b in zip(invariances, starts, ends) if inv is polygon):
        return None
    # The step out of each point: to the next point of its feature, and out
    # of a feature's last point back to its first, which counts for polygons
    # only. A square too large for a double is inf, and still positive.
    last = np.array(ends) - 1
    step = np.empty_like(pts)
    step[:-1] = pts[1:]
    step[last] = pts[starts]
    with np.errstate(over="ignore"):
        step -= pts
        step *= step
        positive = step[:, 0] + step[:, 1] > 0.0
    positive[last[[inv is not polygon for inv in invariances]]] = False
    if not np.logical_or.reduceat(positive, starts).all():
        return None
    build = MapFeature.from_checked
    return [
        build(cls, inv, pts[a:b], float(c))
        for cls, inv, a, b, c in zip(classes, invariances, starts, ends, confs)
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
    fov_side = _as_float(_take(rec, "fov_side", where), f"{where}.fov_side")
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


def _read_records(path: str | Path, parse: Callable[[dict], _T]) -> list[_T]:
    """Parse every non-blank line of a line-delimited file in order; a
    record that fails is reported with the file and its line number."""
    out: list[_T] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(_loads(line)))
            except SceneFormatError as exc:
                raise SceneFormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_scenes(frames: Iterable[MapFrame], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in frames:
            fh.write(_dumps(frame_to_record(frame)))
            fh.write("\n")


def read_scenes(path: str | Path) -> list[MapFrame]:
    return _read_records(path, frame_from_record)


def write_map_version(
    version_id: str,
    features: Sequence[MapFeature],
    path: str | Path,
    feature_ids: Sequence[str] | None = None,
) -> None:
    """Write a world-frame map version: a header line, then one feature per
    line with an optional stable id."""
    if feature_ids is not None and len(feature_ids) != len(features):
        raise ValueError("feature_ids must match features in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps({"version_id": version_id}))
        fh.write("\n")
        for k, feat in enumerate(features):
            rec = feature_to_record(feat)
            if feature_ids is not None:
                rec = {"id": feature_ids[k], **rec}
            fh.write(_dumps(rec))
            fh.write("\n")


def _map_version_lines(
    path: str | Path, feature: Callable[[dict, str], _T] | None = None
) -> tuple[str, list, list[str]]:
    """The version id, the feature records and the feature ids of a map
    version file, in line order; with feature given, each record is
    replaced by feature(record, its path) as its line is read."""
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

    _read_records(path, parse)
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


def write_trajectory(poses: Sequence[tuple[float, Pose2D]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, pose in poses:
            fh.write(_dumps({"t": float(t), "x": pose.x, "y": pose.y, "yaw": pose.yaw}))
            fh.write("\n")


def _timed_pose_from_record(rec: dict) -> tuple[float, Pose2D]:
    t = _as_float(_take(rec, "t", "pose"), "pose.t")
    return t, _pose(rec, "pose")


def read_trajectory(path: str | Path) -> list[tuple[float, Pose2D]]:
    return _read_records(path, _timed_pose_from_record)


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
