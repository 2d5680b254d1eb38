"""Core vectorized-map data model.

Map features are fixed-length 2D control-point sequences with a semantic
class and a symmetry (invariance) class; frames collect features around an
ego pose with a square field of view. Everything here is an immutable
value object and every operation is a pure function, so frames can be
processed from any number of workers without coordination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np


class FeatureClass(Enum):
    """Semantic class of a map feature. NO_OBJECT marks padded label slots
    and never appears in input files."""

    LANE_CENTER = "lane_center"
    LANE_DIVIDER = "lane_divider"
    ROAD_BOUNDARY = "road_boundary"
    DRIVEWAY = "driveway"
    NO_OBJECT = "no_object"


#: Classes a real feature may carry, in canonical score-column order.
REAL_CLASSES: tuple[FeatureClass, ...] = (
    FeatureClass.LANE_CENTER,
    FeatureClass.LANE_DIVIDER,
    FeatureClass.ROAD_BOUNDARY,
    FeatureClass.DRIVEWAY,
)


class InvarianceClass(Enum):
    """Symmetry group under which a feature's point ordering is equivalent."""

    DIRECTED_POLYLINE = "directed_polyline"
    UNDIRECTED_POLYLINE = "undirected_polyline"
    POLYGON = "polygon"


#: Semantic-class to invariance-class table.
DEFAULT_INVARIANCE: Mapping[FeatureClass, InvarianceClass] = {
    FeatureClass.LANE_CENTER: InvarianceClass.DIRECTED_POLYLINE,
    FeatureClass.LANE_DIVIDER: InvarianceClass.UNDIRECTED_POLYLINE,
    FeatureClass.ROAD_BOUNDARY: InvarianceClass.UNDIRECTED_POLYLINE,
    FeatureClass.DRIVEWAY: InvarianceClass.POLYGON,
}


class DegenerateFeatureError(ValueError):
    """Raised when a polyline has no usable arc length."""


class FrameOverflowError(ValueError):
    """Raised when a frame holds more features than the configured maximum."""


def as_points(points: Sequence | np.ndarray) -> np.ndarray:
    """Coerce to a read-only (n, 2) float64 array of finite coordinates."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN/Inf)")
    pts.flags.writeable = False
    return pts


def ring_fault(points: np.ndarray) -> str | None:
    """Why points cannot be a polygon, or None: the polygon rule.

    A polygon is stored as an open ring: at least 3 points, and the last
    point is not the first one again, because closure is implied.
    """
    if len(points) < 3:
        return "polygons need at least 3 points"
    if points[0].tolist() == points[-1].tolist():
        return "polygons must not repeat the closing vertex"
    return None


@dataclass(frozen=True, eq=False)
class MapFeature:
    """One vectorized feature: a control-point sequence plus its classes.

    Polylines have at least 2 points. Polygons are stored as an open ring
    of at least 3 points (no repeated closing vertex), and the constructor
    refuses any other (ring_fault for polygons); closure is implied by the
    invariance class. Confidence is 1.0 for labels and priors, and a model
    score for predictions.
    """

    feature_class: FeatureClass
    invariance: InvarianceClass
    points: np.ndarray
    confidence: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", as_points(self.points))
        conf = float(self.confidence)
        if not (0.0 <= conf <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {conf}")
        object.__setattr__(self, "confidence", conf)
        if self.invariance is InvarianceClass.POLYGON:
            fault = ring_fault(self.points)
            if fault:
                raise ValueError(fault)
        elif len(self.points) < 2:
            raise ValueError(f"points must be at least 2 [x, y] pairs, got {len(self.points)}")

    @classmethod
    def from_checked(
        cls,
        feature_class: FeatureClass,
        invariance: InvarianceClass,
        points: np.ndarray,
        confidence: float,
    ) -> "MapFeature":
        """A feature from fields the caller has already checked: points a
        read-only (n, 2) float64 array of finite values, confidence a float
        in [0, 1]. It skips __post_init__ and so every check, the point
        count and the polygon rule included."""
        new = object.__new__(cls)
        new.__dict__.update(
            feature_class=feature_class, invariance=invariance, points=points, confidence=confidence
        )
        return new

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of the control points."""
        mn = self.points.min(axis=0)
        mx = self.points.max(axis=0)
        return float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1])

    def resampled(self, n: int) -> "MapFeature":
        """This feature with n points: itself when it has n already, else
        its points resampled at equal arc-length spacing (as a closed ring
        for a polygon)."""
        if self.n_points == n:
            return self
        closed = self.invariance is InvarianceClass.POLYGON
        return self.with_points(resample_polyline(self.points, n, closed=closed))

    def with_points(self, points: np.ndarray) -> "MapFeature":
        """A copy with new points. Only the points are checked (as_points),
        not the point count or the polygon rule; the other fields are
        copied as they are, already valid."""
        return self.from_checked(self.feature_class, self.invariance, as_points(points),
                                 self.confidence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MapFeature):
            return NotImplemented
        return (
            self.feature_class is other.feature_class
            and self.invariance is other.invariance
            and self.confidence == other.confidence
            and self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(float(yaw), math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


@dataclass(frozen=True)
class Pose2D:
    """World-frame planar pose; yaw is normalized to (-pi, pi] radians."""

    x: float
    y: float
    yaw: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "yaw"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"pose {name} must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    @classmethod
    def from_checked(cls, x: float, y: float, yaw: float) -> "Pose2D":
        """A pose from floats the caller has already checked to be finite.
        It skips __post_init__ and so every check, but yaw is normalized
        still."""
        new = object.__new__(cls)
        new.__dict__.update(x=x, y=y, yaw=normalize_yaw(yaw))
        return new


@dataclass(frozen=True, eq=False)
class MapFrame:
    """An ego-centered scene: pose, square field of view, and features.

    Feature coordinates are in the ego frame (+x forward, +y left); the
    field of view is the square [-fov_side/2, +fov_side/2]^2.
    """

    frame_id: str
    ego_pose: Pose2D
    fov_side: float = 90.0
    features: tuple[MapFeature, ...] = ()

    def __post_init__(self) -> None:
        if not self.frame_id:
            raise ValueError("frame_id must be non-empty")
        fov = float(self.fov_side)
        if not (math.isfinite(fov) and fov > 0):
            raise ValueError(f"fov_side must be positive, got {self.fov_side}")
        object.__setattr__(self, "fov_side", fov)
        object.__setattr__(self, "features", tuple(self.features))

    def with_features(self, features: Iterable[MapFeature]) -> "MapFrame":
        return replace(self, features=tuple(features))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MapFrame):
            return NotImplemented
        return (
            self.frame_id == other.frame_id
            and self.ego_pose == other.ego_pose
            and self.fov_side == other.fov_side
            and self.features == other.features
        )


@dataclass(frozen=True)
class ModelDims:
    """Tensor dimensions shared by the matching layer.

    Predictions and labels have the same slot count m; every polyline
    carries the same number of 2D control points.
    """

    m: int = 50
    n_points: int = 20

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")


DEFAULT_DIMS = ModelDims()


def _arc_lengths(
    points: np.ndarray, sizes: np.ndarray, closed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one arc-length pass, over k pieces stacked in the (N, 2) points
    array, piece i being the next sizes[i] >= 1 rows.

    Returns the (k, w, 2) rings, the (k, w) cumulative arc lengths along
    them and each ring's point count. A closed piece's ring ends with its
    first point again; every ring is padded to the common width w with its
    last point, so padded steps have length 0 and cum[:, -1] holds each
    total. Each row's steps and running sum are those of the piece alone.
    """
    ring_sizes = sizes + closed
    col = np.minimum(np.arange(ring_sizes.max()), ring_sizes[:, None] - 1)
    col[col == sizes[:, None]] = 0  # the closing point of a closed ring
    ring = points[(np.cumsum(sizes) - sizes)[:, None] + col]
    # A step or a square too large for a double counts as an infinite length.
    # Each step's length is sqrt(dx*dx + dy*dy), as np.linalg.norm takes it.
    with np.errstate(over="ignore"):
        step = ring[:, 1:] - ring[:, :-1]
        step *= step
        cum = np.zeros(col.shape)
        np.add.accumulate(np.sqrt(np.add.reduce(step, axis=2)), axis=1, out=cum[:, 1:])
    return ring, cum, ring_sizes


def _checked_piece(points: Sequence | np.ndarray, n: int, closed: bool) -> np.ndarray:
    """One piece through resample_polyline's checks, in their order; the
    piece as as_points returns it."""
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("resampling needs at least 2 input points")
    if n < 2:
        raise ValueError("resampling needs n >= 2 output points")
    total = polyline_length(pts, closed)
    if total <= 0.0:
        raise DegenerateFeatureError("degenerate feature: zero arc length")
    if total == math.inf:
        raise DegenerateFeatureError("degenerate feature: infinite arc length")
    return pts


def resample_polylines(
    pieces: Sequence[Sequence | np.ndarray], n: int, closed: bool | Sequence[bool] = False
) -> np.ndarray:
    """Resample every piece to n points as resample_polyline resamples one,
    in one stacked pass: a (k, n, 2) array whose row i is bit for bit
    resample_polyline(pieces[i], n, closed[i]).

    closed is one flag for every piece or one per piece. When a piece fails
    one of resample_polyline's checks, the pieces are checked one by one in
    order, and the first fault is raised as resample_polyline raises it.
    """
    k = len(pieces)
    closed = np.zeros(k, dtype=bool) | np.asarray(closed, dtype=bool)
    if not k:
        return np.empty((0, n, 2))
    try:
        points = np.concatenate(pieces, dtype=np.float64)
        sizes = np.fromiter(map(len, pieces), dtype=np.intp, count=k)
        fine = (points.ndim == 2 and points.shape[1] == 2 and n >= 2 and sizes.min() >= 2
                and bool(np.isfinite(points).all()))
    except (ValueError, TypeError):
        fine = False
    if fine:
        ring, cum, ring_sizes = _arc_lengths(points, sizes, closed)
        total = cum[:, -1]
        fine = 0.0 < total.min() and total.max() < math.inf  # False for NaN
    if not fine:
        # Raises for the first faulty piece; pieces that as_points only had
        # to convert pass, and are stacked again converted.
        checked = [_checked_piece(p, n, c) for p, c in zip(pieces, closed)]
        return resample_polylines(checked, n, closed)
    # Target i is i * (L / n) on a closed ring and i * (L / (n - 1)) on an
    # open polyline, whose last target is L exactly: np.linspace(0, L, n)'s
    # own arithmetic for a positive step, written out because its array
    # form costs twice as much.
    targets = np.arange(n, dtype=np.float64) * (total / (n - 1 + closed))[:, None]
    np.copyto(targets[:, -1], total, where=~closed)
    out = np.empty((k, n, 2))
    xs, ys = ring[..., 0], ring[..., 1]
    for i, size in enumerate(ring_sizes.tolist()):
        out[i, :, 0] = np.interp(targets[i], cum[i, :size], xs[i, :size])
        out[i, :, 1] = np.interp(targets[i], cum[i, :size], ys[i, :size])
    return out


def resample_polyline(points: Sequence | np.ndarray, n: int, closed: bool = False) -> np.ndarray:
    """Resample a polyline to n points at equal arc-length spacing.

    Open polylines keep both endpoints exactly; closed rings are sampled at
    spacing L/n starting from the first vertex, without a repeated closing
    vertex. Consecutive duplicate input points are tolerated. The length
    must be positive and finite: a polyline with no step whose squared
    length dx**2 + dy**2 is positive as a double has zero length. This is
    resample_polylines on one piece.
    """
    return resample_polylines([points], n, closed)[0]


def polyline_length(points: np.ndarray, closed: bool = False) -> float:
    """Total arc length of a polyline (perimeter when closed)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        return 0.0
    _, cum, _ = _arc_lengths(pts, np.array([len(pts)]), np.array([closed]))
    return float(cum[0, -1])


def apply_rigid_transform(frame: MapFrame, dx: float, dy: float, dyaw: float) -> MapFrame:
    """Rotate every control point by dyaw about the ego origin, then
    translate by (dx, dy). The ego pose is untouched: the map moves
    relative to the robot, not the other way round."""
    if dx == 0.0 and dy == 0.0 and dyaw == 0.0:
        return frame
    c, s = math.cos(dyaw), math.sin(dyaw)
    rot = np.array([[c, -s], [s, c]], dtype=np.float64)
    offset = np.array([dx, dy], dtype=np.float64)
    feats = tuple(f.with_points(f.points @ rot.T + offset) for f in frame.features)
    return frame.with_features(feats)


def pad_feature(n_points: int) -> MapFeature:
    """The no-object padding slot: zero geometry, zero confidence."""
    return MapFeature(
        feature_class=FeatureClass.NO_OBJECT,
        invariance=InvarianceClass.DIRECTED_POLYLINE,
        points=np.zeros((n_points, 2), dtype=np.float64),
        confidence=0.0,
    )


def pad_to_fixed(features: Sequence[MapFeature], dims: ModelDims = DEFAULT_DIMS) -> tuple[MapFeature, ...]:
    """Pad a feature list with no-object slots up to exactly m entries.

    Original order is preserved and pads are appended at the end. Padding
    an already-padded list is an error so pipeline double-padding surfaces
    instead of silently growing.
    """
    feats = tuple(features)
    if any(f.feature_class is FeatureClass.NO_OBJECT for f in feats):
        raise ValueError("input already contains no-object padding")
    if len(feats) > dims.m:
        raise FrameOverflowError(f"frame overflow: {len(feats)} features exceed m={dims.m}")
    pad = pad_feature(dims.n_points)
    return feats + (pad,) * (dims.m - len(feats))


# The FOV square's half-planes in clipping order, as (axis, keep_below):
# x >= lo, x <= hi, y >= lo, y <= hi.
_HALFPLANES = ((0, False), (0, True), (1, False), (1, True))


def _crossing(p: np.ndarray, q: np.ndarray, axis: int, below: bool, bound: float):
    """Test the ends of the segments p -> q against one half-plane.

    Returns (p inside, q inside, crossing mask, crossing points). Crossing
    points get the boundary coordinate assigned exactly, so clipped ends sit
    on the box edge bit-exactly.
    """
    fp = p[:, axis] - bound
    fq = q[:, axis] - bound
    p_in = fp <= 0.0 if below else fp >= 0.0
    q_in = fq <= 0.0 if below else fq >= 0.0
    cut = p_in != q_in
    t = fp[cut] / (fp[cut] - fq[cut])
    cross = p[cut] + t[:, None] * (q[cut] - p[cut])
    cross[:, axis] = bound
    return p_in, q_in, cut, cross


def _clip_polylines(a: np.ndarray, b: np.ndarray, owner: np.ndarray, lo: float, hi: float):
    """Clip the stacked segments a[i] -> b[i] against the box, in place, into
    (owner, piece) pairs, one per run of surviving segments: a piece goes on
    while the next segment of its owner survives and starts where the last
    ended. Pieces of zero length are dropped."""
    if not len(a):
        return []
    alive = np.ones(len(a), dtype=bool)
    for axis, below in _HALFPLANES:
        a_in, b_in, cut, cross = _crossing(a, b, axis, below, hi if below else lo)
        alive &= a_in | b_in
        rows, exits = np.flatnonzero(cut), a_in[cut]
        b[rows[exits]] = cross[exits]
        a[rows[~exits]] = cross[~exits]
    rows = np.flatnonzero(alive)
    a, b, owner = a[rows], b[rows], owner[rows]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (np.diff(rows) != 1) | (np.diff(owner) != 0) | np.any(b[:-1] != a[1:], axis=1)
    first = np.flatnonzero(starts)
    if not len(first):
        return []
    points = np.insert(b, first, a[first], axis=0)
    bounds = first + np.arange(len(first))
    sizes = np.diff(bounds, append=len(points))
    _, cum, _ = _arc_lengths(points, sizes, np.zeros(len(sizes), dtype=bool))
    pieces = zip(owner[first].tolist(), np.split(points, bounds[1:]), cum[:, -1] > 0.0)
    return [(i, piece) for i, piece, positive in pieces if positive]


def _clip_polygon_box(pts: np.ndarray, lo: float, hi: float) -> np.ndarray | None:
    """Sutherland-Hodgman clip of a closed ring against the box; returns an
    open ring (no repeated closing vertex) or None when nothing remains."""
    ring = pts
    for axis, below in _HALFPLANES:
        prev = np.roll(ring, 1, axis=0)
        _, cur_in, cut, cross = _crossing(prev, ring, axis, below, hi if below else lo)
        # Each vertex emits the crossing into it, if any, then itself if inside.
        emitted = np.empty((len(ring), 2, 2))
        emitted[cut, 0] = cross
        emitted[:, 1] = ring
        ring = emitted[np.stack([cut, cur_in], axis=1)]
    # Drop consecutive duplicates, including the wrap-around pair.
    keep = np.ones(len(ring), dtype=bool)
    keep[1:] = np.any(ring[1:] != ring[:-1], axis=1)
    ring = ring[keep]
    if len(ring) > 1 and np.array_equal(ring[0], ring[-1]):
        ring = ring[:-1]
    if len(ring) < 3 or polyline_length(ring, closed=True) <= 0.0:
        return None
    return ring


def group_indices(keys: Iterable) -> dict:
    """The indices of equal keys, by key, in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def resampled_pieces(
    sources: Sequence[MapFeature], pieces: Sequence[np.ndarray], n: int,
    confidence: float | None = None,
) -> list[MapFeature]:
    """Feature i of sources with pieces[i] resampled to n points (as a
    closed ring for a polygon) and with the given confidence, if any: bit
    for bit sources[i].with_points(resample_polyline(...)), in one
    resample_polylines pass. It needs no finite check, since
    resample_polylines refuses non-finite pieces and pieces of infinite
    length: each output point lies between two finite input points."""
    polygon = InvarianceClass.POLYGON
    stack = resample_polylines(pieces, n, [f.invariance is polygon for f in sources])
    stack.flags.writeable = False
    return [
        MapFeature.from_checked(f.feature_class, f.invariance, points,
                                f.confidence if confidence is None else confidence)
        for f, points in zip(sources, stack)
    ]


def resampled_features(features: Sequence[MapFeature], n: int) -> list[MapFeature]:
    """Each feature as MapFeature.resampled(n) gives it, bit for bit: the
    same object when it has n points already, and the others resampled in
    one resampled_pieces pass."""
    redo = [f for f in features if f.n_points != n]
    done = iter(resampled_pieces(redo, [f.points for f in redo], n))
    return [f if f.n_points == n else next(done) for f in features]


def clip_pieces(
    points: np.ndarray, sizes: np.ndarray, polygon: np.ndarray, half: float
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The one field-of-view clip: k features, feature i being the next
    sizes[i] rows of the (N, 2) points array and a polygon where the bool
    polygon[i] is set, intersected with the square [-half, half]^2.

    Returns (source, pieces, cut), the pieces in feature order: piece j is
    cut from feature source[j], and cut[i] tells whether feature i reaches
    outside the square. A feature entirely inside is its own one piece, a
    view of its rows. A crossing polyline is split at the boundary into
    one piece per run inside, and a crossing polygon is clipped as a ring;
    these pieces are exact, not resampled. A feature entirely outside gives
    none.
    """
    lo, hi = -half, half
    k = len(sizes)
    owner = np.repeat(np.arange(k), sizes)
    outside = np.any((points < lo) | (points > hi), axis=1)
    cut = np.bincount(owner[outside], minlength=k) > 0
    ends = np.cumsum(sizes).tolist()
    per_feature = [[points[a:b]] for a, b in zip([0, *ends], ends)]
    for i in np.flatnonzero(cut).tolist():
        ring = _clip_polygon_box(per_feature[i][0], lo, hi) if polygon[i] else None
        per_feature[i] = [] if ring is None else [ring]
    seg = np.flatnonzero((owner[:-1] == owner[1:]) & (cut & ~polygon)[owner[:-1]])
    for i, piece in _clip_polylines(points[seg], points[seg + 1], owner[seg], lo, hi):
        per_feature[i].append(piece)
    source = np.repeat(np.arange(k), list(map(len, per_feature)))
    return source, list(chain.from_iterable(per_feature)), cut


def clip_to_fov(frame: MapFrame) -> MapFrame:
    """Intersect every feature with the frame's field-of-view square, as
    clip_pieces does: features entirely inside pass through untouched,
    each piece of a crossing feature keeps its class, invariance and
    confidence and is resampled to its feature's point count (one
    resampled_pieces pass per point count), and features entirely outside
    are dropped."""
    feats = frame.features
    if not feats:
        return frame
    source, pieces, cut = clip_pieces(
        np.concatenate([f.points for f in feats]), np.array([f.n_points for f in feats]),
        np.array([f.invariance is InvarianceClass.POLYGON for f in feats]), frame.fov_side / 2.0)
    out = [feats[i] for i in source.tolist()]
    crossing = np.flatnonzero(cut[source]).tolist()
    for n, group in group_indices(out[j].n_points for j in crossing).items():
        rows = [crossing[g] for g in group]
        redone = resampled_pieces([out[j] for j in rows], [pieces[j] for j in rows], n)
        for j, feat in zip(rows, redone):
            out[j] = feat
    return frame.with_features(out)


def world_to_ego(points: np.ndarray, pose: Pose2D) -> np.ndarray:
    """Transform world-frame points into the ego frame at the given pose."""
    pts = np.asarray(points, dtype=np.float64)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    shifted = pts - np.array([pose.x, pose.y])
    rot = np.array([[c, s], [-s, c]], dtype=np.float64)
    return shifted @ rot.T

