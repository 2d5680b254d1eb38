from __future__ import annotations

import re

import numpy as np

from conftest import random_frame
from priormap import FeatureClass, InvarianceClass, MapFeature
from priormap.render import frame_svg, write_frame_svg


def test_svg_contains_all_features():
    frame = random_frame(np.random.default_rng(0), n_features=5)
    svg = frame_svg([("ground_truth", frame)])
    assert svg.startswith("<svg")
    assert svg.count("<polyline") + svg.count("<polygon") == 5


def test_overlay_layers_styled():
    frame = random_frame(np.random.default_rng(1), n_features=2)
    svg = frame_svg([("ground_truth", frame), ("prediction", frame)])
    assert 'stroke-dasharray="6,4"' in svg


def test_bytes_deterministic(tmp_path):
    frame = random_frame(np.random.default_rng(2), n_features=4)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_frame_svg(a, [("ground_truth", frame)])
    write_frame_svg(b, [("ground_truth", frame)])
    assert a.read_bytes() == b.read_bytes()


def old_points_attr(feature, fov: float) -> str:
    """The per-point pixel formatter frame_svg used before it formatted
    whole coordinate arrays; kept as the byte oracle."""
    scale = 800 / fov

    def to_px(p):
        return ((p[0] + fov / 2.0) * scale, (fov / 2.0 - p[1]) * scale)

    return " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in feature.points))


def test_points_bytes_match_per_point_oracle():
    rng = np.random.default_rng(3)
    fov = 90.0
    half, scale = fov / 2.0, 800 / fov
    # Pixel values that sit on or next to a .005 rounding edge, on both
    # sides of zero, plus tiny and huge magnitudes.
    px = np.array([0.005, -0.005, 0.015, 0.125, -0.125, 12.345, 799.995, -0.0001,
                   1e-300, -1e-300, 1e-9, 3e15, -7e17, 0.0])
    px = np.concatenate([px, np.nextafter(px, np.inf), np.nextafter(px, -np.inf)])
    xs = px / scale - half
    ys = half - px[::-1] / scale
    edge = MapFeature(
        FeatureClass.LANE_DIVIDER, InvarianceClass.UNDIRECTED_POLYLINE, np.column_stack([xs, ys])
    )
    frame = random_frame(rng, n_features=6, fov_side=fov)
    frame = frame.with_features([edge, *frame.features])
    overlay = frame.with_features([f.with_points(f.points * 1.37 - 0.01) for f in frame.features])
    svg = frame_svg([("ground_truth", frame), ("prediction", overlay)])
    got = re.findall(r'points="([^"]*)"', svg)
    want = [old_points_attr(f, fov) for f in (*frame.features, *overlay.features)]
    assert got == want
    assert "-0.00," in got[0]
