from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import random_frame
from priormap import FeatureClass, InvarianceClass, MapFeature
from priormap.render import CLASS_COLORS, LAYER_DASH, SIZE_PX, frame_svg, write_frame_svg


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


def _old_feature_element(feature, half: float, scale: float, dash: str, width: float) -> str:
    px = (feature.points * np.array([1.0, -1.0]) + half) * scale
    pts = " ".join(["{:.2f},{:.2f}"] * len(px)).format(*px.ravel().tolist())
    color = CLASS_COLORS[feature.feature_class]
    tag = "polygon" if feature.invariance is InvarianceClass.POLYGON else "polyline"
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<{tag} points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width:.2f}"{dash_attr} stroke-linecap="round"/>'
    )


def old_frame_svg(layers) -> str:
    """frame_svg as it was when it formatted one feature at a time with
    str.format; kept as the byte oracle for whole documents."""
    fov = layers[0][1].fov_side
    half = fov / 2.0
    scale = SIZE_PX / fov
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE_PX}" height="{SIZE_PX}" '
        f'viewBox="0 0 {SIZE_PX} {SIZE_PX}">',
        f'<rect x="0" y="0" width="{SIZE_PX}" height="{SIZE_PX}" fill="#ffffff" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    for k, (name, frame) in enumerate(layers):
        dash = LAYER_DASH.get(name, "")
        width = 2.5 if k == 0 else 1.8
        parts.append(f"<g><!-- {name}: {frame.frame_id} -->")
        for feat in frame.features:
            parts.append(_old_feature_element(feat, half, scale, dash, width))
        parts.append("</g>")
    parts.append(f'<circle cx="{SIZE_PX / 2.0:.2f}" cy="{SIZE_PX / 2.0:.2f}" r="4" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_document_bytes_match_per_feature_oracle(seed):
    rng = np.random.default_rng(40 + seed)
    fov = float(rng.choice([90.0, 60.0, 37.5]))
    half = fov / 2.0
    # Points a hair outside the top-left corner give pixels that print as -0.00.
    edge = MapFeature(FeatureClass.ROAD_BOUNDARY, InvarianceClass.UNDIRECTED_POLYLINE,
                      [[-half - 1e-5, half + 1e-5], [-half, half], [0.0, 0.0]])
    layers = []
    for name in rng.permutation(["ground_truth", "prediction", "prior", "other"]).tolist():
        frame = random_frame(rng, f"frame_{seed}", n_features=int(rng.integers(4, 9)),
                             n_points=int(rng.integers(3, 25)), fov_side=fov)
        features = [f.with_points(f.points * rng.uniform(0.5, 1.5)) for f in frame.features]
        features.insert(int(rng.integers(len(features) + 1)), edge)
        layers.append((name, frame.with_features(features)))
    layers.insert(int(rng.integers(1, 5)), ("prior", layers[0][1].with_features([])))
    svg = frame_svg(layers)
    assert svg == old_frame_svg(layers)
    for shown in ("<polygon", 'stroke-dasharray="6,4"', 'stroke-dasharray="2,3"', "-0.00,",
                  "-->\n</g>"):
        assert shown in svg
