from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priormap.render as render
from conftest import random_frame
from priormap import FeatureClass, InvarianceClass, MapFeature, MapFrame, Pose2D
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


def _nudged(value: st.SearchStrategy) -> st.SearchStrategy:
    """The value, or the double one ulp below or above it."""
    return st.tuples(value, st.sampled_from([-np.inf, None, np.inf])).map(
        lambda t: t[0] if t[1] is None else float(np.nextafter(t[0], t[1])))


#: Pixel values where fixed-point digits and '%.2f' part ways if the kernel
#: is wrong, each category with its own strategy.
_PIXELS = {
    # the double nearest each .xx5 edge below 1000, and its neighbours
    "edge": _nudged(st.integers(0, 99999).map(lambda n: (n + 0.5) / 100)),
    # exact binary ties: '%.2f' rounds them to even
    "tie": _nudged(st.tuples(st.integers(0, 999), st.sampled_from([0.125, 0.375, 0.625, 0.875]))
                   .map(sum)),
    "zero": st.one_of(st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -1e-9, -0.004, -0.005]),
                      st.floats(-0.01, 0.0)),
    "thousand": st.floats(999.994, 1000.005),
    "huge": st.floats(1e13, 1e300),
    "plain": st.floats(0.0, 999.99),
}


def _draw_pixels(data, min_points: int) -> tuple[np.ndarray, list[int]]:
    """Pixel rows drawn from one to three _PIXELS categories, and the point
    counts of the features whose rows they are, in order."""
    names = data.draw(st.lists(st.sampled_from(sorted(_PIXELS)), min_size=1, max_size=3))
    lens = data.draw(st.lists(st.integers(min_points, 5), min_size=1, max_size=6))
    n = 2 * sum(lens)
    values = st.one_of([_PIXELS[name] for name in names])
    return np.array(data.draw(st.lists(values, min_size=n, max_size=n))).reshape(-1, 2), lens


def _no_template(px, lens):
    raise AssertionError("took the template")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_matches_template_at_rounding_edges(data):
    """_points_texts against _template_texts on pixel values of every
    category, all categories in one call and each value alone."""
    px, lens = _draw_pixels(data, 1)
    assert render._points_texts(px, lens) == render._template_texts(px, lens)
    for v in px.ravel():
        assert render._points_texts(np.array([[v, v]]), [1]) == [f"{v:.2f},{v:.2f}"]


def test_kernel_takes_the_template_only_outside_its_range(monkeypatch):
    monkeypatch.setattr(render, "_template_texts", _no_template)
    # 999.99 is the largest value the kernel prints. 0.005 lies a hair above
    # its edge, but 100 times it rounds onto the tie 0.5: the template prints
    # it, as it does the exact ties 0.125 and 0.375.
    assert render._points_texts(np.array([[0.0, 999.99], [0.0051, 12.0]]), [1, 1]) == [
        "0.00,999.99", "0.01,12.00"]
    for v in (-0.0, -1e-9, 999.995, 0.005, 0.125, 0.375, 1e13, np.inf):
        with pytest.raises(AssertionError, match="took the template"):
            render._points_texts(np.array([[1.0, v]]), [1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fov=st.sampled_from([800.0, 100.0, 25.0, 90.0, 37.5]))
def test_document_bytes_match_oracle_at_rounding_edges(data, fov):
    """frame_svg against old_frame_svg on features whose pixels are drawn
    from _PIXELS. With a power-of-two scale, pixel values in [200, 800]
    come out exactly as drawn."""
    half, scale = fov / 2.0, SIZE_PX / fov
    px, lens = _draw_pixels(data, 2)
    points = np.column_stack([px[:, 0] / scale - half, half - px[:, 1] / scale])
    classes = data.draw(st.lists(st.sampled_from(list(CLASS_COLORS)), min_size=len(lens),
                                 max_size=len(lens)))
    features = [MapFeature(cls, InvarianceClass.UNDIRECTED_POLYLINE, points[end - n:end])
                for n, end, cls in zip(lens, np.cumsum(lens), classes)]
    frame = MapFrame("edges", Pose2D(0.0, 0.0, 0.0), fov, tuple(features))
    layers = [("ground_truth", frame), ("prior", frame.with_features(features[::-1]))]
    assert frame_svg(layers) == old_frame_svg(layers)


@pytest.mark.parametrize("seed", range(8))
def test_in_fov_frames_never_take_the_template(monkeypatch, seed):
    rng = np.random.default_rng(70 + seed)
    fov = float(rng.choice([90.0, 60.0, 37.5, 120.0]))
    layers = [(name, random_frame(rng, f"f{seed}", n_features=int(rng.integers(1, 40)),
                                  n_points=int(rng.integers(2, 30)), fov_side=fov))
              for name in ("ground_truth", "prediction", "prior")]
    want = old_frame_svg(layers)
    monkeypatch.setattr(render, "_template_texts", _no_template)
    assert frame_svg(layers) == want
