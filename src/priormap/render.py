"""Static SVG renderings of scene frames.

Hand-rolled SVG output keeps render bytes fully deterministic: fixed
coordinate formatting, fixed element order, no timestamps.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .model import FeatureClass, InvarianceClass, MapFrame

CLASS_COLORS = {
    FeatureClass.LANE_CENTER: "#1f77b4",
    FeatureClass.LANE_DIVIDER: "#ff7f0e",
    FeatureClass.ROAD_BOUNDARY: "#2ca02c",
    FeatureClass.DRIVEWAY: "#9467bd",
    FeatureClass.NO_OBJECT: "#bbbbbb",
}

#: Width and height of every rendering, in pixels.
SIZE_PX = 800

#: stroke-dasharray per overlay layer name; unknown layers render solid.
LAYER_DASH = {"ground_truth": "", "prediction": "6,4", "prior": "2,3"}


#: Multiplier taking ego (x, y) to SVG axes, whose y points down.
_FLIP_Y = np.array([1.0, -1.0])


def _fmt(v: float) -> str:
    return f"{v:.2f}"


#: The two pieces around the points of a feature's element, by class and
#: then by whether the feature is a polygon: the tag up to the points
#: attribute, and the stroke after it.
_PIECES = {
    cls: tuple((f'<{tag} points="', f'" fill="none" stroke="{color}" ')
               for tag in ("polyline", "polygon"))
    for cls, color in CLASS_COLORS.items()
}


def _template_texts(px: np.ndarray, lens: Sequence[int]) -> list[str]:
    """The points attribute of each feature, whose pixel rows are the
    consecutive runs of lens rows of px: '%.2f,%.2f' per row, joined by
    spaces, from one '%' over a template of every feature."""
    template = "\n".join([" ".join(["%.2f,%.2f"] * n) for n in lens])
    return (template % tuple(px.ravel().tolist())).split("\n")


def _points_texts(px: np.ndarray, lens: Sequence[int]) -> list[str]:
    """_template_texts(px, lens), byte for byte, from fixed-point digits.

    Take a value v whose sign bit is clear, below 1000, and whose product
    w = 100 v as computed lies more than spacing(w) from a half-integer.
    w is off the exact product by at most half spacing(w), so k = rint(w)
    is the correctly rounded 100 v that '%.2f' prints; if k is below
    100000, the value has at most three integer digits. Each value is
    written as three integer digits, '.', two decimals and a separator
    (',' after x, ' ' after y, '\n' after a feature's last y) into one
    uint8 row; a mask drops the leading zeros, and one decode and one split
    cut the features apart. Any other value (negative or -0.0, 999.995 or
    more, next to a tie or on one, not finite) sends the whole call to the
    template."""
    v = px.ravel()
    if np.signbit(v).any() or not (v < 1000.0).all():
        return _template_texts(px, lens)
    w = v * 100.0
    k = np.rint(w)
    if not ((k < 100000.0) & (np.abs(w - np.floor(w) - 0.5) > np.spacing(w))).all():
        return _template_texts(px, lens)
    k = k.astype(np.int32)
    whole = k // 100
    cents = k - whole * 100
    tens = whole // 10
    dimes = cents // 10
    buf = np.empty((k.size, 7), dtype=np.uint8)
    buf[:, 0] = tens // 10 + 48  # 48 is '0'
    buf[:, 1] = tens % 10 + 48
    buf[:, 2] = whole - tens * 10 + 48
    buf[:, 3] = ord(".")
    buf[:, 4] = dimes + 48
    buf[:, 5] = cents - dimes * 10 + 48
    buf[0::2, 6] = ord(",")
    buf[1::2, 6] = ord(" ")
    buf[2 * np.cumsum(lens) - 1, 6] = ord("\n")
    keep = np.ones(buf.shape, dtype=bool)
    keep[:, 0] = k >= 10000
    keep[:, 1] = k >= 1000
    return buf[keep].tobytes().decode("ascii")[:-1].split("\n")


def frame_svg(layers: Sequence[tuple[str, MapFrame]]) -> str:
    """Render one or more layers of the same scene into an SVG string.

    Layers are (name, frame) pairs sharing a field of view; the first
    layer's FOV sets the viewport. Ground truth renders solid, predictions
    dashed, priors dotted.
    """
    if not layers:
        raise ValueError("at least one layer is required")
    fov = layers[0][1].fov_side
    half = fov / 2.0
    scale = SIZE_PX / fov
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE_PX}" height="{SIZE_PX}" '
        f'viewBox="0 0 {SIZE_PX} {SIZE_PX}">',
        f'<rect x="0" y="0" width="{SIZE_PX}" height="{SIZE_PX}" fill="#ffffff" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    # The points of every feature of every layer, formatted in one pass.
    features = [f for _, frame in layers for f in frame.features]
    texts = iter(())
    if features:
        # -y + half is half - y bit for bit, signed zeros included.
        px = (np.concatenate([f.points for f in features]) * _FLIP_Y + half) * scale
        texts = iter(_points_texts(px, [len(f.points) for f in features]))
    for k, (name, frame) in enumerate(layers):
        dash = LAYER_DASH.get(name, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        style = f'stroke-width="{_fmt(2.5 if k == 0 else 1.8)}"{dash_attr} stroke-linecap="round"/>'
        parts.append(f"<g><!-- {name}: {frame.frame_id} -->")
        for feature, text in zip(frame.features, texts):
            polygon = feature.invariance is InvarianceClass.POLYGON
            head, stroke = _PIECES[feature.feature_class][polygon]
            parts.append(f"{head}{text}{stroke}{style}")
        parts.append("</g>")
    # Ego marker at the origin.
    cx = cy = SIZE_PX / 2.0
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="#d62728"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_frame_svg(path: str | Path, layers: Sequence[tuple[str, MapFrame]]) -> None:
    Path(path).write_text(frame_svg(layers), encoding="utf-8")
