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


def _layer_svg(features, half: float, scale: float, dash: str, width: float) -> str:
    """The SVG elements of one layer, one feature per line, in one
    formatting pass: one transform over the layer's stacked points, one
    tolist, and one '%' over a template of the whole layer ('%.2f' formats
    a double exactly as '{:.2f}' does)."""
    # -y + half is half - y bit for bit, signed zeros included.
    px = (np.concatenate([f.points for f in features]) * _FLIP_Y + half) * scale
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    style = f'stroke-width="{_fmt(width)}"{dash_attr} stroke-linecap="round"/>'
    template = []
    for feature in features:
        tag = "polygon" if feature.invariance is InvarianceClass.POLYGON else "polyline"
        points = " ".join(["%.2f,%.2f"] * feature.n_points)
        color = CLASS_COLORS[feature.feature_class]
        template.append(f'<{tag} points="{points}" fill="none" stroke="{color}" {style}')
    return "\n".join(template) % tuple(px.ravel().tolist())


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
    for k, (name, frame) in enumerate(layers):
        dash = LAYER_DASH.get(name, "")
        width = 2.5 if k == 0 else 1.8
        parts.append(f"<g><!-- {name}: {frame.frame_id} -->")
        if frame.features:
            parts.append(_layer_svg(frame.features, half, scale, dash, width))
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
