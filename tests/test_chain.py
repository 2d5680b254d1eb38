"""The stage chain as a property: what `mine` writes is valid `perturb`
input, and what `perturb` writes is valid `loss` and `eval` input, at the
same ModelDims, for generated road grids, map changes and drives."""
from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_world, line_feature
from priormap import Pose2D, write_map_version, write_trajectory
from priormap.cli import main

_KINDS = {
    "drop_features": {"p": st.floats(0.0, 1.0)},
    "duplicate_features": {"p": st.floats(0.0, 1.0)},
    "wrong_class": {"p": st.floats(0.0, 1.0)},
    "jitter_control_points": {"sigma": st.floats(0.0, 5.0)},
    "shift_features": {"sigma": st.floats(0.0, 200.0)},
    "localization_noise": {"sigma": st.floats(0.0, 50.0), "sigma_yaw_deg": st.floats(0.0, 90.0)},
    "perlin_warp": {"sigma": st.floats(0.0, 20.0)},
}


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    return {"kind": kind, **{k: draw(v) for k, v in _KINDS[kind].items()}}


@st.composite
def _case(draw):
    n_blocks = draw(st.integers(1, 3))
    block = draw(st.floats(30.0, 150.0))
    old = grid_world(n_blocks, block, n_points=draw(st.integers(3, 12)))
    extent = n_blocks * block
    new = []
    for feature in old:
        fate = draw(st.sampled_from(["keep", "keep", "keep", "remove", "move"]))
        if fate == "move":
            offset = draw(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
            feature = feature.with_points(feature.points + np.array(offset))
        if fate != "remove":
            new.append(feature)
    coordinate = st.floats(0.0, extent)
    for _ in range(draw(st.integers(0, 3))):
        x0, x1, y = draw(coordinate), draw(coordinate), draw(coordinate)
        if abs(x1 - x0) > 1.0:
            new.append(line_feature(y=y, x0=x0, x1=x1, n=draw(st.integers(2, 12))))
    # A drive through two to four waypoints around the grid, one pose a second.
    waypoints = draw(st.lists(st.tuples(st.floats(-20.0, extent + 20.0),
                                        st.floats(-20.0, extent + 20.0)), min_size=2, max_size=4))
    speed = draw(st.floats(2.0, 20.0))
    poses, t = [], 0.0
    for (xa, ya), (xb, yb) in zip(waypoints, waypoints[1:]):
        length = math.hypot(xb - xa, yb - ya)
        yaw = math.atan2(yb - ya, xb - xa)
        for k in range(max(1, int(length / speed))):
            f = k * speed / length if length else 0.0
            poses.append((t, Pose2D(xa + f * (xb - xa), ya + f * (yb - ya), yaw)))
            t += 1.0
    dims = ["--n-points", str(draw(st.integers(3, 24))), "--m-max", str(draw(st.integers(1, 60)))]
    mine = ["--fov", repr(draw(st.floats(10.0, 250.0))),
            "--window", repr(draw(st.floats(2.0, 40.0)))]
    recipe = {"master_seed": draw(st.integers(0, 2**32)),
              "mutations": draw(st.lists(_mutation(), max_size=4))}
    return old, new, poses, dims, mine, recipe


def _run(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0, f"{argv[0]} exited {rc}: {err.getvalue()}"


@settings(max_examples=40, deadline=None)
@given(_case())
def test_mine_perturb_loss_eval_never_fails(case):
    old, new, poses, dims, mine, recipe = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_map_version("old", old, d / "old.jsonl")
        write_map_version("new", new, d / "new.jsonl")
        write_trajectory(poses, d / "drive.jsonl")
        (d / "recipe.json").write_text(json.dumps(recipe))
        prior, gt, pred = str(d / "prior.jsonl"), str(d / "gt.jsonl"), str(d / "pred.jsonl")
        _run(["mine", "--old", str(d / "old.jsonl"), "--new", str(d / "new.jsonl"),
              "--trajectory", str(d / "drive.jsonl"), *mine, *dims,
              "--out-prior", prior, "--out-gt", gt])
        # perturb takes --m-max alone: it resamples nothing.
        _run(["perturb", "--scenes", prior, "--recipe", str(d / "recipe.json"), *dims[2:],
              "--out", pred])
        _run(["loss", "--pred", pred, "--labels", gt, *dims, "--out", str(d / "loss.json")])
        _run(["eval", "--pred", pred, "--gt", gt, "--out", str(d / "eval.json")])
