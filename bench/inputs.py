"""Seeded synthetic inputs for the benchmark workloads.

Every workload runs the same six-subcommand round over the same file
layout; the workloads differ only in how large each slot's inputs are, so
each one is dominated by different modules. A slot a workload does not
focus on gets the small "companion" size: its subcommand then measures
mostly process start-up and import, and stands as the bypass case for
optimisations outside that workload's layers.

Run as a script this module is the timed set-up step:

    PYTHONPATH=src python3 bench/inputs.py --workload map-change --seed 1 --out DIR

It imports priormap, generates every input from the seed alone and writes
them under DIR, together with ``record.json``: the generator's own account
of the map changes it made, which the output checks compare against.
"""
from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from priormap import (
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    MutationKind,
    MutationSpec,
    PerturbRecipe,
    Pose2D,
    apply_recipe,
    low_all_noise_recipe,
    recipe_to_dict,
    write_map_version,
    write_scenes,
    write_trajectory,
)

FOV = 90.0
N_POINTS = 20
SPACING = 30.0  # road-network block side, meters
SPEED = 10.0  # trajectory speed, m/s
DT = 0.2  # trajectory pose interval, s
STREET_CLASSES = (FeatureClass.LANE_CENTER, FeatureClass.LANE_DIVIDER, FeatureClass.ROAD_BOUNDARY)

#: Slot sizes. "loss": label frames with feature counts spread evenly over
#: [lo, hi], all inside the field of view. "perturb": frames of a fixed
#: feature count reaching to 0.5 m from the field-of-view edge, with the
#: recipe named. "render": clean frames of a fixed feature count and a
#: displaced copy to overlay. "map": road-network grid side in
#: intersections and the number of moved, removed and added segments.
COMPANION = {
    "loss": {"frames": 1, "features": (40, 40)},
    "perturb": {"frames": 2, "features": 6, "warp": False},
    "render": {"frames": 2, "features": 6},
    "map": {"grid": 4, "moved": 1, "removed": 0, "added": 1},
}
FOCUS = {
    "loss-warp-eval": {"loss": {"frames": 4, "features": (4, 48)},
                       "perturb": {"frames": 8, "features": 40, "warp": True},
                       "render": {"frames": 60, "features": 40}},
    "map-change": {"map": {"grid": 11, "moved": 3, "removed": 2, "added": 2}},
}
SMOKE_FOCUS = {
    "loss-warp-eval": {"loss": {"frames": 2, "features": (4, 48)},
                       "perturb": {"frames": 2, "features": 40, "warp": True},
                       "render": {"frames": 2, "features": 40}},
    "map-change": {"map": {"grid": 6, "moved": 1, "removed": 1, "added": 1}},
}
WORKLOADS = tuple(FOCUS)


def slot_sizes(workload: str, smoke: bool = False) -> dict:
    focus = (SMOKE_FOCUS if smoke else FOCUS)[workload]
    return {slot: focus.get(slot, size) for slot, size in COMPANION.items()}


def _polyline(rng: np.random.Generator, half: float) -> np.ndarray:
    start = rng.uniform(-half, half, 2)
    heading = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(rng.normal(0.0, 0.15, N_POINTS - 1))
    steps = rng.uniform(1.0, 3.0, N_POINTS - 1)[:, None]
    deltas = steps * np.column_stack([np.cos(heading), np.sin(heading)])
    pts = np.vstack([start, start + np.cumsum(deltas, axis=0)])
    return np.clip(pts, -half, half)


def _ring(rng: np.random.Generator, half: float) -> np.ndarray:
    cx, cy = rng.uniform(-half + 6.0, half - 6.0, 2)
    radius = rng.uniform(2.0, 5.0)
    ang = np.linspace(0.0, 2.0 * math.pi, N_POINTS, endpoint=False)
    wobble = 1.0 + 0.2 * np.sin(ang * int(rng.integers(1, 4)))
    return np.column_stack([cx + radius * wobble * np.cos(ang), cy + radius * wobble * np.sin(ang)])


def random_frame(rng: np.random.Generator, frame_id: str, n_features: int, margin: float) -> MapFrame:
    """A frame of random smooth polylines and rings kept `margin` meters
    inside the field of view."""
    half = FOV / 2.0 - margin
    feats = []
    for _ in range(n_features):
        cls = REAL_CLASSES[int(rng.integers(len(REAL_CLASSES)))]
        inv = DEFAULT_INVARIANCE[cls]
        pts = _ring(rng, half) if inv is InvarianceClass.POLYGON else _polyline(rng, half)
        feats.append(MapFeature(cls, inv, pts))
    return MapFrame(frame_id, Pose2D(0.0, 0.0, 0.0), FOV, tuple(feats))


def displaced(rng: np.random.Generator, frame: MapFrame) -> MapFrame:
    """A copy of `frame` under a smooth seeded displacement of at most 1 m,
    the overlay that render draws over the clean frame."""
    phase = rng.uniform(0.0, 2.0 * math.pi, 2)
    feats = []
    for feat in frame.features:
        x, y = feat.points[:, 0], feat.points[:, 1]
        shift = np.column_stack([np.sin(y / 7.0 + phase[0]), np.cos(x / 7.0 + phase[1])])
        feats.append(feat.with_points(feat.points + shift / math.sqrt(2.0)))
    return MapFrame(frame.frame_id, frame.ego_pose, frame.fov_side, tuple(feats))


def warp_recipe(master_seed: int) -> PerturbRecipe:
    """The low-noise recipe followed by a 1 m Perlin warp."""
    base = low_all_noise_recipe(master_seed)
    warp = MutationSpec(MutationKind.PERLIN_WARP, sigma=1.0)
    return PerturbRecipe(base.mutations + (warp,), master_seed)


def _segment(a, b, cls: FeatureClass) -> MapFeature:
    t = np.linspace(0.0, 1.0, N_POINTS)[:, None]
    pts = np.asarray(a, dtype=np.float64) * (1.0 - t) + np.asarray(b, dtype=np.float64) * t
    return MapFeature(cls, DEFAULT_INVARIANCE[cls], pts)


def road_network(grid: int) -> tuple[list[MapFeature], dict]:
    """A connected grid of `grid` x `grid` intersections joined by 30 m
    segments, one feature per segment. Each street line carries one of
    three classes, so every class spans the whole grid. Returns the
    features and, per block (bx, by), the index of its bottom and left
    edges."""
    feats: list[MapFeature] = []
    edges: dict[tuple[int, int], dict[str, int]] = {}
    for r in range(grid):
        for c in range(grid - 1):
            edges.setdefault((c, r), {})["bottom"] = len(feats)
            feats.append(_segment((c * SPACING, r * SPACING), ((c + 1) * SPACING, r * SPACING),
                                  STREET_CLASSES[r % 3]))
    for c in range(grid):
        for r in range(grid - 1):
            edges.setdefault((c, r), {})["left"] = len(feats)
            feats.append(_segment((c * SPACING, r * SPACING), (c * SPACING, (r + 1) * SPACING),
                                  STREET_CLASSES[(c + 1) % 3]))
    return feats, edges


def _change_sites(rng: np.random.Generator, grid: int, count: int) -> list[tuple[int, int]]:
    """Distinct blocks on a stride-2 lattice, so every two changes lie at
    least a block apart and none comes within the diff's 10 m match gate of
    another."""
    lattice = [(bx, by) for bx in range(0, grid - 1, 2) for by in range(0, grid - 1, 2)]
    if count > len(lattice):
        raise ValueError(f"a {grid}x{grid} grid has room for {len(lattice)} changes, not {count}")
    return [lattice[k] for k in rng.choice(len(lattice), size=count, replace=False)]


def changed_network(rng: np.random.Generator, size: dict):
    """Old and new versions of a road network plus the generator's record
    of the changes between them, in the id-less diff's terms: features are
    named by their index in their own version."""
    grid = size["grid"]
    old, edges = road_network(grid)
    sites = _change_sites(rng, grid, size["moved"] + size["removed"] + size["added"])
    moved_sites = sites[: size["moved"]]
    removed_sites = sites[size["moved"] : size["moved"] + size["removed"]]
    added_sites = sites[size["moved"] + size["removed"] :]
    replaced: dict[int, MapFeature] = {}
    for bx, by in moved_sites:
        i = edges[(bx, by)]["bottom"]
        offset = float(rng.uniform(1.0, 3.0))  # into the block, well inside the gate
        replaced[i] = old[i].with_points(old[i].points + np.array([0.0, offset]))
    removed = {edges[(bx, by)]["left"] for bx, by in removed_sites}
    new: list[MapFeature] = []
    new_index: dict[int, int] = {}
    for i, feat in enumerate(old):
        if i in removed:
            continue
        new_index[i] = len(new)
        new.append(replaced.get(i, feat))
    added = []
    for bx, by in added_sites:
        y = (by + 0.5) * SPACING  # mid-block street, 15 m from every old segment
        cls = STREET_CLASSES[int(rng.integers(len(STREET_CLASSES)))]
        added.append(len(new))
        new.append(_segment((bx * SPACING + 3.0, y), ((bx + 1) * SPACING - 3.0, y), cls))
    record = {
        "added": sorted(str(j) for j in added),
        "removed": sorted(str(i) for i in removed),
        "modified": sorted([str(i), str(new_index[i])] for i in replaced),
    }
    return old, new, record


def street_trajectory(grid: int) -> list[tuple[float, Pose2D]]:
    """A serpentine drive along every east-west street, joined at the ends
    by north-south segments, sampled every DT seconds at SPEED."""
    side = (grid - 1) * SPACING
    corners = []
    for r in range(grid):
        xs = (0.0, side) if r % 2 == 0 else (side, 0.0)
        corners += [(xs[0], r * SPACING), (xs[1], r * SPACING)]
    poses: list[tuple[float, Pose2D]] = []
    t = 0.0
    step = SPEED * DT
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        yaw = math.atan2(y1 - y0, x1 - x0)
        for k in range(int(round(length / step))):
            f = k * step / length
            poses.append((round(t, 6), Pose2D(x0 + f * (x1 - x0), y0 + f * (y1 - y0), yaw)))
            t += DT
    return poses


def write_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> None:
    sizes = slot_sizes(workload, smoke)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)

    loss = sizes["loss"]
    counts = np.linspace(loss["features"][0], loss["features"][1], loss["frames"]).round().astype(int)
    labels = [random_frame(rng, f"l{k:04d}", int(n), margin=5.0) for k, n in enumerate(counts)]
    noise = low_all_noise_recipe(seed)
    write_scenes(labels, out / "labels.jsonl")
    write_scenes([apply_recipe(f, noise) for f in labels], out / "pred.jsonl")

    pert = sizes["perturb"]
    scenes = [random_frame(rng, f"s{k:04d}", pert["features"], margin=0.5) for k in range(pert["frames"])]
    write_scenes(scenes, out / "scenes.jsonl")
    recipe = warp_recipe(seed) if pert["warp"] else noise
    (out / "recipe.json").write_text(json.dumps(recipe_to_dict(recipe)) + "\n", encoding="utf-8")

    old, new, record = changed_network(rng, sizes["map"])
    write_map_version("v_old", old, out / "old.jsonl")
    write_map_version("v_new", new, out / "new.jsonl")
    write_trajectory(street_trajectory(sizes["map"]["grid"]), out / "trajectory.jsonl")
    (out / "record.json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    rend = sizes["render"]
    clean = [random_frame(rng, f"r{k:04d}", rend["features"], margin=1.0) for k in range(rend["frames"])]
    write_scenes(clean, out / "render_scenes.jsonl")
    write_scenes([displaced(rng, f) for f in clean], out / "render_overlay.jsonl")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, Path(args.out), args.smoke)


if __name__ == "__main__":
    main()
