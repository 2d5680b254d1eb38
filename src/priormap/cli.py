"""Batch command-line front end.

One binary, six subcommands: perturb scenes with a recipe, score
predictions against labels with the set-matching loss, evaluate Chamfer
mAP, diff two map versions, mine change scenes along a trajectory, and
render scenes to SVG. Every command is a pure function of its inputs plus
configuration and emits records in input order regardless of worker
count. A subcommand writes its outputs and returns its manifest fields;
`main` then writes the run manifest next to its primary output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from . import __version__
from .changes import (
    ChangeReport,
    MapVersion,
    build_scene_pair,
    change_regions,
    diff_maps,
    mine_frames,
)
from .config import read_config
from .evaluation import EvalConfig, evaluate, pair_frames
from .matching import (
    LossWeights,
    label_set_from_frame,
    matched_loss,
    prediction_set_from_frame,
)
from .model import DEFAULT_DIMS, MapFrame, ModelDims
from .perturb import apply_recipe, recipe_from_dict, recipe_to_dict
from .render import write_frame_svg
from .scene_io import (
    SceneFormatError,
    load_json_config,
    read_map_version,
    read_scenes,
    read_trajectory,
    write_scenes,
)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


#: What a subcommand returns for its manifest: the path the manifest goes
#: next to, the config that is hashed, the input files and the master seed.
Run = tuple[Path, dict, list[str], int | None]


def _write_manifest(
    out_path: Path,
    command: str,
    config: dict,
    inputs: Sequence[str],
    master_seed: int | None,
    wall_time_s: float,
) -> None:
    manifest = {
        "command": command,
        "config_hash": _config_hash(config),
        "master_seed": master_seed,
        "input_digests": {str(p): _sha256_file(p) for p in map(Path, inputs)},
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
    }
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Apply fn over items preserving input order; fn must be pure."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: concurrent.futures loads logging, which a run without
    # worker threads need not pay for at start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


@contextmanager
def _naming(where: str) -> Iterator[None]:
    """Prefix a ValueError raised inside the block with where it arose: the
    input file(s) and, for per-frame work, the frame id."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


T = TypeVar("T")


def _load_config(path: str, cls: type[T], where: str) -> T:
    """Read a JSON config file into the config dataclass cls; any error
    names the file once."""
    with _naming(path):
        return read_config(cls, load_json_config(path), where)


def _dims_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-points", type=int, default=DEFAULT_DIMS.n_points,
                        help="control points per feature")
    parser.add_argument("--m-max", type=int, default=DEFAULT_DIMS.m,
                        help="prediction/label slot count")


def _diff_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--modify-tol", type=float, default=0.25,
                        help="Chamfer tolerance below which a matched pair is unchanged")
    parser.add_argument("--max-match-dist", type=float, default=10.0,
                        help="Chamfer gate above which features are add/remove, not modified")
    parser.add_argument("--buffer", type=float, default=20.0, help="region buffer in meters")


def _thresholds(text: str) -> tuple[float, ...]:
    """The --thresholds option: comma-separated numbers; an empty value
    leaves the config's thresholds as they are."""
    if not text:
        return ()
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _polygon_points(text: str) -> int:
    """mine's --n-points option: an integer of at least 3, since every
    cropped feature, a polygon included, is resampled to it."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3 (a polygon needs 3 points), got {n}")
    return n


def _dims_from(args: argparse.Namespace) -> ModelDims:
    return ModelDims(m=args.m_max, n_points=args.n_points)


def _write_svgs(
    out_dir: Path, frames: Sequence[MapFrame], overlay: Sequence[MapFrame] | None
) -> None:
    """One SVG per frame, named by frame id; with an overlay, the overlay
    frame of the same id is drawn over it as the prediction layer."""
    out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {f.frame_id: f for f in overlay or ()}
    if overlay is not None:
        missing = sorted(f.frame_id for f in frames if f.frame_id not in by_id)
        if missing:
            raise ValueError(f"overlay is missing frame(s): {', '.join(missing)}")
    for frame in frames:
        layers = [("ground_truth", frame)]
        if overlay is not None:
            layers.append(("prediction", by_id[frame.frame_id]))
        write_frame_svg(out_dir / f"{frame.frame_id}.svg", layers)


def cmd_perturb(args: argparse.Namespace) -> Run:
    with _naming(args.recipe):
        recipe = recipe_from_dict(load_json_config(args.recipe))
    if args.seed is not None:
        recipe = replace(recipe, master_seed=args.seed)
    dims = _dims_from(args)
    frames = read_scenes(args.scenes)

    def perturb(frame: MapFrame) -> MapFrame:
        with _naming(f"{args.scenes}, frame {frame.frame_id}"):
            return apply_recipe(frame, recipe, dims)

    out_frames = _parallel_map(perturb, frames, args.jobs)
    out_path = Path(args.out)
    write_scenes(out_frames, out_path)
    print(f"perturbed {len(out_frames)} frame(s) -> {out_path}")
    config = {"recipe": recipe_to_dict(recipe), "n_points": dims.n_points, "m_max": dims.m}
    return out_path, config, [args.scenes, args.recipe], recipe.master_seed


_LOSS_TERMS = ("total", "positional", "classification", "cosine")


def cmd_loss(args: argparse.Namespace) -> Run:
    weights = _load_config(args.weights, LossWeights, "weights") if args.weights else LossWeights()
    dims = _dims_from(args)
    preds = read_scenes(args.pred)
    labels = read_scenes(args.labels)
    pairs = pair_frames(preds, labels)

    def score(pair):
        pred_frame, label_frame = pair
        with _naming(f"{args.pred} against {args.labels}, frame {label_frame.frame_id}"):
            loss = matched_loss(
                prediction_set_from_frame(pred_frame, dims),
                label_set_from_frame(label_frame, dims),
                weights,
            )
        return {
            "frame_id": label_frame.frame_id,
            **{term: getattr(loss, term) for term in _LOSS_TERMS},
            "assignment": list(loss.assignment),
            "pair_losses": list(loss.pair_losses),
        }

    rows = _parallel_map(score, pairs, args.jobs)
    aggregate = {"frames": len(rows), **{t: sum(r[t] for r in rows) for t in _LOSS_TERMS}}
    out_path = Path(args.out)
    _write_json(out_path, {"aggregate": aggregate, "per_frame": rows})
    print(f"loss over {len(rows)} frame(s): total={aggregate['total']:.6f} "
          f"positional={aggregate['positional']:.6f}")
    config = {"weights": asdict(weights), "n_points": dims.n_points, "m_max": dims.m}
    return out_path, config, [args.pred, args.labels], None


def _print_eval_table(report) -> None:
    cfg = report.config
    taus = cfg.thresholds
    header = "class".ljust(16) + "".join(f"AP@{t:g}".rjust(10) for t in taus) + "mean".rjust(10)
    print(header)
    for cls in cfg.classes:
        cells = "".join(
            f"{report.ap[cls][t]:.4f}".rjust(10) if report.ap[cls][t] is not None else "-".rjust(10)
            for t in taus
        )
        mean = report.class_mean[cls]
        mean_s = f"{mean:.4f}" if mean is not None else "-"
        print(cls.value.ljust(16) + cells + mean_s.rjust(10))
    map_s = f"{report.mean_ap:.4f}" if report.mean_ap is not None else "-"
    print("mAP".ljust(16) + map_s.rjust(10 * (len(taus) + 1)))


def cmd_eval(args: argparse.Namespace) -> Run:
    config = _load_config(args.config, EvalConfig, "eval config") if args.config else EvalConfig()
    if args.thresholds:
        config = replace(config, thresholds=args.thresholds)
    preds = read_scenes(args.pred)
    gts = read_scenes(args.gt)
    with _naming(f"{args.pred} against {args.gt}"):
        report = evaluate(preds, gts, config)
    out_path = Path(args.out)
    _write_json(out_path, report.to_dict())
    if args.render_dir:
        # evaluate has already paired the frames 1:1 by id.
        _write_svgs(Path(args.render_dir), gts, preds)
    _print_eval_table(report)
    hashed = {**asdict(config), "classes": [c.value for c in config.classes]}
    return out_path, hashed, [args.pred, args.gt], None


def _diff_config(args: argparse.Namespace) -> dict:
    return {"modify_tol": args.modify_tol, "buffer": args.buffer,
            "max_match_dist": args.max_match_dist}


def _diff(args: argparse.Namespace) -> tuple[MapVersion, MapVersion, ChangeReport]:
    """Both map versions and their change report, regions included."""
    old = MapVersion.build(*read_map_version(args.old))
    new = MapVersion.build(*read_map_version(args.new))
    report = diff_maps(old, new, modify_tol=args.modify_tol, max_match_dist=args.max_match_dist)
    return old, new, replace(report, regions=change_regions(report, buffer=args.buffer))


def cmd_diff(args: argparse.Namespace) -> Run:
    old, new, report = _diff(args)
    out_path = Path(args.out)
    _write_json(out_path, report.to_dict())
    print(
        f"diff {old.version_id} -> {new.version_id}: "
        f"{len(report.added)} added, {len(report.removed)} removed, "
        f"{len(report.modified)} modified, {len(report.regions)} region(s)"
    )
    return out_path, _diff_config(args), [args.old, args.new], None


def cmd_mine(args: argparse.Namespace) -> Run:
    trajectory = read_trajectory(args.trajectory)
    old, new, report = _diff(args)
    windows = mine_frames(trajectory, report.regions, fov_side=args.fov, window=args.window)
    priors = []
    gts = []
    window_rows = []
    skipped = 0
    for k, win in enumerate(windows):
        _, pose = trajectory[win.anchor_index]
        # An FOV can touch a change region from just off the map; such
        # anchors have no usable crop, so the window is dropped.
        if not (old.extent.contains_point(pose.x, pose.y)
                and new.extent.contains_point(pose.x, pose.y)):
            skipped += 1
            continue
        frame_id = f"window_{k:04d}"
        with _naming(f"{args.old} to {args.new}, frame {frame_id}"):
            pair = build_scene_pair(
                old, new, pose, fov_side=args.fov, n_points=args.n_points, frame_id=frame_id
            )
        priors.append(pair.prior)
        gts.append(pair.ground_truth)
        window_rows.append(
            {
                "frame_id": pair.frame_id,
                "anchor_index": win.anchor_index,
                "t_start": win.t_start,
                "t_end": win.t_end,
                "poses": len(win.pose_indices),
            }
        )
    write_scenes(priors, args.out_prior)
    write_scenes(gts, args.out_gt)
    if args.report:
        _write_json(Path(args.report), {"windows": window_rows})
    note = f" ({skipped} off-map window(s) skipped)" if skipped else ""
    print(f"mined {len(priors)} window(s) -> {args.out_prior}, {args.out_gt}{note}")
    config = {**_diff_config(args), "fov": args.fov, "window": args.window,
              "n_points": args.n_points}
    return Path(args.out_prior), config, [args.old, args.new, args.trajectory], None


def cmd_render(args: argparse.Namespace) -> Run:
    frames = read_scenes(args.scenes)
    overlay = read_scenes(args.overlay) if args.overlay else None
    out_dir = Path(args.out_dir)
    _write_svgs(out_dir, frames, overlay)
    print(f"rendered {len(frames)} frame(s) -> {out_dir}")
    inputs = [args.scenes] + ([args.overlay] if args.overlay else [])
    return out_dir / "render", {"overlay": bool(args.overlay)}, inputs, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priormap",
        description="Vectorized map prior toolkit: perturb, score, evaluate, diff, mine, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", help="apply a mutation recipe to every frame")
    p.add_argument("--scenes", required=True, help="input scene file")
    p.add_argument("--recipe", required=True, help="mutation recipe JSON")
    p.add_argument("--out", required=True, help="output scene file")
    p.add_argument("--seed", type=int, default=None, help="override the recipe master seed")
    p.add_argument("--jobs", type=int, default=1, help="worker threads over frames")
    _dims_args(p)
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("loss", help="set-matching loss of predictions against labels")
    p.add_argument("--pred", required=True, help="prediction scene file")
    p.add_argument("--labels", required=True, help="label scene file")
    p.add_argument("--weights", default=None, help="loss weights JSON")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--jobs", type=int, default=1, help="worker threads over frames")
    _dims_args(p)
    p.set_defaults(fn=cmd_loss)

    p = sub.add_parser("eval", help="Chamfer-distance mAP of predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction scene file")
    p.add_argument("--gt", required=True, help="ground truth scene file")
    p.add_argument("--config", default=None, help="eval config JSON")
    p.add_argument("--thresholds", type=_thresholds, default=None,
                   help="comma-separated Chamfer thresholds in meters")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--render-dir", default=None, help="emit per-frame SVG overlays here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diff", help="diff two map versions into a change report")
    p.add_argument("--old", required=True, help="old map version file")
    p.add_argument("--new", required=True, help="new map version file")
    _diff_args(p)
    p.add_argument("--out", required=True, help="output change report JSON")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("mine", help="mine change-intersecting windows into scene pairs")
    p.add_argument("--old", required=True, help="old map version file")
    p.add_argument("--new", required=True, help="new map version file")
    p.add_argument("--trajectory", required=True, help="timestamped pose file")
    _diff_args(p)
    p.add_argument("--fov", type=float, default=90.0, help="field-of-view side in meters")
    p.add_argument("--window", type=float, default=30.0, help="window duration in seconds")
    p.add_argument("--n-points", type=_polygon_points, default=DEFAULT_DIMS.n_points,
                   help="control points per feature, at least 3")
    p.add_argument("--out-prior", required=True, help="output prior scene file")
    p.add_argument("--out-gt", required=True, help="output ground-truth scene file")
    p.add_argument("--report", default=None, help="optional windows report JSON")
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("render", help="render scenes (optionally overlaid) to SVG")
    p.add_argument("--scenes", required=True, help="input scene file")
    p.add_argument("--overlay", default=None, help="second scene file drawn dashed")
    p.add_argument("--out-dir", required=True, help="output directory for the SVG files")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, then write its manifest next to its primary output."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        out_path, config, inputs, master_seed = args.fn(args)
        _write_manifest(out_path, args.command, config, inputs, master_seed,
                        time.time() - started)
    except (SceneFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
