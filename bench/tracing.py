"""Traced run: per-layer time and counts from outside the program.

The six subcommands of a round run in-process through `priormap.cli.main`.
Before a traced round, the public functions each layer exposes are
replaced, at the module attribute the caller looks them up through, by
wrappers that record a span (name, start, end, parent) or bump a counter.
Spans stay in memory and are written to .bench_runs/traces/ at the end.

Every `<layer>.<function>_s` metric is the inclusive time of that
function's spans in one round; a layer's self time, printed per layer, is
its spans' time minus the time of their child spans. `cli.self_s` is the
self time of the `main` spans. Time metrics are medians over the traced
rounds; counts are the same in every round. Untraced in-process rounds
alternate with the traced ones, and the ratio of their medians is the
tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import run

TIMED = (
    "scene_io.read_scenes", "scene_io.write_scenes", "scene_io.read_map_version",
    "scene_io.read_trajectory", "perturb.apply_recipe", "perturb.drop_features",
    "perturb.duplicate_features", "perturb.corrupt_class", "perturb.jitter_control_points",
    "perturb.shift_features", "perturb.localization_noise", "perturb.perlin_warp",
    "perlin.field_build", "perlin.field_sample", "rng.philox_stream", "model.clip_to_fov",
    "matching.set_build", "matching.cost_matrix", "matching.assign",
    "evaluation.evaluate", "evaluation.match_predictions", "evaluation.average_precision",
    "changes.diff_maps", "changes.change_regions", "changes.mine_frames",
    "changes.build_scene_pair", "render.write_frame_svg",
)
COUNTED = {
    "scene_io.frames_read": "count", "scene_io.frames_written": "count",
    "perturb.frames": "count", "perlin.fields": "count", "perlin.points_sampled": "count",
    "rng.streams": "count", "model.clip_features_in": "count", "model.clip_features_out": "count",
    "model.resample_polyline_calls": "count", "matching.frames": "count",
    "matching.lsa_calls": "count", "matching.tensor_mb": "MB",
    "evaluation.chamfer_calls": "count", "evaluation.chamfer_pairs": "count",
    "changes.chamfer_calls": "count", "changes.chamfer_within_gate": "count",
    "changes.assign_cells": "count", "changes.largest_assignment": "count",
    "changes.regions": "count", "changes.windows": "count", "changes.pairs": "count",
    "render.files": "count", "render.bytes_written": "bytes",
}
RATIOS = {
    "evaluation.chamfer_calls_per_pair": ("evaluation.chamfer_calls", "evaluation.chamfer_pairs"),
    "changes.chamfer_within_gate_share": ("changes.chamfer_within_gate", "changes.chamfer_calls"),
    "matching.lsa_calls_per_frame": ("matching.lsa_calls", "matching.frames"),
}
LAYERS = ("scene_io", "perturb", "perlin", "rng", "model", "matching", "evaluation",
          "changes", "render", "cli")
UNITS = {**{f"{name}_s": "s" for name in TIMED}, "cli.self_s": "s", **COUNTED,
         **dict.fromkeys(RATIOS, "ratio")}


class Tracer:
    """Spans and counters of one round."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.eval_pairs: set[tuple[int, int]] = set()
        self.gate = 0.0

    def timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result

        return wrapper

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)


def _tensor_mb(pred, labels) -> float:
    """Bytes of the largest (permutations, m, m, n, 2) float64 L1 tensor the
    cost-matrix build implies, computed from the input shapes: the polygon
    group has 2n permutations."""
    m, n = pred.points.shape[0], pred.points.shape[1]
    return 2 * n * m * labels.m * n * 2 * 8 / 1e6


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace the traced module attributes; returns what to restore."""
    import priormap.changes as changes
    import priormap.cli as cli
    import priormap.evaluation as evaluation
    import priormap.matching as matching
    import priormap.model as model
    import priormap.perlin as perlin
    import priormap.perturb as perturb
    import priormap.rng as rng

    c = tracer.counts
    saved: list[tuple[object, str, object]] = []

    def patch(module, attr: str, wrapper) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def timed(module, attr: str, name: str, after=None) -> None:
        patch(module, attr, tracer.timed(name, getattr(module, attr), after))

    def counted(module, attr: str, after) -> None:
        patch(module, attr, tracer.counted(getattr(module, attr), after))

    def bump(name: str, amount=lambda *a, **k: 1):
        def after(*args, **kwargs):
            c[name] += amount(*args, **kwargs)
        return after

    # scene_io, as the CLI calls it
    timed(cli, "read_scenes", "scene_io.read_scenes", bump("scene_io.frames_read", lambda r, *a: len(r)))
    timed(cli, "write_scenes", "scene_io.write_scenes",
          bump("scene_io.frames_written", lambda r, frames, *a: len(frames)))
    timed(cli, "read_map_version", "scene_io.read_map_version")
    timed(cli, "read_trajectory", "scene_io.read_trajectory")

    # perturb, each mutation as apply_recipe dispatches to it
    timed(cli, "apply_recipe", "perturb.apply_recipe", bump("perturb.frames"))
    for name in ("drop_features", "duplicate_features", "corrupt_class", "jitter_control_points",
                 "shift_features", "localization_noise", "perlin_warp"):
        timed(perturb, name, f"perturb.{name}")

    # perlin
    base = perturb.WarpField

    class TracedWarpField(base):
        __init__ = tracer.timed("perlin.field_build", base.__init__, bump("perlin.fields"))
        __call__ = tracer.timed("perlin.field_sample", base.__call__,
                                bump("perlin.points_sampled", lambda r, self, pts: len(pts)))

    patch(perturb, "WarpField", TracedWarpField)

    # rng
    for module in (rng, perlin):
        timed(module, "philox_stream", "rng.philox_stream", bump("rng.streams"))

    # model
    def clipped(result, frame):
        c["model.clip_features_in"] += len(frame.features)
        c["model.clip_features_out"] += len(result.features)

    for module in (perturb, changes):
        timed(module, "clip_to_fov", "model.clip_to_fov", clipped)
    for module in (model, matching, evaluation, changes):
        counted(module, "resample_polyline", bump("model.resample_polyline_calls"))

    # matching
    for attr in ("label_set_from_frame", "prediction_set_from_frame"):
        timed(cli, attr, "matching.set_build")
    timed(cli, "matched_loss", "matching.matched_loss", bump("matching.frames"))
    timed(matching, "combined_cost_matrix", "matching.cost_matrix",
          lambda r, pred, labels, *a, **k: tracer.peak("matching.tensor_mb", _tensor_mb(pred, labels)))
    timed(matching, "hungarian_assign", "matching.assign")
    counted(matching, "linear_sum_assignment", bump("matching.lsa_calls"))

    # evaluation
    def eval_done(*args, **kwargs):
        c["evaluation.chamfer_pairs"] += len(tracer.eval_pairs)
        tracer.eval_pairs.clear()

    def eval_pair(result, a, b):
        c["evaluation.chamfer_calls"] += 1
        tracer.eval_pairs.add((id(a), id(b)))

    timed(cli, "evaluate", "evaluation.evaluate", eval_done)
    timed(evaluation, "match_predictions", "evaluation.match_predictions")
    timed(evaluation, "average_precision", "evaluation.average_precision")
    counted(evaluation, "chamfer_distance", eval_pair)

    # changes
    def diff_start(fn):
        def wrapper(old, new, *args, **kwargs):
            tracer.gate = kwargs.get("max_match_dist", 10.0)
            return fn(old, new, *args, **kwargs)
        return wrapper

    def gated(result, a, b):
        c["changes.chamfer_calls"] += 1
        c["changes.chamfer_within_gate"] += result <= tracer.gate

    def assigned(result, cost):
        cells = cost.shape[0] * cost.shape[1]
        c["changes.assign_cells"] += cells
        tracer.peak("changes.largest_assignment", cells)

    patch(cli, "diff_maps", tracer.timed("changes.diff_maps", diff_start(cli.diff_maps)))
    counted(changes, "chamfer_distance", gated)
    counted(changes, "linear_sum_assignment", assigned)
    timed(cli, "change_regions", "changes.change_regions", bump("changes.regions", lambda r, *a, **k: len(r)))
    timed(cli, "mine_frames", "changes.mine_frames", bump("changes.windows", lambda r, *a, **k: len(r)))
    timed(cli, "build_scene_pair", "changes.build_scene_pair", bump("changes.pairs"))

    # render
    timed(cli, "write_frame_svg", "render.write_frame_svg",
          lambda r, path, *a, **k: c.update({"render.files": 1,
                                             "render.bytes_written": os.path.getsize(path)}))
    return saved


def restore(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def in_process_round(workload: str, inputs: Path, out: Path, tracer: Tracer | None):
    """One round through priormap.cli.main; returns (seconds, exit codes)."""
    import priormap.cli as cli

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    saved = install(tracer) if tracer is not None else []
    main = tracer.timed("cli.main", cli.main) if tracer is not None else cli.main
    codes = []
    try:
        start = time.perf_counter()
        for _, args in run.round_commands(workload, inputs, out):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(args))
        elapsed = time.perf_counter() - start
    finally:
        restore(saved)
    return elapsed, codes


def round_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """The round's per-layer metrics and per-layer self times."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for k, (name, start, end, _) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name.split(".")[0]] += end - start - child_time[k]
    metrics = {f"{name}_s": inclusive[name] for name in TIMED}
    metrics["cli.self_s"] = self_time["cli"]
    counts = Counter(tracer.counts)
    counts.update(tracer.peaks)
    for name in COUNTED:
        metrics[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    return metrics, {layer: self_time[layer] for layer in LAYERS}


def traced_run(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    from checks import check_identical, check_outputs

    started = time.perf_counter()
    work = run.RUNS / f"{workload}-seed{seed}-pid{os.getpid()}-trace"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = run.set_up(workload, seed, work, smoke, 1)[0]
        out = work / "out"
        if not smoke:
            in_process_round(workload, inputs, work / "warmup", None)
        plain, traced, codes, digests = [], [], [], []
        tracers: list[Tracer] = []
        problems = None
        while True:
            elapsed, c = in_process_round(workload, inputs, out, None)
            plain.append(elapsed)
            codes += c
            digests.append(run.perturbed_digest(out))
            tracer = Tracer()
            elapsed, c = in_process_round(workload, inputs, out, tracer)
            traced.append(elapsed)
            codes += c
            digests.append(run.perturbed_digest(out))
            tracers.append(tracer)
            if problems is None:
                problems = check_outputs(inputs, out, *run.eval_pair(workload, inputs, out))
            spent = time.perf_counter() - started
            per_pair = statistics.fmean(p + t for p, t in zip(plain, traced))
            if smoke or spent + per_pair > seconds:
                break
        problems += check_identical(digests)
        failed = sum(1 for code in codes if code != 0)
        if failed:
            problems.insert(0, f"{failed} in-process subcommand run(s) failed")
        per_round = [round_metrics(t) for t in tracers]
        metrics = {name: statistics.median(m[name] for m, _ in per_round) for name in per_round[0][0]}
        self_times = {layer: statistics.median(s[layer] for _, s in per_round) for layer in LAYERS}
        trace_dir = run.RUNS / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload, "seed": seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "rounds": [{"spans": t.spans, "counts": dict(t.counts), "peaks": t.peaks} for t in tracers],
        }) + "\n", encoding="utf-8")
        print_layers(workload, metrics, self_times, statistics.median(traced),
                     statistics.median(plain), trace_path)
        return {"workload": workload, "seed": seed, "rounds": len(plain) + len(traced),
                "attempted": len(codes), "failed": failed, "problems": problems,
                "metrics": metrics, "units": UNITS}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_layers(workload, metrics, self_times, traced_s, plain_s, trace_path) -> None:
    print(f"trace {workload}: spans written to {trace_path}")
    print(f"  {'layer':<11}{'self s':>10}  counts")
    for layer in LAYERS:
        counts = ", ".join(f"{k.split('.', 1)[1]}={metrics[k]:g}" for k in COUNTED if k.startswith(layer + "."))
        if layer == "matching":
            counts += " (tensor_mb computed from the input shapes, not measured)"
        print(f"  {layer:<11}{self_times[layer]:10.4f}  {counts}")
    for name, (num, den) in RATIOS.items():
        print(f"  {name} = {metrics[num]:g} / {metrics[den]:g} = {metrics[name]:.4g}")
    print(f"  tracing overhead: traced round {traced_s:.4f} s vs untraced {plain_s:.4f} s "
          f"({(traced_s / plain_s - 1.0) * 100:+.1f}%)")
