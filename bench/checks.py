"""Output checks for one benchmark round.

Each check recomputes what a subcommand should have produced from the
method's own definition, from properties the method must have, or from the
generator's record of what it put into the inputs. None compares against a
stored copy of earlier output, and none imports priormap: files are read
as plain JSON so a reader fault cannot hide a compute fault.
"""
from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# Defaults of the CLI, restated here so the checks do not read them back
# from the program under test.
M_SLOTS = 50
CLASS_WEIGHT, POINT_WEIGHT, COSINE_WEIGHT = 2.0, 5.0, 0.02
FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0
PROB_EPS = 1e-8
THRESHOLDS = ("0.5", "1", "1.5")
SCORE_FLOOR = 0.05
BUFFER = 20.0
WINDOW = 30.0
FOV = 90.0
SCORE_CLASSES = ("lane_center", "lane_divider", "road_boundary", "driveway", "no_object")
REL_TOL = 1e-9


def read_frames(path: Path) -> list[dict]:
    frames = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        for feat in rec["features"]:
            feat["points"] = np.asarray(feat["points"], dtype=np.float64)
        frames.append(rec)
    return frames


def read_map(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    feats = [json.loads(line) for line in lines[1:]]
    for feat in feats:
        feat["points"] = np.asarray(feat["points"], dtype=np.float64)
    return feats


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return 0.5 * (float(dist.min(axis=1).mean()) + float(dist.min(axis=0).mean()))


def in_fov(frames: list[dict]) -> bool:
    return all(np.all(np.abs(f["points"]) <= fr["fov_side"] / 2.0)
               for fr in frames for f in fr["features"])


# --- perturb -----------------------------------------------------------


def check_perturb(scenes: Path, out: Path) -> list[str]:
    problems = []
    frames_in, frames_out = read_frames(scenes), read_frames(out)
    if [f["frame_id"] for f in frames_out] != [f["frame_id"] for f in frames_in]:
        problems.append("perturb: frame ids not preserved in order")
    if not in_fov(frames_out):
        problems.append("perturb: a point lies outside the field of view")
    return problems


def check_identical(digests: list[str]) -> list[str]:
    """The digests of every round's perturb output must agree."""
    if len(set(digests)) != 1:
        return [f"perturb: output differs across rounds ({len(set(digests))} versions)"]
    return []


# --- loss --------------------------------------------------------------


def _symmetry_group(invariance: str, n: int) -> np.ndarray:
    ident = np.arange(n)
    if invariance == "directed_polyline":
        return ident[None]
    if invariance == "undirected_polyline":
        return np.stack([ident, ident[::-1]])
    return np.stack([np.roll(ident, -s) for s in range(n)]
                    + [np.roll(ident[::-1], -s) for s in range(n)])


def _padded(frame: dict, n: int) -> tuple[np.ndarray, list[str], list[str], list[float]]:
    feats = frame["features"]
    pts = np.zeros((M_SLOTS, n, 2))
    for k, f in enumerate(feats):
        pts[k] = f["points"]
    pad = M_SLOTS - len(feats)
    return (pts, [f["class"] for f in feats] + ["no_object"] * pad,
            [f["invariance"] for f in feats] + ["directed_polyline"] * pad,
            [f["confidence"] for f in feats] + [0.0] * pad)


def oracle_cost(pred: dict, label: dict) -> np.ndarray:
    """The combined cost matrix from the method's definition: focal cost on
    the label's class score, plus L1 point cost minimised over the label's
    symmetry group and the edge-direction penalty under that permutation,
    both zero on no-object label columns."""
    n = label["features"][0]["points"].shape[0] if label["features"] else 2
    p_pts, p_cls, _, p_conf = _padded(pred, n)
    l_pts, l_cls, l_inv, _ = _padded(label, n)
    scores = np.zeros((M_SLOTS, len(SCORE_CLASSES)))
    for i, (cls, conf) in enumerate(zip(p_cls, p_conf)):
        if cls == "no_object":
            scores[i, -1] = 1.0
        else:
            scores[i, SCORE_CLASSES.index(cls)] = conf
            scores[i, -1] = 1.0 - conf
    cost = np.empty((M_SLOTS, M_SLOTS))
    rows = np.arange(M_SLOTS)
    for j in range(M_SLOTS):
        p = np.clip(scores[:, SCORE_CLASSES.index(l_cls[j])], PROB_EPS, 1.0 - PROB_EPS)
        focal = (FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * -np.log(p)
                 - (1.0 - FOCAL_ALPHA) * p ** FOCAL_GAMMA * -np.log(1.0 - p))
        point = np.zeros(M_SLOTS)
        penalty = np.zeros(M_SLOTS)
        if l_cls[j] != "no_object":
            permuted = p_pts[:, _symmetry_group(l_inv[j], n)]  # (m, P, n, 2)
            l1 = np.abs(permuted - l_pts[j]).sum(axis=(2, 3))  # (m, P)
            best = l1.argmin(axis=1)  # the first minimum wins ties
            chosen = permuted[rows, best]
            point = l1[rows, best]
            pe = np.diff(chosen, axis=1)
            le = np.diff(l_pts[j], axis=0)
            dot = (pe * le).sum(axis=2)
            denom = np.sqrt((pe * pe).sum(axis=2) * (le * le).sum(axis=1))
            with np.errstate(invalid="ignore", divide="ignore"):
                cos = np.where(denom > 0.0, dot / denom, 0.0)
            penalty = (1.0 - cos).mean(axis=1)
        cost[:, j] = CLASS_WEIGHT * focal + POINT_WEIGHT * (point + COSINE_WEIGHT * penalty)
    return cost


def check_loss(preds_path: Path, labels_path: Path, out: Path) -> list[str]:
    problems = []
    report = json.loads(out.read_text(encoding="utf-8"))
    preds = {f["frame_id"]: f for f in read_frames(preds_path)}
    labels = read_frames(labels_path)
    rows = report["per_frame"]
    if [r["frame_id"] for r in rows] != [f["frame_id"] for f in labels]:
        return ["loss: rows do not follow the label frames"]
    for row, label in zip(rows, labels):
        fid = row["frame_id"]
        if sorted(row["assignment"]) != list(range(M_SLOTS)):
            problems.append(f"loss {fid}: assignment is not a permutation")
        blend = CLASS_WEIGHT * row["classification"] + POINT_WEIGHT * (
            row["positional"] + COSINE_WEIGHT * row["cosine"])
        if not close(row["total"], blend):
            problems.append(f"loss {fid}: total {row['total']} != weighted components {blend}")
        if not close(row["total"], math.fsum(row["pair_losses"])):
            problems.append(f"loss {fid}: total is not the sum of its pair losses")
        cost = oracle_cost(preds[fid], label)
        r, c = linear_sum_assignment(cost)
        optimum = float(cost[r, c].sum())
        if not close(row["total"], optimum):
            problems.append(f"loss {fid}: total {row['total']} != assignment optimum {optimum}")
    agg = report["aggregate"]
    if agg["frames"] != len(rows):
        problems.append("loss: aggregate frame count is wrong")
    for key in ("total", "positional", "classification", "cosine"):
        if not close(agg[key], sum(r[key] for r in rows)):
            problems.append(f"loss: aggregate {key} is not the sum of the rows")
    return problems


# --- eval and render ---------------------------------------------------


def greedy_tp(preds: list[dict], gts: list[dict], tau: float, dist: np.ndarray) -> int:
    """Greedy matching in descending confidence: each prediction takes the
    nearest unmatched label, if within tau."""
    taken = np.zeros(len(gts), dtype=bool)
    tp = 0
    for i in sorted(range(len(preds)), key=lambda k: (-preds[k]["confidence"], k)):
        free = np.flatnonzero(~taken)
        if free.size == 0:
            continue
        best = free[np.argmin(dist[i, free])]
        if dist[i, best] <= tau:
            taken[best] = True
            tp += 1
    return tp


def check_eval(pred_path: Path, gt_path: Path, out: Path) -> list[str]:
    problems = []
    report = json.loads(out.read_text(encoding="utf-8"))
    preds = {f["frame_id"]: f for f in read_frames(pred_path)}
    gts = read_frames(gt_path)
    n_gt = sum(len(f["features"]) for f in gts)
    usable = sum(1 for f in preds.values() for p in f["features"]
                 if p["class"] != "no_object" and p["confidence"] >= SCORE_FLOOR)
    expected_tp = dict.fromkeys(THRESHOLDS, 0)
    for gt in gts:
        frame_preds = [p for p in preds[gt["frame_id"]]["features"] if p["confidence"] >= SCORE_FLOOR]
        for cls in SCORE_CLASSES[:-1]:
            cp = [p for p in frame_preds if p["class"] == cls]
            cg = [g for g in gt["features"] if g["class"] == cls]
            dist = np.array([[chamfer(p["points"], g["points"]) for g in cg] for p in cp])
            for tau in THRESHOLDS:
                expected_tp[tau] += greedy_tp(cp, cg, float(tau), dist.reshape(len(cp), len(cg)))
    for tau in THRESHOLDS:
        counts = report["counts"][tau]
        if counts["tp"] + counts["fn"] != n_gt:
            problems.append(f"eval @{tau}: tp + fn = {counts['tp'] + counts['fn']}, labels = {n_gt}")
        if counts["tp"] + counts["fp"] != usable:
            problems.append(f"eval @{tau}: tp + fp = {counts['tp'] + counts['fp']}, "
                            f"usable predictions = {usable}")
        if counts["tp"] != expected_tp[tau]:
            problems.append(f"eval @{tau}: tp = {counts['tp']}, greedy Chamfer matching gives "
                            f"{expected_tp[tau]}")
    return problems


def check_render(pred_path: Path, gt_path: Path, out_dir: Path) -> list[str]:
    problems = []
    preds = {f["frame_id"]: f for f in read_frames(pred_path)}
    gts = read_frames(gt_path)
    svgs = sorted(out_dir.glob("*.svg"))
    if len(svgs) != len(gts):
        problems.append(f"render: {len(svgs)} SVG file(s) for {len(gts)} frame(s)")
    for gt in gts:
        root = ET.parse(out_dir / f"{gt['frame_id']}.svg").getroot()
        shapes = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] in ("polyline", "polygon"))
        expected = len(gt["features"]) + len(preds[gt["frame_id"]]["features"])
        if shapes != expected:
            problems.append(f"render {gt['frame_id']}: {shapes} shape(s), expected {expected}")
    return problems


# --- diff and mine -----------------------------------------------------


def _box(points: np.ndarray) -> tuple[float, float, float, float]:
    lo, hi = points.min(axis=0), points.max(axis=0)
    return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


def _union(a, b):
    return min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])


def check_diff(inputs: Path, out: Path) -> list[str]:
    problems = []
    report = json.loads(out.read_text(encoding="utf-8"))
    record = json.loads((inputs / "record.json").read_text(encoding="utf-8"))
    old, new = read_map(inputs / "old.jsonl"), read_map(inputs / "new.jsonl")
    if sorted(report["added"]) != record["added"]:
        problems.append(f"diff: added {sorted(report['added'])} != generated {record['added']}")
    if sorted(report["removed"]) != record["removed"]:
        problems.append(f"diff: removed {sorted(report['removed'])} != generated {record['removed']}")
    pairs = sorted([m["old_id"], m["new_id"]] for m in report["modified"])
    if pairs != record["modified"]:
        problems.append(f"diff: modified {pairs} != generated {record['modified']}")
    for m in report["modified"]:
        own = chamfer(old[int(m["old_id"])]["points"], new[int(m["new_id"])]["points"])
        if not close(m["chamfer"], own):
            problems.append(f"diff: chamfer {m['chamfer']} of {m['old_id']}->{m['new_id']} != {own}")
    boxes = [_box(old[int(i)]["points"]) for i in record["removed"]]
    boxes += [_box(new[int(j)]["points"]) for j in record["added"]]
    boxes += [_union(_box(old[int(i)]["points"]), _box(new[int(j)]["points"]))
              for i, j in record["modified"]]
    regions = [(r["min_x"], r["min_y"], r["max_x"], r["max_y"]) for r in report["regions"]]
    for b in boxes:
        grown = (b[0] - BUFFER, b[1] - BUFFER, b[2] + BUFFER, b[3] + BUFFER)
        if not any(r[0] <= grown[0] and r[1] <= grown[1] and grown[2] <= r[2] and grown[3] <= r[3]
                   for r in regions):
            problems.append(f"diff: buffered change box {grown} lies in no region")
    return problems


def brute_force_windows(inputs: Path, regions: list[dict]) -> list[dict]:
    """Scan every pose against every region, then cut non-overlapping
    windows anchored at each first hit and drop anchors off either map."""
    poses = [json.loads(line) for line in
             (inputs / "trajectory.jsonl").read_text(encoding="utf-8").splitlines()]
    half = FOV / 2.0
    hits = [any(p["x"] - half <= r["max_x"] and r["min_x"] <= p["x"] + half
                and p["y"] - half <= r["max_y"] and r["min_y"] <= p["y"] + half for r in regions)
            for p in poses]
    extents = []
    for name in ("old.jsonl", "new.jsonl"):
        pts = np.concatenate([f["points"] for f in read_map(inputs / name)])
        extents.append(_box(pts))
    rows = []
    i = k = 0
    while i < len(poses):
        if not hits[i]:
            i += 1
            continue
        t0 = poses[i]["t"]
        members = [j for j in range(i, len(poses)) if poses[j]["t"] <= t0 + WINDOW]
        x, y = poses[i]["x"], poses[i]["y"]
        if all(e[0] <= x <= e[2] and e[1] <= y <= e[3] for e in extents):
            rows.append({"frame_id": f"window_{k:04d}", "anchor_index": i, "t_start": t0,
                         "t_end": t0 + WINDOW, "poses": len(members)})
        k += 1
        i = members[-1] + 1
    return rows


def check_mine(inputs: Path, out: Path) -> list[str]:
    problems = []
    regions = json.loads((out / "diff.json").read_text(encoding="utf-8"))["regions"]
    windows = json.loads((out / "windows.json").read_text(encoding="utf-8"))["windows"]
    expected = brute_force_windows(inputs, regions)
    if windows != expected:
        problems.append(f"mine: {len(windows)} window(s) differ from the brute-force scan's "
                        f"{len(expected)}")
    for name in ("prior.jsonl", "gt.jsonl"):
        frames = read_frames(out / name)
        if [f["frame_id"] for f in frames] != [w["frame_id"] for w in windows]:
            problems.append(f"mine: {name} frames do not follow the windows")
        if not in_fov(frames):
            problems.append(f"mine: a point of {name} lies outside the field of view")
    return problems


def check_outputs(inputs: Path, out: Path, pred: Path, gt: Path) -> list[str]:
    """Every check of one round's outputs; `pred` and `gt` are the files eval
    reads. Returns the problems found."""
    checks = [
        (check_perturb, (inputs / "scenes.jsonl", out / "perturbed.jsonl")),
        (check_loss, (inputs / "pred.jsonl", inputs / "labels.jsonl", out / "loss.json")),
        (check_diff, (inputs, out / "diff.json")),
        (check_mine, (inputs, out)),
        (check_eval, (pred, gt, out / "eval.json")),
        (check_render, (inputs / "render_overlay.jsonl", inputs / "render_scenes.jsonl",
                        out / "svg")),
    ]
    problems = []
    for check, args in checks:
        try:
            problems += check(*args)
        except Exception as exc:  # a missing or malformed output is a failed check
            problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return problems
