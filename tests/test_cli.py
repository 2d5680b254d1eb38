from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import priormap
from conftest import grid_world, line_feature, random_frame
from priormap import (
    DegenerateFeatureError,
    LossWeights,
    MapFrame,
    ModelDims,
    Pose2D,
    combined_cost_matrix,
    hungarian_assign,
    label_set_from_frame,
    prediction_set_from_frame,
    recipe_to_dict,
    low_all_noise_recipe,
    write_map_version,
    write_scenes,
    write_trajectory,
)
from priormap.cli import build_parser, main
from priormap.scene_io import frame_to_record


@pytest.fixture
def scene_file(tmp_path):
    rng = np.random.default_rng(21)
    frames = [random_frame(rng, f"frame_{i}", n_features=5) for i in range(4)]
    path = tmp_path / "scenes.jsonl"
    write_scenes(frames, path)
    return path, frames


@pytest.fixture
def recipe_file(tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe_to_dict(low_all_noise_recipe(123))))
    return path


class TestPerturbCommand:
    def test_empty_input_succeeds(self, tmp_path, recipe_file):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe_file),
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert (tmp_path / "out.jsonl.manifest.json").exists()

    def test_repeat_runs_byte_identical(self, tmp_path, scene_file, recipe_file):
        src, _ = scene_file
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe_file),
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, scene_file, recipe_file):
        # Threads share nothing random: every worker resets its own stream,
        # and the Perlin warp draws its tables from one as well.
        src, _ = scene_file
        warp = tmp_path / "warp.json"
        raw = json.loads(recipe_file.read_text())
        raw["mutations"].append({"kind": "perlin_warp", "sigma": 1.0})
        warp.write_text(json.dumps(raw))
        for recipe in (recipe_file, warp):
            outs = []
            for jobs in ("1", "2", "8"):
                out = tmp_path / f"{recipe.stem}-j{jobs}.jsonl"
                assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                             "--out", str(out), "--jobs", jobs]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2]
        assert outs[0] != (tmp_path / "recipe-j1.jsonl").read_bytes()

    def test_warp_output_matches_pinned_digest(self, tmp_path):
        # A pinned sha256 of what perturb writes for two warps over a
        # duplicated, jittered frame: any change to those bytes shows here.
        rng = np.random.default_rng(2024)
        frames = [random_frame(rng, f"frame_{i}", n_features=7) for i in range(5)]
        src, recipe = tmp_path / "scenes.jsonl", tmp_path / "recipe.json"
        write_scenes(frames, src)
        recipe.write_text(json.dumps({"master_seed": 11, "mutations": [
            {"kind": "duplicate_features", "p": 0.3},
            {"kind": "jitter_control_points", "sigma": 0.2},
            {"kind": "perlin_warp", "sigma": 1.5},
            {"kind": "perlin_warp", "sigma": 0.8,
             "perlin": {"grid_scale": 7.5, "octaves": 3, "persistence": 0.5, "lacunarity": 2.5}},
        ]}))
        for jobs in ("1", "3"):
            out = tmp_path / f"out{jobs}.jsonl"
            assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                         "--out", str(out), "--jobs", jobs]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "c59a61f3c9382106771f4926cd6086d4b629268d5f39fbd1d56c08aab253cc4d")

    def test_seed_override_changes_output(self, tmp_path, scene_file, recipe_file):
        src, _ = scene_file
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe_file),
                     "--out", str(out1)]) == 0
        assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe_file),
                     "--out", str(out2), "--seed", "999"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_corrupt_record_names_line(self, tmp_path, recipe_file, capsys):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, f"frame_{i}", n_features=2) for i in range(10)]
        bad = tmp_path / "bad.jsonl"
        write_scenes(frames, bad)
        lines = bad.read_text().splitlines()
        lines[6] = "{broken"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        rc = main(["perturb", "--scenes", str(bad), "--recipe", str(recipe_file),
                   "--out", str(out)])
        assert rc != 0
        assert "line 7" in capsys.readouterr().err

    def test_manifest_contents(self, tmp_path, scene_file, recipe_file):
        src, _ = scene_file
        out = tmp_path / "out.jsonl"
        main(["perturb", "--scenes", str(src), "--recipe", str(recipe_file),
              "--out", str(out)])
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["command"] == "perturb"
        assert manifest["master_seed"] == 123
        assert str(src) in manifest["input_digests"]
        assert manifest["tool_version"]


class TestLossCommand:
    def test_self_loss_positional_zero(self, tmp_path, scene_file):
        src, _ = scene_file
        out = tmp_path / "loss.json"
        assert main(["loss", "--pred", str(src), "--labels", str(src),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["positional"] == 0.0
        assert report["aggregate"]["frames"] == 4

    def test_fixture_matches_module_value(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = MapFrame("f0", Pose2D(0, 0, 0), 90.0,
                          (line_feature(y=-10.0), line_feature(y=10.0)))
        noisy = labels.with_features(
            [f.with_points(f.points + rng.normal(0, 0.3, f.points.shape))
             for f in labels.features]
        )
        pred_path, label_path = tmp_path / "pred.jsonl", tmp_path / "labels.jsonl"
        write_scenes([noisy], pred_path)
        write_scenes([labels], label_path)
        out = tmp_path / "loss.json"
        assert main(["loss", "--pred", str(pred_path), "--labels", str(label_path),
                     "--out", str(out), "--m-max", "4"]) == 0
        report = json.loads(out.read_text())
        dims = ModelDims(m=4, n_points=20)
        matrices = combined_cost_matrix(
            prediction_set_from_frame(noisy, dims),
            label_set_from_frame(labels, dims),
            LossWeights(),
        )
        want = hungarian_assign(matrices.combined)
        assert report["per_frame"][0]["total"] == want.total_loss
        assert report["per_frame"][0]["assignment"] == list(want.assignment)

    def test_rerun_identical_bytes(self, tmp_path, scene_file):
        src, _ = scene_file
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["loss", "--pred", str(src), "--labels", str(src),
                         "--out", str(out), "--m-max", "10", "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_label_file_fails(self, tmp_path, scene_file, capsys):
        src, _ = scene_file
        rc = main(["loss", "--pred", str(src), "--labels", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "loss.json")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_frame_mismatch_lists_ids(self, tmp_path, scene_file, capsys):
        src, frames = scene_file
        partial = tmp_path / "partial.jsonl"
        write_scenes(frames[:2], partial)
        rc = main(["loss", "--pred", str(partial), "--labels", str(src),
                   "--out", str(tmp_path / "loss.json")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "frame_2" in err and "frame_3" in err

    def test_overflow_names_file_and_frame(self, tmp_path, scene_file, capsys):
        src, frames = scene_file
        full = frames[1].with_features([line_feature(y=float(k)) for k in range(11)])
        labels = tmp_path / "labels.jsonl"
        write_scenes([frames[0], full, *frames[2:]], labels)
        rc = main(["loss", "--pred", str(src), "--labels", str(labels),
                   "--out", str(tmp_path / "loss.json"), "--m-max", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "frame_1" in err and str(src) in err and "overflow" in err


class TestEvalCommand:
    def test_perfect_fixture(self, tmp_path, scene_file):
        src, _ = scene_file
        out = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(src), "--gt", str(src),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mean_ap"] == 1.0

    def test_shifted_fixture_zero(self, tmp_path):
        frames = [MapFrame("f", Pose2D(0, 0, 0), 90.0,
                           (line_feature(y=0.0), line_feature(y=20.0)))]
        shifted = [frames[0].with_features(
            [f.with_points(f.points + [0.0, 5.0]) for f in frames[0].features])]
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_scenes(frames, gt_path)
        write_scenes(shifted, pred_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mean_ap"] == 0.0

    def test_rerun_identical_bytes(self, tmp_path, scene_file):
        src, _ = scene_file
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["eval", "--pred", str(src), "--gt", str(src), "--out", str(out1)])
        main(["eval", "--pred", str(src), "--gt", str(src), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_threshold_override_and_render(self, tmp_path, scene_file):
        src, frames = scene_file
        out = tmp_path / "eval.json"
        render_dir = tmp_path / "render"
        assert main(["eval", "--pred", str(src), "--gt", str(src), "--out", str(out),
                     "--thresholds", "0.2,0.4", "--render-dir", str(render_dir)]) == 0
        report = json.loads(out.read_text())
        assert list(report["counts"]) == ["0.2", "0.4"]
        assert sorted(p.name for p in render_dir.glob("*.svg")) == sorted(
            f"{f.frame_id}.svg" for f in frames
        )


def _moved_curb_maps(tmp_path):
    world = grid_world(n_blocks=3)
    moved = list(world)
    moved[0] = moved[0].with_points(moved[0].points + [0.0, 2.0])
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("v2020", world, old_path)
    write_map_version("v2023", moved, new_path)
    return old_path, new_path


def _drive(tmp_path):
    traj_path = tmp_path / "traj.jsonl"
    poses = [(float(t), Pose2D(-100.0 + 5.0 * t, 0.0, 0.0)) for t in range(120)]
    write_trajectory(poses, traj_path)
    return traj_path


class TestDiffMineCommands:
    def test_identical_maps_empty_report(self, tmp_path):
        world = grid_world(n_blocks=2)
        old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        write_map_version("a", world, old_path)
        write_map_version("b", world, new_path)
        out = tmp_path / "diff.json"
        assert main(["diff", "--old", str(old_path), "--new", str(new_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["added"] == [] and report["removed"] == []
        assert report["modified"] == [] and report["regions"] == []

    def test_moved_curb_fixture(self, tmp_path):
        old_path, new_path = _moved_curb_maps(tmp_path)
        out = tmp_path / "diff.json"
        assert main(["diff", "--old", str(old_path), "--new", str(new_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["modified"]) == 1
        assert report["modified"][0]["chamfer"] == pytest.approx(2.0, abs=1e-9)
        assert len(report["regions"]) == 1

    def test_mine_pipeline(self, tmp_path):
        old_path, new_path = _moved_curb_maps(tmp_path)
        traj_path = _drive(tmp_path)
        prior_path, gt_path = tmp_path / "prior.jsonl", tmp_path / "gt.jsonl"
        report_path = tmp_path / "windows.json"
        assert main(["mine", "--old", str(old_path), "--new", str(new_path),
                     "--trajectory", str(traj_path),
                     "--out-prior", str(prior_path), "--out-gt", str(gt_path),
                     "--report", str(report_path)]) == 0
        windows = json.loads(report_path.read_text())["windows"]
        assert len(windows) >= 1
        assert main(["eval", "--pred", str(prior_path), "--gt", str(gt_path),
                     "--out", str(tmp_path / "eval.json")]) == 0

    def test_trajectory_missing_timestamp_schema_error(self, tmp_path, capsys):
        old_path, new_path = _moved_curb_maps(tmp_path)
        traj_path = tmp_path / "traj.jsonl"
        traj_path.write_text('{"x":0.0,"y":0.0,"yaw":0.0}\n')
        rc = main(["mine", "--old", str(old_path), "--new", str(new_path),
                   "--trajectory", str(traj_path),
                   "--out-prior", str(tmp_path / "p.jsonl"),
                   "--out-gt", str(tmp_path / "g.jsonl")])
        assert rc != 0
        assert "missing field 't'" in capsys.readouterr().err


class TestRenderCommand:
    def test_render_scenes(self, tmp_path, scene_file):
        src, frames = scene_file
        out_dir = tmp_path / "svg"
        assert main(["render", "--scenes", str(src), "--out-dir", str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.svg"))) == len(frames)


    def test_eval_render_dir_matches_render_overlay(self, tmp_path, scene_file):
        src, frames = scene_file
        rng = np.random.default_rng(8)
        noisy = [
            frame.with_features([f.with_points(f.points + rng.normal(0, 0.5, f.points.shape))
                                 for f in frame.features])
            for frame in reversed(frames)
        ]
        pred = tmp_path / "pred.jsonl"
        write_scenes(noisy, pred)
        via_eval, via_render = tmp_path / "eval_svg", tmp_path / "render_svg"
        assert main(["eval", "--pred", str(pred), "--gt", str(src),
                     "--out", str(tmp_path / "eval.json"), "--render-dir", str(via_eval)]) == 0
        assert main(["render", "--scenes", str(src), "--overlay", str(pred),
                     "--out-dir", str(via_render)]) == 0
        svgs = sorted(p.name for p in via_eval.glob("*.svg"))
        assert svgs == sorted(f"{f.frame_id}.svg" for f in frames)
        assert sorted(p.name for p in via_render.glob("*.svg")) == svgs
        for name in svgs:
            assert (via_eval / name).read_bytes() == (via_render / name).read_bytes()


def _canonical_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _manifest_case(command: str, tmp_path, scenes):
    """argv of one run of a subcommand, its manifest path, the config it
    must hash, its inputs and its master seed."""
    out = tmp_path / "out"
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(scenes.read_bytes())
    if command == "perturb":
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps(
            {"master_seed": 7, "mutations": [{"kind": "drop_features", "p": 0.1}]}))
        argv = ["perturb", "--scenes", str(scenes), "--recipe", str(recipe),
                "--out", str(out), "--seed", "99"]
        config = {"recipe": {"master_seed": 99, "mutations": [{"kind": "drop_features", "p": 0.1}]},
                  "n_points": 20, "m_max": 50}
        return argv, out, config, [scenes, recipe], 99
    if command == "loss":
        argv = ["loss", "--pred", str(scenes), "--labels", str(copy), "--out", str(out),
                "--m-max", "10"]
        weights = {"class_weight": 2.0, "point_weight": 5.0, "cosine_weight": 0.02,
                   "focal_alpha": 0.25, "focal_gamma": 2.0, "joint_cosine": False}
        return argv, out, {"weights": weights, "n_points": 20, "m_max": 10}, [scenes, copy], None
    if command == "eval":
        argv = ["eval", "--pred", str(scenes), "--gt", str(copy), "--out", str(out),
                "--thresholds", "0.2,0.4"]
        config = {"thresholds": [0.2, 0.4],
                  "classes": ["lane_center", "lane_divider", "road_boundary", "driveway"],
                  "score_floor": 0.05, "densify": 0}
        return argv, out, config, [scenes, copy], None
    if command == "render":
        argv = ["render", "--scenes", str(scenes), "--overlay", str(copy), "--out-dir", str(out)]
        return argv, out / "render", {"overlay": True}, [scenes, copy], None
    old, new = _moved_curb_maps(tmp_path)
    diff_config = {"modify_tol": 0.25, "max_match_dist": 10.0, "buffer": 20.0}
    if command == "diff":
        argv = ["diff", "--old", str(old), "--new", str(new), "--out", str(out)]
        return argv, out, diff_config, [old, new], None
    traj = _drive(tmp_path)
    argv = ["mine", "--old", str(old), "--new", str(new), "--trajectory", str(traj),
            "--out-prior", str(out), "--out-gt", str(tmp_path / "gt.jsonl"), "--window", "20"]
    config = {**diff_config, "fov": 90.0, "window": 20.0, "n_points": 20}
    return argv, out, config, [old, new, traj], None


@pytest.mark.parametrize("command", ["perturb", "loss", "eval", "diff", "mine", "render"])
def test_manifest_of_every_subcommand(tmp_path, scene_file, command):
    argv, out, config, inputs, seed = _manifest_case(command, tmp_path, scene_file[0])
    assert main(argv) == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["master_seed"] == seed
    assert sorted(manifest["input_digests"]) == sorted({str(p) for p in inputs})
    assert manifest["config_hash"] == _canonical_hash(config)


def test_every_option_has_help_text():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {action.option_strings[0]}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


_STARTUP_PROBE = """
import json, sys
from priormap import matching
from priormap.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --help leaves through argparse
    rc = exc.code
print(json.dumps({"rc": rc, "scipy_optimize": "scipy.optimize" in sys.modules,
                  "solver": matching._solver is not None,
                  "futures": "concurrent.futures" in sys.modules}))
"""


def _child_env() -> dict:
    """The environment of a new interpreter that imports this priormap."""
    paths = [str(Path(priormap.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _fresh_process(argv: list[str]) -> dict:
    """Run main(argv) in a new interpreter; report its exit code, whether
    scipy.optimize was loaded by the end, whether a solver was and whether
    concurrent.futures (the worker-thread pool) was."""
    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _startup_argv(command: str, tmp_path, scenes) -> list[str]:
    if command == "--help":
        return ["--help"]
    if command == "perturb":
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps(recipe_to_dict(low_all_noise_recipe(5))))
        return ["perturb", "--scenes", str(scenes), "--recipe", str(recipe),
                "--out", str(tmp_path / "out.jsonl")]
    if command == "eval":
        return ["eval", "--pred", str(scenes), "--gt", str(scenes),
                "--out", str(tmp_path / "eval.json"), "--render-dir", str(tmp_path / "svg")]
    return ["render", "--scenes", str(scenes), "--overlay", str(scenes),
            "--out-dir", str(tmp_path / "svg")]


@pytest.mark.parametrize("command", ["--help", "perturb", "eval", "render"])
def test_subcommands_without_assignment_start_without_scipy(tmp_path, scene_file, command):
    probe = _fresh_process(_startup_argv(command, tmp_path, scene_file[0]))
    assert probe == {"rc": 0, "scipy_optimize": False, "solver": False, "futures": False}


def _solving_case(command: str, tmp_path, scenes) -> tuple[list[str], list[Path]]:
    """argv of a run of a subcommand that solves assignments, with its
    outputs placed under tmp_path."""
    if command == "loss":
        return (["loss", "--pred", str(scenes), "--labels", str(scenes),
                 "--out", str(tmp_path / "loss.json"), "--m-max", "10"],
                [tmp_path / "loss.json"])
    old, new = _moved_curb_maps(tmp_path)
    if command == "diff":
        return (["diff", "--old", str(old), "--new", str(new),
                 "--out", str(tmp_path / "diff.json")], [tmp_path / "diff.json"])
    outs = [tmp_path / "prior.jsonl", tmp_path / "gt.jsonl", tmp_path / "windows.json"]
    return (["mine", "--old", str(old), "--new", str(new), "--trajectory", str(_drive(tmp_path)),
             "--out-prior", str(outs[0]), "--out-gt", str(outs[1]), "--report", str(outs[2]),
             "--window", "20"], outs)


@pytest.mark.parametrize("command, extra", [
    ("loss", []), ("loss", ["--jobs", "2"]), ("diff", []), ("mine", []),
], ids=["loss", "loss-jobs-2", "diff", "mine"])
def test_solving_subcommands_load_only_the_compiled_kernel(tmp_path, scene_file, command, extra):
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here_dir.mkdir()
    argv, fresh_outs = _solving_case(command, fresh_dir, scene_file[0])
    # Only a run with worker threads loads the thread pool.
    assert _fresh_process(argv + extra) == {"rc": 0, "scipy_optimize": False, "solver": True,
                                            "futures": "--jobs" in extra}
    argv, here_outs = _solving_case(command, here_dir, scene_file[0])
    assert main(argv + extra) == 0
    for fresh, here in zip(fresh_outs, here_outs):
        assert fresh.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("value", ["abc", "0.5,x", "0.5,,1"])
def test_thresholds_option_is_a_usage_error(tmp_path, scene_file, capsys, value):
    src, _ = scene_file
    out = tmp_path / "eval.json"
    with pytest.raises(SystemExit) as info:
        main(["eval", "--pred", str(src), "--gt", str(src), "--thresholds", value,
              "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (f"priormap eval: error: argument --thresholds: "
                                    f"expected comma-separated numbers, got {value!r}")
    assert not out.exists()


def _error_of(argv: list[str], capsys) -> str:
    assert main(argv) == 1
    return capsys.readouterr().err


def test_perturb_error_names_file_and_frame(tmp_path, scene_file, capsys, monkeypatch):
    # A recipe's bounds are checked at load time, so no recipe makes a frame
    # fail; a mutation that moves points to infinity stands in for one.
    def to_infinity(frame, sigma, stream):
        return frame.with_features(f.with_points(f.points + np.inf) for f in frame.features)

    monkeypatch.setattr(priormap.perturb, "jitter_control_points", to_infinity)
    src, _ = scene_file
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(
        {"master_seed": 1, "mutations": [{"kind": "jitter_control_points", "sigma": 0.1}]}))
    err = _error_of(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                     "--out", str(tmp_path / "out.jsonl")], capsys)
    assert f"{src}, frame frame_0: points must be finite" in err


def test_perturb_rejects_out_of_bounds_recipe_at_load(tmp_path, scene_file, capsys):
    src, _ = scene_file
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(
        {"master_seed": 1, "mutations": [{"kind": "drop_features", "p": 0.1},
                                         {"kind": "jitter_control_points", "sigma": 1e308}]}))
    out = tmp_path / "out.jsonl"
    err = _error_of(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                     "--out", str(out)], capsys)
    assert err == (f"error: {recipe}: recipe.mutations[1]: jitter_control_points: "
                   "sigma must be at most 1e+06\n")
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("perturb", '{"master_seed": 1, "mutations": [{"kind": "shift_features", "sigma": NaN}]}',
     "non-finite number 'NaN' is not allowed"),
    ("perturb", '{"master_seed": 1,',
     "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("loss", '{"bogus": 1}', "weights: unknown key(s): bogus"),
    ("loss", "[1]", "config must be a JSON object"),
    ("eval", '{"bogus": 1}', "eval config: unknown key(s): bogus"),
])
def test_config_error_names_the_file_once(tmp_path, scene_file, capsys, command, text, message):
    src, _ = scene_file
    config = tmp_path / "config.json"
    config.write_text(text)
    argv = _config_argv(command, src, config)
    err = _error_of([*argv, "--out", str(tmp_path / "out.json")], capsys)
    assert err == f"error: {config}: {message}\n"


def _config_argv(command: str, scenes: Path, config: Path) -> list[str]:
    """command run on scenes with config as its config file, without --out."""
    return {
        "perturb": ["perturb", "--scenes", str(scenes), "--recipe", str(config)],
        "loss": ["loss", "--pred", str(scenes), "--labels", str(scenes), "--weights", str(config)],
        "eval": ["eval", "--pred", str(scenes), "--gt", str(scenes), "--config", str(config)],
    }[command]


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command, text, message", [
    ("loss", '{"class_weight": "x"}', "weights: class_weight must be a finite number, got 'x'"),
    ("loss", '{"class_weight": 1e400}', "weights: class_weight must be a finite number, got inf"),
    ("loss", '{"joint_cosine": "yes"}', "weights: joint_cosine must be true or false, got 'yes'"),
    ("eval", '{"score_floor": "x"}', "eval config: score_floor must be a finite number, got 'x'"),
    ("eval", '{"score_floor": 1e400}', "eval config: score_floor must be a finite number, got inf"),
    ("eval", '{"densify": "x"}', "eval config: densify must be a finite number, got 'x'"),
    ("eval", '{"densify": 2.5}', "eval config: densify must be 0 or an integer of at least 2, got 2.5"),
    ("eval", '{"densify": 1}', "eval config: densify must be 0 or an integer of at least 2, got 1"),
    ("eval", '{"densify": 1000000000000000}',
     "eval config: densify must be at most 1000, got 1000000000000000"),
    ("eval", '{"thresholds": 5}', "eval config: thresholds must be a list of numbers, got 5"),
    ("eval", '{"thresholds": [0.5, 1e400]}', "eval config: thresholds must be a finite number, got inf"),
    ("eval", '{"classes": "lane_center"}',
     "eval config: classes must be a list of class names, got 'lane_center'"),
    ("perturb", '{"master_seed": 1, "mutations": [{"kind": "shift_features", "sigma": %s}]}' % _HUGE,
     f"recipe.mutations[0]: shift_features: sigma must be a finite number, got {_HUGE}"),
    ("perturb", '{"master_seed": 1, "mutations": [{"kind": "perlin_warp", "sigma": 1, '
                '"perlin": {"persistence": 1e200, "octaves": 2}}]}',
     "recipe.mutations[0].perlin: the largest octave amplitude, "
     "max(1, persistence**(octaves - 1)), must be at most 1e+100, got 1e+200"),
])
def test_bad_config_value_is_one_error_line(tmp_path, scene_file, capsys, command, text, message):
    src, _ = scene_file
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out.json"
    argv = [*_config_argv(command, src, config), "--out", str(out)]
    if _HUGE in text:
        # A fresh interpreter, so that a traceback would show on stderr.
        done = subprocess.run([sys.executable, "-m", "priormap.cli", *argv], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        code, err = done.returncode, done.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {config}: {message}"]
    assert not out.exists() and not out.with_name("out.json.manifest.json").exists()


def test_eval_error_names_files_and_frame(tmp_path, scene_file, capsys, monkeypatch):
    # The readers refuse every feature of zero arc length, the one densify
    # would fail on; a resample that fails on one marked feature of frame_2
    # stands in for such a feature.
    resample = priormap.model.resample_polyline

    def fails_on_marked(points, n, closed=False):
        if points[0].tolist() == [1.0, 0.0]:
            raise DegenerateFeatureError("degenerate feature: zero arc length")
        return resample(points, n, closed)

    monkeypatch.setattr(priormap.model, "resample_polyline", fails_on_marked)
    src, frames = scene_file
    bad = frames[2].with_features([*frames[2].features, line_feature(x0=1.0, x1=2.0)])
    gt = tmp_path / "gt.jsonl"
    write_scenes([*frames[:2], bad, frames[3]], gt)
    config = tmp_path / "eval_config.json"
    config.write_text(json.dumps({"densify": 30}))
    err = _error_of(["eval", "--pred", str(src), "--gt", str(gt), "--config", str(config),
                     "--out", str(tmp_path / "eval.json")], capsys)
    assert f"{src} against {gt}: frame frame_2: degenerate feature" in err


def test_mine_error_names_files_and_frame(tmp_path, capsys, monkeypatch):
    # As above, a crop that fails for one window stands in for a feature
    # that the crop cannot resample.
    build = priormap.cli.build_scene_pair

    def fails_on_second_window(old, new, pose, **kwargs):
        if kwargs["frame_id"] == "window_0001":
            raise DegenerateFeatureError("degenerate feature: zero arc length")
        return build(old, new, pose, **kwargs)

    monkeypatch.setattr(priormap.cli, "build_scene_pair", fails_on_second_window)
    world = grid_world(n_blocks=3)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("v2020", world, old)
    write_map_version("v2023", [*world, line_feature(x0=30.0, x1=31.0)], new)
    err = _error_of(["mine", "--old", str(old), "--new", str(new),
                     "--trajectory", str(_drive(tmp_path)), "--out-prior",
                     str(tmp_path / "prior.jsonl"), "--out-gt", str(tmp_path / "gt.jsonl"),
                     "--window", "20"], capsys)
    assert f"{old} to {new}, frame window_0001: degenerate feature" in err


@pytest.mark.parametrize("value, message", [
    ("2", "must be at least 3 (a polygon needs 3 points), got 2"),
    ("-1", "must be at least 3 (a polygon needs 3 points), got -1"),
    ("x", "invalid int value: 'x'"),
])
def test_mine_n_points_below_3_is_a_usage_error(tmp_path, capsys, value, message):
    world = grid_world(n_blocks=2)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("a", world, old)
    write_map_version("b", world[1:], new)
    prior = tmp_path / "prior.jsonl"
    with pytest.raises(SystemExit) as info:
        main(["mine", "--old", str(old), "--new", str(new), "--trajectory", str(_drive(tmp_path)),
              "--out-prior", str(prior), "--out-gt", str(tmp_path / "gt.jsonl"),
              "--n-points", value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"priormap mine: error: argument --n-points: {message}"
    assert not prior.exists()


@pytest.mark.parametrize("field", ["coordinate", "fov_side"])
def test_huge_integer_is_one_error_line(tmp_path, field):
    rec = frame_to_record(random_frame(np.random.default_rng(5), "frame_0", n_features=2))
    if field == "fov_side":
        rec["fov_side"] = 10**400
    else:
        rec["features"][1]["points"][0][0] = 10**400
    src = tmp_path / "huge.jsonl"
    src.write_text(json.dumps(rec) + "\n")
    done = subprocess.run([sys.executable, "-m", "priormap.cli", "render", "--scenes", str(src),
                           "--out-dir", str(tmp_path / "svg")],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    path = "fov_side" if field == "fov_side" else "features[1].points[0][0]"
    assert line == f"error: {src}: line 1: frame 'frame_0'.{path}: must be finite"
