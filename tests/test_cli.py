from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import priormap
from conftest import grid_world, line_feature, random_frame
from priormap import (
    DegenerateFeatureError,
    FeatureClass,
    LossWeights,
    MapFrame,
    ModelDims,
    Pose2D,
    combined_cost_matrix,
    hungarian_assign,
    label_set_from_frame,
    prediction_set_from_frame,
    read_map_version,
    read_scenes,
    recipe_to_dict,
    low_all_noise_recipe,
    write_map_version,
    write_scenes,
    write_trajectory,
)
from priormap.cli import _frame_id_faults, build_parser, main
from priormap.render import frame_svg
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
        # eval writes no SVG: render draws the same pair of files.
        src, frames = scene_file
        out = tmp_path / "eval.json"
        render_dir = tmp_path / "render"
        assert main(["eval", "--pred", str(src), "--gt", str(src), "--out", str(out),
                     "--thresholds", "0.2,0.4"]) == 0
        report = json.loads(out.read_text())
        assert list(report["counts"]) == ["0.2", "0.4"]
        assert not render_dir.exists()
        assert main(["render", "--scenes", str(src), "--overlay", str(src),
                     "--out-dir", str(render_dir)]) == 0
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


def _changed_grid(tmp_path, with_ids: bool) -> tuple[Path, Path]:
    """Two versions of a 3 x 3 block grid of 12-point features: a lane and
    a driveway moved, a boundary removed, and a 7-point and a 30-point
    segment added, so point counts mix."""
    world = grid_world(n_blocks=3, block=60.0)
    moved = {0: [0.0, 1.5], len(world) - 5: [0.8, -0.6]}
    new = [f.with_points(f.points + moved[k]) if k in moved else f for k, f in enumerate(world)]
    del new[4]
    new += [line_feature(y=100.0, x0=20.0, x1=50.0, n=7),
            line_feature(y=52.0, x0=70.0, x1=110.0, n=30, cls=FeatureClass.ROAD_BOUNDARY)]
    ids = [f"seg{k}" for k in range(len(world))]
    new_ids = [*ids[:4], *ids[5:], "new0", "new1"]
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("v2020", world, old_path, feature_ids=ids if with_ids else None)
    write_map_version("v2023", new, new_path, feature_ids=new_ids if with_ids else None)
    return old_path, new_path


def _drive(tmp_path):
    traj_path = tmp_path / "traj.jsonl"
    poses = [(float(t), Pose2D(-100.0 + 5.0 * t, 0.0, 0.0)) for t in range(120)]
    write_trajectory(poses, traj_path)
    return traj_path


#: Both diff forms find the same changes, so mine writes the same bytes.
_MINED = {
    "prior.jsonl": "031c8a330eced4eda09416a255bf4687eac14ee6fe82180939bbbb5fdee16d92",
    "gt.jsonl": "9c9c22ecf6d5484f0bb73d75ef940bb05799765d28a5b4041967fa4256f6f952",
    "windows.json": "ef2fd65981b8a945df5b7fd2febcff5e044bec847c0d53ab9c18acae79f13a6b",
}


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

    #: sha256 of diff.json and of mine's prior, ground truth and windows
    #: report for _changed_grid. diff.json and the report were computed
    #: before diff and mine were batched; the prior and ground truth since
    #: the crop resamples each piece once (tests/test_changes.py::oracle_crop).
    PINNED = {
        False: {"diff.json": "cc483e22b57f4cc13b6dc5596caef8bc9325febd6e142d5c32e5158ae9af9f49",
                **_MINED},
        True: {"diff.json": "6644bf8a7b99ab612196114eab2bdf1326328bda3c542cdb4a46a5c721084b7c",
               **_MINED},
    }

    @pytest.mark.parametrize("with_ids", [False, True], ids=["id-less", "id-joined"])
    def test_outputs_match_pinned_digests(self, tmp_path, with_ids):
        # Any change to the bytes diff and mine write shows here.
        old_path, new_path = _changed_grid(tmp_path, with_ids)
        maps = ["--old", str(old_path), "--new", str(new_path)]
        traj = tmp_path / "traj.jsonl"
        write_trajectory([(float(t), Pose2D(5.0 * t, 45.0, 0.1 * np.sin(t))) for t in range(37)],
                         traj)
        assert main(["diff", *maps, "--out", str(tmp_path / "diff.json")]) == 0
        assert main(["mine", *maps, "--trajectory", str(traj), "--window", "8",
                     "--out-prior", str(tmp_path / "prior.jsonl"),
                     "--out-gt", str(tmp_path / "gt.jsonl"),
                     "--report", str(tmp_path / "windows.json")]) == 0
        report = json.loads((tmp_path / "diff.json").read_text())
        assert len(report["added"]) == 2 and len(report["removed"]) == 1
        assert len(report["modified"]) == 2
        # A driveway cut by the window edge: resampled points run along it.
        cut = [f for frame in read_scenes(tmp_path / "gt.jsonl") for f in frame.features
               if f.feature_class.value == "driveway" and np.abs(f.points).max() == 45.0]
        assert cut
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED[with_ids]}
        assert digests == self.PINNED[with_ids]

    @pytest.mark.parametrize("m_max", [51, 100])
    def test_mine_then_loss_at_the_same_dims(self, tmp_path, capsys, m_max):
        # On an 11 x 11 grid at 15 m spacing most 90 m crops hold more than
        # 50 features. mine skips such windows whole, and numbers the rest
        # as it numbers them around off-map windows, so loss at the same
        # --m-max reads every pair mine writes. Three added lines make the
        # first window's ground truth (52 features) outgrow its prior (49).
        world = grid_world(n_blocks=10, block=15.0)
        new = [f.with_points(f.points + [0.0, 1.5]) if k in (3, 40) else f
               for k, f in enumerate(world)]
        new += [line_feature(y=72.0 + k, x0=0.0, x1=10.0, n=5) for k in range(3)]
        old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        write_map_version("a", world, old_path)
        write_map_version("b", new, new_path)
        traj = tmp_path / "traj.jsonl"
        write_trajectory([(float(t), Pose2D(5.0 * t, 70.0, 0.0)) for t in range(32)], traj)
        prior, gt, report = (tmp_path / name for name in ("p.jsonl", "g.jsonl", "w.json"))
        dims = ["--m-max", str(m_max)]
        assert main(["mine", "--old", str(old_path), "--new", str(new_path), "--trajectory",
                     str(traj), "--window", "5", "--out-prior", str(prior), "--out-gt", str(gt),
                     "--report", str(report), *dims]) == 0
        windows = json.loads(report.read_text())["windows"]
        assert all(list(w) == ["frame_id", "anchor_index", "t_start", "t_end", "poses"]
                   for w in windows)
        kept = ["window_0005"] if m_max == 51 else [f"window_{k:04d}" for k in range(6)]
        assert [w["frame_id"] for w in windows] == kept
        note = " (5 window(s) over m=51 features skipped)" if m_max == 51 else ""
        assert capsys.readouterr().out == f"mined {len(kept)} window(s) -> {prior}, {gt}{note}\n"
        assert main(["loss", "--pred", str(prior), "--labels", str(gt),
                     "--out", str(tmp_path / "loss.json"), *dims]) == 0

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

    @pytest.mark.parametrize("side", ["scenes", "overlay"])
    @pytest.mark.parametrize("frame_id, fault", [
        ("../escaped", "frame id(s) that are no plain file name: '../escaped'"),
        ("a/b", "frame id(s) that are no plain file name: 'a/b'"),
        ("..", "frame id(s) that are no plain file name: '..'"),
        ("frame_1", "repeated frame id(s): 'frame_1'"),
        ("a--b", "frame id(s) that an XML comment cannot hold: 'a--b'"),
        ("ctl\u0001x", "frame id(s) that an XML comment cannot hold: 'ctl\\x01x'"),
        # os.fsencode takes this surrogate to the byte 0x80, but UTF-8 cannot encode it
        ("s\udc80", "frame id(s) that an XML comment cannot hold: 's\\udc80'"),
    ])
    def test_frame_ids_must_name_one_file_each(self, tmp_path, scene_file, capsys,
                                               side, frame_id, fault):
        src, frames = scene_file
        bad = tmp_path / "bad.jsonl"
        write_scenes([*frames, replace(frames[0], frame_id=frame_id)], bad)
        files = ["--scenes", str(bad)] if side == "scenes" else [
            "--scenes", str(src), "--overlay", str(bad)]
        err = _error_of(["render", *files, "--out-dir", str(tmp_path / "out" / "svg")], capsys)
        assert err == f"error: {bad}: {fault}\n"
        assert sorted(p.name for p in tmp_path.rglob("*.svg")) == []


    def test_frame_id_too_long_for_a_file_name(self, tmp_path, capsys):
        # "é" takes 2 bytes in UTF-8: <id>.svg of 304 bytes, over the 255 a
        # file name may take. Nothing is written, f0.svg included.
        long_id = "é" * 150
        frame = MapFrame("f0", Pose2D(0.0, 0.0, 0.0), 90.0, (line_feature(),))
        bad = tmp_path / "long.jsonl"
        write_scenes([frame, replace(frame, frame_id=long_id)], bad)
        out_dir = tmp_path / "svg"
        err = _error_of(["render", "--scenes", str(bad), "--out-dir", str(out_dir)], capsys)
        assert err == f"error: {bad}: frame id(s) that are no plain file name: {long_id!r}\n"
        assert not out_dir.exists()
        # 251 bytes: <id>.svg takes exactly 255
        write_scenes([frame, replace(frame, frame_id="é" * 125 + "a")], bad)
        assert main(["render", "--scenes", str(bad), "--out-dir", str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.svg"))) == 2

    def test_frame_id_the_file_system_cannot_encode(self, tmp_path, capsys):
        # A lone surrogate that stands for no raw byte: os.fsencode cannot
        # encode it. Nothing is written, f0.svg included.
        frame = MapFrame("f0", Pose2D(0.0, 0.0, 0.0), 90.0, (line_feature(),))
        bad = tmp_path / "surrogate.jsonl"
        write_scenes([frame, replace(frame, frame_id="\ud800")], bad)
        out_dir = tmp_path / "svg"
        err = _error_of(["render", "--scenes", str(bad), "--out-dir", str(out_dir)], capsys)
        assert err == f"error: {bad}: frame id(s) that are no plain file name: '\\ud800'\n"
        assert not out_dir.exists()

    @settings(max_examples=300, deadline=None)
    @given(frame_id=st.text(st.one_of(st.sampled_from("-\x01\x7f\ufffe\ud800\udc80"),
                                      st.characters()), min_size=1, max_size=12))
    def test_svg_of_an_accepted_frame_id_is_xml(self, frame_id):
        frame = MapFrame(frame_id, Pose2D(0.0, 0.0, 0.0), 90.0, (line_feature(n=3),))
        assume(not _frame_id_faults("scenes.jsonl", [frame]))
        svg = frame_svg([("ground_truth", frame), ("prediction", frame)])
        assert ElementTree.fromstring(svg).tag == "{http://www.w3.org/2000/svg}svg"


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
                  "m_max": 50}
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
    config = {**diff_config, "fov": 90.0, "window": 20.0, "n_points": 20, "m_max": 50}
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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_has_help_text():
    missing = [
        f"{name} {action.option_strings[0]}"
        for name, sub in _subcommands().items()
        for action in sub._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


def _parser_options() -> dict[str, set[str]]:
    return {name: {option for action in sub._actions for option in action.option_strings
                   if option not in ("-h", "--help")}
            for name, sub in _subcommands().items()}


def _readme_synopsis() -> dict[str, set[str]]:
    """The options of each subcommand in README's CLI synopsis, the first
    sh block of its CLI section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    synopsis: dict[str, set[str]] = {}
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("priormap "):
            command = line.split()[1]
            assert command not in synopsis, f"{command} is shown twice"
            synopsis[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    return synopsis


def test_readme_synopsis_lists_every_option():
    assert _readme_synopsis() == _parser_options()


_STARTUP_PROBE = """
import json, sys
from priormap.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --help leaves through argparse
    rc = exc.code
solver = sys.modules.get("priormap.solver")
print(json.dumps({"rc": rc, "scipy_optimize": "scipy.optimize" in sys.modules,
                  "solver": solver is not None and solver._solver is not None,
                  "futures": "concurrent.futures" in sys.modules,
                  "numpy_ma": "numpy.ma" in sys.modules,
                  "numpy_strings": "numpy.strings" in sys.modules or "numpy.char" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.split(".")[0] == "priormap")}))
"""

#: The priormap modules a run of each subcommand loads: the package, cli,
#: model and scene_io, which every run loads, and the layers listed here.
_LAYERS_LOADED = {
    "--help": [],
    "render": ["render"],
    "perturb": ["config", "perlin", "perturb", "rng"],
    "loss": ["config", "matching", "solver"],
    "eval": ["config", "evaluation"],
    "diff": ["changes", "config", "evaluation", "solver"],
    "mine": ["changes", "config", "evaluation", "solver"],
}


def _modules_of(command: str) -> list[str]:
    layers = ["cli", "model", "scene_io", *_LAYERS_LOADED[command]]
    return sorted(["priormap", *(f"priormap.{layer}" for layer in layers)])


def _child_env() -> dict:
    """The environment of a new interpreter that imports this priormap."""
    paths = [str(Path(priormap.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _fresh_process(argv: list[str]) -> dict:
    """Run main(argv) in a new interpreter; report its exit code, whether
    scipy.optimize was loaded by the end, whether a solver was, whether
    concurrent.futures (the worker-thread pool) was, whether numpy.ma
    (which np.unique loads, at about 20 ms) was, and which priormap
    modules were."""
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
                "--out", str(tmp_path / "eval.json")]
    return ["render", "--scenes", str(scenes), "--overlay", str(scenes),
            "--out-dir", str(tmp_path / "svg")]


@pytest.mark.parametrize("command", ["--help", "perturb", "eval", "render"])
def test_subcommands_without_assignment_start_without_scipy(tmp_path, scene_file, command):
    probe = _fresh_process(_startup_argv(command, tmp_path, scene_file[0]))
    assert probe == {"rc": 0, "scipy_optimize": False, "solver": False, "futures": False,
                     "numpy_ma": False, "numpy_strings": False, "modules": _modules_of(command)}


def test_package_import_loads_no_layer():
    probe = "import json, sys, priormap; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert [m for m in loaded if m.split(".")[0] == "priormap"] == ["priormap"]
    assert "numpy" not in loaded


def test_every_public_name_resolves_and_is_listed():
    # Guards the package's name table: a misspelt name or module fails here.
    listed = dir(priormap)
    namespace: dict = {}
    exec("from priormap import *", namespace)
    for name in priormap.__all__:
        assert name in listed
        assert namespace[name] is getattr(priormap, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        priormap.no_such_name


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
                                            "futures": "--jobs" in extra, "numpy_ma": False,
                                            "numpy_strings": False,
                                            "modules": _modules_of(command)}
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_perturb_seed_outside_the_stream_key_range(tmp_path, scene_file, capsys, seed):
    # Seeds 0 and 2**64 key the same streams: the second is refused, from a
    # recipe file and from --seed alike.
    src, _ = scene_file
    recipe, out = tmp_path / "recipe.json", tmp_path / "out.jsonl"
    argv = ["perturb", "--scenes", str(src), "--recipe", str(recipe), "--out", str(out)]
    message = f"master_seed must lie in [0, 2**64), got {seed}\n"
    recipe.write_text(json.dumps({"master_seed": seed, "mutations": []}))
    assert _error_of(argv, capsys) == f"error: {recipe}: recipe: {message}"
    recipe.write_text(json.dumps({"master_seed": 0, "mutations": []}))
    assert _error_of([*argv, "--seed", str(seed)], capsys) == f"error: --seed: {message}"
    assert list(tmp_path.glob("out.jsonl*")) == []
    assert main([*argv, "--seed", str(2**64 - 1)]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["master_seed"] == 2**64 - 1


def test_perturb_rejects_out_of_bounds_recipe_at_load(tmp_path, scene_file, capsys):
    src, _ = scene_file
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(
        {"master_seed": 1, "mutations": [{"kind": "drop_features", "p": 0.1},
                                         {"kind": "jitter_control_points", "sigma": 1e308}]}))
    out = tmp_path / "out.jsonl"
    err = _error_of(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                     "--out", str(out)], capsys)
    assert err == (f"error: {recipe}: recipe: mutations[1]: jitter_control_points: "
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
     f"recipe: mutations[0]: shift_features: sigma must be a finite number, got {_HUGE}"),
    ("perturb", '{"master_seed": 1, "mutations": [{"kind": "perlin_warp", "sigma": 1, '
                '"perlin": {"persistence": 1e200, "octaves": 2}}]}',
     "recipe: mutations[0]: perlin: the largest octave amplitude, "
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


def test_overflowing_weights_are_one_error_line(tmp_path, scene_file):
    # Weights whose blend would overflow are refused at load, before numpy
    # could warn; a fresh interpreter, so that a warning would show.
    src, _ = scene_file
    config = tmp_path / "weights.json"
    config.write_text('{"class_weight": 1e308, "point_weight": 1e308}')
    done = subprocess.run([sys.executable, "-m", "priormap.cli", "loss", "--pred", str(src),
                           "--labels", str(src), "--weights", str(config),
                           "--out", str(tmp_path / "out.json")],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {config}: weights: class_weight must be at most 1e+06"]


def test_undecodable_input_is_one_error_line_naming_the_first_fault(tmp_path):
    # Line 2 lacks its yaw and line 3 holds a byte that is no UTF-8; a
    # fresh interpreter, so that a traceback would show.
    old, new = _moved_curb_maps(tmp_path)
    traj = tmp_path / "traj.jsonl"
    traj.write_bytes(b'{"t":0.0,"x":0.0,"y":0.0,"yaw":0.0}\n{"t":1.0,"x":0.0,"y":0.0}\n'
                     b'{"t":2.0,"x":\xff0.0,"y":0.0,"yaw":0.0}\n')
    done = subprocess.run([sys.executable, "-m", "priormap.cli", "mine", "--old", str(old),
                           "--new", str(new), "--trajectory", str(traj),
                           "--out-prior", str(tmp_path / "p.jsonl"),
                           "--out-gt", str(tmp_path / "g.jsonl")],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: {traj}: line 2: pose: missing field 'yaw'"]


def test_eval_error_names_files_and_frame(tmp_path, scene_file, capsys, monkeypatch):
    # The readers refuse every feature of zero arc length, the one densify
    # would fail on; a resample that fails on one marked feature of frame_2
    # stands in for such a feature.
    resample = priormap.model.resample_polylines

    def fails_on_marked(pieces, n, closed=False):
        if any(points[0].tolist() == [1.0, 0.0] for points in pieces):
            raise DegenerateFeatureError("degenerate feature: zero arc length")
        return resample(pieces, n, closed)

    monkeypatch.setattr(priormap.model, "resample_polylines", fails_on_marked)
    src, frames = scene_file
    bad = frames[2].with_features([*frames[2].features, line_feature(x0=1.0, x1=2.0)])
    gt = tmp_path / "gt.jsonl"
    write_scenes([*frames[:2], bad, frames[3]], gt)
    config = tmp_path / "eval_config.json"
    config.write_text(json.dumps({"densify": 30}))
    err = _error_of(["eval", "--pred", str(src), "--gt", str(gt), "--config", str(config),
                     "--out", str(tmp_path / "eval.json")], capsys)
    assert f"{src} against {gt}: frame frame_2: degenerate feature" in err


@pytest.mark.parametrize("command, gt_option", [("loss", "--labels"), ("eval", "--gt")])
@pytest.mark.parametrize("side", ["predictions", "ground truth"])
def test_duplicate_frame_error_names_files_and_id(tmp_path, scene_file, capsys, command,
                                                  gt_option, side):
    src, frames = scene_file
    repeated = tmp_path / "repeated.jsonl"
    write_scenes([*frames, frames[1]], repeated)
    pred, gt = (repeated, src) if side == "predictions" else (src, repeated)
    err = _error_of([command, "--pred", str(pred), gt_option, str(gt),
                     "--out", str(tmp_path / "out.json")], capsys)
    assert err.splitlines() == [
        f"error: {pred} against {gt}: duplicate frame ids in {side}: frame_1"]


def test_mine_error_names_files_and_frame(tmp_path, capsys, monkeypatch):
    # As above, a crop that fails for one window stands in for a feature
    # that the crop cannot resample. The crop of all windows fails, and so
    # does the crop of that window alone.
    build = priormap.cli.build_scene_pairs

    def fails_on_second_window(old, new, poses, **kwargs):
        if "window_0001" in kwargs["frame_ids"]:
            raise DegenerateFeatureError("degenerate feature: zero arc length")
        return build(old, new, poses, **kwargs)

    monkeypatch.setattr(priormap.cli, "build_scene_pairs", fails_on_second_window)
    world = grid_world(n_blocks=3)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("v2020", world, old)
    write_map_version("v2023", [*world, line_feature(x0=30.0, x1=31.0)], new)
    err = _error_of(["mine", "--old", str(old), "--new", str(new),
                     "--trajectory", str(_drive(tmp_path)), "--out-prior",
                     str(tmp_path / "prior.jsonl"), "--out-gt", str(tmp_path / "gt.jsonl"),
                     "--window", "20"], capsys)
    assert f"{old} to {new}, frame window_0001: degenerate feature" in err


def test_mine_resamples_all_windows_in_one_pass(tmp_path, monkeypatch):
    # A drive of 90 poses, 1 m apart, that sees the change the whole way:
    # one window of 1000 s, or twelve of 7 s. The crops of all windows go
    # through one resample_polylines pass per version, straight to
    # --n-points: two calls, however many windows and point counts.
    world = grid_world(n_blocks=3)
    old, new, drive = tmp_path / "old.jsonl", tmp_path / "new.jsonl", tmp_path / "drive.jsonl"
    write_map_version("v2020", world, old)
    write_map_version("v2023", [*world, line_feature(x0=30.0, x1=31.0, n=12)], new)
    write_trajectory([(float(t), Pose2D(float(t), 30.0, 0.0)) for t in range(90)], drive)
    resample = priormap.model.resample_polylines

    def mine(window: str) -> tuple[int, int]:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return resample(*args, **kwargs)

        monkeypatch.setattr(priormap.model, "resample_polylines", counted)
        report = tmp_path / "windows.json"
        assert main(["mine", "--old", str(old), "--new", str(new), "--trajectory", str(drive),
                     "--out-prior", str(tmp_path / "prior.jsonl"),
                     "--out-gt", str(tmp_path / "gt.jsonl"), "--report", str(report),
                     "--window", window]) == 0
        return len(json.loads(report.read_text())["windows"]), len(calls)

    assert mine("1000") == (1, 2)
    assert mine("7") == (12, 2)


def _two_feature_maps(tmp_path) -> list[str]:
    """--old and --new options naming two 2-feature versions, one feature
    of which moved 0.5 m."""
    world = [line_feature(y=0.0), line_feature(y=30.0)]
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("a", world, old)
    write_map_version("b", [world[0], world[1].with_points(world[1].points + [0.0, 0.5])], new)
    return ["--old", str(old), "--new", str(new)]


@pytest.mark.parametrize("command", ["diff", "mine"])
@pytest.mark.parametrize("option, value, message", [
    ("--modify-tol", "nan", "modify_tol must be a non-negative distance, got nan"),
    ("--modify-tol", "-1", "modify_tol must be a non-negative distance, got -1.0"),
    ("--buffer", "-100", "buffer must be a finite non-negative distance, got -100.0"),
    ("--buffer", "nan", "buffer must be a finite non-negative distance, got nan"),
    ("--buffer", "inf", "buffer must be a finite non-negative distance, got inf"),
])
def test_diff_settings_out_of_range_write_nothing(tmp_path, capsys, command, option, value,
                                                  message):
    # Accepted, nan and -1 would give diffs that lose or invent a change,
    # --buffer -100 an inverted region, and nan or inf a JSON error that
    # names no option. Each is refused before any file is written.
    maps = _two_feature_maps(tmp_path)
    outs = (["--out", str(tmp_path / "diff.json")] if command == "diff" else
            ["--trajectory", str(_drive(tmp_path)), "--out-prior", str(tmp_path / "prior.jsonl"),
             "--out-gt", str(tmp_path / "gt.jsonl"), "--report", str(tmp_path / "windows.json")])
    before = set(tmp_path.iterdir())
    err = _error_of([command, *maps, *outs, f"{option}={value}"], capsys)
    assert err.splitlines() == [f"error: {message}"]
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("window, t0", [("inf", 0.0), ("1e308", 1e308)])
def test_mine_window_report_that_json_cannot_hold_writes_nothing(tmp_path, capsys, window, t0):
    # A window of inf is refused, and a t_end that overflows fails the
    # report's encoding, both before the scene files are written, so the
    # failed run writes no file.
    maps = _two_feature_maps(tmp_path)
    drive = tmp_path / "drive.jsonl"
    write_trajectory([(t0, Pose2D(t - 20.0, 15.0, 0.0)) for t in range(40)], drive)
    before = set(tmp_path.iterdir())
    err = _error_of(["mine", *maps, "--trajectory", str(drive), f"--window={window}",
                     "--out-prior", str(tmp_path / "prior.jsonl"),
                     "--out-gt", str(tmp_path / "gt.jsonl"),
                     "--report", str(tmp_path / "r.json")], capsys)
    assert set(tmp_path.iterdir()) == before
    want = ("window must be a finite non-negative duration, got inf" if window == "inf" else
            f"windows report {tmp_path / 'r.json'}: Out of range float values are not JSON "
            "compliant: inf")
    assert err.splitlines() == [f"error: {want}"]


@pytest.mark.parametrize("value, message", [
    ("2", "must be at least 3 (a polygon needs 3 points), got 2"),
    ("-1", "must be at least 3 (a polygon needs 3 points), got -1"),
    ("x", "invalid int value: 'x'"),
])
def test_mine_n_points_below_3_is_a_usage_error(tmp_path, capsys, value, message):
    assert _mine_usage_error(tmp_path, capsys, ["--n-points", value]) == (
        f"priormap mine: error: argument --n-points: {message}")


@pytest.mark.parametrize("value", ["1e10", "1000000001", "inf", "nan", "0", "-90"])
def test_mine_fov_beyond_the_coordinate_bound_is_a_usage_error(tmp_path, capsys, value):
    assert _mine_usage_error(tmp_path, capsys, [f"--fov={value}"]) == (
        f"priormap mine: error: argument --fov: must be positive and at most 1e+09 m, got {value}")


def _mine_usage_error(tmp_path, capsys, option: list[str]) -> str:
    """The last stderr line of a mine run with option, which must exit 2
    before writing anything."""
    world = grid_world(n_blocks=2)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_map_version("a", world, old)
    write_map_version("b", world[1:], new)
    prior = tmp_path / "prior.jsonl"
    with pytest.raises(SystemExit) as info:
        main(["mine", "--old", str(old), "--new", str(new), "--trajectory", str(_drive(tmp_path)),
              "--out-prior", str(prior), "--out-gt", str(tmp_path / "gt.jsonl"), *option])
    assert info.value.code == 2
    assert not prior.exists()
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("seed", range(1, 9))
def test_far_shift_output_is_valid_loss_input(tmp_path, capsys, seed):
    # A 1e9 m polyline and a 10 m one at the edge of a 1e9 m field of view,
    # each shifted by about 1e6 m: the final clip keeps every point within
    # 5e8 m, so the output is read back. A field of view wider than the
    # coordinate bound, under which a shifted point could leave it, is
    # refused when the scenes are read.
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps(
        {"master_seed": seed, "mutations": [{"kind": "shift_features", "sigma": 1e6}]}))
    wide = MapFrame("f0", Pose2D(0.0, 0.0, 0.0), 1e9,
                    (line_feature(x0=-5e8, x1=5e8), line_feature(y=1.0, x0=5e8 - 10.0, x1=5e8)))
    src, out = tmp_path / "wide.jsonl", tmp_path / "out.jsonl"
    write_scenes([wide], src)
    assert main(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                 "--out", str(out)]) == 0
    assert main(["loss", "--pred", str(out), "--labels", str(src),
                 "--out", str(tmp_path / "loss.json")]) == 0
    capsys.readouterr()
    wider = MapFrame("f0", Pose2D(0.0, 0.0, 0.0), 1e10, (line_feature(x0=1e9 - 10.0, x1=1e9),))
    src.write_text(json.dumps(frame_to_record(wider)) + "\n")  # write_scenes refuses it
    assert _error_of(["perturb", "--scenes", str(src), "--recipe", str(recipe),
                      "--out", str(out)], capsys) == (
        f"error: {src}: line 1: frame 'f0'.fov_side: must be at most 1e+09 m in magnitude\n")


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


@pytest.mark.parametrize("command", ["perturb", "loss", "eval", "render", "diff", "mine",
                                     "trajectory"])
def test_coordinate_beyond_bound_is_one_error_line(tmp_path, command):
    # Points at x = +-1e200 have a step whose square overflows. The readers
    # refuse them, naming file, line and field, before any stage could warn
    # (Perlin lattice casts, squared Chamfer distances) or fail on them
    # (infinite arc length); a fresh interpreter, so that a warning would show.
    far = [[-1e200, 0.0], [0.0, 0.0], [1e200, 0.0]]
    rec = frame_to_record(random_frame(np.random.default_rng(8), "frame_0", n_features=2))
    rec["features"][1].update(invariance="directed_polyline", points=far)
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text(json.dumps(rec) + "\n")
    old, new = _moved_curb_maps(tmp_path)
    traj = _drive(tmp_path)
    config = tmp_path / "config.json"
    where = (scenes, 1, "frame 'frame_0'.features[1].points[0][0]")
    if command in ("diff", "mine"):
        n = len(read_map_version(new)[1])
        with open(new, "a") as fh:
            fh.write(json.dumps({**rec["features"][1], "class": "lane_center"}) + "\n")
        where = (new, n + 2, f"feature[{n}].points[0][0]")
    elif command == "trajectory":
        lines = traj.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "x": 1e200})
        traj.write_text("\n".join(lines) + "\n")
        where = (traj, 3, "pose.x")
    maps = ["--old", str(old), "--new", str(new)]
    out = str(tmp_path / "out.json")
    mine = ["mine", *maps, "--trajectory", str(traj), "--out-prior", str(tmp_path / "p.jsonl"),
            "--out-gt", str(tmp_path / "g.jsonl")]
    argv = {
        "perturb": ["perturb", "--scenes", str(scenes), "--recipe", str(config), "--out", out],
        "loss": ["loss", "--pred", str(scenes), "--labels", str(scenes), "--out", out],
        "eval": ["eval", "--pred", str(scenes), "--gt", str(scenes), "--config", str(config),
                 "--out", out],
        "render": ["render", "--scenes", str(scenes), "--out-dir", str(tmp_path / "svg")],
        "diff": ["diff", *maps, "--out", out],
        "mine": mine,
        "trajectory": mine,
    }[command]
    config.write_text('{"densify": 30}' if command == "eval" else
                      '{"master_seed": 1, "mutations": [{"kind": "perlin_warp", "sigma": 1}]}')
    done = subprocess.run([sys.executable, "-m", "priormap.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    path, line, field = where
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {path}: line {line}: {field}: must be at most 1e+09 m in magnitude"]
