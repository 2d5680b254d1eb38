from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_feature, random_feature, random_frame, ring_feature
from priormap import (
    DEFAULT_DIMS,
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    FeatureClass,
    InvarianceClass,
    MapFeature,
    MapFrame,
    ModelDims,
    MutationKind,
    MutationSpec,
    MutationStream,
    PerlinParams,
    PerturbRecipe,
    Pose2D,
    WarpField,
    apply_recipe,
    apply_rigid_transform,
    corrupt_class,
    drop_features,
    duplicate_features,
    jitter_control_points,
    localization_noise,
    low_all_noise_recipe,
    perlin_warp,
    perturb_frames,
    recipe_from_dict,
    recipe_to_dict,
    shift_features,
    stable_key,
)
from priormap.model import ring_fault
from priormap.perturb import MAX_SIGMA
from test_model import oracle_clip_to_fov


def _stream(seed=1, frame="f", index=0) -> MutationStream:
    return MutationStream(seed, stable_key(frame), index)


def _big_frame(n_features: int, rng=None, n_points: int = 4) -> MapFrame:
    rng = rng or np.random.default_rng(0)
    feats = tuple(
        line_feature(y=float(rng.uniform(-40, 40)), n=n_points) for _ in range(n_features)
    )
    return MapFrame("stats", Pose2D(0, 0, 0), 90.0, feats)


class TestIdentities:
    """Zero probability or zero magnitude must return the input bit-exactly."""

    def test_all_mutations_identity(self):
        frame = random_frame(np.random.default_rng(1), n_features=6)
        assert drop_features(frame, 0.0, _stream()) is frame
        assert duplicate_features(frame, 0.0, 50, _stream()) is frame
        assert corrupt_class(frame, 0.0, _stream()) is frame
        assert jitter_control_points(frame, 0.0, _stream()) is frame
        assert shift_features(frame, 0.0, _stream()) is frame
        assert localization_noise(frame, 0.0, 0.0, _stream()) is frame
        assert perlin_warp(frame, 0.0, PerlinParams(), _stream()) is frame


class TestDrop:
    def test_p_one_drops_everything(self):
        frame = random_frame(np.random.default_rng(2), n_features=7)
        assert drop_features(frame, 1.0, _stream()).features == ()

    def test_survivor_order_preserved(self):
        frame = _big_frame(40)
        out = drop_features(frame, 0.5, _stream())
        kept = [f for f in frame.features if f in out.features]
        assert list(out.features) == kept

    def test_rate_within_binomial_bounds(self):
        n, p = 10_000, 0.4
        frame = _big_frame(n)
        out = drop_features(frame, p, _stream(seed=3))
        kept_fraction = len(out.features) / n
        assert 0.58 <= kept_fraction <= 0.62


class TestDuplicate:
    def test_full_duplication_pairs_bit_identical(self):
        frame = random_frame(np.random.default_rng(3), n_features=3)
        out = duplicate_features(frame, 1.0, 50, _stream())
        assert len(out.features) == 6
        for k in range(3):
            assert out.features[2 * k] == out.features[2 * k + 1]

    def test_truncation_arithmetic(self):
        frame = _big_frame(30)
        out = duplicate_features(frame, 1.0, 50, _stream())
        assert len(out.features) == 50

    def test_duplicate_adjacent_to_source(self):
        frame = random_frame(np.random.default_rng(4), n_features=5)
        out = duplicate_features(frame, 1.0, 50, _stream())
        originals = [f for k, f in enumerate(out.features) if k % 2 == 0]
        assert list(originals) == list(frame.features)

    def test_rate_within_binomial_bounds(self):
        n, p = 10_000, 0.3
        frame = _big_frame(n)
        out = duplicate_features(frame, p, 3 * n, _stream(seed=5))
        rate = (len(out.features) - n) / n
        sigma4 = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) <= sigma4


class TestWrongClass:
    def test_p_one_every_class_differs(self):
        frame = random_frame(np.random.default_rng(5), n_features=10)
        out = corrupt_class(frame, 1.0, _stream())
        for before, after in zip(frame.features, out.features):
            assert after.feature_class is not before.feature_class
            assert after.feature_class is not FeatureClass.NO_OBJECT
            assert after.invariance is DEFAULT_INVARIANCE[after.feature_class]
            np.testing.assert_array_equal(after.points, before.points)

    def test_no_polygon_from_points_that_break_the_rule(self):
        two = line_feature(n=2)
        loop = line_feature(n=5).with_points([[0, 0], [4, 0], [4, 3], [0, 3], [0, 0]])
        ring = line_feature(n=3).with_points([[0, 0], [4, 0], [4, 3]])
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (two, loop, ring) * 40)
        out = corrupt_class(frame, 1.0, _stream())
        classes = [f.feature_class for f in out.features]
        assert FeatureClass.DRIVEWAY not in classes[0::3] + classes[1::3]
        assert FeatureClass.DRIVEWAY in classes[2::3]
        assert all(f.feature_class is not FeatureClass.LANE_CENTER for f in out.features)

    def test_rate_within_binomial_bounds(self):
        n, p = 10_000, 0.5
        frame = _big_frame(n)
        out = corrupt_class(frame, p, _stream(seed=6))
        mutated = sum(
            1
            for a, b in zip(frame.features, out.features)
            if a.feature_class is not b.feature_class
        )
        assert 0.48 <= mutated / n <= 0.52


class TestJitter:
    def test_reproducible_bit_exact(self):
        frame = random_frame(np.random.default_rng(6), n_features=4)
        a = jitter_control_points(frame, 0.5, _stream(seed=7))
        b = jitter_control_points(frame, 0.5, _stream(seed=7))
        assert a == b
        # and the draw is recoverable from the same stream
        noise = _stream(seed=7).feature(0).standard_normal(frame.features[0].points.shape)
        np.testing.assert_array_equal(
            a.features[0].points, frame.features[0].points + noise * 0.5
        )

    def test_moments(self):
        sigma = 0.5
        frame = _big_frame(5_000, n_points=20)
        out = jitter_control_points(frame, sigma, _stream(seed=8))
        deltas = np.concatenate(
            [o.points - f.points for o, f in zip(out.features, frame.features)]
        )
        assert abs(deltas.mean(axis=0)).max() < 0.006
        assert 0.494 <= deltas.std() <= 0.506


class TestShift:
    def test_shape_preserved(self):
        frame = random_frame(np.random.default_rng(8), n_features=5)
        out = shift_features(frame, 2.0, _stream(seed=9))
        for before, after in zip(frame.features, out.features):
            db = np.linalg.norm(before.points[:, None] - before.points[None, :], axis=2)
            da = np.linalg.norm(after.points[:, None] - after.points[None, :], axis=2)
            np.testing.assert_allclose(da, db, atol=1e-9)

    def test_rayleigh_mean_translation(self):
        n, sigma = 10_000, 1.0
        frame = _big_frame(n)
        out = shift_features(frame, sigma, _stream(seed=10))
        norms = [
            float(np.linalg.norm(a.points[0] - b.points[0]))
            for a, b in zip(out.features, frame.features)
        ]
        assert 1.22 <= np.mean(norms) <= 1.29  # sigma * sqrt(pi / 2) ~ 1.2533


class TestLocalization:
    def test_inverse_recovers_frame(self):
        frame = random_frame(np.random.default_rng(9), n_features=5)
        sigma_xy, sigma_yaw = 1.0, 5.0
        stream = _stream(seed=11)
        out = localization_noise(frame, sigma_xy, sigma_yaw, stream)
        gen = _stream(seed=11).frame()
        dx, dy = gen.standard_normal(2) * sigma_xy
        dyaw = math.radians(gen.standard_normal() * sigma_yaw)
        c, s = math.cos(-dyaw), math.sin(-dyaw)
        back = apply_rigid_transform(out, -(c * dx - s * dy), -(s * dx + c * dy), -dyaw)
        for a, b in zip(back.features, frame.features):
            np.testing.assert_allclose(a.points, b.points, atol=1e-9)

    def test_single_global_draw(self):
        frame = random_frame(np.random.default_rng(10), n_features=6)
        out = localization_noise(frame, 0.5, 0.5, _stream(seed=12))
        deltas = [a.points - b.points for a, b in zip(out.features, frame.features)]
        # a rigid frame-wide move: every feature sees the same transform, so
        # applying it to feature 0's points reproduces every other delta
        gen = _stream(seed=12).frame()
        dx, dy = gen.standard_normal(2) * 0.5
        dyaw = math.radians(gen.standard_normal() * 0.5)
        c, s = math.cos(dyaw), math.sin(dyaw)
        rot = np.array([[c, -s], [s, c]])
        for before, after in zip(frame.features, out.features):
            np.testing.assert_allclose(
                after.points, before.points @ rot.T + [dx, dy], atol=1e-12
            )


class TestPerlinWarp:
    def test_coincident_points_same_displacement(self):
        shared = np.array([[3.0, 4.0], [10.0, -5.0]])
        f1 = line_feature(n=4).with_points(
            np.vstack([shared, [[12.0, 0.0], [15.0, 1.0]]])
        )
        f2 = ring_feature(n=4).with_points(
            np.vstack([shared, [[-12.0, 0.0], [-15.0, 1.0]]])
        )
        frame = MapFrame("f", Pose2D(0, 0, 0), 90.0, (f1, f2))
        out = perlin_warp(frame, 1.0, PerlinParams(), _stream(seed=13))
        d1 = out.features[0].points[:2] - shared
        d2 = out.features[1].points[:2] - shared
        np.testing.assert_array_equal(d1, d2)

    def test_deterministic(self):
        frame = random_frame(np.random.default_rng(11), n_features=4)
        a = perlin_warp(frame, 1.0, PerlinParams(), _stream(seed=14))
        b = perlin_warp(frame, 1.0, PerlinParams(), _stream(seed=14))
        assert a == b

    @pytest.mark.parametrize("octaves", [1, 4, 9])
    def test_one_stacked_sample_matches_per_feature_sampling(self, octaves):
        # The slow form: one field call per feature. Frames of 1 to 90
        # features of 2 to 40 points, so a frame's stack also crosses the
        # kernel's chunk boundary.
        rng = np.random.default_rng(octaves)
        params = PerlinParams(grid_scale=9.0, octaves=octaves)
        for k in range(12):
            n = int(rng.integers(1, 91))
            feats = [random_feature(rng, n=int(rng.integers(3, 41)), span=60.0) for _ in range(n)]
            feats[0] = feats[0].with_points(feats[0].points[:2])
            frame = MapFrame(f"w{k}", Pose2D(0, 0, 0), 60.0, tuple(feats))
            stream = _stream(seed=k, frame=frame.frame_id, index=2)
            got = perlin_warp(frame, 1.7, params, stream)
            seed = int(stream.frame().integers(0, 1 << 62))
            warp = WarpField(params, 1.7, seed, fov_side=frame.fov_side)
            want = frame.with_features(f.with_points(f.points + warp(f.points)) for f in frame.features)
            assert got == want
            for a, b in zip(got.features, want.features):
                assert a.points.tobytes() == b.points.tobytes()
                assert not a.points.flags.writeable


class TestRecipe:
    def test_empty_recipe_identity_on_conforming_frame(self):
        frame = random_frame(np.random.default_rng(12), n_features=5)
        out = apply_recipe(frame, PerturbRecipe(mutations=(), master_seed=1))
        assert out == frame

    def test_low_all_noise_composition(self):
        recipe = low_all_noise_recipe(3)
        kinds = [m.kind for m in recipe.mutations]
        assert kinds == [
            MutationKind.DROP_FEATURES,
            MutationKind.DUPLICATE_FEATURES,
            MutationKind.WRONG_CLASS,
            MutationKind.JITTER_CONTROL_POINTS,
            MutationKind.SHIFT_FEATURES,
            MutationKind.LOCALIZATION_NOISE,
        ]
        assert all(m.p == 0.1 for m in recipe.mutations[:3])
        assert all(m.sigma == 0.1 for m in recipe.mutations[3:])
        assert recipe.mutations[5].sigma_yaw_deg == 0.1

    def test_deterministic_per_frame_and_seed(self):
        rng = np.random.default_rng(13)
        frames = [random_frame(rng, f"frame_{i}", n_features=6) for i in range(4)]
        recipe = low_all_noise_recipe(17)
        first = [apply_recipe(f, recipe) for f in frames]
        second = [apply_recipe(f, recipe) for f in reversed(frames)][::-1]
        assert first == second
        other_seed = [apply_recipe(f, low_all_noise_recipe(18)) for f in frames]
        assert first != other_seed

    def test_output_clipped_to_fov(self):
        frame = random_frame(np.random.default_rng(14), n_features=6)
        recipe = PerturbRecipe(
            mutations=(MutationSpec(MutationKind.SHIFT_FEATURES, sigma=30.0),),
            master_seed=5,
        )
        out = apply_recipe(frame, recipe)
        for feat in out.features:
            assert np.all(np.abs(feat.points) <= 45.0 + 1e-9)
            assert feat.n_points == 20

    def test_duplicates_capped_by_dims(self):
        frame = random_frame(np.random.default_rng(15), n_features=6)
        recipe = PerturbRecipe(
            mutations=(MutationSpec(MutationKind.DUPLICATE_FEATURES, p=1.0),),
            master_seed=5,
        )
        out = apply_recipe(frame, recipe, ModelDims(m=8, n_points=20))
        assert len(out.features) == 8

    def test_final_clip_keeps_slot_budget(self):
        # A zig-zag lane with every other vertex on the right FOV edge: a
        # tiny shift pushes those vertices out and the final clip splits the
        # lane into pieces, which must not overflow the slot budget.
        zigzag = np.column_stack([np.where(np.arange(20) % 2 == 0, 45.0, 44.0),
                                  np.linspace(-40.0, 40.0, 20)])
        lane = MapFeature(
            FeatureClass.LANE_CENTER, DEFAULT_INVARIANCE[FeatureClass.LANE_CENTER], zigzag
        )
        frame = _big_frame(45, n_points=20)
        frame = frame.with_features(frame.features + (lane,))
        recipe = PerturbRecipe(
            mutations=(MutationSpec(MutationKind.SHIFT_FEATURES, sigma=1e-9),),
            master_seed=3,
        )
        out = apply_recipe(frame, recipe)
        assert len(out.features) <= 50


class TestRecipeConfig:
    def test_round_trip(self):
        recipe = PerturbRecipe(
            mutations=(
                MutationSpec(MutationKind.DROP_FEATURES, p=0.2),
                MutationSpec(MutationKind.PERLIN_WARP, sigma=1.0,
                             perlin=PerlinParams(grid_scale=10.0)),
            ),
            master_seed=99,
        )
        assert recipe_from_dict(recipe_to_dict(recipe)) == recipe

    def test_unknown_keys_rejected(self):
        raw = {"master_seed": 1, "mutations": [], "bogus": True}
        with pytest.raises(ValueError, match="unknown key.*bogus"):
            recipe_from_dict(raw)
        raw = {"master_seed": 1,
               "mutations": [{"kind": "drop_features", "p": 0.1, "extra": 1}]}
        with pytest.raises(ValueError, match="unknown key.*extra"):
            recipe_from_dict(raw)
        raw = {"master_seed": 1,
               "mutations": [{"kind": "perlin_warp", "sigma": 1.0,
                              "perlin": {"grid_scale": 5.0, "nope": 2}}]}
        with pytest.raises(ValueError, match="unknown key.*nope"):
            recipe_from_dict(raw)

    def test_kind_specific_parameters_enforced(self):
        with pytest.raises(ValueError, match="'p' is required"):
            MutationSpec(MutationKind.DROP_FEATURES)
        with pytest.raises(ValueError, match="does not apply"):
            MutationSpec(MutationKind.DROP_FEATURES, p=0.5, sigma=1.0)
        with pytest.raises(ValueError, match="'sigma_yaw_deg' is required"):
            MutationSpec(MutationKind.LOCALIZATION_NOISE, sigma=0.5)
        with pytest.raises(ValueError, match="p must lie in"):
            MutationSpec(MutationKind.DROP_FEATURES, p=1.5)
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            MutationSpec(MutationKind.JITTER_CONTROL_POINTS, sigma=-0.1)

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "jitter_control_points", "sigma": float("nan")}, "sigma must be a finite number"),
        ({"kind": "shift_features", "sigma": float("inf")}, "sigma must be a finite number"),
        ({"kind": "localization_noise", "sigma": 0.1, "sigma_yaw_deg": float("nan")},
         "sigma_yaw_deg must be a finite number"),
        ({"kind": "localization_noise", "sigma": 0.1, "sigma_yaw_deg": 1e7},
         "sigma_yaw_deg must be at most 1e\\+06"),
        ({"kind": "jitter_control_points", "sigma": 1e308}, "sigma must be at most 1e\\+06"),
        ({"kind": "perlin_warp", "sigma": 1e6 * (1 + 1e-15)}, "sigma must be at most"),
        ({"kind": "drop_features", "p": float("nan")}, "p must be a finite number"),
        ({"kind": "wrong_class", "p": float("-inf")}, "p must be a finite number"),
        ({"kind": "drop_features", "p": True}, "p must be a finite number"),
        ({"kind": "shift_features", "sigma": "0.1"}, "sigma must be a finite number"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"grid_scale": float("inf")}},
         r"perlin: grid_scale must be a positive finite number"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"octaves": 0}},
         r"perlin: octaves must be an integer of at least 1"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"lacunarity": float("nan")}},
         r"perlin: lacunarity must be a positive finite number"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"octaves": 10**9}},
         r"perlin: octaves must be at most 32"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"lacunarity": 1e200, "octaves": 3}},
         r"perlin: the highest octave frequency.* must be at most 1e\+06 per meter, got inf"),
        ({"kind": "perlin_warp", "sigma": 1.0, "perlin": {"persistence": 1e200, "octaves": 2}},
         r"perlin: the largest octave amplitude.* must be at most 1e\+100, got 1e\+200"),
    ])
    def test_bounds_checked_at_load_and_named(self, entry, message):
        raw = {"master_seed": 1,
               "mutations": [{"kind": "drop_features", "p": 0.1}, entry]}
        with pytest.raises(ValueError, match=r"^recipe: mutations\[1\]: " + f".*{message}"):
            recipe_from_dict(raw)

    @pytest.mark.parametrize("seed", [1.7, True, "5", None])
    def test_master_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"^master_seed must be an integer, got {seed!r}$"):
            PerturbRecipe(mutations=(), master_seed=seed)
        with pytest.raises(ValueError, match="^recipe: master_seed must be an integer"):
            recipe_from_dict({"master_seed": seed, "mutations": []})

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**64 + 5])
    def test_master_seed_outside_the_stream_key_range(self, seed):
        # philox_stream keys by the seed modulo 2**64: 2**64 would alias 0.
        message = rf"master_seed must lie in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ValueError, match="^" + message):
            PerturbRecipe(mutations=(), master_seed=seed)
        with pytest.raises(ValueError, match="^recipe: " + message):
            recipe_from_dict({"master_seed": seed, "mutations": []})
        assert PerturbRecipe(mutations=(), master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_missing_seed_and_optional_mutations(self):
        with pytest.raises(ValueError, match=r"^recipe: missing key\(s\): master_seed$"):
            recipe_from_dict({"mutations": []})
        assert recipe_from_dict({"master_seed": 4}) == PerturbRecipe(mutations=(), master_seed=4)

    def test_dict_mutations_read_as_in_a_file(self):
        records = [{"kind": "drop_features", "p": 0.2},
                   {"kind": "perlin_warp", "sigma": 1.0, "perlin": {"grid_scale": 10.0}},
                   {"kind": "perlin_warp", "sigma": 0.5}]
        from_file = recipe_from_dict({"master_seed": 3, "mutations": records})
        assert PerturbRecipe(records, 3) == from_file
        assert PerturbRecipe(tuple(records), 3) == from_file
        mixed = PerturbRecipe([from_file.mutations[0], *records[1:]], 3)
        assert mixed == from_file
        assert all(isinstance(m, MutationSpec) for m in mixed.mutations)

    @pytest.mark.parametrize("mutations, message", [
        ({"kind": "drop_features", "p": 0.1}, "mutations must be a list"),
        ("drop_features", "mutations must be a list"),
        ([5], r"mutations\[0\]: expected an object"),
        ([{"kind": "drop_features", "p": 0.1}, {"kind": "fold"}],
         r"mutations\[1\]: unknown kind 'fold'"),
        ([{"kind": "drop_features", "p": 2}], r"mutations\[0\]: drop_features: p must lie in"),
        ([{"kind": "perlin_warp", "sigma": 1, "perlin": {"octaves": 0}}],
         r"mutations\[0\]: perlin: octaves must be an integer of at least 1"),
        ([{"kind": "drop_features", "p": 0.1, "perlin": {}}],
         r"mutations\[0\]: drop_features: parameter 'perlin' does not apply"),
    ])
    def test_python_and_file_refuse_alike(self, mutations, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            PerturbRecipe(mutations, 1)
        with pytest.raises(ValueError, match=f"^recipe: {message}"):
            recipe_from_dict({"master_seed": 1, "mutations": mutations})

    def test_sigma_ceiling_is_inclusive(self):
        spec = MutationSpec(MutationKind.JITTER_CONTROL_POINTS, sigma=MAX_SIGMA)
        assert spec.sigma == 1e6
        frame = random_frame(np.random.default_rng(4), n_features=3)
        out = jitter_control_points(frame, MAX_SIGMA, _stream())
        assert all(np.isfinite(f.points).all() for f in out.features)

    def test_perlin_defaults_filled(self):
        spec = MutationSpec(MutationKind.PERLIN_WARP, sigma=0.5)
        assert spec.perlin == PerlinParams()


# The per-feature mutations that the column passes replaced, kept as the
# oracle: one stream per feature and mutation, and one MapFeature per
# feature and mutation.


def oracle_drop(frame, p, stream):
    if p == 0.0 or not frame.features:
        return frame
    return frame.with_features(
        f for i, f in enumerate(frame.features) if not stream.feature(i).uniform() < p)


def oracle_duplicate(frame, p, m_max, stream):
    if p == 0.0 or not frame.features:
        return frame
    flags = [stream.feature(i).uniform() < p for i in range(len(frame.features))]
    budget = max(0, m_max - len(frame.features))
    out = []
    for feat, dup in zip(frame.features, flags):
        out.append(feat)
        if dup and budget > 0:
            out.append(feat)
            budget -= 1
    return frame.with_features(out)


def oracle_corrupt(frame, p, stream):
    if p == 0.0 or not frame.features:
        return frame
    out = []
    for i, feat in enumerate(frame.features):
        gen = stream.feature(i)
        if gen.uniform() < p:
            ring = ring_fault(feat.points) is None
            others = [c for c in REAL_CLASSES if c is not feat.feature_class
                      and (ring or DEFAULT_INVARIANCE[c] is not InvarianceClass.POLYGON)]
            new_class = others[int(gen.integers(len(others)))]
            feat = MapFeature(new_class, DEFAULT_INVARIANCE[new_class], feat.points,
                              feat.confidence)
        out.append(feat)
    return frame.with_features(out)


def oracle_jitter(frame, sigma, stream):
    if sigma == 0.0 or not frame.features:
        return frame
    return frame.with_features(
        f.with_points(f.points + stream.feature(i).standard_normal(f.points.shape) * sigma)
        for i, f in enumerate(frame.features))


def oracle_shift(frame, sigma, stream):
    if sigma == 0.0 or not frame.features:
        return frame
    return frame.with_features(
        f.with_points(f.points + stream.feature(i).standard_normal(2) * sigma)
        for i, f in enumerate(frame.features))


def oracle_localization(frame, sigma_xy, sigma_yaw_deg, stream):
    if sigma_xy == 0.0 and sigma_yaw_deg == 0.0:
        return frame
    gen = stream.frame()
    dx, dy = gen.standard_normal(2) * sigma_xy
    dyaw = math.radians(gen.standard_normal() * sigma_yaw_deg)
    # apply_rigid_transform: one matrix product per feature.
    return apply_rigid_transform(frame, float(dx), float(dy), dyaw)


def oracle_warp(frame, sigma, params, stream):
    if sigma == 0.0 or not frame.features:
        return frame
    seed = int(stream.frame().integers(0, 1 << 62))
    warp = WarpField(params, sigma, seed, fov_side=frame.fov_side)
    return frame.with_features(f.with_points(f.points + warp(f.points)) for f in frame.features)


def _oracle_one(frame, spec, stream, dims):
    kind = spec.kind
    if kind is MutationKind.DROP_FEATURES:
        return oracle_drop(frame, spec.p, stream)
    if kind is MutationKind.DUPLICATE_FEATURES:
        return oracle_duplicate(frame, spec.p, dims.m, stream)
    if kind is MutationKind.WRONG_CLASS:
        return oracle_corrupt(frame, spec.p, stream)
    if kind is MutationKind.JITTER_CONTROL_POINTS:
        return oracle_jitter(frame, spec.sigma, stream)
    if kind is MutationKind.SHIFT_FEATURES:
        return oracle_shift(frame, spec.sigma, stream)
    if kind is MutationKind.LOCALIZATION_NOISE:
        return oracle_localization(frame, spec.sigma, spec.sigma_yaw_deg, stream)
    return oracle_warp(frame, spec.sigma, spec.perlin, stream)


def oracle_apply_recipe(frame, recipe, dims=DEFAULT_DIMS):
    """apply_recipe as it was: each mutation on one frame, then the
    per-segment clip, then the first dims.m features."""
    frame_key = stable_key(frame.frame_id)
    current = frame
    for index, spec in enumerate(recipe.mutations):
        current = _oracle_one(current, spec, MutationStream(recipe.master_seed, frame_key, index),
                              dims)
    clipped = oracle_clip_to_fov(current)
    return clipped.with_features(clipped.features[: dims.m])


def _same_frames(got, want) -> bool:
    return got == want and all(
        a.points.tobytes() == b.points.tobytes() and not a.points.flags.writeable
        for g, w in zip(got, want) for a, b in zip(g.features, w.features))


_KINDS = list(MutationKind)
_WARP = MutationSpec(MutationKind.PERLIN_WARP, sigma=1.0,
                     perlin=PerlinParams(grid_scale=9.0, octaves=2))


def _spec(kind, rng) -> MutationSpec:
    """One mutation of a kind, with a random parameter that is sometimes 0."""
    value = float(rng.choice([0.0, 0.1, 0.5, 1.0])) if rng.random() < 0.8 else 0.0
    if kind in (MutationKind.DROP_FEATURES, MutationKind.DUPLICATE_FEATURES,
                MutationKind.WRONG_CLASS):
        return MutationSpec(kind, p=value)
    sigma = value * float(rng.choice([0.1, 1.0, 8.0]))
    if kind is MutationKind.LOCALIZATION_NOISE:
        return MutationSpec(kind, sigma=sigma, sigma_yaw_deg=float(rng.choice([0.0, 2.0, 40.0])))
    if kind is MutationKind.PERLIN_WARP:
        return MutationSpec(kind, sigma=sigma, perlin=_WARP.perlin)
    return MutationSpec(kind, sigma=sigma)


def _chunk(rng) -> list[MapFrame]:
    """Frames of 0 to 9 features, polygons among them, some reaching past
    the field of view, with fov_side differing between frames."""
    frames = []
    for k in range(int(rng.integers(1, 5))):
        fov = float(rng.choice([20.0, 60.0, 90.0]))
        feats = [random_feature(rng, n=int(rng.integers(2, 12)), span=fov * 1.4)
                 for _ in range(int(rng.integers(0, 10)))]
        frames.append(MapFrame(f"f{k}-{int(rng.integers(1000))}", Pose2D(0, 0, 0), fov,
                               tuple(feats)))
    return frames


class TestColumnsMatchTheOracle:
    """perturb_frames and every one-frame view against the per-feature
    oracle above, bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(_KINDS + ["low", "warp"]),
           st.sampled_from([1, 2, 50]))
    @settings(max_examples=120, deadline=None)
    def test_perturb_frames_is_apply_recipe_per_frame(self, seed, kind, m_max):
        rng = np.random.default_rng(seed)
        frames = _chunk(rng)
        if kind in ("low", "warp"):
            recipe = low_all_noise_recipe(seed)
            if kind == "warp":
                recipe = PerturbRecipe(recipe.mutations + (_WARP,), seed)
        else:
            recipe = PerturbRecipe((_spec(kind, rng), _spec(kind, rng)), seed)
        dims = ModelDims(m=m_max)
        want = [oracle_apply_recipe(f, recipe, dims) for f in frames]
        assert _same_frames(perturb_frames(frames, recipe, dims), want)
        assert _same_frames([apply_recipe(f, recipe, dims) for f in frames], want)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(_KINDS), st.sampled_from([1, 2, 50]))
    @settings(max_examples=120, deadline=None)
    def test_each_mutation_is_its_oracle(self, seed, kind, m_max):
        rng = np.random.default_rng(seed)
        frame = _chunk(rng)[0]
        spec = _spec(kind, rng)
        stream = MutationStream(seed, int(rng.integers(0, 2**63)), int(rng.integers(0, 9)))
        views = {
            MutationKind.DROP_FEATURES: lambda: drop_features(frame, spec.p, stream),
            MutationKind.DUPLICATE_FEATURES:
                lambda: duplicate_features(frame, spec.p, m_max, stream),
            MutationKind.WRONG_CLASS: lambda: corrupt_class(frame, spec.p, stream),
            MutationKind.JITTER_CONTROL_POINTS:
                lambda: jitter_control_points(frame, spec.sigma, stream),
            MutationKind.SHIFT_FEATURES: lambda: shift_features(frame, spec.sigma, stream),
            MutationKind.LOCALIZATION_NOISE:
                lambda: localization_noise(frame, spec.sigma, spec.sigma_yaw_deg, stream),
            MutationKind.PERLIN_WARP: lambda: perlin_warp(frame, spec.sigma, spec.perlin, stream),
        }
        got = views[kind]()
        want = _oracle_one(frame, spec, stream, ModelDims(m=m_max))
        assert _same_frames([got], [want])
        if want is frame:  # zero probability or magnitude
            assert got is frame

    def test_chunk_of_mixed_fields_of_view_and_empty_frames(self):
        rng = np.random.default_rng(7)
        frames = [random_frame(rng, "a", n_features=6, fov_side=30.0),
                  MapFrame("empty", Pose2D(0, 0, 0), 90.0, ()),
                  random_frame(rng, "b", n_features=9, fov_side=90.0),
                  random_frame(rng, "c", n_features=4, fov_side=30.0)]
        recipe = PerturbRecipe((MutationSpec(MutationKind.SHIFT_FEATURES, sigma=6.0), _WARP), 3)
        got = perturb_frames(frames, recipe)
        assert _same_frames(got, [oracle_apply_recipe(f, recipe) for f in frames])
        assert got[1].features == ()
        assert perturb_frames([], recipe) == []

    @pytest.mark.parametrize("m_max", [1, 2, 50])
    def test_chunk_of_many_features_is_the_oracle(self, m_max):
        # The property above draws small chunks; this one has over a
        # hundred features, in frames of both fields of view.
        rng = np.random.default_rng(m_max)
        frames = [random_frame(rng, f"k{i}", n_features=int(rng.integers(6, 16)),
                               fov_side=float(rng.choice([30.0, 90.0]))) for i in range(12)]
        discrete = tuple(MutationSpec(kind, p=0.3) for kind in _KINDS[:3])
        low = low_all_noise_recipe(m_max)
        dims = ModelDims(m=m_max)
        for recipe in (PerturbRecipe(discrete * 2, 4), low,
                       PerturbRecipe(low.mutations + (_WARP,), 5)):
            want = [oracle_apply_recipe(f, recipe, dims) for f in frames]
            assert _same_frames(perturb_frames(frames, recipe, dims), want)

    def test_stacked_rigid_product_is_the_per_feature_product(self):
        # A BLAS may round a matrix product by its shape; the localization
        # pass relies on a frame's stacked product matching each feature's.
        rng = np.random.default_rng(5)
        for _ in range(200):
            sizes = rng.integers(2, 41, int(rng.integers(1, 120)))
            points = rng.uniform(-60.0, 60.0, (int(sizes.sum()), 2)) * rng.choice([1e-3, 1.0, 1e6])
            dx, dy, dyaw = (float(v) for v in rng.normal(0.0, [1.0, 1.0, 0.5]))
            frame = MapFrame("r", Pose2D(0, 0, 0), 90.0, tuple(
                line_feature().with_points(q) for q in np.split(points, np.cumsum(sizes)[:-1])))
            whole = apply_rigid_transform(frame.with_features([line_feature().with_points(points)]),
                                          dx, dy, dyaw).features[0].points
            per = np.concatenate([f.points for f in apply_rigid_transform(frame, dx, dy, dyaw).features])
            assert whole.tobytes() == per.tobytes()
