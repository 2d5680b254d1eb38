from __future__ import annotations

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from priormap import (
    DEFAULT_DIMS,
    REAL_CLASSES,
    EvalConfig,
    FeatureClass,
    LossWeights,
    MutationKind,
    MutationSpec,
    PerlinParams,
    recipe_from_dict,
    recipe_to_dict,
)
from priormap.cli import _config_hash, main
from priormap.config import finite_number, read_config
from priormap.evaluation import MAX_DENSIFY
from priormap.matching import MAX_WEIGHT
from priormap.perturb import _PARAMS

README = Path(__file__).resolve().parents[1] / "README.md"


class TestFiniteNumber:
    @pytest.mark.parametrize("value", [0, -3, 2.5, 10**300, -1e308, 5e-324])
    def test_returns_the_value_unchanged(self, value):
        out = finite_number(value, "x")
        assert out is value

    @pytest.mark.parametrize("value", [
        True, False, None, "1", [1], float("nan"), float("inf"), -float("inf"), 10**400, -(10**309),
    ])
    def test_refuses(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            finite_number(value, "x")

    @pytest.mark.parametrize("value", [0, -1e-300, 0.0, float("nan"), True])
    def test_positive(self, value):
        with pytest.raises(ValueError, match="^x must be a positive finite number, got "):
            finite_number(value, "x", positive=True)
        assert finite_number(5e-324, "x", positive=True) == 5e-324


class TestReadConfig:
    def test_unknown_keys_named_sorted(self):
        with pytest.raises(ValueError, match=r"^w: unknown key\(s\): a, zeta$"):
            read_config(LossWeights, {"zeta": 1, "class_weight": 1, "a": 2}, "w")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match=r"^m: missing key\(s\): kind$"):
            read_config(MutationSpec, {"p": 0.1}, "m")

    @pytest.mark.parametrize("raw", [[], None, 3, "x"])
    def test_non_object(self, raw):
        with pytest.raises(ValueError, match="^w: expected an object$"):
            read_config(LossWeights, raw, "w")

    def test_value_errors_prefixed(self):
        with pytest.raises(ValueError, match="^w: focal_gamma must be non-negative$"):
            read_config(LossWeights, {"focal_gamma": -1}, "w")

    def test_builds_the_dataclass(self):
        assert read_config(EvalConfig, {}, "e") == EvalConfig()
        assert read_config(PerlinParams, {"octaves": 2}, "p") == PerlinParams(octaves=2)


class TestDataclassChecks:
    def test_mutation_spec_takes_a_record(self):
        spec = MutationSpec("perlin_warp", sigma=1, perlin={"octaves": 2})
        assert spec == MutationSpec(MutationKind.PERLIN_WARP, sigma=1,
                                    perlin=PerlinParams(octaves=2))
        assert spec.sigma == 1 and isinstance(spec.sigma, int)
        with pytest.raises(ValueError, match="^unknown kind 'warp'$"):
            MutationSpec("warp", sigma=1.0)
        with pytest.raises(ValueError, match=r"^perlin: unknown key\(s\): bogus$"):
            MutationSpec("perlin_warp", sigma=1.0, perlin={"bogus": 1})

    def test_eval_config_classes_from_names(self):
        config = EvalConfig(classes=["driveway", "lane_center"])
        assert config.classes == (FeatureClass.DRIVEWAY, FeatureClass.LANE_CENTER)
        with pytest.raises(ValueError, match="^classes: 'lane' is not a valid FeatureClass$"):
            EvalConfig(classes=["lane"])

    @pytest.mark.parametrize("densify", [0, 2, 64, MAX_DENSIFY])
    def test_densify_accepted(self, densify):
        assert EvalConfig(densify=densify).densify == densify

    @pytest.mark.parametrize("densify", [1, -2, 2.0, True, "4", MAX_DENSIFY + 1, 10**15])
    def test_densify_refused(self, densify):
        with pytest.raises(ValueError, match="^densify must be"):
            EvalConfig(densify=densify)

    @pytest.mark.parametrize("name", [f.name for f in fields(LossWeights)
                                      if f.name != "joint_cosine"])
    def test_weight_ceiling(self, name):
        assert getattr(LossWeights(**{name: MAX_WEIGHT}), name) == MAX_WEIGHT
        with pytest.raises(ValueError, match=f"^{name} must be at most 1e\\+06$"):
            LossWeights(**{name: MAX_WEIGHT * (1 + 2**-52)})


# Round trip: a valid config loads and dumps back to the same JSON text,
# so every value keeps its JSON type and every config hash stays as it was.

def _number(lo: float, hi: float, positive: bool = False):
    """Ints and floats in [lo, hi], mixed; above 0 if positive."""
    ints = st.integers(max(int(lo), 1 if positive else int(lo)), int(hi))
    floats = st.floats(lo, hi, exclude_min=positive, allow_nan=False, allow_infinity=False)
    return st.one_of(ints, floats)


def _record(**values):
    """Dicts with these keys in this order, each value drawn from its
    strategy (fixed_dictionaries does not keep the order)."""
    return st.tuples(*values.values()).map(lambda drawn: dict(zip(values, drawn)))


_perlin = _record(
    grid_scale=_number(1, 500, positive=True),
    octaves=st.integers(1, 8),
    persistence=_number(0, 2, positive=True),
    lacunarity=_number(0, 4, positive=True),
)
_values = {"p": _number(0, 1), "sigma": _number(0, 1e6), "sigma_yaw_deg": _number(0, 1e6),
           "perlin": _perlin}


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(list(MutationKind)))
    return {"kind": kind.value, **{name: draw(_values[name]) for name in _PARAMS[kind]}}


_recipes = _record(master_seed=st.integers(0, 2**63 - 1), mutations=st.lists(_mutation(), max_size=6))
_weights = _record(**{f.name: _number(0, 1e3) for f in fields(LossWeights) if f.name != "joint_cosine"},
                   joint_cosine=st.booleans())


@st.composite
def _eval_configs(draw):
    taus = draw(st.lists(_number(0, 50, positive=True), min_size=1, max_size=4, unique_by=float))
    names = [c.value for c in REAL_CLASSES]
    return {
        "thresholds": sorted(taus, key=float),
        "classes": draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
        "score_floor": draw(_number(-1, 1)),
        "densify": draw(st.sampled_from([0, 2]) | st.integers(2, 64)),
    }


_ROUND_TRIP = settings(max_examples=40, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


def _hash_of_run(tmp_path: Path, command: str, config: dict) -> str:
    """The manifest config hash of one run of command on empty scene files
    with config as its config file."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    argv = {
        "perturb": ["perturb", "--scenes", str(empty), "--recipe", str(path)],
        "loss": ["loss", "--pred", str(empty), "--labels", str(empty), "--weights", str(path)],
        "eval": ["eval", "--pred", str(empty), "--gt", str(empty), "--config", str(path)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads((tmp_path / "out.json.manifest.json").read_text())["config_hash"]


@given(_recipes)
@_ROUND_TRIP
def test_recipe_round_trip(tmp_path, raw):
    assert json.dumps(recipe_to_dict(recipe_from_dict(raw))) == json.dumps(raw)
    hashed = {"recipe": raw, "m_max": DEFAULT_DIMS.m}
    assert _hash_of_run(tmp_path, "perturb", raw) == _config_hash(hashed)


@given(_weights)
@_ROUND_TRIP
def test_weights_round_trip(tmp_path, raw):
    assert json.dumps(asdict(read_config(LossWeights, raw, "weights"))) == json.dumps(raw)
    hashed = {"weights": raw, "n_points": DEFAULT_DIMS.n_points, "m_max": DEFAULT_DIMS.m}
    assert _hash_of_run(tmp_path, "loss", raw) == _config_hash(hashed)


@given(_eval_configs())
@_ROUND_TRIP
def test_eval_config_round_trip(tmp_path, raw):
    # The eval config is dumped only into its hash, where thresholds have
    # always been floats; every other value keeps its JSON type.
    hashed = {**raw, "thresholds": [float(t) for t in raw["thresholds"]]}
    assert _hash_of_run(tmp_path, "eval", raw) == _config_hash(hashed)


# Doc drift: every config field and every mutation kind is documented.

def _config_docs() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("**Config files**"):text.index("## Library surface")]


@pytest.mark.parametrize("cls", [LossWeights, EvalConfig, PerlinParams])
def test_every_config_field_is_documented(cls):
    docs = _config_docs()
    for f in fields(cls):
        assert re.search(rf"`(perlin\.)?{f.name}`", docs), f"{cls.__name__}.{f.name}"


def test_readme_recipe_shows_every_kind_with_its_parameters():
    docs = _config_docs()
    example = re.search(r"\*\*Recipe file\*\*:\s*```json\n(.*?)```", docs, re.S).group(1)
    raw = json.loads(example)
    assert [m["kind"] for m in raw["mutations"]] == [k.value for k in MutationKind]
    for record in raw["mutations"]:
        assert list(record) == ["kind", *_PARAMS[MutationKind(record["kind"])]]
    assert json.dumps(recipe_to_dict(recipe_from_dict(raw))) == json.dumps(raw)
