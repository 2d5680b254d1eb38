"""priormap: vectorized HD map prior toolkit.

Deterministic building blocks for studying prior-informed online mapping
without training a model: synthetic prior perturbations, the single-stage
permutation-invariant set-matching loss, Chamfer-distance mAP evaluation,
and map-version change mining.

Importing the package loads none of its layers: each public name below is
imported from its module on first access (PEP 562), so a `priormap` run
pays only for the layers its subcommand calls.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them; cli binds from it too.
_EXPORTS = {
    "changes": (
        "Box", "ChangeReport", "MapVersion", "ScenePair", "SceneWindow", "build_scene_pair",
        "build_scene_pairs", "change_regions", "diff_maps", "mine_frames",
    ),
    "evaluation": (
        "EvalConfig", "EvalReport", "average_precision", "chamfer_distance", "chamfer_matrix",
        "chamfer_pairs", "evaluate", "match_predictions",
    ),
    "matching": (
        "LabelSet", "LossMatrices", "LossWeights", "MatchResult", "MatchedLoss", "PredictionSet",
        "combined_cost_matrix", "focal_cost_matrix", "hungarian_assign", "label_set_from_frame",
        "matched_loss", "point_cost_matrix", "point_cost_total", "prediction_set_from_frame",
        "valid_permutations",
    ),
    "model": (
        "DEFAULT_DIMS", "DEFAULT_INVARIANCE", "REAL_CLASSES", "DegenerateFeatureError",
        "FeatureClass", "FrameOverflowError", "InvarianceClass", "MapFeature", "MapFrame",
        "ModelDims", "Pose2D", "apply_rigid_transform", "clip_to_fov", "pad_to_fixed",
        "resample_polyline", "resample_polylines",
    ),
    "perlin": ("PerlinParams", "WarpField"),
    "perturb": (
        "MutationKind", "MutationSpec", "PerturbRecipe", "apply_recipe", "corrupt_class",
        "drop_features", "duplicate_features", "jitter_control_points", "localization_noise",
        "low_all_noise_recipe", "perlin_warp", "recipe_from_dict", "recipe_to_dict",
        "shift_features",
    ),
    "render": ("frame_svg", "write_frame_svg"),
    "rng": ("MutationStream", "philox_stream", "stable_key"),
    "scene_io": (
        "SceneFormatError", "read_map_version", "read_scenes", "read_trajectory",
        "write_map_version", "write_scenes", "write_trajectory",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, imported from its module and kept in the package
    namespace; or one of the modules above, imported."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
