"""priormap: vectorized HD map prior toolkit.

Deterministic building blocks for studying prior-informed online mapping
without training a model: synthetic prior perturbations, the single-stage
permutation-invariant set-matching loss, Chamfer-distance mAP evaluation,
and map-version change mining.
"""

__version__ = "0.1.0"

from .changes import (
    Box,
    ChangeReport,
    MapVersion,
    ScenePair,
    SceneWindow,
    build_scene_pair,
    change_regions,
    diff_maps,
    mine_frames,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    average_precision,
    chamfer_distance,
    chamfer_matrix,
    chamfer_pairs,
    evaluate,
    match_predictions,
)
from .matching import (
    LabelSet,
    LossMatrices,
    LossWeights,
    MatchResult,
    MatchedLoss,
    PredictionSet,
    combined_cost_matrix,
    focal_cost_matrix,
    hungarian_assign,
    label_set_from_frame,
    matched_loss,
    point_cost_matrix,
    point_cost_total,
    prediction_set_from_frame,
    valid_permutations,
)
from .model import (
    DEFAULT_DIMS,
    DEFAULT_INVARIANCE,
    REAL_CLASSES,
    DegenerateFeatureError,
    FeatureClass,
    FrameOverflowError,
    InvarianceClass,
    MapFeature,
    MapFrame,
    ModelDims,
    Pose2D,
    apply_rigid_transform,
    clip_to_fov,
    pad_to_fixed,
    resample_polyline,
    resample_polylines,
)
from .perlin import PerlinParams, WarpField
from .perturb import (
    MutationKind,
    MutationSpec,
    PerturbRecipe,
    apply_recipe,
    corrupt_class,
    drop_features,
    duplicate_features,
    jitter_control_points,
    localization_noise,
    low_all_noise_recipe,
    perlin_warp,
    recipe_from_dict,
    recipe_to_dict,
    shift_features,
)
from .rng import MutationStream, philox_stream, stable_key
from .scene_io import (
    SceneFormatError,
    read_map_version,
    read_scenes,
    read_trajectory,
    write_map_version,
    write_scenes,
    write_trajectory,
)
