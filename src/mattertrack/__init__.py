"""Hierarchical generative clustering and tracking of moving point matter."""

from .types import (
    Assignments,
    HyperParams,
    ModelState,
    NumericalDomainError,
    Observations,
    ValidationError,
)
from .model import log_joint, sample_forward
from .distributions import TransformCandidates, make_transform_candidates
from .gibbs import SweepSchedule, Step, Block, full_sweep_schedule, sweep, tracking_frame_schedule
from .initialization import data_dependent_hyperparams, init_state, kabsch_align, kmeans_pp
from .sva import sva_cluster, sva_loss
from .tracker import TrackConfig, propagate, track
from .synth import (
    Body,
    SceneSpec,
    flow_split_proposal,
    knn_same_object,
    make_rigid_scene,
    separated_mixture_scene,
)
from .evaluation import adjusted_rand_index, matter_weighted_jaccard, probe_point_eval
from .geweke import default_check_hyper, run_geweke

__version__ = "0.1.0"

__all__ = [
    "Assignments",
    "Block",
    "Body",
    "HyperParams",
    "ModelState",
    "NumericalDomainError",
    "Observations",
    "SceneSpec",
    "Step",
    "SweepSchedule",
    "TrackConfig",
    "TransformCandidates",
    "ValidationError",
    "adjusted_rand_index",
    "data_dependent_hyperparams",
    "default_check_hyper",
    "flow_split_proposal",
    "full_sweep_schedule",
    "init_state",
    "kabsch_align",
    "kmeans_pp",
    "knn_same_object",
    "log_joint",
    "make_rigid_scene",
    "make_transform_candidates",
    "matter_weighted_jaccard",
    "probe_point_eval",
    "propagate",
    "run_geweke",
    "sample_forward",
    "separated_mixture_scene",
    "sva_cluster",
    "sva_loss",
    "sweep",
    "track",
    "tracking_frame_schedule",
]
