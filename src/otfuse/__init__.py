"""Fuse two same-architecture networks by transport-aligned weight averaging."""

from .data import (
    Dataset,
    DomainMixtureConfig,
    concat_datasets,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
)
from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    DataFormatError,
    NumericalError,
    OtfuseError,
    SinkhornUnderflowError,
    ValidationError,
)
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
from .fusion import (
    AlignmentOptions,
    AlignmentResult,
    align,
    direct_average,
    fuse,
)
from .nets import (
    Checkpoint,
    CheckpointMeta,
    LayerSpec,
    LayerWeights,
    TrainConfig,
    accuracy,
    finetune,
    finetune_stack,
    forward_batch,
    init_checkpoint,
    interpolate,
    loss,
    loss_gradients,
    make_checkpoint,
    train,
)
from .scoring import (
    EditCounts,
    Hypothesis,
    HypothesisSet,
    LandscapeCurve,
    confidence_select,
    edit_distance,
    ensemble_logits,
    error_rate,
    landscape,
    oracle_select,
)
from .serialize import load_checkpoint, save_checkpoint
from .transport import (
    OtSolution,
    brute_force_ot,
    identity_map,
    ot_objective,
    row_distance_matrix,
    solve_exact,
    solve_sinkhorn,
    validate_transport_map,
)

__version__ = "0.1.0"
