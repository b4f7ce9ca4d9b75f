"""chainviews: curate synthetic cross-modal views under lossy generators.

A small numpy library for studying what happens when labeled data in one
modality is expanded by chaining generative channels back and forth between
modalities: information about the label can only decay along the chain, so
the pipeline trains a throwaway teacher classifier each round to keep the
views that still carry label signal, then trains a set-attention student on
the survivors. Includes exact information-theoretic diagnostics for discrete
worlds, mode-collapse benchmark channels, GMM-based diversity measurement,
and a deterministic experiment harness.
"""

__version__ = "0.1.0"

from .channels import (
    BenchmarkWorld,
    ChannelError,
    ComposedChannel,
    DiscreteChannel,
    LinearGaussianChannel,
    MixtureChannel,
    Port,
    PrototypeCollapseChannel,
    PRESET_NAMES,
    Streams,
    generate_benchmark,
    lossy_world_preset,
    sample_channel,
    stack_views,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_world,
    channel_from_spec,
    load_experiment_data,
    parse_config,
)
from .datamodel import (
    DatasetFormatError,
    DatasetSchema,
    Instance,
    Pool,
    ViewBatch,
    ViewSpec,
    discrete_view,
    read_dataset,
    vector_view,
    write_dataset,
)
from .diversity import (
    DiversityError,
    GmmModel,
    StageDiversity,
    diversity_report,
    fit_gmm,
    generalized_variance,
    pca_reduce,
    sample_gmm,
    total_covariance,
)
from .info import (
    BoundReport,
    DataProcessingViolation,
    DiscreteJoint,
    DiscreteLabelWorld,
    InfoError,
    MarkovChainSpec,
    binary_symmetric_world,
    chain_mi_profile,
    entropy,
    exact_mi,
    mi_lower_bound,
    random_label_world,
    verify_classifier_bound,
)
from .models import (
    AdamW,
    ModalityError,
    StudentModel,
    TeacherModel,
    TrainConfig,
    TrainingDivergedError,
    UnimodalModel,
    grad_check,
    train,
)
from .pipeline import (
    CONDITIONS,
    InstanceSelectionRecord,
    PipelineConfig,
    PipelineError,
    RoundRecord,
    RunReport,
    RunResult,
    Scorer,
    ablation_table,
    compute_metrics,
    condition_config,
    config_hash,
    curate,
    extract_stages,
    infer,
    run_ablation,
    run_pipeline,
    save_report,
)
from .rng import derive_rng, derive_rngs, derive_seed_sequence
from .selection import (
    POLICY_NAMES,
    RandomLinearEmbedder,
    SelectionError,
    keep_count,
)
from .verification import CheckResult, all_passed, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
