"""Reinforcement label selection for stance and veracity annotation.

The package trains a retain/discard selector over annotations produced by
pluggable stance and veracity backends, using sign-of-cosine hybrid rewards,
and exports the retained annotations as fine-tuning data.
"""

from .annotators import (
    BackendConfig,
    FineTuneExample,
    HttpAnnotator,
    OracleAnnotator,
    StanceAnnotation,
    VeracityAnnotation,
    annotate_claim,
    annotate_post,
    export_finetune_set,
    fine_tune,
    make_backend,
)
from .config import RunConfig, load_config, resolve_config
from .corpus import (
    Claim,
    Dataset,
    Post,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    mask_nonseed_labels,
    save_dataset,
    split_seeds,
)
from .engine import EpochReport, Trainer, Trajectory
from .errors import (
    AnnotatorError,
    CheckpointError,
    ClaimsiftError,
    ConfigError,
    DatasetError,
    EmbedError,
    EmptyEvaluation,
    ParseError,
    PolicyError,
    PoolExhausted,
    RewardError,
    StateError,
)
from .labels import STANCES, STANCE_NAMES, VERACITIES, VERACITY_NAMES, one_hot
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    TaskMetrics,
    evaluate,
    macro_f1,
    micro_f1,
    per_class_f1,
)
from .policy import (
    MovingBaseline,
    OptimizerState,
    PolicyParams,
    RewardBaseline,
    Step,
    forward,
    gradients,
    init_params,
    load_checkpoint,
    objective,
    reinforce_update,
    sample_action,
)
from .reward import (
    ReferenceStanceStats,
    RewardOutcome,
    centered_cosine,
    labeled_claim_reward,
    sign_similarity,
    unlabeled_claim_reward,
)
from .selection import ClaimSampler, PostSampler, TerminationTracker
from .state import (
    ContextAccumulator,
    EmbedConfig,
    HashedEmbedder,
    PostDecider,
    ServiceEmbedder,
    build_embedder,
    build_state,
    pack_claim_text,
    pack_post_text,
)

__version__ = "0.1.0"
