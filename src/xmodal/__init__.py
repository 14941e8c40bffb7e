"""Text-bridged cross-modal distillation on a synthetic multimodal world.

A student embedding function over raw audio features is aligned to a
frozen teacher text space with a contrastive objective; audio-to-image
retrieval then works without any audio-image supervision, because both
modalities meet in the teacher space. The package provides the world
generator, the objective with exact gradients, the trainer, retrieval
and classification metrics, three comparison baselines, and a CLI that
chains them into reproducible experiments.
"""

from .baselines import (
    cascaded_zero_shot_baseline,
    random_projection_baseline,
    text_mapping_baseline,
    text_mapping_rankings,
)
from .embeddings import EmbeddingSet, Modality, normalize_rows, similarity_matrix
from .errors import (
    ConfigFileError,
    ConfigTypeError,
    DimensionMismatchError,
    EmptyGalleryError,
    FileFormatError,
    InvalidConfigError,
    KTooLargeError,
    MissingPrototypeError,
    NonFiniteLossError,
    NoRelevantItemsError,
    PayloadTooShortError,
    ShapeMismatchError,
    SpeciesMismatchError,
    TooFewItemsError,
    UnknownKeyError,
    XmodalError,
    ZeroVectorError,
)
from .evaluation import (
    EvalReport,
    RankedList,
    chance_map_oracle,
    class_prototypes,
    knn_classify,
    map_from_ranked,
    map_retrieval,
    nearest_prototype,
    zero_shot_classify,
)
from .objective import LossOutput, distill_loss, distill_loss_symbolic_check
from .pipeline import ExperimentResult, run_experiment, teacher_prototype_set
from .runconfig import EvalConfig, RunConfig, adapter_config_for, config_hash, parse_config
from .storage import load_params, read_embedding_set, save_params, write_embedding_set
from .trainer import (
    AdapterConfig,
    TrainConfig,
    TrainReport,
    adapter_forward,
    init_params,
    train_adapter,
)
from .world import World, WorldConfig, generate_world, split_rows

__version__ = "0.1.0"
