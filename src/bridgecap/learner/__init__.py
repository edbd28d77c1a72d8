from .network import (
    ArchitectureDescriptor,
    Network,
    micro_cnn,
    network_from_checkpoint,
    normalize_descriptor,
)
from .checkpoint import (
    Checkpoint,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
)
from .train import (
    EarlyStopper,
    TrainConfig,
    evaluate,
    fit,
    load_side,
    predict,
    predict_proba,
    train,
)

__all__ = [
    "ArchitectureDescriptor",
    "Checkpoint",
    "EarlyStopper",
    "Network",
    "TrainConfig",
    "checkpoint_from_bytes",
    "checkpoint_to_bytes",
    "evaluate",
    "fit",
    "load_checkpoint",
    "load_side",
    "make_checkpoint",
    "micro_cnn",
    "network_from_checkpoint",
    "normalize_descriptor",
    "predict",
    "predict_proba",
    "save_checkpoint",
    "train",
]
