"""Training loop: minibatch SGD with momentum, early stopping on
validation accuracy, best-epoch checkpointing.

The stopper counts consecutive epochs whose improvement over the best
validation accuracy so far stays below ``min_delta``; once the streak
reaches ``patience`` training halts. The returned checkpoint always
holds the weights of the epoch with the highest validation accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DomainError, TrainingDivergedError
from ..imaging import load_batch
from .checkpoint import Checkpoint, make_checkpoint
from .network import Network


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("learning rate, batch size, and max epochs must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience < 1 or not 0 <= self.min_delta < math.inf or self.seed < 0:
            raise ConfigError("patience must be >= 1, and min_delta and seed finite and >= 0")


class EarlyStopper:
    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = -math.inf
        self.streak = 0

    def update(self, val_acc: float) -> bool:
        """Record one epoch's validation accuracy; True means stop now."""
        improvement = val_acc - self.best
        if improvement >= self.min_delta:
            self.streak = 0
        else:
            self.streak += 1
        if val_acc > self.best:
            self.best = val_acc
        return self.streak >= self.patience


_GROUP = 32  # images per group of chunks whose trunk runs as one hand-off


def predict_proba(net: Network, x, batch_size: int = 8) -> np.ndarray:
    """Class probabilities for ``x``: the bytes ``net.forward`` gives for
    ``ceil(n / batch_size)`` near-equal chunks, concatenated, whatever the
    number of layer helper threads. Zero rows give a (0, classes) array
    in the network's dtype, after the same input-shape check.

    The network's trunk (see ``Network``) runs over groups of whole
    chunks, about ``_GROUP`` images, each slice of images going through
    every trunk layer in one hand-off. The head runs over each chunk on
    the calling thread while the helpers already run the next group's
    trunk, so the trunk output of two groups at most exists; uint8
    pixels are scaled in the trunk's slices, a few images at a time, and
    the peak traced over 480 64-px images fell from 6.8 to 5.7 MiB when
    they stopped being scaled a group at a time. A 64-px ``micro_cnn``
    took 0.44-0.58 ms per image this way, against 0.55-0.78 ms when each
    chunk went through ``net.forward`` (600 images, six alternating runs
    each on a shared 2-vCPU Xeon, one OpenBLAS thread and so one helper).

    Near-equal chunks leave no one-row remainder when ``n >= 2`` and
    ``batch_size >= 3``; NumPy sends a one-row matmul through gemv,
    whose rounding differs from gemm's.
    """
    x = np.asarray(x)
    if len(x) == 0:
        net._check_input(x)
        return np.empty((0, net.descriptor.num_classes), dtype=net.dtype)
    chunks = np.array_split(x, -(-len(x) // batch_size))
    per_group = max(1, _GROUP // batch_size)
    groups = [chunks[i : i + per_group] for i in range(0, len(chunks), per_group)]
    probs = []
    for group, features in zip(groups, net._trunk_features(groups)):
        cuts = np.cumsum([len(chunk) for chunk in group[:-1]])
        probs.extend(net._head(rows) for rows in np.split(features, cuts))
    return np.concatenate(probs)


def predict(net: Network, x) -> np.ndarray:
    return predict_proba(net, x).argmax(axis=1)


def evaluate(net: Network, x, y) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a held-out set."""
    y = np.asarray(y, dtype=np.int64)
    probs = predict_proba(net, x)
    acc = float(np.mean(probs.argmax(axis=1) == y, dtype=np.float64))
    eps = np.finfo(np.float64).tiny
    loss = float(-np.mean(np.log(probs[np.arange(len(y)), y].astype(np.float64) + eps)))
    return acc, loss


def fit(
    net: Network,
    x_train,
    y_train,
    x_val,
    y_val,
    config: TrainConfig,
    evaluate_fn=None,
) -> Checkpoint:
    """Run SGD-with-momentum epochs until max_epochs or early stop.

    A uint8 ``x_train`` or ``x_val`` is pixels and is kept as it is: the
    network scales each batch it is handed (see ``Network``). Any other
    ``x_train`` is cast to the network's dtype once.

    ``evaluate_fn(net, x_val, y_val) -> (acc, loss)`` computes the
    per-epoch validation numbers; injectable so stopping behaviour can
    be driven by a canned sequence in tests.

    ConfigError, before the first epoch, when the learning rate is 0 or
    infinite in the network's dtype (``1e-50`` or ``1e300`` in float32).
    TrainingDivergedError when a batch's loss or an epoch's validation
    loss is not finite: the last update of an epoch is first seen by its
    validation pass.
    """
    x_train = np.asarray(x_train)
    if x_train.dtype != np.uint8:
        x_train = x_train.astype(net.dtype, copy=False)
    y_train = np.asarray(y_train, dtype=np.int64)
    n = len(x_train)
    if n == 0:
        raise DomainError("training set is empty")
    if len(x_val) == 0:
        raise DomainError("validation set is empty")
    if y_train.size and (y_train.min() < 0 or y_train.max() >= net.descriptor.num_classes):
        raise DomainError("training labels out of range for the model head")
    with np.errstate(over="ignore"):  # a rate beyond float32 becomes inf, rejected here
        lr = net.dtype.type(config.learning_rate)
    if not 0 < lr < np.inf:
        raise ConfigError(f"learning rate {config.learning_rate} is {lr} in {net.dtype}, "
                          f"not finite and > 0")
    if evaluate_fn is None:
        evaluate_fn = evaluate

    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(p) for p in net.parameters()]
    history = {"train_acc": [], "train_loss": [], "val_acc": [], "val_loss": []}
    stopper = EarlyStopper(config.patience, config.min_delta)
    best_epoch = 0
    best_weights = net.get_weights()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, preds = net.loss_and_grads(x_train[batch], y_train[batch])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {start // config.batch_size}; "
                    f"lr={config.learning_rate} momentum={config.momentum}"
                )
            for vel, param, grad in zip(velocity, net.parameters(), net.gradients()):
                vel *= net.dtype.type(config.momentum)
                vel -= lr * grad
                param += vel
            loss_sum += loss * len(batch)
            correct += int((preds == y_train[batch]).sum())

        val_acc, val_loss = evaluate_fn(net, x_val, y_val)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(
                f"non-finite validation loss {val_loss} at epoch {epoch}; "
                f"lr={config.learning_rate} momentum={config.momentum}"
            )
        history["train_acc"].append(correct / n)
        history["train_loss"].append(loss_sum / n)
        history["val_acc"].append(float(val_acc))
        history["val_loss"].append(float(val_loss))

        if val_acc > stopper.best:
            best_epoch = epoch
            best_weights = None  # freed first, so one copy is held at a time
            best_weights = net.get_weights()
        if stopper.update(val_acc):
            break

    net.set_weights(best_weights)
    del best_weights  # make_checkpoint takes a copy of its own
    history["best_epoch"] = best_epoch
    history["stopped_epoch"] = epoch
    return make_checkpoint(net, history)


def load_side(descriptor, split, side: str, image_root) -> tuple[np.ndarray, np.ndarray]:
    """The ``side`` ("train" or "test") of a DatasetSplit as the uint8
    batch ``imaging.load_batch`` gives for ``descriptor``'s colour mode
    and image size, and its int64 labels: the split's classes (1-based,
    possibly sparse) mapped in sorted order onto the head's label
    positions. DomainError, before any image is read, when the side has
    no items or the split's class count is not the head's width."""
    items = getattr(split, side)
    if not items:
        raise DomainError(f"split has no {side} items")
    classes = split.classes
    if len(classes) != descriptor.num_classes:
        raise DomainError(
            f"split has {len(classes)} classes but the model head is "
            f"{descriptor.num_classes} wide"
        )
    index = {cls: i for i, cls in enumerate(classes)}
    x = load_batch([item.image_path for item in items], image_root, descriptor.colour_mode,
                   descriptor.image_size())
    return x, np.array([index[item.cls] for item in items], dtype=np.int64)


def train(net: Network, split, config: TrainConfig, image_root) -> Checkpoint:
    """Train on a DatasetSplit, validating on its test side, with the
    images under ``image_root`` as ``net``'s descriptor reads them (see
    ``load_side``). Each side is one uint8 batch, so its pixels are held
    once, at 1 byte per value."""
    x_train, y_train = load_side(net.descriptor, split, "train", image_root)
    x_val, y_val = load_side(net.descriptor, split, "test", image_root)
    return fit(net, x_train, y_train, x_val, y_val, config)
