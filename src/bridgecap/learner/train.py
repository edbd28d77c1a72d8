"""Training loop: minibatch SGD with momentum, early stopping on
validation accuracy, best-epoch checkpointing.

The stopper counts consecutive epochs whose improvement over the best
validation accuracy so far stays below ``min_delta``; once the streak
reaches ``patience`` training halts. The returned checkpoint always
holds the weights of the epoch with the highest validation accuracy.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .._records import as_text
from ..errors import ConfigError, DomainError, TrainingDivergedError
from .checkpoint import Checkpoint, make_checkpoint
from .network import Network, linear_head


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
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("learning rate, batch size, and max epochs must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience < 1 or self.min_delta < 0:
            raise ConfigError("patience must be >= 1 and min_delta >= 0")


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


def predict_proba(net: Network, x, batch_size: int = 256) -> np.ndarray:
    x = np.asarray(x)
    chunks = [net.forward(x[i : i + batch_size]) for i in range(0, len(x), batch_size)]
    return np.concatenate(chunks) if chunks else np.empty((0, net.descriptor.num_classes))


def predict(net: Network, x, batch_size: int = 256) -> np.ndarray:
    return predict_proba(net, x, batch_size).argmax(axis=1)


def evaluate(net: Network, x, y, batch_size: int = 256) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a held-out set."""
    y = np.asarray(y, dtype=np.int64)
    probs = predict_proba(net, x, batch_size)
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

    ``evaluate_fn(net, x_val, y_val) -> (acc, loss)`` computes the
    per-epoch validation numbers; injectable so stopping behaviour can
    be driven by a canned sequence in tests.
    """
    x_train = np.asarray(x_train, dtype=net.dtype)
    y_train = np.asarray(y_train, dtype=np.int64)
    n = len(x_train)
    if n == 0:
        raise DomainError("training set is empty")
    if y_train.size and (y_train.min() < 0 or y_train.max() >= net.descriptor.num_classes):
        raise DomainError("training labels out of range for the model head")
    if evaluate_fn is None:
        evaluate_fn = evaluate

    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(p) for p in net.parameters()]
    history = {"train_acc": [], "train_loss": [], "val_acc": [], "val_loss": []}
    stopper = EarlyStopper(config.patience, config.min_delta)
    best_acc = -math.inf
    best_epoch = 0
    best_weights = net.get_weights()
    stopped_epoch = 0

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
                vel -= net.dtype.type(config.learning_rate) * grad
                param += vel
            loss_sum += loss * len(batch)
            correct += int((preds == y_train[batch]).sum())

        val_acc, val_loss = evaluate_fn(net, x_val, y_val)
        history["train_acc"].append(correct / n)
        history["train_loss"].append(loss_sum / n)
        history["val_acc"].append(float(val_acc))
        history["val_loss"].append(float(val_loss))

        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_weights = net.get_weights()
        stopped_epoch = epoch
        if stopper.update(val_acc):
            break

    net.set_weights(best_weights)
    history["best_epoch"] = best_epoch
    history["stopped_epoch"] = stopped_epoch
    return make_checkpoint(net, history)


def train(net: Network, split, config: TrainConfig, data_source) -> Checkpoint:
    """Train on a DatasetSplit: ``data_source(image_path)`` yields the
    (c, h, w) tensor for one image. Split classes (1-based, possibly
    sparse) are mapped onto the head's label positions in sorted order
    and must match its width."""
    classes = sorted({item.cls for item in split.train} | {item.cls for item in split.test})
    if len(classes) != net.descriptor.num_classes:
        raise DomainError(
            f"split has {len(classes)} classes but the model head is "
            f"{net.descriptor.num_classes} wide"
        )
    index = {cls: i for i, cls in enumerate(classes)}

    def materialize(items):
        xs = np.stack([data_source(item.image_path) for item in items]) if items else \
            np.empty((0, *net.descriptor.input_shape), dtype=net.dtype)
        ys = np.array([index[item.cls] for item in items], dtype=np.int64)
        return xs, ys

    x_train, y_train = materialize(split.train)
    x_val, y_val = materialize(split.test)
    return fit(net, x_train, y_train, x_val, y_val, config)


# --- feature files -----------------------------------------------------------

def read_features_csv(source) -> tuple[list[str], np.ndarray, list[str]]:
    """Parse ``id,v1..vN,label`` rows into (ids, float matrix, labels).
    A ragged row fails with its id; a non-numeric first data row is
    treated as a header and skipped."""
    rows = [r for r in csv.reader(io.StringIO(as_text(source, "utf-8"))) if r]
    if not rows:
        raise ConfigError("feature file is empty")

    def numeric(row):
        try:
            [float(v) for v in row[1:-1]]
            return True
        except ValueError:
            return False

    if rows and not numeric(rows[0]):
        rows = rows[1:]
    if not rows:
        raise ConfigError("feature file holds no data rows")

    width = len(rows[0])
    if width < 3:
        raise ConfigError("feature rows need an id, at least one value, and a label")
    ids, vectors, labels = [], [], []
    for row in rows:
        if len(row) != width:
            raise ConfigError(
                f"feature row {row[0]!r} has {len(row) - 2} values, expected {width - 2}"
            )
        ids.append(row[0])
        try:
            vectors.append([float(v) for v in row[1:-1]])
        except ValueError as exc:
            raise ConfigError(f"feature row {row[0]!r}: {exc}") from exc
        labels.append(row[-1])
    return ids, np.array(vectors, dtype=np.float32), labels


def train_head_on_features(
    features,
    labels=None,
    config: TrainConfig = TrainConfig(),
    split_fraction: float = 0.8,
) -> Checkpoint:
    """Fit a linear+softmax head on fixed feature vectors, the stand-in
    for transfer learning from an external pretrained backbone.

    ``features`` is either a matrix (with ``labels`` alongside) or
    feature-file CSV text. Holds out a seeded stratified share for
    validation under the same early-stopping contract as image training.
    """
    if labels is None:
        _, x, labels = read_features_csv(features)
    else:
        x = np.asarray(features, dtype=np.float32)
        if x.ndim != 2:
            raise DomainError(f"feature matrix must be 2-D, got shape {x.shape}")
        labels = list(labels)
    if len(labels) != len(x):
        raise DomainError(f"{len(labels)} labels for {len(x)} feature rows")

    class_names = sorted(set(str(v) for v in labels))
    index = {name: i for i, name in enumerate(class_names)}
    y = np.array([index[str(v)] for v in labels], dtype=np.int64)

    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = [], []
    for cls in range(len(class_names)):
        members = np.flatnonzero(y == cls)
        if len(members) < 2:
            raise DomainError(f"class {class_names[cls]!r} has {len(members)} row(s); need >= 2")
        perm = rng.permutation(len(members))
        cut = math.floor(split_fraction * len(members))
        train_idx.extend(members[perm[:cut]])
        val_idx.extend(members[perm[cut:]])
    train_idx = np.array(sorted(train_idx))
    val_idx = np.array(sorted(val_idx))

    net = Network(linear_head(x.shape[1], class_names), seed=config.seed)
    return fit(net, x[train_idx], y[train_idx], x[val_idx], y[val_idx], config)
