"""Scoring: confusion matrices, classification metrics, signed error
distances, and the multiclass-to-binary threshold conversion.

Conventions, fixed once so every report means the same thing:

* Matrix rows are actual classes, columns are predicted classes.
* Per-class precision/recall/F1 are one-vs-rest. When TP+FP = 0,
  precision is 0; when a class has no actual samples (TP+FN = 0), its
  recall and F1 are undefined; F1 is 0 when precision + recall = 0.
* Macro metrics are unweighted means. Macro precision averages all K
  classes, a class never predicted counting 0; macro recall and macro F1
  average only the classes with actual samples.
* For threshold binarization the positive class is "at or below the
  boundary class", i.e. capacity lower than the next level up.
"""

from dataclasses import dataclass

import numpy as np

from .config import check
from .errors import DomainError, FormatError


_CONFUSION_SHAPE = {"labels": [str], "counts": [[int]]}


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (K, K) int64; rows = actual, cols = predicted
    labels: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DomainError(f"confusion matrix must be square, got {counts.shape}")
        if (counts < 0).any():
            raise DomainError("confusion matrix counts must be non-negative")
        labels = tuple(self.labels)
        if len(labels) != len(counts):
            raise DomainError(f"{len(labels)} labels for {len(counts)} classes")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_dict(cls, d: dict) -> "ConfusionMatrix":
        check(d, _CONFUSION_SHAPE, "confusion matrix")
        counts = d.get("counts", [])
        if d.keys() != _CONFUSION_SHAPE.keys() or any(len(row) != len(counts) for row in counts):
            raise FormatError("confusion matrix needs 'labels' and square 'counts' rows")
        return cls(counts=np.array(counts, dtype=np.int64), labels=tuple(d["labels"]))


def confusion(predictions, truths, k: int, labels) -> ConfusionMatrix:
    """Count (actual, predicted) pairs into a K x K matrix whose classes
    ``labels`` names. Class indices are 0-based and must lie in [0, k)."""
    preds = np.asarray(predictions, dtype=np.int64)
    acts = np.asarray(truths, dtype=np.int64)
    if preds.shape != acts.shape or preds.ndim != 1:
        raise DomainError(
            f"predictions and truths must be equal-length vectors, got {preds.shape} vs {acts.shape}"
        )
    if preds.size and (preds.min() < 0 or preds.max() >= k or acts.min() < 0 or acts.max() >= k):
        raise DomainError(f"labels out of range for k={k}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (acts, preds), 1)
    return ConfusionMatrix(counts=counts, labels=labels)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: tuple[dict, ...]  # label, precision, recall (may be None), f1 (may be None)
    macro_precision: float
    macro_recall: float
    macro_f1: float
    total: int


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus one-vs-rest precision/recall/F1 per class and their
    macro means. All ratios are single divisions of integer counts, so
    each value is the correctly rounded float of the exact rational."""
    if cm.total == 0:
        raise DomainError("cannot compute metrics on an empty confusion matrix")
    counts = cm.counts
    tp = np.diag(counts)
    actual = counts.sum(axis=1)  # tp + fn
    predicted = counts.sum(axis=0)  # tp + fp

    per_class = []
    precisions, recalls, f1s = [], [], []
    for c in range(cm.k):
        p = float(tp[c]) / float(predicted[c]) if predicted[c] > 0 else 0.0
        precisions.append(p)
        if actual[c] > 0:
            r = float(tp[c]) / float(actual[c])
            fn = actual[c] - tp[c]
            fp = predicted[c] - tp[c]
            # F1 = 2PR/(P+R) reduces to 2TP/(2TP+FP+FN), whose denominator
            # is at least TP+FN > 0; 0 when P+R = 0.
            f1 = float(2 * tp[c]) / float(2 * tp[c] + fp + fn)
            recalls.append(r)
            f1s.append(f1)
        else:
            r = None
            f1 = None
        per_class.append(
            {"label": cm.labels[c], "precision": p, "recall": r, "f1": f1}
        )

    return MetricsReport(
        accuracy=float(tp.sum()) / float(cm.total),
        per_class=tuple(per_class),
        macro_precision=sum(precisions) / len(precisions),
        macro_recall=sum(recalls) / len(recalls) if recalls else 0.0,
        macro_f1=sum(f1s) / len(f1s) if f1s else 0.0,
        total=cm.total,
    )


@dataclass(frozen=True)
class ErrorDistribution:
    """Probability mass over the signed class distance d = predicted -
    actual; negative d means the prediction was lower than the truth."""

    mass: dict[int, float]
    total: int


def error_distribution(cm: ConfusionMatrix) -> ErrorDistribution:
    if cm.total == 0:
        raise DomainError("cannot compute an error distribution on an empty matrix")
    k = cm.k
    mass = {}
    for d in range(-(k - 1), k):
        count = int(np.trace(cm.counts, offset=d))
        mass[d] = count / cm.total
    return ErrorDistribution(mass=mass, total=cm.total)


@dataclass(frozen=True)
class BinarizationLevel:
    """One threshold: classes 1..boundary count as positive ("capacity
    lower than" the threshold tonnage); boundary is a 1-based class index
    in [1, K-1] so both sides are non-empty."""

    level: int
    threshold_tons: float
    boundary: int


# Thresholds used for the 5-to-7-class capacity datasets; level i splits
# below/above the i-th class.
DEFAULT_LEVELS = (
    BinarizationLevel(level=1, threshold_tons=10.0, boundary=1),
    BinarizationLevel(level=2, threshold_tons=15.0, boundary=2),
    BinarizationLevel(level=3, threshold_tons=20.0, boundary=3),
    BinarizationLevel(level=4, threshold_tons=27.0, boundary=4),
    BinarizationLevel(level=5, threshold_tons=36.0, boundary=5),
)


@dataclass(frozen=True)
class BinaryReport:
    level: int
    threshold_tons: float
    boundary: int
    matrix: ConfusionMatrix  # 2x2: rows/cols ordered (positive, negative)
    accuracy: float
    precision: float
    recall: float
    f1: float
    positive: str = "lower than threshold"  # the class precision, recall and f1 describe


def binarize(cm: ConfusionMatrix, level: BinarizationLevel) -> BinaryReport:
    """Collapse a K x K matrix to the 2x2 matrix of one threshold.

    TP aggregates all cells with actual and predicted at or below the
    boundary, TN all cells strictly above on both axes; the diagonal
    always lands in TP or TN, so binary accuracy can never fall below
    multiclass accuracy.
    """
    b = level.boundary
    if not 1 <= b <= cm.k - 1:
        raise DomainError(f"boundary {b} out of range for {cm.k} classes")
    low = cm.counts[:b, :]
    high = cm.counts[b:, :]
    tp = int(low[:, :b].sum())
    fn = int(low[:, b:].sum())
    fp = int(high[:, :b].sum())
    tn = int(high[:, b:].sum())
    matrix = ConfusionMatrix(
        counts=np.array([[tp, fn], [fp, tn]], dtype=np.int64),
        labels=(f"<= class {b}", f"> class {b}"),
    )
    rep = metrics(matrix)
    pos = rep.per_class[0]
    return BinaryReport(
        level=level.level, threshold_tons=level.threshold_tons, boundary=b,
        matrix=matrix,
        accuracy=rep.accuracy,
        precision=pos["precision"],
        recall=pos["recall"] if pos["recall"] is not None else 0.0,
        f1=pos["f1"] if pos["f1"] is not None else 0.0,
    )
