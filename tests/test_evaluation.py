from fractions import Fraction

import numpy as np
import pytest

from bridgecap import evaluation as ev
from bridgecap.errors import DomainError, FormatError
from helpers import gen_confusions


# --- independent oracle: per-sample counting with exact rationals ------------

def expand_to_samples(counts):
    """Turn a count matrix back into explicit (actual, predicted) pairs."""
    pairs = []
    k = counts.shape[0]
    for a in range(k):
        for p in range(k):
            pairs.extend([(a, p)] * int(counts[a, p]))
    return pairs


def oracle_metrics(counts):
    """Raw-count accuracy and one-vs-rest metrics via sample counting,
    carried as Fractions until the final float conversion."""
    pairs = expand_to_samples(counts)
    k = counts.shape[0]
    total = len(pairs)
    accuracy = Fraction(sum(1 for a, p in pairs if a == p), total)
    per_class = []
    for c in range(k):
        tp = sum(1 for a, p in pairs if a == c and p == c)
        fp = sum(1 for a, p in pairs if a != c and p == c)
        fn = sum(1 for a, p in pairs if a == c and p != c)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        if tp + fn:
            recall = Fraction(tp, tp + fn)
            f1 = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)
        else:
            recall = None
            f1 = None
        per_class.append((precision, recall, f1))
    return accuracy, per_class


def numbered(k):
    """The labels "1".."k"."""
    return tuple(str(i + 1) for i in range(k))


def matrix(counts):
    """A confusion matrix of ``counts`` with its classes labelled 1..K."""
    counts = np.asarray(counts)
    return ev.ConfusionMatrix(counts, labels=numbered(len(counts)))


def relabel(classes, boundary: int):
    """Map 0-based multiclass indices to binary: 0 = positive (class index
    < boundary), 1 = negative."""
    return (np.asarray(classes, dtype=np.int64) >= boundary).astype(np.int64)


class TestConfusion:
    def test_identity(self):
        cm = ev.confusion([0, 1, 2], [0, 1, 2], k=3, labels=numbered(3))
        assert (cm.counts == np.eye(3, dtype=np.int64)).all()

    def test_off_diagonal(self):
        cm = ev.confusion([1, 1], [0, 1], k=2, labels=numbered(2))
        assert cm.counts.tolist() == [[0, 1], [0, 1]]

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(101)
        preds = rng.integers(0, 5, 1000)
        truths = rng.integers(0, 5, 1000)
        cm = ev.confusion(preds, truths, k=5, labels=numbered(5))
        brute = np.zeros((5, 5), dtype=np.int64)
        for p, a in zip(preds, truths):
            brute[a, p] += 1
        assert (cm.counts == brute).all()

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ev.confusion([0, 1], [0], k=2, labels=numbered(2))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            ev.confusion([0, 3], [0, 1], k=3, labels=numbered(3))

    @pytest.mark.parametrize("preds, truths", [
        ([0, 1], [0, 2]), ([0, 1], [-1, 1]), ([-1, 1], [0, 1]), ([0, 2], [0, 1]),
    ], ids=["truth_k", "truth_negative", "prediction_negative", "prediction_k"])
    def test_every_label_out_of_range_is_domain_error(self, preds, truths):
        with pytest.raises(DomainError, match="labels out of range for k=2"):
            ev.confusion(preds, truths, k=2, labels=numbered(2))

    def test_no_samples_give_an_empty_matrix(self):
        assert ev.confusion([], [], k=2, labels=numbered(2)).counts.tolist() == [[0, 0], [0, 0]]


class TestConfusionMatrix:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (2, 2, 2)])
    def test_not_square_is_domain_error(self, shape):
        with pytest.raises(DomainError, match="must be square"):
            ev.ConfusionMatrix(np.ones(shape, dtype=np.int64), labels=numbered(2))

    @pytest.mark.parametrize("labels", [(), ("a",), ("a", "b", "c")])
    def test_labels_must_name_every_class(self, labels):
        with pytest.raises(DomainError, match=f"{len(labels)} labels for 2 classes"):
            ev.ConfusionMatrix(np.ones((2, 2), dtype=np.int64), labels=labels)

    def test_from_dict(self):
        cm = ev.ConfusionMatrix.from_dict({"labels": ["a", "b"], "counts": [[3, 1], [0, 2]]})
        assert cm.labels == ("a", "b") and cm.counts.tolist() == [[3, 1], [0, 2]]

    @pytest.mark.parametrize("doc", [
        {"counts": [[3, 1], [0, 2]]},
        {"labels": ["a", "b"]},
        {"labels": ["a", "b"], "counts": [[3, 1], [0]]},
        {"labels": ["a", "b"], "counts": [[3, 1, 0], [0, 2, 0]]},
    ], ids=["no_labels", "no_counts", "ragged", "not_square"])
    def test_from_dict_malformed_is_format_error(self, doc):
        with pytest.raises(FormatError, match="needs 'labels' and square 'counts' rows"):
            ev.ConfusionMatrix.from_dict(doc)

    def test_from_dict_without_labels_for_the_classes_is_domain_error(self):
        with pytest.raises(DomainError, match="0 labels for 2 classes"):
            ev.ConfusionMatrix.from_dict({"labels": [], "counts": [[3, 1], [0, 2]]})


class TestMetrics:
    def test_identity_matrix_is_perfect(self):
        rep = ev.metrics(matrix(np.eye(4, dtype=np.int64) * 5))
        assert rep.accuracy == 1.0
        assert rep.macro_precision == rep.macro_recall == rep.macro_f1 == 1.0

    def test_binary_hand_example(self):
        # [[5, 1], [2, 4]] with positive = class 0:
        # precision 5/7, recall 5/6, F1 = 2*(5/7)(5/6)/((5/7)+(5/6)) = 10/13
        rep = ev.metrics(matrix(np.array([[5, 1], [2, 4]])))
        pos = rep.per_class[0]
        assert pos["precision"] == pytest.approx(5 / 7, abs=0)
        assert pos["recall"] == pytest.approx(5 / 6, abs=0)
        assert pos["f1"] == pytest.approx(10 / 13, abs=0)
        assert rep.accuracy == pytest.approx(9 / 12, abs=0)

    def test_exact_rational_match_on_random_matrices(self):
        for counts in gen_confusions(50, 6, seed=9):
            rep = ev.metrics(matrix(counts))
            accuracy, per_class = oracle_metrics(counts)
            assert rep.accuracy == float(accuracy)
            for got, (p, r, f1) in zip(rep.per_class, per_class):
                assert got["precision"] == float(p)
                assert (got["recall"] is None) == (r is None)
                if r is not None:
                    assert got["recall"] == float(r)
                    assert got["f1"] == float(f1)

    def test_zero_conventions(self):
        # class 1 never predicted and never present; class 2 predicted but absent
        counts = np.array([[3, 0, 1], [0, 0, 0], [0, 0, 0]])
        rep = ev.metrics(matrix(counts))
        absent = rep.per_class[1]
        assert absent["precision"] == 0.0
        assert absent["recall"] is None and absent["f1"] is None
        predicted_only = rep.per_class[2]
        assert predicted_only["precision"] == 0.0
        # macro recall averages only the class with actual samples,
        # macro precision all three classes
        assert rep.macro_recall == pytest.approx(3 / 4, abs=0)
        assert rep.macro_precision == pytest.approx(1 / 3, abs=0)

    def test_class_with_one_actual_sample_has_recall_and_f1(self):
        rep = ev.metrics(matrix([[1, 0], [1, 2]]))
        assert rep.per_class[0] == {"label": "1", "precision": 0.5, "recall": 1.0,
                                    "f1": pytest.approx(2 / 3, abs=0)}
        assert rep.macro_recall == pytest.approx((1 + 2 / 3) / 2, abs=0)

    def test_micro_recall_equals_accuracy(self):
        for counts in gen_confusions(20, 4, seed=12):
            cm = matrix(counts)
            rep = ev.metrics(cm)
            tp = np.diag(counts).sum()
            assert rep.accuracy == pytest.approx(tp / counts.sum(), abs=0)

    def test_f1_between_precision_and_recall(self):
        for counts in gen_confusions(100, 5, seed=77):
            rep = ev.metrics(matrix(counts))
            for entry in rep.per_class:
                p, r, f1 = entry["precision"], entry["recall"], entry["f1"]
                if r is None or p <= 0 or r <= 0:
                    continue
                assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError):
            ev.metrics(matrix(np.zeros((2, 2), dtype=np.int64)))


class TestErrorDistribution:
    def test_hand_example(self):
        dist = ev.error_distribution(matrix(np.array([[2, 1], [0, 3]])))
        assert dist.mass[0] == pytest.approx(5 / 6, abs=0)
        assert dist.mass[1] == pytest.approx(1 / 6, abs=0)
        assert dist.mass[-1] == 0.0

    def test_identity_concentrates_at_zero(self):
        dist = ev.error_distribution(matrix(np.eye(3, dtype=np.int64)))
        assert dist.mass[0] == 1.0

    def test_mass_zero_is_accuracy_and_sums_to_one(self):
        for counts in gen_confusions(50, 5, seed=4):
            cm = matrix(counts)
            dist = ev.error_distribution(cm)
            rep = ev.metrics(cm)
            assert dist.mass[0] == rep.accuracy
            assert sum(dist.mass.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention(self):
        # one sample predicted lower (pred 0, actual 1) -> mass at -1
        dist = ev.error_distribution(matrix(np.array([[0, 0], [1, 0]])))
        assert dist.mass[-1] == 1.0


class TestBinarize:
    def test_hand_example(self):
        cm = matrix(np.array([[5, 1, 0], [1, 5, 1], [0, 1, 5]]))
        rep = ev.binarize(cm, ev.BinarizationLevel(level=1, threshold_tons=10.0, boundary=1))
        assert rep.matrix.counts.tolist() == [[5, 1], [1, 12]]
        assert rep.accuracy == pytest.approx(17 / 19, abs=0)
        assert ev.metrics(cm).accuracy == pytest.approx(15 / 19, abs=0)

    def test_boundary_at_top_of_identity(self):
        cm = matrix(np.eye(4, dtype=np.int64) * 3)
        rep = ev.binarize(cm, ev.BinarizationLevel(level=3, threshold_tons=0, boundary=3))
        assert rep.accuracy == 1.0

    def test_bad_boundary(self):
        cm = matrix(np.eye(3, dtype=np.int64))
        for boundary in (0, 3):
            with pytest.raises(DomainError):
                ev.binarize(cm, ev.BinarizationLevel(level=1, threshold_tons=0, boundary=boundary))

    def test_commutes_with_relabel_then_recount(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 300))
            preds = rng.integers(0, k, n)
            truths = rng.integers(0, k, n)
            cm = ev.confusion(preds, truths, k=k, labels=numbered(k))
            for boundary in range(1, k):
                level = ev.BinarizationLevel(level=boundary, threshold_tons=0, boundary=boundary)
                direct = ev.binarize(cm, level).matrix.counts
                recount = ev.confusion(
                    relabel(preds, boundary), relabel(truths, boundary), k=2, labels=numbered(2)
                ).counts
                assert (direct == recount).all()

    def test_binary_accuracy_never_below_multiclass(self):
        for counts in gen_confusions(200, 6, seed=2):
            cm = matrix(counts)
            multi = ev.metrics(cm).accuracy
            for boundary in range(1, cm.k):
                level = ev.BinarizationLevel(level=boundary, threshold_tons=0, boundary=boundary)
                assert ev.binarize(cm, level).accuracy >= multi

    def test_all_levels_default_table(self):
        cm = matrix(np.eye(6, dtype=np.int64) * 2)
        reports = [ev.binarize(cm, level) for level in ev.DEFAULT_LEVELS]
        assert [r.threshold_tons for r in reports] == [10.0, 15.0, 20.0, 27.0, 36.0]
        assert all(r.accuracy == 1.0 for r in reports)
