"""Test fixtures that the pipeline itself never calls: in-memory corpora,
random confusion matrices, a rating scheme for synthetic corpora, the
preset names, a design-load map's output width, a linear head for
FC-only learner tests, and descriptor sizes that are not integers."""

import numpy as np
import pytest

from bridgecap import datasets
from bridgecap.corpus import LabeledImage
from bridgecap.datasets import BinningScheme, ClassMapSpec
from bridgecap.errors import DomainError
from bridgecap.learner import ArchitectureDescriptor, normalize_descriptor
from bridgecap.nbi import DESIGN_CLASS_NAMES
from bridgecap.synth import _STATES


def rating_scheme(classes: int) -> BinningScheme:
    """The binning scheme under which the synthetic ratings reproduce the
    visual classes: 15-ton-wide bins, last one open-ended."""
    return BinningScheme(name=f"synth-{classes}", edges=tuple(15.0 * i for i in range(classes)))


def gen_labeled_corpus(design_counts: dict[int, int]) -> list[LabeledImage]:
    """In-memory corpus with exact per-class design-load counts (keys are
    inventory classes 1..12); ratings carry each class's nominal tonnage
    where one exists. No image files are written; use it to exercise
    dataset recipes at full published scale."""
    labeled = []
    for cls, count in sorted(design_counts.items()):
        if cls not in DESIGN_CLASS_NAMES:
            raise DomainError(f"design-load class {cls} outside 1..12")
        _, tons = DESIGN_CLASS_NAMES[cls]
        for idx in range(int(count)):
            bridge = idx // 4
            labeled.append(
                LabeledImage(
                    image_path=f"mem/dl{cls:02d}_{idx:05d}.pnm",
                    state=_STATES[cls % len(_STATES)],
                    structure=f"DL{cls}B{bridge:05d}",
                    design_load_class=cls,
                    load_rating_tons=tons,
                    completion="complete",
                )
            )
    return labeled


def gen_confusions(count: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded random confusion-count matrices (K x K, non-negative,
    positive total), diagonally weighted like a plausible classifier."""
    if count < 1 or k < 2:
        raise DomainError("need count >= 1 and k >= 2")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        counts = rng.poisson(2.0, size=(k, k)).astype(np.int64)
        counts[np.diag_indices(k)] += rng.poisson(6.0, size=k).astype(np.int64)
        if counts.sum() == 0:
            counts[0, 0] = 1
        out.append(counts)
    return out


def preset_names() -> list[str]:
    return sorted(datasets._load_preset_table())


def output_count(spec: ClassMapSpec) -> int:
    """Output classes of a design-load map: its passthrough classes plus
    its merge groups."""
    return len(spec.passthrough) + len(spec.merge_groups)


def linear_head(n_features, class_labels) -> ArchitectureDescriptor:
    """Single linear layer + softmax over flat feature vectors."""
    return normalize_descriptor(
        ArchitectureDescriptor(
            input_shape=(int(n_features),),
            layers=(
                {"op": "fc", "n_out": len(tuple(class_labels))},
                {"op": "softmax"},
            ),
            class_labels=tuple(str(c) for c in class_labels),
        )
    )



# (field, value) pairs that are not a size: an input shape that is not
# integers >= 1, or an fc width that is not one. ``int()`` would read each
# as a different network.
BAD_SIZES = [
    pytest.param("input_shape", [3, 4.7, 4], id="input_fraction"),
    pytest.param("input_shape", ["3", "4", "4"], id="input_str"),
    pytest.param("input_shape", [True, 4, 4], id="input_bool"),
    pytest.param("n_out", 2.9, id="n_out_fraction"),
    pytest.param("n_out", "2", id="n_out_str"),
]


def set_bad_size(meta: dict, field: str, value) -> None:
    """Put ``value`` in a descriptor's metadata as its input shape, or as
    the width of its last fc layer."""
    if field == "input_shape":
        meta["input_shape"] = value
    else:
        next(spec for spec in reversed(meta["layers"]) if spec["op"] == "fc")[field] = value
