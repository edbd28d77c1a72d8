"""Test fixtures that the pipeline itself never calls: in-memory corpora,
random confusion matrices, a rating scheme for synthetic corpora, the
preset names, a design-load map's output width, a linear head for
FC-only learner tests, descriptor fields a checkpoint cannot hold, and
valid inventories, a valid manifest and a valid checkpoint with a
strategy that damages them, and bytes opened as the CLI opens a file."""

import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from bridgecap import datasets
from bridgecap.corpus import LabeledImage, ManifestEntry, write_manifest
from bridgecap.datasets import BinningScheme, ClassMapSpec
from bridgecap.errors import DomainError
from bridgecap.learner import (
    ArchitectureDescriptor,
    Network,
    checkpoint_to_bytes,
    make_checkpoint,
    normalize_descriptor,
)
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


# A value ``set_field`` deletes in place of setting it.
MISSING = object()


def set_field(meta: dict, path: tuple, value) -> None:
    """Set the field of a descriptor's metadata that ``path`` leads to,
    a key or list index at each step, to ``value``, or delete it when
    ``value`` is MISSING."""
    *parents, last = path
    for step in parents:
        meta = meta[step]
    if value is MISSING:
        del meta[last]
    else:
        meta[last] = value


# Each size field of ``micro_cnn(["a", "b"], input_shape=(3, 4, 4))``'s
# metadata: (id, path, the name messages give it, its value, the least
# it may be, whether it has no default).
_SIZE_FIELDS = [
    *((f"input_{i}", ("input_shape", i), f"input_shape[{i}]", v, 1, True)
      for i, v in enumerate((3, 4, 4))),
    *((f"conv_{key}", ("layers", 0, key), key, v, least, key == "out_ch")
      for key, v, least in (("kh", 3, 1), ("kw", 3, 1), ("out_ch", 16, 1), ("stride", 1, 1),
                            ("pad", 1, 0))),
    ("maxpool_k", ("layers", 2, "k"), "k", 2, 1, True),
    ("maxpool_stride", ("layers", 2, "stride"), "stride", 2, 1, False),
    ("fc_n_out", ("layers", 9, "n_out"), "n_out", 2, 1, True),
]


def _bad_sizes():
    """Each size field as a float, a numeric string, a bool and a negative
    number, and, when no default stands in for it, absent; the message
    regex each must raise."""
    for case, path, name, value, least, required in _SIZE_FIELDS:
        wrong_type = re.escape(f"{name} must be int, got")
        if path[0] == "input_shape":
            too_small = absent = re.escape("input_shape must be 1 or 3 integers >= 1")
        else:
            too_small = re.escape(f"{name} must be an integer >= {least}")
            absent = re.escape(f"missing field '{name}'")
        yield pytest.param(path, float(value), wrong_type, id=f"{case}_float")
        yield pytest.param(path, str(value), wrong_type, id=f"{case}_str")
        yield pytest.param(path, True, wrong_type, id=f"{case}_bool")
        yield pytest.param(path, least - 1 - value, too_small, id=f"{case}_negative")
        if required:
            yield pytest.param(path, MISSING, absent, id=f"{case}_missing")


# (path, value, message regex): sizes a ``micro_cnn`` metadata field
# cannot take. ``int()`` would read the first five as a different network.
BAD_SIZES = [
    pytest.param(("input_shape", 1), 4.7, re.escape("input_shape[1] must be int"),
                 id="input_fraction"),
    pytest.param(("input_shape",), ["3", "4", "4"], re.escape("input_shape[0] must be int"),
                 id="input_str"),
    pytest.param(("input_shape", 0), True, re.escape("input_shape[0] must be int"),
                 id="input_bool"),
    pytest.param(("layers", 9, "n_out"), 2.9, re.escape("n_out must be int"),
                 id="n_out_fraction"),
    pytest.param(("layers", 9, "n_out"), "2", re.escape("n_out must be int"), id="n_out_str"),
    *_bad_sizes(),
]

# (path, value, message regex): other descriptors the loader once read
# as a different network or failed on with a KeyError or ValueError.
BAD_DESCRIPTORS = [
    pytest.param(("class_labels",), "ab", re.escape("class_labels must be a list, got \"ab\""),
                 id="labels_str"),
    pytest.param(("class_labels",), [1, 2], re.escape("class_labels[0] must be str, got 1"),
                 id="labels_int"),
    pytest.param(("class_labels",), [["a"], {"b": 1}], re.escape("class_labels[0] must be str"),
                 id="labels_nested"),
    pytest.param(("layers", 0, "in_ch"), 7,
                 re.escape("layer 0 (conv): in_ch is 7, not its input's 3"), id="in_ch_wrong"),
    pytest.param(("layers", 0, "in_ch"), "x", re.escape("in_ch must be int, got \"x\""),
                 id="in_ch_str"),
    pytest.param(("layers", 9, "n_in"), 7,
                 re.escape("layer 9 (fc): n_in is 7, not its input's 128"), id="n_in_wrong"),
    pytest.param(("layers", 0, "out_ch"), 10**30, re.escape("out_ch must be int, got 1" + "0" * 30),
                 id="out_ch_huge"),
    pytest.param(("layers",), {"op": "softmax"}, re.escape("layers must be a list"),
                 id="layers_object"),
    pytest.param(("layers",), "x", re.escape("layers must be a list"), id="layers_str"),
    pytest.param(("layers", 1), "relu", re.escape("layers[1] must be a JSON object"),
                 id="layer_str"),
    pytest.param(("layers",), MISSING, re.escape("descriptor: missing field 'layers'"),
                 id="layers_missing"),
]


def fixed_width_line(state: str, structure: str, code: str, rating: str) -> str:
    """One line of the built-in ``fixed_width_demo`` layout, without its end."""
    return f"{state:2}{structure:15}{code:1}{rating:>4}"


# A valid inventory for each built-in layout: the delimited test fixture,
# which holds rows the parser rejects, and fixed-width card images with
# \n and \r\n line ends, a blank line and an implausible rating.
INVENTORIES = {
    "standard": (Path(__file__).parent / "data" / "nbi_fixture.csv").read_bytes(),
    "fixed_width_demo": "".join([
        fixed_width_line("01", " 0000S702", "5", "0362") + "\n",
        fixed_width_line("06", "004560", "2", "") + "\r\n",
        "\n",
        fixed_width_line("12", "  123456789", "4", "0200") + "\n",
        fixed_width_line("48", "BR-77", "A", "9999") + "\r\n",
        fixed_width_line("36", "X903", "", "0075") + "\n",
    ]).encode("latin-1"),
}


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` cut at a random length, with up to four of the bytes left
    flipped at random."""
    out = bytearray(data[: draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(0, 4)) if out else 0):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def opened(data: bytes, chunk_size: int = 8192) -> io.TextIOWrapper:
    """``data`` as the CLI opens a text file: UTF-8, a line ending only at
    ``\n``, decoded ``chunk_size`` bytes at a time."""
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    fh._CHUNK_SIZE = chunk_size
    return fh


# A valid manifest: a completion column with every value, a non-ASCII path
# and a padded structure number.
MANIFEST = write_manifest([
    ManifestEntry("images/a.pnm", "0", "01", "S702", "complete"),
    ManifestEntry("images/\u00e9t\u00e9.pnm", "1", "01", " 0000S702 ", "partial"),
    ManifestEntry("images/c.pnm", "2", "06", "004560", None),
    ManifestEntry("images/d.pnm", "3", "48", "NOPE", "complete"),
]).encode()

# A valid checkpoint of a one-conv 2-class net on 3x4x4 images, small
# enough that its header and metadata are most of its bytes.
CHECKPOINT = checkpoint_to_bytes(make_checkpoint(Network(normalize_descriptor(
    ArchitectureDescriptor(
        input_shape=(3, 4, 4),
        layers=(
            {"op": "conv", "kh": 3, "kw": 3, "out_ch": 2, "stride": 1, "pad": 1},
            {"op": "relu"},
            {"op": "maxpool", "k": 2, "stride": 2},
            {"op": "flatten"},
            {"op": "fc", "n_out": 2},
            {"op": "softmax"},
        ),
        class_labels=("a", "b"),
    )
), seed=0), {"val_acc": [0.5], "best_epoch": 1}))
