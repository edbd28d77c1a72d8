"""Dataset variants: binning, class mapping, down-sampling, splitting.

A variant is a declarative recipe (DatasetSpec) applied to a labeled
corpus. Load-rating variants discretise the continuous rating with a
BinningScheme; design-load variants remap the ordered inventory classes
1..12 with a ClassMapSpec (drop / merge / passthrough). Both then share
per-class capping and a seeded, stratified 80/20-style split.

The named presets live in ``data/presets.json`` so alternative readings
of the published count tables can be re-encoded without code changes.
"""

import bisect
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ._records import ascii_number, iter_csv, loads, to_csv
from .config import SECTIONS, check
from .errors import ConfigError, DomainError, FormatError
from .imaging import COLOUR_MODES
from .nbi import DESIGN_CLASS_NAMES, _fmt_tons

DESIGN_CLASS_RANGE = tuple(range(1, 13))
COMPLETION_FILTERS = ("any", "complete_only", "partial_only")
GROUP_SPLITS = ("image_level", "bridge_level")
MATCH_MIN = "match_min"
_CLASS_NUMBER = re.compile("[0-9]+")


def default_bin_labels(edges) -> tuple[str, ...]:
    labels = [
        f"{_fmt_tons(edges[i])}-{_fmt_tons(edges[i + 1])} tons"
        for i in range(len(edges) - 1)
    ]
    labels.append(f">{_fmt_tons(edges[-1])} tons")
    return tuple(labels)


@dataclass(frozen=True)
class BinningScheme:
    """Left-closed right-open tonnage intervals; the bin starting at the
    last edge is open-ended, so ``len(edges)`` bins in total."""

    name: str
    edges: tuple[float, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        if not edges or edges[0] != 0.0:
            raise ConfigError(f"{self.name}: first edge must be 0, got {edges[:1]}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError(f"{self.name}: edges must be strictly increasing")
        labels = tuple(self.labels) or default_bin_labels(edges)
        if len(labels) != len(edges):
            raise ConfigError(
                f"{self.name}: {len(labels)} labels for {len(edges)} bins"
            )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

    @property
    def bin_count(self) -> int:
        return len(self.edges)


def bin_load_rating(tons: float, scheme: BinningScheme) -> int:
    """Map a tonnage to its 1-based bin index under [a, b) intervals."""
    if not tons >= 0:  # NaN too
        raise DomainError(f"load rating must be non-negative, got {tons}")
    # First edge strictly greater than tons == the 1-based [a, b) bin.
    return bisect.bisect_right(scheme.edges, tons)


def merge_small_classes(counts, scheme: BinningScheme, threshold: int) -> BinningScheme:
    """Merge underfilled bins until every bin holds at least ``threshold``
    samples or a single bin remains. An underfilled bin is merged into
    its higher-adjacent neighbour; the open-ended last bin merges
    downward. Lowest underfilled bin goes first, deterministically."""
    if threshold < 1:
        raise DomainError(f"threshold must be >= 1, got {threshold}")
    counts = [int(c) for c in counts]
    if len(counts) != scheme.bin_count:
        raise DomainError(
            f"{len(counts)} counts for {scheme.bin_count} bins in {scheme.name!r}"
        )
    edges = list(scheme.edges)
    while len(counts) > 1 and min(counts) < threshold:
        i = next(idx for idx, c in enumerate(counts) if c < threshold)
        j = min(i, len(counts) - 2)  # bins j and j + 1 merge
        counts[j:j + 2] = [counts[j] + counts[j + 1]]
        del edges[j + 1]
    if tuple(edges) == scheme.edges:
        return scheme
    return BinningScheme(name=scheme.name, edges=tuple(edges))


@dataclass(frozen=True)
class ClassMapSpec:
    """Remap of the ordered design-load classes 1..12.

    Output classes are numbered contiguously from 1: first the
    passthrough classes in their listed order, then one class per merge
    group in listed order. Dropped classes map to nothing. The three
    parts must partition 1..12 exactly.
    """

    name: str
    passthrough: tuple[int, ...]
    merge_groups: tuple[frozenset, ...] = ()
    drop: frozenset = frozenset()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        passthrough = tuple(int(c) for c in self.passthrough)
        groups = tuple(frozenset(int(c) for c in g) for g in self.merge_groups)
        drop = frozenset(int(c) for c in self.drop)
        mentioned = list(passthrough) + [c for g in groups for c in g] + list(drop)
        if sorted(mentioned) != list(DESIGN_CLASS_RANGE):
            raise ConfigError(
                f"{self.name}: drop/merge/passthrough must partition classes "
                f"{DESIGN_CLASS_RANGE[0]}..{DESIGN_CLASS_RANGE[-1]}"
            )
        labels = tuple(self.labels) or self._default_labels(passthrough, groups)
        if len(labels) != len(passthrough) + len(groups):
            raise ConfigError(f"{self.name}: label count does not match output classes")
        object.__setattr__(self, "passthrough", passthrough)
        object.__setattr__(self, "merge_groups", groups)
        object.__setattr__(self, "drop", drop)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def _default_labels(passthrough, groups):
        labels = [DESIGN_CLASS_NAMES[c][0] for c in passthrough]
        for g in groups:
            labels.append("+".join(DESIGN_CLASS_NAMES[c][0] for c in sorted(g)))
        return tuple(labels)


def map_design_load(paper_class: int, spec: ClassMapSpec) -> int | None:
    """Translate an inventory class to the variant's 1-based output class;
    dropped classes return None."""
    if paper_class not in DESIGN_CLASS_RANGE:
        raise DomainError(f"design-load class {paper_class} outside 1..12")
    if paper_class in spec.drop:
        return None
    if paper_class in spec.passthrough:
        return spec.passthrough.index(paper_class) + 1
    for g, group in enumerate(spec.merge_groups):
        if paper_class in group:
            return len(spec.passthrough) + g + 1
    raise DomainError(f"class {paper_class} unmapped by {spec.name!r}")  # unreachable


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    label_source: BinningScheme | ClassMapSpec
    caps: dict | str | None = None  # per-class maxima, or "match_min"
    min_class_size: int | None = None
    split_fraction: float = 0.8
    seed: int = 0
    completion_filter: str = "any"
    colour: str = "rgb"
    group_split: str = "image_level"
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.caps, dict):
            if not all(_CLASS_NUMBER.fullmatch(str(k)) for k in self.caps):
                raise ConfigError(f"caps keys must be class numbers, got {list(self.caps)}")
            caps = {int(k): int(v) for k, v in self.caps.items()}
            if any(v <= 0 for v in caps.values()):
                raise ConfigError("caps must be positive")
            object.__setattr__(self, "caps", caps)
        elif self.caps is not None and self.caps != MATCH_MIN:
            raise ConfigError(f"caps must be a mapping, {MATCH_MIN!r}, or None")
        if self.completion_filter not in COMPLETION_FILTERS:
            raise ConfigError(f"unknown completion filter {self.completion_filter!r}")
        if self.colour not in COLOUR_MODES:
            raise ConfigError(f"unknown colour mode {self.colour!r}")
        if self.group_split not in GROUP_SPLITS:
            raise ConfigError(f"unknown group split {self.group_split!r}")
        if self.group_split == "bridge_level" and not self.stratified:
            raise ConfigError("group_split 'bridge_level' needs a stratified split")
        if self.min_class_size is not None and not isinstance(self.label_source, BinningScheme):
            raise ConfigError("min_class_size merges load-rating bins; design_load has none")


class DatasetItem(NamedTuple):
    image_path: str
    cls: int  # 1-based output class
    bridge_key: tuple[str, str] | None = None


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[DatasetItem, ...]
    test: tuple[DatasetItem, ...]

    @property
    def classes(self) -> list[int]:
        """The distinct classes of both sides, ascending."""
        return sorted({item.cls for item in self.train + self.test})

    def class_counts(self, side: str) -> dict[int, int]:
        return _class_counts(self.train if side == "train" else self.test)


def _class_counts(items) -> dict[int, int]:
    return dict(sorted(Counter(map(attrgetter("cls"), items)).items()))


def _by_class(items) -> dict[int, list]:
    out: dict[int, list] = {}
    for item in items:
        out.setdefault(item.cls, []).append(item)
    return {cls: sorted(v, key=attrgetter("image_path")) for cls, v in sorted(out.items())}


def downsample(items, caps, seed: int):
    """Per-class down-sampling without replacement.

    ``caps`` maps 1-based class index to a maximum of at least 1, as
    ``DatasetSpec`` and ``match_min`` give them; uncapped classes pass
    through whole, capped classes keep min(cap, available) images. The
    draw is seeded per class, so changing one class's cap does not
    reshuffle the others.
    """
    if not caps:
        return list(items)
    per_class = _by_class(items)
    kept = []
    for cls, members in per_class.items():
        cap = caps.get(cls)
        if cap is None or cap >= len(members):
            kept.extend(members)
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cls,)))
        chosen = rng.choice(len(members), size=cap, replace=False)
        kept.extend(members[i] for i in sorted(chosen))
    return kept


def split_dataset(items, split_fraction: float, seed: int, stratified: bool,
                  group_split: str) -> DatasetSplit:
    """Deterministic train/test partition.

    Stratified mode draws floor(split_fraction * n) training images per
    class, remainder to test. bridge_level keeps all images of one
    bridge on one side (counts then hit the floor rule only as closely
    as group sizes allow). Plain mode shuffles globally.
    """
    items = list(items)
    rng = np.random.default_rng(seed)

    if not stratified:
        order = sorted(items, key=lambda i: i.image_path)
        perm = rng.permutation(len(order))
        n_train = math.floor(split_fraction * len(order))
        train = tuple(order[i] for i in perm[:n_train])
        test = tuple(order[i] for i in perm[n_train:])
        return DatasetSplit(train=train, test=test)

    per_class = _by_class(items)
    if group_split == "bridge_level":
        return _split_by_bridge(per_class, split_fraction, rng)

    train: list[DatasetItem] = []
    test: list[DatasetItem] = []
    for cls, members in per_class.items():
        n = len(members)
        n_train = math.floor(split_fraction * n)
        if n_train < 1:  # so is every n < 2, as split_fraction < 1
            raise DomainError(
                f"class {cls} has {n} image(s); stratified split needs at least "
                f"2 and a non-empty train share"
            )
        perm = rng.permutation(n)
        train.extend(members[i] for i in perm[:n_train])
        test.extend(members[i] for i in perm[n_train:])
    return DatasetSplit(train=tuple(train), test=tuple(test))


def _split_by_bridge(per_class, split_fraction, rng) -> DatasetSplit:
    assignment: dict = {}  # bridge key -> "train" | "test"
    train: list[DatasetItem] = []
    test: list[DatasetItem] = []
    for cls, members in per_class.items():
        groups: dict = {}
        for item in members:
            key = item.bridge_key if item.bridge_key is not None else ("", item.image_path)
            groups.setdefault(key, []).append(item)
        if len(groups) < 2:
            raise DomainError(
                f"class {cls} spans {len(groups)} bridge(s); bridge-level split needs at least 2"
            )
        target = math.floor(split_fraction * len(members))
        # Bridges pinned by an earlier class already contribute images.
        count = sum(len(v) for k, v in groups.items() if assignment.get(k) == "train")
        open_keys = [k for k in sorted(groups) if k not in assignment]
        perm = rng.permutation(len(open_keys))
        for idx in perm:
            key = open_keys[idx]
            if count < target:
                assignment[key] = "train"
                count += len(groups[key])
            else:
                assignment[key] = "test"
        for key in sorted(groups):
            (train if assignment[key] == "train" else test).extend(groups[key])
    return DatasetSplit(train=tuple(train), test=tuple(test))


@dataclass(frozen=True)
class VariantResult:
    """A realized dataset variant: the applied spec, the post-cap class
    counts, and the split itself."""

    spec: DatasetSpec
    class_labels: tuple[str, ...]
    class_counts: dict[int, int]
    split: DatasetSplit

    @property
    def total(self) -> int:
        return sum(self.class_counts.values())

    def to_manifest_dict(self) -> dict:
        src = self.spec.label_source
        return {
            "name": self.spec.name,
            "label_source": "load_rating" if isinstance(src, BinningScheme) else "design_load",
            "class_labels": list(self.class_labels),
            "class_counts": {str(k): v for k, v in sorted(self.class_counts.items())},
            "total": self.total,
            "train_counts": {str(k): v for k, v in self.split.class_counts("train").items()},
            "test_counts": {str(k): v for k, v in self.split.class_counts("test").items()},
            "caps": self.spec.caps if not isinstance(self.spec.caps, dict)
            else {str(k): v for k, v in sorted(self.spec.caps.items())},
            "min_class_size": self.spec.min_class_size,
            "split_fraction": self.spec.split_fraction,
            "seed": self.spec.seed,
            "completion_filter": self.spec.completion_filter,
            "colour": self.spec.colour,
            "group_split": self.spec.group_split,
            "stratified": self.spec.stratified,
        }


def _filter_completion(corpus, completion_filter: str):
    if completion_filter == "any":
        return list(corpus)
    want = "complete" if completion_filter == "complete_only" else "partial"
    return [img for img in corpus if img.completion == want]


def build_variant(spec: DatasetSpec, corpus) -> VariantResult:
    """Apply a DatasetSpec to a labeled corpus; a named preset is
    ``load_preset(name)``, and another seed ``replace(spec, seed=s)``.

    Labeling, optional small-class merging, capping, and splitting run in
    that order; sub-seeds for the down-sample and the split derive from
    the spec seed so one stage can be varied without perturbing others.
    """
    pool = _filter_completion(corpus, spec.completion_filter)
    source = spec.label_source

    if isinstance(source, BinningScheme):
        rated = [img for img in pool if img.load_rating_tons is not None]
        if not rated:
            raise DomainError(f"corpus has no load-rating labels usable by {spec.name!r}")
        scheme = source
        if spec.min_class_size is not None:
            counts = [0] * scheme.bin_count
            for img in rated:
                counts[bin_load_rating(img.load_rating_tons, scheme) - 1] += 1
            scheme = merge_small_classes(counts, scheme, spec.min_class_size)
            spec = replace(spec, label_source=scheme)
        items = [
            DatasetItem(img.image_path, bin_load_rating(img.load_rating_tons, scheme),
                        img.bridge_key)
            for img in rated
        ]
        labels = scheme.labels
    else:
        classed = [img for img in pool if img.design_load_class is not None]
        if not classed:
            raise DomainError(f"corpus has no design-load labels usable by {spec.name!r}")
        items = []
        for img in classed:
            out = map_design_load(img.design_load_class, source)
            if out is not None:
                items.append(DatasetItem(img.image_path, out, img.bridge_key))
        labels = source.labels

    caps = spec.caps
    if caps == MATCH_MIN:
        realized = _by_class(items)
        smallest = min(len(v) for v in realized.values())
        caps = {cls: smallest for cls in realized}
    sub_down, sub_split = _derive_seeds(spec.seed)
    items = downsample(items, caps, seed=sub_down)

    counts = _class_counts(items)
    split = split_dataset(
        items,
        split_fraction=spec.split_fraction,
        seed=sub_split,
        stratified=spec.stratified,
        group_split=spec.group_split,
    )
    return VariantResult(spec=spec, class_labels=labels, class_counts=counts, split=split)


def _derive_seeds(seed: int) -> tuple[int, int]:
    seq = np.random.SeedSequence(entropy=seed)
    down, split = seq.spawn(2)
    return int(down.generate_state(1)[0]), int(split.generate_state(1)[0])


# --- split-manifest CSV ------------------------------------------------------

def write_split_csv(split: DatasetSplit, out=None) -> str | None:
    """The split as CSV: returned as one str, or written to ``out``, an
    open text file, block by block."""
    return to_csv(["image_path", "class", "side"], (
        (item.image_path, item.cls, side)
        for side, items in (("train", split.train), ("test", split.test))
        for item in items
    ), out=out)


def read_split_csv(source) -> DatasetSplit:
    """The split ``write_split_csv`` wrote, read from ``source`` as
    ``_records.iter_csv`` takes it. A wrong header raises FormatError,
    as does a row that is not ``image_path,class,side`` with an integer
    class and side train or test, naming its line."""
    rows = iter_csv(source, "split-manifest")
    header = next(rows, (None, None))[1]
    if header != ["image_path", "class", "side"]:
        raise FormatError(f"unexpected split-manifest header: {header}")
    sides = {"train": [], "test": []}
    for line_num, row in rows:
        try:
            image_path, cls, side = row
            sides[side].append(DatasetItem(image_path=image_path, cls=int(ascii_number(cls))))
        except (KeyError, ValueError) as exc:
            raise FormatError(
                f"split-manifest line {line_num}: expected image_path,class,side "
                f"with an integer class and side train or test, got {row}"
            ) from exc
    return DatasetSplit(train=tuple(sides["train"]), test=tuple(sides["test"]))


# --- presets -----------------------------------------------------------------

def _load_preset_table() -> dict:
    from importlib.resources import files

    return loads(files("bridgecap.data").joinpath("presets.json").read_bytes(), "presets.json")


_SPEC_SHAPE = {
    **SECTIONS["dataset"], "kind": str, "edges": [float], "labels": [str],
    "passthrough": [int], "merge_groups": [[int]], "drop": [int],
    "caps": (str, {str: int}, None), "min_class_size": (int, None), "completion": str,
}
# Kind -> label source and the spec keys it is built from; the first is required.
_LABEL_SOURCES = {
    "load_rating": (BinningScheme, ("edges", "labels")),
    "design_load": (ClassMapSpec, ("passthrough", "merge_groups", "drop", "labels")),
}


def spec_from_config(name: str, cfg: dict) -> DatasetSpec:
    """Build a DatasetSpec from its JSON form (one presets.json entry or
    a user spec file)."""
    check(cfg, _SPEC_SHAPE, f"spec {name!r}")
    settings = dict(cfg)
    kind = settings.pop("kind", None)
    if kind not in _LABEL_SOURCES:
        raise ConfigError(f"spec {name!r} has unknown kind {kind!r}")
    source_type, keys = _LABEL_SOURCES[kind]
    if keys[0] not in settings:
        raise ConfigError(f"spec {name!r} of kind {kind!r} is missing required key {keys[0]!r}")
    source = source_type(name=name, **{key: settings.pop(key) for key in keys if key in settings})
    other = settings.keys() & {k for _, ks in _LABEL_SOURCES.values() for k in ks}
    if other:
        raise ConfigError(f"spec {name!r} of kind {kind!r} does not take {sorted(other)}")
    if "completion" in settings:
        settings["completion_filter"] = settings.pop("completion")
    return DatasetSpec(name=name, label_source=source, **settings)


def load_preset(name: str) -> DatasetSpec:
    """Instantiate a named preset from ``data/presets.json``."""
    table = _load_preset_table()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(table)}")
    return spec_from_config(name, table[name])
