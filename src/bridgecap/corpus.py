"""Image-manifest ingestion and the inventory join.

A manifest is a CSV of locally stored images with the per-bridge key
fields needed to look up capacity labels: state code plus raw structure
number. Joining copies the matched record's design-load class and load
rating onto each image verbatim; images whose record carries neither
label are counted as matched but excluded from the labeled set.
"""

import csv
import io
from dataclasses import dataclass, replace

from ._records import as_text, from_ndjson, to_ndjson
from .errors import ConfigError, FormatError
from .nbi import DegenerateKeyError, canonicalize, is_valid_state_code

MANIFEST_COLUMNS = ("image_path", "bridge_local_id", "state", "structure", "completion")
COMPLETION_VALUES = ("complete", "partial")


@dataclass(frozen=True)
class ManifestEntry:
    image_path: str
    bridge_local_id: str
    state: str
    structure_raw: str
    completion: str | None = None


@dataclass(frozen=True)
class LabeledImage:
    image_path: str
    state: str
    structure: str
    design_load_class: int | None = None
    load_rating_tons: float | None = None
    completion: str | None = None

    @property
    def bridge_key(self) -> tuple[str, str]:
        return (self.state, self.structure)


@dataclass(frozen=True)
class JoinReport:
    matched_images: int
    unmatched_images: int
    images_with_design_load: int
    images_with_rating: int
    complete_count: int
    partial_count: int
    duplicate_record_keys: int = 0


def read_manifest(source) -> list[ManifestEntry]:
    """Parse a manifest CSV. The completion column is optional; when
    present it must hold 'complete', 'partial', or be blank."""
    reader = csv.reader(io.StringIO(as_text(source, "utf-8")))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        return []
    header = [c.strip() for c in rows[0]]
    for col in MANIFEST_COLUMNS[:4]:
        if col not in header:
            raise FormatError(f"manifest header is missing column {col!r}")
    idx = {col: header.index(col) for col in header}
    has_completion = "completion" in idx

    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < 4:
            raise FormatError(f"manifest line {lineno}: too few fields")
        completion = None
        if has_completion and idx["completion"] < len(row):
            value = row[idx["completion"]].strip().lower()
            if value:
                if value not in COMPLETION_VALUES:
                    raise FormatError(
                        f"manifest line {lineno}: bad completion value {value!r}"
                    )
                completion = value
        path = row[idx["image_path"]].strip()
        if not path:
            raise FormatError(f"manifest line {lineno}: empty image_path")
        entries.append(
            ManifestEntry(
                image_path=path,
                bridge_local_id=row[idx["bridge_local_id"]].strip(),
                state=row[idx["state"]].strip(),
                structure_raw=row[idx["structure"]],
                completion=completion,
            )
        )
    return entries


def write_manifest(entries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    for e in entries:
        writer.writerow(
            [e.image_path, e.bridge_local_id, e.state, e.structure_raw, e.completion or ""]
        )
    return out.getvalue()


def join_labels(manifest, records) -> tuple[list[LabeledImage], JoinReport]:
    """Join manifest entries to inventory records on (state, canonical
    structure number).

    Duplicate record keys: first occurrence wins, the rest are only
    counted. Duplicate image paths in the manifest are an error. The
    join is deterministic: identical inputs give identical outputs.
    """
    seen_paths = set()
    for entry in manifest:
        if entry.image_path in seen_paths:
            raise FormatError(f"duplicate image path in manifest: {entry.image_path!r}")
        seen_paths.add(entry.image_path)

    index = {}
    duplicates = 0
    for rec in records:
        if rec.key in index:
            duplicates += 1
        else:
            index[rec.key] = rec

    labeled: list[LabeledImage] = []
    matched = unmatched = 0
    with_design = with_rating = 0
    complete = partial = 0
    for entry in manifest:
        try:
            key = (entry.state, canonicalize(entry.structure_raw))
        except DegenerateKeyError:
            unmatched += 1
            continue
        if not is_valid_state_code(entry.state):
            unmatched += 1
            continue
        rec = index.get(key)
        if rec is None:
            unmatched += 1
            continue
        matched += 1
        if rec.design_load_class is None and rec.load_rating_tons is None:
            continue  # matched but unusable: no label of either kind
        img = LabeledImage(
            image_path=entry.image_path,
            state=key[0],
            structure=key[1],
            design_load_class=rec.design_load_class,
            load_rating_tons=rec.load_rating_tons,
            completion=entry.completion,
        )
        labeled.append(img)
        if img.design_load_class is not None:
            with_design += 1
        if img.load_rating_tons is not None:
            with_rating += 1
        if img.completion == "complete":
            complete += 1
        elif img.completion == "partial":
            partial += 1

    report = JoinReport(
        matched_images=matched,
        unmatched_images=unmatched,
        images_with_design_load=with_design,
        images_with_rating=with_rating,
        complete_count=complete,
        partial_count=partial,
        duplicate_record_keys=duplicates,
    )
    return labeled, report


@dataclass(frozen=True)
class TagReport:
    tagged: int
    rejects: tuple[tuple[str, str], ...] = ()  # (image_path, reason)
    probabilities: tuple[tuple[str, float], ...] = ()  # model source only


def tag_completion(
    images,
    source: str = "manifest",
    checkpoint=None,
    image_root=None,
) -> tuple[list[LabeledImage], TagReport]:
    """Ensure every image carries a completion flag.

    source="manifest" passes existing flags through; images without one
    become rejects. source="model" classifies each image file with a
    2-class checkpoint (labels must include "complete") and records the
    per-image probability. Labels and paths are never altered.
    """
    if source == "manifest":
        tagged = []
        rejects = []
        for img in images:
            if img.completion in COMPLETION_VALUES:
                tagged.append(img)
            else:
                rejects.append((img.image_path, "no completion flag in manifest"))
        return tagged, TagReport(tagged=len(tagged), rejects=tuple(rejects))

    if source != "model":
        raise ConfigError(f"unknown completion source {source!r}")
    if checkpoint is None:
        raise ConfigError("source='model' requires a checkpoint")

    from .imaging import make_loader
    from .learner import network_from_checkpoint, predict_proba

    labels = list(checkpoint.class_labels)
    if len(labels) != 2 or "complete" not in labels:
        raise ConfigError(
            f"completion checkpoint must be 2-class with a 'complete' label, got {labels}"
        )
    complete_idx = labels.index("complete")
    net = network_from_checkpoint(checkpoint)
    descriptor = checkpoint.descriptor
    load = make_loader(image_root, descriptor.colour_mode, descriptor.input_shape[1:])

    tagged = []
    rejects = []
    probs = []
    for img in images:
        path = img.image_path
        try:
            tensor = load(path)
        except (OSError, FormatError) as exc:
            rejects.append((path, str(exc)))
            continue
        p = float(predict_proba(net, tensor[None])[0, complete_idx])
        flag = "complete" if p >= 0.5 else "partial"
        tagged.append(replace(img, completion=flag))
        probs.append((path, p))
    return tagged, TagReport(
        tagged=len(tagged), rejects=tuple(rejects), probabilities=tuple(probs)
    )


def corpus_stats(images) -> dict:
    """Three-row breakdown of a labeled corpus: all images, images with a
    design-load label, images with a rating label; each row split into
    total / complete / partial counts."""

    def row(subset):
        return {
            "total": len(subset),
            "complete": sum(1 for i in subset if i.completion == "complete"),
            "partial": sum(1 for i in subset if i.completion == "partial"),
        }

    images = list(images)
    return {
        "all": row(images),
        "design_load_labeled": row([i for i in images if i.design_load_class is not None]),
        "rating_labeled": row([i for i in images if i.load_rating_tons is not None]),
    }


# --- serialization ---------------------------------------------------------

def labeled_to_ndjson(images) -> str:
    return to_ndjson(LabeledImage, images)


def labeled_from_ndjson(text: str) -> list[LabeledImage]:
    return from_ndjson(LabeledImage, text)
