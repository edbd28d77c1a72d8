"""Image-manifest ingestion and the inventory join.

A manifest is a CSV of locally stored images with the per-bridge key
fields needed to look up capacity labels: state code plus raw structure
number. Joining copies the matched record's design-load class and load
rating onto each image verbatim; images whose record carries neither
label are counted as matched but excluded from the labeled set.

The join is one pass over the manifest: ``join_labels`` consumes the
entries ``iter_manifest`` yields as they come, so memory grows with the
inventory records and the labeled images, not with the manifest text or
its entries.

An image's completion flag comes from the manifest's optional
completion column, or, when ``corpus-match`` is given a completion
model, from ``tag_completion``, which classifies the image itself.
"""

from dataclasses import dataclass
from typing import NamedTuple

from ._records import from_ndjson, iter_csv, to_csv, to_ndjson
from .errors import ConfigError, FormatError
from .nbi import DegenerateKeyError, canonicalize, is_valid_state_code

MANIFEST_COLUMNS = ("image_path", "bridge_local_id", "state", "structure", "completion")
COMPLETION_VALUES = ("complete", "partial")


class ManifestEntry(NamedTuple):
    image_path: str
    bridge_local_id: str
    state: str
    structure_raw: str
    completion: str | None = None


class LabeledImage(NamedTuple):
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


def iter_manifest(source):
    """Parse a manifest CSV, ``source`` as ``_records.iter_csv`` takes it,
    yielding one ManifestEntry per row. The completion column is
    optional; when present it must hold 'complete', 'partial', or be
    blank. A FormatError names the file line where the bad row ends."""
    rows = iter_csv(source, "manifest")
    first = next(rows, None)
    if first is None:
        return
    header = [c.strip() for c in first[1]]
    for col in MANIFEST_COLUMNS[:4]:
        if col not in header:
            raise FormatError(f"manifest header is missing column {col!r}")
    path_at, id_at, state_at, structure_at = map(header.index, MANIFEST_COLUMNS[:4])
    need = max(path_at, id_at, state_at, structure_at) + 1
    completion_at = header.index("completion") if "completion" in header else None

    for lineno, row in rows:
        if len(row) < need:
            raise FormatError(f"manifest line {lineno}: too few fields")
        completion = None
        if completion_at is not None and completion_at < len(row):
            completion = row[completion_at].strip().lower() or None
            if completion is not None and completion not in COMPLETION_VALUES:
                raise FormatError(
                    f"manifest line {lineno}: bad completion value {completion!r}"
                )
        path = row[path_at].strip()
        if not path:
            raise FormatError(f"manifest line {lineno}: empty image_path")
        yield ManifestEntry(
            path, row[id_at].strip(), row[state_at].strip(), row[structure_at], completion
        )


def write_manifest(entries) -> str:
    return to_csv(MANIFEST_COLUMNS, (
        (e.image_path, e.bridge_local_id, e.state, e.structure_raw, e.completion or "")
        for e in entries
    ))


def join_labels(manifest, records) -> tuple[list[LabeledImage], JoinReport]:
    """Join manifest entries to inventory records on (state, canonical
    structure number).

    Duplicate record keys: first occurrence wins, the rest are only
    counted. Duplicate image paths in the manifest are an error. The
    join is deterministic: identical inputs give identical outputs.

    Both arguments may be any iterables, walked once: ``manifest`` may be
    ``iter_manifest`` over an open file. Held in memory are an index of
    the records, the set of image paths seen and the labeled images, not
    the manifest entries.
    """
    index = {}
    n_records = 0
    for n_records, rec in enumerate(records, 1):
        index.setdefault(rec.key, rec)
    duplicates = n_records - len(index)

    seen_paths = set()
    labeled: list[LabeledImage] = []
    matched = unmatched = 0
    with_design = with_rating = 0
    complete = partial = 0
    entries = iter(manifest)
    for entry in entries:
        if entry.image_path in seen_paths:
            # Parse the rest first: a malformed row anywhere in the
            # manifest is reported before a duplicate path, as when the
            # whole manifest is read before the join.
            for _ in entries:
                pass
            raise FormatError(f"duplicate image path in manifest: {entry.image_path!r}")
        seen_paths.add(entry.image_path)
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
        design, rating, completion = rec.design_load_class, rec.load_rating_tons, entry.completion
        if design is None and rating is None:
            continue  # matched but unusable: no label of either kind
        labeled.append(LabeledImage(entry.image_path, *key, design, rating, completion))
        if design is not None:
            with_design += 1
        if rating is not None:
            with_rating += 1
        if completion == "complete":
            complete += 1
        elif completion == "partial":
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
    probabilities: tuple[tuple[str, float], ...] = ()


def tag_completion(images, checkpoint, image_root=None) -> tuple[list[LabeledImage], TagReport]:
    """Flag every image complete or partial with a completion model.

    The images are read into one ``imaging.load_batch`` batch. An image
    that cannot be read or decoded becomes a reject, whose reason does
    not repeat the path, and leaves its row to the next image. The
    decoded rows are classified in a single ``predict_proba`` call with
    a 2-class checkpoint (labels must include "complete"), and the
    per-image probability is recorded. A checkpoint whose input is not a (3, h, w)
    image raises DomainError before any image is read. Labels and paths
    are never altered.
    """
    from .imaging import load_batch
    from .learner import network_from_checkpoint, predict_proba

    labels = list(checkpoint.class_labels)
    if len(labels) != 2 or "complete" not in labels:
        raise ConfigError(
            f"completion checkpoint must be 2-class with a 'complete' label, got {labels}"
        )
    complete_idx = labels.index("complete")
    descriptor = checkpoint.descriptor
    images = list(images)
    rejects = []
    pixels = load_batch([img.image_path for img in images], image_root,
                        descriptor.colour_mode, descriptor.image_size(), rejects)
    rejected = {path for path, _ in rejects}  # the manifest's paths are unique
    decoded = [img for img in images if img.image_path not in rejected]

    tagged = []
    probs = []
    complete_probs = predict_proba(network_from_checkpoint(checkpoint), pixels)
    for img, p in zip(decoded, complete_probs[:, complete_idx].tolist()):
        flag = "complete" if p >= 0.5 else "partial"
        tagged.append(img._replace(completion=flag))
        probs.append((img.image_path, p))
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

def labeled_to_ndjson(images, out=None) -> str | None:
    return to_ndjson(LabeledImage, images, out)


def labeled_from_ndjson(source) -> list[LabeledImage]:
    return from_ndjson(LabeledImage, source)
