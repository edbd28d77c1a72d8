"""Deterministic synthetic corpora for desk-scale, quantitative runs.

Each synthetic bridge image is a noisy background crossed by horizontal
deck stripes; an image of class c (0-based) carries c+1 stripes, so the
class signal is geometric and survives grayscale conversion. "Partial"
views are corner crops covering a quarter of the scene, standing in for
photographs that show only part of a bridge. The generator also writes
the matching manifest and inventory files, with raw structure numbers
padded and zero-prefixed so the join has to earn its keep.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ManifestEntry, write_manifest
from .errors import DomainError
from .imaging import encode_pnm
from .nbi import NbiRecord, canonicalize, write_delimited

_BACKGROUND = np.array([150, 180, 210], dtype=np.int64)  # hazy sky
_STRIPE = np.array([62, 60, 70], dtype=np.int64)  # deck asphalt
_STATES = ("01", "06", "12", "36", "48")


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 3
    images_per_class: int = 20
    seed: int = 0
    image_size: int = 64
    noise: int = 18  # +- amplitude of per-pixel background noise
    jitter: int = 2  # +- vertical stripe displacement in pixels
    partial_fraction: float = 0.0
    images_per_bridge: int = 3

    def __post_init__(self):
        if self.classes < 2:
            raise DomainError(f"need at least 2 classes, got {self.classes}")
        if self.classes > 12:
            raise DomainError("at most 12 classes map onto design-load labels")
        if self.images_per_class < 1 or self.image_size < 8 or self.images_per_bridge < 1:
            raise DomainError("images per class, image size, and images per bridge must be positive")
        if not 0.0 <= self.partial_fraction <= 1.0:
            raise DomainError(f"partial_fraction must be in [0, 1], got {self.partial_fraction}")
        if min(self.seed, self.noise, self.jitter) < 0:
            raise DomainError("seed, noise and jitter must be non-negative")


def class_rating_tons(cls: int) -> float:
    """Representative rating for 0-based visual class ``cls``."""
    return 5.0 + 15.0 * cls


def render_scene(cls: int, size: int, noise: int, jitter: int, rng) -> np.ndarray:
    """Full (size, size, 3) uint8 scene for 0-based class ``cls``. The
    scene is built in place in the int64 background noise that ``rng``
    draws; beside the stripe noise, only the final uint8 array is
    allocated."""
    img = rng.integers(-noise, noise + 1, size=(size, size, 3))
    img += _BACKGROUND
    n_stripes = cls + 1
    thickness = max(2, size // 16)
    for i in range(n_stripes):
        center = (i + 1) * size // (n_stripes + 1)
        if jitter:
            center += int(rng.integers(-jitter, jitter + 1))
        top = min(max(center - thickness // 2, 0), size - thickness)
        band = img[top : top + thickness]
        band[...] = rng.integers(-noise // 2, noise // 2 + 1, size=(thickness, size, 3))
        band += _STRIPE
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8)


def render_image(cls: int, spec: SynthSpec, rng, partial: bool) -> np.ndarray:
    scene = render_scene(cls, spec.image_size, spec.noise, spec.jitter, rng)
    if partial:
        # A quarter-area corner crop (< 30% of the scene).
        half = spec.image_size // 2
        corner = int(rng.integers(0, 4))
        y0 = 0 if corner < 2 else spec.image_size - half
        x0 = 0 if corner % 2 == 0 else spec.image_size - half
        scene = scene[y0 : y0 + half, x0 : x0 + half]
    return scene


@dataclass(frozen=True)
class GeneratedCorpus:
    manifest_path: Path
    inventory_path: Path
    image_paths: tuple[str, ...]  # relative to the output directory


def gen_corpus(spec: SynthSpec, out_dir) -> GeneratedCorpus:
    """Write images, a manifest CSV, and an inventory file into
    ``out_dir``; return the paths written. The manifest carries each
    image's completion flag and the inventory its bridge's labels, so
    ``corpus-match`` recovers every image's labels from the files.
    Byte-identical for identical specs."""
    out_dir = Path(out_dir)
    image_dir = out_dir / "images"
    try:
        image_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {image_dir}: {exc}") from exc

    rng = np.random.default_rng(spec.seed)
    n_partial = math.floor(spec.partial_fraction * spec.images_per_class)

    entries: list[ManifestEntry] = []
    records: list[NbiRecord] = []
    rel_paths: list[str] = []
    for cls in range(spec.classes):
        for idx in range(spec.images_per_class):
            bridge = idx // spec.images_per_bridge
            state = _STATES[(cls + bridge) % len(_STATES)]
            structure_raw = f" 00SB{cls}{bridge:04d} "
            partial = idx < n_partial
            img = render_image(cls, spec, rng, partial)
            rel = f"images/c{cls}_{idx:04d}.pnm"
            (out_dir / rel).write_bytes(encode_pnm(img))
            rel_paths.append(rel)
            entries.append(
                ManifestEntry(
                    image_path=rel,
                    bridge_local_id=f"{cls * 10000 + bridge}",
                    state=state,
                    structure_raw=structure_raw,
                    completion="partial" if partial else "complete",
                )
            )
            if idx % spec.images_per_bridge == 0:
                records.append(
                    NbiRecord(
                        state=state,
                        structure_raw=structure_raw,
                        structure=canonicalize(structure_raw),
                        design_load_class=cls + 1,
                        load_rating_tons=class_rating_tons(cls),
                        raw_design_code=str(cls + 1),
                    )
                )

    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text(write_manifest(entries), encoding="utf-8")
    inventory_path = out_dir / "inventory.csv"
    inventory_path.write_text(write_delimited(records), encoding="utf-8")
    return GeneratedCorpus(
        manifest_path=manifest_path,
        inventory_path=inventory_path,
        image_paths=tuple(rel_paths),
    )
