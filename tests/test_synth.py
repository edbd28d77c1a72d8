import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecap import corpus, datasets, imaging, nbi, synth
from bridgecap.errors import DomainError
from bridgecap.learner import Network, TrainConfig, fit
from helpers import gen_confusions, gen_labeled_corpus, linear_head, rating_scheme


def read_tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenCorpus:
    def test_counts(self, tmp_path):
        spec = synth.SynthSpec(classes=3, images_per_class=10, seed=0)
        result = synth.gen_corpus(spec, tmp_path / "c")
        assert len(result.image_paths) == 30
        assert len(list(corpus.iter_manifest(result.manifest_path.read_text()))) == 30
        records, stats = nbi.parse_nbi(
            result.inventory_path.read_bytes().decode("latin-1"),
            nbi.load_builtin_profile("standard"),
        )
        assert stats.reject_count == 0
        # one inventory row per bridge, 10 images / 3 per bridge = 4 bridges per class
        assert len(records) == 12

    def test_deterministic_bytes(self, tmp_path):
        spec = synth.SynthSpec(classes=2, images_per_class=6, seed=9, partial_fraction=0.5)
        synth.gen_corpus(spec, tmp_path / "a")
        synth.gen_corpus(spec, tmp_path / "b")
        a = read_tree_bytes(tmp_path / "a")
        b = read_tree_bytes(tmp_path / "b")
        assert a == b
        synth.gen_corpus(synth.SynthSpec(classes=2, images_per_class=6, seed=10,
                                         partial_fraction=0.5), tmp_path / "c")
        assert read_tree_bytes(tmp_path / "c") != a

    def test_join_matches_everything(self, tmp_path):
        spec = synth.SynthSpec(classes=3, images_per_class=9, seed=4)
        result = synth.gen_corpus(spec, tmp_path / "c")
        manifest = list(corpus.iter_manifest(result.manifest_path.read_text()))
        profile = nbi.load_builtin_profile("standard")
        records, _ = nbi.parse_nbi(result.inventory_path.read_bytes().decode("latin-1"), profile)
        labeled, report = corpus.join_labels(manifest, records)
        assert report.unmatched_images == 0
        assert report.matched_images == 27
        assert len(labeled) == 27

    def test_partial_fraction_flags(self, tmp_path):
        spec = synth.SynthSpec(classes=2, images_per_class=10, seed=1, partial_fraction=0.3)
        result = synth.gen_corpus(spec, tmp_path / "c")
        flags = [e.completion for e in corpus.iter_manifest(result.manifest_path.read_text())]
        assert flags.count("partial") == 6  # floor(0.3 * 10) per class

    def test_partial_images_are_quarter_crops(self, tmp_path):
        spec = synth.SynthSpec(classes=2, images_per_class=4, seed=2,
                               partial_fraction=0.5, image_size=64)
        result = synth.gen_corpus(spec, tmp_path / "c")
        for entry in corpus.iter_manifest(result.manifest_path.read_text()):
            decoded = imaging.decode_pnm((tmp_path / "c" / entry.image_path).read_bytes())
            if entry.completion == "partial":
                assert decoded.shape == (32, 32, 3)
            else:
                assert decoded.shape == (64, 64, 3)

    def test_ratings_rebuild_visual_classes(self):
        scheme = rating_scheme(4)
        for cls in range(4):
            assert datasets.bin_load_rating(synth.class_rating_tons(cls), scheme) == cls + 1

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            synth.SynthSpec(classes=1)
        with pytest.raises(DomainError):
            synth.SynthSpec(partial_fraction=1.5)


def allocating_render_scene(cls, size, noise, jitter, rng):
    """The ``render_scene`` that allocated a new int64 array for the
    background sum, each stripe band and the clip, kept as its oracle."""
    img = synth._BACKGROUND[None, None, :] + rng.integers(-noise, noise + 1, size=(size, size, 3))
    n_stripes = cls + 1
    thickness = max(2, size // 16)
    for i in range(n_stripes):
        center = (i + 1) * size // (n_stripes + 1)
        if jitter:
            center += int(rng.integers(-jitter, jitter + 1))
        top = min(max(center - thickness // 2, 0), size - thickness)
        img[top : top + thickness, :, :] = synth._STRIPE[None, None, :] + rng.integers(
            -noise // 2, noise // 2 + 1, size=(thickness, size, 3)
        )
    return np.clip(img, 0, 255).astype(np.uint8)


class TestRenderScene:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(cls=st.integers(0, 11), size=st.integers(8, 64), noise=st.integers(0, 300),
           jitter=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_allocating_oracle_bytes(self, cls, size, noise, jitter, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scene = synth.render_scene(cls, size, noise, jitter, rng)
        expected = allocating_render_scene(cls, size, noise, jitter, oracle_rng)
        assert scene.dtype == np.uint8 and scene.shape == (size, size, 3)
        assert scene.tobytes() == expected.tobytes()
        # The same draws in the same order, so the next image is unchanged too.
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestLabeledCorpus:
    def test_exact_counts(self):
        labeled = gen_labeled_corpus({1: 10, 5: 3})
        by_class = {}
        for img in labeled:
            by_class[img.design_load_class] = by_class.get(img.design_load_class, 0) + 1
        assert by_class == {1: 10, 5: 3}

    def test_nominal_tonnage_where_defined(self):
        labeled = gen_labeled_corpus({1: 1, 7: 1})
        by_class = {img.design_load_class: img for img in labeled}
        assert by_class[1].load_rating_tons == 10.0
        assert by_class[7].load_rating_tons is None  # pedestrian has no tonnage


class TestGenConfusions:
    def test_shape_and_positivity(self):
        for counts in gen_confusions(20, 5, seed=3):
            assert counts.shape == (5, 5)
            assert counts.min() >= 0
            assert counts.sum() > 0

    def test_seeded_determinism(self):
        a = gen_confusions(10, 3, seed=8)
        b = gen_confusions(10, 3, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSeparability:
    def test_linear_head_on_noiseless_pixels(self):
        spec = synth.SynthSpec(classes=3, images_per_class=40, seed=5, noise=0, jitter=0)
        rng = np.random.default_rng(spec.seed)
        feats, labels = [], []
        for cls in range(spec.classes):
            for _ in range(spec.images_per_class):
                img = synth.render_image(cls, spec, rng, partial=False)
                feats.append(imaging.pixels_to_tensor(imaging.to_pixels(img, "rgb")).ravel())
                labels.append(cls)
        x, y = np.stack(feats), np.array(labels)
        val = np.arange(len(x)) % 5 == 4  # 8 of each class's 40 images
        # raw pixels are 12k-dimensional, so the head needs a small step
        config = TrainConfig(max_epochs=15, learning_rate=0.001, seed=2)
        net = Network(linear_head(x.shape[1], ["0", "1", "2"]), seed=config.seed)
        ckpt = fit(net, x[~val], y[~val], x[val], y[val], config)
        assert max(ckpt.history["val_acc"]) > 0.8
