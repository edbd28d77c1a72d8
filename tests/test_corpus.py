import pytest

from bridgecap import corpus, nbi, synth
from bridgecap.errors import FormatError


def record(state, structure_raw, design=None, rating=None):
    return nbi.NbiRecord(
        state=state,
        structure_raw=structure_raw,
        structure=nbi.canonicalize(structure_raw),
        design_load_class=design,
        load_rating_tons=rating,
    )


def entry(path, state, structure, completion=None):
    return corpus.ManifestEntry(
        image_path=path, bridge_local_id="0", state=state,
        structure_raw=structure, completion=completion,
    )


class TestManifest:
    def test_round_trip(self):
        entries = [
            entry("a.pnm", "01", "  00S1 ", completion="complete"),
            entry("b.pnm", "06", "77", completion=None),
        ]
        text = corpus.write_manifest(entries)
        assert corpus.read_manifest(text) == entries

    def test_missing_required_column(self):
        with pytest.raises(FormatError, match="structure"):
            corpus.read_manifest("image_path,bridge_local_id,state\na,b,c\n")

    def test_bad_completion_value(self):
        text = "image_path,bridge_local_id,state,structure,completion\na,0,01,S1,half\n"
        with pytest.raises(FormatError, match="completion"):
            corpus.read_manifest(text)


class TestJoin:
    def test_basic_match_counts(self):
        manifest = [
            entry("a.pnm", "01", "S702"),
            entry("b.pnm", "01", " 0000S702 "),  # same bridge, padded raw key
            entry("c.pnm", "06", "NOPE"),
        ]
        records = [record("01", "S702", design=5, rating=36.0)]
        labeled, report = corpus.join_labels(manifest, records)
        assert report.matched_images == 2
        assert report.unmatched_images == 1
        assert len(labeled) == 2
        assert all(img.design_load_class == 5 for img in labeled)
        assert all(img.load_rating_tons == 36.0 for img in labeled)

    def test_unlabeled_record_counts_matched_but_excluded(self):
        manifest = [entry("a.pnm", "01", "S1")]
        records = [record("01", "S1")]
        labeled, report = corpus.join_labels(manifest, records)
        assert labeled == []
        assert report.matched_images == 1
        assert report.unmatched_images == 0

    def test_duplicate_record_keys_first_wins(self):
        manifest = [entry("a.pnm", "01", "S1")]
        records = [record("01", "S1", design=2), record("01", " 0S1", design=9)]
        labeled, report = corpus.join_labels(manifest, records)
        assert labeled[0].design_load_class == 2
        assert report.duplicate_record_keys == 1

    def test_duplicate_manifest_paths_error(self):
        manifest = [entry("a.pnm", "01", "S1"), entry("a.pnm", "01", "S2")]
        with pytest.raises(FormatError, match="duplicate image path"):
            corpus.join_labels(manifest, [])

    def test_degenerate_manifest_key_counts_unmatched(self):
        manifest = [entry("a.pnm", "01", "0000")]
        labeled, report = corpus.join_labels(manifest, [record("01", "S1", design=1)])
        assert labeled == []
        assert report.unmatched_images == 1

    def test_conservation_and_determinism(self):
        gen = synth.gen_labeled_corpus({1: 7, 2: 5})
        manifest = [
            entry(img.image_path, img.state, img.structure) for img in gen
        ]
        records = [
            record(img.state, img.structure, design=img.design_load_class,
                   rating=img.load_rating_tons)
            for img in gen
        ]
        labeled1, report1 = corpus.join_labels(manifest, records)
        labeled2, report2 = corpus.join_labels(manifest, records)
        assert labeled1 == labeled2 and report1 == report2
        assert report1.matched_images + report1.unmatched_images == len(manifest)

    def test_labels_copied_verbatim(self):
        manifest = [entry("a.pnm", "01", "S9", completion="partial")]
        records = [record("01", "S9", design=4, rating=27.0)]
        labeled, report = corpus.join_labels(manifest, records)
        img = labeled[0]
        assert (img.design_load_class, img.load_rating_tons) == (4, 27.0)
        assert img.completion == "partial"
        assert report.partial_count == 1 and report.complete_count == 0


class TestTagCompletion:
    def test_manifest_flags_pass_through(self):
        images = [
            corpus.LabeledImage(image_path="a", state="01", structure="S1",
                                design_load_class=1, completion="complete"),
            corpus.LabeledImage(image_path="b", state="01", structure="S2",
                                design_load_class=1, completion="partial"),
        ]
        tagged, report = corpus.tag_completion(images, source="manifest")
        assert tagged == images
        assert report.rejects == ()

    def test_missing_flags_become_rejects(self):
        images = [
            corpus.LabeledImage(image_path="a", state="01", structure="S1",
                                design_load_class=1),
        ]
        tagged, report = corpus.tag_completion(images, source="manifest")
        assert tagged == []
        assert report.rejects[0][0] == "a"

    def test_model_source_missing_file_isolated(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import RgbImage, encode_pnm
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        net = Network(micro_cnn(["complete", "partial"], input_shape=(3, 16, 16)), seed=0)
        ckpt = make_checkpoint(net)
        (tmp_path / "ok.pnm").write_bytes(
            encode_pnm(RgbImage(np.zeros((16, 16, 3), dtype=np.uint8)))
        )
        images = [
            corpus.LabeledImage(image_path="ok.pnm", state="01", structure="S1",
                                design_load_class=1),
            corpus.LabeledImage(image_path="gone.pnm", state="01", structure="S2",
                                design_load_class=1),
        ]
        tagged, report = corpus.tag_completion(
            images, source="model", checkpoint=ckpt, image_root=tmp_path
        )
        assert [img.image_path for img in tagged] == ["ok.pnm"]
        assert tagged[0].completion in ("complete", "partial")
        assert tagged[0].design_load_class == 1  # labels untouched
        assert report.rejects[0][0] == "gone.pnm"
        assert len(report.probabilities) == 1

    def test_grayscale_model_tags_every_image(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import RgbImage, encode_pnm
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        descriptor = micro_cnn(["partial", "complete"], input_shape=(3, 12, 12),
                               colour_mode="grayscale")
        ckpt = make_checkpoint(Network(descriptor, seed=3))
        rng = np.random.default_rng(7)
        images = []
        for i in range(4):
            pixels = rng.integers(0, 256, (20, 16, 3)).astype(np.uint8)
            (tmp_path / f"c{i}.pnm").write_bytes(encode_pnm(RgbImage(pixels)))
            images.append(corpus.LabeledImage(image_path=f"c{i}.pnm", state="01",
                                              structure=f"S{i}", design_load_class=2))
        tagged, report = corpus.tag_completion(
            images, source="model", checkpoint=ckpt, image_root=tmp_path
        )
        assert [img.image_path for img in tagged] == [img.image_path for img in images]
        assert report.tagged == 4 and report.rejects == ()

        from bridgecap.imaging import make_loader
        from bridgecap.learner import network_from_checkpoint

        net = network_from_checkpoint(ckpt)
        load = make_loader(tmp_path, "grayscale", (12, 12))
        for path, p in report.probabilities:
            assert p == float(net.forward(load(path)[None])[0, 1])


class TestCorpusStats:
    def test_all_complete_all_labeled(self):
        images = [
            corpus.LabeledImage(image_path=f"i{i}", state="01", structure=f"S{i}",
                                design_load_class=1, completion="complete")
            for i in range(60)
        ]
        stats = corpus.corpus_stats(images)
        assert stats["all"] == {"total": 60, "complete": 60, "partial": 0}
        assert stats["design_load_labeled"]["total"] == 60
        assert stats["rating_labeled"]["total"] == 0

    def test_empty(self):
        stats = corpus.corpus_stats([])
        assert all(v == 0 for row in stats.values() for v in row.values())

    def test_mixed_hand_count(self):
        images = [
            corpus.LabeledImage(image_path="a", state="01", structure="S1",
                                design_load_class=1, completion="complete"),
            corpus.LabeledImage(image_path="b", state="01", structure="S2",
                                load_rating_tons=10.0, completion="partial"),
            corpus.LabeledImage(image_path="c", state="01", structure="S3",
                                design_load_class=2, load_rating_tons=20.0),
        ]
        stats = corpus.corpus_stats(images)
        assert stats["all"] == {"total": 3, "complete": 1, "partial": 1}
        assert stats["design_load_labeled"] == {"total": 2, "complete": 1, "partial": 0}
        assert stats["rating_labeled"] == {"total": 2, "complete": 0, "partial": 1}

    def test_ndjson_round_trip(self):
        images = synth.gen_labeled_corpus({1: 3, 5: 2})
        text = corpus.labeled_to_ndjson(images)
        assert corpus.labeled_from_ndjson(text) == list(images)

    def test_ndjson_optional_fields_default(self):
        text = '{"image_path":"a","state":"01","structure":"S1"}\n'
        assert corpus.labeled_from_ndjson(text) == [
            corpus.LabeledImage(image_path="a", state="01", structure="S1")
        ]

    @pytest.mark.parametrize("bad, reason", [
        ('{"image_path":"b","state":"01","struc', "not valid JSON"),
        ('{"image_path":"b","state":"01"}', "missing required field 'structure'"),
        ("[1, 2]", "expected a JSON object"),
    ], ids=["truncated", "missing_field", "not_an_object"])
    def test_malformed_ndjson_line_is_format_error(self, bad, reason):
        good = corpus.labeled_to_ndjson(synth.gen_labeled_corpus({1: 1}))
        with pytest.raises(FormatError, match=f"line 3: {reason}"):
            corpus.labeled_from_ndjson(good + "\n" + bad + "\n")
