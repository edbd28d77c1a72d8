import contextlib
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bridgecap import corpus, nbi
from bridgecap.errors import BridgecapError, FormatError
import csv_oracles
from helpers import MANIFEST, damaged, gen_labeled_corpus, opened

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def read_manifest(source):
    return list(corpus.iter_manifest(source))


# The manifest reader strips the path, id and state, and skips a row with
# no visible text: what it can read back unchanged.
stripped = st.text().map(str.strip)
manifest_entries = st.lists(st.builds(
    corpus.ManifestEntry,
    image_path=stripped.filter(bool),
    bridge_local_id=stripped,
    state=stripped,
    structure_raw=st.text(),
    completion=st.sampled_from((None, *corpus.COMPLETION_VALUES)),
), max_size=6)


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
        assert read_manifest(text) == entries

    @PROPERTY
    @given(manifest_entries)
    @example([entry("a\rb.pnm", "01", "S\r1", completion="partial"), entry("c.pnm", "06", "7")])
    def test_round_trip_any_text(self, entries):
        assert read_manifest(corpus.write_manifest(entries)) == entries

    def test_rows_without_a_bare_cr_keep_their_bytes(self):
        entries = [entry("a\rb.pnm", "01", "S1"), entry("c,d.pnm", "06", "7", "complete")]
        assert corpus.write_manifest(entries).split("\n")[1:] == [
            '"a\rb.pnm","0","01","S1",""', '"c,d.pnm",0,06,7,complete', ""]

    def test_missing_required_column(self):
        with pytest.raises(FormatError, match="structure"):
            read_manifest("image_path,bridge_local_id,state\na,b,c\n")

    def test_bad_completion_value(self):
        text = "image_path,bridge_local_id,state,structure,completion\na,0,01,S1,half\n"
        with pytest.raises(FormatError, match="completion"):
            read_manifest(text)

    @pytest.mark.parametrize("source", [str, lambda text: opened(text.encode())],
                             ids=["str", "bytes"])
    def test_unreadable_row_is_format_error(self, source):
        text = "image_path,bridge_local_id,state,structure\na.pnm,0,01,S\r1\n"
        with pytest.raises(FormatError, match="manifest line 2: new-line character"):
            read_manifest(source(text))

    def test_error_names_the_file_line(self):
        text = "image_path,bridge_local_id,state,structure,completion\n\n\na,0,01,S1,half\n"
        with pytest.raises(FormatError, match="manifest line 4: bad completion"):
            read_manifest(text)

    def test_header_beyond_row_is_format_error(self):
        text = "completion,image_path,bridge_local_id,state,structure\ncomplete,a.pnm,0,01\n"
        with pytest.raises(FormatError, match="manifest line 2: too few fields"):
            read_manifest(text)


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

    def test_state_of_other_digits_is_unmatched(self):
        states = ["0\xb2", "\u0660\u0661"]
        manifest = [entry(f"{i}.pnm", state, "S1") for i, state in enumerate(states)]
        records = [record(state, "S1", design=1) for state in states]
        labeled, report = corpus.join_labels(manifest, records)
        assert labeled == [] and report.unmatched_images == 2

    def test_degenerate_manifest_key_counts_unmatched(self):
        manifest = [entry("a.pnm", "01", "0000")]
        labeled, report = corpus.join_labels(manifest, [record("01", "S1", design=1)])
        assert labeled == []
        assert report.unmatched_images == 1

    def test_conservation_and_determinism(self):
        gen = gen_labeled_corpus({1: 7, 2: 5})
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


def two_pass_join(manifest, records):
    """The join as it was before ``join_labels`` made one pass: every
    path is checked for a duplicate before any entry is joined."""
    seen = set()
    for e in manifest:
        if e.image_path in seen:
            raise FormatError(f"duplicate image path in manifest: {e.image_path!r}")
        seen.add(e.image_path)
    index = {}
    for rec in records:
        index.setdefault(rec.key, rec)
    labeled, matched = [], 0
    for e in manifest:
        try:
            key = (e.state, nbi.canonicalize(e.structure_raw))
        except nbi.DegenerateKeyError:
            continue
        rec = index.get(key) if nbi.is_valid_state_code(e.state) else None
        if rec is None:
            continue
        matched += 1
        if rec.design_load_class is not None or rec.load_rating_tons is not None:
            labeled.append(corpus.LabeledImage(e.image_path, *key, rec.design_load_class,
                                               rec.load_rating_tons, e.completion))
    return labeled, corpus.JoinReport(
        matched_images=matched,
        unmatched_images=len(manifest) - matched,
        images_with_design_load=sum(i.design_load_class is not None for i in labeled),
        images_with_rating=sum(i.load_rating_tons is not None for i in labeled),
        complete_count=sum(i.completion == "complete" for i in labeled),
        partial_count=sum(i.completion == "partial" for i in labeled),
        duplicate_record_keys=len(records) - len(index),
    )


def join_or_error(join, manifest, records):
    try:
        return join(manifest, records)
    except FormatError as exc:
        return str(exc)


# Keys that match, degenerate keys (all zeros, blank) and bad state
# codes; half of the manifests repeat one path.
STATES = st.sampled_from(["01", "06", "1", "AB"])
STRUCTURES = st.sampled_from(["S1", " 0s1", "S 2", "0000", ""])


@st.composite
def join_cases(draw):
    records = draw(st.lists(st.builds(
        record, state=STATES, structure_raw=st.sampled_from(["S1", "0S1", "S2"]),
        design=st.none() | st.integers(1, 12), rating=st.none() | st.floats(0, 100),
    ), max_size=6))
    keys = st.tuples(STATES, STRUCTURES)
    if records:
        keys |= st.sampled_from([(r.state, " 0" + r.structure_raw) for r in records])
    manifest = []
    for path in draw(st.lists(st.text("abcdef", min_size=1, max_size=3), max_size=8,
                              unique=True)):
        state, structure = draw(keys)
        completion = draw(st.sampled_from((None, *corpus.COMPLETION_VALUES)))
        manifest.append(entry(path, state, structure, completion))
    if manifest and draw(st.booleans()):
        copy = draw(st.sampled_from(manifest))
        manifest.insert(draw(st.integers(0, len(manifest))), entry(copy.image_path, "01", "S1"))
    return manifest, records


class TestOnePassJoin:
    @PROPERTY
    @given(case=join_cases())
    def test_equals_the_two_pass_join(self, case):
        manifest, records = case
        expected = join_or_error(two_pass_join, manifest, records)
        assert join_or_error(corpus.join_labels, manifest, records) == expected
        # Iterators are walked once.
        assert join_or_error(corpus.join_labels, iter(manifest), iter(records)) == expected

    def test_malformed_row_after_a_duplicate_is_reported_first(self):
        text = ("image_path,bridge_local_id,state,structure,completion\n"
                "a,0,01,S1,\na,0,01,S1,\nb,0,01,S1,half\n")
        with pytest.raises(FormatError, match="manifest line 4: bad completion"):
            read_manifest(text)
        with pytest.raises(FormatError, match="manifest line 4: bad completion"):
            corpus.join_labels(corpus.iter_manifest(text), [])


# Manifest text with quoted fields that hold line breaks, bare \r and
# \r\n line ends and blank rows; half of the texts hold one malformed row.
MANIFEST_ROW = st.tuples(
    st.sampled_from(["a.pnm", " b.pnm ", '"q\nx.pnm"', '"q\r\ny.pnm"', '"q\rz.pnm"']),
    st.sampled_from(["0", ""]),
    st.sampled_from(["01", " 06"]),
    st.sampled_from(["S1", '"S\n2"', "0"]),
    st.sampled_from(["complete", " Partial", ""]),
).map(",".join) | st.sampled_from(["", " ,"])
BAD_MANIFEST_ROW = st.sampled_from(['a.pnm,0,01,"open', "a.pnm,0,01", "a.pnm,0,01,S1,half",
                                    ",0,01,S1,", "a\rb,0,01,S1,"])


@st.composite
def manifest_texts(draw):
    rows = draw(st.lists(MANIFEST_ROW, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_MANIFEST_ROW))
    header = "image_path,bridge_local_id,state,structure,completion"
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    return "".join(row + end for row, end in zip([header, *rows], ends))


def manifest_or_error(read):
    try:
        return read()
    except FormatError as exc:
        return str(exc)


class TestManifestFromFile:
    @settings(PROPERTY, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=manifest_texts())
    def test_rows_equal_those_of_the_read_text(self, text, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(text.encode())
        with open(path) as fh:
            expected = manifest_or_error(lambda: read_manifest(fh.read()))
        with open(path) as fh:
            assert manifest_or_error(lambda: list(corpus.iter_manifest(fh))) == expected


class TestManifestFuzz:
    @PROPERTY
    @given(data=st.data())
    def test_damaged_manifest_raises_only_package_errors(self, data):
        records = [record("01", "S702", design=5, rating=36.0), record("06", "4560", design=2)]
        with contextlib.suppress(BridgecapError):
            corpus.join_labels(corpus.iter_manifest(opened(data.draw(damaged(MANIFEST)))), records)


class TestManifestReader:
    @PROPERTY
    @given(text=manifest_texts())
    def test_entries_and_errors_equal_the_old_reader(self, text):
        # The old reader skipped blank rows too, so every text is compared;
        # its messages ended in the csv module's advice on opening files.
        expected = manifest_or_error(lambda: list(csv_oracles.iter_manifest(text)))
        if isinstance(expected, str):
            expected = expected.removesuffix(
                " - do you need to open the file in universal-newline mode?")
        assert manifest_or_error(lambda: read_manifest(text)) == expected


class TestTagCompletion:
    def test_model_source_missing_file_isolated(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import encode_pnm
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        net = Network(micro_cnn(["complete", "partial"], input_shape=(3, 16, 16)), seed=0)
        ckpt = make_checkpoint(net)
        (tmp_path / "ok.pnm").write_bytes(
            encode_pnm(np.zeros((16, 16, 3), dtype=np.uint8))
        )
        images = [
            corpus.LabeledImage(image_path="ok.pnm", state="01", structure="S1",
                                design_load_class=1),
            corpus.LabeledImage(image_path="gone.pnm", state="01", structure="S2",
                                design_load_class=1),
        ]
        tagged, report = corpus.tag_completion(
            images, ckpt, image_root=tmp_path
        )
        assert [img.image_path for img in tagged] == ["ok.pnm"]
        assert tagged[0].completion in ("complete", "partial")
        assert tagged[0].design_load_class == 1  # labels untouched
        assert report.rejects[0][0] == "gone.pnm"
        assert len(report.probabilities) == 1

    def test_unreadable_file_reason_does_not_repeat_the_path(self, tmp_path):
        import errno
        import os

        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        net = Network(micro_cnn(["complete", "partial"], input_shape=(3, 16, 16)), seed=0)
        images = [corpus.LabeledImage(image_path="gone.pnm", state="01", structure="S1",
                                      design_load_class=1)]
        _, report = corpus.tag_completion(
            images, make_checkpoint(net), image_root=tmp_path
        )
        [(path, reason)] = report.rejects
        assert path == "gone.pnm"
        assert "gone.pnm" not in reason
        assert reason == os.strerror(errno.ENOENT)

    def test_non_pnm_reason_without_pillow_does_not_repeat_the_path(self, tmp_path,
                                                                     monkeypatch):
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        monkeypatch.setitem(sys.modules, "PIL", None)  # as if Pillow were not installed
        (tmp_path / "x.gif").write_bytes(b"GIF89a" + bytes(11))
        net = Network(micro_cnn(["complete", "partial"], input_shape=(3, 16, 16)), seed=0)
        images = [corpus.LabeledImage(image_path="x.gif", state="01", structure="S1",
                                      design_load_class=1)]
        _, report = corpus.tag_completion(images, make_checkpoint(net), image_root=tmp_path)
        assert report.rejects == (("x.gif", "not a binary PNM file and Pillow is not installed"),)

    def test_grayscale_model_tags_every_image(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import encode_pnm
        from bridgecap.learner import Network, make_checkpoint, micro_cnn

        descriptor = micro_cnn(["partial", "complete"], input_shape=(3, 12, 12),
                               colour_mode="grayscale")
        ckpt = make_checkpoint(Network(descriptor, seed=3))
        rng = np.random.default_rng(7)
        images = []
        for i in range(4):
            pixels = rng.integers(0, 256, (20, 16, 3)).astype(np.uint8)
            (tmp_path / f"c{i}.pnm").write_bytes(encode_pnm(pixels))
            images.append(corpus.LabeledImage(image_path=f"c{i}.pnm", state="01",
                                              structure=f"S{i}", design_load_class=2))
        tagged, report = corpus.tag_completion(
            images, ckpt, image_root=tmp_path
        )
        assert [img.image_path for img in tagged] == [img.image_path for img in images]
        assert report.tagged == 4 and report.rejects == ()

        from bridgecap.imaging import load_batch
        from bridgecap.learner import network_from_checkpoint

        net = network_from_checkpoint(ckpt)
        batch = net.forward(load_batch([img.image_path for img in images], tmp_path,
                                       "grayscale", (12, 12)))
        for (path, p), row in zip(report.probabilities, batch):
            assert p == float(row[1])


    def test_corrupt_image_rejected_rest_tagged_in_order(self, tmp_path):
        import numpy as np

        from bridgecap.imaging import encode_pnm, load_batch
        from bridgecap.learner import (
            Network, make_checkpoint, micro_cnn, network_from_checkpoint, predict_proba,
        )

        ckpt = make_checkpoint(
            Network(micro_cnn(["complete", "partial"], input_shape=(3, 12, 12)), seed=4)
        )
        rng = np.random.default_rng(11)
        images = []
        for i in range(7):
            data = encode_pnm(rng.integers(0, 256, (20, 18, 3)).astype(np.uint8))
            (tmp_path / f"m{i}.pnm").write_bytes(data[:-5] if i == 3 else data)
            images.append(corpus.LabeledImage(image_path=f"m{i}.pnm", state="01",
                                              structure=f"S{i}", design_load_class=1))
        tagged, report = corpus.tag_completion(
            images, ckpt, image_root=tmp_path
        )
        kept = [f"m{i}.pnm" for i in range(7) if i != 3]
        assert [img.image_path for img in tagged] == kept
        assert [path for path, _ in report.rejects] == ["m3.pnm"]
        assert "payload length mismatch" in report.rejects[0][1]
        assert "m3.pnm" not in report.rejects[0][1]  # the reject names it once

        expected = predict_proba(network_from_checkpoint(ckpt),
                                 load_batch(kept, tmp_path, "rgb", (12, 12)))[:, 0]
        assert report.probabilities == tuple(zip(kept, expected.tolist()))
        assert [img.completion for img in tagged] == [
            "complete" if p >= 0.5 else "partial" for p in expected
        ]

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
        images = gen_labeled_corpus({1: 3, 5: 2})
        text = corpus.labeled_to_ndjson(images)
        assert corpus.labeled_from_ndjson(text) == list(images)

    def test_ndjson_optional_fields_default(self):
        text = '{"image_path":"a","state":"01","structure":"S1"}\n'
        assert corpus.labeled_from_ndjson(text) == [
            corpus.LabeledImage(image_path="a", state="01", structure="S1")
        ]

    @pytest.mark.parametrize("field, value, reason", [
        ("load_rating_tons", '"abc"', "must be float | None, got a string"),
        ("load_rating_tons", "true", "must be float | None, got a boolean"),
        ("design_load_class", "2.0", "must be int | None, got a decimal number"),
        ("image_path", "null", "must be str, got null"),
        ("completion", "[1]", "must be str | None, got an array"),
        ("load_rating_tons", "NaN", "NaN is not a JSON number"),
        ("load_rating_tons", "Infinity", "Infinity is not a JSON number"),
        ("load_rating_tons", "-Infinity", "-Infinity is not a JSON number"),
        ("load_rating_tons", "1e400", "1e400 overflows a double"),
    ])
    def test_ndjson_value_of_wrong_type_is_format_error(self, field, value, reason):
        good = corpus.labeled_to_ndjson(gen_labeled_corpus({1: 1}))
        # The original value moves to a key no field has, which is ignored.
        bad = good.replace(f'"{field}":', f'"{field}":{value},"_":', 1)
        with pytest.raises(FormatError, match=f"line 2: .*{re.escape(reason)}"):
            corpus.labeled_from_ndjson(good + bad)

    def test_ndjson_int_fills_float_field(self):
        text = '{"image_path":"a","state":"01","structure":"S1","load_rating_tons":10}\n'
        assert corpus.labeled_from_ndjson(text)[0].load_rating_tons == 10

    @pytest.mark.parametrize("bad, reason", [
        ('{"image_path":"b","state":"01","struc', "not valid JSON"),
        ('{"image_path":"b","state":"01"}', "missing required field 'structure'"),
        ("[1, 2]", "expected a JSON object"),
        ("[" * 100_000, "nested too deeply to parse"),
    ], ids=["truncated", "missing_field", "not_an_object", "deeply_nested"])
    def test_malformed_ndjson_line_is_format_error(self, bad, reason):
        good = corpus.labeled_to_ndjson(gen_labeled_corpus({1: 1}))
        with pytest.raises(FormatError, match=f"line 3: {reason}"):
            corpus.labeled_from_ndjson(good + "\n" + bad + "\n")
