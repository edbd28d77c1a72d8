import csv
import io
import json
import math
import re
import struct
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecap import cli
from bridgecap import evaluation as ev
from bridgecap import _records, report
from bridgecap._records import from_ndjson, plain, to_ndjson
from bridgecap.corpus import JoinReport, LabeledImage, TagReport, labeled_from_ndjson
from bridgecap.datasets import BinningScheme, bin_load_rating
from bridgecap.errors import DomainError, FormatError
from bridgecap.learner import Network, micro_cnn
from bridgecap.learner.checkpoint import checkpoint_to_bytes, make_checkpoint
from bridgecap.nbi import NbiFileStats, NbiRecord
from helpers import opened

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

CM3 = ev.ConfusionMatrix(np.array([[3, 1, 0], [0, 4, 1], [1, 0, 5]]), labels=("a", "b", "c"))

# Each record type the CLI writes, and its JSON in compact form; the
# file holds the same keys in the same order, indented by two spaces.
WRITTEN = {
    "confusion": (
        lambda: CM3,
        '{"counts": [[3, 1, 0], [0, 4, 1], [1, 0, 5]], "labels": ["a", "b", "c"]}',
    ),
    "metrics_with_null_recall": (
        lambda: ev.metrics(ev.ConfusionMatrix(np.array([[2, 1], [0, 0]]), labels=("x", "y"))),
        '{"accuracy": 0.6666666666666666, "macro_f1": 0.8, "macro_precision": 0.5,'
        ' "macro_recall": 0.6666666666666666, "per_class": ['
        '{"f1": 0.8, "label": "x", "precision": 1.0, "recall": 0.6666666666666666},'
        ' {"f1": null, "label": "y", "precision": 0.0, "recall": null}], "total": 3}',
    ),
    "error_distribution": (
        lambda: ev.error_distribution(CM3),
        '{"mass": {"-1": 0.0, "-2": 0.06666666666666667, "0": 0.8,'
        ' "1": 0.13333333333333333, "2": 0.0}, "total": 15}',
    ),
    "binarization": (
        lambda: [ev.binarize(CM3, level) for level in ev.DEFAULT_LEVELS[:2]],
        '[{"accuracy": 0.8666666666666667, "boundary": 1, "f1": 0.75, "level": 1,'
        ' "matrix": {"counts": [[3, 1], [1, 10]], "labels": ["<= class 1", "> class 1"]},'
        ' "positive": "lower than threshold", "precision": 0.75, "recall": 0.75,'
        ' "threshold_tons": 10.0},'
        ' {"accuracy": 0.8666666666666667, "boundary": 2, "f1": 0.8888888888888888, "level": 2,'
        ' "matrix": {"counts": [[8, 1], [1, 5]], "labels": ["<= class 2", "> class 2"]},'
        ' "positive": "lower than threshold", "precision": 0.8888888888888888,'
        ' "recall": 0.8888888888888888, "threshold_tons": 15.0}]',
    ),
    "join_report": (
        lambda: JoinReport(5, 1, 4, 3, 2, 1, duplicate_record_keys=1),
        '{"complete_count": 2, "duplicate_record_keys": 1, "images_with_design_load": 4,'
        ' "images_with_rating": 3, "matched_images": 5, "partial_count": 1,'
        ' "unmatched_images": 1}',
    ),
    "tag_report": (
        lambda: TagReport(2, rejects=(("b.pnm", "truncated"),),
                          probabilities=(("a.pnm", 0.25), ("c.pnm", 0.75))),
        '{"probabilities": [["a.pnm", 0.25], ["c.pnm", 0.75]],'
        ' "rejects": [["b.pnm", "truncated"]], "tagged": 2}',
    ),
    "nbi_stats_with_rejects": (
        lambda: NbiFileStats(4, 2, 1, 0, 2, rejects=(
            (3, "bad state code 'x1'"), (5, "structure number longer than 15 chars"))),
        '{"parsed_rows": 2, "reject_count": 2, "rejects": [[3, "bad state code \'x1\'"],'
        ' [5, "structure number longer than 15 chars"]], "rows_missing_design_load": 1,'
        ' "rows_missing_rating": 0, "total_rows": 4}',
    ),
}

MICRO_CNN_METADATA = (
    '{"class_labels":["low","high"],"colour_mode":"grayscale","input_shape":[1,8,8],'
    '"layers":[{"in_ch":1,"kh":3,"kw":3,"op":"conv","out_ch":16,"pad":1,"stride":1},'
    '{"op":"relu"},{"k":2,"op":"maxpool","stride":2},'
    '{"in_ch":16,"kh":3,"kw":3,"op":"conv","out_ch":32,"pad":1,"stride":1},'
    '{"op":"relu"},{"k":2,"op":"maxpool","stride":2},{"op":"flatten"},'
    '{"n_in":128,"n_out":128,"op":"fc"},{"op":"relu"},{"n_in":128,"n_out":2,"op":"fc"},'
    '{"op":"softmax"}]}'
)


class TestWrittenBytes:
    @pytest.mark.parametrize("kind", WRITTEN)
    def test_cli_json_writer(self, tmp_path, kind):
        make, compact = WRITTEN[kind]
        path = tmp_path / f"{kind}.json"
        cli._dump_json(make(), path)
        assert path.read_text() == json.dumps(json.loads(compact), indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_cli_json_writer_rejects_non_finite_numbers(self, tmp_path, value):
        path = tmp_path / "history.json"
        with pytest.raises(DomainError, match="cannot write history.json"):
            cli._dump_json({"val_acc": [0.5, value]}, path)
        assert not path.exists()

    def test_checkpoint_metadata(self):
        descriptor = micro_cnn(("low", "high"), input_shape=(1, 8, 8), colour_mode="grayscale")
        data = checkpoint_to_bytes(make_checkpoint(Network(descriptor, seed=0)))
        (meta_len,) = struct.unpack_from("<Q", data, 8)
        assert data[16:16 + meta_len].decode() == MICRO_CNN_METADATA


@st.composite
def confusion_matrices(draw):
    k = draw(st.integers(1, 6))
    counts = draw(st.lists(st.lists(st.integers(0, 2**62), min_size=k, max_size=k),
                           min_size=k, max_size=k))
    labels = draw(st.just(()) | st.lists(st.text(max_size=5), min_size=k, max_size=k))
    return ev.ConfusionMatrix(np.array(counts, dtype=np.int64), labels=tuple(labels))


class TestPlain:
    @PROPERTY
    @given(cm=confusion_matrices())
    def test_confusion_matrix_round_trips(self, cm):
        back = ev.ConfusionMatrix.from_dict(json.loads(json.dumps(plain(cm))))
        assert back.counts.dtype == cm.counts.dtype
        assert np.array_equal(back.counts, cm.counts)
        assert back.labels == cm.labels

    def test_values_become_json(self):
        assert plain({1: (2, [np.arange(2)]), "k": None}) == {"1": [2, [[0, 1]]], "k": None}


# Any code point: lone surrogates, control characters and line separators too.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["\ud800", "\udfff x", "\x00\x1f\x7f", "é\u2028\x85", '"\\/', "NaN"])
INTS = st.integers(-(2**70), 2**70)
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(min_value=1e15, max_value=1e17)
          | st.sampled_from([-0.0, 1e16, 1e16 + 2, 2.0**53 + 1, 5e-324]))


def record_lists(numbers):
    """(record class, list of its records) with ``numbers`` in float fields."""
    nbi = st.builds(NbiRecord, state=TEXT, structure_raw=TEXT, structure=TEXT,
                    design_load_class=st.none() | INTS,
                    load_rating_tons=st.none() | numbers | INTS,
                    raw_design_code=st.none() | TEXT)
    labeled = st.builds(LabeledImage, image_path=TEXT, state=TEXT, structure=TEXT,
                        design_load_class=st.none() | INTS,
                        load_rating_tons=st.none() | numbers | INTS,
                        completion=st.none() | TEXT)
    return (st.tuples(st.just(NbiRecord), st.lists(nbi, max_size=4))
            | st.tuples(st.just(LabeledImage), st.lists(labeled, max_size=4)))


JSON_LINES = st.lists(
    st.recursive(st.none() | st.booleans() | INTS | st.floats() | TEXT,
                 lambda children: st.lists(children, max_size=3)
                 | st.dictionaries(TEXT | st.sampled_from([f.name for f in fields(LabeledImage)]),
                                   children, max_size=7),
                 max_leaves=8).map(json.dumps),
    max_size=3,
).map("\n".join)


JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | INTS | FINITE | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)


class TestJsonCodec:
    @PROPERTY
    @given(value=JSON_DOCUMENTS, indent=st.sampled_from([None, 2]))
    def test_dumps_then_loads_round_trips(self, value, indent):
        text = _records.dumps(value, "doc", indent=indent)
        assert text == json.dumps(value, sort_keys=True, indent=indent,
                                  separators=(",", ": " if indent else ":"))
        assert _records.loads(text, "doc") == value
        assert _records.loads(text.encode(), "doc") == value

    @pytest.mark.parametrize("text, reason", [
        ("[NaN]", "not valid JSON (NaN is not a JSON number)"),
        ('{"a": -Infinity}', "not valid JSON (-Infinity is not a JSON number)"),
        ("[1e999]", "not valid JSON (1e999 overflows a double)"),
        ("[-1e999]", "not valid JSON (-1e999 overflows a double)"),
        ('{"a": }', "not valid JSON (Expecting value)"),
        ('{\n  "a": \n}\n', "not valid JSON (Expecting value at line 3 column 1)"),
        (b'["\xff"]', "not valid JSON ('utf-8' codec can't decode byte 0xff in position 2: "
                       "invalid start byte)"),
        ("[" * 100_000, "nested too deeply to parse"),
    ], ids=["nan", "minus_infinity", "overflow", "minus_overflow", "syntax_one_line",
            "syntax_lines", "not_utf8", "nested_deep"])
    def test_unreadable_text_is_format_error(self, text, reason):
        with pytest.raises(FormatError, match=f"^doc: {re.escape(reason)}$"):
            _records.loads(text, "doc")


class TestNdjson:
    @PROPERTY
    @given(case=record_lists(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_lines_are_the_json_encoding(self, case):
        cls, records = case
        try:
            expected = "".join(
                json.dumps({f.name: getattr(r, f.name) for f in fields(cls)},
                           sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
                for r in records
            )
        except ValueError:  # JSON has no NaN or Infinity
            with pytest.raises(DomainError, match="non-finite"):
                to_ndjson(cls, records)
            return
        assert to_ndjson(cls, records) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
                             ids=["nan", "inf", "-inf", "np_nan"])
    def test_non_finite_float_is_domain_error(self, value):
        record = LabeledImage("a", "01", "S", None, value)
        with pytest.raises(DomainError, match="non-finite|not JSON compliant"):
            to_ndjson(LabeledImage, [record])

    @PROPERTY
    @given(case=record_lists(FINITE))
    def test_round_trips(self, case):
        cls, records = case
        text = to_ndjson(cls, records)
        back = from_ndjson(cls, text)
        assert back == records
        assert to_ndjson(cls, back) == text  # -0.0 and int-valued floats kept

    @PROPERTY
    @given(text=JSON_LINES | st.text(st.characters(exclude_categories=())))
    def test_arbitrary_text_raises_only_format_error(self, text):
        try:
            records = from_ndjson(LabeledImage, text)
        except FormatError:
            return
        for r in records:
            assert isinstance(r.image_path, str)
            assert r.load_rating_tons is None or math.isfinite(r.load_rating_tons)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_format_error(self, value):
        line = '{"image_path":"a","state":"01","structure":"S1","load_rating_tons":%s}'
        with pytest.raises(FormatError, match="line 1: not valid JSON"):
            from_ndjson(LabeledImage, line % value)


# Every separator str.splitlines breaks at, of which only \n and \r\n end
# a line, and pieces of ndjson lines: whole records, blanks and fragments
# that raise FormatError.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
LINE_PIECES = st.sampled_from([
    '{"image_path":"a","state":"01","structure":"S1"}',
    '{"image_path":"b\\u2028","state":"06","structure":"S2","load_rating_tons":1.5}',
    "", "  ", '{"image_path":"c"}', '{"image_path":', "[1]", "x",
])
BREAKS = st.sampled_from(LINE_BREAKS)
NDJSON_TEXT = st.lists(st.tuples(LINE_PIECES, BREAKS), max_size=12).map(
    lambda parts: "".join(piece + brk for piece, brk in parts)) | st.tuples(
    st.lists(st.tuples(LINE_PIECES, BREAKS), max_size=12), LINE_PIECES).map(
    lambda case: "".join(piece + brk for piece, brk in case[0]) + case[1])


def _records_or_error(source):
    try:
        return from_ndjson(LabeledImage, source)
    except FormatError as exc:
        return str(exc)


def newline_rule_lines(text):
    """The lines of ``text`` when a line ends only at \\n, a \\r\\n at its \\n."""
    *ended, last = text.split("\n")
    return [line.removesuffix("\r") for line in ended] + ([last] if last else [])


class TestBlockReader:
    """An open file is decoded in blocks of ``_CHUNK_SIZE`` bytes and read
    one line at a time; wherever a block ends, its lines, records and
    FormatError line numbers are those of its whole text, where a line
    ends only at ``\\n``."""

    @PROPERTY
    @given(text=NDJSON_TEXT | st.text(st.sampled_from("abé€\n\r" + "".join(LINE_BREAKS))),
           size=st.integers(1, 9))
    def test_lines_end_only_at_newline(self, text, size):
        numbered = list(enumerate(newline_rule_lines(text), 1))
        assert list(_records.iter_lines(opened(text.encode(), size))) == numbered
        assert list(_records.iter_lines(text)) == numbered

    def test_raw_line_separators_stay_in_their_line(self, tmp_path):
        record = LabeledImage("a\u2028b\x85c\u2029d", "01", "S1")
        line = json.dumps(plain(record), ensure_ascii=False)
        path = tmp_path / "labeled.ndjson"
        path.write_bytes(f"{line}\n{line}\r\n".encode())
        for size in (1, 1 << 20):
            with open(path, encoding="utf-8", newline="\n") as fh:
                fh._CHUNK_SIZE = size
                assert from_ndjson(LabeledImage, fh) == [record, record]
        assert from_ndjson(LabeledImage, f"{line}\n{line}") == [record, record]

    def test_bare_carriage_return_ends_no_line(self):
        line = '{"image_path":"a","state":"01","structure":"S1"}'
        with pytest.raises(FormatError, match=r"^line 1: not valid JSON \(Extra data\)$"):
            from_ndjson(LabeledImage, f"{line}\r{line}\r")

    @PROPERTY
    @given(text=NDJSON_TEXT, size=st.integers(1, 40))
    def test_records_and_errors_equal_those_of_the_text(self, text, size):
        assert _records_or_error(opened(text.encode(), size)) == _records_or_error(text)

    def test_file_reads_like_its_text(self, tmp_path):
        path = tmp_path / "labeled.ndjson"
        good = '{"image_path":"a","state":"01","structure":"S1"}'
        path.write_bytes((good + "\r\n\r\n" + good + "\r" + good + "\n{").encode())
        for size in (1, 2, 49, 50, 51, 1 << 20):
            with open(path) as fh:
                fh._CHUNK_SIZE = size
                assert _records_or_error(fh) == _records_or_error(path.read_text())
        assert "line 5: not valid JSON" in _records_or_error(path.read_text())

    @pytest.mark.parametrize("size", [1, 7, 1 << 20])
    def test_file_that_is_not_utf8_names_its_path_and_line(self, tmp_path, size):
        path = tmp_path / "labeled.ndjson"
        good = b'{"image_path":"a","state":"01","structure":"S1"}\n'
        path.write_bytes(good * 3000 + b'{"image_path":"\xc3"}\n' + good)
        with open(path, encoding="utf-8") as fh, pytest.raises(FormatError) as info:
            fh._CHUNK_SIZE = size
            from_ndjson(LabeledImage, fh)
        assert str(info.value) == f"{path} line 3001: not utf-8 text (invalid continuation byte)"

    def test_the_first_fault_in_the_file_is_reported(self, tmp_path):
        # The bad JSON line comes about 100 KB before the byte that is not
        # UTF-8, so the two are decoded in different blocks.
        path = tmp_path / "labeled.ndjson"
        good = b'{"image_path":"a","state":"01","structure":"S1"}\n'
        path.write_bytes(good * 9 + b"{\n" + good * 2000 + b'{"image_path":"\xc3"}\n')
        with open(path, encoding="utf-8", newline="\n") as fh, \
                pytest.raises(FormatError) as info:
            labeled_from_ndjson(fh)
        assert str(info.value) == (
            "line 10: not valid JSON (Expecting property name enclosed in double quotes)")

    def test_file_gets_the_bytes_of_the_text(self):
        records = [LabeledImage(f"p{i}", "01", f"S{i}", i, i / 3) for i in range(25)]
        buffer = io.BytesIO()
        out = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
        assert to_ndjson(LabeledImage, (r for r in records), out) is None  # one pass
        out.flush()
        assert buffer.getvalue() == to_ndjson(LabeledImage, records).encode()

    def test_csv_blocks_write_the_text_of_one_block(self):
        rows = [[f"p{i}", "a\rb" if i == 5 else "c,d", i] for i in range(11)]
        whole = _records.to_csv(["path", "x", "n"], rows)
        assert whole.count('"a\rb"') == 1 and whole.count('"p5"') == 1  # quoted row
        assert whole.count("p4,") == 1  # rows without a \r keep their bytes
        out = io.StringIO()
        with mock.patch.object(_records, "_RECORDS_PER_BLOCK", 3):
            assert _records.to_csv(["path", "x", "n"], iter(rows), out=out) is None
        assert out.getvalue() == whole

    def test_report_tables_read_back(self):
        metrics = {"accuracy": 0.5, "macro_precision": 0.25, "macro_recall": None,
                   "macro_f1": 1.0, "per_class": [
                       {"label": "a\rb", "precision": 0.5, "recall": 0.5, "f1": 0.5},
                       {"label": "c,d", "precision": 1.0, "recall": 0.0, "f1": None}]}
        text = report.metrics_to_csv(metrics)
        # A row holding a \r is quoted whole; every other row keeps the
        # bytes csv.writer gives it.
        assert text == ('metric,class,value\naccuracy,,0.500000\nmacro_precision,,0.250000\n'
                        'macro_recall,,\nmacro_f1,,1.000000\n'
                        '"precision","a\rb","0.500000"\n"recall","a\rb","0.500000"\n'
                        '"f1","a\rb","0.500000"\n'
                        'precision,"c,d",1.000000\nrecall,"c,d",0.000000\nf1,"c,d",\n')
        assert [row[1] for row in csv.reader(io.StringIO(text, newline=""))][5:] == (
            ["a\rb"] * 3 + ["c,d"] * 3)

        cm = ev.confusion([0, 1, 1, 2], [0, 1, 2, 2], k=3, labels=("x", "y", "z"))
        dist = plain(ev.error_distribution(cm))
        rows = list(csv.reader(io.StringIO(report.distribution_to_csv(dist), newline="")))
        assert rows == [["signed_distance", "mass"],
                        *([str(d), f"{dist['mass'][str(d)]:.6f}"] for d in (-2, -1, 0, 1, 2))]
        reports = plain([ev.binarize(cm, ev.BinarizationLevel(1, 10.0, 1))])
        rows = list(csv.reader(io.StringIO(report.binarization_to_csv(reports), newline="")))
        assert rows[1][:7] == ["1", "10.0", "1", "1", "0", "0", "3"]


# CSV text from pieces that quote, split and end rows, with \r and \r\n
# inside and outside quotes.
CSV_TEXT = st.lists(st.sampled_from(["a", "é", " ", ",", '"', '""', "\r", "\n", "\r\n"]),
                    max_size=16).map("".join)


def _csv_rows_or_error(source):
    try:
        return list(_records.iter_csv(source, "table"))
    except FormatError as exc:
        return str(exc)


class TestCsvReader:
    @PROPERTY
    @given(text=CSV_TEXT, size=st.integers(1, 9))
    def test_a_file_gives_the_rows_and_lines_of_its_text(self, text, size):
        assert _csv_rows_or_error(opened(text.encode(), size)) == _csv_rows_or_error(text)

    def test_rows_of_blank_cells_are_skipped(self):
        assert list(_records.iter_csv('a\n \n,\n"\n"\n\nb,\n', "table")) == [
            (1, ["a"]), (7, ["b", ""])]

    def test_error_names_what_and_line_without_the_open_hint(self):
        with pytest.raises(FormatError) as info:
            list(_records.iter_csv("a\nb\rc\n", "table"))
        assert str(info.value) == "table line 2: new-line character seen in unquoted field"

    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1), (b"a\nb\n\xffc\n", 3), (b"a\r\nb,\"\xe9\n\"\n", 2),
        (b"a\n" * 9000 + b"\xc3", 9001),
    ], ids=["first", "third", "quoted", "truncated_at_end"])
    def test_bytes_that_are_not_utf8_name_what_and_line(self, data, line):
        for rejects in (None, []):
            with pytest.raises(FormatError, match=rf"^table line {line}: not utf-8 text \("):
                list(_records.iter_csv(opened(data), "table", rejects))

    def test_rejects_take_the_error_and_reading_resumes(self):
        rejects = []
        rows = list(_records.iter_csv("a\nb\rc\nd;e\n", "table", rejects, ";"))
        assert rows == [(1, ["a"]), (3, ["d", "e"])]
        assert rejects == [(2, "unreadable row: new-line character seen in unquoted field")]


@st.composite
def schemes(draw):
    rest = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), max_size=6, unique=True))
    return BinningScheme(name="s", edges=(0.0, *sorted(rest)))


class TestBinner:
    @PROPERTY
    @given(scheme=schemes(), tons=st.floats(min_value=0.0, max_value=1e301)
           | st.integers(0, 2**40))
    def test_matches_searchsorted(self, scheme, tons):
        expected = int(np.searchsorted(np.array(scheme.edges), tons, side="right"))
        assert bin_load_rating(tons, scheme) == expected
