import io
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecap import nbi
from bridgecap.errors import BridgecapError, ConfigError, DegenerateKeyError, FormatError
from csv_oracles import parse_delimited_nbi
from helpers import INVENTORIES, damaged, fixed_width_line

STANDARD = nbi.load_builtin_profile("standard")

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=400)

# Hand-built expectations for the 20-row fixture: 17 parsed, 3 rejected.
GOLDEN = [
    ("01", "S702", 5, 36.0),
    ("01", "S703", 1, 10.0),
    ("06", "4560", 2, None),
    ("12", "123456789", 3, 20.0),
    ("36", "BR-77", 4, 27.5),
    ("48", "A1B2", 5, 36.2),
    ("01", "X900", None, 12.0),
    ("06", "X901", 9, 3.0),
    ("12", "X902", 10, 45.0),
    ("36", "X903", 11, None),
    ("48", "X904", 12, 7.4),
    ("01", "X905", 6, 36.0),
    ("06", "X906", 7, None),
    ("12", "X907", 8, 15.0),
    ("36", "X908", None, 18.0),
    ("48", "X909", 2, None),  # 999 t is implausible -> absent
    ("01", "X910", 3, 0.0),
]

# Hand count of the fixture's ratings in 5-ton bins.
GOLDEN_HISTOGRAM = {
    "0-5": 2,
    "5-10": 1,
    "10-15": 2,
    "15-20": 2,
    "20-25": 1,
    "25-30": 1,
    "35-40": 3,
    "45-50": 1,
}


class TestCanonicalize:
    def test_normalization_rule(self):
        assert nbi.canonicalize("  004560 ") == "4560"
        assert nbi.canonicalize("S702") == "S702"
        assert nbi.canonicalize("  0000S702 ") == "S702"
        assert nbi.canonicalize("br 77") == "BR77"

    def test_degenerate_inputs(self):
        for raw in ("00000000", "   ", "0", " 0 0 "):
            with pytest.raises(DegenerateKeyError):
                nbi.canonicalize(raw)

    def test_idempotent_and_case_insensitive_fuzz(self):
        rng = np.random.default_rng(20240917)
        alphabet = string.ascii_letters + string.digits + "-"
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 12))
            raw = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
            raw = "0" * int(rng.integers(0, 4)) + raw + " " * int(rng.integers(0, 3))
            try:
                canonical = nbi.canonicalize(raw)
            except DegenerateKeyError:
                continue
            assert nbi.canonicalize(canonical) == canonical
            assert nbi.canonicalize("  " + raw.lower()) == canonical
            checked += 1


def _canonical(raw):
    try:
        return nbi.canonicalize(raw)
    except DegenerateKeyError:
        return None


STRUCTURES = st.text(max_size=nbi.MAX_STRUCTURE_LEN).filter(_canonical)


@st.composite
def nbi_records(draw):
    raw = draw(STRUCTURES)
    code = draw(st.none() | st.integers(1, 12))
    return nbi.NbiRecord(
        state=draw(st.text("0123456789", min_size=2, max_size=2)),
        structure_raw=raw,
        structure=nbi.canonicalize(raw),
        design_load_class=code,
        load_rating_tons=draw(st.none() | st.floats(0, nbi.MAX_RATING_TONS, exclude_max=True)),
        raw_design_code=None if code is None else str(code),
    )


class TestProperties:
    @PROPERTY
    @given(raw=STRUCTURES)
    def test_canonicalize_is_idempotent(self, raw):
        assert nbi.canonicalize(nbi.canonicalize(raw)) == nbi.canonicalize(raw)

    @PROPERTY
    @given(records=st.lists(nbi_records(), max_size=5))
    def test_write_then_parse_round_trips(self, records):
        again, stats = nbi.parse_nbi(nbi.write_delimited(records), STANDARD)
        assert again == records
        assert stats.reject_count == 0


PIPES = nbi.profile_from_dict({
    "name": "pipes", "format": {"kind": "delimited", "separator": "|", "has_header": False},
    "columns": {"state": 0, "structure": 1, "design_load": 2, "rating": 3},
    "design_code_map": {"3": 3}, "rating_divisor": 1,
})


@st.composite
def inventory_texts(draw, profile):
    """Inventory text with quoted fields that hold line breaks, bare \\r
    and \\r\\n line ends, blank, short, unreadable and rejected rows."""
    sep = profile.file_format.separator
    row = st.tuples(
        st.sampled_from(["01", " 06", "X1", ""]),
        st.sampled_from(["S1", '"S\n2"', '"q\rz"', '"q\r\nz"', "1\r2", "ABCDEFGH12345678",
                         '"open']),
        st.sampled_from(["3", "", "Z"]),
        st.sampled_from(["12.5", "", "abc"]),
    ).map(sep.join) | st.sampled_from(["", " ", sep * 3, "01", f"01{sep}S1"])
    rows = draw(st.lists(row, max_size=8))
    if profile.file_format.has_header:
        good = "state,structure,design_load_code,load_rating_tons"
        rows.insert(0, draw(st.sampled_from([good, good, good, "state,structure"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows),
                         max_size=len(rows)))
    return "".join(r + end for r, end in zip(rows, ends))


def parsed_or_error(parse):
    try:
        return parse()
    except FormatError as exc:
        return str(exc)


class TestDelimitedReader:
    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("profile", [STANDARD, PIPES], ids=["standard", "pipes"])
    def test_records_and_rejects_equal_the_old_reader(self, profile, data):
        # The old reader skipped blank rows too, so every text is compared.
        text = data.draw(inventory_texts(profile))
        assert parsed_or_error(lambda: nbi.parse_nbi(text, profile)) == parsed_or_error(
            lambda: parse_delimited_nbi(text, profile))


def parsed_or_error_type(source, profile):
    try:
        return nbi.parse_nbi(source, profile)
    except BridgecapError as exc:
        return type(exc), str(exc)


class TestInventoryFuzz:
    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("name", sorted(INVENTORIES))
    def test_damaged_inventory_raises_only_package_errors(self, name, data):
        profile = nbi.load_builtin_profile(name)
        text = data.draw(damaged(INVENTORIES[name])).decode("latin-1")
        result = parsed_or_error_type(text, profile)
        # An open file is read as it is parsed, and gives what its text gives.
        assert parsed_or_error_type(io.StringIO(text), profile) == result
        if isinstance(result[1], str):
            return
        records, stats = result
        assert stats.parsed_rows + stats.reject_count == stats.total_rows
        assert stats.parsed_rows == len(records)


class TestParseFixture:
    def test_golden_records(self, nbi_fixture_records):
        records, _ = nbi_fixture_records
        got = [(r.state, r.structure, r.design_load_class, r.load_rating_tons) for r in records]
        assert got == GOLDEN

    def test_totals_balance(self, nbi_fixture_records):
        _, stats = nbi_fixture_records
        assert stats.total_rows == 20
        assert stats.parsed_rows == 17
        assert stats.reject_count == 3
        assert stats.parsed_rows + stats.reject_count == stats.total_rows

    def test_missing_counts(self, nbi_fixture_records):
        _, stats = nbi_fixture_records
        assert stats.rows_missing_design_load == 2
        assert stats.rows_missing_rating == 4

    def test_reject_reasons_carry_line_numbers(self, nbi_fixture_records):
        _, stats = nbi_fixture_records
        lines = [line for line, _ in stats.rejects]
        assert lines == [19, 20, 21]
        reasons = " | ".join(reason for _, reason in stats.rejects)
        assert "state" in reasons and "empty key" in reasons

    def test_unmapped_code_keeps_raw(self, nbi_fixture_records):
        records, _ = nbi_fixture_records
        rec = next(r for r in records if r.structure == "X908")
        assert rec.raw_design_code == "unknown"
        assert rec.design_load_class is None

    def test_histogram_hand_count(self, nbi_fixture_records):
        records, _ = nbi_fixture_records
        assert nbi.rating_histogram(records) == GOLDEN_HISTOGRAM

    def test_round_trip(self, nbi_fixture_records):
        records, _ = nbi_fixture_records
        text = nbi.write_delimited(records)
        again, stats = nbi.parse_nbi(text, STANDARD)
        assert stats.reject_count == 0
        assert again == records

    def test_ndjson_round_trip(self, nbi_fixture_records):
        records, _ = nbi_fixture_records
        assert nbi.records_from_ndjson(nbi.records_to_ndjson(records)) == records


class TestParseEdges:
    def test_empty_file_with_header(self):
        records, stats = nbi.parse_nbi(
            "state,structure,design_load_code,load_rating_tons\n", STANDARD
        )
        assert records == []
        assert stats.total_rows == 0

    def test_blank_design_load_is_absent(self):
        text = "state,structure,design_load_code,load_rating_tons\n01,S1,,\n"
        records, _ = nbi.parse_nbi(text, STANDARD)
        assert records[0].design_load_class is None
        assert records[0].load_rating_tons is None

    def test_missing_header_column_is_format_error(self):
        with pytest.raises(FormatError, match="design_load_code"):
            nbi.parse_nbi("state,structure,rating\n", STANDARD)

    def test_rating_divisor(self):
        profile = nbi.load_builtin_profile("fixed_width_demo")
        line = "01" + " 0000S702      " + "5" + "0362"
        records, stats = nbi.parse_nbi(line + "\n", profile)
        assert stats.parsed_rows == 1
        assert records[0].structure == "S702"
        assert records[0].load_rating_tons == pytest.approx(36.2)

    def test_fixed_width_short_row_rejected(self):
        profile = nbi.load_builtin_profile("fixed_width_demo")
        records, stats = nbi.parse_nbi("01 S70\n", profile)
        assert records == []
        assert stats.reject_count == 1
        assert "shorter than layout" in stats.rejects[0][1]

    @pytest.mark.parametrize("byte", ["\x85", "\x0c"])
    def test_fixed_width_line_ends_only_at_newline(self, byte):
        # str.splitlines breaks at both bytes, which the structure field
        # may hold; canonicalize removes them as whitespace.
        text = (fixed_width_line("01", f" 0000S7{byte}02", "5", "0362") + "\n"
                + fixed_width_line("06", "S703", "1", "0100") + "\n")
        records, stats = nbi.parse_nbi(text, nbi.load_builtin_profile("fixed_width_demo"))
        assert [r.structure for r in records] == ["S702", "S703"]
        assert stats.total_rows == 2 and stats.rejects == ()

    def test_fixed_width_bare_carriage_return_ends_no_line(self):
        profile = nbi.load_builtin_profile("fixed_width_demo")
        line = fixed_width_line("01", "S702", "5", "0362")
        records, stats = nbi.parse_nbi(f"{line}\r{line}\r\n{line}\n", profile)
        assert [r.structure for r in records] == ["S702", "S702"]
        assert records[0].load_rating_tons == pytest.approx(36.2)

    def test_name_column_without_header_is_rejected_before_any_row(self):
        profile = nbi.profile_from_dict({
            "format": {"kind": "delimited", "separator": ",", "has_header": False},
            "columns": {"state": 0, "structure": "structure"},
        })
        with pytest.raises(ConfigError, match="'structure' is a name but the format"):
            nbi.parse_nbi("", profile)

    def test_unreadable_row_is_rejected_and_parsing_resumes(self):
        # A bare carriage return inside an unquoted field is a csv.Error.
        text = "state,structure,design_load_code,load_rating_tons\n01,1\r2,3,4\n02,S5,3,12.5\n"
        records, stats = nbi.parse_nbi(text, STANDARD)
        assert [r.structure for r in records] == ["S5"]
        assert stats.total_rows == 2
        assert stats.rejects[0][0] == 2 and "unreadable row" in stats.rejects[0][1]
        assert stats.rejects[0][1] == "unreadable row: new-line character seen in unquoted field"

    def test_reject_names_the_file_line(self):
        text = 'state,structure,design_load_code,load_rating_tons\n01,"S\n1",3,4\nX1,S2,3,4\n'
        _, stats = nbi.parse_nbi(text, STANDARD)
        assert stats.rejects == ((4, "bad state code 'X1'"),)

    @pytest.mark.parametrize("state", ["0\xb2", "\xb9\xb2", "\u0660\u0661"])
    def test_state_of_other_digits_is_rejected(self, state):
        # str.isdigit is true for the superscripts a latin-1 file can hold
        # and for other scripts' digits.
        text = f"state,structure,design_load_code,load_rating_tons\n{state},S1,3,12.5\n"
        records, stats = nbi.parse_nbi(text, STANDARD)
        assert records == [] and stats.rejects == ((2, f"bad state code {state!r}"),)
        assert not nbi.is_valid_state_code(state)

    @pytest.mark.parametrize("cell", ["1_2.5", "3_6", "\u0663\u0666", "1\u0662.5"])
    def test_rating_of_other_digits_is_absent(self, cell):
        # float() reads "_" between digits and other scripts' digits.
        text = f"state,structure,design_load_code,load_rating_tons\n01,S1,3,{cell}\n"
        records, stats = nbi.parse_nbi(text, STANDARD)
        assert records[0].load_rating_tons is None and stats.rows_missing_rating == 1

    def test_rating_padded_with_other_whitespace_reads(self):
        text = "state,structure,design_load_code,load_rating_tons\n01,S1,3,\xa012.5\t\n"
        records, _ = nbi.parse_nbi(text, STANDARD)
        assert records[0].load_rating_tons == 12.5

    def test_structure_too_long_rejected(self):
        text = "state,structure,design_load_code,load_rating_tons\n01,ABCDEFGH12345678,1,1\n"
        _, stats = nbi.parse_nbi(text, STANDARD)
        assert stats.reject_count == 1

    def test_parse_totals_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lines = ["state,structure,design_load_code,load_rating_tons"]
            n = int(rng.integers(0, 30))
            for i in range(n):
                state = rng.choice(["01", "06", "XX", "1"])
                structure = rng.choice([f"S{i}", "0000", f"  0{i} "])
                lines.append(f"{state},{structure},{rng.choice(['1','9',''])},{rng.choice(['5.0','','x'])}")
            records, stats = nbi.parse_nbi("\n".join(lines) + "\n", STANDARD)
            assert stats.parsed_rows + stats.reject_count == stats.total_rows == n
            assert stats.parsed_rows == len(records)


class TestProfiles:
    def test_builtin_profiles_load(self):
        for name in ("standard", "nbi_csv_inventory", "nbi_csv_operating", "fixed_width_demo"):
            profile = nbi.load_builtin_profile(name)
            assert profile.name == name

    def test_inventory_and_operating_differ_only_in_rating_column(self):
        inv = nbi.load_builtin_profile("nbi_csv_inventory")
        op = nbi.load_builtin_profile("nbi_csv_operating")
        assert inv.columns["rating"] != op.columns["rating"]
        assert inv.design_code_map == op.design_code_map

    def test_unknown_profile_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile keys"):
            nbi.profile_from_dict({"format": {"kind": "delimited"}, "columns": {}, "bogus": 1})

    def test_nbi_code_map_interpretation(self):
        # File codes are ordered by the coding guide; classes by load level.
        profile = nbi.load_builtin_profile("nbi_csv_inventory")
        assert profile.design_code_map["1"] == 1  # H10
        assert profile.design_code_map["4"] == 3  # H20 sorts below HS15
        assert profile.design_code_map["3"] == 4  # HS15 = 27 t
        assert profile.design_code_map["9"] == 10  # HS25 = 45 t
        assert profile.design_code_map["A"] == 9  # HL93 sits at the HS20 level
