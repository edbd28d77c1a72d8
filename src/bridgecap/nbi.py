"""Bridge-inventory file parsing and join-key normalization.

National inventory extracts arrive either as delimited text or as
fixed-width card images, and the details (column names, layout, how the
design-load code maps onto ordered capacity classes, whether the rating
column carries an implied decimal) shift between vintages and states.
All of that is data, not code: a ParseProfile names the format, the
columns of interest, the raw-code table, and a rating divisor, and the
parser applies it row by row. Bad rows are rejected with a reason and a
line number instead of aborting the file.
"""

import csv
import io
import json
from dataclasses import dataclass, field

from ._records import as_text, from_ndjson, to_ndjson
from .errors import ConfigError, DegenerateKeyError, FormatError

# Sorted-by-load-level design classes. Class index -> (name, nominal tons);
# None where no single tonnage applies.
DESIGN_CLASS_NAMES = {
    1: ("H10", 10.0),
    2: ("H15", 15.0),
    3: ("H20", 20.0),
    4: ("HS15", 27.0),
    5: ("HS20", 36.0),
    6: ("HS20+mod", 36.0),
    7: ("pedestrian", None),
    8: ("railroad", None),
    9: ("HL93", 36.0),
    10: ("HS25", 45.0),
    11: (">HL93", None),
    12: ("other", None),
}

MAX_STRUCTURE_LEN = 15
MAX_RATING_TONS = 200.0


def canonicalize(raw: str) -> str:
    """Normalize a structure number into its join-key form: uppercase,
    all whitespace removed, leading zeros stripped.

    Raises DegenerateKeyError when nothing but zeros and whitespace
    remains. Idempotent: canonicalize(canonicalize(x)) == canonicalize(x).
    """
    squeezed = "".join(raw.upper().split())
    canonical = squeezed.lstrip("0")
    if not canonical:
        raise DegenerateKeyError(f"structure number {raw!r} normalizes to an empty key")
    return canonical


def is_valid_state_code(code: str) -> bool:
    """FIPS-style state code: exactly two decimal digits."""
    return len(code) == 2 and code.isdigit()


@dataclass(frozen=True)
class NbiRecord:
    state: str
    structure_raw: str
    structure: str
    design_load_class: int | None = None
    load_rating_tons: float | None = None
    raw_design_code: str | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.state, self.structure)


@dataclass(frozen=True)
class NbiFileStats:
    total_rows: int
    parsed_rows: int
    rows_missing_design_load: int
    rows_missing_rating: int
    reject_count: int
    rejects: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class DelimitedFormat:
    separator: str = ","
    has_header: bool = True


@dataclass(frozen=True)
class FixedWidthField:
    name: str
    start: int  # 0-based byte offset
    length: int


@dataclass(frozen=True)
class FixedWidthFormat:
    fields: tuple[FixedWidthField, ...]

    @property
    def min_line_length(self) -> int:
        return max(f.start + f.length for f in self.fields)


@dataclass(frozen=True)
class ParseProfile:
    """Everything needed to read one inventory vintage.

    ``columns`` maps the roles state/structure/design_load/rating to a
    column name (header or layout-field name) or, for headerless
    delimited files, a 0-based index. ``design_code_map`` translates raw
    design-load codes to the ordered classes 1..12. ``rating_divisor``
    undoes an implied decimal (10 for vintages that store 36.2 t as 362).
    """

    file_format: DelimitedFormat | FixedWidthFormat
    state_column: str | int
    structure_column: str | int
    design_load_column: str | int | None
    rating_column: str | int | None
    design_code_map: dict[str, int] = field(default_factory=dict)
    rating_divisor: float = 1.0
    name: str = "custom"


def _parse_rating(text: str, divisor: float) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text) / divisor
    except ValueError:
        return None
    # Implausible tonnage is treated as absent, not fatal: national files
    # use sentinel codes and per-state quirks in these columns.
    if not (0.0 <= value < MAX_RATING_TONS):
        return None
    return value


def _build_record(fields: dict, profile: ParseProfile) -> NbiRecord:
    state = fields["state"].strip()
    if not is_valid_state_code(state):
        raise FormatError(f"bad state code {state!r}")
    raw = fields["structure"]
    if len(raw) > MAX_STRUCTURE_LEN:
        raise FormatError(f"structure number longer than {MAX_STRUCTURE_LEN} chars")
    canonical = canonicalize(raw)

    raw_code = fields.get("design_load")
    design_class = None
    if raw_code is not None:
        raw_code = raw_code.strip() or None
    if raw_code is not None:
        design_class = profile.design_code_map.get(raw_code)

    rating = None
    if fields.get("rating") is not None:
        rating = _parse_rating(fields["rating"], profile.rating_divisor)

    return NbiRecord(
        state=state,
        structure_raw=raw,
        structure=canonical,
        design_load_class=design_class,
        load_rating_tons=rating,
        raw_design_code=raw_code,
    )


def _delimited_rows(text: str, fmt: DelimitedFormat, profile: ParseProfile):
    """Yield (line_number, role->value dict or None, reason) triples."""
    reader = csv.reader(io.StringIO(text), delimiter=fmt.separator)
    col_index = {}
    roles = {
        "state": profile.state_column,
        "structure": profile.structure_column,
        "design_load": profile.design_load_column,
        "rating": profile.rating_column,
    }
    header_consumed = False
    for lineno, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if fmt.has_header and not header_consumed:
            header_consumed = True
            names = [cell.strip() for cell in row]
            for role, ref in roles.items():
                if ref is None:
                    continue
                if isinstance(ref, int):
                    col_index[role] = ref
                elif ref in names:
                    col_index[role] = names.index(ref)
                else:
                    raise FormatError(f"header is missing required column {ref!r}")
            continue
        if not header_consumed and not fmt.has_header and not col_index:
            for role, ref in roles.items():
                if ref is None:
                    continue
                if not isinstance(ref, int):
                    raise ConfigError(
                        f"column {ref!r} is a name but the format declares no header"
                    )
                col_index[role] = ref
        fields = {}
        short = False
        for role, idx in col_index.items():
            if idx >= len(row):
                yield lineno, None, f"row has {len(row)} fields, column {idx} required"
                short = True
                break
            fields[role] = row[idx]
        if not short:
            yield lineno, fields, ""


def _fixed_width_rows(text: str, fmt: FixedWidthFormat, profile: ParseProfile):
    by_name = {f.name: f for f in fmt.fields}
    roles = {}
    for role, ref in (
        ("state", profile.state_column),
        ("structure", profile.structure_column),
        ("design_load", profile.design_load_column),
        ("rating", profile.rating_column),
    ):
        if ref is None:
            continue
        if ref not in by_name:
            raise ConfigError(f"layout has no field named {ref!r}")
        roles[role] = by_name[ref]
    need = fmt.min_line_length
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if len(line) < need:
            yield lineno, None, f"row length {len(line)} shorter than layout ({need})"
            continue
        fields = {role: line[f.start : f.start + f.length] for role, f in roles.items()}
        yield lineno, fields, ""


def parse_nbi(source, profile: ParseProfile) -> tuple[list[NbiRecord], NbiFileStats]:
    """Parse one inventory file into typed records plus per-file stats.

    ``source`` may be bytes, text, or a readable file object. Every data
    row either becomes a record or a (line number, reason) reject;
    blank capacity fields become absent values, never errors.
    """
    try:
        text = as_text(source, "latin-1")
    except OSError as exc:
        raise OSError(f"could not read inventory source: {exc}") from exc

    if isinstance(profile.file_format, DelimitedFormat):
        rows = _delimited_rows(text, profile.file_format, profile)
    else:
        rows = _fixed_width_rows(text, profile.file_format, profile)

    records: list[NbiRecord] = []
    rejects: list[tuple[int, str]] = []
    missing_design = 0
    missing_rating = 0
    for lineno, fields, reason in rows:
        if fields is None:
            rejects.append((lineno, reason))
            continue
        try:
            record = _build_record(fields, profile)
        except (FormatError, DegenerateKeyError) as exc:
            rejects.append((lineno, str(exc)))
            continue
        if record.design_load_class is None:
            missing_design += 1
        if record.load_rating_tons is None:
            missing_rating += 1
        records.append(record)

    stats = NbiFileStats(
        total_rows=len(records) + len(rejects),
        parsed_rows=len(records),
        rows_missing_design_load=missing_design,
        rows_missing_rating=missing_rating,
        reject_count=len(rejects),
        rejects=tuple(rejects),
    )
    return records, stats


def rating_histogram(records, bin_width: float = 5.0) -> dict[str, int]:
    """Sparse histogram of load ratings in ``bin_width``-ton bins,
    keyed "lo-hi"; rows without a rating are skipped."""
    counts: dict[float, int] = {}
    for rec in records:
        if rec.load_rating_tons is None:
            continue
        lo = bin_width * int(rec.load_rating_tons // bin_width)
        counts[lo] = counts.get(lo, 0) + 1

    def fmt(x: float) -> str:
        return str(int(x)) if x == int(x) else str(x)

    return {
        f"{fmt(lo)}-{fmt(lo + bin_width)}": counts[lo] for lo in sorted(counts)
    }


# --- serialization ---------------------------------------------------------

_WRITER_COLUMNS = ("state", "structure", "design_load_code", "load_rating_tons")


def write_delimited(records, separator: str = ",") -> str:
    """Serialize records in the package's standard delimited layout
    (see ``standard_profile``); re-parsing yields identical records."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=separator, lineterminator="\n")
    writer.writerow(_WRITER_COLUMNS)
    for rec in records:
        writer.writerow(
            [
                rec.state,
                rec.structure_raw,
                rec.raw_design_code if rec.raw_design_code is not None else "",
                "" if rec.load_rating_tons is None else repr(rec.load_rating_tons),
            ]
        )
    return out.getvalue()


def standard_profile(code_map: dict[str, int] | None = None) -> ParseProfile:
    """Profile matching ``write_delimited`` output. By default the code
    column already holds the class number ("1".."12")."""
    if code_map is None:
        code_map = {str(c): c for c in range(1, 13)}
    return ParseProfile(
        file_format=DelimitedFormat(separator=",", has_header=True),
        state_column="state",
        structure_column="structure",
        design_load_column="design_load_code",
        rating_column="load_rating_tons",
        design_code_map=code_map,
        name="standard",
    )


def records_to_ndjson(records) -> str:
    return to_ndjson(NbiRecord, records)


def records_from_ndjson(text: str) -> list[NbiRecord]:
    return from_ndjson(NbiRecord, text)


# --- profile config --------------------------------------------------------

_PROFILE_KEYS = {"name", "format", "columns", "design_code_map", "rating_divisor"}
_FORMAT_KEYS_DELIM = {"kind", "separator", "has_header"}
_FORMAT_KEYS_FW = {"kind", "layout"}
_COLUMN_ROLES = {"state", "structure", "design_load", "rating"}


def profile_from_dict(cfg: dict) -> ParseProfile:
    """Build a ParseProfile from its JSON form, rejecting unknown keys."""
    unknown = set(cfg) - _PROFILE_KEYS
    if unknown:
        raise ConfigError(f"unknown profile keys: {sorted(unknown)}")
    try:
        fmt_cfg = cfg["format"]
        columns = cfg["columns"]
    except KeyError as exc:
        raise ConfigError(f"profile is missing required key {exc}") from exc

    kind = fmt_cfg.get("kind")
    if kind == "delimited":
        unknown = set(fmt_cfg) - _FORMAT_KEYS_DELIM
        if unknown:
            raise ConfigError(f"unknown delimited-format keys: {sorted(unknown)}")
        fmt = DelimitedFormat(
            separator=fmt_cfg.get("separator", ","),
            has_header=bool(fmt_cfg.get("has_header", True)),
        )
    elif kind == "fixed_width":
        unknown = set(fmt_cfg) - _FORMAT_KEYS_FW
        if unknown:
            raise ConfigError(f"unknown fixed-width-format keys: {sorted(unknown)}")
        fields = tuple(
            FixedWidthField(name=f["name"], start=int(f["start"]), length=int(f["length"]))
            for f in fmt_cfg["layout"]
        )
        if not fields:
            raise ConfigError("fixed-width layout is empty")
        fmt = FixedWidthFormat(fields=fields)
    else:
        raise ConfigError(f"unknown format kind {kind!r}")

    unknown = set(columns) - _COLUMN_ROLES
    if unknown:
        raise ConfigError(f"unknown column roles: {sorted(unknown)}")
    if "state" not in columns or "structure" not in columns:
        raise ConfigError("profile must map the state and structure columns")

    code_map = {str(k): int(v) for k, v in cfg.get("design_code_map", {}).items()}
    for raw, cls in code_map.items():
        if not 1 <= cls <= 12:
            raise ConfigError(f"design code {raw!r} maps to {cls}, outside 1..12")

    return ParseProfile(
        file_format=fmt,
        state_column=columns["state"],
        structure_column=columns["structure"],
        design_load_column=columns.get("design_load"),
        rating_column=columns.get("rating"),
        design_code_map=code_map,
        rating_divisor=float(cfg.get("rating_divisor", 1.0)),
        name=cfg.get("name", "custom"),
    )


def load_builtin_profile(name: str) -> ParseProfile:
    """Load one of the profiles shipped in ``data/nbi_profiles.json``."""
    from importlib.resources import files

    raw = files("bridgecap.data").joinpath("nbi_profiles.json").read_text()
    profiles = json.loads(raw)
    if name not in profiles:
        raise ConfigError(f"no built-in profile {name!r}; have {sorted(profiles)}")
    cfg = dict(profiles[name])
    cfg.setdefault("name", name)
    return profile_from_dict(cfg)
