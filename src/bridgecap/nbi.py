"""Bridge-inventory file parsing and join-key normalization.

National inventory extracts arrive either as delimited text or as
fixed-width card images, and the details (column names, layout, how the
design-load code maps onto ordered capacity classes, whether the rating
column carries an implied decimal) shift between vintages and states.
All of that is data, not code: a ParseProfile names the format, the
column map, the raw-code table, and a rating divisor, and the parser
applies it row by row. Bad rows are rejected with a reason and a line
number instead of aborting the file.

The column map takes each role to a column. ``parse_nbi`` resolves it
once per file into one index per role, a cell index into a delimited row
or a slice of a fixed-width line, and one loop reads ``row[index]`` for
both formats. A line ends only at ``\\n`` (``_records``' line rule).
"""

from dataclasses import dataclass, field

from ._records import ascii_number, from_ndjson, iter_csv, iter_lines, loads, to_csv, to_ndjson
from .config import check
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


_STATE_CODES = frozenset(f"{n:02d}" for n in range(100))


def is_valid_state_code(code: str) -> bool:
    """FIPS-style state code: exactly two ASCII digits."""
    return code in _STATE_CODES


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class ParseProfile:
    """Everything needed to read one inventory vintage.

    ``columns`` maps the roles state, structure and optionally
    design_load and rating to a column name (header or layout-field name)
    or, for headerless delimited files, a 0-based index. ``design_code_map``
    translates raw design-load codes to the ordered classes 1..12.
    ``rating_divisor`` undoes an implied decimal (10 for vintages that
    store 36.2 t as 362).
    """

    file_format: DelimitedFormat | FixedWidthFormat
    columns: dict[str, str | int]
    design_code_map: dict[str, int] = field(default_factory=dict)
    rating_divisor: float = 1.0
    name: str = "custom"


def _parse_rating(text: str, divisor: float) -> float | None:
    try:
        value = float(ascii_number(text)) / divisor  # "" is a ValueError
    except ValueError:
        return None
    # Implausible tonnage is treated as absent, not fatal: national files
    # use sentinel codes and per-state quirks in these columns.
    return value if 0.0 <= value < MAX_RATING_TONS else None


def _build_record(fields: dict, profile: ParseProfile) -> NbiRecord:
    state = fields["state"].strip()
    if not is_valid_state_code(state):
        raise FormatError(f"bad state code {state!r}")
    raw = fields["structure"]
    if len(raw) > MAX_STRUCTURE_LEN:
        raise FormatError(f"structure number longer than {MAX_STRUCTURE_LEN} chars")
    canonical = canonicalize(raw)

    raw_code = fields.get("design_load", "").strip() or None
    return NbiRecord(
        state=state,
        structure_raw=raw,
        structure=canonical,
        design_load_class=profile.design_code_map.get(raw_code),
        load_rating_tons=_parse_rating(fields.get("rating", ""), profile.rating_divisor),
        raw_design_code=raw_code,
    )


def _column_index(profile: ParseProfile, header) -> dict:
    """Each role of ``profile.columns`` -> its index into a row: a slice
    of a fixed-width line, else a cell index, found by name in
    ``header``, the stripped cells of the header row (None without one)."""
    fmt = profile.file_format
    index = {}
    for role, ref in profile.columns.items():
        if isinstance(fmt, FixedWidthFormat):
            at = next((f for f in fmt.fields if f.name == ref), None)
            if at is None:
                raise ConfigError(f"layout has no field named {ref!r}")
            index[role] = slice(at.start, at.start + at.length)
        elif isinstance(ref, int):
            index[role] = ref
        elif header is None:
            raise ConfigError(f"column {ref!r} is a name but the format declares no header")
        elif ref in header:
            index[role] = header.index(ref)
        else:
            raise FormatError(f"header is missing required column {ref!r}")
    return index


def parse_nbi(source, profile: ParseProfile) -> tuple[list[NbiRecord], NbiFileStats]:
    """Parse one inventory file into typed records plus per-file stats.

    ``source`` is a str or an open text file, which is read as it is
    parsed; open it with ``newline="\\n"`` for the line rule. Every data
    row either becomes a record or a (line number, reason) reject; blank
    capacity fields become absent values, never errors.
    """
    fmt = profile.file_format
    rejects: list[tuple[int, str]] = []
    if isinstance(fmt, FixedWidthFormat):
        rows = ((lineno, line) for lineno, line in iter_lines(source) if line.strip())
        index = _column_index(profile, None)
        need = max(f.start + f.length for f in fmt.fields)
    else:
        rows = iter_csv(source, "inventory", rejects, fmt.separator)
        if not fmt.has_header:
            index = _column_index(profile, None)
        elif header := next(rows, None):
            index = _column_index(profile, [cell.strip() for cell in header[1]])
        else:  # no header row, so no data row either
            index = {}
        need = max(index.values(), default=-1) + 1

    records: list[NbiRecord] = []
    missing_design = 0
    missing_rating = 0
    for lineno, row in rows:
        if len(row) < need:
            if isinstance(fmt, FixedWidthFormat):
                reason = f"row length {len(row)} shorter than layout ({need})"
            else:
                column = next(i for i in index.values() if i >= len(row))
                reason = f"row has {len(row)} fields, column {column} required"
            rejects.append((lineno, reason))
            continue
        try:
            record = _build_record({role: row[at] for role, at in index.items()}, profile)
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


def rating_histogram(records) -> dict[str, int]:
    """Sparse histogram of load ratings in 5-ton bins, keyed "lo-hi";
    rows without a rating are skipped."""
    width = 5.0
    counts: dict[float, int] = {}
    for rec in records:
        if rec.load_rating_tons is None:
            continue
        lo = width * int(rec.load_rating_tons // width)
        counts[lo] = counts.get(lo, 0) + 1
    return {
        f"{_fmt_tons(lo)}-{_fmt_tons(lo + width)}": counts[lo] for lo in sorted(counts)
    }


def _fmt_tons(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)


# --- serialization ---------------------------------------------------------

_WRITER_COLUMNS = ("state", "structure", "design_load_code", "load_rating_tons")


def write_delimited(records) -> str:
    """Serialize records in the package's standard delimited layout;
    re-parsing with the built-in ``"standard"`` profile yields identical records."""
    return to_csv(_WRITER_COLUMNS, (
        (
            rec.state,
            rec.structure_raw,
            rec.raw_design_code if rec.raw_design_code is not None else "",
            "" if rec.load_rating_tons is None else repr(rec.load_rating_tons),
        )
        for rec in records
    ))


def records_to_ndjson(records, out=None) -> str | None:
    return to_ndjson(NbiRecord, records, out)


def records_from_ndjson(source) -> list[NbiRecord]:
    return from_ndjson(NbiRecord, source)


# --- profile config --------------------------------------------------------

# Format kind -> the keys of its ``format`` object.
_FORMATS = {
    "delimited": {"kind": str, "separator": str, "has_header": bool},
    "fixed_width": {"kind": str, "layout": [{"name": str, "start": int, "length": int}]},
}
_PROFILE_SHAPE = {
    "name": str,
    "format": {**_FORMATS["delimited"], **_FORMATS["fixed_width"]},
    "columns": {
        "state": (str, int), "structure": (str, int),
        "design_load": (str, int, None), "rating": (str, int, None),
    },
    "design_code_map": {str: int},
    "rating_divisor": float,
}


def profile_from_dict(cfg: dict) -> ParseProfile:
    """Build a ParseProfile from its JSON form, rejecting unknown keys."""
    check(cfg, _PROFILE_SHAPE, "profile")
    fmt_cfg = dict(cfg.get("format", {}))
    kind = fmt_cfg.pop("kind", None)
    if kind not in _FORMATS:
        raise ConfigError(f"unknown format kind {kind!r}")
    check(cfg["format"], _FORMATS[kind], f"{kind} profile.format")  # only its kind's keys
    if kind == "delimited":
        fmt = DelimitedFormat(**fmt_cfg)
        if len(fmt.separator) != 1:
            raise ConfigError(f"separator must be one character, got {fmt.separator!r}")
    else:
        layout = fmt_cfg.get("layout", [])
        if not layout or any(len(f) != 3 for f in layout):
            raise ConfigError("fixed-width layout must list fields with a name, start and length")
        fmt = FixedWidthFormat(fields=tuple(FixedWidthField(**f) for f in layout))

    columns = cfg.get("columns", {})
    if "state" not in columns or "structure" not in columns:
        raise ConfigError("profile must map the state and structure columns")
    if any(isinstance(ref, int) and ref < 0 for ref in columns.values()):
        raise ConfigError(f"column indexes must be non-negative, got {columns}")

    code_map = cfg.get("design_code_map", {})
    for raw, cls in code_map.items():
        if not 1 <= cls <= 12:
            raise ConfigError(f"design code {raw!r} maps to {cls}, outside 1..12")
    if cfg.get("rating_divisor", 1.0) <= 0:
        raise ConfigError(f"rating_divisor must be positive, got {cfg['rating_divisor']}")

    return ParseProfile(
        file_format=fmt,
        columns={role: columns[role] for role in _PROFILE_SHAPE["columns"]
                 if columns.get(role) is not None},
        design_code_map=code_map,
        rating_divisor=float(cfg.get("rating_divisor", 1.0)),
        name=cfg.get("name", "custom"),
    )


def load_builtin_profile(name: str) -> ParseProfile:
    """Load one of the profiles shipped in ``data/nbi_profiles.json``."""
    from importlib.resources import files

    profiles = loads(files("bridgecap.data").joinpath("nbi_profiles.json").read_bytes(),
                     "nbi_profiles.json")
    if name not in profiles:
        raise ConfigError(f"no built-in profile {name!r}; have {sorted(profiles)}")
    return profile_from_dict({"name": name, **profiles[name]})
