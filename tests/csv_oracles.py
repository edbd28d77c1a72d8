"""The three CSV readers as they stood before ``_records.iter_csv``: the
manifest reader, the split reader and the delimited inventory parser,
each with its own row loop, blank-row test and ``csv.Error`` policy.
The tests compare the shared reader's results with theirs;
``has_blank_row`` picks the texts on which the old split reader's
narrower blank-row rule does not come into play."""

import csv
import io

from bridgecap import nbi
from bridgecap.corpus import COMPLETION_VALUES, MANIFEST_COLUMNS, ManifestEntry
from bridgecap.datasets import DatasetItem, DatasetSplit
from bridgecap.errors import ConfigError, DegenerateKeyError, FormatError


def as_text(source, encoding):
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.decode(encoding) if isinstance(data, bytes) else data


def iter_manifest(source):
    if not isinstance(source, io.TextIOBase):
        source = io.StringIO(as_text(source, "utf-8"))
    rows = _nonblank_rows(csv.reader(source))
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


def _nonblank_rows(reader):
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"manifest line {reader.line_num}: {exc}") from exc


def read_split_csv(text: str) -> DatasetSplit:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise FormatError(f"split-manifest line {reader.line_num}: {exc}") from exc
    header = rows[0][1] if rows else None
    if header != ["image_path", "class", "side"]:
        raise ConfigError(f"unexpected split-manifest header: {header}")
    sides = {"train": [], "test": []}
    for line_num, row in rows[1:]:
        if not row:
            continue
        try:
            image_path, cls, side = row
            sides[side].append(DatasetItem(image_path=image_path, cls=int(cls)))
        except (KeyError, ValueError) as exc:
            raise FormatError(
                f"split-manifest line {line_num}: expected image_path,class,side "
                f"with an integer class and side train or test, got {row}"
            ) from exc
    return DatasetSplit(train=tuple(sides["train"]), test=tuple(sides["test"]))


_CSV_OPEN_HINT = " - do you need to open the file in universal-newline mode?"


def _delimited_rows(text, fmt, profile):
    reader = csv.reader(io.StringIO(text), delimiter=fmt.separator)
    col_index = {}
    roles = {
        "state": profile.columns.get("state"),
        "structure": profile.columns.get("structure"),
        "design_load": profile.columns.get("design_load"),
        "rating": profile.columns.get("rating"),
    }
    header_consumed = False
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            reason = str(exc).removesuffix(_CSV_OPEN_HINT)
            yield reader.line_num, None, f"unreadable row: {reason}"
            continue
        lineno = reader.line_num
        if not "".join(row).strip():
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


def parse_delimited_nbi(text: str, profile) -> tuple[list, nbi.NbiFileStats]:
    """``nbi.parse_nbi`` of a delimited inventory's text."""
    records, rejects = [], []
    missing_design = missing_rating = 0
    for lineno, fields, reason in _delimited_rows(text, profile.file_format, profile):
        if fields is None:
            rejects.append((lineno, reason))
            continue
        try:
            record = nbi._build_record(fields, profile)
        except (FormatError, DegenerateKeyError) as exc:
            rejects.append((lineno, str(exc)))
            continue
        if record.design_load_class is None:
            missing_design += 1
        if record.load_rating_tons is None:
            missing_rating += 1
        records.append(record)
    return records, nbi.NbiFileStats(
        total_rows=len(records) + len(rejects),
        parsed_rows=len(records),
        rows_missing_design_load=missing_design,
        rows_missing_rating=missing_rating,
        reject_count=len(rejects),
        rejects=tuple(rejects),
    )


def has_blank_row(text: str) -> bool:
    """Whether a row of ``text`` that the csv module reads has only blank
    cells, an empty line included."""
    reader = csv.reader(io.StringIO(text))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return False
        except csv.Error:
            continue
        if not "".join(row).strip():
            return True
