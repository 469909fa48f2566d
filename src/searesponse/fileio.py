"""The file rules every data file of the pipeline shares.

CSV files start with a header row of fixed column names and end each row
with ``\\n``. Float cells are written with ``repr``, so they read back to
the same float; an empty cell marks a missing value. Readers skip blank
rows. A missing or wrong header raises SchemaError; a row of the wrong
width, or a cell that is not a finite number, raises ParseError naming the
file, its 1-based line and the column. read_csv yields the rows one by one;
read_csv_array parses a whole body of plain decimal numerals in one
vectorized pass. JSON files each hold one object, whose numbers are JSON
numbers only: json_number and json_floats take no true, false or string,
and read an integer past float range as inf, so a finiteness check rejects it.
The CLI maps both errors to exit 3. FORMAT_VERSIONS holds the version of
each file kind; every run's manifest.json lists it, and the GP and bundle
files also carry their own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from searesponse.errors import ParseError, SchemaError

FORMAT_VERSIONS = {
    "weather_csv": 1,
    "sim_config": 1,
    "training_table": 3,
    "gp_model": 1,
    "surrogate_bundle": 2,
    "qoi_result": 5,
    "comparison_report": 1,
}


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and rows. Cells are str, int, float (written with
    repr, as the csv module does for every float) or None (an empty cell);
    pass float cells as floats, not as strings."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _check_header(path: Path, header: list[str] | None, columns: Sequence[str]) -> None:
    if header is None or [h.strip() for h in header] != list(columns):
        found = "nothing" if header is None else ",".join(header)
        raise SchemaError(f"{path}: expected columns {','.join(columns)}, got {found}")


def read_csv(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) for each non-blank row after checking the header
    is exactly columns; a row of another width raises ParseError."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), columns)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ParseError(f"expected {len(columns)} fields, got {len(row)}",
                                 line=line, path=path)
            yield line, row


def read_csv_array(path: str | Path, columns: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """The rows of a CSV as one structured array of dtype, one field per
    column, parsed in one vectorized pass after read_csv's header check.
    Cells are plain decimal numerals (no digit separators or non-ASCII
    digits), optionally quoted or padded with spaces; blank rows are skipped.
    Any other body raises ValueError without naming a line: read_csv names
    it. The file must be ASCII without the separators 0x1c-0x1f, which the
    vectorized parser would take for spaces where float() does not."""
    path = Path(path)
    text = path.read_text()
    fh = io.StringIO(text)
    _check_header(path, next(csv.reader(fh), None), columns)
    if not text.isascii() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        raise ValueError("a character outside ASCII or an ASCII separator 0x1c-0x1f")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file
        return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)


def parse_float(path: str | Path, line: int, column: str, text: str) -> float:
    """The finite float in one cell; anything else raises ParseError naming
    the file, line, column and text."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} in column {column}",
                         line=line, path=path) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r} in column {column}", line=line, path=path)
    return value


def read_json_object(path: str | Path) -> dict:
    """The JSON object in path; invalid JSON or another type raises SchemaError."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return payload


def json_number(value: object) -> float | None:
    """The float of a JSON number, an int or a float; None for anything
    else, such as true, false or "3.2e4", which float() would also take. An
    integer past float range reads as inf, where float() would raise."""
    if type(value) is float:
        return value
    if type(value) is not int:
        return None
    return float(value) if abs(value) <= sys.float_info.max else math.inf


def json_float(value: object) -> float:
    """One JSON number as a float, by json_number; anything else raises
    TypeError."""
    number = json_number(value)
    if number is None:
        raise TypeError(f"expected a JSON number, got {value!r}")
    return number


def json_floats(value: object) -> np.ndarray:
    """A list of JSON numbers, or lists of them nested to any depth, as one
    float array, each cell read by json_float; a ragged list raises
    ValueError."""
    def cells(item):
        return [cells(c) for c in item] if type(item) is list else json_float(item)
    return np.array(cells(value), dtype=float)
