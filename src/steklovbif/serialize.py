"""CSV and float formatting shared by the export paths, and the one reader
of JSON input files with the one type rule for their values.

CSV numbers use 17 significant digits (``format_float``); JSON files are
written by ``json.dump``, whose floats are the shortest repr that reads back
to the same value.  Either way identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import sys

from .errors import ConfigError, PreconditionError


def read_json_object(path, what: str) -> dict:
    """The JSON object held by the file at path; anything else is a bad config."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, a directory, unreadable, malformed JSON or text
        raise ConfigError(f"{what} {path} is unreadable or not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def typed(value, kind, key):
    """value when its JSON type is kind: an integer passes as float, a
    boolean only as bool, a float only when finite (JSON readers accept NaN
    and Infinity, and read 1e400 as infinity); anything else raises TypeError
    instead of being coerced."""
    allowed = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed)
            or kind is float and not abs(value) <= sys.float_info.max):  # NaN fails too
        finite = "finite " if kind is float else ""
        raise TypeError(f"{key} must be a {finite}JSON {kind.__name__}, got {value!r}")
    return kind(value)


def typed_rows(value, kind, key) -> list:
    """value, a JSON list of lists, with every entry checked by ``typed``."""
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
        raise TypeError(f"{key} must be a JSON list of lists, got {value!r:.80}")
    return [[typed(x, kind, f"an entry of {key}") for x in row] for row in value]


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_csv(path, header: list[str]) -> list[list[str]]:
    """Data rows of a CSV file whose first row must be header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        if found != header:
            raise PreconditionError(f"{path}: CSV header {found}, expected {header}")
        return [row for row in reader if row]
