"""CSV and float formatting shared by the export paths.

All emitted numbers use 17 significant digits so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv

from .errors import PreconditionError


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
