"""The one text format of every CSV table the package writes or reads: a
header row, then data rows, in UTF-8 with ``csv``'s default quoting and
``\\n`` line ends. A float cell is written as ``repr(float(v))``, the shortest
string that reads back to the same float64, and any other cell through
``str``, so a file's bytes depend only on its values.
"""

from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path

from .errors import DatasetParseError


def write_table(path, header, rows) -> None:
    # csv quotes a cell holding a lone "\r" only if "\r" is in the line
    # terminator, so each line is made with "\r\n" and written with "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            line = io.StringIO()
            csv.writer(line).writerow(repr(float(v)) if isinstance(v, float) else v for v in row)
            fh.write(line.getvalue()[:-2] + "\n")


def read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the data rows, each with the line it starts on (a
    quoted cell may span lines). An empty file, bytes that are not UTF-8, a
    row whose width differs from the header's, or any ``csv.Error`` (such as
    a cell over the field size limit) raise ``DatasetParseError`` naming the
    file and the line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetParseError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))  # lone \r ends a line too
    rows, start = [], 1
    try:
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DatasetParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetParseError(f"{path}: line 1: empty file, no rows")
    (_, header), *body = rows
    for lineno, row in body:
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
    return header, body
