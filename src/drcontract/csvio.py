"""CSV tables: the one module that knows how the program's files look.

Every file is a header line, then rows of comma-separated cells.  Reals are
written as the csv module writes a float (numpy float64 included): its
``repr``, the shortest string that reads back to the same bits.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .errors import ParseError


def write_table(path, header, rows) -> None:
    """Write ``header``, then each row of strings, integers and reals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, header) -> np.ndarray:
    """Read a table written under ``header`` as a ``(rows, len(header))``
    float array, skipping blank lines.

    Raises ParseError naming the path and a line: line 1 for an empty file
    or another header, else the first row with another cell count or a cell
    that is not a real, else the first row with a non-finite real.  Bytes
    that do not decode raise ParseError naming the path alone, as the file
    is decoded in blocks of lines.
    """
    header = list(header)
    width = len(header)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise ParseError(f"expected header {','.join(header)}", str(path), 1)

            def cells():
                for row in reader:
                    if len(row) != width:
                        if not row:
                            continue
                        message = f"row has {len(row)} cells, header has {width}: {row!r}"
                        raise ParseError(message, str(path), reader.line_num)
                    yield from row

            # Cells stream into the array, never held as strings; while one
            # is converted, the reader's line_num is still the line of its row.
            try:
                flat = np.fromiter(map(float, cells()), dtype=float)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise ParseError(f"bad row: {exc}", str(path), reader.line_num)
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode text: {exc}", str(path)) from None
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        line = _line_of_row(path, int(bad[0]) // width)
        raise ParseError(f"non-finite value {float(flat[bad[0]])!r}", str(path), line)
    return flat.reshape(-1, width)


def read_indexed_table(path, header) -> np.ndarray:
    """:func:`read_table` for a table whose first column, ``type_index``,
    numbers its I rows 1..I once each, in any order; returns the other
    columns in index order.  A row whose index is not an integer in 1..I or
    repeats an earlier one (as a missing index forces) is a ParseError.
    """
    table = read_table(path, header)
    n_rows = table.shape[0]
    if n_rows == 0:
        raise ParseError("no data rows", str(path), 1)
    seen = set()
    for k, idx in enumerate(table[:, 0].tolist()):
        if not (idx.is_integer() and 1 <= idx <= n_rows) or idx in seen:
            message = f"type_index {idx:g} repeats or is not an integer in 1..{n_rows}"
            raise ParseError(message, str(path), _line_of_row(path, k))
        seen.add(idx)
    return table[np.argsort(table[:, 0]), 1:]


def _line_of_row(path, k: int) -> int:
    """Line of data row ``k`` (0-based, blank lines not counted), read again
    only to report a fault."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, k, None))
