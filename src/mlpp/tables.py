"""CSV tables: the one place that knows the on-disk text format.

A table is a header line plus rows in the csv module's default dialect
(commas, CRLF line ends, a field quoted only where it holds a comma, a
quote or a line break), floats written as repr(), which reads back to the
same double.  Tables keyed by index columns hold one row per array cell
and are read back with scatter(), which checks every index.

write_table writes the bytes the csv module's writer would, at array
speed: each column becomes a fixed-width bytes array (integers from a
lookup table of their digits, floats through repr, anything else quoted
as the csv module quotes it), and the rows are assembled in one byte
matrix, from which the padding is dropped.
"""
from __future__ import annotations

import csv

import numpy as np


def format_text_table(rows: list) -> str:
    """Rows of strings, the first the header, right-aligned in columns two
    spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.rjust, row, widths)) for row in rows)


def grid_index(shape, base: int) -> np.ndarray:
    """Every cell's index, in C order, as (cells, ndim) counted from base."""
    return np.indices(shape).reshape(len(shape), -1).T + base


# The csv module's default dialect: a field holding one of _SPECIAL is
# quoted, with its quotes doubled.
_DIALECT = csv.excel
_SPECIAL = _DIALECT.delimiter + _DIALECT.quotechar + _DIALECT.lineterminator


def _csv_field(value) -> str:
    """One field as the csv module's writer writes it: None empty, a string
    as it is, anything else through str, quoted where needed."""
    text = "" if value is None else value if isinstance(value, str) else str(value)
    if any(c in text for c in _SPECIAL):
        quote = _DIALECT.quotechar
        return quote + text.replace(quote, 2 * quote) + quote
    return text


def _csv_line(fields) -> str:
    """One row of _csv_field texts; the csv module quotes a row's only
    field when it is empty, so that the line is not blank."""
    fields = list(fields)
    if fields == [""]:
        fields = [2 * _DIALECT.quotechar]
    return _DIALECT.delimiter.join(fields) + _DIALECT.lineterminator


def _field_bytes(col: np.ndarray, end: str, alone: bool) -> np.ndarray:
    """The fields of a (rows, c) column block, each followed by end, as an
    'S' array of the same shape.  Integers come from a lookup table of
    their digits when their range is no wider than the column (else str),
    floats from repr, anything else from _csv_field (alone marks a table's
    only column), UTF-8 encoded with NUL written as 0xff, a byte UTF-8
    never uses: an 'S' array pads with NUL."""
    kind = col.dtype.kind
    if kind in "iu":
        # offsets from the minimum, in a type that holds them
        offsets = col.astype(np.uint64 if kind == "u" else np.int64, order="C")
        low = offsets.min()
        lo, hi = int(low), int(offsets.max())
        if hi - lo <= max(col.size, 1024):
            digits = np.array([f"{v}{end}".encode() for v in range(lo, hi + 1)])
            offsets -= low
            return digits[offsets]
    if kind in "iuf":
        texts = np.array(list(map(str if kind in "iu" else repr, col.ravel().tolist())),
                         dtype="S")
        return np.strings.add(texts, end.encode()).reshape(col.shape)
    quoted = 2 * _DIALECT.quotechar
    texts = [(_csv_field(v) or (quoted if alone else "")) + end for v in col.ravel().tolist()]
    return np.array([text.encode().replace(b"\0", b"\xff") for text in texts],
                    dtype="S").reshape(col.shape)


def write_table(path, header, *columns) -> None:
    """Header line, then one row per entry of the columns: each 1-D (one
    field) or 2-D (rows first), all with the same number of rows.  The
    bytes are those of the csv module's writer given the rows' tolist()
    values (so numpy floats print as Python floats)."""
    blocks = [col[:, None] if col.ndim == 1 else col for col in map(np.asarray, columns)]
    blocks = [block for block in blocks if block.shape[1]]
    rows = {block.shape[0] for block in blocks}
    if len(rows) > 1:
        raise ValueError(f"{path}: columns of different lengths {sorted(rows)}")
    body = b""
    if blocks and rows != {0}:
        # the last field of a row ends the line, every other one a delimiter
        *blocks, last = blocks
        blocks += [last[:, :-1], last[:, -1:]]
        ends = [_DIALECT.delimiter] * (len(blocks) - 1) + [_DIALECT.lineterminator]
        alone = sum(block.shape[1] for block in blocks) == 1
        matrix = np.concatenate(
            [np.ascontiguousarray(_field_bytes(block, end, alone)).view(np.uint8)
             .reshape(block.shape[0], -1) for block, end in zip(blocks, ends)
             if block.shape[1]], axis=1)
        body = matrix[matrix != 0].tobytes().replace(b"\xff", b"\0")
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(map(_csv_field, header)))
        fh.write(body.decode())


def read_header(path) -> list:
    with open(path, newline="") as fh:
        line = fh.readline()
    if not line:
        raise ValueError(f"{path}: empty file, expected a header line")
    return next(csv.reader([line]))


def read_table(path, header, dtype=float) -> np.ndarray:
    """Body of a table whose header must equal header, (rows, len(header)),
    or (rows,) records for a structured dtype; every row must have the
    header's field count.  A header-only file gives zero rows."""
    found = read_header(path)
    if found != list(header):
        raise ValueError(f"{path}: header {found} does not match the expected {list(header)}")
    dtype = np.dtype(dtype)
    with open(path, newline="") as fh:
        fh.readline()
        start = fh.tell()
        if not fh.readline():
            return np.empty(0 if dtype.names else (0, len(found)), dtype=dtype)
        fh.seek(start)
        try:
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                               dtype=dtype, ndmin=1 if dtype.names else 2)
        except ValueError as err:
            reason = str(err).split("; use `usecols`")[0]
            raise ValueError(f"{path}: {reason} (rows counted after the header)") from None
    if not dtype.names and table.shape[1] != len(found):
        raise ValueError(f"{path}: rows have {table.shape[1]} fields, the header {len(found)}")
    return table


def scatter(path, table: np.ndarray, shape, base: int, fill=0, dtype=float,
            complete: bool = False) -> np.ndarray:
    """Place each row's values at the cell its leading index columns name
    (counted from base): returns shape + (value columns,).

    A non-integer or out-of-range index and a cell named twice raise,
    naming the file and line; so does, with complete, a cell no row names
    (which otherwise keeps fill).
    """
    index, values = table[:, :len(shape)], table[:, len(shape):]
    with np.errstate(invalid="ignore"):
        cells = index.T.astype(np.int64) - base                  # (ndim, rows)
    try:
        if index.dtype.kind == "f" and not np.array_equal(cells.T + base, index):
            raise ValueError("an index is not an integer")
        flat = np.ravel_multi_index(tuple(cells), shape)         # raises on a cell outside
    except ValueError:
        bad = np.flatnonzero(np.any((cells.T + base != index) | (cells.T < 0)
                                    | (cells.T >= shape), axis=1))[0]
        raise ValueError(f"{path}: line {bad + 2}: index {index[bad].tolist()} is not "
                         f"a cell of a {list(shape)} array counted from {base}") from None
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    if not first.all():
        row = np.flatnonzero(~first)[0]
        raise ValueError(f"{path}: line {row + 2} repeats cell {(cells[:, row] + base).tolist()}")
    size = int(np.prod(shape))
    if complete and flat.size < size:
        missing = np.unravel_index(np.setdiff1d(np.arange(size), flat)[0], shape)
        raise ValueError(f"{path}: no row for cell {[int(c) + base for c in missing]}")
    out = np.full((size, values.shape[1]), fill, dtype=dtype)
    out[flat] = values
    return out.reshape(tuple(shape) + (values.shape[1],))
