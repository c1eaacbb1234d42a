"""CSV tables: the one place that knows the on-disk text format.

A table is a header line plus rows in the csv module's default dialect
(commas, CRLF line ends, a field quoted only where it holds a comma or a
quote), floats written as repr(), which reads back to the same double.
Tables keyed by index columns hold one row per array cell and are read
back with scatter(), which checks every index.
"""
from __future__ import annotations

import csv

import numpy as np


def grid_index(shape, base: int) -> np.ndarray:
    """Every cell's index, in C order, as (cells, ndim) counted from base."""
    return np.indices(shape).reshape(len(shape), -1).T + base


def write_table(path, header, *columns) -> None:
    """Header line, then one row per entry of the columns: each 1-D (one
    field) or 2-D (rows first).  Values go through tolist(), so numpy
    floats print as Python floats."""
    fields = []
    for col in map(np.asarray, columns):
        fields += [col.tolist()] if col.ndim == 1 else [c.tolist() for c in col.T]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*fields))


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
