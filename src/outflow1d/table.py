"""The one writer of every numeric table the package files.

Cells are formatted in C (format_rows in _compiled._STENCIL_C) as `%.17g`,
byte for byte what Python's `b"%.17g" % v` prints, so no Python float
formatting runs per cell: a zero or a fixed-notation cell
(1e-4 <= |v| < 1e17) from its 17 digits rounded half to even in 128-bit
integers, every other cell by the C library's `%.17g` in the C locale (a
NaN of either sign as `nan`).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ._compiled import LIB

CHUNK_ROWS = 512
CELL_BYTES = 25         # the longest %.17g cell, 24 bytes, and its NUL


def write_table(path, header, columns) -> None:
    """Write equal-length columns as comma-separated `%.17g` rows after a
    header line, LF-ended, byte for byte what numpy's text writer prints
    at that format; each chunk of CHUNK_ROWS rows is one call of the
    compiled formatter into one reused buffer and one write, so no
    whole-file string is built.  Raises ValueError when the columns differ
    in length."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"column lengths differ: {[len(c) for c in columns]}")
    block = np.array(columns, dtype=float)      # (ncols, nrows), C order
    ncols, nrows = block.shape
    cells = block.ctypes.data_as(ctypes.POINTER(ctypes.c_double))
    buf = ctypes.create_string_buffer(CELL_BYTES * ncols
                                      * min(nrows, CHUNK_ROWS))
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for r0 in range(0, nrows, CHUNK_ROWS):
            size = LIB.format_rows(nrows, ncols, cells, r0,
                                   min(r0 + CHUNK_ROWS, nrows), buf)
            if size < 0:
                raise OSError("no C locale to format the table in")
            fh.write(memoryview(buf)[:size])
