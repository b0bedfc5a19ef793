"""The one writer of every numeric table the package files."""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 512


def write_table(path, header, columns) -> None:
    """Write equal-length columns as comma-separated `%.17g` rows after a
    header line, LF-ended, byte for byte what numpy's text writer prints
    at that format; each chunk of CHUNK_ROWS rows is one `%` over its
    row-interleaved values and one write, so no whole-file string is
    built.  Raises ValueError when the columns differ in length."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"column lengths differ: {[len(c) for c in columns]}")
    # bytes, not str: with a str `%` and a text file, a loop of degenerate
    # layer_decay runs grew its peak RSS by about 15 kB per run (the heap
    # fragments around the ~800 B that each scipy 1.17 LSODA solver leaks);
    # with bytes it stays flat
    row = (",".join(["%.17g"] * len(columns)) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = np.column_stack([c[i:i + CHUNK_ROWS] for c in columns])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
