"""The one writer of every numeric table the package files."""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 512


def write_table(path, header, columns, sep=",", newline="\n") -> None:
    """Write equal-length columns as `%.17g` rows after a header line
    (none if `header` is empty), byte for byte what numpy's text writer
    prints at that format; CHUNK_ROWS rows per write, so no whole-file
    string is built.  Raises ValueError when the columns differ in length."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"column lengths differ: {[len(c) for c in columns]}")
    row = sep.join(["%.17g"] * len(columns)) + newline
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header + newline)
        for i in range(0, len(columns[0]), CHUNK_ROWS):
            fh.writelines(row % r for r in zip(
                *(c[i:i + CHUNK_ROWS].tolist() for c in columns)))
