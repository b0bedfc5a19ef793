"""The one numeric table writer against np.savetxt, its byte-level oracle."""

import numpy as np
import pytest

from outflow1d.table import CHUNK_ROWS, write_table


def savetxt_bytes(tmp_path, columns, header) -> bytes:
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               newline="\n", header=header, comments="")
    return path.read_bytes()


def table_bytes(tmp_path, columns, header) -> bytes:
    path = tmp_path / "table.csv"
    write_table(path, header, columns)
    return path.read_bytes()


def columns_of(n: int, seed: int = 0) -> list:
    """Three columns spanning many magnitudes, with -0.0, 1e-300 and 1e300
    among the values; n > CHUNK_ROWS crosses chunk boundaries."""
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
            for _ in range(3)]
    cols[0][:4] = (-0.0, 1e-300, 1e300, 0.0)
    cols[2][-3:] = (1e300, -0.0, 1e-300)
    return cols


# every table is LF-ended: the one line ending is the id's "lf"
@pytest.mark.parametrize("newline", ["\n"], ids=["lf"])
@pytest.mark.parametrize("header", ["a,b,c"], ids=["header"])
@pytest.mark.parametrize("n", [7, CHUNK_ROWS, 2 * CHUNK_ROWS + 7])
def test_matches_savetxt_byte_for_byte(tmp_path, newline, header, n):
    cols = columns_of(n)
    data = table_bytes(tmp_path, cols, header)
    assert data == savetxt_bytes(tmp_path, cols, header)
    assert data.count(newline.encode()) == n + 1 and b"\r" not in data


@pytest.mark.parametrize("n_columns", [1, 7])
def test_one_and_seven_columns_match_savetxt(tmp_path, n_columns):
    # a chunk is one format over its row-interleaved values; the last
    # chunk here is partial
    cols = (columns_of(2 * CHUNK_ROWS + 7, seed=1)
            + columns_of(2 * CHUNK_ROWS + 7, seed=2)
            + columns_of(2 * CHUNK_ROWS + 7, seed=3))[:n_columns]
    header = ",".join("c%d" % k for k in range(n_columns))
    assert (table_bytes(tmp_path, cols, header)
            == savetxt_bytes(tmp_path, cols, header))


def test_list_input(tmp_path):
    xs = [0.0, -0.0, 1e-300, 1e300, 1.0 / 3.0, 2]
    ys = [float(v) for v in np.geomspace(1e-5, 1e5, len(xs))]
    assert (table_bytes(tmp_path, (xs, ys), "x,y")
            == savetxt_bytes(tmp_path, (xs, ys), "x,y"))
    assert (tmp_path / "table.csv").read_bytes().startswith(
        b"x,y\n0,1.0000000000000001e-05\n-0,")


def test_no_rows_writes_the_header_alone(tmp_path):
    assert table_bytes(tmp_path, ([], []), "t,v") == b"t,v\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="column lengths differ"):
        write_table(path, "x,y", (np.zeros(3), np.zeros(2)))
