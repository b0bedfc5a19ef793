"""The one numeric table writer against its byte-level oracles: np.savetxt,
Python's own `%.17g` and the pure-Python writer it replaced."""

import math
import os
import shutil
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from oracles import python_write_table
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


def exact_ties(rng, per_decade: int) -> np.ndarray:
    """Exact 17th-digit ties in every decade [10^X, 10^(X+1)) from 1e-4 to
    1e16: odd n / 2^j with j = 17 - X, whose decimal expansion ends in a 5
    at the 18th significant digit.  Above 2^53 < 1e16 every double is an
    even integer, so the last decade before 1e17 has none."""
    ties = []
    for X in range(-4, 16):
        j = 17 - X
        lo = math.ceil(Fraction(10) ** X * 2 ** j)
        hi = min(math.ceil(Fraction(10) ** (X + 1) * 2 ** j), 2 ** 53)
        odd = 2 * rng.integers(lo // 2, hi // 2, per_decade) + 1
        ties.append(np.ldexp(odd.astype(float), -j))
    return np.concatenate(ties)


def value_classes() -> np.ndarray:
    """Doubles of every kind the formatter meets: random bit patterns (NaN
    payloads of both signs among them), signed zeros, infinities and NaNs,
    subnormals, near and exact decimal ties at the 17th digit, every decade
    from 1e-320 to 1e308, powers of two and integers; and, for the cells
    printed from integer digits (fixed notation, 1e-4 <= |v| < 1e17),
    uniform draws in every decade from 1e-5 to 1e18, exact ties in each,
    the doubles next to each power of ten (where rounding to 17 digits
    would carry into the next decade; among them the largest doubles below
    1e-4 and 1e17) and 2^53 +- k."""
    rng = np.random.default_rng(28)
    random = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                np.uint64(0x7FF0000000000001).view(np.float64),
                np.uint64(0xFFF8DEADBEEF0001).view(np.float64),
                5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308]
    subnormals = (np.frombuffer(rng.bytes(8 * 1000), dtype=np.uint64)
                  % (1 << 52)).view(np.float64)
    k = np.arange(1000.0)
    near_ties = np.concatenate([(k + 0.5) * 10.0 ** j
                                for j in range(-25, 25)])
    ties = np.concatenate([1e15 + k + 0.25, 1e15 + k + 0.75,
                           exact_ties(rng, 1000)])
    decades = [float(f"1e{e}") for e in range(-320, 309)]
    in_decades = np.concatenate([rng.uniform(10.0 ** e, 10.0 ** (e + 1), 2000)
                                 for e in range(-5, 18)])
    below = above = np.array([float(f"1e{e}") for e in range(-5, 19)])
    edges = [below]
    for _ in range(8):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        edges += [below, above]
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    integers = np.concatenate([np.arange(-1000.0, 1000.0),
                               2.0 ** 53 + np.arange(-1000.0, 1001.0),
                               10.0 ** np.arange(23)])
    values = np.concatenate([random, specials, subnormals, near_ties, ties,
                             decades, in_decades, *edges, powers,
                             integers])
    return np.concatenate([values, -values])


def test_the_exact_ties_have_18_significant_digits():
    ties = exact_ties(np.random.default_rng(0), 50)
    for t in ties.tolist():
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, t


def test_cells_are_pythons_percent_g_byte_for_byte(tmp_path):
    values = value_classes()
    expected = b"".join(b"%.17g\n" % v for v in values.tolist())
    assert table_bytes(tmp_path, [values], "v") == b"v\n" + expected
    # three columns: the same cells joined by commas, row by row
    cols = values[:len(values) // 3 * 3].reshape(-1, 3)
    expected = b"".join(b"%.17g,%.17g,%.17g\n" % tuple(r)
                        for r in cols.tolist())
    assert table_bytes(tmp_path, cols.T, "a,b,c") == b"a,b,c\n" + expected


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                               CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_matches_the_python_writer_byte_for_byte(tmp_path, n):
    rng, pool = np.random.default_rng(n), value_classes()
    cols = [rng.choice(pool, n) for _ in range(4)]
    python_write_table(tmp_path / "python.csv", "w,x,y,z", cols)
    assert (table_bytes(tmp_path, cols, "w,x,y,z")
            == (tmp_path / "python.csv").read_bytes())


COMMA_LOCALES = ("de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                 "fr_FR.utf8", "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8")

COMMA_COLUMNS = [[0.5, -1.25e-300, np.nan, 1.5e-7],
                 [1.0 / 3.0, 2.5e300, -np.inf, -0.0]]

# With LC_NUMERIC set to argv[1], check that the C library itself prints a
# decimal comma, then write the columns argv[3:] (comma-joined reprs) as a
# table to argv[2].
COMMA_SCRIPT = textwrap.dedent("""
    import ctypes, locale, sys
    from outflow1d.table import write_table
    locale.setlocale(locale.LC_NUMERIC, sys.argv[1])
    buf = ctypes.create_string_buffer(16)
    ctypes.CDLL(None).snprintf(buf, 16, b"%.1f", ctypes.c_double(0.5))
    assert buf.value == b"0,5", buf.value
    write_table(sys.argv[2], "x,y",
                [[float(v) for v in col.split(",")] for col in sys.argv[3:]])
""")


def comma_locale_of(env) -> str | None:
    """The first of COMMA_LOCALES that a Python run in env can set, and
    whose decimal point is a comma, or None."""
    probe = ("import locale, sys\n"
             "for name in sys.argv[1:]:\n"
             "    try:\n"
             "        locale.setlocale(locale.LC_NUMERIC, name)\n"
             "    except locale.Error:\n"
             "        continue\n"
             "    if locale.localeconv()['decimal_point'] == ',':\n"
             "        print(name)\n"
             "        break\n")
    done = subprocess.run([sys.executable, "-c", probe, *COMMA_LOCALES],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip() or None


@pytest.fixture(scope="module")
def comma_numeric(tmp_path_factory):
    """(name, environment) of a locale whose decimal point is a comma: an
    installed one, or else de_DE.UTF-8 built by localedef into a temporary
    directory that LOCPATH names; skips when localedef is missing or
    cannot build it (its de_DE sources are missing)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    name = comma_locale_of(env)
    if name is None:
        localedef = shutil.which("localedef")
        if localedef is None:
            pytest.skip("no decimal-comma locale installed and no localedef")
        locpath = tmp_path_factory.mktemp("locales")
        built = subprocess.run([localedef, "-i", "de_DE", "-f", "UTF-8",
                                str(locpath / "de_DE.UTF-8")],
                               capture_output=True, text=True)
        env["LOCPATH"] = str(locpath)
        name = comma_locale_of(env)
        if name is None:
            pytest.skip("localedef could not build de_DE.UTF-8: "
                        + built.stderr.strip())
    return name, env


def test_a_comma_locale_leaves_the_bytes_alone(tmp_path, comma_numeric):
    # Python's float formatting ignores LC_NUMERIC; C's would print 0,5.
    # The exponential, inf and nan cells take the C library's route.
    name, env = comma_numeric
    path = tmp_path / "comma.csv"
    columns = [",".join(map(repr, col)) for col in COMMA_COLUMNS]
    subprocess.run([sys.executable, "-c", COMMA_SCRIPT, name, str(path),
                    *columns], env=env, check=True)
    expected = b"".join(b"%.17g,%.17g\n" % r for r in zip(*COMMA_COLUMNS))
    assert expected.startswith(b"0.5,")
    assert path.read_bytes() == b"x,y\n" + expected
