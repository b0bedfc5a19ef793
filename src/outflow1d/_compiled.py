"""The package's compiled routines: one C source, one cached shared object.

_STENCIL_C holds the solver's stencil (outflow_rhs, called by
solver.spatial_rhs) and the table formatter (format_rows, called by
table.write_table).  The first import compiles it with Python's configured
compiler into the package's __pycache__, under a name that hashes the
source and the command; later imports load that file.  LIB is the loaded
library, both functions typed.  The formatter's exact digits need
`unsigned __int128` (gcc or clang on a 64-bit target).  There is no
fallback: without a working compiler the import raises ImportError.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import subprocess
import sysconfig
import tempfile

_STENCIL_C = r"""
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Tendencies of the (5, n) state block s (rows rho, u, theta, E, b) into
 * the (5, n) block out, every entry written; returns half the continuity
 * flux at the last face.  Each rounded operation is the one of the numpy
 * stencil kept as the tests' oracle (select_rhs), in the same order; with
 * no contraction into fused multiply-adds the tendencies are its bit for
 * bit, but for the sign of a NaN where two NaNs meet in a sum or product
 * (C leaves the order of such operands to the compiler).  An operand read
 * at two nodes (a u or theta difference, a face's continuity flux) is
 * recomputed at each: the same operands, so the same bits, and no value
 * is carried from one node to the next, so gcc vectorizes the loop.  The
 * upwind selects are false for NaN, as numpy's comparisons are, and then
 * take the right-hand operand. */
static double face_flux(const double *restrict rho, const double *restrict u,
                        long i)
{
    double u_half = u[i] + u[i + 1];    /* twice the face velocity */
    return (u_half >= 0.0 ? rho[i] : rho[i + 1]) * u_half;
}

__attribute__((target_clones("avx2", "default")))
double outflow_rhs(long n, const double *restrict s, double *restrict out,
                   double dx, double inv_dx, double half_inv_dx,
                   double flux_left, double R, double mu, double mu_lap,
                   double kappa_lap, double gm1, double se, double inv_eps,
                   double b_scale)
{
    const double *restrict rho = s, *restrict u = s + n,
                 *restrict th = s + 2 * n, *restrict E = s + 3 * n,
                 *restrict b = s + 4 * n;
    double *restrict drho = out, *restrict du = out + n,
           *restrict dth = out + 2 * n, *restrict dE = out + 3 * n,
           *restrict db = out + 4 * n;

    for (int row = 0; row < 5; row++)
        out[row * n] = out[row * n + n - 1] = 0.0;
    drho[0] = (2.0 * flux_left - face_flux(rho, u, 0)) / dx;

    for (long i = 1; i < n - 1; i++) {
        double uc = u[i], rc = rho[i], bc = b[i];
        double d_um = u[i] - u[i - 1], d_up = u[i + 1] - u[i];
        double d_thm = th[i] - th[i - 1], d_thp = th[i + 1] - th[i];
        int upwind = uc > 0.0;
        double du_up = upwind ? d_um : d_up;
        double dth_up = upwind ? d_thm : d_thp;

        /* continuity, conservative form (fluxes doubled) */
        drho[i] = (face_flux(rho, u, i - 1) - face_flux(rho, u, i))
                  * half_inv_dx;

        /* momentum: (-p_x + mu u_xx - (E + u b) b) / rho - u u_x */
        double u_dx = uc * inv_dx;
        double r_rho = R * rc;
        double pres_m = (R * rho[i - 1]) * th[i - 1];
        double pres_c = r_rho * th[i];
        double pres_p = (R * rho[i + 1]) * th[i + 1];
        double ub = uc * bc;
        double drive = ub + E[i];

        double v = (pres_m - pres_p) + (d_up - d_um) * mu_lap;
        v *= half_inv_dx;
        v -= drive * bc;
        v /= rc;
        du[i] = v - du_up * u_dx;

        /* temperature: (gamma - 1) / (R rho) times
         * (mu u_x^2 - p u_x + kappa theta_xx + (E + u b)^2) - u theta_x */
        double ux = (u[i + 1] - u[i - 1]) * half_inv_dx;
        v = (ux * mu - pres_c) * ux;
        v += (d_thp - d_thm) * kappa_lap;
        v += drive * drive;
        v *= gm1 / r_rho;
        dth[i] = v - dth_up * u_dx;

        /* field block: upwind transport of w1 = sqrt(eps) E - b (backward)
         * and w2 = sqrt(eps) E + b (forward); the first and last interior
         * nodes read the boundary-set w1[0] and w2[n-1] */
        double dw1 = (se * E[i] - b[i]) - (se * E[i - 1] - b[i - 1]);
        double dw2 = (se * E[i + 1] + b[i + 1]) - (se * E[i] + b[i]);
        dE[i] = ((dw2 - dw1) * half_inv_dx - ub) * inv_eps;
        db[i] = (dw2 + dw1) * b_scale;
    }
    return 0.5 * face_flux(rho, u, n - 2);
}

/* The C locale, made once when the library is loaded, so that
 * format_rows prints a '.' whatever the process's LC_NUMERIC is. */
static locale_t c_numeric;

__attribute__((constructor)) static void make_c_numeric(void)
{
    c_numeric = newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

/* 10^k for k = 0 .. 21 */
static const unsigned __int128 POW10[22] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u,
    100000000u, 1000000000u, 10000000000u, 100000000000u,
    1000000000000u, 10000000000000u, 100000000000000u,
    1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u,
    (unsigned __int128)10000000000000000000u * 10u,
    (unsigned __int128)10000000000000000000u * 100u,
};

/* The %.17g cell of v written to p, and its length, when v is a zero or
 * its cell is fixed notation (decimal exponent X from -4 to 16); 0, with
 * the cell left to snprintf, for every other value.  A finite normal v
 * is m 2^q exactly (m < 2^53), so its 17 significant digits are
 * N = m 10^(16 - X) 2^q rounded half to even, in integers: m 10^(16 - X)
 * < 2^53 10^21 < 2^123, and a shift of at most 66 bits leaves the
 * remainder to compare with one half.  The same rounding of the exact
 * value is what glibc and Python print. */
static int fixed_cell(double v, char *p)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    char *start = p;
    if (bits >> 63)
        *p++ = '-';
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ull << 52) - 1);
    if (biased == 0 && m == 0) {
        *p++ = '0';
        return (int)(p - start);
    }
    int e2 = biased - 1023;             /* 2^e2 <= |v| < 2^(e2 + 1) */
    /* snprintf's: subnormals, |v| < 2^-14 < 1e-4, |v| >= 2^57 > 1e17,
     * infinities and NaNs */
    if (biased == 0 || e2 < -14 || e2 > 56)
        return 0;
    m |= 1ull << 52;
    int q = e2 - 52;
    /* floor(e2 log10 2), exact for these e2: X or X - 1 */
    int X = (e2 * 78913) >> 18;
    unsigned __int128 t = (unsigned __int128)m * POW10[16 - X];
    if ((q >= 0 ? t << q : t >> -q) >= POW10[17]) {
        if (X == 16)
            return 0;                   /* |v| >= 1e17 */
        t = (unsigned __int128)m * POW10[16 - ++X];
    }
    unsigned __int128 n;
    if (q >= 0)
        n = t << q;
    else {
        unsigned __int128 half = (unsigned __int128)1 << (-q - 1);
        unsigned __int128 rest = t & ((half << 1) - 1);
        n = t >> -q;
        n += rest > half || (rest == half && (n & 1));
    }
    if (n == POW10[17]) {   /* rounded up into the next decade; no double
                             * of this range is that close below a power
                             * of ten, but the digits need not rest on it */
        n = POW10[16];
        X++;
    }
    if (X < -4 || X > 16)
        return 0;

    char digits[17];                    /* N < 10^17: 9 digits, then 8 */
    uint32_t hi = (uint32_t)((uint64_t)n / 100000000u),
             lo = (uint32_t)((uint64_t)n % 100000000u);
    for (int i = 16; i >= 9; i--, lo /= 10)
        digits[i] = (char)('0' + lo % 10);
    for (int i = 8; i >= 0; i--, hi /= 10)
        digits[i] = (char)('0' + hi % 10);
    int len = 17;                       /* %g strips trailing zeros */
    while (digits[len - 1] == '0')
        len--;
    if (X >= 0) {
        memcpy(p, digits, (size_t)X + 1);
        p += X + 1;
        if (len > X + 1) {
            *p++ = '.';
            memcpy(p, digits + X + 1, (size_t)(len - X - 1));
            p += len - X - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > X; i--)
            *p++ = '0';
        memcpy(p, digits, (size_t)len);
        p += len;
    }
    return (int)(p - start);
}

/* Rows r0 .. r1 - 1 of the C-contiguous (ncols, nrows) block (one row of
 * the block per table column) as table text into out: each cell as
 * %.17g, byte for byte what Python's float formatting prints; cells
 * joined by ',' and each row ended by '\n'.  A zero or a fixed-notation
 * cell comes from fixed_cell's integer digits; every other cell from
 * snprintf, which glibc rounds exactly too, with a NaN of either sign as
 * "nan", Python's spelling, where glibc would print "-nan".  A cell is
 * at most 24 characters ("-0.0000" and 17 digits, or a sign, 17 digits,
 * a point and "e-308"), and snprintf writes one more
 * byte, the NUL that the next separator overwrites, so out must hold 25
 * bytes per cell.  Returns the number of bytes written, or -1 when no C
 * locale could be made. */
long format_rows(long nrows, long ncols, const double *block, long r0,
                 long r1, char *out)
{
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_numeric);
    char *p = out;
    for (long r = r0; r < r1; r++)
        for (long c = 0; c < ncols; c++) {
            double v = block[c * nrows + r];
            int len = fixed_cell(v, p);
            p += len ? len
                     : isnan(v) ? snprintf(p, 25, "nan")
                                : snprintf(p, 25, "%.17g", v);
            *p++ = c + 1 < ncols ? ',' : '\n';
        }
    uselocale(caller);
    return p - out;
}
"""

_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")


def _build(source: str, cache_dir, cc: list | None = None) -> str:
    """Path of the shared object compiled from source: built into
    cache_dir, under a name that hashes the source and the compiler
    command, only if it is not there yet, whatever PYTHONDONTWRITEBYTECODE
    says; a new build removes the directory's other builds, which no
    import of this source loads.  The compiler is sysconfig's CC unless cc
    is given.  A missing or failing compiler, or a cache_dir that cannot be
    made or written, raises ImportError with its message; there is no
    other code to fall back on."""
    if cc is None:
        cc = (sysconfig.get_config_var("CC") or "").split()
        if not cc:
            raise ImportError("no C compiler: sysconfig has no CC")
    cmd = [*cc, *_CFLAGS, "-x", "c", "-"]
    tag = hashlib.sha256("\0".join([source, *cmd]).encode()).hexdigest()
    path = os.path.join(cache_dir, f"_stencil-{tag[:16]}.so")
    if os.path.isfile(path):
        return path
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    except OSError as exc:
        raise ImportError(f"cannot write the build cache "
                          f"{os.fspath(cache_dir)}: {exc}") from exc
    os.close(fd)
    try:
        try:
            done = subprocess.run([*cmd, "-o", tmp], input=source, text=True,
                                  capture_output=True)
        except OSError as exc:
            raise ImportError(f"cannot run the C compiler {cc[0]!r}: "
                              f"{exc}") from exc
        if done.returncode != 0:
            raise ImportError(f"compiling the C source failed "
                              f"({' '.join(cmd)}):\n{done.stderr}")
        os.replace(tmp, path)   # atomic: a concurrent import sees all or none
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for stale in glob.glob(os.path.join(cache_dir, "_stencil-*.so")):
        if stale != path:
            with contextlib.suppress(FileNotFoundError):   # a racing build
                os.remove(stale)
    return path


def _load(source: str, cache_dir):
    """The library of _build(source, cache_dir), outflow_rhs and
    format_rows typed."""
    lib = ctypes.CDLL(_build(source, cache_dir))
    block = ctypes.POINTER(ctypes.c_double)
    lib.outflow_rhs.restype = ctypes.c_double
    lib.outflow_rhs.argtypes = [ctypes.c_long, block, block,
                                *[ctypes.c_double] * 12]
    lib.format_rows.restype = ctypes.c_long
    lib.format_rows.argtypes = [ctypes.c_long, ctypes.c_long, block,
                                ctypes.c_long, ctypes.c_long, ctypes.c_char_p]
    return lib


LIB = _load(_STENCIL_C, _CACHE)


