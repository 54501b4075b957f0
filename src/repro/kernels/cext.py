"""Build-on-first-use C kernels for the banded and dense GTH eliminations.

No packaging machinery: the C source below is compiled once per machine
with whatever C compiler is on ``PATH`` (``cc``, ``gcc`` or ``clang``)
into a shared object under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro/kernels``), keyed by a hash of the source, and loaded
through :mod:`ctypes`.  Everything is defensive: no compiler, a failed
build, or a failed load simply report the kernel unavailable, and the
banded solve takes the LAPACK path.  A build or load that fails is
remembered for the rest of the process and announced once as a
``kernels.demoted`` event.

The banded kernel is the same subtraction-free banded-plus-spike GTH
elimination as :func:`repro.ctmc.sparse.gth_banded_batch`, one C loop
per sample instead of a Python loop over states — O(n·b²) work with no
interpreter overhead, and the same storage layout (band slot
``j*w + u + i - j`` holds ``a[i, j]``; the spike column holds
``a[i, 0]``).  The dense kernel (:mod:`repro.kernels.dense`) runs GTH
on a dense work matrix and returns the stationary vector together with
the submodel's (Lambda, Mu) interface.  Both are built with
``-ffp-contract=off``, so no compiler fuses a multiply-add and the
dense kernel's bits equal its NumPy twin's.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

from repro import obs

_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Banded-plus-spike GTH elimination, one sample per outer iteration.
 *
 * band : k_samples * n * w   doubles, slot j*w + u + (i - j) = a[i][j]
 * spike: k_samples * n       doubles, spike[i] = a[i][0]
 * pis  : k_samples * n       doubles (output, normalized)
 *
 * Returns 0 on success, 1 + sample index when elimination hits a state
 * with no flow back into the remaining block (reducible chain), and
 * -(1 + sample index) when the result fails to normalize.
 */
long repro_gth_banded(double *band, double *spike, double *pis,
                      long k_samples, long n, long w, long u, long l)
{
    long s, k, i, j;
    for (s = 0; s < k_samples; s++) {
        double *B = band + (size_t)s * n * w;
        double *S = spike + (size_t)s * n;
        double *P = pis + (size_t)s * n;
        for (k = n - 1; k >= 1; k--) {
            long lo_row = k - l > 1 ? k - l : 1;
            long lo_col = k - u > 0 ? k - u : 0;
            double total = S[k];
            for (j = lo_row; j < k; j++)
                total += B[j * w + u + k - j];
            if (!(total > 0.0))
                return 1 + s;
            for (i = lo_col; i < k; i++) {
                double factor = B[k * w + u + i - k] / total;
                B[k * w + u + i - k] = factor;
                if (factor != 0.0) {
                    for (j = lo_row; j < k; j++)
                        B[j * w + u + i - j] += factor * B[j * w + u + k - j];
                    S[i] += factor * S[k];
                }
            }
        }
        P[0] = 1.0;
        {
            double sum = 1.0;
            for (k = 1; k < n; k++) {
                long lo_col = k - u > 0 ? k - u : 0;
                double acc = 0.0;
                for (i = lo_col; i < k; i++)
                    acc += P[i] * B[k * w + u + i - k];
                P[k] = acc;
                sum += acc;
            }
            if (!(sum > 0.0) || (sum - sum) != 0.0)
                return -(1 + s);
            for (k = 0; k < n; k++)
                P[k] /= sum;
        }
    }
    return 0;
}

/* Band/spike assembly: for every sample row, zero the output row and
 * accumulate rates[cols[i]] (times signs[i] when given) into
 * out[slots[i]].  Entries arrive pre-sorted by slot then source column
 * (CSC order), so duplicate slots sum in the same order as the numpy
 * segment-sum path and the results are bit-identical.
 */
void repro_scatter_rows(const double *rates, const long *cols,
                        const long *slots, const double *signs,
                        double *out, long k_samples, long n_rates,
                        long nnz, long n_out)
{
    long s, i;
    for (s = 0; s < k_samples; s++) {
        const double *R = rates + (size_t)s * n_rates;
        double *O = out + (size_t)s * n_out;
        memset(O, 0, (size_t)n_out * sizeof(double));
        if (signs) {
            for (i = 0; i < nnz; i++)
                O[slots[i]] += signs[i] * R[cols[i]];
        } else {
            for (i = 0; i < nnz; i++)
                O[slots[i]] += R[cols[i]];
        }
    }
}

/* GTH on the m-state chain M (row-major rates; the diagonal is never
 * read), in place.  p receives the unnormalized stationary vector with
 * p[0] = 1.  Returns its sum, or -1 when an eliminated state has no
 * flow back into the remaining block.  Every sum runs in index order.
 */
static double gth_dense(double *M, long m, double *p)
{
    long k, i, j;
    double sum = 1.0;
    for (k = m - 1; k >= 1; k--) {
        double *Mk = M + (size_t)k * m;
        double total = 0.0;
        for (j = 0; j < k; j++)
            total += Mk[j];
        if (!(total > 0.0))
            return -1.0;
        for (i = 0; i < k; i++) {
            double *Mi = M + (size_t)i * m;
            double factor = Mi[k] / total;
            Mi[k] = factor;
            if (factor != 0.0)
                for (j = 0; j < k; j++)
                    Mi[j] += factor * Mk[j];
        }
    }
    p[0] = 1.0;
    for (k = 1; k < m; k++) {
        double acc = 0.0;
        for (i = 0; i < k; i++)
            acc += p[i] * M[(size_t)i * m + k];
        p[k] = acc;
        sum += acc;
    }
    return sum;
}

/* Dense GTH with the submodel interface, one sample per iteration.
 *
 * rates : k_samples * n_arcs doubles; arc t is src[t] -> tgt[t]
 *         (distinct off-diagonal pairs)
 * up    : n flags, nonzero for an up state
 * out   : k_samples * (n + 5) doubles: the normalized stationary
 *         vectors, then per sample Lambda, Mu, a status, P(up) and
 *         P(down), each a block of k_samples
 *
 * Lambda is flow_down / P(up) when mttf == 0.  When mttf != 0 it is
 * 1 / MTTF from state 0 by the renewal closure: the down set collapses
 * into one state A that returns to state 0 at rate 1, and
 * MTTF = P(U) / P(A) in that chain (0 when no flow reaches the down
 * set).  Mu is flow_up / P(down), inf when P(down) is 0.  Status 0 is
 * a valid sample, 1 a failed stationary elimination, 2 a failed
 * closure, 3 a rate that is not positive (the chain may be reducible;
 * the caller classifies it).  Scratch is allocated per call, so
 * concurrent calls share nothing.  Returns 0, or -1 when the scratch
 * cannot be allocated.
 */
long repro_gth_dense(const double *rates, const long *src, const long *tgt,
                     const long *up, double *out, long k_samples, long n,
                     long n_arcs, long mttf)
{
    long s, i, j, t, n_up = 0;
    long *pos = malloc(sizeof(long) * (size_t)n);
    for (i = 0; i < n; i++)
        n_up += up[i] != 0;
    long m = n_up + 1;
    int closure = mttf && up[0] && n_up < n;
    double *A = malloc(sizeof(double)
                       * ((size_t)n * n + (size_t)m * m + n + m));
    if (!A || !pos) {
        free(A);
        free(pos);
        return -1;
    }
    double *B = A + (size_t)n * n;
    double *w = B + (size_t)m * m;
    double *q = w + n;
    for (i = 0, j = 0; i < n; i++)
        pos[i] = up[i] ? j++ : n_up;
    for (s = 0; s < k_samples; s++) {
        const double *R = rates + (size_t)s * n_arcs;
        double *P = out + (size_t)s * n;
        double *lam = out + (size_t)k_samples * n + s;
        double *mu = lam + k_samples;
        double *status = mu + k_samples;
        double *p_up = status + k_samples;
        double *p_down = p_up + k_samples;
        double sum, f_down = 0.0, f_up = 0.0;
        *lam = *mu = *p_up = *p_down = 0.0;
        *status = 3.0;
        for (t = 0; t < n_arcs; t++)
            if (!(R[t] > 0.0))
                break;
        if (t < n_arcs)
            continue;
        memset(A, 0, sizeof(double) * (size_t)n * n);
        for (t = 0; t < n_arcs; t++)
            A[(size_t)src[t] * n + tgt[t]] += R[t];
        /* Rate across the up/down cut out of each state. */
        for (i = 0; i < n; i++) {
            double acc = 0.0;
            for (j = 0; j < n; j++)
                if ((up[j] != 0) != (up[i] != 0))
                    acc += A[(size_t)i * n + j];
            w[i] = acc;
        }
        if (closure) {
            memset(B, 0, sizeof(double) * (size_t)m * m);
            for (i = 0; i < n; i++) {
                if (!up[i])
                    continue;
                for (j = 0; j < n; j++)
                    if (up[j])
                        B[(size_t)pos[i] * m + pos[j]] = A[(size_t)i * n + j];
                B[(size_t)pos[i] * m + n_up] = w[i];
            }
            B[(size_t)n_up * m] = 1.0;
        }
        *status = 1.0;
        sum = gth_dense(A, n, P);
        if (!(sum > 0.0) || !isfinite(sum))
            continue;
        *status = 0.0;
        for (i = 0; i < n; i++)
            P[i] /= sum;
        for (i = 0; i < n; i++) {
            if (up[i]) {
                *p_up += P[i];
                f_down += P[i] * w[i];
            } else {
                *p_down += P[i];
                f_up += P[i] * w[i];
            }
        }
        *mu = *p_down > 0.0 ? f_up / *p_down : INFINITY;
        if (!mttf) {
            *lam = f_down / *p_up;
        } else if (closure && f_down > 0.0) {
            double up_mass = 0.0;
            sum = gth_dense(B, m, q);
            if (!(sum > 0.0) || !isfinite(sum)) {
                *status = 2.0;
                continue;
            }
            for (i = 0; i < n_up; i++)
                up_mass += q[i];
            *lam = q[n_up] / up_mass;
        }
    }
    free(A);
    free(pos);
    return 0;
}
"""

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_failed = False


def cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "kernels"


def _library_path() -> pathlib.Path:
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    return cache_dir() / f"repro_gth_{digest}.so"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def probe() -> bool:
    """Cheap availability check: cached build present, or a compiler."""
    if _failed:
        return False
    if _lib is not None:
        return True
    try:
        if _library_path().exists():
            return True
    except OSError:  # pragma: no cover - unreadable home
        return False
    return _compiler() is not None


def _build(target: pathlib.Path, compiler: str) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(target.parent)) as tmp:
        source = pathlib.Path(tmp) / "repro_gth.c"
        source.write_text(_C_SOURCE, encoding="utf-8")
        built = pathlib.Path(tmp) / target.name
        subprocess.run(
            [
                compiler, "-O3", "-fPIC", "-shared",
                "-ffp-contract=off",
                "-o", str(built), str(source), "-lm",
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # Atomic publish: concurrent builders race benignly.
        os.replace(built, target)


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns ``None`` (and remembers the failure) when the extension
    cannot be built or loaded in this environment.
    """
    global _lib, _failed
    if _lib is not None:
        return _lib
    if _failed:
        return None
    with _lock:
        if _lib is not None or _failed:
            return _lib
        target = _library_path()
        try:
            if not target.exists():
                compiler = _compiler()
                if compiler is None:
                    # No toolchain on this host: the LAPACK path from
                    # the start, nothing to announce.
                    _failed = True
                    return None
                _build(target, compiler)
            lib = ctypes.CDLL(str(target))
            fn = lib.repro_gth_banded
            fn.restype = ctypes.c_long
            fn.argtypes = [
                ctypes.POINTER(ctypes.c_double),
                ctypes.POINTER(ctypes.c_double),
                ctypes.POINTER(ctypes.c_double),
                ctypes.c_long,
                ctypes.c_long,
                ctypes.c_long,
                ctypes.c_long,
                ctypes.c_long,
            ]
            dense = lib.repro_gth_dense
            dense.restype = ctypes.c_long
            dense.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_long] * 4
            scatter = lib.repro_scatter_rows
            scatter.restype = None
            scatter.argtypes = [
                ctypes.POINTER(ctypes.c_double),
                ctypes.POINTER(ctypes.c_long),
                ctypes.POINTER(ctypes.c_long),
                ctypes.POINTER(ctypes.c_double),
                ctypes.POINTER(ctypes.c_double),
                ctypes.c_long,
                ctypes.c_long,
                ctypes.c_long,
                ctypes.c_long,
            ]
        except (OSError, subprocess.SubprocessError, AttributeError) as exc:
            _failed = True
            obs.event("kernels.demoted", backend="cext", reason=str(exc))
            return None
        _lib = lib
        return _lib


def gth_banded(band, spike, pis, k_samples, n, w, u, l) -> int:
    """Run the C elimination in place; see the C source for the contract.

    All three arrays must be C-contiguous float64.  Raises
    :class:`RuntimeError` if the library is unavailable (callers check
    :func:`load` first, so this is defensive).
    """
    lib = load()
    if lib is None:
        raise RuntimeError("cext kernel unavailable")
    as_ptr = lambda a: a.ctypes.data_as(  # noqa: E731 - local shorthand
        ctypes.POINTER(ctypes.c_double)
    )
    return int(
        lib.repro_gth_banded(
            as_ptr(band), as_ptr(spike), as_ptr(pis),
            int(k_samples), int(n), int(w), int(u), int(l),
        )
    )


def scatter_rows(rates, cols, slots, signs, out) -> None:
    """Per-row scatter-accumulate assembly; see the C source contract.

    ``rates`` and ``out`` must be C-contiguous float64; ``cols`` and
    ``slots`` C-contiguous int64 (``long``); ``signs`` float64 or
    ``None`` for all-+1 maps.  ``out`` is fully overwritten (zeroed,
    then accumulated), so callers pass an uninitialized buffer.
    """
    lib = load()
    if lib is None:
        raise RuntimeError("cext kernel unavailable")
    dbl = lambda a: a.ctypes.data_as(  # noqa: E731 - local shorthand
        ctypes.POINTER(ctypes.c_double)
    )
    lng = lambda a: a.ctypes.data_as(  # noqa: E731 - local shorthand
        ctypes.POINTER(ctypes.c_long)
    )
    lib.repro_scatter_rows(
        dbl(rates), lng(cols), lng(slots),
        dbl(signs) if signs is not None else None,
        dbl(out), int(rates.shape[0]), int(rates.shape[1]),
        int(cols.shape[0]), int(out.shape[1]),
    )


def gth_dense(rates, arcs, out, k, n, n_arcs, mttf) -> None:
    """Run the dense elimination; see the C source for the contract.

    Every argument buffer is passed by address, so NumPy arrays
    (``array.ctypes.data``) and ctypes buffers (``ctypes.addressof``)
    share this one entry: ``rates`` holds ``k * n_arcs`` C-contiguous
    float64 rates, ``out`` has room for ``k * (n + 5)`` float64 outputs,
    and ``arcs`` are the addresses of the plan's C-contiguous int64
    ``src``, ``tgt`` and ``up`` arrays.  Raises :class:`MemoryError` when
    the kernel cannot allocate its scratch.
    """
    lib = load()
    if lib is None:
        raise RuntimeError("cext kernel unavailable")
    status = lib.repro_gth_dense(
        rates, *arcs, out, k, n, n_arcs, 1 if mttf else 0
    )
    if status != 0:
        raise MemoryError("dense GTH kernel could not allocate its scratch")
