"""Build-on-first-use C kernel for the banded GTH elimination.

No packaging machinery: the C source below is compiled once per machine
with whatever C compiler is on ``PATH`` (``cc``, ``gcc`` or ``clang``)
into a shared object under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro/kernels``), keyed by a hash of the source, and loaded
through :mod:`ctypes`.  Everything is defensive: no compiler, a failed
build, or a failed load simply report the kernel unavailable, and the
banded solve takes the LAPACK path.  A build or load that fails is
remembered for the rest of the process and announced once as a
``kernels.demoted`` event.

The kernel itself is the same subtraction-free banded-plus-spike GTH
elimination as :func:`repro.ctmc.sparse.gth_banded_batch`, one C loop
per sample instead of a Python loop over states — O(n·b²) work with no
interpreter overhead, and the same storage layout (band slot
``j*w + u + i - j`` holds ``a[i, j]``; the spike column holds
``a[i, 0]``).
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
#include <stddef.h>
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
                "-o", str(built), str(source),
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
