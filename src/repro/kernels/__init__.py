"""Compiled kernels for the solve hot path.

:mod:`repro.core.compiled` turns a model into frozen arrays plus a
vectorized rate program; this package turns the remaining per-solve work
into *kernels* — code specialized per model shape.

The banded steady-state solve (:mod:`repro.kernels.banded`) takes one of
two paths, chosen by the host rather than by any setting:

* ``cext`` — a small C GTH kernel compiled on first use with the system
  C compiler (``cc``/``gcc``/``clang``) and loaded through
  :mod:`ctypes`; no build step, no new dependency, cached under
  ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``);
* ``numpy`` — a single block-diagonal LAPACK ``dgbsv`` solve over the
  whole batch, used when the host has no compiler, and for the rest of
  the process once a C build or load fails (``kernels.demoted`` event).

The rate program is bit-identical to the interpreted path by
construction (same expressions evaluated on the same NumPy namespace,
deduplicated), and both banded paths agree with the reference GTH
elimination to ~1e-10 relative, enforced by ``tests/kernels/``.  A given
host always runs the same path, and every sample is solved
independently of its batch neighbours, so a sample's result does not
depend on which batch carries it.
"""

from __future__ import annotations

from repro.kernels.program import RateProgram


def backend_name() -> str:
    """The banded-solve path this process takes: ``"cext"`` or ``"numpy"``.

    A report, not a setting: ``"cext"`` while
    :func:`repro.kernels.cext.probe` holds (a loaded or cached library,
    or a compiler to build one).  Never triggers a C build.
    """
    from repro.kernels import cext

    return "cext" if cext.probe() else "numpy"


__all__ = ["RateProgram", "backend_name"]
