"""Fork-based fan-out of independent work items.

One deliberately small surface: :func:`parallel_map` — ordered ``fn``
over items on forked workers, the engine under
``run_replications(n_jobs=...)``.  Fork inheritance means closures and
lambdas work — nothing needs to be picklable except the *results*.

On platforms without the ``fork`` start method (Windows) it falls back
to sequential execution with identical results — parallelism is a
speedup here, never a semantic.
"""

from repro.parallel.pool import cpu_count, parallel_map, resolve_jobs

__all__ = ["cpu_count", "parallel_map", "resolve_jobs"]
