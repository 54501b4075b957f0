"""Dense stacked GTH: stationary vector, Lambda and Mu in one call.

The solve behind every dense ``gth`` / ``auto`` steady-state request,
batch and scalar alike.  Given a :class:`DenseKernelPlan` (a chain's
arcs and up mask) and a ``(k, n_arcs)`` rate matrix, one call returns
per sample:

* the stationary vector, by the subtraction-free Grassmann–Taksar–Heyman
  elimination on a dense work matrix;
* Mu, the down-set exit flow over the down mass;
* Lambda: the up-set exit flow over the up mass under ``"flow"``, and
  ``1 / MTTF`` from the initial state under ``"mttf"``.  The MTTF comes
  from a *renewal closure*: the down set collapses into one state A that
  returns to the initial state at rate 1, and
  ``MTTF = P(U) / P(A)`` in that (|U|+1)-state chain, solved by GTH
  too.  Unlike the ``Q_UU m = -1`` solve, this never subtracts, so its
  relative accuracy does not depend on how long the hitting time is
  (~1e14 h for the large AS submodels).

Two paths, chosen by the host exactly as for the banded kernel
(:func:`repro.kernels.backend_name` reports which): the C loop in
:mod:`repro.kernels.cext`, and a NumPy twin that runs the same
operations vectorized over the samples.  Every sum runs in index order
over the dense work matrix (``np.cumsum`` on the NumPy path), so the
order in which a caller lists arcs cannot move a bit, and the two paths
agree bit for bit.

:class:`PointKernel` runs the C loop on one sample of Python floats
through ctypes buffers, for one-point solves that make no NumPy call;
the C loop solves each sample on its own, so its outputs are the bits
:func:`dense_gth` gives that sample in any batch.
"""

from __future__ import annotations

import ctypes
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "DenseKernelPlan", "PointKernel", "dense_kernel_plan", "dense_gth",
]


class DenseKernelPlan:
    """A chain's arcs and up mask, laid out for :func:`dense_gth`.

    Built from a transition list: once per compiled model for batch
    solves (:func:`dense_kernel_plan`, cached in ``solver_cache``), per
    call from a generator's arcs for scalar ones.  The arcs must be
    distinct off-diagonal pairs, as a model's transitions and a
    generator's non-zeros are.
    """

    __slots__ = (
        "n", "sources", "targets", "up", "up_idx", "n_up", "closure",
        "_arcs",
    )

    def __init__(
        self,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        up_mask: np.ndarray,
    ) -> None:
        up_mask = np.asarray(up_mask, dtype=bool)
        self.n = int(n)
        self.sources = np.ascontiguousarray(sources, dtype=np.int64)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        self.up = np.ascontiguousarray(up_mask, dtype=np.int64)
        self.up_idx = np.flatnonzero(up_mask)
        self.n_up = int(self.up_idx.size)
        #: The MTTF closure applies: an up initial state and a down set.
        self.closure = bool(self.n and up_mask[0] and self.n_up < self.n)
        self._arcs = (
            self.sources.ctypes.data,
            self.targets.ctypes.data,
            self.up.ctypes.data,
        )


def dense_kernel_plan(compiled) -> DenseKernelPlan:
    """The compiled model's (cached) dense kernel plan."""
    cache = compiled.solver_cache
    plan = cache.get("dense_kernel_plan")
    if plan is None:
        plan = DenseKernelPlan(
            compiled.n_states,
            compiled.transition_sources,
            compiled.transition_targets,
            compiled.up_mask,
        )
        cache["dense_kernel_plan"] = plan
    return plan


def dense_gth(
    plan: DenseKernelPlan, rates: np.ndarray, mttf: bool
) -> Tuple[np.ndarray, ...]:
    """Stationary vectors, Lambda and Mu for every row of ``rates``.

    Args:
        plan: The chain's :class:`DenseKernelPlan`.
        rates: ``(k, n_arcs)`` non-negative rates, columns in the order
            of the arcs the plan was built from.
        mttf: Lambda as ``1 / MTTF`` (renewal closure) instead of the
            flow rate.

    Returns:
        ``(pis, lam, mu, status, p_up, p_down)``: ``(k, n)`` normalized
        stationary vectors and five ``(k,)`` arrays, the last two the
        up and down mass (index-order sums).  ``status`` is 0 for a
        valid sample, 1 when the stationary elimination failed (no
        unique stationary vector over all states, or a vector that does
        not normalize), 2 when the closure failed and 3 when a rate is
        not positive (the chain may be reducible: the caller classifies
        it); such a sample's other outputs are meaningless.
    """
    from repro.kernels import cext

    rates = np.ascontiguousarray(rates, dtype=float)
    k, n = rates.shape[0], plan.n
    if cext.load() is None:
        return _dense_gth_numpy(plan, rates, mttf)
    out = np.empty(k * (n + 5))
    cext.gth_dense(
        rates.ctypes.data, plan._arcs, out.ctypes.data,
        k, n, rates.shape[1], mttf,
    )
    return (out[: k * n].reshape(k, n), *out[k * n:].reshape(5, k))


class PointKernel:
    """:func:`dense_gth` of one sample of Python floats, on the C loop.

    The rates go in and the outputs come back through ctypes buffers
    allocated per call: the kernel runs without the GIL, and one model
    may be solved on several threads at once.  The C module is looked up
    per call, so :meth:`loaded` is False on a host that cannot build the
    kernel, where callers take :func:`dense_gth` (its NumPy twin).
    """

    __slots__ = ("plan", "n_arcs", "_cext", "_rates", "_out")

    def __init__(self, plan: DenseKernelPlan) -> None:
        from repro.kernels import cext

        self.plan = plan  # owns the arc arrays the kernel reads
        self.n_arcs = int(plan.sources.size)
        self._cext = cext
        self._rates = ctypes.c_double * self.n_arcs
        self._out = ctypes.c_double * (plan.n + 5)

    def loaded(self) -> bool:
        """Whether the C kernel is loaded (built on first use)."""
        return self._cext.load() is not None

    def __call__(self, rates: Sequence[float], mttf: bool) -> List[float]:
        """The sample's ``n + 5`` outputs as Python floats.

        The stationary vector, then Lambda, Mu, the status, P(up) and
        P(down), as :func:`dense_gth` returns them for one row.
        """
        plan = self.plan
        buffer = self._rates(*rates)
        out = self._out()
        self._cext.gth_dense(
            ctypes.addressof(buffer), plan._arcs, ctypes.addressof(out),
            1, plan.n, self.n_arcs, mttf,
        )
        return out[:]


# NumPy path -----------------------------------------------------------------


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis in index order (the C loop's order)."""
    return np.cumsum(x, axis=-1)[..., -1]


def _gth_stack(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GTH on a ``(k, m, m)`` stack, in place; the C ``gth_dense`` twin.

    Returns ``(p, total, ok)``: unnormalized vectors with ``p[:, 0] = 1``,
    their sums, and the samples whose elimination succeeded.
    """
    k, m, _ = a.shape
    # A failed sample divides by zero and carries nan or inf from there
    # on; only its own row is touched, and ``ok`` discards it.
    totals = np.ones((k, m))
    for e in range(m - 1, 0, -1):
        totals[:, e] = _row_sums(a[:, e, :e])
        factor = a[:, :e, e] / totals[:, e, None]
        a[:, :e, e] = factor
        a[:, :e, :e] += factor[:, :, None] * a[:, e, None, :e]
    p = np.empty((k, m))
    p[:, 0] = 1.0
    for e in range(1, m):
        p[:, e] = _row_sums(p[:, :e] * a[:, :e, e])
    total = _row_sums(p)
    ok = (totals > 0.0).all(axis=1) & (total > 0.0) & np.isfinite(total)
    return p, total, ok


def _dense_gth_numpy(plan: DenseKernelPlan, rates: np.ndarray, mttf: bool):
    k, n = rates.shape[0], plan.n
    up = plan.up.astype(bool)
    a = np.zeros((k, n, n))
    a[:, plan.sources, plan.targets] = rates
    # Rate across the up/down cut out of each state.
    w = _row_sums(a * (up[:, None] != up[None, :]))
    if plan.closure:
        u, m = plan.up_idx, plan.n_up + 1
        b = np.zeros((k, m, m))
        b[:, : m - 1, : m - 1] = a[:, u[:, None], u[None, :]]
        b[:, : m - 1, m - 1] = w[:, u]
        b[:, m - 1, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, total, ok = _gth_stack(a)
        pis = p / total[:, None]
        # Masking by a 0/1 product adds exact zeros where C skips.
        flows = pis * w
        p_up, p_down, f_down, f_up = _row_sums(
            np.stack([pis * up, pis * ~up, flows * up, flows * ~up])
        )
        mu = np.where(p_down > 0.0, f_up / p_down, np.inf)
        status = np.where(ok, 0.0, 1.0)
        status[(rates <= 0.0).any(axis=1)] = 3.0
        ok = status == 0.0
        if not mttf:
            lam = f_down / p_up
        else:
            lam = np.zeros(k)
            need = ok & (f_down > 0.0) & plan.closure
            if need.any():
                q, _, closed = _gth_stack(b[need])
                lam[need] = np.where(
                    closed, q[:, -1] / _row_sums(q[:, :-1]), 0.0
                )
                status[np.flatnonzero(need)[~closed]] = 2.0
    unsolved = (status == 1.0) | (status == 3.0)
    for value in (lam, mu, p_up, p_down):
        value[unsolved] = 0.0
    return pis, lam, mu, status, p_up, p_down
