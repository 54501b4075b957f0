"""Banded-plus-spike steady-state kernels.

The interpreted reference (:func:`repro.ctmc.sparse.gth_banded_batch`)
is a Python loop over states — O(n) interpreter iterations per batch.
This module runs the same solve, for the batch engine and for scalar
``steady_state_vector`` alike, on one of two paths, chosen by the host
(:func:`repro.kernels.backend_name` reports which):

* **cext** — the C GTH elimination from :mod:`repro.kernels.cext`,
  assembled through the same precomputed scatter maps.  Used whenever
  the host can build and load it; the fastest path at every size from
  100 samples up, and within ~3e-15 relative of dense GTH.
* **numpy** — reformulate ``pi Q = 0, sum(pi) = 1`` as one banded linear
  system and solve the *whole batch* with a single LAPACK ``dgbsv``
  call.  Setting ``pi_0 = 1`` and dropping column 0 of ``Q`` leaves the
  equations ``sum_i pi_i Q[i, j] = 0`` for ``j = 1..n-1`` over the
  unknowns ``pi_1..pi_{n-1}``: a banded system with ``kl = upper`` and
  ``ku = lower`` bandwidths (the spike column 0 drops out entirely).
  Stacking all k samples block-diagonally keeps the same bandwidths, and
  partial pivoting cannot cross block boundaries (every cross-block
  candidate entry is structurally zero, and a zero multiplier row update
  is an exact IEEE no-op), so **per-sample results are bit-independent
  of how the batch is chunked** — the property that lets the service's
  MicroBatcher coalesce requests into one batch without moving any
  answer.  Used when the host has no C compiler, or once a C build or
  load has failed in this process.

All assembly goes through precomputed gather/segment-sum maps
(:class:`_ScatterMap`) instead of ``np.add.at`` or sparse matmuls — the
single biggest win for wide models, where the fancy-indexed scatter and
later the CSC multiply (plus its contiguity copy) dominated the
profile.  The maps sum contributions in CSC order (slot-major, then
transition index), so results are bit-identical to the sparse-matrix
assembly they replaced.

Failures degrade, never corrupt: samples the LAPACK solve cannot handle
are re-solved individually (bit-identical to their batched solve — see
above) and then, if still invalid, by the subtraction-free GTH
reference; a C build or load failure moves the process to the LAPACK
path for good.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.ctmc.sparse import BandedStructure, gth_banded_batch
from repro.exceptions import SolverError

__all__ = ["BandedKernelPlan", "banded_kernel_plan", "banded_steady_state"]

#: Validation tolerance for a kernel-produced vector (matches the
#: structured-engine check in :mod:`repro.ctmc.batch`).
_NEG_TOL = -1e-8


class _ScatterMap:
    """``rates @ sparse_map`` as a gather plus segment sum.

    Equivalent to multiplying the ``(k, n_transitions)`` rate matrix by
    a ±1-valued sparse scatter matrix, but without the sparse-matmul
    dispatch, the intermediate, or the C-contiguity copy the solvers
    needed afterwards.  Entries are pre-sorted by output slot (ties
    broken by transition index — CSC summation order, so swapping the
    backing store changed no bits), and slots with a single contributor
    — the overwhelmingly common case — take a pure fancy-assignment
    fast path.
    """

    __slots__ = (
        "gather_cols", "signs", "starts", "slots", "all_slots", "n_out",
    )

    def __init__(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        data: np.ndarray,
        n_out: int,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=float)
        order = np.lexsort((rows, slots))
        self.gather_cols = np.ascontiguousarray(rows[order])
        signs = np.ascontiguousarray(data[order])
        self.signs = None if bool(np.all(signs == 1.0)) else signs
        sorted_slots = np.ascontiguousarray(slots[order])
        if sorted_slots.size:
            starts = np.flatnonzero(np.r_[True, np.diff(sorted_slots) > 0])
        else:
            starts = np.empty(0, dtype=np.intp)
        self.starts = starts
        self.slots = sorted_slots[starts]
        self.all_slots = sorted_slots
        self.n_out = int(n_out)

    def apply(self, rates: np.ndarray) -> np.ndarray:
        """C-contiguous ``(k, n_out)`` assembly of the mapped slots."""
        out = np.zeros((rates.shape[0], self.n_out))
        if not self.gather_cols.size:
            return out
        gathered = rates[:, self.gather_cols]
        if self.signs is not None:
            gathered *= self.signs
        if self.starts.size == self.gather_cols.size:
            out[:, self.slots] = gathered
        else:
            out[:, self.slots] = np.add.reduceat(
                gathered, self.starts, axis=1
            )
        return out

    def apply_cext(self, rates: np.ndarray, cext) -> np.ndarray:
        """Same assembly through the C scatter loop (bit-identical)."""
        out = np.empty((rates.shape[0], self.n_out))
        cext.scatter_rows(
            rates, self.gather_cols, self.all_slots, self.signs, out
        )
        return out


class BandedKernelPlan:
    """Precomputed scatter maps for one model's banded solves.

    Built from a transition list: once per compiled model for batch
    solves (cached in ``solver_cache``), once per call from the
    generator's arcs for scalar ones.  Holds :class:`_ScatterMap`
    gathers taking the ``(k, n_transitions)`` rate matrix straight to
    the LAPACK band storage / GTH band-plus-spike storage.  Each pair
    of maps is built on first use, so a plan builds only the pair of the
    path its host takes.
    """

    __slots__ = (
        "structure", "n", "nm", "kl", "ku", "wtot", "_arcs",
        "_lapack_maps", "_gth_maps",
    )

    def __init__(
        self,
        structure: BandedStructure,
        sources: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        self.structure = structure
        n = structure.n
        self.n = n
        self.nm = n - 1
        # pi Q = 0 transposed: kl/ku swap relative to Q's bandwidths.
        self.kl = structure.upper
        self.ku = structure.lower
        self.wtot = 2 * self.kl + self.ku + 1
        self._arcs = (
            np.asarray(sources, dtype=np.intp),
            np.asarray(targets, dtype=np.intp),
        )
        self._lapack_maps: Optional[Tuple[_ScatterMap, _ScatterMap]] = None
        self._gth_maps: Optional[Tuple[_ScatterMap, _ScatterMap]] = None

    def lapack_maps(self) -> Tuple[_ScatterMap, _ScatterMap]:
        """``(ab_map, rhs_map)`` for the LAPACK path, built on first use."""
        if self._lapack_maps is None:
            self._lapack_maps = self._build_lapack(*self._arcs)
        return self._lapack_maps

    def gth_maps(self) -> Tuple[_ScatterMap, _ScatterMap]:
        """``(band_map, spike_map)`` for the C path, built on first use."""
        if self._gth_maps is None:
            self._gth_maps = self._build_gth()
        return self._gth_maps

    def _build_lapack(
        self, s: np.ndarray, g: np.ndarray
    ) -> Tuple[_ScatterMap, _ScatterMap]:
        t = np.arange(s.size, dtype=np.intp)
        # LAPACK band storage for M[r, c] = Q[c+1, r+1] (flat C-order
        # (nm, wtot); its transpose is the F-order (wtot, nm) dgbsv
        # input).  M[r, c] lives at c*wtot + kl + ku + r - c.
        off = (s >= 1) & (g >= 1)            # Q[s, g] -> M[g-1, s-1]
        diag = s >= 1                        # exit rates -> M[s-1, s-1]
        slot_off = (s[off] - 1) * self.wtot + self.kl + self.ku + g[off] - s[off]
        slot_diag = (s[diag] - 1) * self.wtot + self.kl + self.ku
        rows = np.concatenate([t[off], t[diag]])
        cols = np.concatenate([slot_off, slot_diag])
        data = np.concatenate(
            [np.ones(slot_off.size), -np.ones(slot_diag.size)]
        )
        ab_map = _ScatterMap(rows, cols, data, self.nm * self.wtot)

        # Known terms: rhs[r] = -Q[0, r+1].
        init = s == 0
        rhs_map = _ScatterMap(
            t[init], g[init] - 1, -np.ones(int(init.sum())), self.nm
        )
        return ab_map, rhs_map

    def _build_gth(self) -> Tuple[_ScatterMap, _ScatterMap]:
        # GTH band-plus-spike storage for the C eliminator (same layout
        # as gth_banded_batch).
        structure = self.structure
        t = np.arange(self._arcs[0].size, dtype=np.intp)
        in_band = structure.band_slots >= 0
        band_map = _ScatterMap(
            t[in_band],
            structure.band_slots[in_band],
            np.ones(int(in_band.sum())),
            self.n * structure.width,
        )
        spike_map = _ScatterMap(
            t[~in_band],
            structure.spike_rows[~in_band],
            np.ones(int((~in_band).sum())),
            self.n,
        )
        return band_map, spike_map


def banded_kernel_plan(compiled) -> BandedKernelPlan:
    """The model's (cached) banded kernel plan."""
    cache = compiled.solver_cache
    plan = cache.get("banded_kernel_plan")
    if plan is None:
        structure = cache.get("banded")
        assert structure is not None, "banded structure must be detected first"
        plan = BandedKernelPlan(
            structure,
            compiled.transition_sources,
            compiled.transition_targets,
        )
        cache["banded_kernel_plan"] = plan
    return plan


# LAPACK path ----------------------------------------------------------------


def _dgbsv_block(plan: BandedKernelPlan, ab_flat: np.ndarray,
                 rhs_flat: np.ndarray) -> Optional[np.ndarray]:
    """One block-diagonal ``dgbsv`` solve; ``None`` on a zero pivot.

    ``ab_flat`` is the C-order ``(blocks*nm, wtot)`` band storage (its
    transpose is the F-order LAPACK input) and is overwritten.
    """
    from scipy.linalg.lapack import dgbsv

    _, _, x, info = dgbsv(
        plan.kl, plan.ku, ab_flat.T, rhs_flat,
        overwrite_ab=1, overwrite_b=1,
    )
    if info != 0:
        return None
    return np.asarray(x, dtype=float)


def _solve_numpy(plan: BandedKernelPlan, rates: np.ndarray) -> np.ndarray:
    k = rates.shape[0]
    nm, wtot, n = plan.nm, plan.wtot, plan.n
    ab_map, rhs_map = plan.lapack_maps()
    ab = ab_map.apply(rates)    # (k, nm*wtot), C-contiguous
    rhs = rhs_map.apply(rates)  # (k, nm)
    pis = np.empty((k, n))
    pis[:, 0] = 1.0
    # dgbsv overwrites both inputs; ab/rhs are scratch from here on.
    x = _dgbsv_block(plan, ab.reshape(k * nm, wtot), rhs.reshape(k * nm))
    if x is not None:
        pis[:, 1:] = x.reshape(k, nm)
    else:
        # A zero pivot somewhere in the batch: re-assemble and re-solve
        # each sample alone.  A sample's solo solve is bit-identical to
        # its batched solve (pivoting cannot cross blocks), so which
        # samples share a call never changes any result.
        obs.counter("kernels_banded_pivot_fallbacks_total").inc()
        for i in range(k):
            row = rates[i: i + 1]
            ab_i = ab_map.apply(row).reshape(nm, wtot)
            rhs_i = rhs_map.apply(row).reshape(nm)
            x_i = _dgbsv_block(plan, ab_i, rhs_i)
            if x_i is not None:
                pis[i, 1:] = x_i
            else:
                pis[i, 1:] = np.nan  # caught by validation below
    sums = pis.sum(axis=1)
    ok = (
        np.isfinite(pis).all(axis=1)
        & (pis.min(axis=1) >= _NEG_TOL * np.abs(sums))
        & (sums > 0.0)
    )
    bad = np.flatnonzero(~ok)
    if bad.size:
        # Per-sample GTH re-solve: subtraction-free, so it either
        # produces a valid vector or raises the reducible-chain error
        # the interpreted engine would have raised.  Per-sample, so the
        # fallback decision is also chunking-independent.
        obs.counter("kernels_banded_gth_fallbacks_total").inc(int(bad.size))
        for i in bad:
            pis[i] = gth_banded_batch(plan.structure, rates[i])[0]
        sums = pis.sum(axis=1)
    return pis / sums[:, None]


# C path ---------------------------------------------------------------------


def _solve_cext(plan: BandedKernelPlan, rates: np.ndarray) -> Optional[np.ndarray]:
    from repro.kernels import cext

    if cext.load() is None:
        return None
    st = plan.structure
    k = rates.shape[0]
    rates = np.ascontiguousarray(rates)
    band_map, spike_map = plan.gth_maps()
    band = band_map.apply_cext(rates, cext)
    spike = spike_map.apply_cext(rates, cext)
    pis = np.empty((k, st.n))
    status = cext.gth_banded(
        band, spike, pis, k, st.n, st.width, st.upper, st.lower
    )
    if status > 0:
        raise SolverError(
            "GTH elimination failed: no transition from eliminated "
            "state back into the remaining block (reducible chain?) "
            f"(sample {status - 1})"
        )
    if status < 0:
        raise SolverError(
            "banded GTH elimination produced a non-normalizable vector "
            f"(sample {-status - 1})"
        )
    return pis


# Dispatch -------------------------------------------------------------------


def banded_steady_state(
    plan: BandedKernelPlan, rates: np.ndarray
) -> np.ndarray:
    """Stationary vectors through the C kernel, or LAPACK without one.

    The one banded solve behind both the batch engine (whose plan comes
    cached from :func:`banded_kernel_plan`) and scalar
    ``steady_state_vector`` (whose plan is built from the generator's
    arcs).

    Args:
        plan: The model's :class:`BandedKernelPlan`.
        rates: ``(k, n_transitions)`` non-negative rate matrix, columns
            in the order of the arcs the plan was built from.

    Returns:
        ``(k, n)`` normalized stationary vectors.

    Raises:
        SolverError: On a reducible / non-normalizable sample, matching
            the interpreted engine's behavior.
    """
    pis = _solve_cext(plan, rates)
    return pis if pis is not None else _solve_numpy(plan, rates)
