"""Structure-exploiting steady-state solvers for large chains.

The dense solvers in :mod:`repro.ctmc.steady_state` are O(n^3) time and
O(n^2) memory per sample — fine for the paper's 5-6 state models,
hopeless for the generalized N-instance AS model (3N - 1 states) or for
SPN reachability graphs with 10^4-10^5 tangible markings.  This module
provides the two structure-exploiting paths such models go through:

* **Banded GTH** — the generalized AS model (and every birth-death-like
  availability chain) has a *banded* generator: all transitions connect
  states within a few indices of each other, except the global repair
  arc back into the all-up state (``N_Down -> All_Work``), which lands
  in column 0.  GTH elimination preserves that shape: eliminating state
  ``k`` adds fill only at ``(i, j)`` with ``i in [k-u, k)`` and
  ``j in [k-l, k)`` — offsets that stay inside the ``(l, u)`` band — and
  at ``(i, 0)``, which stays in column 0.  So the whole subtraction-free
  elimination runs on a band of width ``l + u + 1`` plus one spike
  column: O(n b^2) per sample instead of O(n^3).  This module detects
  the shape (:func:`detect_banded_structure`) and holds the interpreted
  reference elimination (:func:`gth_banded_batch`); scalar and batch
  solves both run it through :mod:`repro.kernels.banded`.

* **Sparse LU with symbolic-pattern reuse** — the augmented system
  ``A x = e_n`` (``A = Q^T`` with the last row replaced by ones) has a
  sparsity pattern that depends only on the model's transition topology,
  not on the sampled rates.  :class:`CsrPattern` computes the CSR
  symbolic structure (indices, indptr, and a scatter map from transition
  rates to data slots) exactly once per compiled model; each sample then
  only fills the data array and factorizes with ``splu``.  A sample
  whose factorization fails or yields no probability vector raises
  :class:`~repro.exceptions.SolverError`.  The sparse engine's MTTF
  comes from the same kind of solve over the up block
  (:class:`SparseUpBlockSolver`); the dense and banded engines read it
  off a renewal closure instead
  (:class:`repro.ctmc.rewards.RenewalClosure`).

Both paths are exercised against the dense GTH kernel by the property
tests in ``tests/ctmc/test_sparse.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import SolverError

#: Widest (lower + upper + 1) band the banded eliminator accepts; beyond
#: this the O(n b^2) cost loses to the general sparse path anyway.
MAX_BANDWIDTH = 16

#: Banded chains this large take the banded solve under ``method="auto"``,
#: scalar and batch alike.  Table 3's largest AS submodel has 29 states, so
#: every paper model stays dense and keeps its scalar-vs-batch bit parity.
BANDED_MIN_STATES = 32


@dataclass(frozen=True)
class BandedStructure:
    """Symbolic banded-plus-spike shape of a model's generator.

    Attributes:
        n: Number of states.
        lower: Lower bandwidth ``l`` (max of ``source - target`` over
            non-spike transitions).
        upper: Upper bandwidth ``u`` (max of ``target - source``).
        band_slots: Per-transition flat index into the ``(n, l+u+1)``
            band storage, or -1 for spike (column-0) transitions.
        spike_rows: Per-transition source row for spike transitions, or
            -1 for banded ones.
    """

    n: int
    lower: int
    upper: int
    band_slots: np.ndarray = field(repr=False)
    spike_rows: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return self.lower + self.upper + 1


def detect_banded_structure(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    max_bandwidth: int = MAX_BANDWIDTH,
) -> Optional[BandedStructure]:
    """Detect a banded-plus-spike generator shape, or return ``None``.

    Transitions entering state 0 (the conventional all-up state) are
    exempt from the band check — they form the spike column that GTH
    elimination keeps isolated.  Everything else must fit in a band of
    total width ``<= max_bandwidth``.
    """
    if n < 3 or sources.size == 0:
        return None
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    spike = targets == 0
    banded = ~spike
    if not banded.any():
        return None
    offsets = sources[banded] - targets[banded]
    lower = int(max(offsets.max(), 1))
    upper = int(max(-offsets.min(), 1))
    width = lower + upper + 1
    if width > max_bandwidth:
        return None
    band_slots = np.full(sources.shape, -1, dtype=np.intp)
    band_slots[banded] = (
        targets[banded] * width + upper + sources[banded] - targets[banded]
    )
    spike_rows = np.where(spike, sources, -1).astype(np.intp)
    return BandedStructure(
        n=n,
        lower=lower,
        upper=upper,
        band_slots=band_slots,
        spike_rows=spike_rows,
    )


def gth_banded_batch(
    structure: BandedStructure, rates: np.ndarray
) -> np.ndarray:
    """Batched GTH elimination on a banded-plus-spike generator.

    Args:
        structure: Output of :func:`detect_banded_structure` for the
            model whose transitions produced ``rates``.
        rates: ``(n_samples, n_transitions)`` non-negative rate matrix.

    Returns:
        ``(n_samples, n)`` stationary vectors (non-negative by
        construction; normalized).

    Raises:
        SolverError: When elimination hits a state with no flow back
            into the remaining block (the chain is reducible for some
            sample).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim == 1:
        rates = rates[None, :]
    k_samples = rates.shape[0]
    n, w, u, l = (
        structure.n,
        structure.width,
        structure.upper,
        structure.lower,
    )
    # Band storage: entry a[i, j] lives at flat slot j*w + u + (i - j);
    # column j's above-diagonal entries are then contiguous.  The spike
    # column S holds every a[i, 0].
    band = np.zeros((k_samples, n * w))
    spike = np.zeros((k_samples, n))
    in_band = structure.band_slots >= 0
    if in_band.any():
        np.add.at(
            band,
            (slice(None), structure.band_slots[in_band]),
            rates[:, in_band],
        )
    if (~in_band).any():
        np.add.at(
            spike,
            (slice(None), structure.spike_rows[~in_band]),
            rates[:, ~in_band],
        )
    band3 = band.reshape(k_samples, n, w)

    for k in range(n - 1, 0, -1):
        lo_row = max(1, k - l)  # banded columns of row k (j < k)
        lo_col = max(0, k - u)  # rows of column k above the diagonal
        # Row k entries a[k, j] at flat slots j*w + u + k - j.
        j_arr = np.arange(lo_row, k)
        row = band[:, u + k + (w - 1) * j_arr] if j_arr.size else None
        total = spike[:, k].copy()
        if row is not None:
            total += row.sum(axis=1)
        if (total <= 0.0).any():
            raise SolverError(
                "GTH elimination failed: no transition from eliminated "
                "state back into the remaining block (reducible chain?)"
            )
        col = band3[:, k, u - (k - lo_col): u]  # view: a[lo_col:k, k]
        col /= total[:, None]
        if row is not None and col.size:
            # a[i, j] += a[i, k] * a[k, j]; the (i, j) pairs are unique,
            # so fancy-indexed += is safe.
            i_arr = np.arange(lo_col, k)
            tgt = (u + i_arr)[:, None] + ((w - 1) * j_arr)[None, :]
            band[:, tgt] += col[:, :, None] * row[:, None, :]
        # Spike column: a[i, 0] += a[i, k] * a[k, 0].
        if col.size:
            spike[:, lo_col:k] += col * spike[:, k][:, None]

    pis = np.zeros((k_samples, n))
    pis[:, 0] = 1.0
    for k in range(1, n):
        lo_col = max(0, k - u)
        col = band3[:, k, u - (k - lo_col): u]
        if col.size:
            pis[:, k] = (pis[:, lo_col:k] * col).sum(axis=1)
    sums = pis.sum(axis=1)
    if not np.isfinite(sums).all() or (sums <= 0.0).any():
        raise SolverError(
            "banded GTH elimination produced a non-normalizable vector"
        )
    pis /= sums[:, None]
    return pis


# Symbolic CSR patterns ------------------------------------------------------


class CsrPattern:
    """A CSR sparsity pattern with a per-sample rate scatter map.

    The pattern is built once from symbolic ``(row, col)`` coordinate
    lists; :meth:`assemble` then produces a CSR matrix for one sample by
    scattering its transition rates into the fixed data layout —
    entries at ``plus`` coordinates accumulate ``+rate``, entries at
    ``minus`` coordinates accumulate ``-rate`` (the diagonal's exit
    rates), and ``const`` coordinates hold fixed values (the
    normalization row of ones).
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        plus: Tuple[np.ndarray, np.ndarray, np.ndarray],
        minus: Tuple[np.ndarray, np.ndarray, np.ndarray],
        const: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        n_rows, n_cols = shape
        self.shape = shape
        rows = [np.asarray(plus[0], np.intp), np.asarray(minus[0], np.intp)]
        cols = [np.asarray(plus[1], np.intp), np.asarray(minus[1], np.intp)]
        if const is not None:
            rows.append(np.asarray(const[0], np.intp))
            cols.append(np.asarray(const[1], np.intp))
        all_rows = np.concatenate(rows)
        all_cols = np.concatenate(cols)
        keys = all_rows * n_cols + all_cols
        unique, inverse = np.unique(keys, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        self.nnz = unique.size
        self.indices = (unique % n_cols).astype(np.int32)
        self.indptr = np.searchsorted(
            unique // n_cols, np.arange(n_rows + 1), side="left"
        ).astype(np.int32)
        np_, nm_ = plus[0].size, minus[0].size
        self._plus_slots = inverse[:np_]
        self._plus_take = np.asarray(plus[2], np.intp)
        self._minus_slots = inverse[np_: np_ + nm_]
        self._minus_take = np.asarray(minus[2], np.intp)
        if const is not None:
            self._const_slots = inverse[np_ + nm_:]
            self._const_vals = np.asarray(const[2], dtype=float)
        else:
            self._const_slots = np.empty(0, np.intp)
            self._const_vals = np.empty(0, float)

    def assemble(self, rates_row: np.ndarray) -> "scipy.sparse.csr_matrix":
        """CSR matrix for one sample's transition rates."""
        import scipy.sparse as sp

        data = np.zeros(self.nnz)
        if self._const_slots.size:
            data[self._const_slots] = self._const_vals
        if self._plus_slots.size:
            np.add.at(data, self._plus_slots, rates_row[self._plus_take])
        if self._minus_slots.size:
            np.add.at(data, self._minus_slots, -rates_row[self._minus_take])
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=self.shape
        )


class SparseSteadyStateSolver:
    """Steady-state solves through one reusable symbolic CSR pattern.

    Solves ``pi Q = 0, sum(pi) = 1`` as the augmented system
    ``A pi = e_{n-1}`` with ``A = Q^T`` and the last row replaced by
    ones.  The pattern (and the transition-to-slot scatter maps) are
    computed once; each sample costs one data fill plus one ``splu``
    factorization, whose vector must pass the probability-vector check.
    """

    def __init__(
        self, n: int, sources: np.ndarray, targets: np.ndarray
    ) -> None:
        self.n = n
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        keep = targets != n - 1  # the ones row replaces row n-1 of Q^T
        diag = sources != n - 1
        self._pattern = CsrPattern(
            shape=(n, n),
            plus=(targets[keep], sources[keep], np.flatnonzero(keep)),
            minus=(sources[diag], sources[diag], np.flatnonzero(diag)),
            const=(
                np.full(n, n - 1, dtype=np.intp),
                np.arange(n, dtype=np.intp),
                np.ones(n),
            ),
        )
        self._rhs = np.zeros(n)
        self._rhs[n - 1] = 1.0

    def solve(self, rates_row: np.ndarray) -> np.ndarray:
        """Stationary vector for one sample.

        Raises:
            SolverError: When the factorization fails or its vector is
                not a probability vector.
        """
        from scipy.sparse.linalg import splu

        a = self._pattern.assemble(rates_row)
        try:
            x = splu(a.tocsc()).solve(self._rhs)
        except (RuntimeError, ValueError) as exc:
            raise SolverError(
                f"sparse steady-state solve failed: {exc}"
            ) from exc
        pi = self._valid(x)
        if pi is None:
            raise SolverError(
                "sparse steady-state solve produced an invalid "
                "probability vector"
            )
        obs.counter("ctmc_sparse_solves_total").inc()
        return pi

    def _valid(self, pi: np.ndarray) -> Optional[np.ndarray]:
        pi = np.asarray(pi, dtype=float).ravel()
        if (
            pi.shape == (self.n,)
            and np.isfinite(pi).all()
            and pi.min() >= -1e-8
            and abs(pi.sum() - 1.0) <= 1e-6
        ):
            return pi
        return None


class SparseUpBlockSolver:
    """Sparse MTTA solves over the up block, pattern reused per sample.

    Solves ``Q_UU m = -1`` (down states absorbing) and returns the mean
    hitting time from the initial state — the quantity the MTTF
    abstraction inverts.  The up-block pattern is symbolic: ``+rate`` at
    up->up transitions, ``-rate`` on the diagonal for *every* transition
    leaving an up state (including those into the down set).
    """

    def __init__(
        self,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        up_idx: np.ndarray,
    ) -> None:
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        up_mask = np.zeros(n, dtype=bool)
        up_mask[up_idx] = True
        position = np.full(n, -1, dtype=np.intp)
        position[up_idx] = np.arange(up_idx.size)
        uu = up_mask[sources] & up_mask[targets]
        leaving = up_mask[sources]
        self.n_up = int(up_idx.size)
        self._pattern = CsrPattern(
            shape=(self.n_up, self.n_up),
            plus=(
                position[sources[uu]],
                position[targets[uu]],
                np.flatnonzero(uu),
            ),
            minus=(
                position[sources[leaving]],
                position[sources[leaving]],
                np.flatnonzero(leaving),
            ),
        )
        self._rhs = -np.ones(self.n_up)

    def mtta_initial(self, rates_row: np.ndarray) -> Optional[float]:
        """Mean time from state 0 into the down set, or ``None`` on
        failure (the caller falls back to the flow abstraction)."""
        from scipy.sparse.linalg import splu

        a = self._pattern.assemble(rates_row)
        try:
            m = splu(a.tocsc()).solve(self._rhs)
        except (RuntimeError, ValueError):
            return None
        m = np.asarray(m, dtype=float).ravel()
        if not np.isfinite(m).all() or m.min() < 0.0:
            return None
        # The initial state (canonical index 0) is the first up state.
        return float(m[0])


# Scalar-path adapters -------------------------------------------------------


def _generator_coo(generator) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Off-diagonal (sources, targets, rates) of a bound generator."""
    if generator.is_sparse:
        coo = generator.matrix.tocoo()
        mask = (coo.row != coo.col) & (coo.data != 0.0)
        return (
            coo.row[mask].astype(np.intp),
            coo.col[mask].astype(np.intp),
            np.asarray(coo.data[mask], dtype=float),
        )
    dense = generator.dense()
    np.fill_diagonal(dense, 0.0)
    src, tgt = np.nonzero(dense)
    return src.astype(np.intp), tgt.astype(np.intp), dense[src, tgt]


def generator_banded_structure(generator) -> Optional[BandedStructure]:
    """Banded-structure detection for a bound generator (or ``None``)."""
    src, tgt, _ = _generator_coo(generator)
    return detect_banded_structure(generator.n_states, src, tgt)
