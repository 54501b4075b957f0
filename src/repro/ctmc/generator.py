"""Assembly of the infinitesimal generator matrix Q.

Q is the |S| x |S| matrix with ``Q[i, j]`` (i != j) the transition rate
from state i to state j and ``Q[i, i] = -sum_j Q[i, j]`` so that rows sum
to zero.  The steady-state distribution pi solves ``pi Q = 0`` with
``sum(pi) = 1``.

The :class:`GeneratorMatrix` wrapper keeps the state ordering, the reward
vector and the source model name together with the numeric matrix, so
downstream code never has to guess which row is which state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.exceptions import ModelError, SolverError

#: Above this state count we assemble a sparse matrix by default.
SPARSE_THRESHOLD = 200


@dataclass
class GeneratorMatrix:
    """A generator matrix bound to its state ordering and rewards.

    Attributes:
        matrix: Dense ``numpy.ndarray`` or ``scipy.sparse.csr_matrix`` of
            shape (n, n) with zero row sums.
        state_names: State names in row/column order.
        rewards: Reward rate per state, same order.
        model_name: Name of the model the matrix came from.
    """

    matrix: object
    state_names: Tuple[str, ...]
    rewards: np.ndarray
    model_name: str = ""
    _index: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {name: i for i, name in enumerate(self.state_names)}
        self.rewards = np.asarray(self.rewards, dtype=float)
        n = len(self.state_names)
        if self.matrix.shape != (n, n):
            raise ModelError(
                f"generator shape {self.matrix.shape} does not match "
                f"{n} states"
            )
        if self.rewards.shape != (n,):
            raise ModelError("reward vector length does not match state count")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.matrix, np.ndarray)

    def index_of(self, name: str) -> int:
        """Row index of a state name."""
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None

    def dense(self) -> np.ndarray:
        """The generator as a dense array (copy if already dense)."""
        if self.is_sparse:
            return np.asarray(self.matrix.todense())
        return np.array(self.matrix, dtype=float, copy=True)

    def up_mask(self) -> np.ndarray:
        """Boolean vector marking reward-positive (up) states."""
        return self.rewards > 0.0

    def rate(self, source: str, target: str) -> float:
        """The numeric rate of one arc (0.0 if absent)."""
        i, j = self.index_of(source), self.index_of(target)
        if i == j:
            raise ModelError("diagonal entries are not transition rates")
        if self.is_sparse:
            return float(self.matrix[i, j])
        return float(self.matrix[i][j])

    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate per state (the negated diagonal)."""
        if self.is_sparse:
            diag = self.matrix.diagonal()
        else:
            diag = np.diag(self.matrix)
        return -np.asarray(diag, dtype=float)

    def restricted(self, names: Sequence[str]) -> "GeneratorMatrix":
        """Submatrix over a subset of states (rows/cols sliced, not re-balanced).

        Note the result's rows generally do *not* sum to zero — the mass
        flowing to removed states is simply dropped.  This is exactly what
        absorption analysis needs (the transient-part matrix).
        """
        idx = [self.index_of(name) for name in names]
        if self.is_sparse:
            sub = self.matrix[idx, :][:, idx]
        else:
            sub = self.dense()[np.ix_(idx, idx)]
        return GeneratorMatrix(
            matrix=sub,
            state_names=tuple(names),
            rewards=self.rewards[idx],
            model_name=f"{self.model_name}[restricted]",
        )


def build_generator(
    model: MarkovModel,
    values: Mapping[str, float],
    sparse: Optional[bool] = None,
    drop_zero_rates: bool = True,
) -> GeneratorMatrix:
    """Evaluate all symbolic rates and assemble the generator matrix.

    Args:
        model: The Markov reward model.
        values: Parameter values for the symbolic rates (a plain dict or a
            :class:`~repro.core.parameters.ParameterSet`).
        sparse: Force sparse/dense assembly; by default dense below
            :data:`SPARSE_THRESHOLD` states and sparse above.
        drop_zero_rates: If True (default), transitions whose rate
            evaluates to exactly 0.0 are silently omitted — this is what
            lets one model template cover parameterizations where an arc
            vanishes (e.g. FIR = 0).  Negative or non-finite rates are
            always an error.

    Returns:
        A :class:`GeneratorMatrix`.
    """
    model.validate()
    missing = model.required_parameters() - set(values)
    if missing:
        raise ModelError(
            f"model {model.name!r} is missing parameter(s) {sorted(missing)}"
        )
    names = model.state_names
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    if sparse is None:
        sparse = n >= SPARSE_THRESHOLD

    rows, cols, rates = [], [], []
    for transition in model.transitions:
        rate = transition.rate_value(values)
        if not math.isfinite(rate) or rate < 0.0:
            raise ModelError(
                f"transition {transition.source!r} -> {transition.target!r} "
                f"evaluates to invalid rate {rate!r} "
                f"(expression {transition.rate.source!r})"
            )
        if rate == 0.0:
            if drop_zero_rates:
                continue
            raise ModelError(
                f"transition {transition.source!r} -> {transition.target!r} "
                f"has zero rate and drop_zero_rates=False"
            )
        rows.append(index[transition.source])
        cols.append(index[transition.target])
        rates.append(rate)

    if sparse:
        import scipy.sparse as sp

        off = sp.coo_matrix((rates, (rows, cols)), shape=(n, n)).tocsr()
        diagonal = -np.asarray(off.sum(axis=1)).ravel()
        matrix = off + sp.diags(diagonal)
        matrix = matrix.tocsr()
    else:
        matrix = np.zeros((n, n), dtype=float)
        for i, j, r in zip(rows, cols, rates):
            matrix[i, j] += r
        np.fill_diagonal(matrix, 0.0)
        np.fill_diagonal(matrix, -matrix.sum(axis=1))

    return GeneratorMatrix(
        matrix=matrix,
        state_names=names,
        rewards=np.asarray(model.reward_vector(), dtype=float),
        model_name=model.name,
    )


def as_generator(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]],
) -> GeneratorMatrix:
    """A bound generator passes through; a model is built with ``values``.

    The one coercion behind every solver entry point that accepts either
    form.  Raises :class:`~repro.exceptions.SolverError` when a
    :class:`~repro.core.model.MarkovModel` arrives without values.
    """
    if isinstance(model_or_generator, GeneratorMatrix):
        return model_or_generator
    if values is None:
        raise SolverError(
            "parameter values are required when passing a MarkovModel"
        )
    return build_generator(model_or_generator, values)
