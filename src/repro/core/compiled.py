"""Compile-once / evaluate-many form of a :class:`MarkovModel`.

The scalar pipeline re-does a lot of interpreter work on every solve:
``build_generator`` re-validates the model, evaluates each symbolic rate
with a per-transition ``eval`` and re-assembles the matrix; the solver
then re-classifies the state space.  For repeated-solve workloads (the
paper's 1,000-snapshot uncertainty runs, parametric sweeps, configuration
comparisons) that interpreter overhead dominates the actual linear
algebra.

:class:`CompiledModel` performs the per-model work exactly once:

* structural validation (memoized via :meth:`MarkovModel.validate`),
* freezing the state ordering, reward vector and transition topology,
* compiling *all* rate expressions into one deduplicated
  :class:`~repro.kernels.program.RateProgram` evaluated in a NumPy
  namespace: each *distinct* expression source is evaluated exactly once
  per batch and scattered into every transition column that shares it,
  mapping parameter columns (scalars or ``(n_samples,)`` arrays) to an
  ``(n_samples, n_transitions)`` rate matrix in one ``eval``.

The vectorized program is bit-compatible with the scalar path for the
arithmetic subset (`+ - * / %` and friends operate on IEEE doubles in
both cases); transcendental functions may differ from ``math.*`` by an
ulp, which the batch solvers' tests account for.

Batched generator assembly and batched solvers live in
:mod:`repro.ctmc.batch`; the hierarchical batch driver lives in
:mod:`repro.hierarchy.composer`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.expressions import vector_namespace
from repro.core.model import MarkovModel
from repro.exceptions import ExpressionError, ModelError
from repro.kernels.program import RateProgram

#: A parameter column: one scalar shared by all samples, or one value
#: per sample.
ColumnLike = Union[float, int, np.ndarray]


class CompiledModel:
    """A validated, frozen, vectorized form of a :class:`MarkovModel`.

    Construction validates the model structurally (once — repeat solves
    never re-validate) and compiles every transition-rate expression into
    one shared program.  Instances are immutable snapshots: mutating the
    source model afterwards does not affect the compiled form (and
    :func:`compile_model` will transparently re-compile).

    Example::

        compiled = compile_model(model)
        rates = compiled.rate_matrix({"La": la_samples, "Mu": 2.0}, 1000)
        generators = compiled.generator_batch(rates)   # (1000, n, n)
    """

    def __init__(self, model: MarkovModel) -> None:
        model.validate()
        self.model_name = model.name
        self.source_version = model.version
        self.state_names: Tuple[str, ...] = model.state_names
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.state_names)
        }
        self.rewards = np.asarray(model.reward_vector(), dtype=float)
        self.up_mask = self.rewards > 0.0
        self.up_idx = np.flatnonzero(self.up_mask)
        self.down_idx = np.flatnonzero(~self.up_mask)
        self.transitions = model.transitions
        self.transition_sources = np.array(
            [self.index[t.source] for t in self.transitions], dtype=np.intp
        )
        self.transition_targets = np.array(
            [self.index[t.target] for t in self.transitions], dtype=np.intp
        )
        names = set()
        for t in self.transitions:
            names |= set(t.rate.variables)
        self.required_parameters = frozenset(names)
        #: The deduplicated rate program (vectorized, and on floats for
        #: one-point solves of an arithmetic model).
        self.program = RateProgram(
            tuple(t.rate.source for t in self.transitions)
        )
        self._namespace = vector_namespace()
        # Zero-pattern -> structural classification, maintained by
        # repro.ctmc.batch so reachability analysis runs once per
        # pattern, not once per sample.
        self.structure_cache: Dict[bytes, object] = {}
        # Named solver artifacts (banded structure, symbolic CSR
        # patterns, ...) cached by repro.ctmc.batch / repro.ctmc.sparse.
        self.solver_cache: Dict[str, object] = {}

    # Introspection -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledModel({self.model_name!r}, states={self.n_states}, "
            f"transitions={self.n_transitions})"
        )

    # Evaluation ----------------------------------------------------------

    def coerce_columns(
        self,
        values: Mapping[str, ColumnLike],
        n_samples: int,
    ) -> Dict[str, ColumnLike]:
        """Check and normalize a parameter-column mapping.

        Scalars stay Python floats (so expressions over non-varied
        parameters evaluate with exactly the scalar path's float
        arithmetic); arrays must be one value per sample.
        """
        missing = self.required_parameters - set(values.keys())
        if missing:
            raise ModelError(
                f"model {self.model_name!r} is missing parameter(s) "
                f"{sorted(missing)}"
            )
        columns: Dict[str, ColumnLike] = {}
        for name in self.required_parameters:
            value = values[name]
            if isinstance(value, np.ndarray):
                array = np.asarray(value, dtype=float)
                if array.ndim == 0:
                    columns[name] = float(array)
                elif array.shape == (n_samples,):
                    columns[name] = array
                else:
                    raise ModelError(
                        f"parameter column {name!r} has shape "
                        f"{array.shape}; expected ({n_samples},)"
                    )
            else:
                columns[name] = float(value)
        return columns

    def rate_matrix(
        self,
        values: Mapping[str, ColumnLike],
        n_samples: int,
    ) -> np.ndarray:
        """Evaluate every transition rate for every sample.

        Args:
            values: Parameter columns — scalars are broadcast across
                samples, arrays supply one value per sample.
            n_samples: Number of samples (rows of the result).

        Returns:
            ``(n_samples, n_transitions)`` array of rates, validated to
            be finite and non-negative (mirroring ``build_generator``).
        """
        if n_samples <= 0:
            raise ModelError(f"sample count must be positive, got {n_samples}")
        columns = self.coerce_columns(values, n_samples)
        out = np.empty((n_samples, self.n_transitions), dtype=float)
        if not self.transitions:
            return out
        try:
            with np.errstate(
                divide="ignore", invalid="ignore", over="ignore"
            ):
                self.program.evaluate(
                    columns, n_samples, self._namespace, out
                )
        except ZeroDivisionError:
            # A scalar-only sub-expression divided by zero; re-raise the
            # authentic per-expression error.
            self._raise_expression_error(columns)
        # min() is nan when any rate is: every invalid rate fails this.
        if not (out.min() >= 0.0 and out.max() < np.inf):
            self._raise_invalid_rate(out, columns)
        return out

    def generator_batch(
        self, rates: np.ndarray, allow_dense: bool = False
    ) -> np.ndarray:
        """Assemble one generator matrix per sample.

        Zero rates simply leave the corresponding entry at zero, which is
        exactly the scalar path's ``drop_zero_rates=True`` behavior.

        Models at or above :data:`repro.ctmc.generator.SPARSE_THRESHOLD`
        states refuse to materialize the dense stack (a 1,000-sample
        batch of a 10,000-state chain would need ~800 GB) unless
        ``allow_dense=True``; the batch solvers route such models through
        the banded/sparse engines in :mod:`repro.ctmc.sparse` instead.

        Returns:
            ``(n_samples, n_states, n_states)`` dense array; each slice
            has zero row sums.
        """
        from repro.ctmc.generator import SPARSE_THRESHOLD

        rates = np.asarray(rates, dtype=float)
        n_samples = rates.shape[0]
        n = self.n_states
        if n >= SPARSE_THRESHOLD and not allow_dense:
            gib = n_samples * n * n * 8 / 2**30
            raise ModelError(
                f"model {self.model_name!r} has {n} states; materializing "
                f"the dense ({n_samples}, {n}, {n}) generator stack would "
                f"need ~{gib:.1f} GiB. Use repro.ctmc.batch_steady_state / "
                "batch_availability (they route models this size through "
                "the banded/sparse engines), or pass allow_dense=True to "
                "force the dense stack."
            )
        mats = np.zeros((n_samples, n, n), dtype=float)
        if self.n_transitions:
            mats[:, self.transition_sources, self.transition_targets] = rates
            diag = np.arange(n)
            mats[:, diag, diag] = -mats.sum(axis=2)
        return mats

    # Error reporting ------------------------------------------------------

    def _sample_values(
        self, columns: Mapping[str, ColumnLike], sample: int
    ) -> Dict[str, float]:
        return {
            name: float(value[sample])
            if isinstance(value, np.ndarray)
            else float(value)
            for name, value in columns.items()
        }

    def _raise_expression_error(
        self, columns: Mapping[str, ColumnLike]
    ) -> None:
        """Find which expression fails and raise its authentic error.

        A ``ZeroDivisionError`` escaping the vectorized program can only
        come from a scalar/scalar division, which re-evaluating any one
        sample the scalar way reproduces.
        """
        values = self._sample_values(columns, 0)
        for transition in self.transitions:
            transition.rate(values)  # raises the authentic ExpressionError
        raise ExpressionError(  # pragma: no cover - defensive
            f"rate evaluation failed for model {self.model_name!r}"
        )

    def _raise_invalid_rate(
        self, rates: np.ndarray, columns: Mapping[str, ColumnLike]
    ) -> None:
        bad = ~np.isfinite(rates) | (rates < 0.0)
        sample, j = map(int, np.argwhere(bad)[0])
        transition = self.transitions[j]
        values = self._sample_values(columns, sample)
        # Re-evaluating the scalar way surfaces divide-by-zero as the
        # same ExpressionError the scalar path raises.
        rate = transition.rate(values)
        raise ModelError(
            f"transition {transition.source!r} -> {transition.target!r} "
            f"evaluates to invalid rate {rate!r} "
            f"(expression {transition.rate.source!r}) for sample {sample}"
        )


def compile_model(model: Union[MarkovModel, CompiledModel]) -> CompiledModel:
    """Compile a model, reusing a cached compilation when still valid.

    The compiled form is cached on the model instance and invalidated by
    mutation (``add_state`` / ``add_transition`` bump the model's
    version counter).  Passing an already-compiled model returns it
    unchanged.
    """
    if isinstance(model, CompiledModel):
        return model
    cached: Optional[CompiledModel] = getattr(model, "_compiled_cache", None)
    if cached is not None and cached.source_version == model.version:
        obs.counter("repro_compile_cache_total", outcome="hit").inc()
        return cached
    obs.counter("repro_compile_cache_total", outcome="miss").inc()
    with obs.span("core.compile", model=model.name) as sp:
        compiled = CompiledModel(model)
        sp.set(
            n_states=compiled.n_states,
            n_transitions=compiled.n_transitions,
            version=compiled.source_version,
        )
    model._compiled_cache = compiled
    return compiled
