"""Deduplicated, vectorized rate-expression programs.

The generalized models repeat rate expressions heavily: the N=256 AS
model has 2,295 transitions but only ~265 distinct rate expressions
(every ``Repair`` arc shares one source string, and so on).  The
original compiled path evaluated all 2,295 sub-expressions per batch;
a :class:`RateProgram` evaluates each *distinct* source exactly once
and scatters the shared value into every owning column.

Bit-parity with the interpreted per-transition path is structural, not
numerical luck: two transitions with byte-identical source strings
compile to the same AST and therefore produce the same IEEE-754 result
for the same inputs, so writing one evaluation into both columns is
exactly what evaluating twice would have produced.  The property tests
in ``tests/kernels/test_program.py`` enforce this across the paper's
configurations.

An *arithmetic* program (every name a parameter or ``__rate_pow__``)
also runs on one sample of Python floats
(:meth:`RateProgram.evaluate_point`): its operators are correctly
rounded IEEE-754 primitives on floats and arrays alike, so the rates
carry the bits the vectorized evaluation writes, with no NumPy call.
"""

from __future__ import annotations

import ast
import math
import operator
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.expressions import _POW_NAME, _rate_pow, rewrite_power_nodes

__all__ = ["RateProgram"]

#: Globals of a float evaluation: no builtins, the backend-independent
#: power helper and nothing else.
_POINT_NAMESPACE = {"__builtins__": {}, _POW_NAME: _rate_pow}


def _compile_tuple(sources: Tuple[str, ...]):
    """Compile expression sources into one tuple-valued code object.

    Pow nodes get the same ``__rate_pow__`` rewrite as the scalar
    path (:func:`repro.core.expressions.rewrite_power_nodes`), so both
    engines run the identical operation sequence for ``a ** b``.
    """
    elements = []
    for source in sources:
        tree = rewrite_power_nodes(ast.parse(source, mode="eval"))
        elements.append(tree.body)
    program = ast.Expression(ast.Tuple(elts=elements, ctx=ast.Load()))
    ast.fix_missing_locations(program)
    return compile(program, "<compiled-rates>", "eval")


class RateProgram:
    """One model's rate expressions, deduplicated and vectorized.

    Attributes:
        sources: The per-transition expression sources, in transition
            order (length ``n_outputs``).
        unique_sources: Distinct sources in first-seen order.
        column_of: ``(n_outputs,)`` map from output column to its index
            in ``unique_sources``.
    """

    __slots__ = (
        "sources",
        "unique_sources",
        "column_of",
        "n_outputs",
        "n_unique",
        "_code",
        "_identity",
        "_gather",
    )

    def __init__(self, sources: Tuple[str, ...]) -> None:
        self.sources = tuple(sources)
        self.n_outputs = len(self.sources)
        seen: Dict[str, int] = {}
        column_of = np.empty(self.n_outputs, dtype=np.intp)
        for j, source in enumerate(self.sources):
            column_of[j] = seen.setdefault(source, len(seen))
        self.unique_sources: Tuple[str, ...] = tuple(seen)
        self.column_of = column_of
        self.n_unique = len(self.unique_sources)
        self._code = _compile_tuple(self.unique_sources)
        # No duplicates at all: the gather degenerates to a straight copy.
        self._identity = self.n_unique == self.n_outputs
        # The same gather over a tuple of floats, for evaluate_point.
        self._gather = (
            None if self._identity
            else operator.itemgetter(*map(int, column_of))
        )

    def is_arithmetic(self, parameters: FrozenSet[str]) -> bool:
        """Whether every name the program reads is in ``parameters`` or
        is ``__rate_pow__`` (no function or constant of the whitelist),
        so :meth:`evaluate_point` may run it."""
        return set(self._code.co_names) <= parameters | {_POW_NAME}

    def evaluate_point(
        self, values: Dict[str, float]
    ) -> Optional[Sequence[float]]:
        """Every transition rate of one sample of Python floats.

        Only for an arithmetic program (:meth:`is_arithmetic`); its
        rates are then the bits :meth:`evaluate` writes for the same
        values.  Returns ``None`` when the program raises an arithmetic
        error or a rate is not a finite, positive float: those samples
        belong to the vectorized path, which raises the authentic error
        or classifies the zero pattern.
        """
        try:
            results = eval(  # noqa: S307 - validated arithmetic subset
                self._code, _POINT_NAMESPACE, values
            )
        except (ArithmeticError, ValueError):
            return None
        for rate in results:
            if rate.__class__ is not float or not 0.0 < rate < math.inf:
                return None
        return results if self._gather is None else self._gather(results)

    def evaluate(
        self,
        columns: Mapping[str, object],
        n_samples: int,
        namespace: Mapping[str, object],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every transition rate for every sample.

        Args:
            columns: Parameter columns — Python floats broadcast, and
                ``(n_samples,)`` arrays supply one value per sample.
            n_samples: Number of samples (rows of the result).
            namespace: Global namespace for the program (the whitelisted
                NumPy functions from
                :func:`repro.core.expressions.vector_namespace`).
            out: Optional ``(n_samples, n_outputs)`` destination.

        Returns:
            ``(n_samples, n_outputs)`` array of rates (not validated —
            the caller owns finiteness/sign checks and error reporting).

        Raises:
            ZeroDivisionError: From a scalar-only division by zero, as
                the interpreted path would; the caller maps this to the
                authentic per-expression error.
        """
        if out is None:
            out = np.empty((n_samples, self.n_outputs), dtype=float)
        if not self.n_outputs:
            return out
        results = eval(  # noqa: S307 - validated arithmetic subset
            self._code, namespace, dict(columns)
        )
        if self._identity:
            for j, value in enumerate(results):
                out[:, j] = value
            return out
        # One strided write per distinct expression, then a single
        # gather into transition order.  (The earlier per-expression
        # fancy scatter — ``out[:, cols] = value[:, None]`` — was the
        # hot spot for wide models: hundreds of broadcasting fancy
        # writes per batch.)  Same bits: each output column receives
        # an untouched copy of its owning expression's value.
        unique = np.empty((n_samples, self.n_unique))
        for u, value in enumerate(results):
            unique[:, u] = value
        np.take(unique, self.column_of, axis=1, out=out)
        return out
