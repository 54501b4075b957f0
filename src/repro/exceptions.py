"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` on a wrong argument type,
for example) surface normally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A Markov model is structurally invalid.

    Raised for problems such as duplicate state names, transitions that
    reference unknown states, self-loops, or non-positive rates.
    """


class ExpressionError(ModelError):
    """A symbolic rate expression could not be parsed or evaluated."""


class ParameterError(ModelError):
    """A parameter is missing, duplicated, or has an invalid value."""


class SolverError(ReproError):
    """A numerical solution failed (singular system, non-convergence...)."""


class StructureError(SolverError):
    """The chain's structure does not admit the requested analysis.

    For example asking for the steady-state distribution of a reducible
    chain, or the mean time to absorption of a chain with no absorbing
    states reachable.
    """


class EstimationError(ReproError):
    """A statistical estimation routine received invalid inputs."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class TestbedError(SimulationError):
    """The simulated measurement testbed was driven in an invalid way."""

    # Not a pytest test class, despite the domain-accurate name.
    __test__ = False


class PetriNetError(ModelError):
    """A stochastic Petri net is invalid or its reachability set exploded."""


class SelfModelError(ReproError):
    """The measurement -> model -> prediction loop got invalid inputs.

    Raised by :mod:`repro.selfmodel` for problems such as a topology
    that cannot be modeled (quorum larger than the shard count), a
    measurement report missing the phase samples a fit needs, or a
    prediction artifact that does not carry the fitted rates.
    """


class ArtifactError(ReproError):
    """A report artifact could not be loaded.

    Raised by :func:`repro.artifacts.load` for an unreadable file,
    invalid JSON, a document that is not a JSON object, an unexpected
    ``"kind"``, or a ``"schema"`` this library neither reads nor can
    upgrade.  The message names the source.
    """


class ParallelError(ReproError):
    """The fork fan-out failed (bad ``n_jobs``, a worker died, or a
    worker raised an exception that cannot be pickled)."""
