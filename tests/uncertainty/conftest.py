"""Shared helpers for the uncertainty tests."""

from repro.uncertainty import UncertaintyAnalysis


def scalar_reference(analysis: UncertaintyAnalysis) -> UncertaintyAnalysis:
    """A JSAS uncertainty analysis solved one snapshot at a time.

    The copy's metric is a plain callable (no ``evaluate_batch``), so
    ``run`` calls it once per snapshot, and each call rebuilds the
    configuration's hierarchy and solves it with
    :meth:`~repro.hierarchy.HierarchicalModel.solve`, the per-snapshot
    one-point solve the batched path is compared against.
    """
    metric = analysis.metric
    config = metric.config

    def solve(values):
        result = config.build_hierarchy().solve(
            config.merged_values(values),
            method=metric.method,
            abstraction=metric.abstraction,
        )
        return getattr(result, metric.metric)

    return UncertaintyAnalysis(
        metric=solve,
        distributions=analysis.distributions,
        base_values=analysis.base_values,
        metric_name=analysis.metric_name,
        sampler=analysis.sampler,
    )
