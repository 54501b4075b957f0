"""One-call availability assessment report.

The paper's end product is an *assessment*: a document combining the
model results (Table 2), the configuration comparison (Table 3), the
sensitivity story (Figs. 5-6), and the uncertainty statement (Figs. 7-8)
into a conservative availability claim at stated confidence.  This
module assembles that document from the library's pieces, so a
downstream team can regenerate the whole deliverable for *their*
parameters with one call:

    text = generate_assessment(values=my_parameters, seed=1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.models.jsas.configs import (
    compare_configurations,
    optimal_configuration,
    run_uncertainty,
)
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration
from repro.units import nines_to_availability


@dataclass(frozen=True)
class Assessment:
    """The assembled assessment: sections plus the headline numbers."""

    headline_availability: float
    headline_downtime_minutes: float
    optimal_shape: Tuple[int, int]
    uncertainty_mean: float
    uncertainty_ci80: Tuple[float, float]
    sla_violation_probability: float
    sections: Dict[str, str]

    def to_text(self) -> str:
        """Render the full report."""
        order = (
            "header",
            "system_results",
            "configurations",
            "sensitivity",
            "uncertainty",
            "risk",
        )
        return "\n\n".join(self.sections[name] for name in order)


def generate_assessment(
    values: Optional[Mapping[str, float]] = None,
    primary: Optional[JsasConfiguration] = None,
    shapes: Sequence[Tuple[int, int]] = ((1, 0), (2, 2), (4, 4), (6, 6)),
    n_uncertainty_samples: int = 500,
    n_risk_years: int = 20_000,
    seed: Optional[int] = 2004,
) -> Assessment:
    """Build the full availability assessment.

    Args:
        values: Model parameters (defaults to the paper's Section 5 set).
        primary: The configuration under assessment (defaults to the
            paper's Config 1, 2 instances + 2 pairs).
        shapes: Deployment shapes for the comparison section.
        n_uncertainty_samples / n_risk_years: Sampling volumes (reduce
            for quick runs; the defaults keep the call under a minute).
        seed: RNG seed for the sampled sections.
    """
    from repro.analysis.report import render_table
    from repro.analysis.risk import annual_downtime_risk
    from repro.sensitivity import parametric_sweep

    values = dict(values) if values is not None else PAPER_PARAMETERS.to_dict()
    primary = primary or JsasConfiguration(2, 2)

    sections: Dict[str, str] = {}

    # System results -------------------------------------------------------
    result = primary.solve(values)
    rows = []
    for name, report in result.submodels.items():
        rows.append(
            (
                name,
                f"{report.downtime_minutes:.2f} min",
                f"{report.downtime_fraction:.1%}",
                f"{report.interface.failure_rate:.3e}/h",
                f"{1.0 / report.interface.recovery_rate:.3g} h",
            )
        )
    sections["header"] = (
        "AVAILABILITY ASSESSMENT\n"
        f"configuration under assessment: {primary.n_instances} AS "
        f"instance(s), {primary.n_pairs} HADB pair(s)\n"
        f"availability: {result.availability:.5%}   "
        f"yearly downtime: {result.yearly_downtime_minutes:.2f} min   "
        f"MTBF: {result.mtbf_hours:,.0f} h"
    )
    sections["system_results"] = render_table(
        ["subsystem", "downtime/yr", "share", "equivalent Lambda",
         "mean outage"],
        rows,
        title="Downtime budget by subsystem",
    )

    # Configuration comparison ----------------------------------------------
    comparison = compare_configurations(shapes, values)
    best = optimal_configuration(comparison)
    sections["configurations"] = (
        render_table(
            ["# AS", "# pairs", "availability", "downtime/yr", "MTBF (h)"],
            [row.as_row() for row in comparison],
            title="Configuration comparison",
        )
        + f"\noptimal among compared: {best.n_instances} instances / "
        f"{best.n_pairs} pairs"
    )

    # Sensitivity -------------------------------------------------------------
    sweep = parametric_sweep(
        lambda sampled: primary.solve(sampled).availability,
        "Tstart_long_as",
        [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        values,
    )
    five_nines = nines_to_availability(5)
    try:
        crossing = sweep.crossing(five_nines)
        crossing_text = (
            f"five-9s retained while AS HW/OS recovery stays under "
            f"{crossing:.2f} h"
        )
    except Exception:
        level = "above" if min(sweep.values) >= five_nines else "below"
        crossing_text = f"availability stays {level} five 9s across 0.5-3 h"
    sections["sensitivity"] = (
        "Sensitivity to the controllable recovery-time parameter "
        "(Tstart_long):\n"
        + "\n".join(
            f"  {x:4.1f} h -> {y:.6%}" for x, y in sweep.as_rows()
        )
        + f"\n{crossing_text}"
    )

    # Uncertainty ---------------------------------------------------------------
    uncertainty = run_uncertainty(
        primary, n_samples=n_uncertainty_samples, seed=seed, values=values
    )
    low80, high80 = uncertainty.confidence_interval(0.80)
    sections["uncertainty"] = (
        f"Uncertainty analysis over {uncertainty.n_samples} sampled "
        "parameter snapshots (six parameters, Section 7 ranges):\n"
        f"  mean yearly downtime: {uncertainty.mean:.2f} min\n"
        f"  80% of systems within: ({low80:.2f}, {high80:.2f}) min\n"
        f"  fraction meeting five 9s (< 5.25 min): "
        f"{uncertainty.fraction_below(5.25):.1%}"
    )

    # Risk -------------------------------------------------------------------------
    risk = annual_downtime_risk(result, n_years=n_risk_years, seed=seed)
    sections["risk"] = (
        "Single-year risk (the mean hides the tail):\n"
        f"  P(zero-downtime year): {risk.p_zero:.1%}\n"
        f"  p95 annual downtime: {risk.percentile(95):.1f} min\n"
        f"  P(year exceeds the five-9s budget): "
        f"{risk.probability_exceeding(5.25):.1%}"
    )

    return Assessment(
        headline_availability=result.availability,
        headline_downtime_minutes=result.yearly_downtime_minutes,
        optimal_shape=(best.n_instances, best.n_pairs),
        uncertainty_mean=uncertainty.mean,
        uncertainty_ci80=(low80, high80),
        sla_violation_probability=risk.probability_exceeding(5.25),
        sections=sections,
    )
