"""repro.metastable — the retry↔queue feedback loop, mapped and lived.

A load-shedding server with retrying clients hides a second stable
operating point: a storm where the queue stays pinned full and almost
all service capacity goes to *zombie work* — requests whose clients
have already timed out and re-orbited.  This package models that loop,
maps where it bites, and validates the map against the live service
under seeded chaos load:

* :mod:`repro.metastable.model` — the orbit GSPN (queue × retry
  orbit) compiled to a symbolic CTMC lattice, plus the M/M/1/K and
  mean-field closed forms it must agree with in the no-feedback limit;
* :mod:`repro.metastable.regimes` — sweep (offered load × retry
  budget) grids with one batched steady-state solve plus a Fox–Glynn
  transient per cell; classify stable / vulnerable / metastable and
  emit the regime-map artifact (read and written through
  :mod:`repro.artifacts`);
* :mod:`repro.metastable.campaign` — drive the real
  :mod:`repro.service` server through a seeded load-spike trigger
  (burst → sustain → release) and let monitor probes decide
  recovered vs pinned;
* :mod:`repro.metastable.validate` — join the two artifacts and
  render the predicted-vs-observed verdict.

CLI: ``repro-avail metastable map | campaign | validate``.  The guide at
``docs/metastable_guide.md`` walks the whole loop.
"""

from __future__ import annotations

from repro.metastable.campaign import (
    CAMPAIGN_KIND,
    DEFAULT_CELLS,
    OUTCOMES,
    CampaignCell,
    parse_cells,
    run_trigger_campaign,
)
from repro.metastable.model import (
    ORBIT_PARAMETERS,
    mm1k_blocking,
    mm1k_distribution,
    orbit_marking,
    orbit_model,
    orbit_net,
    orbit_states,
    orbit_values,
    retry_fixed_point,
    retry_probability,
)
from repro.metastable.regimes import (
    REGIME_MAP_KIND,
    REGIMES,
    classify,
    find_cell,
    map_regimes,
    predicted_outcome,
    render_regime_map,
)
from repro.metastable.validate import (
    VALIDATION_KIND,
    VALIDATION_SCHEMA,
    VERDICTS,
    render_validation,
    validate_boundary,
)

__all__ = [
    "CAMPAIGN_KIND",
    "DEFAULT_CELLS",
    "ORBIT_PARAMETERS",
    "OUTCOMES",
    "REGIMES",
    "REGIME_MAP_KIND",
    "VALIDATION_KIND",
    "VALIDATION_SCHEMA",
    "VERDICTS",
    "CampaignCell",
    "classify",
    "find_cell",
    "map_regimes",
    "mm1k_blocking",
    "mm1k_distribution",
    "orbit_marking",
    "orbit_model",
    "orbit_net",
    "orbit_states",
    "orbit_values",
    "parse_cells",
    "predicted_outcome",
    "render_regime_map",
    "render_validation",
    "retry_fixed_point",
    "retry_probability",
    "run_trigger_campaign",
    "validate_boundary",
]
