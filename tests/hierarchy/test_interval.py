"""Unit tests for hierarchical interval availability."""

import pytest

from repro.exceptions import ModelError
from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS


class TestHierarchicalIntervalAvailability:
    @pytest.fixture(scope="class")
    def hierarchy(self):
        return CONFIG_1.build_hierarchy()

    @pytest.fixture(scope="class")
    def values(self):
        merged = PAPER_PARAMETERS.to_dict()
        merged["N_pair"] = 2.0
        return merged

    def test_converges_to_steady_state(self, hierarchy, values):
        steady = hierarchy.solve(values).availability
        long_run = hierarchy.interval_availability(values, t=1e5)
        assert long_run == pytest.approx(steady, abs=1e-8)

    def test_short_horizon_reflects_healthy_start(self, hierarchy, values):
        """A deployment that starts all-up beats the steady state over a
        short horizon — but only slightly, because failures are rare and
        repairs fast relative to a day (the warm-up benefit is of order
        MTTR/t times the unavailability)."""
        day1 = hierarchy.interval_availability(values, t=24.0)
        year1 = hierarchy.interval_availability(values, t=8766.0)
        steady = hierarchy.solve(values).availability
        assert day1 > year1 > steady - 1e-12
        assert (1.0 - day1) < (1.0 - steady) * 0.99

    def test_monotone_decreasing_in_horizon(self, hierarchy, values):
        horizons = [10.0, 100.0, 1000.0, 10000.0]
        series = [
            hierarchy.interval_availability(values, t=t) for t in horizons
        ]
        assert series == sorted(series, reverse=True)

    def test_first_year_downtime_below_steady_state_budget(
        self, hierarchy, values
    ):
        """Expected first-year downtime is less than the steady-state
        yearly downtime (the system starts healthy, and the warm-up
        toward stationarity takes a sizeable fraction of the year at
        these failure rates)."""
        from repro.units import MINUTES_PER_YEAR

        year1 = hierarchy.interval_availability(values, t=8766.0)
        first_year_minutes = (1.0 - year1) * MINUTES_PER_YEAR
        steady_minutes = hierarchy.solve(values).yearly_downtime_minutes
        assert first_year_minutes < steady_minutes
        # But the warm-up effect is negligible at yearly scale: well
        # within 1% of the budget (MTTR is hours, the year is 8766 h).
        assert first_year_minutes > 0.99 * steady_minutes

    def test_supplied_value_colliding_with_binding_rejected(
        self, hierarchy, values
    ):
        """The same ambiguity ``solve`` rejects: a caller's La_appl and
        the AS submodel's bound one."""
        colliding = dict(values, La_appl=123.0)
        with pytest.raises(ModelError, match="also appear"):
            hierarchy.solve(colliding)
        with pytest.raises(ModelError, match="also appear"):
            hierarchy.interval_availability(colliding, t=100.0)
