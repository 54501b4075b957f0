"""Live trigger campaigns: push the real server at the regime map.

One campaign *cell* reproduces one grid point of the regime map on the
actual serving stack:

1. **Self-host** an :class:`~repro.service.server.AvailabilityServer`
   shaped like the orbit model: one worker, no coalescing
   (``max_batch=1``), a small bounded queue (``queue_limit`` = the
   model's ``queue_depth``), the solve cache off, and the chaos
   injector stalling *every* dispatch
   (``chaos_rates={"scheduler.stall": 1.0}``) so the service rate is a
   deterministic knob: ``mu ≈ 1 / stall_seconds``.
2. **Offered load** comes from a small fleet of closed-loop client
   threads with seeded exponential pacing.  Each logical request
   retries with the cell's budget (``max_attempts``), a tiny jittered
   backoff, and a short per-attempt deadline — threads sleeping in
   backoff after a shed or a timed-out attempt *are* the model's
   orbit, and a request that times out while queued keeps consuming
   service capacity (the batcher cannot cancel it), which is the
   model's zombie-work amplifier.
3. **Trigger** (burst → sustain → release): a surge flag drops every
   thread's pacing gap to zero for ``burst + sustain`` seconds —
   a load spike that slams the queue — then pacing resumes.
4. **Observe**: after release, a
   :class:`~repro.obs.monitor.ProbeRunner` sends single-attempt,
   deadline-bounded probes at the *same* sustained offered load the
   cell always had.  If most of the probe tail still fails, the storm
   outlived its trigger: the cell is ``"pinned"``; otherwise it
   ``"recovered"``.

The artifact splits three ways, extending the repo's determinism
idiom: a config-pure ``"deterministic"`` block (bit-identical for any
two runs of the same configuration, regardless of seed), a seed-pure
``"schedule"`` block (derived seeds and probe trace ids — identical
for same-seed runs, different across seeds), and the live
``"observed"`` outcomes outside both.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.artifacts import SCHEMAS
from repro.exceptions import ModelError
from repro.obs.monitor import ProbeRunner, probe_trace_id
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.config import ServiceConfig
from repro.service.errors import (
    ServiceClientError,
    ServiceConnectionError,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.server import AvailabilityServer

#: Artifact ``kind`` discriminator.
CAMPAIGN_KIND = "metastable-campaign"

#: The two live outcomes a trigger can leave behind.
OUTCOMES = ("recovered", "pinned")

#: Default cells: one comfortably stable grid point and one deep in
#: the storm region of the default regime map.
DEFAULT_CELLS = ((0.3, 1), (0.9, 6))

#: Base solve parameter for the workload.  Every request perturbs it
#: (seeded, per thread) so no two in-flight requests share an
#: idempotency key — single-flight dedup would otherwise collapse the
#: whole fleet into one solve and silently multiply the service rate.
_WORKLOAD_PARAMETER = "lambda_as"
_WORKLOAD_BASE_VALUE = 0.01


@dataclass(frozen=True)
class CampaignCell:
    """One (offered load, retry budget) grid point to drive live."""

    load: float
    budget: int

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ModelError(f"cell load must be positive, got {self.load}")
        if self.budget < 1:
            raise ModelError(
                f"cell budget must be >= 1, got {self.budget}"
            )


def parse_cells(spec: str) -> List[CampaignCell]:
    """Parse ``"0.3:1,0.75:6"`` into campaign cells."""
    cells = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            load_text, budget_text = chunk.split(":")
            cells.append(
                CampaignCell(float(load_text), int(budget_text))
            )
        except ValueError:
            raise ModelError(
                f"bad cell {chunk!r}; expected load:budget, "
                "e.g. 0.75:6"
            ) from None
    if not cells:
        raise ModelError(f"no cells in {spec!r}")
    return cells


def _derived_seed(seed: int, label: str) -> int:
    """A stable 31-bit sub-seed for one campaign component."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()
    return int(digest[:8], 16) & 0x7FFFFFFF


def _classify_tail(
    probe_oks: Sequence[bool], tail_window: int
) -> Dict[str, Any]:
    """Outcome from the last ``tail_window`` probes after release."""
    tail = list(probe_oks)[-tail_window:]
    failures = sum(1 for ok in tail if not ok)
    # Pinned when the storm still eats at least half the probe tail;
    # a deeply stable cell fails ~0 and a pinned one fails ~all, so
    # the half-way cut keeps both verdicts far from the noise.
    outcome = "pinned" if 2 * failures >= len(tail) else "recovered"
    return {
        "outcome": outcome,
        "tail_window": len(tail),
        "tail_failures": failures,
    }


class _WorkloadThread(threading.Thread):
    """One closed-loop client: pace, request (with retries), repeat."""

    def __init__(
        self,
        url: str,
        cell: CampaignCell,
        mean_gap_seconds: float,
        deadline_seconds: float,
        backoff_cap_seconds: float,
        rng_seed: int,
        stop: threading.Event,
        surge: threading.Event,
    ) -> None:
        super().__init__(daemon=True)
        self._halt = stop
        self._surge_flag = surge
        self._mean_gap = mean_gap_seconds
        self._surge_gap = deadline_seconds / 20.0
        self._rng = random.Random(rng_seed)
        self._client = ServiceClient(
            url,
            timeout=deadline_seconds,
            retry=RetryPolicy(
                max_attempts=cell.budget,
                backoff_base=backoff_cap_seconds / 4.0,
                backoff_cap=backoff_cap_seconds,
                retry_statuses=(429,),
            ),
            rng=random.Random(rng_seed + 1),
        )
        self.counts = {"ok": 0, "shed": 0, "timeout": 0, "error": 0}

    def _pace(self, gap: float) -> None:
        """Sleep out the pacing gap, but wake early for surge or stop."""
        deadline = time.monotonic() + gap
        while not self._halt.is_set() and not self._surge_flag.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._halt.wait(min(remaining, 0.05))

    def run(self) -> None:
        while not self._halt.is_set():
            if self._surge_flag.is_set():
                # Surge: hammer with only a token gap — enough to keep
                # ten spinning clients from starving the single-core
                # server of the GIL, far beyond its capacity anyway.
                self._halt.wait(self._surge_gap)
            else:
                self._pace(self._rng.expovariate(1.0 / self._mean_gap))
            if self._halt.is_set():
                break
            value = round(
                _WORKLOAD_BASE_VALUE * (1.0 + self._rng.random()), 12
            )
            try:
                self._client.solve(
                    parameters={_WORKLOAD_PARAMETER: value}
                )
                self.counts["ok"] += 1
            except ServiceUnavailable:
                self.counts["shed"] += 1
            except ServiceConnectionError:
                # Timeouts while queued: the attempt is abandoned but
                # the request still occupies the server — zombie work.
                self.counts["timeout"] += 1
            except ServiceError:
                self.counts["error"] += 1
        self._client.close()


def run_trigger_campaign(
    cells: Sequence[CampaignCell] = (),
    seed: int = 2004,
    stall_seconds: float = 0.08,
    queue_limit: int = 6,
    client_threads: int = 24,
    deadline_seconds: float = 0.1,
    backoff_cap_seconds: float = 0.04,
    baseline_seconds: float = 0.6,
    burst_seconds: float = 0.4,
    sustain_seconds: float = 0.6,
    observe_probes: int = 8,
    probe_interval_seconds: float = 0.3,
    tail_window: int = 6,
) -> Dict[str, Any]:
    """Run the burst → sustain → release trigger on every cell.

    Args:
        cells: Grid points to drive (default :data:`DEFAULT_CELLS`).
        seed: Master seed naming every derived stream (thread pacing,
            chaos injector, probe trace ids).
        stall_seconds: Injected per-dispatch stall — the service-rate
            knob, ``mu ≈ 1 / stall_seconds``.
        queue_limit: Server queue bound (the model's ``queue_depth``).
        client_threads: Closed-loop workload threads (bounds the live
            orbit like the model's ``orbit_size``).
        deadline_seconds: Per-attempt client deadline (the model's
            ``1 / Theta``).
        backoff_cap_seconds: Retry backoff cap (the model's
            ``2 / Delta``).
        baseline_seconds: Settle time before the trigger.
        burst_seconds / sustain_seconds: Surge phase durations.
        observe_probes / probe_interval_seconds: Post-release probe
            schedule.
        tail_window: Probes (from the end) that decide the outcome.

    Returns:
        The campaign artifact (see module docstring).
    """
    started = time.perf_counter()
    cells = list(cells) if cells else [
        CampaignCell(load, budget) for load, budget in DEFAULT_CELLS
    ]
    if observe_probes < tail_window:
        raise ModelError(
            f"observe_probes ({observe_probes}) must cover the "
            f"tail window ({tail_window})"
        )
    mu = 1.0 / stall_seconds
    # Probes must outwait normal jitter (a couple of service times)
    # but fail against a saturated queue, whose wait is
    # ~ queue_limit * stall: split the difference.
    probe_deadline = stall_seconds * (queue_limit + 1) / 2.0

    observed_cells: List[Dict[str, Any]] = []
    schedule_cells: List[Dict[str, Any]] = []
    for index, cell in enumerate(cells):
        chaos_seed = _derived_seed(seed, f"cell{index}:chaos")
        probe_seed = _derived_seed(seed, f"cell{index}:probes")
        thread_seeds = [
            _derived_seed(seed, f"cell{index}:thread{t}")
            for t in range(client_threads)
        ]
        schedule_cells.append(
            {
                "cell": {"load": cell.load, "budget": cell.budget},
                "chaos_seed": chaos_seed,
                "probe_seed": probe_seed,
                "thread_seeds": thread_seeds,
                "probe_trace_ids": [
                    probe_trace_id(probe_seed, i)
                    for i in range(observe_probes)
                ],
            }
        )

        config = ServiceConfig(
            port=0,
            workers=1,
            max_batch=1,
            queue_limit=queue_limit,
            cache_size=0,
            chaos=True,
            chaos_seed=chaos_seed,
            chaos_rates={"scheduler.stall": 1.0},
            chaos_stall_seconds=stall_seconds,
            retry_after_seconds=backoff_cap_seconds,
        )
        stop = threading.Event()
        surge = threading.Event()
        cell_started = time.perf_counter()
        with AvailabilityServer(config) as server:
            mean_gap = client_threads / (cell.load * mu)
            threads = [
                _WorkloadThread(
                    server.url,
                    cell,
                    mean_gap_seconds=mean_gap,
                    deadline_seconds=deadline_seconds,
                    backoff_cap_seconds=backoff_cap_seconds,
                    rng_seed=thread_seeds[t],
                    stop=stop,
                    surge=surge,
                )
                for t in range(client_threads)
            ]
            for thread in threads:
                thread.start()
            time.sleep(baseline_seconds)

            # Trigger: burst -> sustain ...
            surge.set()
            time.sleep(burst_seconds + sustain_seconds)
            # ... -> release.
            surge.clear()

            runner = ProbeRunner(
                server.url,
                deadline_seconds=probe_deadline,
                seed=probe_seed,
            )
            probes = []
            for i in range(observe_probes):
                probes.append(runner.probe(i))
                if i + 1 < observe_probes:
                    time.sleep(probe_interval_seconds)
            runner.close()

            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)

        verdict = _classify_tail(
            [probe["ok"] for probe in probes], tail_window
        )
        workload = {"ok": 0, "shed": 0, "timeout": 0, "error": 0}
        for thread in threads:
            for key, count in thread.counts.items():
                workload[key] += count
        observed_cells.append(
            {
                "cell": {"load": cell.load, "budget": cell.budget},
                **verdict,
                "probes_ok": sum(1 for p in probes if p["ok"]),
                "probes_failed": sum(1 for p in probes if not p["ok"]),
                "probe_ok_sequence": [bool(p["ok"]) for p in probes],
                "workload": workload,
                "elapsed_seconds": time.perf_counter() - cell_started,
            }
        )

    artifact = {
        "schema": SCHEMAS[CAMPAIGN_KIND],
        "kind": CAMPAIGN_KIND,
        "seed": seed,
        "deterministic": {
            "schema": SCHEMAS[CAMPAIGN_KIND],
            "kind": CAMPAIGN_KIND,
            "cells": [
                {"load": cell.load, "budget": cell.budget}
                for cell in cells
            ],
            "server": {
                "stall_seconds": stall_seconds,
                "queue_limit": queue_limit,
                "retry_after_seconds": backoff_cap_seconds,
            },
            "workload": {
                "client_threads": client_threads,
                "deadline_seconds": deadline_seconds,
                "backoff_cap_seconds": backoff_cap_seconds,
            },
            "phases": {
                "baseline_seconds": baseline_seconds,
                "burst_seconds": burst_seconds,
                "sustain_seconds": sustain_seconds,
                "observe_probes": observe_probes,
                "probe_interval_seconds": probe_interval_seconds,
            },
            "verdict_rule": {
                "tail_window": tail_window,
                "pinned_when": "tail failures >= half the window",
            },
            "model_correspondence": {
                "mu": mu,
                "delta": (2.0 / backoff_cap_seconds) / mu,
                "theta": (1.0 / deadline_seconds) / mu,
                "queue_depth": queue_limit,
                "orbit_size": client_threads,
            },
        },
        "schedule": {"seed": seed, "cells": schedule_cells},
        "observed": {"cells": observed_cells},
        "timing": {"elapsed_seconds": time.perf_counter() - started},
    }
    return artifact
