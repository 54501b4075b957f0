"""Command-line interface: ``repro-avail``.

Subcommands mirror the paper's analyses:

* ``solve`` — availability of one configuration.
* ``table2`` / ``table3`` — reproduce the paper's result tables.
* ``sweep`` — Figs. 5/6 parametric sweep of Tstart_long_as.
* ``uncertainty`` — Figs. 7/8 random-sampling analysis.
* ``campaign`` — run a simulated fault-injection campaign.
* ``chaos`` — run a live fault-injection campaign against the server.
* ``longevity`` — run a simulated stability test.
* ``serve`` — run the batching availability-evaluation server
  (``--shards N`` fronts N shard processes with a consistent-hash
  router).
* ``failover`` — seeded cluster shard-kill drill (zero failed requests).
* ``metastable map|campaign|validate`` — map the retry-storm regimes
  of the service's shed/retry loop and validate the predicted trigger
  boundary against a live load-spike campaign.
* ``obs report`` — render a recorded trace as a span-tree report.

Global observability flags (before the subcommand):

* ``--trace FILE`` — record the run as JSONL structured events/spans;
* ``--metrics FILE`` — write the run's metrics in Prometheus text format.

``solve``, ``sweep`` and ``uncertainty`` additionally accept ``--json``
to emit one machine-readable JSON document instead of tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

import numpy as np

from repro import artifacts
from repro._version import __version__
from repro.exceptions import EstimationError, ReproError
from repro.models.jsas import (
    CONFIG_1,
    PAPER_PARAMETERS,
    JsasConfiguration,
    compare_configurations,
    optimal_configuration,
)
from repro.obs.console import Reporter
from repro.units import nines_to_availability


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instances", "--n-instances", type=int, default=2,
        dest="instances", help="AS instances (default 2)",
    )
    parser.add_argument(
        "--pairs", type=int, default=2, help="HADB node pairs (default 2)"
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )


def _reporter(args: argparse.Namespace) -> Reporter:
    return Reporter(json_mode=getattr(args, "json", False))


def _write_artifacts(reporter: Reporter, *outputs: tuple) -> None:
    """Write each ``(path, document, label)`` whose path is set; the
    "written to" line follows the write, so it never names a file that
    does not exist."""
    for path, document, label in outputs:
        if path:
            artifacts.write(document, path)
            reporter.line(f"{label} written to {path}")


def _configuration(args: argparse.Namespace) -> JsasConfiguration:
    return JsasConfiguration(n_instances=args.instances, n_pairs=args.pairs)


def _cmd_solve(args: argparse.Namespace) -> int:
    reporter = _reporter(args)
    if getattr(args, "fitted", None):
        from repro.selfmodel import ClusterSelfModel

        model = ClusterSelfModel.from_artifact(args.fitted)
        result = model.solve()
        reporter.line(f"{model.name} (rates fitted from {args.fitted})")
        reporter.line(result.summary())
        reporter.finish(
            command="solve",
            fitted=str(args.fitted),
            model=model.name,
            availability=result.availability,
            yearly_downtime_minutes=result.yearly_downtime_minutes,
            mtbf_hours=result.mtbf_hours,
        )
        return 0
    config = _configuration(args)
    result = config.solve(PAPER_PARAMETERS)
    reporter.line(result.summary())
    reporter.finish(
        command="solve",
        configuration={
            "n_instances": config.n_instances,
            "n_pairs": config.n_pairs,
        },
        availability=result.availability,
        yearly_downtime_minutes=result.yearly_downtime_minutes,
        mtbf_hours=result.mtbf_hours,
        submodels={
            name: {
                "downtime_minutes": report.downtime_minutes,
                "downtime_fraction": report.downtime_fraction,
                "failure_rate": report.interface.failure_rate,
                "recovery_rate": report.interface.recovery_rate,
            }
            for name, report in result.submodels.items()
        },
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table

    reporter = _reporter(args)
    rows = []
    for label, (n_as, n_pairs) in (
        ("Config 1", (2, 2)),
        ("Config 2", (4, 4)),
    ):
        result = JsasConfiguration(n_as, n_pairs).solve(PAPER_PARAMETERS)
        as_report = result.submodels["appserver"]
        hadb_report = result.submodels["hadb"]
        rows.append(
            [
                label,
                f"{result.availability:.5%}",
                f"{result.yearly_downtime_minutes:.2f} min",
                f"{as_report.downtime_minutes:.2f} min "
                f"({as_report.downtime_fraction:.0%})",
                f"{hadb_report.downtime_minutes:.2f} min "
                f"({hadb_report.downtime_fraction:.0%})",
            ]
        )
    reporter.line(
        render_table(
            ["Configuration", "Availability", "Yearly Downtime",
             "YD due to AS", "YD due to HADB"],
            rows,
            title="Table 2. System Results",
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table

    reporter = _reporter(args)
    rows = compare_configurations()
    reporter.line(
        render_table(
            ["# Instances", "# HADB Pairs", "Availability",
             "Yearly Downtime", "MTBF (hr)"],
            [row.as_row() for row in rows],
            title="Table 3. Comparison of Configurations",
        )
    )
    best = optimal_configuration(rows)
    reporter.line(
        f"\nOptimal: {best.n_instances} instances / {best.n_pairs} pairs "
        f"({best.availability:.5%})"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.models.jsas.configs import HierarchicalConfigMetric
    from repro.sensitivity import parametric_sweep

    reporter = _reporter(args)
    if getattr(args, "fitted", None):
        return _cmd_sweep_fitted(args, reporter)
    config = _configuration(args)
    # Batch-capable metric: the whole grid solves as one batched kernel
    # call per model (banded or sparse for large --n-instances).
    metric = HierarchicalConfigMetric(config, metric="availability")
    start = args.start if args.start is not None else 0.5
    stop = args.stop if args.stop is not None else 3.0
    grid = list(np.linspace(start, stop, args.points))
    sweep = parametric_sweep(
        metric,
        "Tstart_long_as",
        grid,
        PAPER_PARAMETERS.to_dict(),
        metric_name="availability",
    )
    reporter.line(
        render_table(
            ["Tstart_long (hours)", "Availability"],
            [(f"{x:.2f}", f"{y:.7%}") for x, y in sweep.as_rows()],
            title=(
                f"Availability vs AS HW/OS recovery time "
                f"({config.n_instances} instances, {config.n_pairs} pairs)"
            ),
        )
    )
    reporter.record(
        command="sweep",
        parameter="Tstart_long_as",
        configuration={
            "n_instances": config.n_instances,
            "n_pairs": config.n_pairs,
        },
        points=[
            {"Tstart_long_as": x, "availability": y}
            for x, y in sweep.as_rows()
        ],
    )
    five_nines = nines_to_availability(5)
    try:
        crossing = sweep.crossing(five_nines)
        reporter.line(
            f"\nFive-9s crossover at Tstart_long = {crossing:.2f} h"
        )
        reporter.record(five_nines_crossing_hours=crossing)
    except Exception:
        reporter.line("\nFive-9s level is retained across the whole sweep")
        reporter.record(five_nines_crossing_hours=None)
    reporter.finish()
    return 0


def _cmd_sweep_fitted(
    args: argparse.Namespace, reporter: "Reporter"
) -> int:
    """Parametric what-if sweep over the fitted cluster model."""
    from repro.analysis.report import render_table
    from repro.selfmodel import ClusterSelfModel
    from repro.sensitivity import parametric_sweep

    model = ClusterSelfModel.from_artifact(args.fitted)
    parameter = args.parameter or "Mu_restore"
    if parameter not in model.base_values:
        reporter.line(
            f"unknown fitted parameter {parameter!r}; available: "
            f"{sorted(model.base_values)}"
        )
        return 2
    point = model.base_values[parameter]
    # Without explicit bounds, sweep a decade around the fitted point.
    start = args.start if args.start is not None else point * 0.25
    stop = args.stop if args.stop is not None else point * 4.0
    metric = model.metric(metric="availability")
    grid = list(np.linspace(start, stop, args.points))
    sweep = parametric_sweep(
        metric,
        parameter,
        grid,
        dict(model.base_values),
        metric_name="availability",
    )
    reporter.line(
        render_table(
            [f"{parameter} (1/hour)", "Availability"],
            [(f"{x:.4g}", f"{y:.7%}") for x, y in sweep.as_rows()],
            title=(
                f"{model.name}: availability vs {parameter} "
                f"(fitted point {point:.4g}/h)"
            ),
        )
    )
    reporter.finish(
        command="sweep",
        fitted=str(args.fitted),
        model=model.name,
        parameter=parameter,
        points=[
            {parameter: x, "availability": y} for x, y in sweep.as_rows()
        ],
    )
    return 0


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    from repro.models.jsas.configs import (
        MIN_UNCERTAINTY_SAMPLES,
        build_uncertainty_analysis,
    )

    if args.samples < MIN_UNCERTAINTY_SAMPLES:
        raise EstimationError(
            f"--samples must be >= {MIN_UNCERTAINTY_SAMPLES}, "
            f"got {args.samples}"
        )
    reporter = _reporter(args)
    if getattr(args, "fitted", None):
        from repro.selfmodel import ClusterSelfModel

        model = ClusterSelfModel.from_artifact(args.fitted)
        analysis = model.uncertainty_analysis(
            metric="yearly_downtime_minutes"
        )
        result = analysis.run(
            n_samples=args.samples, seed=args.seed, keep_snapshots=False
        )
        reporter.line(
            f"{model.name}: fitted-rate intervals propagated "
            f"({len(analysis.distributions)} varied parameter(s))"
        )
        reporter.line(result.summary())
        reporter.finish(
            command="uncertainty",
            fitted=str(args.fitted),
            model=model.name,
            n_samples=args.samples,
            seed=args.seed,
            metric=result.metric_name,
            mean=result.mean,
            median=result.percentile(50),
        )
        return 0
    config = _configuration(args)
    analysis = build_uncertainty_analysis(config)
    result = analysis.run(
        n_samples=args.samples, seed=args.seed, keep_snapshots=False
    )
    reporter.line(result.summary())
    reporter.line(
        f"fraction of sampled systems under 5.25 min/yr "
        f"(>= five 9s): {result.fraction_below(5.25):.1%}"
    )
    reporter.finish(
        command="uncertainty",
        configuration={
            "n_instances": config.n_instances,
            "n_pairs": config.n_pairs,
        },
        n_samples=args.samples,
        seed=args.seed,
        metric=result.metric_name,
        mean=result.mean,
        std=result.std,
        median=result.percentile(50),
        minimum=min(result.values),
        maximum=max(result.values),
        fraction_below_five_nines=result.fraction_below(5.25),
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.testbed import run_fault_injection_campaign

    reporter = _reporter(args)
    result = run_fault_injection_campaign(args.injections, seed=args.seed)
    reporter.line(result.summary())
    coverage = result.coverage()
    reporter.line(
        f"Eq.1 coverage bound at 95%: FIR <= {coverage.fir_upper:.4%} "
        f"({result.n_successful}/{result.n_injections} successful)"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.campaign import run_campaign

    reporter = _reporter(args)
    report = run_campaign(
        injections=args.injections,
        seed=args.seed,
        url=args.url,
        confidence=args.confidence,
        stall_seconds=args.stall_ms / 1000.0,
    )
    reporter.line(
        f"chaos campaign: {report.recovered}/{report.injections} "
        f"injections recovered (seed {report.seed}, "
        f"server {report.url})"
    )
    for point, estimate in sorted(report.by_point.items()):
        reporter.line(
            f"  {point:<18} {estimate.n_successes}/{estimate.n_trials} "
            f"recovered; coverage >= {estimate.lower:.4%}"
        )
    overall = report.overall
    reporter.line(
        f"Eq.1 coverage bound at {overall.confidence:.1%}: "
        f"C >= {overall.lower:.4%} (FIR <= {overall.fir_upper:.4%})"
    )
    _write_artifacts(reporter, (args.report, report.to_dict(), "report"))
    reporter.record(command="chaos", **report.deterministic_dict())
    reporter.finish()
    return 0 if report.recovered == report.injections else 1


def _grid_floats(text: str) -> tuple:
    """Argparse type: comma-separated floats (``"0.3,0.6,0.9"``)."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _grid_ints(text: str) -> tuple:
    """Argparse type: comma-separated integers (``"1,2,4"``)."""
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _cells_arg(text: str) -> tuple:
    """Argparse type: campaign cells (``"0.3:1,0.9:6"``)."""
    from repro.exceptions import ModelError
    from repro.metastable.campaign import parse_cells

    try:
        return tuple(parse_cells(text))
    except ModelError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _metastable_map_artifact(args: argparse.Namespace):
    from repro.metastable.regimes import map_regimes

    return map_regimes(
        loads=args.loads,
        budgets=args.budgets,
        queue_depth=args.queue_depth,
        orbit_size=args.orbit_size,
        delta=args.delta,
        theta=args.theta,
        horizon=args.horizon,
        threshold=args.threshold,
    )


def _cmd_metastable_map(args: argparse.Namespace) -> int:
    from repro.metastable.regimes import render_regime_map

    reporter = _reporter(args)
    artifact = _metastable_map_artifact(args)
    for line in render_regime_map(artifact):
        reporter.line(line)
    _write_artifacts(reporter, (args.out, artifact, "regime map"))
    reporter.record(command="metastable-map", **artifact["deterministic"])
    reporter.finish()
    return 0


def _cmd_metastable_campaign(args: argparse.Namespace) -> int:
    from repro.metastable.campaign import run_trigger_campaign

    reporter = _reporter(args)
    artifact = run_trigger_campaign(
        cells=args.cells or (),
        seed=args.seed,
        stall_seconds=args.stall_ms / 1000.0,
        queue_limit=args.queue_limit,
        client_threads=args.threads,
        deadline_seconds=args.deadline,
        backoff_cap_seconds=args.backoff_cap_ms / 1000.0,
        observe_probes=args.probes,
    )
    for cell in artifact["observed"]["cells"]:
        reporter.line(
            f"load={cell['cell']['load']:g} "
            f"budget={cell['cell']['budget']} -> {cell['outcome']} "
            f"({cell['probes_ok']}/"
            f"{cell['probes_ok'] + cell['probes_failed']} probes ok)"
        )
    _write_artifacts(reporter, (args.out, artifact, "campaign artifact"))
    reporter.record(
        command="metastable-campaign", **artifact["deterministic"]
    )
    reporter.finish()
    return 0


def _cmd_metastable_validate(args: argparse.Namespace) -> int:
    from repro.metastable.campaign import CAMPAIGN_KIND, run_trigger_campaign
    from repro.metastable.regimes import REGIME_MAP_KIND
    from repro.metastable.validate import render_validation, validate_boundary

    reporter = _reporter(args)
    if args.map:
        regime_map = artifacts.load(args.map, REGIME_MAP_KIND)
    else:
        regime_map = _metastable_map_artifact(args)
    if args.campaign:
        campaign = artifacts.load(args.campaign, CAMPAIGN_KIND)
    else:
        campaign = run_trigger_campaign(
            cells=args.cells or (), seed=args.seed
        )
    report = validate_boundary(regime_map, campaign)
    for line in render_validation(report):
        reporter.line(line)
    reporter.record(command="metastable-validate", **report)
    reporter.finish()
    return 0 if report["verdict"] == "agree" else 1


def _cmd_metastable(args: argparse.Namespace) -> int:
    """Dispatch ``metastable map | campaign | validate``."""
    handlers = {
        "map": _cmd_metastable_map,
        "campaign": _cmd_metastable_campaign,
        "validate": _cmd_metastable_validate,
    }
    return handlers[args.metastable_command](args)


def _cmd_risk(args: argparse.Namespace) -> int:
    from repro.analysis.risk import annual_downtime_risk

    reporter = _reporter(args)
    result = _configuration(args).solve(PAPER_PARAMETERS)
    risk = annual_downtime_risk(result, n_years=args.years, seed=args.seed)
    reporter.line(risk.summary(sla_minutes=args.sla))
    reporter.line(
        f"expected outages/year: {risk.outage_rate_per_year:.3f}; "
        f"p99 annual downtime: {risk.percentile(99):.1f} min"
    )
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    from repro.models.jsas.assessment import generate_assessment

    reporter = _reporter(args)
    assessment = generate_assessment(
        primary=_configuration(args),
        n_uncertainty_samples=args.samples,
        n_risk_years=args.years,
        seed=args.seed,
    )
    reporter.line(assessment.to_text())
    return 0


def _cmd_mission(args: argparse.Namespace) -> int:
    from repro.analysis.mission import mission_availability
    from repro.models.jsas import build_hadb_pair_model

    reporter = _reporter(args)
    result = mission_availability(
        build_hadb_pair_model(),
        mission_hours=args.hours,
        n_missions=args.missions,
        values=PAPER_PARAMETERS.to_dict(),
        seed=args.seed,
    )
    reporter.line(result.summary(target=nines_to_availability(args.nines)))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.models.jsas.planner import plan_configuration

    reporter = _reporter(args)
    target = nines_to_availability(args.nines)
    recommendation = plan_configuration(
        target,
        PAPER_PARAMETERS,
        max_instances=args.max_instances,
    )
    if recommendation.feasible:
        config = recommendation.configuration
        reporter.line(
            f"smallest shape for {args.nines:g} nines "
            f"({target:.6%}): {config.n_instances} instances / "
            f"{config.n_pairs} pairs "
            f"(availability {recommendation.availability:.5%}, "
            f"{recommendation.candidates_evaluated} candidates solved)"
        )
        return 0
    best = recommendation.best_infeasible
    reporter.line(
        f"no shape up to {args.max_instances} instances reaches "
        f"{args.nines:g} nines; best was {best.n_instances}/"
        f"{best.n_pairs} at {recommendation.availability:.5%}"
    )
    return 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from repro.core.serialize import model_to_dot
    from repro.models.jsas import (
        build_appserver_model,
        build_hadb_pair_model,
        build_system_model,
    )

    reporter = _reporter(args)
    builders = {
        "system": lambda: build_system_model(),
        "hadb": lambda: build_hadb_pair_model(),
        "appserver": lambda: build_appserver_model(args.instances),
    }
    reporter.line(model_to_dot(builders[args.model]()))
    return 0


def _cmd_longevity(args: argparse.Namespace) -> int:
    from repro.testbed import run_longevity_test

    reporter = _reporter(args)
    result = run_longevity_test(duration_days=args.days, seed=args.seed)
    reporter.line(result.summary())
    estimate = result.as_failure_rate_estimate()
    reporter.line(
        f"Eq.2 AS failure-rate bound at 95%: "
        f"{estimate.upper * 24:.4f}/day "
        f"(exposure {result.as_exposure_hours:.0f} instance-hours)"
    )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    reporter = _reporter(args)
    if args.cluster:
        from repro.obs import render_cluster_report

        reporter.line(
            render_cluster_report(args.trace_file, trace_id=args.trace_id)
        )
        return 0
    from repro.obs import load_trace, render_trace_report

    records = load_trace(args.trace_file)
    reporter.line(
        render_trace_report(records, title=f"Trace: {args.trace_file}")
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import (
        build_measurement_report,
        render_measurement_report,
        run_probe_campaign,
    )

    reporter = _reporter(args)
    probes = run_probe_campaign(
        args.url,
        count=args.probes,
        interval_seconds=args.interval_ms / 1000.0,
        deadline_seconds=args.deadline,
        seed=args.seed,
    )
    report = build_measurement_report(
        probes, seed=args.seed, min_failures=args.min_failures
    )
    reporter.line(render_measurement_report(report))
    _write_artifacts(reporter, (args.report, report, "measurement report"))
    reporter.record(command="monitor", **report["deterministic"])
    reporter.finish()
    return 0 if report["probe_failures"] == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import AvailabilityServer, ServiceConfig

    reporter = _reporter(args)
    if args.chaos_stall_rate and not args.chaos:
        reporter.line(
            "error: --chaos-stall-rate requires --chaos "
            "(a production config has no injection surface)"
        )
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        cache_file=args.cache_file,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        chaos_stall_seconds=args.chaos_stall_ms / 1000.0,
        chaos_rates=(
            {"scheduler.stall": args.chaos_stall_rate}
            if args.chaos_stall_rate
            else None
        ),
        worker_processes=args.worker_processes,
    )
    solver_side = (
        f"{config.worker_processes} solver processes"
        if config.worker_processes
        else "in-process solves"
    )
    if args.shards > 1:
        import dataclasses

        from repro.service import ClusterConfig, ClusterServer

        cluster_config = ClusterConfig(
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            # Chaos moves to the router (shard.death); shard-level chaos
            # is a single-server concern.
            shard=dataclasses.replace(config, chaos=False),
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
        )
        router = ClusterServer(cluster_config)
        host, port = router.address
        reporter.line(
            f"serving availability evaluations on http://{host}:{port} "
            f"({args.shards} consistent-hash shards, each "
            f"{config.workers} workers, {solver_side}, "
            f"cache {config.cache_size}; Ctrl-C to stop)"
        )
        router.serve_forever()
        return 0
    server = AvailabilityServer(config)
    host, port = server.address
    reporter.line(
        f"serving availability evaluations on http://{host}:{port} "
        f"({config.workers} workers, {solver_side}, "
        f"cache {config.cache_size}, "
        f"max batch {config.max_batch}; Ctrl-C to stop)"
    )
    server.serve_forever()
    return 0


def _cmd_failover(args: argparse.Namespace) -> int:
    from repro.chaos.failover import run_failover_drill

    reporter = _reporter(args)
    if args.selfmodel:
        return _cmd_failover_selfmodel(args, reporter)
    if args.measurement and args.probes <= 0:
        reporter.line(
            "error: --measurement requires --probes > 0 "
            "(a probe-free drill measures nothing)"
        )
        return 2
    report = run_failover_drill(
        n_shards=args.shards,
        requests=args.requests,
        kills=args.kills,
        seed=args.seed,
        probes=args.probes,
        trace_dir=args.trace_dir,
    )
    reporter.line(
        f"failover drill: {report.succeeded}/{report.requests} requests "
        f"succeeded across {report.kills} shard kill(s) "
        f"(seed {report.seed}, {report.n_shards} shards)"
    )
    for kill in report.kill_events:
        reporter.line(
            f"  killed {kill['shard']} before request "
            f"#{kill['request_index']}; respawned and re-admitted"
        )
    reporter.line(
        f"ring re-admitted {report.ring_size_after}/{report.n_shards} "
        f"shards; client retries used: {report.client_retries}"
    )
    if report.measurement is not None:
        m = report.measurement
        reporter.line(
            f"availability measurement: {m['deterministic']['n_probes']} "
            f"probes, {m['probe_failures']} failed "
            f"(probe availability {m['probe_availability']:.4f}); "
            f"{m['deterministic']['shard_episode_count']} shard outage "
            f"episode(s)"
        )
    _write_artifacts(
        reporter,
        (args.report, report.to_dict(), "report"),
        (args.measurement, report.measurement, "measurement report"),
    )
    if args.trace_dir:
        reporter.line(
            f"per-process traces in {args.trace_dir} "
            f"(render: repro obs report --cluster {args.trace_dir})"
        )
    reporter.record(command="failover", **report.deterministic_dict())
    reporter.finish()
    return 0 if report.failed == 0 else 1


def _cmd_failover_selfmodel(
    args: argparse.Namespace, reporter: "Reporter"
) -> int:
    """One-shot paper loop: drill -> measure -> fit -> predict -> compare."""
    from repro.selfmodel import render_prediction_report, run_selfmodel_drill

    outcome = run_selfmodel_drill(
        n_shards=args.shards,
        requests=args.requests,
        kills=max(args.kills, 1),
        seed=args.seed,
        probes=args.probes or 8,
        quorum=args.quorum,
        trace_dir=args.trace_dir,
    )
    drill = outcome["drill"]
    prediction = outcome["prediction"]
    reporter.line(
        f"failover drill: {drill.succeeded}/{drill.requests} requests "
        f"succeeded across {drill.kills} shard kill(s) "
        f"(seed {drill.seed}, {drill.n_shards} shards)"
    )
    reporter.line(render_prediction_report(prediction))
    _write_artifacts(
        reporter,
        (args.report, drill.to_dict(), "drill report"),
        (args.measurement, drill.measurement, "measurement report"),
        (args.prediction, prediction, "prediction report"),
    )
    reporter.record(
        command="failover-selfmodel", **prediction["deterministic"]
    )
    reporter.finish()
    agreed = prediction["validation"]["verdict"] == "agree"
    return 0 if drill.failed == 0 and agreed else 1


def _cmd_selfmodel(args: argparse.Namespace) -> int:
    """Fit / predict / validate against an existing measurement report."""
    from repro.selfmodel import (
        ClusterTopology,
        fit_parameters,
        predict_availability,
        render_prediction_report,
        validate_prediction,
    )

    reporter = _reporter(args)
    measurement = artifacts.load(args.measurement, "measurement")
    if args.selfmodel_command == "fit":
        fitted = fit_parameters(measurement, confidence=args.confidence)
        reporter.line(fitted.summary())
        _write_artifacts(
            reporter, (args.out, fitted.to_dict(), "fit artifact")
        )
        reporter.finish(command="selfmodel-fit", **fitted.to_dict())
        return 0

    n_shards = args.shards or int(measurement.get("n_shards") or 0)
    topology = ClusterTopology(
        n_shards=n_shards, quorum=args.quorum, source="measurement"
    )
    if args.selfmodel_command == "predict":
        fitted = fit_parameters(measurement, confidence=args.confidence)
        prediction = predict_availability(
            topology, fitted, measurement=measurement
        )
        prediction["validation"] = validate_prediction(
            prediction, measurement, confidence=args.confidence
        )
        reporter.line(render_prediction_report(prediction))
        _write_artifacts(
            reporter, (args.out, prediction, "prediction report")
        )
        reporter.record(
            command="selfmodel-predict", **prediction["deterministic"]
        )
        reporter.finish()
        return 0

    # validate: against a stored prediction, or fit+predict on the fly.
    if args.prediction:
        prediction = artifacts.load(args.prediction, "selfmodel-prediction")
    else:
        fitted = fit_parameters(measurement, confidence=args.confidence)
        prediction = predict_availability(
            topology, fitted, measurement=measurement
        )
    validation = validate_prediction(
        prediction, measurement, confidence=args.confidence
    )
    measured = validation["measured"]
    reporter.line(
        f"predicted availability interval: "
        f"[{validation['predicted_interval'][0]:.6f}, "
        f"{validation['predicted_interval'][1]:.6f}]"
    )
    reporter.line(
        f"measured probe availability: "
        f"{measured['probe_availability']:.6f} "
        f"[{measured['interval'][0]:.6f}, {measured['interval'][1]:.6f}] "
        f"({measured['n_probes']} probes)"
    )
    if validation["model"]["mttr_seconds"] is not None:
        reporter.line(
            f"MTTR: model {validation['model']['mttr_seconds']:.3f} s vs "
            f"measured {measured['mttr_seconds'] or float('nan'):.3f} s"
        )
    for note in validation["notes"]:
        reporter.line(f"note: {note}")
    reporter.line(f"verdict: {validation['verdict'].upper()}")
    reporter.finish(command="selfmodel-validate", **validation)
    return 0 if validation["verdict"] == "agree" else 1


class _ReporterParser(argparse.ArgumentParser):
    """Argparse parser whose errors go through the obs Reporter.

    Unknown subcommands and bad flags used to bypass the library's
    no-bare-output policy by printing straight to stderr; this routes
    them through :class:`~repro.obs.console.Reporter` like every other
    piece of CLI output (same stream, same discipline), then exits with
    the conventional argparse status 2.
    """

    def error(self, message: str) -> NoReturn:
        from repro.obs.console import Reporter

        reporter = Reporter(stream=sys.stderr)
        reporter.line(self.format_usage().rstrip())
        reporter.line(f"{self.prog}: error: {message}")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _ReporterParser(
        prog="repro-avail",
        description=(
            "Availability modeling for an application server "
            "(reproduction of Tang et al., DSN 2004)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record the run as a JSONL trace of spans and events",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the run's metrics in Prometheus text format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one configuration")
    _add_config_arguments(p)
    _add_json_argument(p)
    p.add_argument("--fitted", default=None, metavar="FILE",
                   help="solve the fitted cluster selfmodel from this "
                        "artifact (prediction/fit/measurement/drill "
                        "JSON) instead of a paper configuration")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table2", help="reproduce Table 2")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("table3", help="reproduce Table 3")
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("sweep", help="Figs. 5/6 Tstart_long sweep")
    _add_config_arguments(p)
    _add_json_argument(p)
    p.add_argument("--start", type=float, default=None,
                   help="sweep start (default 0.5; with --fitted, "
                        "0.25x the fitted point)")
    p.add_argument("--stop", type=float, default=None,
                   help="sweep stop (default 3.0; with --fitted, "
                        "4x the fitted point)")
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--fitted", default=None, metavar="FILE",
                   help="sweep a parameter of the fitted cluster "
                        "selfmodel loaded from this artifact")
    p.add_argument("--parameter", default=None,
                   help="with --fitted: fitted parameter to sweep "
                        "(default Mu_restore)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("uncertainty", help="Figs. 7/8 uncertainty analysis")
    _add_config_arguments(p)
    _add_json_argument(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fitted", default=None, metavar="FILE",
                   help="propagate the fitted cluster selfmodel's rate "
                        "intervals instead of the paper's ranges")
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("campaign", help="simulated fault-injection campaign")
    p.add_argument("--injections", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("longevity", help="simulated stability test")
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_longevity)

    p = sub.add_parser("risk", help="annual downtime distribution / SLA risk")
    _add_config_arguments(p)
    p.add_argument("--years", type=int, default=20_000)
    p.add_argument("--sla", type=float, default=5.25,
                   help="SLA budget in minutes/year (default: five 9s)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser(
        "assess", help="full availability assessment report"
    )
    _add_config_arguments(p)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--years", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=2004)
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser(
        "mission", help="interval availability over finite missions "
        "(HADB pair model)"
    )
    p.add_argument("--hours", type=float, default=2190.0)
    p.add_argument("--missions", type=int, default=300)
    p.add_argument("--nines", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_mission)

    p = sub.add_parser("plan", help="smallest shape for a nines target")
    p.add_argument("--nines", type=float, default=5.0)
    p.add_argument("--max-instances", type=int, default=12)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "serve", help="run the batching availability-evaluation server"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 picks a free port (default 8080)")
    p.add_argument("--workers", type=int, default=2,
                   help="batch-dispatch worker threads (default 2)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="LRU solve-cache entries (default 1024)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="largest coalesced batch (default 32)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="pending-request bound before 429 shedding "
                        "(default 256)")
    p.add_argument("--cache-file", default=None,
                   help="JSONL spill/warm-start file for the solve cache")
    p.add_argument("--chaos", action="store_true",
                   help="enable the fault-injection harness and the "
                        "/chaos/arm and /chaos/status endpoints "
                        "(testing only)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="seed for the chaos injector's RNG streams")
    p.add_argument("--chaos-stall-ms", type=float, default=50.0,
                   help="default stall injected at delay-style points "
                        "(default 50 ms)")
    p.add_argument("--chaos-stall-rate", type=float, default=0.0,
                   help="background scheduler.stall firing probability "
                        "in [0, 1]; 1.0 stalls every dispatch — the "
                        "deterministic service-rate knob metastable "
                        "campaigns use (requires --chaos; default 0)")
    p.add_argument("--worker-processes", type=int, default=0,
                   help="pre-forked solver worker processes; 0 solves "
                        "in-process on the dispatch threads (default 0)")
    p.add_argument("--shards", type=int, default=1,
                   help="consistent-hash shard processes behind a "
                        "router; 1 runs a single server (default 1)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "failover", help="seeded cluster shard-kill drill: every request "
        "must survive failover"
    )
    p.add_argument("--shards", type=int, default=4,
                   help="shard processes in the drill cluster (default 4)")
    p.add_argument("--requests", type=int, default=32,
                   help="client requests in the drill (default 32)")
    p.add_argument("--kills", type=int, default=1,
                   help="seeded shard kills injected (default 1)")
    p.add_argument("--seed", type=int, default=2004,
                   help="drill seed; same seed, same drill (default 2004)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the full drill report as JSON")
    p.add_argument("--probes", type=int, default=0,
                   help="availability probes interleaved with the "
                        "workload; 0 disables measurement (default 0)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="collect per-process distributed traces here "
                        "(render with: obs report --cluster DIR)")
    p.add_argument("--measurement", default=None, metavar="FILE",
                   help="write the availability measurement report as "
                        "JSON (requires --probes > 0)")
    p.add_argument("--selfmodel", action="store_true",
                   help="close the paper's loop in one shot: drill, "
                        "measure, fit the cluster model's rates, "
                        "predict availability, and compare against the "
                        "measured probes (forces kills/probes >= 1)")
    p.add_argument("--quorum", type=int, default=1,
                   help="with --selfmodel: minimum serving shards for "
                        "the model's up states (default 1)")
    p.add_argument("--prediction", default=None, metavar="FILE",
                   help="with --selfmodel: write the prediction report "
                        "as JSON")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_failover)

    p = sub.add_parser(
        "monitor", help="probe a running server/cluster and report "
        "measured availability"
    )
    p.add_argument("url", help="base URL of the server or cluster router")
    p.add_argument("--probes", type=int, default=8,
                   help="synthetic solve probes to send (default 8)")
    p.add_argument("--interval-ms", type=float, default=100.0,
                   help="pause between probes (default 100 ms)")
    p.add_argument("--deadline", type=float, default=5.0,
                   help="per-probe deadline in seconds (default 5)")
    p.add_argument("--seed", type=int, default=2004,
                   help="campaign seed: names the probe trace ids "
                        "(default 2004)")
    p.add_argument("--min-failures", type=int, default=2,
                   help="consecutive failed probes that open an outage "
                        "episode (default 2)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the measurement report as JSON")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser(
        "chaos", help="live fault-injection campaign against the server "
        "(paper Section 4 methodology)"
    )
    p.add_argument("--injections", type=int, default=200,
                   help="number of fault injections (default 200)")
    p.add_argument("--seed", type=int, default=2004,
                   help="campaign seed; same seed, same campaign "
                        "(default 2004)")
    p.add_argument("--url", default=None,
                   help="base URL of a server running with --chaos; "
                        "omitted: self-host one for the campaign")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="confidence level for the Eq.1 coverage bound "
                        "(default 0.95)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the full campaign report as JSON")
    p.add_argument("--stall-ms", type=float, default=20.0,
                   help="scheduler.stall injection delay (default 20 ms)")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "metastable", help="retry-storm regime mapping and live "
        "trigger validation (metastable-failure suite)"
    )
    metastable_sub = p.add_subparsers(
        dest="metastable_command", required=True
    )

    def _add_map_arguments(mp: argparse.ArgumentParser) -> None:
        mp.add_argument("--loads", type=_grid_floats,
                        default="0.3,0.45,0.6,0.75,0.9",
                        help="offered-load grid, comma-separated "
                             "(default 0.3,0.45,0.6,0.75,0.9)")
        mp.add_argument("--budgets", type=_grid_ints, default="1,2,3,4,6",
                        help="retry-budget grid, comma-separated "
                             "(default 1,2,3,4,6)")
        mp.add_argument("--queue-depth", type=int, default=6,
                        help="model queue bound K (default 6)")
        mp.add_argument("--orbit-size", type=int, default=8,
                        help="model retry-orbit bound N (default 8)")
        mp.add_argument("--delta", type=float, default=4.0,
                        help="orbit retry rate relative to mu "
                             "(default 4.0 = (2 / backoff_cap) / mu "
                             "at the default campaign knobs)")
        mp.add_argument("--theta", type=float, default=0.8,
                        help="saturated-queue timeout rate relative to "
                             "mu (default 0.8 = (1 / deadline) / mu)")
        mp.add_argument("--horizon", type=float, default=10.0,
                        help="transient observation horizon in units "
                             "of 1/mu (default 10)")
        mp.add_argument("--threshold", type=float, default=0.3,
                        help="orbit-congestion fraction separating "
                             "storm from calm (default 0.3)")

    def _add_campaign_arguments(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--cells", type=_cells_arg, default=None,
                        metavar="LOAD:BUDGET,...",
                        help="grid cells to trigger live "
                             "(default 0.3:1,0.9:6)")
        cp.add_argument("--seed", type=int, default=2004,
                        help="campaign seed; derives every chaos, "
                             "workload and probe stream (default 2004)")

    p = metastable_sub.add_parser(
        "map", help="sweep the (load x retry-budget) grid and classify "
        "stable / vulnerable / metastable"
    )
    _add_map_arguments(p)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the regime-map artifact as JSON")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_metastable, metastable_command="map")

    p = metastable_sub.add_parser(
        "campaign", help="live load-spike trigger campaign against the "
        "real server (burst -> sustain -> release; probes decide "
        "recovered vs pinned)"
    )
    _add_campaign_arguments(p)
    p.add_argument("--stall-ms", type=float, default=80.0,
                   help="chaos scheduler.stall per dispatch — the "
                        "service-rate knob, mu = 1000/stall-ms "
                        "(default 80)")
    p.add_argument("--queue-limit", type=int, default=6,
                   help="server queue bound before 429 shedding "
                        "(default 6)")
    p.add_argument("--threads", type=int, default=24,
                   help="closed-loop workload client threads "
                        "(default 24)")
    p.add_argument("--deadline", type=float, default=0.1,
                   help="per-attempt client deadline in seconds "
                        "(default 0.1)")
    p.add_argument("--backoff-cap-ms", type=float, default=40.0,
                   help="client retry backoff cap (default 40 ms)")
    p.add_argument("--probes", type=int, default=8,
                   help="post-release monitor probes deciding the "
                        "outcome (default 8)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the campaign artifact as JSON")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_metastable, metastable_command="campaign")

    p = metastable_sub.add_parser(
        "validate", help="predicted-vs-observed verdict: join a regime "
        "map to a live campaign (exit 0 iff they agree)"
    )
    _add_map_arguments(p)
    _add_campaign_arguments(p)
    p.add_argument("--map", default=None, metavar="FILE",
                   help="regime-map artifact to validate against "
                        "(default: compute one with the grid flags)")
    p.add_argument("--campaign", default=None, metavar="FILE",
                   help="campaign artifact to validate (default: run "
                        "a live campaign with --cells/--seed)")
    _add_json_argument(p)
    p.set_defaults(func=_cmd_metastable, metastable_command="validate")

    p = sub.add_parser(
        "export-dot", help="print a model as a Graphviz digraph"
    )
    p.add_argument(
        "model", choices=["system", "hadb", "appserver"],
        help="which paper model to export",
    )
    p.add_argument("--instances", type=int, default=2)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser(
        "selfmodel", help="measurement -> model -> prediction loop over "
        "our own cluster (paper methodology, dogfooded)"
    )
    selfmodel_sub = p.add_subparsers(dest="selfmodel_command", required=True)
    for name, help_text in (
        ("fit", "fit the cluster model's rates from a measurement report"),
        ("predict", "fit, solve, and report predicted availability "
                    "(point + CI-propagated interval)"),
        ("validate", "agreement verdict: predicted interval vs measured "
                     "probe availability"),
    ):
        sp = selfmodel_sub.add_parser(name, help=help_text)
        sp.add_argument("--measurement", required=True, metavar="FILE",
                        help="measurement report JSON (failover "
                             "--measurement or monitor --report output)")
        sp.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level for fitted intervals "
                             "(default 0.95)")
        sp.add_argument("--shards", type=int, default=None,
                        help="override the topology's shard count "
                             "(default: the report's n_shards)")
        sp.add_argument("--quorum", type=int, default=1,
                        help="minimum serving shards for 'up' (default 1)")
        if name != "validate":
            sp.add_argument("--out", default=None, metavar="FILE",
                            help="write the artifact (fit parameters / "
                                 "prediction report) as JSON")
        else:
            sp.add_argument("--prediction", default=None, metavar="FILE",
                            help="validate this stored prediction report "
                                 "instead of fitting on the fly")
        _add_json_argument(sp)
        sp.set_defaults(func=_cmd_selfmodel)

    p = sub.add_parser(
        "obs", help="observability utilities (trace reporting)"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report", help="render a JSONL trace as a span-tree report"
    )
    p.add_argument("trace_file",
                   help="trace file written by --trace, or (with "
                        "--cluster) a directory of per-process traces")
    p.add_argument("--cluster", action="store_true",
                   help="merge a directory of per-process trace files "
                        "into cross-process span trees")
    p.add_argument("--trace-id", default=None,
                   help="with --cluster: render only this trace id")
    p.set_defaults(func=_cmd_obs_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro import obs

    parser = build_parser()
    args = parser.parse_args(argv)
    recorder = None
    previous = None
    if args.trace or args.metrics:
        sinks = []
        if args.trace:
            sinks.append(obs.JsonlSink(args.trace))
        recorder = obs.Recorder(sinks=tuple(sinks), keep_records=False)
        previous = obs.set_recorder(recorder)
    try:
        return args.func(args)
    except ReproError as exc:
        # Exit 2, not 1: the validate commands exit 1 for "disagree".
        Reporter(stream=sys.stderr).line(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (| head).
        # Not an error; exit quietly the way Unix tools do.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if recorder is not None:
            obs.set_recorder(previous)
            if args.metrics:
                obs.write_metrics(recorder.metrics, args.metrics)
            recorder.flush()
            recorder.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
