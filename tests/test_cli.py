"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.instances == 2 and args.pairs == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.workers == 2 and args.cache_size == 1024
        assert args.max_batch == 32 and args.cache_file is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "9090",
                "--workers", "4", "--cache-size", "64", "--max-batch", "8",
                "--queue-limit", "16", "--cache-file", "solves.jsonl",
            ]
        )
        assert args.host == "0.0.0.0" and args.port == 9090
        assert args.workers == 4 and args.cache_size == 64
        assert args.max_batch == 8
        assert args.queue_limit == 16 and args.cache_file == "solves.jsonl"


class TestParserErrors:
    """Parse failures exit 2 and route through the Reporter (stderr)."""

    def test_unknown_command_reports_via_reporter(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing leaks to stdout
        assert "usage:" in captured.err
        assert "repro-avail: error:" in captured.err
        assert "frobnicate" in captured.err

    @pytest.mark.parametrize(
        "argv", ["uncertainty --jobs 2", "metastable map --jobs 2"]
    )
    def test_removed_jobs_flag_is_a_usage_error(self, capsys, argv):
        """Both sample-axis commands run serially and take no ``--jobs``."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1, captured.err
        assert "unrecognized arguments: --jobs 2" in errors[0]

    def test_bad_flag_reports_via_reporter(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "not-a-number"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "solve --instances 0",
            "sweep --points 0",
            "uncertainty --samples 0",
            "uncertainty --samples 1",
            "risk --years 0",
            "plan --nines 0",
            "campaign --injections 0",
            "longevity --days -1",
            "mission --hours -5",
        ],
    )
    def test_invalid_value_is_one_error_line(self, capsys, argv):
        """A value the library refuses (a ``ReproError``) exits 2 with
        one ``error:`` line on stderr, not a traceback."""
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Config 1" in out and "Config 2" in out
        assert "YD due to AS" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Optimal: 4 instances / 4 pairs" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "Tstart_long" in out
        assert "crossover" in out

    def test_sweep_config2_retains_five_nines(self, capsys):
        assert main(
            ["sweep", "--instances", "4", "--pairs", "4", "--points", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "retained" in out

    def test_uncertainty(self, capsys):
        assert main(["uncertainty", "--samples", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "5.25" in out

    def test_campaign(self, capsys):
        assert main(["campaign", "--injections", "25", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIR" in out

    def test_longevity(self, capsys):
        assert main(["longevity", "--days", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "failure-rate bound" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestJsonOutput:
    def test_solve_json(self, capsys):
        assert main(["solve", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "solve"
        assert 0.0 < payload["availability"] < 1.0
        assert "yearly_downtime_minutes" in payload
        assert "submodels" in payload

    def test_sweep_json(self, capsys):
        assert main(["sweep", "--points", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sweep"
        assert len(payload["points"]) == 4

    def test_uncertainty_json(self, capsys):
        assert main(
            ["uncertainty", "--samples", "30", "--seed", "1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "uncertainty"
        assert payload["minimum"] <= payload["median"] <= payload["maximum"]

    def test_json_output_is_pure(self, capsys):
        # --json must emit exactly one JSON document, no stray text.
        assert main(["solve", "--json"]) == 0
        out = capsys.readouterr().out
        json.loads(out)  # whole stream parses


class TestTracing:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace
        from repro.obs.sinks import TRACE_SCHEMA_VERSION, trace_schema_version

        trace = tmp_path / "run.jsonl"
        assert main(
            ["--trace", str(trace), "solve"]
        ) == 0
        records = load_trace(trace)
        assert trace_schema_version(records) == TRACE_SCHEMA_VERSION
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert "hierarchy.solve_batch" in names
        assert "hierarchy.submodel" in names

    def test_uncertainty_trace_covers_pipeline(self, tmp_path, capsys):
        from repro.obs import load_trace

        trace = tmp_path / "run.jsonl"
        assert main(
            ["--trace", str(trace),
             "uncertainty", "--samples", "30", "--seed", "1"]
        ) == 0
        records = load_trace(trace)
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"uncertainty.run", "uncertainty.sample",
                "uncertainty.solve", "uncertainty.summarize",
                "ctmc.batch_availability"} <= names

    def test_metrics_written_in_prometheus_format(self, tmp_path, capsys):
        metrics = tmp_path / "run.prom"
        assert main(
            ["--metrics", str(metrics),
             "uncertainty", "--samples", "30", "--seed", "1"]
        ) == 0
        text = metrics.read_text()
        assert "# TYPE ctmc_pattern_cache_total counter" in text

    def test_recorder_uninstalled_after_run(self, tmp_path, capsys):
        from repro import obs
        from repro.obs.recorder import NULL_RECORDER

        assert main(["--trace", str(tmp_path / "t.jsonl"), "solve"]) == 0
        assert obs.get_recorder() is NULL_RECORDER

    def test_obs_report_renders_span_tree(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["--trace", str(trace), "solve"]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "hierarchy.solve_batch" in out


class TestImportGraph:
    def test_solve_loads_no_analysis_stack(self):
        """A fresh ``import repro.cli``, and a ``solve --json`` after it,
        load none of ``repro.analysis``, ``estimation``, ``sensitivity``
        or ``simulation``: only the table and sweep commands use them,
        and they import them when they run."""
        script = textwrap.dedent(
            """
            import contextlib
            import io
            import sys

            STACK = ("analysis", "estimation", "sensitivity", "simulation")

            def loaded():
                return sorted(
                    name for name in sys.modules
                    if name.split(".")[0] == "repro"
                    and name.split(".")[1:2] in [[p] for p in STACK]
                )

            import repro.cli

            print(loaded())
            with contextlib.redirect_stdout(io.StringIO()):
                assert repro.cli.main(["solve", "--json"]) == 0
            print(loaded())
            """
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src if not path else os.pathsep.join([src, path]),
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines() == ["[]", "[]"]
