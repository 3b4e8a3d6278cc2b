"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(subparsers.choices)
        assert commands == {
            "quickstart", "fig5", "fig6", "table2", "sensitivity",
            "flow", "netlist", "campaign", "profile", "runs", "report",
            "qa", "probe", "watch", "rare", "scenario",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.rate == 54
        assert args.level == -60.0


class TestCommands:
    def test_quickstart_clean_link(self, capsys):
        code = main(["quickstart", "--rate", "24", "--bytes", "60",
                     "--level", "-55"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0/480 bit errors" in out

    def test_quickstart_dead_link(self, capsys):
        code = main(["quickstart", "--rate", "54", "--bytes", "60",
                     "--level", "-99"])
        assert code == 1

    def test_netlist_emits_module(self, capsys):
        code = main(["netlist"])
        captured = capsys.readouterr()
        assert code == 0
        assert "module double_conversion_receiver" in captured.out
        assert "not supported in transient" in captured.err

    def test_netlist_spectre_target_silent(self, capsys):
        main(["netlist", "--target", "spectre"])
        assert capsys.readouterr().err == ""

    def test_table2_prints_slowdown(self, capsys):
        code = main(["table2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowdown" in out

    def test_sensitivity_single_rate(self, capsys):
        code = main(["sensitivity", "--rates", "24", "--packets", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_fig6_runs(self, capsys):
        code = main(["fig6", "--packets", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adjacent +16 dB" in out
        assert "frontend.lna_p1db_dbm" in out


class TestObservability:
    def test_trace_writes_manifest_and_spans(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        trace = tmp_path / "run.jsonl"
        code = main([
            "--trace", str(trace),
            "quickstart", "--rate", "24", "--bytes", "60", "--level", "-55",
        ])
        capsys.readouterr()
        assert code == 0
        records = read_jsonl(trace)
        assert records[0]["type"] == "manifest"
        assert records[0]["seed"] == 0
        assert records[0]["run_id"].startswith("repro-")
        spans = [r for r in records if r["type"] == "span"]
        assert any(r["name"] == "run:quickstart" for r in spans)

    def test_trace_captures_block_spans_and_progress(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        trace = tmp_path / "fig5.jsonl"
        code = main(["--trace", str(trace), "fig5", "--packets", "1"])
        capsys.readouterr()
        assert code == 0
        records = read_jsonl(trace)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "block:receiver" in span_names
        assert "block:rf_frontend" in span_names
        assert "sweep:point" in span_names
        progress = [
            r for r in records
            if r["type"] == "event" and r["name"] == "progress"
        ]
        by_stage = {}
        for r in progress:
            by_stage.setdefault(r["attributes"]["stage"], []).append(r)
        # One per sweep point, plus the per-chunk BER accumulation
        # events that feed live convergence tracking.
        assert len(by_stage["sweep"]) == 6  # six filter bandwidths
        assert all("ber" in r["attributes"] for r in by_stage["sweep"])
        assert len(by_stage["ber"]) == 6  # one chunk per point at 1 packet
        assert all(
            "bit_errors" in r["attributes"] for r in by_stage["ber"]
        )

    def test_metrics_json(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = main(["--metrics", str(metrics), "table2"])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["manifest"]["run_id"].startswith("repro-")
        wall = payload["metrics"]["cosim_wall_seconds"]
        phases = {
            (s["labels"]["mode"], s["labels"]["phase"])
            for s in wall["series"]
        }
        assert phases == {
            ("cosim", "stimulus"), ("cosim", "rf"), ("cosim", "dsp"),
            ("system", "stimulus"), ("system", "rf"), ("system", "dsp"),
        }
        assert payload["metrics"]["cosim_packets"]["kind"] == "counter"

    def test_profile_prints_block_table(self, capsys):
        code = main(["profile", "fig5", "--packets", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-block time breakdown (fig5)" in out
        assert "block" in out and "total [s]" in out and "share" in out
        assert "receiver" in out
        assert "rf_frontend" in out

    def test_disabled_instrumentation_bit_identical(self, capsys):
        main(["fig5", "--packets", "1"])
        plain = capsys.readouterr().out
        main(["profile", "fig5", "--packets", "1"])
        profiled = capsys.readouterr().out
        # The profiled run prints the identical experiment output (same
        # BER table line for line) before the breakdown.
        assert plain.strip() in profiled

    def test_tracer_restored_after_run(self, tmp_path, capsys):
        from repro import obs
        from repro.obs.tracer import NullTracer

        main(["--trace", str(tmp_path / "t.jsonl"), "netlist"])
        capsys.readouterr()
        assert isinstance(obs.get_tracer(), NullTracer)


class TestRunStoreCli:
    def _store_fig5(self, store, capsys):
        code = main(["--store", str(store), "fig5", "--packets", "1"])
        err = capsys.readouterr().err
        assert code == 0
        assert "run stored: fig5-" in err
        return store

    def test_store_creates_run_and_lists_it(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        code = main(["runs", "list", "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig5-" in out and "sweep" not in out.splitlines()[0]
        code = main(["runs", "show", "latest", "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "integrity" in out

    def test_self_diff_is_zero_and_passes(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        code = main(["runs", "diff", "latest", "latest",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 nonzero deltas" in out
        assert "0 over tolerance" in out

    def test_tampered_kpis_fail_diff(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        run_dir = next(p for p in store.iterdir() if p.is_dir())
        kpis_path = run_dir / "kpis.json"
        kpis = json.loads(kpis_path.read_text())
        key = sorted(kpis)[0]
        kpis[key] = kpis[key] + 0.25  # inject a BER regression
        kpis_path.write_text(json.dumps(kpis))
        code = main(["runs", "diff", "latest", "latest",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "integrity" in out

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        code = main(["runs", "diff", "latest", "nope-000",
                     "--store", str(store)])
        capsys.readouterr()
        assert code == 2

    def test_injected_abort_exits_70(self, tmp_path, capsys):
        code = main(["--store", str(tmp_path / "runs"),
                     "--resume", "--inject-faults", "sweep/abort:3",
                     "fig5", "--packets", "1"])
        err = capsys.readouterr().err
        assert code == 70
        assert "interrupted" in err

    def test_unrecovered_task_failure_exits_71(self, capsys):
        code = main(["--inject-faults", "sweep/fail:0",
                     "fig5", "--packets", "1"])
        err = capsys.readouterr().err
        assert code == 71
        assert "task failed after retries" in err
        assert "InjectedFault" in err

    def test_faulted_retry_run_diffs_clean_against_baseline(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "runs")
        assert main(["--store", store, "--seed", "7",
                     "fig5", "--packets", "1"]) == 0
        err = capsys.readouterr().err
        baseline = err.split("run stored: ")[1].split(" ")[0]
        assert main(["--store", store, "--seed", "7", "--jobs", "2",
                     "--retries", "1",
                     "--inject-faults", "sweep/fail:1@0,sweep/fail:3@0",
                     "fig5", "--packets", "1"]) == 0
        capsys.readouterr()
        code = main(["runs", "diff", baseline, "latest",
                     "--store", store, "--no-timing"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 nonzero deltas" in out

    def test_resume_after_interrupt_diffs_clean(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["--store", store, "--seed", "7",
                     "fig5", "--packets", "1"]) == 0
        err = capsys.readouterr().err
        baseline = err.split("run stored: ")[1].split(" ")[0]
        assert main(["--store", store, "--seed", "7", "--resume",
                     "--inject-faults", "sweep/abort:3",
                     "fig5", "--packets", "1"]) == 70
        capsys.readouterr()
        assert main(["--store", store, "--seed", "7", "--resume",
                     "fig5", "--packets", "1"]) == 0
        err = capsys.readouterr().err
        resumed = err.split("run stored: ")[1].split(" ")[0]
        code = main(["runs", "diff", baseline, resumed, "--store", store,
                     "--no-timing", "--no-metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 nonzero deltas" in out

    def test_gc_keeps_newest(self, tmp_path, capsys):
        store = tmp_path / "runs"
        self._store_fig5(store, capsys)
        code = main(["--store", str(store), "quickstart", "--rate", "24",
                     "--bytes", "60", "--level", "-55"])
        capsys.readouterr()
        assert code == 0
        code = main(["runs", "gc", "--keep", "1", "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed fig5-" in out
        code = main(["runs", "list", "--store", str(store)])
        out = capsys.readouterr().out
        assert "quickstart-" in out and "fig5-" not in out

    def test_report_markdown_and_chrome_trace(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        md = tmp_path / "report.md"
        ct = tmp_path / "trace.json"
        code = main(["report", "latest", "--store", str(store),
                     "--out", str(md), "--chrome-trace", str(ct)])
        capsys.readouterr()
        assert code == 0
        text = md.read_text()
        assert text.startswith("# Run fig5-")
        assert "| field | value |" in text
        doc = json.loads(ct.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "i") for e in doc["traceEvents"])

    def test_report_html(self, tmp_path, capsys):
        store = self._store_fig5(tmp_path / "runs", capsys)
        code = main(["report", "latest", "--html", "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "<table>" in out and "</html>" in out

    def test_profile_chrome_trace_export(self, tmp_path, capsys):
        ct = tmp_path / "profile-trace.json"
        code = main(["profile", "fig5", "--packets", "1",
                     "--chrome-trace", str(ct)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(ct.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "block:receiver" in names
        durations = [e["dur"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert durations and all(d >= 0 for d in durations)

    def test_ambient_writer_restored_after_run(self, tmp_path, capsys):
        from repro import obs

        self._store_fig5(tmp_path / "runs", capsys)
        assert obs.telemetry().writer is None
