"""Tests for the signal-level probe layer (repro.obs.probes).

Covers the bounded-memory summaries (power, PAPR, EVM, mask, PSD,
reservoir constellations), the snapshot/merge determinism contract that
makes serial, parallel and faulted-retried runs byte-identical, the
probes-off bit-identity guarantee, run-store persistence, report
rendering, and the regression-gate hygiene around probe telemetry.
"""

import json

import numpy as np
import pytest

from repro import obs, perf
from repro.obs.probes import (
    PROBE_PRESETS,
    ProbeConfig,
    ProbeRegistry,
    ccdf_rows,
    evm_rows,
    probe_preset,
    render_spectrum_ascii,
    waterfall_rows,
)


def _registry(preset="basic"):
    return ProbeRegistry(probe_preset(preset))


@pytest.fixture
def ambient_probes():
    """Install a fresh enabled registry; restore the previous one."""
    registry = _registry("full")
    with obs.telemetry_scope(probes=registry):
        yield registry


class TestPresets:
    def test_off_by_default(self):
        assert not ProbeConfig().enabled
        assert not ProbeRegistry().enabled
        assert not PROBE_PRESETS["off"].enabled

    def test_presets(self):
        assert probe_preset("basic").enabled
        full = probe_preset("full")
        assert full.psd and full.constellation

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            probe_preset("bogus")


class TestTapSummaries:
    def test_power_of_known_signal(self):
        reg = _registry()
        # 0 dBm = 1 mW = amplitude sqrt(0.001) in the 1-ohm convention.
        samples = np.full(4096, np.sqrt(1e-3), dtype=complex)
        reg.tap("tx", samples, 20e6)
        assert reg.kpis()["probe.power_dbm[tx]"] == pytest.approx(0.0, abs=1e-9)
        assert reg.kpis()["probe.papr_db[tx]"] == pytest.approx(0.0, abs=1e-9)

    def test_papr_of_two_level_signal(self):
        reg = _registry()
        samples = np.ones(1000, dtype=complex)
        samples[::10] = 2.0  # peak 4x the floor power
        reg.tap("tx", samples, 20e6)
        p_avg = np.mean(np.abs(samples) ** 2)
        expected = 10 * np.log10(4.0 / p_avg)
        assert reg.kpis()["probe.papr_db[tx]"] == pytest.approx(
            expected, abs=1e-6
        )

    def test_disabled_registry_is_inert(self):
        reg = ProbeRegistry()
        reg.tap("tx", np.ones(64, dtype=complex), 20e6)
        reg.tap_evm("eq", np.ones(16, dtype=complex),
                    np.ones(16, dtype=complex), "BPSK")
        assert not reg.has_data()
        assert reg.export() == {}
        assert reg.kpis() == {}

    def test_evm_least_squares_gain_removal(self):
        reg = _registry()
        rng = np.random.default_rng(0)
        ref = (rng.choice([-1, 1], 2048) + 1j * rng.choice([-1, 1], 2048))
        ref = ref / np.sqrt(2)
        # A pure complex gain must not register as error vector.
        reg.tap_evm("eq", 0.5 * np.exp(0.3j) * ref, ref, "QPSK")
        assert reg.kpis()["probe.evm_rms[QPSK]"] == pytest.approx(0.0, abs=1e-12)

    def test_evm_matches_known_noise(self):
        reg = _registry()
        rng = np.random.default_rng(1)
        n = 8192
        ref = (rng.choice([-1, 1], n) + 1j * rng.choice([-1, 1], n)) / np.sqrt(2)
        n0 = 1e-2
        noise = np.sqrt(n0 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        reg.tap_evm("eq", ref + noise, ref, "QPSK")
        assert reg.kpis()["probe.evm_rms[QPSK]"] == pytest.approx(
            np.sqrt(n0), rel=0.05
        )

    def test_mask_clean_vs_compressed(self):
        from repro.dsp.transmitter import Transmitter, TxConfig
        from repro.rf.nonlinearity import RappNonlinearity
        from repro.rf.signal import dbm_to_watts

        tx = Transmitter(TxConfig(rate_mbps=12, oversample=4))
        wave = tx.transmit(np.arange(60, dtype=np.uint8))
        fs = tx.config.sample_rate
        reg = _registry()
        reg.tap_mask("tx", wave, fs)
        assert reg.kpis()["probe.mask_margin_db[tx]"] >= 0.0
        assert reg.kpis()["probe.mask_pass[tx]"] == 1.0

        scale = np.sqrt(dbm_to_watts(0.0) / np.mean(np.abs(wave) ** 2))
        pa = RappNonlinearity(gain_db=0.0, osat_dbm=0.0, smoothness=2.0)
        reg2 = _registry()
        reg2.tap_mask("tx", pa.apply(wave * scale), fs)
        assert reg2.kpis()["probe.mask_margin_db[tx]"] < 0.0
        assert reg2.kpis()["probe.mask_pass[tx]"] == 0.0

    def test_budget_waterfall_matches_friis(self):
        from repro.rf.frontend import FrontendConfig

        cfg = FrontendConfig()
        reg = _registry()
        reg.note_budget(cfg)
        budget = reg.export()["budget"]
        assert budget["input"]["gain_db"] == 0.0
        assert budget["input"]["nf_db"] == 0.0
        # Cumulative gain after the LNA is the LNA gain itself, and the
        # cascade NF at that point is the LNA noise figure (Friis).
        assert budget["lna"]["gain_db"] == pytest.approx(cfg.lna_gain_db)
        assert budget["lna"]["nf_db"] == pytest.approx(cfg.lna_nf_db)
        # NF can only grow down the cascade.
        assert budget["mixer2"]["nf_db"] >= budget["mixer1"]["nf_db"] >= (
            budget["lna"]["nf_db"]
        )


class TestSnapshotMerge:
    def test_split_taps_merge_to_single_pass(self):
        rng = np.random.default_rng(7)
        samples = (rng.standard_normal(4096)
                   + 1j * rng.standard_normal(4096)) * 1e-3
        whole = _registry("full")
        whole.tap("tx", samples, 20e6)

        a, b = _registry("full"), _registry("full")
        a.tap("tx", samples[:1500], 20e6)
        b.tap("tx", samples[1500:], 20e6)
        a.merge(b.snapshot())
        ka, kw = a.kpis(), whole.kpis()
        assert ka["probe.power_dbm[tx]"] == pytest.approx(
            kw["probe.power_dbm[tx]"], abs=1e-9
        )
        # PAPR is a per-burst statistic (each tap normalizes to its own
        # average), so only the merged peak/energy accounting must agree.
        sa = a.export()["stages"]["tx"]
        sw = whole.export()["stages"]["tx"]
        assert sa["peak_w"] == sw["peak_w"]
        assert sa["n_samples"] == sw["n_samples"]
        assert sa["energy_w"] == pytest.approx(sw["energy_w"], rel=1e-12)

    def test_merge_order_independent_for_reservoir(self):
        cfg = probe_preset("full")
        rng = np.random.default_rng(3)

        def feed(reg, tags):
            for tag in tags:
                ref = (rng.choice([-1, 1], 48)
                       + 1j * rng.choice([-1, 1], 48)) / np.sqrt(2)
                reg.tap_evm("eq", ref, ref, "QPSK", tag=tag)

        # Same packet set, partitioned two different ways.
        rng = np.random.default_rng(3)
        one = ProbeRegistry(cfg)
        feed(one, ["p0", "p1", "p2", "p3"])

        rng = np.random.default_rng(3)
        left, right = ProbeRegistry(cfg), ProbeRegistry(cfg)
        feed(left, ["p0", "p1"])
        feed(right, ["p2", "p3"])
        right.merge(left.snapshot())
        assert json.dumps(one.export(), sort_keys=True) == json.dumps(
            right.export(), sort_keys=True
        )

    def test_merge_empty_snapshot_is_noop(self):
        reg = _registry()
        reg.tap("tx", np.ones(64, dtype=complex), 20e6)
        before = json.dumps(reg.export(), sort_keys=True)
        reg.merge(ProbeRegistry(probe_preset("basic")).snapshot())
        assert json.dumps(reg.export(), sort_keys=True) == before


def _bench(n_packets=6, **overrides):
    from repro.core.testbench import TestbenchConfig, WlanTestbench

    cfg = TestbenchConfig(
        rate_mbps=12, psdu_bytes=24, snr_db=10.0, **overrides
    )
    return WlanTestbench(cfg), n_packets


class TestDeterminism:
    def test_probes_off_bit_identical_to_probes_on(self):
        bench, n = _bench()
        off = bench.measure_ber(n_packets=n, seed=5, chunk_size=2)

        registry = _registry("full")
        with obs.telemetry_scope(probes=registry):
            on = bench.measure_ber(n_packets=n, seed=5, chunk_size=2)
        assert on.ber == off.ber
        assert on.per == off.per
        assert registry.has_data()

    def test_serial_vs_parallel_exports_byte_identical(self):
        bench, n = _bench()

        def run(jobs):
            registry = _registry("full")
            with obs.telemetry_scope(probes=registry):
                bench.measure_ber(n_packets=n, seed=5, jobs=jobs, chunk_size=2)
            return json.dumps(registry.export(), sort_keys=True)

        assert run(1) == run(2)

    def test_faulted_retried_run_export_matches_clean(self):
        bench, n = _bench()

        def run(spec):
            registry = _registry("full")
            plan = perf.parse_fault_spec(spec) if spec else None
            with obs.telemetry_scope(probes=registry), \
                    perf.options_scope(retries=2, fault_plan=plan):
                bench.measure_ber(n_packets=n, seed=5, chunk_size=2)
            return json.dumps(registry.export(), sort_keys=True)

        assert run(None) == run("ber/fail:1@0")


class TestStoreRoundTrip:
    def test_probes_persist_and_reload(self, tmp_path):
        from repro.obs.store import RunStore

        reg = _registry("full")
        reg.tap("tx", np.full(256, 1e-2, dtype=complex), 20e6)
        store = RunStore(tmp_path)
        writer = store.create(kind="demo", name="probe-demo", seed=0)
        writer.add_probes(reg.export())
        writer.add_kpis(reg.kpis())
        record = writer.finalize(tracer=None, registry=None)
        assert (record.path / "probes.json").exists()

        loaded = store.load_run(record.run_id)
        assert loaded.integrity_ok
        assert loaded.probes == record.probes
        assert "tx" in loaded.probes["stages"]

    def test_probe_free_run_digest_unchanged(self, tmp_path):
        """No probes.json and legacy digests for probe-less runs."""
        from repro.obs.store import RunStore, _content_digest

        store = RunStore(tmp_path)
        writer = store.create(kind="demo", name="plain", seed=0)
        writer.add_kpis({"ber": 1e-3})
        record = writer.finalize(tracer=None, registry=None)
        assert not (record.path / "probes.json").exists()
        legacy = _content_digest(
            record.manifest, record.metrics, record.kpis,
            record.curves, record.tables,
        )
        assert record.digest == legacy


class TestRenderers:
    def _export(self):
        reg = _registry("full")
        rng = np.random.default_rng(0)
        sig = (rng.standard_normal(4096)
               + 1j * rng.standard_normal(4096)) * 1e-3
        reg.tap("tx", sig, 20e6)
        ref = (rng.choice([-1, 1], 512)
               + 1j * rng.choice([-1, 1], 512)) / np.sqrt(2)
        reg.tap_evm("eq", ref + 0.01 * sig[:512], ref, "QPSK")
        return reg.export()

    def test_waterfall_rows(self):
        headers, rows = waterfall_rows(self._export())
        assert headers[0] == "stage"
        assert rows and rows[0][0] == "tx"

    def test_evm_rows(self):
        headers, rows = evm_rows(self._export())
        assert rows and rows[0][0] == "QPSK"

    def test_ccdf_rows(self):
        headers, rows = ccdf_rows(self._export(), "tx")
        assert rows and rows[-1][0] == "peak"

    def test_spectrum_ascii(self):
        art = render_spectrum_ascii(self._export(), "tx")
        assert "#" in art and "MHz" in art

    def test_report_section_renders(self):
        from repro.obs.report import render_markdown, run_sections
        from repro.obs.store import RunStore

        import tempfile
        with tempfile.TemporaryDirectory() as d:
            store = RunStore(d)
            writer = store.create(kind="demo", name="sectioned", seed=0)
            writer.add_probes(self._export())
            record = writer.finalize(tracer=None, registry=None)
        sections = [s for s in run_sections(record) if s is not None]
        titles = [s.title for s in sections]
        assert "Signal probes" in titles
        text = render_markdown(f"Run {record.run_id}", sections)
        assert "Signal probes" in text

    def test_report_section_absent_without_probes(self):
        from repro.obs.report import _probes_section
        from repro.obs.store import RunStore

        import tempfile
        with tempfile.TemporaryDirectory() as d:
            store = RunStore(d)
            writer = store.create(kind="demo", name="plain", seed=0)
            record = writer.finalize(tracer=None, registry=None)
        assert _probes_section(record) is None


class TestRegressionHygiene:
    def _record(self, store, jobs, probe_power):
        registry = obs.MetricsRegistry()
        registry.gauge("jobs_requested", "requested parallelism").set(jobs)
        registry.gauge("probe_power_dbm", "stage power").set(
            probe_power, stage="tx"
        )
        writer = store.create(kind="demo", name="hyg", seed=0)
        writer.add_kpis({"ber": 1e-3})
        return writer.finalize(tracer=None, registry=registry)

    def test_probe_and_jobs_metrics_ignored_by_default(self, tmp_path):
        from repro.obs.regress import compare_runs
        from repro.obs.store import RunStore

        store = RunStore(tmp_path)
        serial = self._record(store, jobs=1, probe_power=-55.0)
        parallel = self._record(store, jobs=4, probe_power=-54.0)
        verdict = compare_runs(serial, parallel)
        assert verdict.passed

    def test_probe_kpi_gated_and_tolerated(self, tmp_path):
        from repro.obs.regress import RegressionConfig, compare_runs
        from repro.obs.store import RunStore

        store = RunStore(tmp_path)

        def rec(margin):
            writer = store.create(kind="demo", name="kpi", seed=0)
            writer.add_kpis({"probe.mask_margin_db[tx]": margin})
            return writer.finalize(tracer=None, registry=None)

        base, cand = rec(0.0), rec(-0.4)
        assert not compare_runs(base, cand).passed
        config = RegressionConfig(probe_kpi_abs_tol=0.5)
        assert compare_runs(base, cand, config).passed


class TestFlowTaps:
    def test_probed_wires_feed_registry(self, ambient_probes):
        from repro.flow.dataflow import (
            Block,
            DataflowEngine,
            FunctionBlock,
            Schematic,
        )

        class ConstSource(Block):
            inputs = ()
            outputs = ("out",)

            def __init__(self, values):
                self.values = np.asarray(values)

            def work(self, inputs, ctx):
                return {"out": self.values}

        sch = Schematic("toy")
        sch.add("src", ConstSource(np.ones(64, dtype=complex)))
        sch.add("double", FunctionBlock(lambda x: 2 * x))
        sch.connect("src.out", "double.in")
        sch.probe("double.out")
        DataflowEngine(mode="compiled", seed=0).run(sch)
        assert "flow:toy.double.out" in ambient_probes.export()["stages"]

    def test_figure3_default_probes(self, ambient_probes):
        from repro.flow.blocks import build_figure3_schematic
        from repro.flow.dataflow import DataflowEngine

        sch, _ = build_figure3_schematic(psdu_bytes=20)
        DataflowEngine(mode="compiled", seed=1).run(sch)
        stages = ambient_probes.export()["stages"]
        assert "flow:figure3_wlan_rf_receiver.antenna.out" in stages
        assert "flow:figure3_wlan_rf_receiver.rf_frontend.out" in stages


class TestCliPlumbing:
    def test_normalize_probe_flag(self):
        from repro.cli import _normalize_probe_flag

        assert _normalize_probe_flag(["--probes", "fig5"]) == [
            "--probes", "basic", "fig5",
        ]
        assert _normalize_probe_flag(["--probes", "full", "fig5"]) == [
            "--probes", "full", "fig5",
        ]
        assert _normalize_probe_flag(["fig5"]) == ["fig5"]
        assert _normalize_probe_flag(["--probes"]) == ["--probes", "basic"]

    def test_probe_subcommand_stores_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.store import RunStore

        code = main([
            "--store", str(tmp_path), "probe",
            "--packets", "1", "--bytes", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget waterfall" in out
        store = RunStore(tmp_path)
        record = store.load_run(store.latest().run_id)
        assert record.probes["stages"]
        assert any(k.startswith("probe.") for k in record.kpis)


class TestQaProbeChecks:
    def test_probe_checks_pass_quick(self):
        from repro.qa.harness import run_probe_checks

        checks = run_probe_checks(seed=0, quick=True)
        assert len(checks) == 6
        assert all(c.passed for c in checks)
        assert {c.section for c in checks} == {"probe"}
