"""Cross-module integration tests: the paper's scenarios end to end."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.flow.blocks import build_figure3_schematic
from repro.flow.cosim import CoSimConfig, CoSimulation
from repro.flow.dataflow import DataflowEngine
from repro.rf.frontend import FrontendConfig
from repro.scenario import Scenario


class TestFigure5Mechanism:
    """The two failure modes of the channel-filter sweep."""

    def _ber(self, edge_hz, seed=0):
        cfg = TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=30,
            thermal_floor=True,
            frontend=replace(FrontendConfig(), lpf_edge_hz=edge_hz),
            scenario=Scenario.preset("adjacent-16db"),
            input_level_dbm=-60.0,
        )
        return WlanTestbench(cfg).measure_ber(n_packets=2, seed=seed).ber

    def test_too_narrow_filter_kills_signal(self):
        assert self._ber(3e6) > 0.3

    def test_nominal_filter_works(self):
        assert self._ber(8.6e6) < 0.01

    def test_too_wide_filter_admits_interferer(self):
        assert self._ber(25e6) > 0.3


class TestFigure6Mechanism:
    """Compression-point sensitivity with and without the interferer."""

    def _ber(self, p1db, scenario, seed=0):
        cfg = TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=30,
            thermal_floor=True,
            frontend=replace(FrontendConfig(), lna_p1db_dbm=p1db),
            scenario=scenario,
            input_level_dbm=-60.0,
        )
        return WlanTestbench(cfg).measure_ber(n_packets=2, seed=seed).ber

    def test_linear_lna_clean_with_adjacent(self):
        assert self._ber(-10.0, Scenario.preset("adjacent-16db")) < 0.01

    def test_compressed_lna_fails_with_adjacent(self):
        assert self._ber(-50.0, Scenario.preset("adjacent-16db")) > 0.3

    def test_without_interferer_same_p1db_is_fine(self):
        assert self._ber(-50.0, None) < 0.01


class TestCosimNoiseGapScenario:
    def test_paper_section_5_1_observation(self):
        """Co-sim without noise functions reports optimistic BER."""
        config = CoSimConfig(
            rate_mbps=24,
            psdu_bytes=40,
            input_level_dbm=-92.0,
            analog_substeps=1,
        )
        cs = CoSimulation(FrontendConfig(), config)
        system = cs.run_system_only(4, seed=7)
        cosim_plain = cs.run_cosim(4, seed=7)
        assert system.ber > cosim_plain.ber
        # Workaround restores pessimism.
        config_fix = replace(config, noise_workaround="random_functions")
        cs_fix = CoSimulation(FrontendConfig(), config_fix)
        cosim_fixed = cs_fix.run_cosim(4, seed=7)
        assert cosim_fixed.ber > cosim_plain.ber


class TestSchematicEquivalence:
    def test_figure3_schematic_matches_testbench(self):
        """The dataflow schematic and the imperative bench agree."""
        sch, meter = build_figure3_schematic(
            rate_mbps=24, psdu_bytes=40, input_level_dbm=-55.0
        )
        for seed in range(2):
            DataflowEngine(mode="compiled", seed=seed).run(sch)
        schematic_ber = meter.bit_errors / meter.bits_total

        bench = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-55.0,
            )
        )
        bench_ber = bench.measure_ber(n_packets=2, seed=0).ber
        assert schematic_ber == bench_ber == 0.0


class TestFullFlowSmoke:
    def test_netlist_to_ber(self):
        """Netlist a design, compile it, run it in the system bench."""
        from repro.flow.netlist import NetlistCompiler, frontend_to_netlist

        text = frontend_to_netlist(FrontendConfig(lna_p1db_dbm=-18.0))
        design = NetlistCompiler("ams").compile(text)
        cfg = TestbenchConfig(
            rate_mbps=24,
            psdu_bytes=30,
            thermal_floor=True,
            frontend=design.config,
            input_level_dbm=-55.0,
        )
        m = WlanTestbench(cfg).measure_ber(n_packets=1, seed=0)
        assert m.ber == 0.0
