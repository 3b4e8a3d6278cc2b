"""Tests for the WLAN system test bench (repro.core.testbench)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.fading import FadingChannel
from repro.channel.interference import InterferenceScenario
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.frontend import FrontendConfig, ideal_frontend_config


class TestDspOnlyBench:
    def test_high_snr_error_free(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=25.0)
        )
        m = tb.measure_ber(n_packets=3, seed=0)
        assert m.ber == 0.0
        assert m.packets == 3

    def test_low_snr_errors(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=54, psdu_bytes=40, snr_db=5.0)
        )
        m = tb.measure_ber(n_packets=3, seed=1)
        assert m.ber > 0.1

    def test_ber_monotone_in_snr(self):
        bers = []
        for snr in (6.0, 10.0, 14.0):
            tb = WlanTestbench(
                TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=snr)
            )
            bers.append(tb.measure_ber(n_packets=4, seed=2).ber)
        assert bers[0] >= bers[1] >= bers[2]

    def test_early_stop(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=54, psdu_bytes=40, snr_db=0.0)
        )
        m = tb.measure_ber(n_packets=50, seed=3, max_bit_errors=100)
        assert m.packets < 50

    def test_fading_channel_configured(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=6,
                psdu_bytes=40,
                snr_db=25.0,
                fading=FadingChannel(rms_delay_spread_s=50e-9),
            )
        )
        m = tb.measure_ber(n_packets=4, seed=4)
        # Most packets decode over a benign 50 ns channel at 6 Mbps.
        assert m.packets_lost <= 1


class TestEvmBench:
    @pytest.mark.parametrize("snr", [15.0, 25.0])
    def test_evm_tracks_snr(self, snr):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24, psdu_bytes=40, snr_db=snr, genie_rx=True
            )
        )
        e = tb.measure_evm(n_packets=3, seed=5)
        expected = 100.0 * 10 ** (-snr / 20.0)
        assert e.evm_percent == pytest.approx(expected, rel=0.2)

    def test_evm_db_property(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=30, snr_db=20.0,
                            genie_rx=True)
        )
        e = tb.measure_evm(n_packets=2, seed=6)
        assert e.evm_db == pytest.approx(20 * np.log10(e.evm_rms))
        assert e.n_symbols > 0

    def test_evm_through_practical_receiver(self):
        # Our receiver exposes equalized symbols, so EVM also works on the
        # practical (synchronized) receiver -- beyond what the paper could
        # capture from the SPW demo model.
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=22.0)
        )
        e = tb.measure_evm(n_packets=2, seed=7)
        assert 3.0 < e.evm_percent < 20.0


class TestRfBench:
    def test_clean_through_frontend(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-55.0,
            )
        )
        m = tb.measure_ber(n_packets=2, seed=8)
        assert m.ber == 0.0

    def test_weak_signal_degrades(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-85.0,
            )
        )
        m = tb.measure_ber(n_packets=3, seed=9)
        assert m.ber > 0.05

    def test_ideal_frontend_better_than_impaired(self):
        level = -78.0
        impaired = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54, psdu_bytes=40, thermal_floor=True,
                frontend=FrontendConfig(), input_level_dbm=level,
            )
        ).measure_ber(n_packets=4, seed=10)
        ideal = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54, psdu_bytes=40, thermal_floor=True,
                frontend=ideal_frontend_config(), input_level_dbm=level,
            )
        ).measure_ber(n_packets=4, seed=10)
        assert ideal.ber <= impaired.ber

    def test_adjacent_channel_oversampling_chosen(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                snr_db=25.0,
                interference=InterferenceScenario.adjacent(),
            )
        )
        # No front end: the bench must oversample on its own ("to fulfill
        # the sampling theorem").
        assert tb.oversample >= 4

    def test_interference_scenario_none_native_rate(self):
        tb = WlanTestbench(TestbenchConfig(rate_mbps=24, snr_db=20.0))
        assert tb.oversample == 1


class TestConfigValidation:
    """Bad configs fail at construction, not inside a pool worker."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("psdu_bytes", 0),
            ("psdu_bytes", -5),
            ("psdu_bytes", 4096),
            ("snr_db", float("nan")),
            ("snr_db", float("inf")),
            ("snr_db", float("-inf")),
            ("input_level_dbm", float("nan")),
            ("input_level_dbm", float("inf")),
            ("input_level_dbm", float("-inf")),
            ("guard_samples", -1),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestbenchConfig(**{field: value})

    def test_rejected_by_sweep_style_replace(self):
        with pytest.raises(ValueError, match="snr_db"):
            replace(TestbenchConfig(), snr_db=float("nan"))

    def test_valid_corners_accepted(self):
        TestbenchConfig(psdu_bytes=1, guard_samples=0)
        TestbenchConfig(psdu_bytes=4095, snr_db=None)
        TestbenchConfig(snr_db=-10.0, input_level_dbm=-100.0)


class TestFrontendReuse:
    def test_frontend_built_once_across_batches(self, monkeypatch):
        from repro.rf.frontend import DoubleConversionReceiver

        builds = []
        original = DoubleConversionReceiver.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DoubleConversionReceiver, "__init__", counting_init)
        bench = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
            )
        )
        for seed in range(3):
            rngs = [np.random.default_rng([seed, k]) for k in range(2)]
            bench.run_packet_batch(rngs)
        bench.run_packet(np.random.default_rng(9))
        assert len(builds) == 1

    def test_reused_frontend_matches_fresh_build(self):
        config = TestbenchConfig(
            rate_mbps=24, psdu_bytes=40, thermal_floor=True,
            frontend=FrontendConfig(),
        )
        bench = WlanTestbench(config)
        bench.run_packet(np.random.default_rng(1))
        again = bench.run_packet(np.random.default_rng(2))
        fresh = WlanTestbench(config).run_packet(np.random.default_rng(2))
        assert np.array_equal(again.rx_result.psdu, fresh.rx_result.psdu)
        assert again.bit_errors == fresh.bit_errors
