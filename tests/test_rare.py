"""Tests for rare-event BER acceleration (repro.perf.rare).

The estimator contract under test: importance sampling must be
*unbiased* (agree with closed-form oracles and plain Monte-Carlo in the
overlap regime), *diagnosable* (weight moments, ESS, variance-reduction
factor with known units), and *deterministic* (bit-identical across
jobs / batch / chunk scheduling, like every other harness in the repo).
"""

import numpy as np
import pytest

from repro import perf
from repro.core.metrics import binomial_confidence
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.perf import rare
from repro.perf.rare import (
    WeightedBerMeasurement,
    WeightedBerState,
    auto_boost_db,
    boost_for,
    dimension_capped_boost_db,
    ebn0_for_ber,
    measure_uncoded_ber,
    noise_log_weight,
    packet_noise_dimension,
    run_adaptive_sweep,
)
from repro.qa.oracles import theoretical_ber


def _states_equal(a: WeightedBerState, b: WeightedBerState) -> bool:
    return a == b  # dataclass: field-exact


def _genie_config(snr_db=2.0):
    return TestbenchConfig(
        rate_mbps=6, psdu_bytes=20, snr_db=snr_db, genie_rx=True
    )


class TestNoiseLogWeight:
    def test_zero_at_unit_boost(self):
        assert noise_log_weight(123.4, 512, 1.0) == 0.0

    def test_matches_density_ratio(self):
        # log w must equal the explicit CN density ratio p(x)/q(x)
        # evaluated at the scaled draw x = sqrt(nu) * z.
        rng = np.random.default_rng(3)
        power = 0.7
        nu = 3.5
        z = np.sqrt(power / 2) * (
            rng.standard_normal(64) + 1j * rng.standard_normal(64)
        )
        x = np.sqrt(nu) * z

        def log_cn(v, p):
            return float(np.sum(-np.abs(v) ** 2 / p - np.log(np.pi * p)))

        expected = log_cn(x, power) - log_cn(x, nu * power)
        got = noise_log_weight(
            float(np.sum(np.abs(z) ** 2)) / power, z.size, nu
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mean_weight_is_one(self):
        # E_q[w] = 1 exactly; the sample mean over many draws must
        # concentrate there.
        rng = np.random.default_rng(5)
        nu = 2.0
        z2 = 0.5 * (
            rng.standard_normal(200_000) ** 2
            + rng.standard_normal(200_000) ** 2
        )
        logw = np.log(nu) - (nu - 1.0) * z2
        assert np.exp(logw).mean() == pytest.approx(1.0, abs=0.02)


class TestWeightedBerState:
    def test_unit_weights_reduce_to_raw_counts(self):
        s = WeightedBerState()
        for errors in (0, 3, 0, 1):
            s.add(errors, 10)
        assert s.ber == pytest.approx(4 / 40)
        assert s.raw_ber == pytest.approx(4 / 40)
        assert s.mean_weight == 1.0
        assert s.ess == pytest.approx(4.0)
        assert s.ess_fraction == pytest.approx(1.0)

    def test_add_many_matches_scalar_adds(self):
        rng = np.random.default_rng(7)
        errors = rng.integers(0, 4, 50)
        logw = rng.normal(0.0, 0.3, 50)
        a = WeightedBerState()
        b = WeightedBerState()
        for e, lw in zip(errors, logw):
            a.add(float(e), 8, float(lw))
        b.add_many(errors.astype(float), 8, logw)
        assert a.trials == b.trials
        assert a.error_trials == b.error_trials
        assert a.sum_wp == pytest.approx(b.sum_wp, rel=1e-12)
        assert a.ess == pytest.approx(b.ess, rel=1e-12)
        assert a.max_w == b.max_w

    def test_merge_in_chunk_order_is_exact(self):
        # The parallel fold is always ((empty + c0) + c1) + c2 ... in
        # chunk order; that exact sequence must reproduce the serial
        # state bit for bit.
        rng = np.random.default_rng(11)
        serial = WeightedBerState()
        chunks = []
        for _ in range(4):
            c = WeightedBerState()
            for _ in range(8):
                e = float(rng.integers(0, 3))
                lw = float(rng.normal(0.0, 0.2))
                c.add(e, 12, lw)
            chunks.append(c)
        for c in chunks:
            serial = serial.merge(c)
        refolded = WeightedBerState()
        for c in chunks:
            refolded = refolded.merge(c)
        assert _states_equal(serial, refolded)

    def test_merge_regrouping_agrees_statistically(self):
        rng = np.random.default_rng(13)
        chunks = []
        for _ in range(3):
            c = WeightedBerState()
            for _ in range(16):
                c.add(float(rng.integers(0, 2)), 4, float(rng.normal(0, 0.4)))
            chunks.append(c)
        a, b, c = chunks
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.trials == right.trials
        assert left.sum_wp == pytest.approx(right.sum_wp, rel=1e-12)
        assert left.ber == pytest.approx(right.ber, rel=1e-12)
        assert left.ess == pytest.approx(right.ess, rel=1e-12)

    def test_ber_clipped_to_unit_interval(self):
        s = WeightedBerState()
        s.add(10, 10, log_weight=3.0)  # w ~ 20: unclipped estimate > 1
        assert s.ber_unclipped > 1.0
        assert s.ber == 1.0
        s2 = WeightedBerState()
        assert s2.ber == 0.0

    def test_weight_diagnostics_units(self):
        s = WeightedBerState()
        s.add(1, 10, log_weight=np.log(3.0))
        s.add(0, 10, log_weight=np.log(1.0))
        # mean weight: (3 + 1) / 2
        assert s.mean_weight == pytest.approx(2.0)
        # Kish ESS: (3+1)^2 / (9+1)
        assert s.ess == pytest.approx(16.0 / 10.0)
        assert s.ess_fraction == pytest.approx(0.8)
        assert s.max_weight_share == pytest.approx(3.0 / 4.0)

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            WeightedBerState().add(0, 0)
        with pytest.raises(ValueError):
            WeightedBerState().add_many([0.0], 0, [0.0])

    def test_result_round_trips_confidence(self):
        s = WeightedBerState()
        rng = np.random.default_rng(17)
        for _ in range(64):
            s.add(float(rng.integers(0, 3)), 16, float(rng.normal(0, 0.3)))
        m = s.result(packets=64)
        assert isinstance(m, WeightedBerMeasurement)
        assert m.confidence(z=4.5) == s.confidence(z=4.5)
        assert m.ci95 == s.confidence(z=1.96)


class TestBoostSelection:
    def test_ebn0_for_ber_inverts_theory(self):
        for mod in ("BPSK", "QAM16"):
            ebn0 = ebn0_for_ber(mod, 1e-4)
            assert theoretical_ber(mod, ebn0) == pytest.approx(
                1e-4, rel=1e-4
            )

    def test_ebn0_for_ber_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            ebn0_for_ber("BPSK", 0.0)
        with pytest.raises(ValueError):
            ebn0_for_ber("BPSK", 0.7)

    def test_boost_lands_proposal_at_target(self):
        ebn0 = ebn0_for_ber("BPSK", 1e-5)
        boost = boost_for("BPSK", ebn0, target_ber=2e-2)
        assert theoretical_ber("BPSK", ebn0 - boost) == pytest.approx(
            2e-2, rel=1e-3
        )

    def test_boost_never_negative(self):
        assert boost_for("BPSK", -5.0) == 0.0

    def test_dimension_cap_shrinks_with_dimension(self):
        assert dimension_capped_boost_db(1) > dimension_capped_boost_db(100)
        nu = 10 ** (dimension_capped_boost_db(400) / 10.0)
        assert nu == pytest.approx(1.0 + 1.0 / 20.0)

    def test_auto_boost_capped_by_packet_dimension(self):
        cfg = _genie_config(snr_db=2.0)
        cap = dimension_capped_boost_db(packet_noise_dimension(cfg))
        assert 0.0 <= auto_boost_db(cfg) <= cap

    def test_auto_boost_zero_without_snr(self):
        assert auto_boost_db(TestbenchConfig(rate_mbps=6, psdu_bytes=20)) == 0.0


class TestUncodedUnbiasedness:
    def test_is_agrees_with_oracle_bpsk(self):
        ebn0 = ebn0_for_ber("BPSK", 1e-4)
        m = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=120, symbols_per_packet=256, seed=0
        )
        low, high = m.confidence(z=4.5)
        assert low <= theoretical_ber("BPSK", ebn0) <= high

    def test_is_agrees_with_oracle_qam16(self):
        ebn0 = ebn0_for_ber("QAM16", 1e-4)
        m = measure_uncoded_ber(
            "QAM16", ebn0, n_packets=120, symbols_per_packet=256, seed=1
        )
        low, high = m.confidence(z=4.5)
        assert low <= theoretical_ber("QAM16", ebn0) <= high

    def test_variance_reduction_gate(self):
        # The acceptance criterion: >= 10x fewer packets than plain MC
        # for the same CI width at the deep BPSK point.
        ebn0 = ebn0_for_ber("BPSK", 1e-4)
        m = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=120, symbols_per_packet=256, seed=0
        )
        assert m.vr_estimate >= 10.0

    def test_zero_boost_is_bit_identical_to_mc(self):
        ebn0 = 6.0
        a = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=24, symbols_per_packet=64,
            estimator="is", boost_db=0.0, seed=3,
        )
        b = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=24, symbols_per_packet=64,
            estimator="mc", seed=3,
        )
        assert a.ber == b.ber
        assert a.bit_errors == b.bit_errors
        assert a.bits_total == b.bits_total
        assert a.mean_weight == 1.0

    def test_jobs_bit_identity(self):
        ebn0 = ebn0_for_ber("BPSK", 1e-4)
        serial = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=40, symbols_per_packet=64,
            seed=5, jobs=1,
        )
        pooled = measure_uncoded_ber(
            "BPSK", ebn0, n_packets=40, symbols_per_packet=64,
            seed=5, jobs=2,
        )
        assert serial == pooled  # dataclass: every field exact

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            measure_uncoded_ber("BPSK", 8.0, estimator="mcmc")


class TestFullChainImportanceSampling:
    def test_zero_boost_matches_mc_raw_counts(self):
        bench = WlanTestbench(_genie_config())
        is0 = bench.measure_ber(n_packets=8, seed=0, estimator="is",
                                boost_db=0.0)
        mc = bench.measure_ber(n_packets=8, seed=0)
        assert is0.bit_errors == mc.bit_errors
        assert is0.bits_total == mc.bits_total
        assert is0.ber == pytest.approx(mc.ber, rel=1e-12)
        assert is0.mean_weight == 1.0
        assert is0.ess_fraction == pytest.approx(1.0)

    def test_bit_identity_serial_jobs_batch(self):
        bench = WlanTestbench(_genie_config())
        boost = auto_boost_db(bench.config)
        kwargs = dict(n_packets=16, seed=2, estimator="is", boost_db=boost)
        with perf.options_scope(batch_size=1):
            serial = bench.measure_ber(jobs=1, chunk_size=1,
                                       **kwargs)
        with perf.options_scope(batch_size=1):
            pooled = bench.measure_ber(jobs=2, chunk_size=1,
                                       **kwargs)
        with perf.options_scope(batch_size=8):
            batched = bench.measure_ber(jobs=1, chunk_size=1,
                                        **kwargs)
        assert serial == pooled
        assert serial == batched

    def test_is_measurement_carries_diagnostics(self):
        bench = WlanTestbench(_genie_config())
        m = bench.measure_ber(n_packets=8, seed=0, estimator="is")
        assert isinstance(m, WeightedBerMeasurement)
        assert m.estimator == "is"
        assert m.boost_db > 0.0
        assert 0.0 < m.ess_fraction <= 1.0
        assert m.trials == 8

    def test_unknown_estimator_rejected(self):
        bench = WlanTestbench(_genie_config())
        with pytest.raises(ValueError):
            bench.measure_ber(n_packets=1, estimator="bogus")


class TestEarlyStopSemantics:
    """``max_bit_errors`` keys on RAW counts; overshoot is chunk-bounded."""

    def test_mc_stop_is_prefix_of_full_run(self):
        # An early-stopped run must equal an uninterrupted run over
        # exactly the packets it consumed (spawn children are a pure
        # function of their index).
        bench = WlanTestbench(_genie_config(snr_db=-4.0))
        stopped = bench.measure_ber(
            n_packets=20, seed=1, max_bit_errors=50, chunk_size=4
        )
        assert stopped.packets < 20
        assert stopped.packets % 4 == 0
        assert stopped.bit_errors >= 50
        prefix = bench.measure_ber(
            n_packets=stopped.packets, seed=1, chunk_size=4
        )
        assert stopped == prefix

    def test_chunk_overshoot_is_bounded(self):
        # The stop decision happens at chunk boundaries: the crossing
        # chunk is consumed whole, and nothing beyond it.
        bench = WlanTestbench(_genie_config(snr_db=-4.0))
        per_packet = bench.measure_ber(
            n_packets=20, seed=1, max_bit_errors=1, chunk_size=1
        )
        chunked = bench.measure_ber(
            n_packets=20, seed=1, max_bit_errors=1, chunk_size=5
        )
        # chunk_size=1 reproduces the classic per-packet stop: the
        # first errored packet is the last one consumed.
        assert per_packet.packets <= chunked.packets
        assert chunked.packets % 5 == 0

    def test_is_stop_keys_on_raw_not_weighted_errors(self):
        # At a deep operating point with a boosted proposal the raw
        # error count is large while the weighted error mass is tiny;
        # the run must still stop early (i.e. the threshold reads raw
        # counts, not weighted ones).
        bench = WlanTestbench(_genie_config(snr_db=0.0))
        m = bench.measure_ber(
            n_packets=40, seed=0, estimator="is", boost_db=6.0,
            max_bit_errors=30, chunk_size=2,
        )
        assert m.packets < 40
        assert m.bit_errors >= 30  # raw errors under the proposal
        # The weighted estimate stays deep even though raw errors are
        # plentiful — exactly the regime where a weighted stopping rule
        # would never have triggered.
        assert m.ber < m.bit_errors / m.bits_total

    def test_is_stop_is_prefix_of_full_run(self):
        bench = WlanTestbench(_genie_config(snr_db=-4.0))
        stopped = bench.measure_ber(
            n_packets=24, seed=4, estimator="is", boost_db=0.1,
            max_bit_errors=40, chunk_size=3,
        )
        assert stopped.packets < 24
        prefix = bench.measure_ber(
            n_packets=stopped.packets, seed=4, estimator="is",
            boost_db=0.1, chunk_size=3,
        )
        assert stopped == prefix


class TestSweepEstimator:
    def test_is_sweep_points_are_weighted(self):
        from repro.core.sweep import ParameterSweep

        sweep = ParameterSweep(
            base_config=_genie_config(),
            parameter="snr_db",
            values=[0.0, 2.0],
            n_packets=2,
            seed=0,
            estimator="is",
        )
        result = sweep.run()
        assert all(
            isinstance(p.measurement, WeightedBerMeasurement)
            for p in result.points
        )
        table = result.as_table()
        assert "est" in table and "is" in table
        kpis = result.as_kpis()
        assert any(k.startswith("estimator_is[") for k in kpis)

    def test_auto_switches_below_threshold(self):
        from repro.core.sweep import ParameterSweep

        sweep = ParameterSweep(
            base_config=_genie_config(),
            parameter="snr_db",
            values=[-4.0, 6.0],
            n_packets=1,
            seed=0,
            estimator="auto",
            is_threshold=1e-2,
        )
        plans = [
            sweep._point_estimator(sweep._configured(v))
            for v in sweep.values
        ]
        # Low SNR: uncoded theory well above 1e-2 -> plain MC; high
        # SNR: below the threshold -> importance sampling.
        assert plans[0][0] == "mc"
        assert plans[1][0] == "is"
        assert plans[1][1] > 0.0

    def test_bad_estimator_rejected(self):
        from repro.core.sweep import ParameterSweep

        sweep = ParameterSweep(
            base_config=_genie_config(),
            parameter="snr_db",
            values=[0.0],
            n_packets=1,
            seed=0,
            estimator="nope",
        )
        with pytest.raises(ValueError):
            sweep.run()

    def test_memoized_is_point_round_trips(self, tmp_path):
        from repro.core.sweep import ParameterSweep
        from repro.obs import RunStore

        store = RunStore(tmp_path)
        sweep = ParameterSweep(
            base_config=_genie_config(),
            parameter="snr_db",
            values=[0.0, 2.0],
            n_packets=2,
            seed=0,
            estimator="is",
        )
        fresh = sweep.run(store=store, memoize=True)
        replay = sweep.run(store=store, memoize=True)
        for a, b in zip(fresh.points, replay.points):
            assert isinstance(b.measurement, WeightedBerMeasurement)
            assert a.measurement == b.measurement

    def test_memo_key_unchanged_for_mc(self):
        # Legacy Monte-Carlo memo keys must not change because the
        # estimator plumbing exists — stored caches stay valid.
        from repro.core.sweep import _point_memo_key

        cfg = _genie_config()
        legacy = _point_memo_key(cfg, 4, 0, 1, None)
        explicit = _point_memo_key(
            cfg, 4, 0, 1, None, estimator="mc", boost_db=None
        )
        assert legacy == explicit


class TestAdaptiveAllocation:
    def _sweep(self, estimator="mc"):
        from repro.core.sweep import ParameterSweep

        return ParameterSweep(
            base_config=_genie_config(),
            parameter="snr_db",
            values=[0.0, 2.0, 4.0],
            n_packets=1,
            seed=0,
            estimator=estimator,
        )

    def test_budget_exactly_spent(self):
        result = run_adaptive_sweep(self._sweep(), 9)
        spent = sum(p.measurement.packets for p in result.points)
        assert spent == 9
        assert all(p.measurement.packets >= 1 for p in result.points)

    def test_deterministic_across_runs_and_jobs(self):
        a = run_adaptive_sweep(self._sweep(), 9, jobs=1)
        b = run_adaptive_sweep(self._sweep(), 9, jobs=2)
        assert [p.measurement for p in a.points] == [
            p.measurement for p in b.points
        ]

    def test_ci_shrinks_with_budget(self):
        small = run_adaptive_sweep(self._sweep(), 6, z=1.96)
        large = run_adaptive_sweep(self._sweep(), 24, z=1.96)

        def widest(result):
            widths = []
            for p in result.points:
                m = p.measurement
                low, high = binomial_confidence(
                    m.bit_errors, m.bits_total, z=1.96
                )
                widths.append(high - low)
            return max(widths)

        assert widest(large) < widest(small)

    def test_budget_must_cover_points(self):
        with pytest.raises(ValueError):
            run_adaptive_sweep(self._sweep(), 2)

    def test_weighted_points_allocate_too(self):
        result = run_adaptive_sweep(self._sweep(estimator="is"), 9)
        assert all(
            isinstance(p.measurement, WeightedBerMeasurement)
            for p in result.points
        )
        assert sum(p.measurement.packets for p in result.points) == 9


class TestQaRareSection:
    def test_quick_section_passes(self):
        from repro.qa.harness import run_rare_checks

        checks = run_rare_checks(seed=0, quick=True)
        names = {c.name for c in checks}
        assert "rare_is_vs_oracle" in names
        assert "rare_variance_reduction" in names
        failed = [c.name for c in checks if not c.passed]
        assert not failed


class TestRareCli:
    def test_rare_command_passes_against_oracle(self, capsys):
        from repro.cli import main

        code = main([
            "rare", "--packets", "40", "--symbols", "64",
            "--ebn0", "8.4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
