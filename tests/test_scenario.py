"""Tests for the multi-emitter scenario library (repro.scenario).

Covers the scenario layer itself (config round trips, oversampling,
bench integration, per-emitter probes) plus the correctness fixes that
shipped with it: forked per-emitter streams, the explicit power-scaling
convention, the importance-sampling validity gate, and the fading
channel's edge cases (tail truncation, flat fading, Rician
normalization, Jakes-Doppler trajectories).
"""

import numpy as np
import pytest

from repro import obs, perf
from repro.channel.fading import (
    FadingChannel,
    exponential_power_delay_profile,
)
from repro.channel.streams import fork_stream
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.qa import vectors
from repro.rf.signal import Signal
from repro.scenario import (
    BluetoothFhEmitter,
    MicrowaveOvenEmitter,
    PRESETS,
    Scenario,
    WlanEmitter,
    active_power_watts,
    preset_names,
    reference_power_watts,
    scale_to_excess,
)


def _burst(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    return Signal(np.exp(2j * np.pi * rng.random(n)), 80e6)


class TestEmitterStreamForking:
    """Satellite 1: per-emitter streams are forked, never the caller's."""

    def test_scenario_apply_never_advances_caller_rng(self):
        rng = np.random.default_rng(3)
        wanted = _burst()
        state = rng.bit_generator.state
        Scenario.preset("hostile-coexistence").apply(wanted, rng)
        assert rng.bit_generator.state == state

    def test_legacy_interference_never_advances_caller_rng(self):
        """The paper's adjacent channel (now a preset) forks its stream."""
        rng = np.random.default_rng(3)
        wanted = _burst()
        state = rng.bit_generator.state
        Scenario.preset("adjacent-16db").apply(wanted, rng)
        assert rng.bit_generator.state == state

    def test_wanted_path_invariant_to_extra_emitters(self):
        """Adding negligible emitters must not move any wanted-path draw.

        Both scenarios resolve to the same oversampling, and -400 dB
        emitter amplitudes vanish below float64 resolution, so the only
        way the measurements could differ is an emitter consuming the
        packet stream — the pre-fix bug.
        """
        def measure(emitters):
            cfg = TestbenchConfig(
                rate_mbps=6,
                psdu_bytes=20,
                snr_db=0.0,
                scenario=Scenario(emitters=emitters),
            )
            return WlanTestbench(cfg).measure_ber(n_packets=3, seed=11)

        lone = measure([WlanEmitter(offset_channels=0, excess_db=-400.0)])
        crowd = measure([
            WlanEmitter(offset_channels=0, excess_db=-400.0),
            BluetoothFhEmitter(excess_db=-400.0, slot_s=40e-6,
                               burst_s=25e-6),
            MicrowaveOvenEmitter(excess_db=-400.0, period_s=200e-6),
        ])
        assert lone.ber > 0  # the comparison has to bite on something
        assert lone.bit_errors == crowd.bit_errors
        assert lone.bits_total == crowd.bits_total

    def test_fork_stream_children_are_distinct_and_stable(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        first = fork_stream(rng, 0).random(4)
        second = fork_stream(rng, 1).random(4)
        again = fork_stream(rng, 0).random(4)
        assert not np.allclose(first, second)
        assert np.array_equal(first, again)
        assert rng.bit_generator.state == state

    def test_manifest_records_emitter_scheme(self):
        manifest = obs.build_manifest(seed=0).as_dict()
        assert manifest["emitter_seeding"] == "emitter-fork-v1"

    def test_manifest_records_fading_scheme(self):
        manifest = obs.build_manifest(seed=0).as_dict()
        assert manifest["fading_synthesis"] == "jakes-sos-blockfactor-v1"


class TestPowerConventions:
    """Satellite 2: the scaling convention is explicit and consistent."""

    def test_active_vs_average_on_gated_signal(self):
        x = np.ones(1000, dtype=complex)
        x[500:] = 0.0  # 50% duty: conventions differ by exactly 3 dB
        assert active_power_watts(x) == pytest.approx(1.0)
        assert reference_power_watts(x, "active") == pytest.approx(1.0)
        assert reference_power_watts(x, "average") == pytest.approx(0.5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            reference_power_watts(np.ones(4, complex), "rms")

    def test_scale_to_excess_is_exact_per_convention(self):
        rng = np.random.default_rng(0)
        x = np.zeros(4096, dtype=complex)
        x[: 1024] = np.exp(2j * np.pi * rng.random(1024))  # 25% duty
        for convention in ("active", "average"):
            scaled = scale_to_excess(x, 1.0, 7.0, convention)
            measured = reference_power_watts(scaled, convention)
            assert 10 * np.log10(measured) == pytest.approx(7.0, abs=1e-9)

    def test_bursty_emitter_hits_configured_excess(self):
        """A duty-cycled emitter's *burst* power sits at excess_db.

        Under the pre-fix full-window convention a 50%-duty burst came
        out 3 dB hot during its on-time; the active convention pins the
        on-air power itself.
        """
        wanted = _burst(1 << 15, seed=1)
        reference = reference_power_watts(wanted.samples, "active")
        emitter = MicrowaveOvenEmitter(
            excess_db=3.0, period_s=200e-6, duty=0.5
        )
        out = emitter.generate(
            wanted.samples.size, 80e6, reference,
            np.random.default_rng(0),
        ).samples
        burst_db = 10 * np.log10(active_power_watts(out) / reference)
        window_db = 10 * np.log10(
            np.mean(np.abs(out) ** 2) / reference
        )
        assert burst_db == pytest.approx(3.0, abs=0.05)
        # The two conventions genuinely disagree on this waveform (by
        # the ~3 dB duty factor), so the choice above is load-bearing.
        assert burst_db - window_db == pytest.approx(3.0, abs=0.3)

    def test_scenario_mixes_per_convention_references(self):
        wanted = _burst(1 << 14, seed=2)
        scenario = Scenario(emitters=[
            MicrowaveOvenEmitter(excess_db=0.0, period_s=200e-6,
                                 duty=0.5, power_convention="active"),
            MicrowaveOvenEmitter(excess_db=0.0, period_s=200e-6,
                                 duty=0.5, power_convention="average"),
        ])
        rng = np.random.default_rng(5)
        mixed = scenario.apply(wanted, rng)
        assert mixed.samples.shape == wanted.samples.shape
        # Different conventions -> different scales for an identical
        # seed/waveform; the "average" copy is the hotter one (its
        # on-air power compensates the off-time).
        active_ref = reference_power_watts(wanted.samples, "active")
        a = scenario.emitters[0].generate(
            wanted.samples.size, 80e6, active_ref, fork_stream(rng, 0)
        )
        b = scenario.emitters[1].generate(
            wanted.samples.size, 80e6,
            reference_power_watts(wanted.samples, "average"),
            fork_stream(rng, 0),
        )
        assert active_power_watts(b.samples) > active_power_watts(a.samples)


class TestIsGating:
    """Satellite 3: importance sampling refuses non-AWGN error events."""

    def _bench(self, **channel):
        return WlanTestbench(TestbenchConfig(
            rate_mbps=6, psdu_bytes=20, snr_db=10.0, **channel
        ))

    def test_is_raises_with_scenario_emitters(self):
        bench = self._bench(scenario=Scenario.preset("co-channel"))
        with pytest.raises(ValueError, match="non-AWGN emitters"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_scenario_fading(self):
        bench = self._bench(scenario=Scenario.preset("indoor-fading"))
        with pytest.raises(ValueError, match="fading"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_bench_fading(self):
        bench = self._bench(fading=FadingChannel())
        with pytest.raises(ValueError, match="fading"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_legacy_interference(self):
        """The paper's adjacent channel, now the ``adjacent-16db`` preset."""
        bench = self._bench(scenario=Scenario.preset("adjacent-16db"))
        with pytest.raises(ValueError, match="non-AWGN emitters"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_error_names_the_fallback(self):
        bench = self._bench(scenario=Scenario.preset("co-channel"))
        with pytest.raises(ValueError, match="estimator='mc'"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_trivial_scenario_keeps_is_valid(self):
        bench = self._bench(scenario=Scenario(name="empty"))
        meas = bench.measure_ber(n_packets=1, estimator="is", seed=0)
        assert meas.estimator == "is"

    def test_auto_sweep_falls_back_to_mc(self):
        """At a deep point auto picks IS — unless a scenario is active."""
        def plan(**channel):
            sweep = ParameterSweep(
                base_config=TestbenchConfig(
                    rate_mbps=6, psdu_bytes=20, **channel
                ),
                parameter="snr_db",
                values=[20.0],
                n_packets=1,
                estimator="auto",
            )
            return sweep._point_estimator(sweep._configured(20.0))

        assert plan()[0] == "is"
        assert plan(scenario=Scenario.preset("co-channel"))[0] == "mc"
        assert plan(scenario=Scenario.preset("indoor-fading"))[0] == "mc"
        assert plan(fading=FadingChannel())[0] == "mc"

    def test_auto_sweep_runs_clean_under_scenario(self):
        sweep = ParameterSweep(
            base_config=TestbenchConfig(
                rate_mbps=6, psdu_bytes=20,
                scenario=Scenario.preset("co-channel"),
            ),
            parameter="snr_db",
            values=[18.0, 20.0],
            n_packets=1,
            estimator="auto",
        )
        result = sweep.run()
        assert all(
            getattr(p.measurement, "estimator", "mc") == "mc"
            for p in result.points
        )


class TestFadingEdgeCases:
    """Satellite 4: FadingChannel corner behavior."""

    def test_convolution_tail_truncated(self):
        rng = np.random.default_rng(0)
        sig = _burst(2048)
        out = FadingChannel(rms_delay_spread_s=150e-9).process(sig, rng)
        assert out.samples.size == sig.samples.size

    def test_zero_delay_spread_is_flat(self):
        ch = FadingChannel(rms_delay_spread_s=0.0)
        rng = np.random.default_rng(1)
        taps = ch.realize(20e6, rng)
        assert taps.size == 1
        sig = _burst(512)
        out = FadingChannel(rms_delay_spread_s=0.0).process(
            sig, np.random.default_rng(1)
        )
        np.testing.assert_allclose(out.samples, taps[0] * sig.samples)

    def test_normalized_realization_has_unit_power(self):
        ch = FadingChannel(rms_delay_spread_s=100e-9)
        rng = np.random.default_rng(2)
        for _ in range(5):
            taps = ch.realize(20e6, rng)
            assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)

    def test_rician_k_normalization(self):
        """The K-factor splits power, it must not add any.

        Unnormalized ensemble power stays 1 for any K, and at a huge K
        the first tap collapses onto the deterministic LOS amplitude.
        """
        rng = np.random.default_rng(3)
        ch = FadingChannel(
            rms_delay_spread_s=50e-9, rice_factor_db=6.0, normalize=False
        )
        total = np.mean([
            np.sum(np.abs(ch.realize(20e6, rng)) ** 2)
            for _ in range(4000)
        ])
        assert total == pytest.approx(1.0, rel=0.05)
        hard = FadingChannel(
            rms_delay_spread_s=50e-9, rice_factor_db=80.0, normalize=False
        )
        from repro.channel.fading import exponential_power_delay_profile

        p0 = exponential_power_delay_profile(50e-9, 20e6)[0]
        taps = hard.realize(20e6, np.random.default_rng(4))
        assert abs(taps[0]) == pytest.approx(np.sqrt(p0), rel=1e-3)

    def test_realize_deterministic_under_spawned_seeds(self):
        seq = np.random.SeedSequence(42)
        a, b = (np.random.default_rng(c) for c in seq.spawn(2))
        again_a, _ = (
            np.random.default_rng(c)
            for c in np.random.SeedSequence(42).spawn(2)
        )
        ch = FadingChannel(rms_delay_spread_s=100e-9)
        first = ch.realize(20e6, a)
        np.testing.assert_array_equal(first, ch.realize(20e6, again_a))
        assert not np.allclose(first, ch.realize(20e6, b))

    def test_zero_doppler_keeps_block_static_path(self):
        sig = _burst(1024)
        static = FadingChannel(rms_delay_spread_s=100e-9)
        taps = static.realize(sig.sample_rate, np.random.default_rng(7))
        expected = np.convolve(sig.samples, taps)[: sig.samples.size]
        out = static.process(sig, np.random.default_rng(7))
        np.testing.assert_allclose(out.samples, expected)

    def test_time_varying_requires_positive_doppler(self):
        ch = FadingChannel()
        with pytest.raises(ValueError, match="max_doppler_hz"):
            ch.realize_time_varying(64, 20e6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_sinusoids"):
            FadingChannel(max_doppler_hz=30.0, n_sinusoids=0)

    def test_doppler_taps_have_unit_expected_power(self):
        ch = FadingChannel(rms_delay_spread_s=100e-9, max_doppler_hz=200.0)
        rng = np.random.default_rng(8)
        power = np.mean([
            np.sum(np.abs(ch.realize_time_varying(64, 20e6, rng)) ** 2,
                   axis=0).mean()
            for _ in range(800)
        ])
        assert power == pytest.approx(1.0, rel=0.05)

    def test_doppler_process_preserves_length_and_varies_in_time(self):
        sig = _burst(4096)
        ch = FadingChannel(
            rms_delay_spread_s=100e-9, max_doppler_hz=2000.0
        )
        out = ch.process(sig, np.random.default_rng(9))
        assert out.samples.size == sig.samples.size
        gain = np.abs(out.samples / sig.samples)
        # A genuinely time-varying channel: the envelope gain drifts
        # across the window far more than any block-static draw could.
        assert gain[:256].mean() != pytest.approx(
            gain[-256:].mean(), rel=1e-6
        )



class TestFadingValidation:
    """A bad fading config fails at construction, not inside a worker."""

    @pytest.mark.parametrize("kwargs, field", [
        ({"max_doppler_hz": -30.0}, "max_doppler_hz"),
        ({"max_doppler_hz": float("nan")}, "max_doppler_hz"),
        ({"max_doppler_hz": float("inf")}, "max_doppler_hz"),
        ({"rice_factor_db": float("nan")}, "rice_factor_db"),
        ({"rice_factor_db": float("inf")}, "rice_factor_db"),
        ({"rms_delay_spread_s": -50e-9}, "rms_delay_spread_s"),
        ({"rms_delay_spread_s": float("nan")}, "rms_delay_spread_s"),
        ({"n_sinusoids": 0}, "n_sinusoids"),
        ({"n_sinusoids": 2.5}, "n_sinusoids"),
        ({"n_sinusoids": True}, "n_sinusoids"),
    ])
    def test_bad_parameters_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FadingChannel(**kwargs)

    def test_bad_doppler_rejected_by_scenario_config(self):
        with pytest.raises(ValueError, match="max_doppler_hz"):
            Scenario.from_config({"fading": {"max_doppler_hz": -30}})

    def test_valid_corners_accepted(self):
        FadingChannel(rms_delay_spread_s=0.0, rice_factor_db=-np.inf)
        FadingChannel(max_doppler_hz=0.0, rice_factor_db=-20.0)
        FadingChannel(max_doppler_hz=30.0, n_sinusoids=np.int64(1))


def _direct_jakes(channel, n_samples, sample_rate, rng):
    """The direct ``(M, n)`` sum-of-sinusoids synthesis, as a test oracle.

    One complex exponential per sinusoid per sample, with the same draws
    in the same order as :meth:`FadingChannel.realize_time_varying`.
    """
    powers = exponential_power_delay_profile(
        channel.rms_delay_spread_s, sample_rate
    )
    m = channel.n_sinusoids
    t = np.arange(n_samples) / float(sample_rate)
    fd = float(channel.max_doppler_hz)
    k_factor = (
        10.0 ** (channel.rice_factor_db / 10.0)
        if np.isfinite(channel.rice_factor_db)
        else 0.0
    )
    taps = np.empty((powers.size, n_samples), dtype=complex)
    for k, power in enumerate(powers):
        angles = rng.uniform(0.0, 2.0 * np.pi, m)
        phases = rng.uniform(0.0, 2.0 * np.pi, m)
        ramps = (
            2.0 * np.pi * fd * np.cos(angles)[:, None] * t[None, :]
            + phases[:, None]
        )
        diffuse = np.exp(1j * ramps).sum(axis=0) * np.sqrt(power / m)
        if k == 0 and k_factor > 0.0:
            theta0 = rng.uniform(0.0, 2.0 * np.pi)
            phi0 = rng.uniform(0.0, 2.0 * np.pi)
            los = np.sqrt(power * k_factor / (k_factor + 1.0)) * np.exp(
                1j * (2.0 * np.pi * fd * np.cos(theta0) * t + phi0)
            )
            diffuse = diffuse / np.sqrt(k_factor + 1.0) + los
        taps[k] = diffuse
    return taps


class TestJakesBlockFactorization:
    """The block-factorized synthesis equals the direct sum to rounding."""

    # 75**2 and 75**2 + 1 put n on and just past a square, where the
    # block size B = ceil(sqrt(n)) steps and the last block is full or
    # holds one sample.
    @pytest.mark.parametrize("n", [1, 7, 75 ** 2, 75 ** 2 + 1, 5680, 12345])
    @pytest.mark.parametrize("rice_factor_db", [-np.inf, 6.0])
    def test_matches_direct_synthesis(self, n, rice_factor_db):
        channel = FadingChannel(
            rms_delay_spread_s=50e-9, max_doppler_hz=30.0,
            rice_factor_db=rice_factor_db,
        )
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        taps = channel.realize_time_varying(n, 80e6, rng)
        expected = _direct_jakes(channel, n, 80e6, oracle_rng)
        assert taps.shape == expected.shape == (29, n)
        assert np.max(np.abs(taps - expected)) <= 1e-12
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_matches_direct_synthesis_at_high_doppler(self):
        channel = FadingChannel(
            rms_delay_spread_s=100e-9, max_doppler_hz=2000.0,
            rice_factor_db=6.0, n_sinusoids=7,
        )
        rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
        taps = channel.realize_time_varying(4096, 20e6, rng)
        expected = _direct_jakes(channel, 4096, 20e6, oracle_rng)
        assert np.max(np.abs(taps - expected)) <= 1e-12
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.slow
class TestClarkeStatistics:
    """Ensemble statistics of the Jakes taps follow Clarke's model.

    With uniform arrival angles, ``E[exp(j 2 pi f_d cos(a) tau)] =
    J0(2 pi f_d tau)`` for every ``M``, and the random line-of-sight
    angle of a Rician tap has the same expectation, so the normalized
    autocorrelation of both is ``J0(2 pi f_d tau)``.  Each check allows
    4.5 standard errors of the ensemble mean.
    """

    Z = 4.5
    FD = 100.0
    FS = 10e3
    LAGS = [1, 5, 10, 20, 38, 60, 88]

    @pytest.mark.parametrize("rice_factor_db", [-np.inf, 6.0])
    def test_expected_tap_power_is_unity(self, rice_factor_db):
        channel = FadingChannel(
            rms_delay_spread_s=100e-9, max_doppler_hz=2000.0,
            rice_factor_db=rice_factor_db,
        )
        rng = np.random.default_rng(11)
        power = np.array([
            np.sum(np.abs(channel.realize_time_varying(64, 20e6, rng)) ** 2,
                   axis=0).mean()
            for _ in range(3000)
        ])
        sem = power.std(ddof=1) / np.sqrt(power.size)
        assert sem < 0.02
        assert abs(power.mean() - 1.0) <= self.Z * sem

    @pytest.mark.parametrize("rice_factor_db", [-np.inf, 6.0])
    def test_autocorrelation_follows_bessel_j0(self, rice_factor_db):
        from scipy.special import j0

        channel = FadingChannel(
            rms_delay_spread_s=0.0, max_doppler_hz=self.FD,
            rice_factor_db=rice_factor_db,
        )
        rng = np.random.default_rng(12)
        n = max(self.LAGS) + 1
        corr = np.array([
            [np.mean(g[lag:] * np.conj(g[: n - lag])) for lag in self.LAGS]
            for g in (
                channel.realize_time_varying(n, self.FS, rng)[0]
                for _ in range(4000)
            )
        ])
        mean = corr.mean(axis=0)
        sem_re = corr.real.std(axis=0, ddof=1) / np.sqrt(len(corr))
        sem_im = corr.imag.std(axis=0, ddof=1) / np.sqrt(len(corr))
        theory = j0(2.0 * np.pi * self.FD * np.array(self.LAGS) / self.FS)
        assert np.all(sem_re < 0.03)
        assert np.all(np.abs(mean.real - theory) <= self.Z * sem_re), (
            mean.real, theory, sem_re,
        )
        assert np.all(np.abs(mean.imag) <= self.Z * sem_im)


class TestScenarioConfig:
    def test_round_trip(self):
        for name in preset_names():
            scenario = Scenario.preset(name)
            rebuilt = Scenario.from_config(scenario.to_config())
            assert rebuilt.to_config() == scenario.to_config()

    def test_from_json(self):
        import json

        scenario = Scenario.from_json(json.dumps(PRESETS["co-channel"]))
        assert scenario.name == "co-channel"
        assert scenario.emitters[0].offset_channels == 0

    def test_unknown_emitter_type_raises(self):
        with pytest.raises(ValueError, match="unknown emitter type"):
            Scenario.from_config(
                {"emitters": [{"type": "zigbee"}]}
            )

    def test_unknown_emitter_key_raises(self):
        with pytest.raises(ValueError, match="emitter keys"):
            Scenario.from_config(
                {"emitters": [{"type": "wlan", "chanel": 1}]}
            )

    def test_unknown_scenario_key_raises(self):
        with pytest.raises(ValueError, match="scenario keys"):
            Scenario.from_config({"emiters": []})

    def test_unknown_fading_key_raises(self):
        with pytest.raises(ValueError, match="fading keys"):
            Scenario.from_config({"fading": {"doppler": 30.0}})

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="preset"):
            Scenario.preset("cafeteria")

    def test_required_oversample_matches_legacy_rule(self):
        for k in (1, 2, 3):
            scenario = Scenario(emitters=[WlanEmitter(offset_channels=k)])
            assert scenario.required_oversample() == 2 * (k + 1)
        assert Scenario(
            emitters=[WlanEmitter(offset_channels=0)]
        ).required_oversample() == 2
        assert Scenario().required_oversample() == 1
        assert Scenario().is_trivial

    def test_wlan_emitter_is_the_legacy_source(self):
        """The adjacent preset's emitter reproduces the frozen waveform of
        the paper's section-4.1 interference source."""
        (emitter,) = Scenario.preset("adjacent-16db").emitters
        assert emitter == WlanEmitter(offset_channels=1, excess_db=16.0)
        burst = emitter.generate(
            n_samples=2048, sample_rate=80e6, wanted_power_watts=1.0,
            rng=np.random.default_rng(0),
        )
        assert vectors.digest_samples(burst.samples) == (
            vectors.GOLDEN_WLAN_EMITTER
        )


class TestScenarioBench:
    def test_adjacent_scenario_bit_identical_to_legacy(self):
        """Acceptance: the paper's +16 dB point via configs reproduces
        the frozen legacy measurement, at batch 1 and batch 4."""
        case = vectors.ADJACENT_16DB_CASE
        bench = vectors.adjacent_16db_bench()
        for batch in (1, 4):
            with perf.options_scope(batch_size=batch):
                mixed = bench.measure_ber(
                    n_packets=case["n_packets"], seed=case["seed"],
                )
            assert mixed.ber > 0  # the interferer must actually bite
            assert (mixed.bit_errors, mixed.bits_total) == (
                vectors.GOLDEN_ADJACENT_16DB
            )

    def test_oversample_follows_scenario(self):
        cfg = TestbenchConfig(
            rate_mbps=6, snr_db=10.0,
            scenario=Scenario.preset("non-adjacent-32db"),
        )
        assert WlanTestbench(cfg).oversample == 6

    def test_frontend_rejects_too_wide_scenario(self):
        from repro.rf.frontend import FrontendConfig

        cfg = TestbenchConfig(
            rate_mbps=6,
            thermal_floor=True,
            frontend=FrontendConfig(),
            input_level_dbm=-60.0,
            scenario=Scenario(
                emitters=[WlanEmitter(offset_channels=4, excess_db=16.0)]
            ),
        )
        with pytest.raises(ValueError, match="envelope"):
            WlanTestbench(cfg)

    def test_per_emitter_probe_taps(self):
        with obs.telemetry_scope(
            probes=obs.ProbeRegistry(obs.probe_preset("basic"))
        ):
            cfg = TestbenchConfig(
                rate_mbps=6, psdu_bytes=20, snr_db=12.0,
                scenario=Scenario.preset("hostile-coexistence"),
            )
            WlanTestbench(cfg).measure_ber(n_packets=1, seed=0)
            stages = obs.telemetry().probes.export()["stages"]
        for label in ("emitter:wlan+1", "emitter:bluetooth",
                      "emitter:microwave"):
            assert label in stages

    def test_probes_do_not_change_measurement(self):
        cfg = TestbenchConfig(
            rate_mbps=6, psdu_bytes=20, snr_db=8.0,
            scenario=Scenario.preset("hostile-coexistence"),
        )
        bare = WlanTestbench(cfg).measure_ber(n_packets=2, seed=5)
        with obs.telemetry_scope(
            probes=obs.ProbeRegistry(obs.probe_preset("basic"))
        ):
            probed = WlanTestbench(cfg).measure_ber(n_packets=2, seed=5)
        assert bare.bit_errors == probed.bit_errors
        assert bare.bits_total == probed.bits_total

    def test_scenario_fading_reaches_the_channel(self):
        def measure(scenario):
            cfg = TestbenchConfig(rate_mbps=24, psdu_bytes=40,
                                  snr_db=10.0, scenario=scenario)
            return WlanTestbench(cfg).measure_ber(n_packets=3, seed=2)

        clean = measure(Scenario(name="empty"))
        faded = measure(Scenario.preset("indoor-fading"))
        assert (clean.bit_errors, clean.per) != (faded.bit_errors,
                                                 faded.per)

    def test_bench_fading_wins_over_scenario_fading(self):
        bench_fading = FadingChannel(rms_delay_spread_s=100e-9)
        both = TestbenchConfig(
            rate_mbps=24, psdu_bytes=40, snr_db=10.0,
            fading=bench_fading,
            scenario=Scenario(fading=FadingChannel(
                rms_delay_spread_s=50e-9
            )),
        )
        explicit = TestbenchConfig(
            rate_mbps=24, psdu_bytes=40, snr_db=10.0,
            fading=bench_fading,
        )
        a = WlanTestbench(both).measure_ber(n_packets=2, seed=3)
        b = WlanTestbench(explicit).measure_ber(n_packets=2, seed=3)
        assert a.bit_errors == b.bit_errors
        assert a.bits_total == b.bits_total

    def test_scenario_cli_runs(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--list-presets"]) == 0
        assert "hostile-coexistence" in capsys.readouterr().out
        code = main([
            "scenario", "--preset", "microwave-oven",
            "--snr", "10", "--rate", "6", "--bytes", "20",
            "--packets", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "microwave" in out
        assert main(["scenario"]) == 2


@pytest.mark.slow
class TestScenarioEndToEnd:
    def test_three_emitter_sweep_schedule_invariant(self, tmp_path):
        """Hostile coexistence through the store: serial == --jobs 2."""
        store = obs.RunStore(tmp_path)
        sweep = ParameterSweep(
            base_config=TestbenchConfig(
                rate_mbps=12, psdu_bytes=40,
                scenario=Scenario.preset("hostile-coexistence"),
            ),
            parameter="snr_db",
            values=[10.0, 14.0, 18.0],
            n_packets=2,
            seed=7,
        )
        serial = sweep.run(jobs=1, store=store, run_name="serial")
        pooled = sweep.run(jobs=2, store=store, run_name="pooled")
        assert list(serial.bers) == list(pooled.bers)
        runs = {e.name: e.run_id for e in store.list_runs()}
        a = store.load_run(runs["serial"])
        b = store.load_run(runs["pooled"])
        assert a.kpis == b.kpis
        assert a.curves["serial"] == b.curves["pooled"]
        manifest = a.manifest["config"]["base_config"]
        assert manifest["scenario"]["name"] == "hostile-coexistence"
