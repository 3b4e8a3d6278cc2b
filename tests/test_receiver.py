"""End-to-end receiver tests (repro.dsp.receiver)."""

import numpy as np
import pytest

from repro.dsp.params import RATES
from repro.dsp.receiver import Receiver, RxConfig, ideal_receiver_config
from repro.dsp.synchronization import apply_cfo
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu


def _loopback(rate, psdu, pad=200, snr_db=None, cfo_hz=0.0, rx_config=None, seed=0):
    rng = np.random.default_rng(seed)
    wave = Transmitter(TxConfig(rate_mbps=rate)).transmit(psdu)
    samples = np.concatenate(
        [np.zeros(pad, complex), wave, np.zeros(120, complex)]
    )
    if cfo_hz:
        samples = apply_cfo(samples, cfo_hz)
    if snr_db is not None:
        p = 10.0 ** (-snr_db / 10.0)
        samples = samples + np.sqrt(p / 2) * (
            rng.standard_normal(samples.size)
            + 1j * rng.standard_normal(samples.size)
        )
    return Receiver(rx_config or RxConfig()).receive(samples)


class TestNoiselessLoopback:
    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_all_rates(self, mbps):
        rng = np.random.default_rng(mbps)
        psdu = random_psdu(120, rng)
        result = _loopback(mbps, psdu)
        assert result.success
        assert result.rate.data_rate_mbps == mbps
        assert result.length_bytes == psdu.size
        assert np.array_equal(result.psdu, psdu)

    @pytest.mark.parametrize("n_bytes", [1, 13, 255, 1000])
    def test_payload_sizes(self, n_bytes):
        rng = np.random.default_rng(n_bytes)
        psdu = random_psdu(n_bytes, rng)
        result = _loopback(24, psdu)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_genie_path(self):
        rng = np.random.default_rng(1)
        psdu = random_psdu(80, rng)
        wave = Transmitter(TxConfig(rate_mbps=54)).transmit(psdu)
        cfg = RxConfig(genie_timing=True, genie_cfo=True)
        result = Receiver(cfg).receive(wave)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_ideal_receiver_config(self):
        cfg = ideal_receiver_config(24, 77)
        rng = np.random.default_rng(2)
        psdu = random_psdu(77, rng)
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(psdu)
        result = Receiver(cfg).receive(wave)
        assert result.success
        assert np.array_equal(result.psdu, psdu)
        assert result.data_symbols is not None


class TestImpairedReception:
    def test_awgn_20db(self):
        rng = np.random.default_rng(3)
        psdu = random_psdu(100, rng)
        result = _loopback(24, psdu, snr_db=20.0, seed=3)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_cfo_at_spec_limit(self):
        # +/-20 ppm at 5.2 GHz on both sides: up to ~208 kHz total.
        rng = np.random.default_rng(4)
        psdu = random_psdu(100, rng)
        result = _loopback(24, psdu, snr_db=25.0, cfo_hz=208e3, seed=4)
        assert result.success
        assert np.array_equal(result.psdu, psdu)
        assert result.cfo_hz == pytest.approx(208e3, abs=3e3)

    def test_low_snr_fails_gracefully(self):
        rng = np.random.default_rng(5)
        psdu = random_psdu(100, rng)
        result = _loopback(54, psdu, snr_db=-3.0, seed=5)
        # Either not detected or decoded with errors; never an exception.
        if result.success:
            assert not np.array_equal(result.psdu, psdu)

    def test_multipath_with_equalizer(self):
        rng = np.random.default_rng(6)
        psdu = random_psdu(60, rng)
        wave = Transmitter(TxConfig(rate_mbps=12)).transmit(psdu)
        taps = np.array([1.0, 0.0, 0.35 * np.exp(1j), 0.0, 0.1])
        faded = np.convolve(wave, taps)
        samples = np.concatenate([np.zeros(150, complex), faded])
        p = 10.0 ** (-25.0 / 10.0)
        samples = samples + np.sqrt(p / 2) * (
            rng.standard_normal(samples.size)
            + 1j * rng.standard_normal(samples.size)
        )
        result = Receiver(RxConfig()).receive(samples)
        assert result.success
        assert np.array_equal(result.psdu, psdu)


class TestFailureModes:
    def test_pure_noise(self):
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        result = Receiver(RxConfig()).receive(noise)
        assert not result.success
        assert result.failure

    def test_truncated_packet(self):
        rng = np.random.default_rng(8)
        psdu = random_psdu(500, rng)
        wave = Transmitter(TxConfig(rate_mbps=6)).transmit(psdu)
        cut = np.concatenate([np.zeros(150, complex), wave[: wave.size // 2]])
        result = Receiver(RxConfig()).receive(cut)
        assert not result.success

    def test_genie_requires_length(self):
        cfg = RxConfig(genie_rate_mbps=24)
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(
            np.zeros(10, dtype=np.uint8)
        )
        result = Receiver(cfg).receive(wave)
        assert not result.success
        assert "genie" in result.failure

    def test_soft_vs_hard_decision(self):
        rng = np.random.default_rng(9)
        psdu = random_psdu(100, rng)
        soft = _loopback(
            36, psdu, snr_db=17.0, seed=9, rx_config=RxConfig(soft_decision=True)
        )
        hard = _loopback(
            36, psdu, snr_db=17.0, seed=9, rx_config=RxConfig(soft_decision=False)
        )
        def errors(res):
            if not res.success or res.psdu.size != psdu.size:
                return psdu.size * 8
            return int(np.unpackbits(res.psdu ^ psdu).sum())
        assert errors(soft) <= errors(hard)

    def test_data_symbols_exposed(self):
        rng = np.random.default_rng(10)
        psdu = random_psdu(64, rng)
        result = _loopback(24, psdu)
        assert result.data_symbols is not None
        assert result.data_symbols.shape[1] == 48


class TestNonFiniteInput:
    """NaN/inf samples are an input error, never a plausible result.

    The repro is a 50-byte 24 Mbit/s packet with 100-sample guards: a
    single bad sample used to read as ordinary packet loss ("timing
    search failed") at sample 300, and as a successful decode at samples
    50 and 900.
    """

    def _packet(self):
        psdu = random_psdu(50, np.random.default_rng(1))
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(psdu)
        guard = np.zeros(100, complex)
        return np.concatenate([guard, wave, guard])

    @pytest.mark.parametrize("index", [50, 300, 900])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)]
    )
    def test_receive_raises(self, index, bad):
        samples = self._packet()
        samples[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Receiver(RxConfig()).receive(samples)

    def test_receive_batch_names_the_bad_rows(self):
        rows = np.stack([self._packet()] * 4)
        rows[1, 300] = np.nan
        rows[3, 50] = np.inf
        with pytest.raises(ValueError, match=r"rows \[1, 3\]"):
            Receiver(RxConfig()).receive_batch(rows)

    def test_finite_rows_still_decode(self):
        results = Receiver(RxConfig()).receive_batch(
            np.stack([self._packet()] * 2)
        )
        assert all(r.success for r in results)
