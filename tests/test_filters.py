"""Tests for analog filter models (repro.rf.filters)."""

import numpy as np
import pytest
from scipy import signal as sps

from repro.rf import filters as kernels
from repro.rf.filters import (
    BandwidthLimitError,
    butterworth_highpass,
    chebyshev_bandpass,
    chebyshev_lowpass,
    wideband_bandpass,
)
from repro.rf.noise import _flicker_amplitude
from repro.rf.oscillator import LocalOscillator, _error_rotator
from repro.rf.signal import Signal, _shift_rotator


def _tone(f, fs=80e6, n=16384):
    t = np.arange(n) / fs
    return Signal(np.exp(2j * np.pi * f * t), fs)


def _gain_db(filt, f, fs=80e6):
    out = filt.process(_tone(f, fs))
    settled = out.samples[4096:]
    return 10 * np.log10(np.mean(np.abs(settled) ** 2))


class TestChebyshevLowpass:
    def test_passband_nearly_flat(self):
        filt = chebyshev_lowpass(8.6e6, 80e6, order=7, ripple_db=0.5)
        assert _gain_db(filt, 1e6) == pytest.approx(0.0, abs=0.6)
        assert _gain_db(filt, 7e6) == pytest.approx(0.0, abs=0.6)

    def test_stopband_attenuates(self):
        filt = chebyshev_lowpass(8.6e6, 80e6, order=7)
        assert _gain_db(filt, 20e6) < -60.0

    def test_edge_has_ripple_level(self):
        filt = chebyshev_lowpass(10e6, 80e6, order=5, ripple_db=1.0)
        g = _gain_db(filt, 9.9e6)
        assert -2.0 < g < 0.5

    def test_negative_frequencies_symmetric(self):
        # Real-coefficient filter: same response at +/-f on the envelope.
        filt = chebyshev_lowpass(8e6, 80e6)
        assert _gain_db(filt, 5e6) == pytest.approx(_gain_db(filt, -5e6), abs=0.1)

    @pytest.mark.parametrize("edge", [0.0, -1e6, 40e6, 50e6])
    def test_invalid_edges(self, edge):
        with pytest.raises(ValueError):
            chebyshev_lowpass(edge, 80e6)

    def test_frequency_response_helper(self):
        filt = chebyshev_lowpass(8e6, 80e6)
        freqs, h = filt.frequency_response(80e6, n_points=512)
        assert freqs.size == h.size == 512
        mid = np.argmin(np.abs(freqs))
        assert abs(h[mid]) == pytest.approx(1.0, abs=0.12)

    def test_group_delay_positive(self):
        filt = chebyshev_lowpass(8e6, 80e6, order=7)
        gd = filt.group_delay_samples(1e6, 80e6)
        assert gd > 0


class TestHighpass:
    def test_blocks_dc(self):
        filt = butterworth_highpass(120e3, 80e6, order=2)
        dc = Signal(np.ones(32768, complex), 80e6)
        out = filt.process(dc)
        assert np.mean(np.abs(out.samples[16384:]) ** 2) < 1e-5

    def test_passes_band(self):
        filt = butterworth_highpass(120e3, 80e6, order=2)
        assert _gain_db(filt, 5e6) == pytest.approx(0.0, abs=0.1)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            butterworth_highpass(0.0, 80e6)


class TestBandpassRestriction:
    def test_narrow_bandpass_ok(self):
        filt = chebyshev_bandpass(10e6, 4e6, 80e6)
        assert _gain_db(filt, 10e6) == pytest.approx(0.0, abs=1.0)
        assert _gain_db(filt, 2e6) < -25.0

    def test_wideband_request_rejected(self):
        # The Spectre rflib limitation: bandwidth > 0.5 * center.
        with pytest.raises(BandwidthLimitError):
            chebyshev_bandpass(10e6, 6e6, 80e6)

    def test_workaround_composite(self):
        # The paper's workaround: high-pass + low-pass composition.
        filt = wideband_bandpass(1e6, 12e6, 80e6)
        assert _gain_db(filt, 6e6) == pytest.approx(0.0, abs=1.0)
        assert _gain_db(filt, 0.1e6) < -10.0
        assert _gain_db(filt, 30e6) < -20.0

    def test_workaround_bad_edges(self):
        with pytest.raises(ValueError):
            wideband_bandpass(5e6, 2e6, 80e6)

    def test_descriptions(self):
        assert "lowpass" in chebyshev_lowpass(8e6, 80e6).description
        assert "highpass" in butterworth_highpass(1e5, 80e6).description
        assert "composite" in wideband_bandpass(1e6, 9e6, 80e6).description


# ----------------------------------------------------------------------
# Kernel layer: every kernel returns exactly what scipy returns.

#: Designs of the packet path: the order-7 Butterworth transmit shaper,
#: order-1/order-2 Butterworth DC blocks (their zero-valued ``b2``/``a2``
#: coefficients shorten ``sosfiltfilt``'s pad) and the order-7 Chebyshev
#: channel filter.
DESIGNS = {
    "butter7-low": sps.butter(7, 9.5e6 / 40e6, output="sos"),
    "butter1-high": sps.butter(1, 200e3 / 40e6, btype="high", output="sos"),
    "butter2-high": sps.butter(2, 120e3 / 40e6, btype="high", output="sos"),
    "cheby7-low": sps.cheby1(7, 0.5, 8.6e6 / 40e6, output="sos"),
}


def _signal(shape, complex_valued, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if complex_valued:
        x = x + 1j * rng.standard_normal(shape)
    return x


def _identical(a, b):
    """Same shape, dtype and bytes (so signed zeros count too)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes()
        == np.ascontiguousarray(b).tobytes()
    )


SHAPES = [(1001,), (3, 1001)]


class TestKernelIdentity:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_sosfilt(self, design, shape, complex_valued):
        sos = DESIGNS[design]
        x = _signal(shape, complex_valued)
        assert _identical(kernels.sosfilt(sos, x), sps.sosfilt(sos, x))

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_sosfiltfilt(self, design, shape, complex_valued):
        sos = DESIGNS[design]
        x = _signal(shape, complex_valued)
        assert _identical(
            kernels.sosfiltfilt(sos, x), sps.sosfiltfilt(sos, x)
        )

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_sosfiltfilt_pad_length_boundary(self, design, complex_valued):
        sos = DESIGNS[design]
        ntaps = 2 * len(sos) + 1 - min(
            (sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()
        )
        padlen = 3 * ntaps
        at = _signal((padlen,), complex_valued)
        with pytest.raises(ValueError) as ours:
            kernels.sosfiltfilt(sos, at)
        with pytest.raises(ValueError) as theirs:
            sps.sosfiltfilt(sos, at)
        assert str(ours.value) == str(theirs.value)
        above = _signal((2, padlen + 1), complex_valued)
        assert _identical(
            kernels.sosfiltfilt(sos, above), sps.sosfiltfilt(sos, above)
        )

    def test_order_one_highpass_pad_is_shortened(self):
        sos = DESIGNS["butter1-high"]
        # Full pad would be 3 * (2 * 1 + 1) = 9; the zero b2/a2 pair
        # shortens it to 6, so a 7-sample input is filterable.
        x = _signal((7,), True)
        assert _identical(kernels.sosfiltfilt(sos, x), sps.sosfiltfilt(sos, x))

    @pytest.mark.parametrize(
        "up, down", [(2, 1), (4, 1), (6, 1), (1, 4), (3, 2), (8, 4)]
    )
    @pytest.mark.parametrize("shape", [(997,), (3, 997)])
    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_resample_poly(self, up, down, shape, complex_valued):
        x = _signal(shape, complex_valued)
        assert _identical(
            kernels.resample_poly(x, up, down),
            sps.resample_poly(x, up, down, axis=-1),
        )

    def test_resample_poly_high_ratio_is_exact_and_not_cached(self):
        x = _signal((400,), True)
        before = kernels._resample_fir.cache_info().currsize
        out = kernels.resample_poly(x, 101, 100)
        assert _identical(out, sps.resample_poly(x, 101, 100))
        assert kernels._resample_fir.cache_info().currsize == before

    def test_resample_poly_unit_ratio_copies(self):
        x = _signal((50,), True)
        out = kernels.resample_poly(x, 3, 3)
        assert _identical(out, x)
        assert out is not x

    def test_analog_filter_process_matches_scipy(self):
        filt = chebyshev_lowpass(8.6e6, 80e6, order=7)
        sig = _tone(3e6)
        expected = sps.sosfilt(
            sps.cheby1(7, 0.5, 8.6e6 / 40e6, output="sos"), sig.samples
        )
        assert _identical(filt.process(sig).samples, expected)

    @pytest.mark.parametrize("wn", [0.1, (0.2, 0.3)])
    def test_design_helpers_match_scipy(self, wn):
        btype = "band" if np.ndim(wn) else "low"
        assert _identical(
            kernels.butter_sos(3, wn, btype),
            sps.butter(3, wn, btype=btype, output="sos"),
        )
        assert _identical(
            kernels.cheby1_sos(3, 0.5, wn, btype),
            sps.cheby1(3, 0.5, wn, btype=btype, output="sos"),
        )


class TestCacheSafety:
    @pytest.mark.parametrize(
        "cache",
        [
            kernels._butter,
            kernels._cheby1,
            kernels._sosfilt_zi,
            kernels._resample_fir,
            _shift_rotator,
            _error_rotator,
            _flicker_amplitude,
        ],
        ids=lambda cache: cache.__name__,
    )
    def test_design_caches_are_bounded(self, cache):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize <= kernels.CACHE_SIZE

    def test_cache_stays_within_bound_when_flooded(self):
        for k in range(3 * kernels.CACHE_SIZE):
            butterworth_highpass(1e3 * (k + 1), 80e6)
        info = kernels._butter.cache_info()
        assert info.currsize <= info.maxsize

    def test_mutating_filter_sos_does_not_leak(self):
        first = chebyshev_lowpass(8.6e6, 80e6, order=7)
        first.sos[:] = 0.0
        second = chebyshev_lowpass(8.6e6, 80e6, order=7)
        design = sps.cheby1(7, 0.5, 8.6e6 / 40e6, output="sos")
        assert _identical(second.sos, design)
        sig = _tone(2e6)
        assert _identical(
            second.process(sig).samples, sps.sosfilt(design, sig.samples)
        )

    def test_mutating_design_helper_result_does_not_leak(self):
        from repro.dsp.transmitter import Transmitter, TxConfig

        psdu = np.arange(40, dtype=np.uint8)
        tx = Transmitter(TxConfig(oversample=4))
        before = tx.transmit(psdu)
        kernels.butter_sos(7, 9.5e6 / 40e6, "low")[:] = 0.0
        assert _identical(tx.transmit(psdu), before)

    def test_mutating_rotator_does_not_leak(self):
        lo = LocalOscillator(frequency_hz=2.6e9, frequency_error_ppm=10.0)
        first = lo.envelope_rotation(256, 80e6)
        expected = first.copy()
        first[:] = 0.0
        assert _identical(lo.envelope_rotation(256, 80e6), expected)

    def test_shift_leaves_cached_rotator_intact(self):
        sig = _tone(1e6, n=512)
        shifted = sig.shifted(20e6)
        expected = shifted.samples.copy()
        shifted.samples[:] = 0.0
        assert _identical(sig.shifted(20e6).samples, expected)
