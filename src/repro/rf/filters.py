"""Analog filter models and the envelope-filtering kernel layer.

The paper's receiver uses high-pass filtering between the mixer stages
(removing DC offsets and flicker noise) and Chebyshev low-pass channel
selection in the baseband section; figure 5 sweeps the Chebyshev passband
edge.  Filters are designed with scipy at the working sample rate and
applied causally (second-order sections), like the analog originals.

The module also reproduces the Spectre rflib limitation noted in section
4.2: "no bandpass filter model is available which allows a bandwidth
greater than 0.5 of the center frequency.  A high- and a low pass filter
was used instead" — :func:`chebyshev_bandpass` raises
:class:`BandwidthLimitError` for such requests, and
:func:`wideband_bandpass` builds the documented HP+LP composition.

Kernel layer
------------

Every envelope filter of the packet path — transmit upsampling and
pulse shaping, the emitters' transmitters, the RF filters, the ADC
anti-alias, the DSP-only decimator and the impairment resampler — runs
through the three kernels here: :func:`sosfilt` (causal, zero initial
state), :func:`sosfiltfilt` (zero phase, odd padding) and
:func:`resample_poly` (Kaiser-windowed polyphase FIR), all along the
last axis of 1-D or ``(B, n)`` float64 or complex128 input.  Each
returns exactly what the scipy function of the same name returns with
its default arguments.

*Real kernels.*  All coefficients are real, so a filter acts on the
real and imaginary parts of a complex envelope independently: the
complex product ``b * (x + jy)`` is ``b*x + j*b*y`` in every
floating-point operation, and scipy's complex loops add terms in the
same order as its real ones.  The kernels therefore filter one stacked
real ``[real, imag]`` array and reassemble the complex result, which
gives the same bits as scipy's complex path.  On an 11 000-sample
envelope (one core of a 2-vCPU x86-64 host, scipy 1.17) the real path
is ~3× faster for ``resample_poly`` by 4 (the cached FIR included),
~1.7× for the order-7 Butterworth ``sosfiltfilt`` and ~1.4× for the
order-7 Chebyshev ``sosfilt``; a single-section high-pass is ~15 %
slower, because scipy's loop cost per sample outweighs the arithmetic
there.

*Bounded caches.*  Designs depend only on their parameters, so
:func:`butter_sos`, :func:`cheby1_sos`, the resampler FIR and the
``sosfiltfilt`` initial state are memoized in ``functools.lru_cache``
caches of at most :data:`CACHE_SIZE` entries (polyphase FIRs of very
high rate ratios are designed per call instead of being kept).  Cached
arrays never leave the module: the design helpers return copies, so a
caller mutating a filter's ``sos`` cannot change any later result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import signal as sps

from repro.rf.signal import Signal


#: Entry bound of every design cache in this module.
CACHE_SIZE = 64

#: Largest reduced rate ratio whose polyphase FIR is cached; longer
#: FIRs (``20 * ratio + 1`` taps) are designed per call.
_MAX_CACHED_RATE = 64


class BandwidthLimitError(ValueError):
    """Raised when a bandpass request exceeds the library's validity range."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=CACHE_SIZE)
def _butter(order: int, wn, btype: str) -> np.ndarray:
    return sps.butter(order, wn, btype=btype, output="sos")


@lru_cache(maxsize=CACHE_SIZE)
def _cheby1(order: int, ripple_db: float, wn, btype: str) -> np.ndarray:
    return sps.cheby1(order, ripple_db, wn, btype=btype, output="sos")


def _hashable(wn):
    return tuple(wn) if np.ndim(wn) else wn


def butter_sos(order: int, wn, btype: str = "low") -> np.ndarray:
    """``scipy.signal.butter(order, wn, btype, output="sos")``, memoized.

    Returns a fresh copy of the cached design.
    """
    return _butter(order, _hashable(wn), btype).copy()


def cheby1_sos(
    order: int, ripple_db: float, wn, btype: str = "low"
) -> np.ndarray:
    """``scipy.signal.cheby1(order, ripple_db, wn, btype, output="sos")``,
    memoized.

    Returns a fresh copy of the cached design.
    """
    return _cheby1(order, ripple_db, _hashable(wn), btype).copy()


@lru_cache(maxsize=CACHE_SIZE)
def _sosfilt_zi(sos_bytes: bytes, n_sections: int) -> np.ndarray:
    sos = np.frombuffer(sos_bytes, dtype=float).reshape(n_sections, 6)
    return _frozen(sps.sosfilt_zi(sos))


@lru_cache(maxsize=CACHE_SIZE)
def _resample_fir(up: int, down: int) -> np.ndarray:
    """The FIR ``scipy.signal.resample_poly`` designs for ``up/down``."""
    max_rate = max(up, down)
    return _frozen(
        sps.firwin(2 * 10 * max_rate + 1, 1.0 / max_rate,
                   window=("kaiser", 5.0))
    )


def _split(x: np.ndarray) -> np.ndarray:
    """Complex ``(..., n)`` as the real stack ``(2, ..., n)``."""
    return np.stack((x.real, x.imag))


def _join(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_split` (assigned, so no zero changes sign)."""
    out = np.empty(y.shape[1:], dtype=complex)
    out.real = y[0]
    out.imag = y[1]
    return out


def sosfilt(sos: np.ndarray, x) -> np.ndarray:
    """Causal SOS filter along the last axis from zero initial state.

    Equal to ``scipy.signal.sosfilt(sos, x)`` for real ``sos``.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return _join(sosfilt(sos, _split(x)))
    return sps.sosfilt(sos, x, axis=-1)


def sosfiltfilt(sos: np.ndarray, x) -> np.ndarray:
    """Zero-phase forward-backward SOS filter along the last axis.

    Equal to ``scipy.signal.sosfiltfilt(sos, x)`` (odd padding of the
    default length) for real ``sos``; the body mirrors scipy's with the
    initial state taken from the cache.

    Raises:
        ValueError: when the input is not longer than the pad length.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return _join(sosfiltfilt(sos, _split(x)))
    sos = np.asarray(sos, dtype=float)
    n_sections = sos.shape[0]
    ntaps = 2 * n_sections + 1
    ntaps -= min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    edge = 3 * int(ntaps)
    if x.shape[-1] <= edge:
        raise ValueError(
            f"The length of the input vector x must be greater than "
            f"padlen, which is {edge}."
        )
    ext = np.concatenate(
        (
            2 * x[..., :1] - x[..., edge:0:-1],
            x,
            2 * x[..., -1:] - x[..., -2 : -(edge + 2) : -1],
        ),
        axis=-1,
    )
    zi = _sosfilt_zi(np.ascontiguousarray(sos).tobytes(), n_sections)
    zi = zi.reshape((n_sections,) + (1,) * (x.ndim - 1) + (2,))
    y, _ = sps.sosfilt(sos, ext, axis=-1, zi=zi * ext[..., :1])
    y, _ = sps.sosfilt(sos, y[..., ::-1], axis=-1, zi=zi * y[..., -1:])
    return y[..., ::-1][..., edge:-edge]


def resample_poly(x, up: int, down: int) -> np.ndarray:
    """Polyphase resampling by ``up/down`` along the last axis.

    Equal to ``scipy.signal.resample_poly(x, up, down)`` with its default
    Kaiser (beta 5) anti-imaging/anti-alias FIR.
    """
    g = math.gcd(up, down)
    up, down = up // g, down // g
    x = np.asarray(x)
    if up == down == 1:
        return x.copy()
    if np.iscomplexobj(x):
        return _join(resample_poly(_split(x), up, down))
    if max(up, down) > _MAX_CACHED_RATE:
        fir = _resample_fir.__wrapped__(up, down)
    else:
        fir = _resample_fir(up, down)
    return sps.resample_poly(x, up, down, axis=-1, window=fir)


@dataclass
class AnalogFilter:
    """A causal IIR filter applied to complex envelopes.

    Attributes:
        sos: second-order sections (scipy format).
        description: human-readable summary for netlists and reports.
    """

    sos: np.ndarray
    description: str = "filter"

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        """Filter the signal (zero initial state).  ``rng`` is unused."""
        return signal.with_samples(sosfilt(self.sos, signal.samples))

    def frequency_response(
        self, sample_rate: float, n_points: int = 1024
    ) -> tuple:
        """Two-sided complex frequency response.

        Returns:
            ``(freqs_hz, response)`` with frequencies spanning
            ``[-fs/2, fs/2)``.
        """
        w = np.fft.fftshift(np.fft.fftfreq(n_points)) * 2 * np.pi
        _, h = sps.sosfreqz(self.sos, worN=w)
        freqs = w / (2 * np.pi) * sample_rate
        return freqs, h

    def group_delay_samples(self, at_frequency_hz: float, sample_rate: float) -> float:
        """Approximate group delay at a given frequency, in samples."""
        b, a = sps.sos2tf(self.sos)
        w = [2 * np.pi * at_frequency_hz / sample_rate]
        _, gd = sps.group_delay((b, a), w=w)
        return float(gd[0])


def chebyshev_lowpass(
    passband_edge_hz: float,
    sample_rate: float,
    order: int = 5,
    ripple_db: float = 0.5,
) -> AnalogFilter:
    """Chebyshev type-I low-pass (the channel-selection filter of fig. 2).

    The filter acts on the complex envelope, i.e. it is applied to both
    I and Q; the equivalent RF bandwidth is ``2 * passband_edge_hz``.

    Args:
        passband_edge_hz: passband edge frequency (the fig. 5 sweep
            parameter, expressed in the paper as a ratio of 1e8 Hz).
        sample_rate: envelope sample rate.
        order: filter order.
        ripple_db: passband ripple.
    """
    nyquist = sample_rate / 2.0
    if not 0 < passband_edge_hz < nyquist:
        raise ValueError(
            f"passband edge {passband_edge_hz:g} Hz outside (0, {nyquist:g})"
        )
    sos = cheby1_sos(order, ripple_db, passband_edge_hz / nyquist, "low")
    return AnalogFilter(
        sos=sos,
        description=(
            f"cheby1 lowpass order={order} ripple={ripple_db}dB "
            f"edge={passband_edge_hz:g}Hz"
        ),
    )


def butterworth_highpass(
    cutoff_hz: float, sample_rate: float, order: int = 2
) -> AnalogFilter:
    """Butterworth high-pass (the inter-stage DC/flicker blocking filter)."""
    nyquist = sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz:g} Hz outside (0, {nyquist:g})"
        )
    sos = butter_sos(order, cutoff_hz / nyquist, "high")
    return AnalogFilter(
        sos=sos,
        description=f"butter highpass order={order} cutoff={cutoff_hz:g}Hz",
    )


def chebyshev_bandpass(
    center_hz: float,
    bandwidth_hz: float,
    sample_rate: float,
    order: int = 4,
    ripple_db: float = 0.5,
    max_relative_bandwidth: float = 0.5,
) -> AnalogFilter:
    """Chebyshev band-pass with the Spectre rflib validity restriction.

    Raises:
        BandwidthLimitError: when ``bandwidth_hz > max_relative_bandwidth *
            center_hz`` (the library limitation reported in section 4.2).
    """
    if bandwidth_hz > max_relative_bandwidth * center_hz:
        raise BandwidthLimitError(
            f"bandpass bandwidth {bandwidth_hz:g} Hz exceeds "
            f"{max_relative_bandwidth} of the center frequency "
            f"{center_hz:g} Hz; compose a high-pass and a low-pass instead "
            f"(see wideband_bandpass)"
        )
    nyquist = sample_rate / 2.0
    lo = (center_hz - bandwidth_hz / 2.0) / nyquist
    hi = (center_hz + bandwidth_hz / 2.0) / nyquist
    if not 0 < lo < hi < 1:
        raise ValueError("bandpass corners outside the representable band")
    sos = cheby1_sos(order, ripple_db, (lo, hi), "band")
    return AnalogFilter(
        sos=sos,
        description=(
            f"cheby1 bandpass order={order} center={center_hz:g}Hz "
            f"bw={bandwidth_hz:g}Hz"
        ),
    )


def wideband_bandpass(
    low_edge_hz: float,
    high_edge_hz: float,
    sample_rate: float,
    order: int = 3,
    ripple_db: float = 0.5,
) -> AnalogFilter:
    """The paper's workaround: cascade of high-pass and low-pass sections.

    Used when a band-pass wider than half its center frequency is needed
    (impossible with the restricted band-pass model).
    """
    if not 0 < low_edge_hz < high_edge_hz:
        raise ValueError("edges must satisfy 0 < low < high")
    hp = butterworth_highpass(low_edge_hz, sample_rate, order=order)
    lp = chebyshev_lowpass(
        high_edge_hz, sample_rate, order=order, ripple_db=ripple_db
    )
    sos = np.vstack([hp.sos, lp.sos])
    return AnalogFilter(
        sos=sos,
        description=(
            f"HP+LP composite bandpass [{low_edge_hz:g}, {high_edge_hz:g}]Hz"
        ),
    )
