"""Exact golden digests of the oversampled transmit, emitter and RF paths.

Each test hashes the raw bytes (``sha256(x.tobytes())``) of one
waveform the envelope-filtering kernels of :mod:`repro.rf.filters`
produce or feed: the oversampled, pulse-shaped transmit (scalar and
batch rows), the 802.11a adjacent-channel emitter, every
``stage_outputs`` stage of both receiver architectures on the
``adjacent-16db`` input, the anti-aliased ADC, the sample-clock-offset
resampler and the DSP-only decimator of the test bench.  The digests
pin every bit, signed zeros included, so any change to filter designs,
kernels or phasors that is not exactly bit-identical fails here.

Exact bytes depend on the floating-point libraries (numpy's FFT and
``exp``, scipy's filter design, libm), so the digests are checked only
in the environment they were recorded in (:data:`RECORDED_ON`);
elsewhere the tests skip and the kernel identity tests of
``tests/test_filters.py`` carry the bit-identity guarantee.

Regeneration: run :func:`_compute_all` in the recording environment,
only after a deliberate, versioned change of the output bits.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.dsp.impairments import apply_sample_clock_offset
from repro.dsp.transmitter import Transmitter, TxConfig
from repro.rf.adc import Adc
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.signal import Signal
from repro.rf.zeroif import ZeroIfConfig, ZeroIfReceiver
from repro.scenario import Scenario, WlanEmitter


def _environment() -> dict:
    features = np._core._multiarray_umath.__cpu_features__ if hasattr(
        np, "_core"
    ) else {}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "avx512f": bool(features.get("AVX512F", False)),
    }


#: Library versions and CPU class the digests below were recorded with.
RECORDED_ON = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "machine": "x86_64",
    "avx512f": True,
}

pytestmark = pytest.mark.skipif(
    _environment() != RECORDED_ON,
    reason=f"exact digests recorded on {RECORDED_ON}",
)


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _psdus(n_packets: int, n_bytes: int = 60) -> np.ndarray:
    rng = np.random.default_rng(20)
    return rng.integers(0, 256, size=(n_packets, n_bytes), dtype=np.uint8)


def _adjacent_input(seed: int = 7) -> Signal:
    """The fig-6 receiver input: -60 dBm wanted plus the +16 dB neighbour."""
    wave = Transmitter(TxConfig(rate_mbps=36, oversample=4)).transmit(
        _psdus(1)[0]
    )
    guard = np.zeros(600, dtype=complex)
    sig = Signal(
        np.concatenate([guard, wave, guard]), 80e6, 5.2e9
    ).scaled_to_dbm(-60.0)
    return Scenario.preset("adjacent-16db").apply(
        sig, np.random.default_rng(seed)
    )


class _NoProbes:
    enabled = False


def _stage_digests(frontend) -> dict:
    staged = frontend.stage_outputs(_adjacent_input(), np.random.default_rng(8))
    return {name: _digest(s.samples) for name, s in staged}


def _compute_all() -> dict:
    """Every digest this module pins, keyed like :data:`GOLDEN`."""
    psdus = _psdus(3)
    tx = Transmitter(TxConfig(oversample=4))
    waves, _ = tx.transmit_batch(psdus)
    emitter = WlanEmitter(offset_channels=1, excess_db=16)
    bench = WlanTestbench(
        TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            snr_db=25.0,
            scenario=Scenario.preset("adjacent-16db"),
        )
    )
    baseband, _ = bench._propagate(
        bench._transmitter.transmit(psdus[0]),
        np.random.default_rng(9),
        _NoProbes(),
    )
    wide = _adjacent_input()
    return {
        "transmit": _digest(tx.transmit(psdus[0])),
        "transmit_batch": [_digest(row) for row in waves],
        "emitter": _digest(
            emitter.generate(
                30000, 80e6, 1e-9, np.random.default_rng(3)
            ).samples
        ),
        "double_conversion": _stage_digests(
            DoubleConversionReceiver(FrontendConfig())
        ),
        "zero_if": _stage_digests(ZeroIfReceiver(ZeroIfConfig())),
        "adc_anti_alias": _digest(
            Adc(n_bits=None, decimation=4, anti_alias=True)
            .process(wide)
            .samples
        ),
        "sample_clock_offset": _digest(
            apply_sample_clock_offset(tx.transmit(psdus[1]), 40.0)
        ),
        "dsp_decimator": _digest(baseband),
    }


GOLDEN = {
    "transmit": "5c34c458132ad74b46e8ce9c2025e6467ee6fa237c654bc93fce0a08b07a955d",
    "transmit_batch": [
        "5c34c458132ad74b46e8ce9c2025e6467ee6fa237c654bc93fce0a08b07a955d",
        "c0f56c12a07ed723f3cb5949682a1ee25151b5c1a780d0c5db3efb7ef00f7a27",
        "005228a7128593471763ea4a683fd90072885e17982e175e25acef353f099d4d"
    ],
    "emitter": "3decf591e26e6debc848dbf77d6c59e08d8a5e5f585e152a6dc3048f12dd4c58",
    "double_conversion": {
        "input": "c5be1dd2b019244d586dbd005b38a7fa995ac7d211f0ecd0be5fa70d8d6fe63b",
        "lna": "dfc4a7fe225455564e558742df025de459ef6323e0ca4af44e665475edfb1d66",
        "mixer1": "f92e42abce32ae3fe327ec5f1a0ed06fbaf53405de9c25fefaede3ed8ac326ac",
        "mixer2": "6a2a0db252bc98c39e787440e3abd4ef460ae9b1bf7f05b3d8e6a4d3dd4add90",
        "hpf": "c8dcd81881d3283ef60b56a36357f38bd9cde719fedffe688e9474eb0bcaf814",
        "lpf": "b9d3d9b8d81a68afad02a383bd066729ba379ffcc8551c1b15804a41ae67d992",
        "agc": "bb622c29757163e6707c238d44871c39a3d38d180f4abc1f674addeb70e61859",
        "adc": "45eee1b4f59433405702bb35a280b7a3f53652b6a45088926cafde60f26c28fc"
    },
    "zero_if": {
        "input": "c5be1dd2b019244d586dbd005b38a7fa995ac7d211f0ecd0be5fa70d8d6fe63b",
        "lna": "dfc4a7fe225455564e558742df025de459ef6323e0ca4af44e665475edfb1d66",
        "mixer": "ddfe164dbd7ed6c5a03c29ef312ed9bc9e36ea38fe4ab4eba8705e10daa51f53",
        "dc_block": "7c57a9031709cbc612a5cad74c3d3a5b71c23173caa16d35d8cbb0843774d451",
        "lpf": "c4770d22dab76e834d92d27ad7e35d800e3d7bc72f07e63c02b295027d72f1c8",
        "agc": "dd03ee2400f343a5a9065b8e0ad4f05b743dc58baa91b7bf823aff1ae02f2506",
        "adc": "e908b4ec5024017fec9b709a07bd5cb34e6b068b6edfdcb570e74c9b9f390e2d"
    },
    "adc_anti_alias": "02158115f82752ac0e2f86bc13f3ce713ef396fe0bb4b76aeb1a5111575f014c",
    "sample_clock_offset": "9919ef2ba25a2f5c21ca64544c22469e8a5a17e98c9e3df9ad23063f1b556367",
    "dsp_decimator": "803ac604078a4d8dddf7edd8b3cfc4632bef5299d262e4a227bf518c9ea4284c"
}


@pytest.fixture(scope="module")
def computed():
    return _compute_all()


@pytest.mark.parametrize(
    "key",
    [
        "transmit",
        "transmit_batch",
        "emitter",
        "double_conversion",
        "zero_if",
        "adc_anti_alias",
        "sample_clock_offset",
        "dsp_decimator",
    ],
)
def test_golden_digest(computed, key):
    assert computed[key] == GOLDEN[key]


def test_batch_rows_equal_scalar_transmit(computed):
    assert computed["transmit_batch"][0] == computed["transmit"]
