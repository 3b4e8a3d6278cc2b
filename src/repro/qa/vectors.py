"""Frozen Annex-G-style conformance vector corpus.

The corpus pins one fully worked 802.11a encoding example — in the
spirit of Annex G of IEEE Std 802.11a-1999 — plus per-rate digests of a
shared fixed-payload frame for all eight data rates.  Every literal of
the corpus was generated by the *independent* reference implementation
in :mod:`repro.qa.reference` (scalar, table-driven, sharing no code with
:mod:`repro.dsp`) and then frozen; the conformance harness checks the
production TX pipeline against these constants stage by stage, so the
encoder and the corpus cannot drift together.

Reference scenario (the worked example):

* data rate 36 Mbit/s (16-QAM, rate 3/4) — the Annex G choice;
* 100-byte PSDU with byte ``i`` equal to ``(7 i + 3) mod 256``;
* scrambler seed ``1011101`` — the Annex G initial state.

A second section holds regression digests of the production chain
itself (whole test-bench packets, the receiver's failure paths, the
adjacent-channel measurement); see "Chain regression digests" below.

Regeneration (only needed if the *standard interpretation* changes):
run each ``repro.qa.reference`` stage on the scenario above and refresh
the literals; digests are ``sha256(...)[:16]`` over the raw bit bytes,
or over samples rounded to 9 decimals with negative zeros normalized.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

SCRAMBLER_SEED = 0b1011101
SCRAMBLER_SEQUENCE_HEX = "6c19a9cf6855f4a371fc3bcb240898ba"

REFERENCE_RATE_MBPS = 36
REFERENCE_PSDU_HEX = "030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8"
DATA_BITS_HEX = "6c19699fe04d0cc7c5d0e789b60272c07e059dc051ba182f5adda2dbd512d2061b5d606a2e482ded77d83768042e8e97c2ff8421c4b9537531c00f10b94120a36ca75fa50e44b150a8ec63f2d08163d52701f5b188ac660485a1af2a1f12f62aaf53b68f986000dc7f0ef2c9"
N_DATA_BITS = 864
CODED_BITS_HEX = "3ad124a0da554c063c65f7209b580fdeada35c2b552c5a80812849cdcb886a2739a065f46b0bc35734b41dc0ad6391149d1585b0f963d98af9df04c1a95642fa3a6d262c1189faeb13d7e2d42119be4e62ccde3492b70f96ec37c6170a09c9a91d9a144fc66bc6f154601a7e14090701c93de45700e66a0c617e1778714212d074a1f5e7b1210b9a7755223c1aa13807620109fd1d37a814695b6f2f4687a5df0a7b85739aed1611d343fe361d03f9f71418656d6e88a4501d5ada01a49344e0ccf89dc9efe8960ab5ffa639c000eb736ea31995f3a46afb"
N_CODED_BITS = 1728
PUNCTURED_BITS_HEX = "2b08a3b5506e77688d83dac950b531a08493d6a2686fa05c6cb15d4c160b6f049541a399c6bfdc51a570e9bb38c587bb0f78d007b8f8d3ec8b639acdd962068b17a45e7bdb1461be1081068ff160f8a265e561100b1ca759a403897529c6a5816803f5cda15b4ceb5a69dcbf9526f565cc3e39c1e764005b7a8841d6c8088c58d387c6fa98adfe6fc01b6ce9075db0bf"
N_PUNCTURED_BITS = 1152
INTERLEAVED_BITS_HEX = "4cd399d133b88c224cd44e604fc383736816b4391328e8d50fde3894e961d16f76361ace86786582d4be665a112255fb7e2a1b201b9dae642c9de6573597d8bad50bb55a874b58e831d3c03db7001268664301fbd831693840b843085950ac6e67aee5e168f89ccab5082939544b6b1fa1867c98b5b69fea3f9dec815472b342a98d2841ce5aa9075a87b7f8734d907f"
N_INTERLEAVED_BITS = 1152
FIRST_SYMBOL_LEVELS = (
    (-1, -3), (1, -3), (1, -1), (-3, 1), (3, -1), (3, -1), (1, -1), (-3, -1),
    (-3, 1), (-3, 1), (3, 1), (3, -3), (3, -3), (1, -3), (-3, 3), (-3, 3),
    (-1, -3), (1, -3), (1, -1), (-1, -3), (-1, -3), (1, 3), (-1, 3), (-3, -3),
    (-1, -3), (1, 1), (1, -3), (-3, 1), (3, -3), (-3, 1), (-1, 1), (-3, 1),
    (-1, 3), (3, -3), (-3, -1), (-1, 3), (3, 1), (-1, -3), (-3, 1), (3, -1),
    (-3, -1), (-3, 1), (-3, 3), (3, -3), (1, 3), (3, -3), (1, -1), (-1, -1),
)
FRAME_LENGTH = 880
FRAME_DIGEST = "20515f7471609fc5"
FIRST_DATA_SYMBOL = (
    (0.7016464154456276, -0.16117891154089545),
    (0.1222699229146249, -1.6836287489111328),
    (-0.7112637738947247, -0.5389831760376239),
    (-1.0634203476316642, -0.34817458372249677),
    (-1.098209462753922, -0.975317689076399),
    (0.5414746441290967, 0.40585545402600737),
    (0.8058552902560547, 0.3682131081447826),
    (0.2523247531216614, -1.091335785339569),
    (-0.42405753780785055, -0.9190435466286296),
    (-1.6438214667492044, 0.8132919448115412),
    (-0.4423890233309855, 0.09449663377466716),
    (-0.08112555988120172, -0.5841886617786523),
    (-0.732294937338902, 0.6050844579547046),
    (0.1357029573540066, -0.6357051725131145),
    (0.24166617472937382, -0.279681260878966),
    (0.2527208141777405, 0.456033082564152),
    (-0.24888471347160296, -1.1401754250991383),
    (-0.8996066564414411, -0.640032164455588),
    (-0.0685668499765966, -0.1879808785206791),
    (-0.1377928051796876, 0.08825663077182808),
    (-0.371145314778874, -0.06419953571041176),
    (0.6973660429890276, -0.2599263988678157),
    (0.23703688129272427, 1.0015627102713245),
    (-1.0543017722336283, -0.00427821224271878),
    (0.5469393428609948, 0.670974077450205),
    (1.9197941447239386, 1.0600656799600652),
    (-0.02732969536800905, -2.033429247172505),
    (-1.0962174654398946, -0.792662931198571),
    (-0.04803075152503253, 0.8653704542881773),
    (0.5290507400727399, -0.1216417309079372),
    (0.028371564781864245, -0.07315095628270145),
    (-0.6973249381971164, -0.4332488063282685),
    (-1.2278812270298403, -0.36505590004331756),
    (-0.8651920881270316, -0.5414121146082017),
    (0.8937619538582362, -0.33917497797949325),
    (0.7377470344165311, 1.66612332654111),
    (-0.925257041083372, 1.4501756313884229),
    (-0.734362572338144, -0.7026605741810085),
    (-0.1446311628750261, -1.176673839785235),
    (0.526312379041226, -0.4625878068816605),
    (0.4240575378078591, 0.21739713118299153),
    (-0.1077348797721223, 0.5931953431415916),
    (1.271568140157167, -0.09523172028677694),
    (1.29362419317503, -0.01590877461816393),
    (0.009367525848464023, 0.8194893689813627),
    (0.5831368762577127, 0.3326032071547068),
    (0.838608409726906, 0.996880359033622),
    (-0.07059128913114032, 1.319868994583558),
    (-0.6281733058354251, 0.2631174057921101),
    (-1.125034179460801, 0.6314152931441865),
    (-0.6100702683437506, 0.013669409369361053),
    (0.5216714357128731, -0.46902116333995036),
    (-0.411973843166326, 0.2909880088440111),
    (-0.061353704256427326, -0.18228609902767057),
    (1.2066782376631242, 0.15772122909194397),
    (-0.4307774395374381, 0.7783062076315123),
    (0.15470707258462085, 0.03067233799542103),
    (1.110908387841531, 0.26324370527437374),
    (-0.3057104831013474, 0.9816947105161807),
    (0.3216524531848541, -0.04056278101194459),
    (0.069311747569849, -0.18500503488737322),
    (-0.20259816913751377, 0.6676223759599956),
    (0.9962930970987307, -0.2932249341491503),
    (0.7254985544018508, -0.06661873563016343),
    (0.7016464154456276, -0.16117891154089545),
    (0.1222699229146249, -1.6836287489111328),
    (-0.7112637738947247, -0.5389831760376239),
    (-1.0634203476316642, -0.34817458372249677),
    (-1.098209462753922, -0.975317689076399),
    (0.5414746441290967, 0.40585545402600737),
    (0.8058552902560547, 0.3682131081447826),
    (0.2523247531216614, -1.091335785339569),
    (-0.42405753780785055, -0.9190435466286296),
    (-1.6438214667492044, 0.8132919448115412),
    (-0.4423890233309855, 0.09449663377466716),
    (-0.08112555988120172, -0.5841886617786523),
    (-0.732294937338902, 0.6050844579547046),
    (0.1357029573540066, -0.6357051725131145),
    (0.24166617472937382, -0.279681260878966),
    (0.2527208141777405, 0.456033082564152),
)

GOLDEN_RATE_DIGESTS = {
    6: {
        "data_bits": "4e70bb22347159dc",
        "punctured": "ad909be06ee499cf",
        "interleaved": "8ebba50823f0d88b",
        "symbols": "939c133e05fb0707",
        "ppdu": "69d40ec827af7938",
        "n_samples": 2240,
    },
    9: {
        "data_bits": "f145bae982c981f5",
        "punctured": "e2363073635bccbf",
        "interleaved": "5ffaf72bc2e24b72",
        "symbols": "d1957afa99a4bcb3",
        "ppdu": "9aedaf6668999953",
        "n_samples": 1600,
    },
    12: {
        "data_bits": "4089b28c481cf4fc",
        "punctured": "a71bc921e64b24e2",
        "interleaved": "542efc9d3d4ee2a2",
        "symbols": "c7036efa058a2d68",
        "ppdu": "e1963bc51d20ab57",
        "n_samples": 1360,
    },
    18: {
        "data_bits": "4089b28c481cf4fc",
        "punctured": "54faed3f76ed32f0",
        "interleaved": "2bc02c777b4a87b6",
        "symbols": "f1ea4d13b443523c",
        "ppdu": "405aeb3dafddcd61",
        "n_samples": 1040,
    },
    24: {
        "data_bits": "4089b28c481cf4fc",
        "punctured": "a71bc921e64b24e2",
        "interleaved": "ac9bb81426a46326",
        "symbols": "60b91687798272ac",
        "ppdu": "063ed46a0e982d8a",
        "n_samples": 880,
    },
    36: {
        "data_bits": "4089b28c481cf4fc",
        "punctured": "54faed3f76ed32f0",
        "interleaved": "2cbbc7ceaac4209e",
        "symbols": "de86405a013de43f",
        "ppdu": "73249152250bfb09",
        "n_samples": 720,
    },
    48: {
        "data_bits": "4089b28c481cf4fc",
        "punctured": "f574b69aea07519d",
        "interleaved": "8d2cbcac7280dcea",
        "symbols": "23f0fd93aa3c4e54",
        "ppdu": "f4fbc7781196fc19",
        "n_samples": 640,
    },
    54: {
        "data_bits": "52afd94c33dae7ea",
        "punctured": "bec5142c32bafb5e",
        "interleaved": "3972085c3dadcc2f",
        "symbols": "d7d3afc55264eb5f",
        "ppdu": "8fecb82dc0c7ebb7",
        "n_samples": 640,
    },
}


# --------------------------------------------------------------------------
# Accessors
# --------------------------------------------------------------------------
def _unpack_bits(hex_text: str, n_bits: int) -> np.ndarray:
    data = np.frombuffer(bytes.fromhex(hex_text), dtype=np.uint8)
    return np.unpackbits(data)[:n_bits]


def scrambler_sequence_bits() -> np.ndarray:
    """The frozen 127-bit scrambling sequence for the corpus seed."""
    return _unpack_bits(SCRAMBLER_SEQUENCE_HEX, 127)


def reference_psdu() -> np.ndarray:
    """The 100-byte reference PSDU."""
    return np.frombuffer(bytes.fromhex(REFERENCE_PSDU_HEX), dtype=np.uint8)


def data_bits() -> np.ndarray:
    """Scrambled DATA-field bits (SERVICE + PSDU + tail + pad)."""
    return _unpack_bits(DATA_BITS_HEX, N_DATA_BITS)


def coded_bits() -> np.ndarray:
    """Rate-1/2 mother-code output (A/B interleaved)."""
    return _unpack_bits(CODED_BITS_HEX, N_CODED_BITS)


def punctured_bits() -> np.ndarray:
    """Rate-3/4 punctured coded bits."""
    return _unpack_bits(PUNCTURED_BITS_HEX, N_PUNCTURED_BITS)


def interleaved_bits() -> np.ndarray:
    """Interleaved coded bits (192-bit blocks, N_BPSC = 4)."""
    return _unpack_bits(INTERLEAVED_BITS_HEX, N_INTERLEAVED_BITS)


def first_symbol_points() -> np.ndarray:
    """16-QAM points of the first DATA OFDM symbol (K_MOD-normalized)."""
    levels = np.array(FIRST_SYMBOL_LEVELS, dtype=float)
    return (levels[:, 0] + 1j * levels[:, 1]) / np.sqrt(10.0)


def first_data_symbol_samples() -> np.ndarray:
    """80 time-domain samples of the first DATA OFDM symbol."""
    pairs = np.array(FIRST_DATA_SYMBOL, dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def digest_bits(bits) -> str:
    """Digest of a bit vector (sha256 over raw uint8 bytes, 16 hex chars)."""
    return hashlib.sha256(
        np.asarray(bits, dtype=np.uint8).tobytes()
    ).hexdigest()[:16]


def digest_samples(samples, decimals: int = 9) -> str:
    """Digest of complex samples, rounded with negative zeros normalized."""
    rounded = np.round(np.asarray(samples, dtype=complex), decimals) + 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def fixed_psdu() -> np.ndarray:
    """The shared 64-byte payload of the per-rate golden digests."""
    return np.arange(64, dtype=np.uint8)


# --------------------------------------------------------------------------
# Chain regression digests
# --------------------------------------------------------------------------
# Unlike the corpus above, these pin outputs of the production chain
# itself: whole packets through the test bench, the receiver's failure
# paths and the adjacent-channel measurement.  They were frozen from the
# per-packet chain while it still had its own scalar bodies beside the
# batched ones, so they are the oracle that the single batched path
# reproduces it.  Integer outcomes, bytes and constellation points are
# hashed exactly; equalized receive symbols go through
# :func:`digest_samples`, whose rounding keeps the digests portable
# across floating-point libraries.

#: ``case -> (rate_mbps, snr_db, seed, n_packets)`` of the packet digests:
#: every rate on its waterfall (clean, errored and lost packets), plus a
#: 54 Mbit/s case so deep in noise that no packet is detected.
PACKET_CASES = {
    **{f"{mbps}mbps": (mbps, snr_db, 1234, 6) for mbps, snr_db in (
        (6, 2.0), (9, 3.0), (12, 3.0), (18, 5.0),
        (24, 6.0), (36, 9.0), (48, 12.0), (54, 14.0),
    )},
    "54mbps-low-snr": (54, -2.0, 77, 8),
}

#: PSDU length of every :data:`PACKET_CASES` packet.
PACKET_PSDU_BYTES = 40

#: :func:`packet_outcome_digest` of each :data:`PACKET_CASES` case.
GOLDEN_PACKET_DIGESTS = {
    "6mbps": "fef6ed8c2e152551",
    "9mbps": "7b0660aacdeac4d5",
    "12mbps": "c89723b7e680ea9d",
    "18mbps": "b7cacb4533530321",
    "24mbps": "b5b37705f2df8286",
    "36mbps": "0a65cc44ad6cf666",
    "48mbps": "916885f7fce26f6c",
    "54mbps": "f8a788cbd3ddd1fa",
    "54mbps-low-snr": "b40ca9c9ea797ae1",
}

#: Expected ``(packet_start, rate_mbps, length_bytes)`` of the receive
#: result for each crafted input of :func:`rx_failure_inputs`, keyed by
#: the ``RxResult.failure`` reason it reaches.
GOLDEN_RX_FAILURES = {
    "packet not detected": (None, None, 0),
    "timing search failed": (None, None, 0),
    "packet truncated": (None, None, 0),
    "invalid SIGNAL rate field": (100, None, 0),
    "SIGNAL parity error": (100, 24, 40),
    "zero-length PSDU": (None, None, 0),
    "DATA field truncated": (100, 24, 40),
    "genie rate requires genie length": (None, None, 0),
}

#: The ``adjacent-16db`` measurement: bench settings, then the frozen
#: ``(bit_errors, bits_total)``.
ADJACENT_16DB_CASE = {
    "rate_mbps": 36, "psdu_bytes": 60, "snr_db": 14.0,
    "n_packets": 4, "seed": 1,
}
GOLDEN_ADJACENT_16DB = (951.0, 1920)

#: :func:`digest_samples` of the OFDM-modulated reference DATA field
#: (:func:`reference_psdu` at :data:`REFERENCE_RATE_MBPS`), in symbol
#: order and with its symbols reversed.
GOLDEN_MODULATE_DIGESTS = ("2c6c0e8c73a62b4b", "188f2b98aae421f1")

#: :func:`digest_samples` of a +16 dB first-adjacent 802.11a emitter:
#: 2048 samples at 80 MHz, 1 W reference, ``default_rng(0)``.
GOLDEN_WLAN_EMITTER = "491e28847a73f8d0"


def packet_outcome_digest(outcomes) -> str:
    """Digest of test-bench packet outcomes, in order.

    Covers each packet's bit errors, lost flag, failure reason, decoded
    PSDU, transmitted DATA symbols (exact) and equalized received
    symbols (rounded, :func:`digest_samples`).
    """
    h = hashlib.sha256()
    for outcome in outcomes:
        rx = outcome.rx_result
        h.update(repr(
            (float(outcome.bit_errors), bool(outcome.lost), rx.failure)
        ).encode())
        h.update(np.asarray(rx.psdu, dtype=np.uint8).tobytes())
        h.update(np.asarray(outcome.tx_symbols, dtype=complex).tobytes())
        if rx.data_symbols is not None:
            h.update(digest_samples(rx.data_symbols).encode())
    return h.hexdigest()[:16]


def packet_case(name: str):
    """``(bench, rngs)`` of one :data:`PACKET_CASES` entry.

    Packet ``j`` draws from child ``j`` of the case seed, exactly as a
    BER measurement does.
    """
    from repro import perf
    from repro.core.testbench import TestbenchConfig, WlanTestbench

    rate_mbps, snr_db, seed, n_packets = PACKET_CASES[name]
    bench = WlanTestbench(TestbenchConfig(
        rate_mbps=rate_mbps, snr_db=snr_db, psdu_bytes=PACKET_PSDU_BYTES
    ))
    rngs = [np.random.default_rng(c) for c in perf.spawn(seed, n_packets)]
    return bench, rngs


def _signal_symbol(bits: np.ndarray) -> np.ndarray:
    """One SIGNAL OFDM symbol carrying arbitrary (even invalid) bits."""
    from repro.dsp.convcode import ConvolutionalEncoder
    from repro.dsp.interleaver import interleave
    from repro.dsp.modulation import Mapper
    from repro.dsp.ofdm import OfdmModulator

    coded = ConvolutionalEncoder().encode(bits)
    points = Mapper("BPSK").map(interleave(coded, n_cbps=48, n_bpsc=1))
    return OfdmModulator().modulate_symbol(points, 0, pilot_polarity=1.0)


def rx_failure_inputs() -> Dict[str, tuple]:
    """One noise-free receive input per reachable failure reason.

    Returns ``failure -> (RxConfig, samples)``: feeding ``samples`` to a
    :class:`~repro.dsp.receiver.Receiver` with that config fails with
    exactly that ``RxResult.failure`` string.
    """
    from repro.dsp.params import RATES
    from repro.dsp.preamble import preamble, short_training_field
    from repro.dsp.preamble import signal_field_bits
    from repro.dsp.receiver import RxConfig
    from repro.dsp.transmitter import Transmitter, TxConfig

    rate = RATES[24]
    psdu = fixed_psdu()[:40]
    ppdu = Transmitter(TxConfig(rate_mbps=24)).transmit(psdu)
    data = ppdu[400:]

    def padded(*parts, lead=100, trail=100):
        return np.concatenate(
            [np.zeros(lead, complex), *parts, np.zeros(trail, complex)]
        )

    def with_signal(edit):
        bits = signal_field_bits(rate, psdu.size)
        edit(bits)
        return padded(preamble(), _signal_symbol(bits), data)

    def bad_rate(bits):
        bits[0:4] = 0

    def bad_parity(bits):
        bits[17] ^= 1

    def zero_length(bits):
        bits[5:17] = 0
        bits[17] = bits[0:17].sum() % 2

    practical = RxConfig()
    return {
        "packet not detected": (practical, np.zeros(800, complex)),
        "timing search failed": (practical, short_training_field()),
        "packet truncated": (practical, padded(preamble(), trail=20)),
        "invalid SIGNAL rate field": (practical, with_signal(bad_rate)),
        "SIGNAL parity error": (practical, with_signal(bad_parity)),
        "zero-length PSDU": (practical, with_signal(zero_length)),
        "DATA field truncated": (
            practical, padded(ppdu[:560], trail=0)
        ),
        "genie rate requires genie length": (
            RxConfig(genie_rate_mbps=24), padded(ppdu)
        ),
    }


def rx_failure_summary(result) -> tuple:
    """``(packet_start, rate_mbps, length_bytes)`` of a receive result."""
    rate = None if result.rate is None else result.rate.data_rate_mbps
    return (result.packet_start, rate, result.length_bytes)


def adjacent_16db_bench():
    """The test bench of :data:`ADJACENT_16DB_CASE` (``adjacent-16db``)."""
    from repro.core.testbench import TestbenchConfig, WlanTestbench
    from repro.scenario import Scenario

    case = ADJACENT_16DB_CASE
    return WlanTestbench(TestbenchConfig(
        rate_mbps=case["rate_mbps"],
        psdu_bytes=case["psdu_bytes"],
        snr_db=case["snr_db"],
        scenario=Scenario.preset("adjacent-16db"),
    ))
