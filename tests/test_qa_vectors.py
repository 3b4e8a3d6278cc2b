"""Conformance of the production TX chain against repro.qa.vectors.

The corpus was generated by the independent scalar reference encoder in
:mod:`repro.qa.reference`; these tests pin the production ``repro.dsp``
chain to it stage by stage, so an encoder bug cannot hide behind a
matching decoder bug.
"""

import numpy as np
import pytest

from repro.qa import vectors as vec
from repro.qa.harness import run_vector_checks

pytestmark = pytest.mark.conformance


class TestCorpusIntegrity:
    """The frozen corpus itself must be internally consistent."""

    def test_scrambler_sequence_period(self):
        seq = vec.scrambler_sequence_bits()
        assert seq.size == 127
        assert set(np.unique(seq)) <= {0, 1}

    def test_reference_psdu(self):
        psdu = vec.reference_psdu()
        assert psdu.size == 100
        assert psdu.dtype == np.uint8
        assert np.array_equal(psdu, (7 * np.arange(100) + 3) % 256)

    def test_bit_field_sizes(self):
        assert vec.data_bits().size == vec.N_DATA_BITS == 864
        assert vec.coded_bits().size == 2 * vec.N_DATA_BITS
        assert vec.punctured_bits().size == 1152  # rate 3/4 puncturing
        assert vec.interleaved_bits().size == vec.punctured_bits().size

    def test_first_symbol_unit_average_power(self):
        points = vec.first_symbol_points()
        assert points.size == 48
        # K_MOD-normalized 16-QAM: unit average constellation power.
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=0.25)

    def test_frame_dimensions(self):
        assert vec.FRAME_LENGTH == 320 + 80 + 6 * 80
        assert vec.first_data_symbol_samples().size == 80

    def test_golden_digest_table_shape(self):
        assert sorted(vec.GOLDEN_RATE_DIGESTS) == [6, 9, 12, 18, 24, 36, 48, 54]
        for golden in vec.GOLDEN_RATE_DIGESTS.values():
            assert {"data_bits", "n_samples", "ppdu"} <= set(golden)
            assert len(golden["ppdu"]) == 16

    def test_digest_normalizes_negative_zero(self):
        plus = np.array([0.0 + 0.0j, 1.0])
        minus = np.array([-0.0 - 0.0j, 1.0])
        assert vec.digest_samples(plus) == vec.digest_samples(minus)

    def test_digest_sensitive_beyond_rounding(self):
        base = np.array([0.25 + 0.5j])
        assert vec.digest_samples(base) != vec.digest_samples(base + 1e-6)
        assert vec.digest_samples(base) == vec.digest_samples(base + 1e-12)


class TestProductionConformance:
    """Every harness conformance check must pass against repro.dsp."""

    @pytest.fixture(scope="class")
    def checks(self):
        return {c.name: c for c in run_vector_checks()}

    @pytest.mark.parametrize(
        "name",
        [
            "scrambler_sequence",
            "data_field_bits",
            "convolutional_code",
            "puncturing",
            "interleaving",
            "constellation_mapping",
            "ofdm_first_symbol",
            "frame_length",
            "frame_digest",
            "rx_loopback_reference_frame",
        ],
    )
    def test_stage(self, checks, name):
        assert name in checks, f"harness no longer emits check {name!r}"
        assert checks[name].passed, checks[name].detail

    @pytest.mark.parametrize("rate_mbps", sorted(vec.GOLDEN_RATE_DIGESTS))
    def test_golden_rate(self, checks, rate_mbps):
        check = checks[f"golden_rate_{rate_mbps}mbps"]
        assert check.passed, check.detail

    def test_every_emitted_check_passes(self, checks):
        failed = [c.name for c in checks.values() if not c.passed]
        assert not failed, f"conformance failures: {failed}"


class TestReferenceDecode:
    def test_reference_frame_decodes_through_production_rx(self):
        from repro.dsp.receiver import Receiver, RxConfig
        from repro.dsp.transmitter import Transmitter, TxConfig

        tx = Transmitter(
            TxConfig(
                rate_mbps=vec.REFERENCE_RATE_MBPS,
                scrambler_seed=vec.SCRAMBLER_SEED,
            )
        )
        frame = tx.transmit(vec.reference_psdu())
        padded = np.concatenate(
            [np.zeros(120, complex), frame, np.zeros(120, complex)]
        )
        result = Receiver(RxConfig()).receive(padded)
        assert result.success, result.failure
        assert np.array_equal(result.psdu, vec.reference_psdu())


class TestChainRegressionDigests:
    """The production chain reproduces its frozen regression digests.

    Packet-outcome digests are checked at every batch size in
    ``tests/test_batch.py``; this class covers the receiver's failure
    corpus, the adjacent-channel measurement and the emitter waveform.
    """

    def test_every_packet_case_has_a_digest(self):
        assert set(vec.PACKET_CASES) == set(vec.GOLDEN_PACKET_DIGESTS)

    def test_failure_corpus_covers_every_receiver_failure(self):
        """Each failure string the receiver can return has an input."""
        import re
        from pathlib import Path

        import repro.dsp.receiver as receiver

        source = Path(receiver.__file__).read_text()
        reasons = set(re.findall(r'failure="([^"]+)"', source))
        assert reasons == set(vec.GOLDEN_RX_FAILURES)
        assert set(vec.rx_failure_inputs()) == reasons

    @pytest.mark.parametrize("failure", sorted(vec.GOLDEN_RX_FAILURES))
    def test_rx_failure_input(self, failure):
        from repro.dsp.receiver import Receiver

        config, samples = vec.rx_failure_inputs()[failure]
        receiver = Receiver(config)
        result = receiver.receive(samples)
        assert not result.success
        assert result.failure == failure
        assert vec.rx_failure_summary(result) == vec.GOLDEN_RX_FAILURES[failure]
        # Batch neighbours do not change a row's result.
        pair = receiver.receive_batch(np.stack([samples, samples]))
        for row in pair:
            assert row.failure == failure
            assert vec.rx_failure_summary(row) == vec.rx_failure_summary(result)

    def test_adjacent_16db_measurement(self):
        case = vec.ADJACENT_16DB_CASE
        measured = vec.adjacent_16db_bench().measure_ber(
            n_packets=case["n_packets"], seed=case["seed"]
        )
        assert measured.ber > 0  # the interferer must actually bite
        assert (measured.bit_errors, measured.bits_total) == (
            vec.GOLDEN_ADJACENT_16DB
        )

    def test_wlan_emitter_waveform(self):
        from repro.scenario import WlanEmitter

        emitter = WlanEmitter(offset_channels=1, excess_db=16.0)
        burst = emitter.generate(2048, 80e6, 1.0, np.random.default_rng(0))
        assert vec.digest_samples(burst.samples) == vec.GOLDEN_WLAN_EMITTER
