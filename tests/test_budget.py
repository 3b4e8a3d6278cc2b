"""Tests for the RF cascade / link-budget analysis (repro.rf.cascade)."""

import numpy as np
import pytest

from repro.qa.oracles import (
    CASCADE_TOLERANCES_DB,
    check_cascade_characterization,
)
from repro.rf.cascade import CascadeAnalysis, StageSpec
from repro.rf.frontend import FrontendConfig
from repro.rf.signal import dbm_to_watts, watts_to_dbm


class TestCascadeAnalysis:
    def test_single_stage(self):
        a = CascadeAnalysis([StageSpec("amp", 10.0, 3.0, 5.0)])
        assert a.total_gain_db == pytest.approx(10.0)
        assert a.total_nf_db == pytest.approx(3.0)
        assert a.total_iip3_dbm == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CascadeAnalysis([])

    def test_gain_adds(self):
        a = CascadeAnalysis(
            [StageSpec("a", 10.0), StageSpec("b", 8.0), StageSpec("c", -2.0)]
        )
        assert a.total_gain_db == pytest.approx(16.0)

    def test_friis_matches_cosim_helper(self):
        # The three-term Friis sum the co-simulation's system-side noise
        # source used to hand-code; the line-up reproduces it bit for bit.
        cfg = FrontendConfig()
        f1 = 10.0 ** (cfg.lna_nf_db / 10.0)
        f2 = 10.0 ** (cfg.mixer1_nf_db / 10.0)
        f3 = 10.0 ** (cfg.mixer2_nf_db / 10.0)
        g1 = 10.0 ** (cfg.lna_gain_db / 10.0)
        g2 = 10.0 ** (cfg.mixer1_gain_db / 10.0)
        expected = float(
            10.0 * np.log10(f1 + (f2 - 1.0) / g1 + (f3 - 1.0) / (g1 * g2))
        )
        assert CascadeAnalysis(cfg.lineup()).total_nf_db == expected

    def test_iip3_matches_rf_helper(self):
        stages = [("LNA", 16.0, -2.4), ("MIX", 8.0, 14.0)]
        a = CascadeAnalysis(
            [StageSpec(n, g, 0.0, i) for n, g, i in stages]
        )
        # 1/IIP3_tot = sum(G_before_stage / IIP3_stage), linear power.
        g_lna = 10.0 ** (16.0 / 10.0)
        inv_total = 1.0 / dbm_to_watts(-2.4) + g_lna / dbm_to_watts(14.0)
        expected = watts_to_dbm(1.0 / inv_total)
        assert a.total_iip3_dbm == pytest.approx(expected, abs=1e-9)

    def test_first_stage_dominates_nf(self):
        front_heavy = CascadeAnalysis(
            [StageSpec("lna", 20.0, 2.0), StageSpec("mix", 0.0, 12.0)]
        )
        # With 20 dB in front, the 12 dB second stage barely matters.
        assert front_heavy.total_nf_db < 3.0

    def test_rows_are_cumulative(self):
        a = CascadeAnalysis(FrontendConfig().lineup())
        rows = a.rows()
        assert [r.name for r in rows] == [
            "lna", "mixer1", "mixer1_nl", "mixer2", "mixer2_nl",
        ]
        gains = [r.cumulative_gain_db for r in rows]
        assert gains == sorted(gains)  # no stage has negative gain
        nfs = [r.cumulative_nf_db for r in rows]
        assert nfs == sorted(nfs)  # NF can only grow along the chain

    def test_infinite_iip3_linear_chain(self):
        a = CascadeAnalysis([StageSpec("ideal", 10.0, 0.0, np.inf)])
        assert a.total_iip3_dbm == np.inf
        assert a.spurious_free_range_db(-30.0) == np.inf


class TestLinkBudgetMatchesOracle:
    """The link budget and the QA cascade oracle read one line-up."""

    @pytest.fixture(scope="class")
    def checks(self):
        return {c.name: c for c in check_cascade_characterization()}

    def test_iip3_and_p1db_equal_oracle_and_measurement(self, checks):
        a = CascadeAnalysis(FrontendConfig().lineup())
        for name, value, tol in (
            ("cascade_iip3_dbm", a.total_iip3_dbm,
             CASCADE_TOLERANCES_DB["iip3"]),
            ("cascade_p1db_dbm", a.input_p1db_dbm,
             CASCADE_TOLERANCES_DB["p1db"]),
        ):
            assert value == checks[name].expected
            assert abs(value - checks[name].measured) <= tol
        assert a.total_iip3_dbm == pytest.approx(-14.405, abs=0.001)
        assert a.input_p1db_dbm == pytest.approx(-24.041, abs=0.001)

    def test_gain_and_nf_equal_oracle(self, checks):
        a = CascadeAnalysis(FrontendConfig().lineup())
        assert a.total_gain_db == checks["cascade_gain_db"].expected
        assert a.total_nf_db == checks["cascade_nf_db"].expected


class TestSensitivityEstimate:
    def test_formula(self):
        a = CascadeAnalysis([StageSpec("amp", 10.0, 4.0)])
        s = a.sensitivity_dbm(required_snr_db=10.0, bandwidth_hz=16.6e6)
        expected = -174.0 + 10 * np.log10(16.6e6) + 4.0 + 10.0
        assert s == pytest.approx(expected, abs=0.1)

    def test_budget_predicts_measured_sensitivity(self):
        """The paper-style cross-check: link budget vs simulated BER.

        24 Mbps (16-QAM r=1/2) needs ~11 dB SNR; the measured sensitivity
        of the default front end (-87 dBm, see bench_sensitivity) must
        agree with the budget within a couple of dB.
        """
        budget = CascadeAnalysis(FrontendConfig().lineup()).sensitivity_dbm(
            required_snr_db=11.0
        )
        assert budget == pytest.approx(-87.0, abs=3.0)

    def test_bandwidth_validation(self):
        a = CascadeAnalysis([StageSpec("amp", 10.0)])
        with pytest.raises(ValueError):
            a.sensitivity_dbm(10.0, bandwidth_hz=0.0)

    def test_spurious_free_range(self):
        a = CascadeAnalysis([StageSpec("amp", 0.0, 0.0, 0.0)])
        assert a.spurious_free_range_db(-20.0) == pytest.approx(40.0)


class TestRendering:
    def test_table_renders(self):
        table = CascadeAnalysis(FrontendConfig().lineup()).as_table()
        assert "lna" in table
        assert "cum NF [dB]" in table
