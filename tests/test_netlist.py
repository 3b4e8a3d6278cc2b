"""Tests for the netlist hand-off (repro.flow.netlist)."""

import numpy as np
import pytest

from repro.flow.netlist import (
    CompiledDesign,
    NetlistCompiler,
    NetlistError,
    frontend_to_netlist,
    netlist_to_config,
    parse_netlist,
)
from repro.rf.frontend import (
    FrontendConfig,
    ideal_frontend_config,
    spectre_library_config,
)


class TestSerialization:
    def test_roundtrip_default(self):
        cfg = FrontendConfig()
        assert netlist_to_config(frontend_to_netlist(cfg)) == cfg

    def test_roundtrip_modified(self):
        cfg = FrontendConfig(
            lna_p1db_dbm=-27.5,
            lpf_edge_hz=9.25e6,
            lo_error_ppm=12.0,
            iq_phase_deg=2.0,
            sample_rate_in=120e6,
        )
        assert netlist_to_config(frontend_to_netlist(cfg)) == cfg

    def test_roundtrip_ideal(self):
        # None-valued impairments (dc offset, flicker, adc bits) survive.
        cfg = ideal_frontend_config()
        back = netlist_to_config(frontend_to_netlist(cfg))
        assert back.dc_offset_dbm is None
        assert back.flicker_power_dbm is None
        assert back.adc_bits is None

    def test_roundtrip_spectre_library(self):
        cfg = spectre_library_config()
        back = netlist_to_config(frontend_to_netlist(cfg))
        assert back.lna_model == "rapp"
        assert back.lna_am_pm_deg == cfg.lna_am_pm_deg

    def test_netlist_is_module_shaped(self):
        text = frontend_to_netlist(FrontendConfig())
        assert text.splitlines()[1].startswith("module ")
        assert text.rstrip().endswith("endmodule")


class TestParser:
    def test_parse_instances(self):
        params, instances = parse_netlist(frontend_to_netlist(FrontendConfig()))
        primitives = [p for p, _, _, _ in instances]
        assert primitives == [
            "lna", "lo", "mixer", "quad_mixer", "highpass",
            "chebyshev_lowpass", "agc", "adc",
        ]
        assert params["sample_rate_in"] == pytest.approx(80e6)

    def test_comments_ignored(self):
        text = "// just a comment\n" + frontend_to_netlist(FrontendConfig())
        netlist_to_config(text)  # must not raise

    def test_garbage_line_rejected(self):
        text = frontend_to_netlist(FrontendConfig()).replace(
            "endmodule", "garbage!!\nendmodule"
        )
        with pytest.raises(NetlistError):
            parse_netlist(text)

    def test_unknown_primitive_rejected(self):
        text = frontend_to_netlist(FrontendConfig()).replace(
            "lna #(", "vco_banana #("
        )
        with pytest.raises(NetlistError):
            netlist_to_config(text)

    def test_unknown_parameter_rejected(self):
        text = frontend_to_netlist(FrontendConfig()).replace(
            ".gain_db(16", ".zeta(16"
        )
        with pytest.raises(NetlistError):
            netlist_to_config(text)

    def test_missing_instance_rejected(self):
        lines = [
            l for l in frontend_to_netlist(FrontendConfig()).splitlines()
            if not l.strip().startswith("agc ")
        ]
        with pytest.raises(NetlistError):
            netlist_to_config("\n".join(lines))

    def test_bad_value_rejected(self):
        text = frontend_to_netlist(FrontendConfig()).replace(
            ".gain_db(16)", ".gain_db(banana)"
        )
        with pytest.raises(NetlistError):
            netlist_to_config(text)

    def test_nan_value_rejected(self):
        # Parses as a float, but the config rule refuses a NaN gain.
        text = frontend_to_netlist(FrontendConfig()).replace(
            ".gain_db(16)", ".gain_db(nan)"
        )
        with pytest.raises(NetlistError, match="lna_gain_db"):
            netlist_to_config(text)


class TestCompiler:
    def test_ams_target_warns_about_noise(self):
        design = NetlistCompiler("ams").compile(
            frontend_to_netlist(FrontendConfig())
        )
        assert isinstance(design, CompiledDesign)
        assert design.warnings
        assert "white_noise" in design.warnings[0]
        assert "LNA1" in design.noise_functions_used

    def test_spectre_target_silent(self):
        design = NetlistCompiler("spectre").compile(
            frontend_to_netlist(FrontendConfig())
        )
        assert not design.warnings
        # The functions are still recorded for reporting.
        assert design.noise_functions_used

    def test_noiseless_design_no_warning(self):
        design = NetlistCompiler("ams").compile(
            frontend_to_netlist(ideal_frontend_config())
        )
        assert not design.warnings
        assert not design.noise_functions_used

    def test_flicker_noise_flagged(self):
        design = NetlistCompiler("ams").compile(
            frontend_to_netlist(FrontendConfig())
        )
        assert "flicker_noise" in design.noise_functions_used["MIX2"]

    def test_compiled_frontend_executable(self):
        from repro.rf.signal import Signal

        design = NetlistCompiler("ams").compile(
            frontend_to_netlist(ideal_frontend_config())
        )
        out = design.frontend.process(
            Signal(np.ones(800, complex) * 1e-5, 80e6, 5.2e9),
            np.random.default_rng(0),
        )
        assert out.sample_rate == pytest.approx(20e6)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            NetlistCompiler("hspice")
