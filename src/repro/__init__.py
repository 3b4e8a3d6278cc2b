"""repro — reproduction of "Verification of the RF Subsystem within Wireless
LAN System Level Simulation" (Knöchel et al., DATE 2003).

The package provides:

* :mod:`repro.dsp` — a complete IEEE 802.11a OFDM physical layer,
* :mod:`repro.rf` — complex-baseband behavioral models of the analog RF
  front-end (the paper's double-conversion receiver),
* :mod:`repro.channel` — AWGN/fading channels,
* :mod:`repro.scenario` — declarative RF environments: IQ-mixed
  emitters (the paper's adjacent channel among them) plus multipath,
* :mod:`repro.spectrum` — spectral measurements (PSD, ACPR, mask),
* :mod:`repro.flow` — the simulation-tool substrate (dataflow engine, RF
  characterization analyses, netlisting, co-simulation),
* :mod:`repro.core` — the paper's verification methodology: test benches,
  BER/EVM metrics, parameter sweeps, model calibration and the suggested
  top-down design flow,
* :mod:`repro.obs` — observability: structured tracing, metrics, run
  manifests and profiling for every layer above.
"""

__version__ = "1.0.0"

__all__ = ["dsp", "rf", "channel", "spectrum", "flow", "core", "obs"]
