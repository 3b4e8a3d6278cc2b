"""SPW <-> AMS-Designer co-simulation (section 4.3 of the paper).

The co-simulation couples the vectorized system simulator (the "SPW side":
transmitter, channel, DSP receiver) with a per-timestep interpreted
evaluation of the netlisted RF front end (the "AMS side").  Stepping the
analog solver sample by sample is what makes real co-simulation 30-40x
slower than a pure system simulation (table 2); the Python loop here plays
that role faithfully.

The AMS noise limitation is modeled exactly as reported: by default
(``noise_support=False``) the small-signal noise functions of the RF models
are unavailable in the transient co-simulation, so the front end runs
noiseless and "the measured BER values were better than the results from
the corresponding SPW only simulation".  Both documented workarounds are
implemented:

* ``noise_workaround="system_side"`` — "include an additional noise source
  to the SPW part of the co-simulation": equivalent input-referred cascade
  noise is injected before the RF block;
* ``noise_workaround="random_functions"`` — "insert a noise functionality
  to the analog models by using Verilog-AMS random functions": the models'
  large-signal noise generators are enabled inside the interpreted loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.signal import cheby1, butter

from repro import obs
from repro.channel.awgn import AwgnChannel
from repro.dsp.receiver import Receiver, RxConfig
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.flow.netlist import NetlistCompiler, frontend_to_netlist
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.noise import thermal_noise_power, white_noise
from repro.rf.signal import Signal, dbm_to_watts
from repro.scenario import Scenario


class CoSimAbort(RuntimeError):
    """Raised when the lock-step analog engine aborts mid-packet.

    A real co-simulation dies this way when the analog solver exhausts
    its step budget or fails to converge; the exception carries how far
    the engine got so the system side can report a clean diagnostic
    instead of hanging or faulting on a partial output vector.

    Attributes:
        steps_completed: analog sub-timesteps evaluated before the abort.
        samples_completed: whole input samples fully processed.
    """

    def __init__(self, steps_completed: int, samples_completed: int):
        self.steps_completed = steps_completed
        self.samples_completed = samples_completed
        super().__init__(
            f"analog engine aborted after {steps_completed} sub-steps "
            f"({samples_completed} input samples fully processed)"
        )


def cascade_noise_figure_db(config: FrontendConfig) -> float:
    """Friis cascade noise figure of the front end's active stages."""
    f1 = 10.0 ** (config.lna_nf_db / 10.0)
    f2 = 10.0 ** (config.mixer1_nf_db / 10.0)
    f3 = 10.0 ** (config.mixer2_nf_db / 10.0)
    g1 = 10.0 ** (config.lna_gain_db / 10.0)
    g2 = 10.0 ** (config.mixer1_gain_db / 10.0)
    total = f1 + (f2 - 1.0) / g1 + (f3 - 1.0) / (g1 * g2)
    return float(10.0 * np.log10(total))


class InterpretedFrontend:
    """Per-timestep (sample-by-sample) evaluation of the RF front end.

    This is the "AMS side" analog solver: every stage of the
    double-conversion receiver is advanced one sample at a time in a plain
    Python loop with explicit IIR/AGC state, mimicking an analog transient
    engine lock-stepped with the system simulator.

    The analog engine integrates at a finer timestep than the system
    sample period (``substeps`` sub-timesteps per input sample, zero-order
    hold on the stimulus), like a transient solver honouring its own
    accuracy-driven step control.  This is the main source of the
    co-simulation slowdown the paper measures in table 2.

    Args:
        config: the front-end parameter set (typically from a compiled
            netlist).
        noise_enabled: whether the models' noise generators run (see module
            docstring).
        agc_time_constant_s: AGC power-detector time constant.
        substeps: analog integration sub-timesteps per input sample.
        max_steps: optional analog sub-timestep budget; when the engine
            would exceed it mid-packet it raises :class:`CoSimAbort`
            (modeling a transient-solver convergence failure) instead of
            running on.
    """

    def __init__(
        self,
        config: FrontendConfig,
        noise_enabled: bool = False,
        agc_time_constant_s: float = 1.0e-6,
        substeps: int = 4,
        max_steps: Optional[int] = None,
    ):
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        if max_steps is not None and max_steps < 1:
            raise ValueError("max_steps must be >= 1 when given")
        self.config = config
        self.noise_enabled = noise_enabled
        self.substeps = substeps
        self.max_steps = max_steps
        fs = config.sample_rate_in * substeps
        nyq = fs / 2.0
        self._hpf_sos = butter(
            config.hpf_order, config.hpf_cutoff_hz / nyq,
            btype="high", output="sos",
        )
        self._lpf_sos = cheby1(
            config.lpf_order, config.lpf_ripple_db,
            config.lpf_edge_hz / nyq, btype="low", output="sos",
        )
        self._agc_alpha = 1.0 - np.exp(-1.0 / (agc_time_constant_s * fs))
        self.samples_processed = 0

    def run_signal(
        self, signal: Signal, rng: np.random.Generator
    ) -> Signal:
        """Run a :class:`Signal` through the engine with rate checking.

        The lock-step interface hands samples across at the netlisted
        design's input rate; any other rate would silently time-warp the
        analog solve, so a mismatch is a hard error.
        """
        expected = self.config.sample_rate_in
        if abs(signal.sample_rate - expected) > 1e-6 * expected:
            raise ValueError(
                f"co-simulation stimulus is at {signal.sample_rate:g} Hz "
                f"but the netlisted front end expects {expected:g} Hz"
            )
        from repro.dsp.params import SAMPLE_RATE

        return Signal(self.run(signal.samples, rng), SAMPLE_RATE)

    def run(self, samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Process a stimulus vector one sample at a time.

        Returns the decimated 20 MHz baseband output.  A zero-length
        stimulus yields a zero-length output (the engine simply has
        nothing to integrate); a stimulus that blows the ``max_steps``
        budget raises :class:`CoSimAbort`.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError(
                f"stimulus must be one-dimensional, got shape "
                f"{samples.shape}"
            )
        cfg = self.config
        substeps = self.substeps
        fs = cfg.sample_rate_in * substeps
        n = samples.size
        n_steps = n * substeps
        if n == 0:
            return np.zeros(0, dtype=complex)

        # --- per-stage constants -------------------------------------
        g_lna = 10.0 ** (cfg.lna_gain_db / 20.0)
        p3_lna = dbm_to_watts(
            cfg.lna_p1db_dbm + 9.6357
        )  # cubic-equivalent IIP3
        g_m1 = 10.0 ** (cfg.mixer1_gain_db / 20.0)
        p3_m1 = dbm_to_watts(cfg.mixer1_iip3_dbm)
        g_m2 = 10.0 ** (cfg.mixer2_gain_db / 20.0)
        p3_m2 = dbm_to_watts(cfg.mixer2_iip3_dbm)
        dc = (
            np.sqrt(dbm_to_watts(cfg.dc_offset_dbm))
            if cfg.dc_offset_dbm is not None
            else 0.0
        )
        lo_err = 2.0 * np.pi * 2.6e9 * cfg.lo_error_ppm * 1e-6 / fs
        rot_step = np.exp(-1j * lo_err)

        noise_on = self.noise_enabled
        sigma_lna = sigma_m1 = sigma_m2 = 0.0
        if noise_on:
            kT = thermal_noise_power(fs)
            for attr, nf in (
                ("sigma_lna", cfg.lna_nf_db),
                ("sigma_m1", cfg.mixer1_nf_db),
                ("sigma_m2", cfg.mixer2_nf_db),
            ):
                power = (10.0 ** (nf / 10.0) - 1.0) * kT
                locals_sigma = np.sqrt(power / 2.0)
                if attr == "sigma_lna":
                    sigma_lna = locals_sigma
                elif attr == "sigma_m1":
                    sigma_m1 = locals_sigma
                else:
                    sigma_m2 = locals_sigma
            # Pre-drawn normals: the models' "random functions".
            normals = rng.standard_normal((n_steps, 6))
        flicker = None
        if noise_on and cfg.flicker_power_dbm is not None:
            from repro.rf.noise import flicker_noise

            flicker = flicker_noise(
                n_steps, dbm_to_watts(cfg.flicker_power_dbm),
                cfg.flicker_corner_hz, fs, rng,
            )

        # --- filter and AGC state -------------------------------------
        hpf = [list(sec) for sec in self._hpf_sos]
        lpf = [list(sec) for sec in self._lpf_sos]
        hpf_state = [[0.0 + 0.0j, 0.0 + 0.0j] for _ in hpf]
        lpf_state = [[0.0 + 0.0j, 0.0 + 0.0j] for _ in lpf]
        agc_alpha = self._agc_alpha
        agc_power = dbm_to_watts(cfg.agc_target_dbm)
        agc_target = dbm_to_watts(cfg.agc_target_dbm)
        g_min = 10.0 ** (cfg.agc_min_gain_db / 10.0)
        g_max = 10.0 ** (cfg.agc_max_gain_db / 10.0)

        # --- ADC ------------------------------------------------------
        decim = cfg.decimation
        clip = np.sqrt(dbm_to_watts(cfg.adc_full_scale_dbm))
        levels = 2 ** ((cfg.adc_bits or 1) - 1)
        step = clip / levels
        quantize = cfg.adc_bits is not None

        rot1 = 1.0 + 0.0j
        rot2 = 1.0 + 0.0j
        out = []
        last = substeps - 1
        budget = self.max_steps
        for i in range(n):
            hold = samples[i]  # zero-order hold over the sub-timesteps
            for s in range(substeps):
                k = i * substeps + s
                if budget is not None and k >= budget:
                    self.samples_processed += i
                    raise CoSimAbort(k, i)
                x = hold
                # LNA
                if noise_on:
                    x = x + sigma_lna * (normals[k, 0] + 1j * normals[k, 1])
                p = x.real * x.real + x.imag * x.imag
                pc = p if p < p3_lna / 3.0 else p3_lna / 3.0
                x = g_lna * x * (1.0 - pc / p3_lna)
                # Mixer 1
                if noise_on:
                    x = x + sigma_m1 * (normals[k, 2] + 1j * normals[k, 3])
                x = x * rot1 * g_m1
                rot1 *= rot_step
                p = x.real * x.real + x.imag * x.imag
                pc = p if p < p3_m1 / 3.0 else p3_m1 / 3.0
                x = x * (1.0 - pc / p3_m1)
                # Mixer 2 (quadrature) with DC offset and flicker noise
                if noise_on:
                    x = x + sigma_m2 * (normals[k, 4] + 1j * normals[k, 5])
                x = x * rot2 * g_m2
                rot2 *= rot_step
                p = x.real * x.real + x.imag * x.imag
                pc = p if p < p3_m2 / 3.0 else p3_m2 / 3.0
                x = x * (1.0 - pc / p3_m2) + dc
                if flicker is not None:
                    x = x + flicker[k]
                # Inter-stage high-pass (direct form II transposed)
                for sec, state in zip(hpf, hpf_state):
                    b0, b1, b2, _, a1, a2 = sec
                    y = b0 * x + state[0]
                    state[0] = b1 * x - a1 * y + state[1]
                    state[1] = b2 * x - a2 * y
                    x = y
                # Channel-select low-pass
                for sec, state in zip(lpf, lpf_state):
                    b0, b1, b2, _, a1, a2 = sec
                    y = b0 * x + state[0]
                    state[0] = b1 * x - a1 * y + state[1]
                    state[1] = b2 * x - a2 * y
                    x = y
                # AGC with running power detector
                p = x.real * x.real + x.imag * x.imag
                agc_power += agc_alpha * (p - agc_power)
                gain = agc_target / agc_power if agc_power > 0 else g_max
                if gain < g_min:
                    gain = g_min
                elif gain > g_max:
                    gain = g_max
                x = x * np.sqrt(gain)
                # ADC: sample every decim-th input sample, once settled.
                if s == last and i % decim == 0:
                    if quantize:
                        re = x.real / step
                        im = x.imag / step
                        re = min(max(round(re), -levels), levels - 1) * step
                        im = min(max(round(im), -levels), levels - 1) * step
                        out.append(re + 1j * im)
                    else:
                        out.append(x)
        self.samples_processed += n
        return np.array(out, dtype=complex)


@dataclass
class CoSimConfig:
    """Configuration of a co-simulation campaign.

    Attributes:
        rate_mbps / psdu_bytes: traffic of the wanted transmitter.
        input_level_dbm: wanted-signal level at the antenna.
        adjacent_channel: include the +16 dB adjacent interferer.
        noise_support: whether the AMS-side transient engine supports the
            small-signal noise functions (False reproduces the paper's
            tool limitation).
        noise_workaround: None, "system_side" or "random_functions".
        guard_samples: zero-padding around each packet (20 MHz units,
            scaled by the oversampling factor internally).
        analog_substeps: transient-solver sub-timesteps per system sample
            on the AMS side (accuracy/cost knob; see
            :class:`InterpretedFrontend`).
    """

    rate_mbps: int = 24
    psdu_bytes: int = 100
    input_level_dbm: float = -55.0
    adjacent_channel: bool = False
    noise_support: bool = False
    noise_workaround: Optional[str] = None
    guard_samples: int = 150
    analog_substeps: int = 6

    def __post_init__(self):
        if self.noise_workaround not in (
            None, "system_side", "random_functions",
        ):
            raise ValueError(
                f"unknown noise workaround {self.noise_workaround!r}"
            )


@dataclass
class CoSimReport:
    """Outcome of a (co-)simulation run.

    Attributes:
        mode: "cosim" or "system".
        n_packets: packets simulated.
        ber: measured bit error rate.
        packets_lost: packets that failed to decode at all.
        wall_time_s: wall-clock duration of the run.
        rf_noise_active: whether RF noise was actually simulated.
        warnings: compiler/engine diagnostics (the noise-gap warning).
        time_split: wall-clock decomposition of the run — keys
            ``stimulus_s`` (system-side waveform generation),
            ``rf_s`` (the RF subsystem: the interpreted analog engine in
            co-simulation, the vectorized behavioral model otherwise)
            and ``dsp_s`` (receiver decode + scoring).  The table-2
            "interface overhead" is ``rf_s`` relative to the others.
    """

    mode: str
    n_packets: int
    ber: float
    packets_lost: int
    wall_time_s: float
    rf_noise_active: bool
    warnings: List[str] = field(default_factory=list)
    time_split: dict = field(default_factory=dict)


class CoSimulation:
    """Runs the netlisted RF design inside the system simulation.

    Args:
        frontend_config: the RF design (netlisted internally, compiled
            with the AMS target so the noise diagnostics fire).
        config: co-simulation options.
    """

    def __init__(
        self,
        frontend_config: FrontendConfig = None,
        config: CoSimConfig = CoSimConfig(),
    ):
        self.frontend_config = (
            frontend_config if frontend_config is not None else FrontendConfig()
        )
        self.config = config
        self.netlist_text = frontend_to_netlist(self.frontend_config)
        self.compiled = NetlistCompiler(target="ams").compile(
            self.netlist_text
        )

    # ------------------------------------------------------------------
    def _stimulus(self, rng: np.random.Generator):
        """One packet's antenna-level stimulus plus its reference bits."""
        cfg = self.config
        oversample = self.frontend_config.decimation
        tx = Transmitter(
            TxConfig(rate_mbps=cfg.rate_mbps, oversample=oversample)
        )
        psdu = random_psdu(cfg.psdu_bytes, rng)
        wave = tx.transmit(psdu)
        guard = np.zeros(cfg.guard_samples * oversample, dtype=complex)
        samples = np.concatenate([guard, wave, guard])
        sig = Signal(
            samples,
            self.frontend_config.sample_rate_in,
            self.frontend_config.carrier_frequency,
        ).scaled_to_dbm(cfg.input_level_dbm)
        if cfg.adjacent_channel:
            sig = Scenario.preset("adjacent-16db").apply(sig, rng)
        sig = AwgnChannel(include_thermal_floor=True).process(sig, rng)
        if (
            not cfg.noise_support
            and cfg.noise_workaround == "system_side"
        ):
            nf_db = cascade_noise_figure_db(self.frontend_config)
            added = (10.0 ** (nf_db / 10.0) - 1.0) * thermal_noise_power(
                sig.sample_rate
            )
            sig = sig.with_samples(
                sig.samples + white_noise(len(sig), added, rng)
            )
        return sig, psdu

    def _score(self, baseband: np.ndarray, psdu: np.ndarray):
        """Decode one packet and return (bit_errors, n_bits, lost)."""
        receiver = Receiver(RxConfig())
        result = receiver.receive(baseband)
        n_bits = psdu.size * 8
        if not result.success or result.psdu.size != psdu.size:
            return n_bits / 2.0, n_bits, 1
        errors = int(
            np.unpackbits(result.psdu ^ psdu, bitorder="little").sum()
        )
        return float(errors), n_bits, 0

    def _run(self, mode: str, n_packets: int, seed: int,
             rf_stage, rf_noise: bool, warnings: List[str]) -> CoSimReport:
        """Shared packet loop: stimulus -> RF stage -> DSP scoring.

        Times the three phases separately so the table-2 comparison can
        attribute the co-simulation slowdown to the interpreted analog
        engine (the "simulator interface" cost) rather than to the
        system-side work, and publishes the split as labelled metrics.
        """
        rng = np.random.default_rng(seed)
        errors = 0.0
        bits = 0
        lost = 0
        t_stimulus = t_rf = t_dsp = 0.0
        with obs.timed(f"cosim:{mode}", n_packets=n_packets) as run_timer:
            for _ in range(n_packets):
                t0 = time.perf_counter()
                sig, psdu = self._stimulus(rng)
                t1 = time.perf_counter()
                baseband = rf_stage(sig, rng)
                t2 = time.perf_counter()
                e, b, l = self._score(baseband, psdu)
                t3 = time.perf_counter()
                t_stimulus += t1 - t0
                t_rf += t2 - t1
                t_dsp += t3 - t2
                errors += e
                bits += b
                lost += l
        elapsed = run_timer.elapsed
        ber = errors / bits if bits else 0.0
        registry = obs.telemetry().registry
        registry.counter(
            "cosim_packets", "packets simulated per engine mode"
        ).inc(n_packets, mode=mode)
        registry.gauge(
            "cosim_ber", "measured BER per engine mode"
        ).set(ber, mode=mode)
        wall = registry.counter(
            "cosim_wall_seconds",
            "wall-clock split of (co-)simulation runs",
        )
        wall.inc(t_stimulus, mode=mode, phase="stimulus")
        wall.inc(t_rf, mode=mode, phase="rf")
        wall.inc(t_dsp, mode=mode, phase="dsp")
        return CoSimReport(
            mode=mode,
            n_packets=n_packets,
            ber=ber,
            packets_lost=lost,
            wall_time_s=elapsed,
            rf_noise_active=rf_noise,
            warnings=warnings,
            time_split={
                "stimulus_s": t_stimulus,
                "rf_s": t_rf,
                "dsp_s": t_dsp,
            },
        )

    # ------------------------------------------------------------------
    def run_cosim(self, n_packets: int, seed: int = 0) -> CoSimReport:
        """Lock-step co-simulation: interpreted RF, vectorized DSP."""
        cfg = self.config
        rf_noise = bool(
            cfg.noise_support or cfg.noise_workaround == "random_functions"
        )
        engine = InterpretedFrontend(
            self.frontend_config,
            noise_enabled=rf_noise,
            substeps=cfg.analog_substeps,
        )
        warnings = list(self.compiled.warnings) if not cfg.noise_support else []
        return self._run(
            "cosim",
            n_packets,
            seed,
            lambda sig, rng: engine.run_signal(sig, rng).samples,
            rf_noise,
            warnings,
        )

    def run_system_only(self, n_packets: int, seed: int = 0) -> CoSimReport:
        """Pure system-level ("SPW only") simulation, fully vectorized.

        The RF subsystem runs as its native vectorized behavioral model
        with all noise sources active.
        """
        frontend = DoubleConversionReceiver(self.frontend_config)
        return self._run(
            "system",
            n_packets,
            seed,
            lambda sig, rng: frontend.process(sig, rng).samples,
            self.frontend_config.noise_enabled,
            [],
        )

    def compare(self, packet_counts=(1, 2, 4), seed: int = 0,
                store=None, run_name: str = "table2"):
        """Reproduce table 2: wall-clock of system sim vs co-simulation.

        Args:
            packet_counts: packet counts to time at.
            seed: base random seed.
            store: optional :class:`repro.obs.RunStore`; the timing
                table, slowdown/BER KPIs per packet count are persisted
                there (or to the ambient CLI run when one is active).
            run_name: store name for the comparison run.

        Returns:
            List of dictionaries with packets, both wall times and the
            slowdown ratio.
        """
        rows = []
        for n in packet_counts:
            sys_report = self.run_system_only(n, seed=seed)
            cosim_report = self.run_cosim(n, seed=seed)
            rows.append(
                {
                    "packets": n,
                    "system_time_s": sys_report.wall_time_s,
                    "cosim_time_s": cosim_report.wall_time_s,
                    "slowdown": (
                        cosim_report.wall_time_s
                        / max(sys_report.wall_time_s, 1e-12)
                    ),
                    "system_ber": sys_report.ber,
                    "cosim_ber": cosim_report.ber,
                }
            )
        # Lazy import: repro.core pulls in flow.cosim at package-import
        # time, so the reverse import must not run at module top.
        from repro.core.reporting import render_table

        kpis = {}
        for r in rows:
            n = r["packets"]
            kpis[f"slowdown[packets={n}]"] = r["slowdown"]
            kpis[f"system_time_s[packets={n}]"] = r["system_time_s"]
            kpis[f"cosim_time_s[packets={n}]"] = r["cosim_time_s"]
            kpis[f"system_ber[packets={n}]"] = r["system_ber"]
            kpis[f"cosim_ber[packets={n}]"] = r["cosim_ber"]
        table = render_table(
            ["packets", "system [s]", "co-sim [s]", "slowdown",
             "system BER", "co-sim BER"],
            [
                [str(r["packets"]), f"{r['system_time_s']:.3f}",
                 f"{r['cosim_time_s']:.3f}", f"{r['slowdown']:.1f}x",
                 f"{r['system_ber']:.4g}", f"{r['cosim_ber']:.4g}"]
                for r in rows
            ],
        )
        obs.contribute(
            store,
            kind="cosim",
            name=run_name,
            seed=seed,
            config={"cosim": self.config,
                    "frontend": self.frontend_config,
                    "packet_counts": [int(n) for n in packet_counts]},
            tables={run_name: table},
            kpis=kpis,
        )
        return rows
