"""The benchmark's four workloads and one pass over each.

A workload is a fixed packet budget: a list of parameter sweeps run one
after the other from one process.  Each is a closed loop: the next sweep
point (or packet chunk) is issued only when the previous one returned.
Every sweep takes the benchmark's ``--seed`` as its base seed, so the
seed alone fixes every packet the pass simulates.

Why these four (see ``perfbench/README.md`` for the layer map):

``dsp-waterfall``
    DSP-only AWGN SNR sweeps across the coded waterfall at 6, 24 and
    54 Mbit/s, batch 32, one process.  The receiver dominates (Viterbi,
    then sync); the channel/RF path is trivial, so a change there should
    not move this workload.
``fig6-frontend``
    The paper's figure 6: BER against the first LNA's 1-dB compression
    point through the double-conversion front end, and the same sweep
    through the zero-IF front end, both with the ``adjacent-16db``
    scenario, batch 32, one process.  The per-packet channel/RF path
    dominates: WLAN emitter generation, per-packet front-end builds,
    the RF stages.
``hostile-coexistence``
    The preset of that name (WLAN, Bluetooth and microwave emitters
    plus Rayleigh taps with 30 Hz Jakes Doppler), DSP-only, batch 32.
    The only workload with time-varying fading, which dominates it.
``scalar-pool``
    A DSP-only SNR sweep at batch 1 with ``jobs=2`` and ``basic``
    probes: the scalar PHY path, the ``repro.perf`` process pool and the
    probe merge across workers, which no other workload reaches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs, perf
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.frontend import FrontendConfig
from repro.rf.zeroif import ZeroIfConfig
from repro.scenario import Scenario


@dataclass(frozen=True)
class Sweep:
    """One parameter sweep of a workload."""

    label: str
    config: TestbenchConfig
    parameter: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    """A fixed packet budget run through the chain in one closed loop."""

    name: str
    sweeps: Tuple[Sweep, ...]
    packets_per_point: int
    batch_size: int
    jobs: int
    probes: Optional[str] = None

    @property
    def packets(self) -> int:
        """Packets simulated by one pass."""
        return self.packets_per_point * sum(len(s.values) for s in self.sweeps)

    @property
    def points(self) -> int:
        return sum(len(s.values) for s in self.sweeps)


def _dsp(rate_mbps: int, snrs) -> Sweep:
    return Sweep(
        f"{rate_mbps}M",
        TestbenchConfig(rate_mbps=rate_mbps, psdu_bytes=100),
        "snr_db",
        tuple(snrs),
    )


def _fig6(label: str, frontend) -> Sweep:
    return Sweep(
        label,
        TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=frontend,
            scenario=Scenario.preset("adjacent-16db"),
            input_level_dbm=-60.0,
        ),
        "frontend.lna_p1db_dbm",
        (-50.0, -44.0, -40.0, -36.0),
    )


def build(name: str) -> Workload:
    """The named workload (configs are built here, inside set-up)."""
    if name == "dsp-waterfall":
        return Workload(
            name,
            (
                _dsp(6, (1.0, 2.5, 4.0)),
                _dsp(24, (6.0, 7.5, 9.0)),
                _dsp(54, (14.0, 16.0, 18.0)),
            ),
            packets_per_point=64,
            batch_size=32,
            jobs=1,
        )
    if name == "fig6-frontend":
        return Workload(
            name,
            (
                _fig6("double-conversion", FrontendConfig()),
                _fig6("zero-if", ZeroIfConfig()),
            ),
            packets_per_point=32,
            batch_size=32,
            jobs=1,
        )
    if name == "hostile-coexistence":
        return Workload(
            name,
            (
                Sweep(
                    "hostile",
                    TestbenchConfig(
                        rate_mbps=24,
                        psdu_bytes=100,
                        scenario=Scenario.preset("hostile-coexistence"),
                    ),
                    "snr_db",
                    (30.0,),
                ),
            ),
            packets_per_point=32,
            batch_size=32,
            jobs=1,
        )
    if name == "scalar-pool":
        return Workload(
            name,
            (_dsp(24, (6.0, 7.5, 9.0, 10.5)),),
            packets_per_point=32,
            batch_size=1,
            jobs=2,
            probes="basic",
        )
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = (
    "dsp-waterfall", "fig6-frontend", "hostile-coexistence", "scalar-pool",
)


def setup(workload: Workload, seed: int) -> None:
    """Install the workload's ambient settings and warm every chain.

    Builds one test bench per configured chain and pushes one packet
    through it, which pays lazy set-up (Viterbi tables, filter design).
    """
    perf.set_default_jobs(1)
    perf.set_default_batch_size(workload.batch_size)
    for sweep in workload.sweeps:
        WlanTestbench(sweep.config).run_packet(np.random.default_rng(seed))


@dataclass
class PassResult:
    """Simulated statistics of one pass, in sweep/point order."""

    points: List[Tuple[str, float, float, int, int]]
    probe_digest: Optional[str] = None

    def as_json(self) -> dict:
        out = {"points": [list(p) for p in self.points]}
        if self.probe_digest is not None:
            out["probe_digest"] = self.probe_digest
        return out


def run_pass(workload: Workload, seed: int) -> PassResult:
    """Run every sweep of the workload once and collect its statistics.

    Per point: ``(sweep label, value, bit_errors, bits_total,
    packets_lost)``.  With probes, a fresh registry records the pass and
    the digest of its export is returned as well.
    """
    probes = None
    if workload.probes is not None:
        probes = obs.ProbeRegistry(obs.probe_preset(workload.probes))
    previous = obs.set_probes(probes) if probes is not None else None
    points = []
    try:
        for sweep in workload.sweeps:
            result = ParameterSweep(
                sweep.config,
                sweep.parameter,
                list(sweep.values),
                n_packets=workload.packets_per_point,
                seed=seed,
            ).run(jobs=workload.jobs)
            for p in result.points:
                m = p.measurement
                points.append((
                    sweep.label, float(p.value), float(m.bit_errors),
                    int(m.bits_total), int(m.packets_lost),
                ))
    finally:
        if probes is not None:
            obs.set_probes(previous)
    digest = None
    if probes is not None:
        text = json.dumps(probes.export(), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return PassResult(points, digest)


def check(workload: Workload, result: PassResult) -> List[str]:
    """Invariants every pass must hold, whatever the seed.

    Returns one message per violated point (empty when all hold).
    """
    problems = []
    expected = [
        (s.label, float(v)) for s in workload.sweeps for v in s.values
    ]
    if [(p[0], p[1]) for p in result.points] != expected:
        return [f"points {[(p[0], p[1]) for p in result.points]} "
                f"!= {expected}"]
    for label, value, errors, bits, lost in result.points:
        psdu_bits = 8 * next(
            s.config.psdu_bytes for s in workload.sweeps if s.label == label
        )
        if bits != workload.packets_per_point * psdu_bits:
            problems.append(f"{label}@{value}: bits_total {bits}")
        elif not 0 <= errors <= bits:
            problems.append(f"{label}@{value}: bit_errors {errors}")
        elif not 0 <= lost <= workload.packets_per_point:
            problems.append(f"{label}@{value}: packets_lost {lost}")
    if (workload.probes is not None) != (result.probe_digest is not None):
        problems.append("probe digest presence")
    return problems
