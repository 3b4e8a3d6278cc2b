"""Signal-level probes: EVM, budget waterfall, mask margin, PAPR, IQ taps.

PR 1-2 made the *simulator* observable (spans, metrics, run KPIs); this
module makes the *signal* observable — the paper's whole point is seeing
inside the RF subsystem while it runs in the system-level simulation, so
that a BER number comes with its mechanistic explanation (filter too
narrow, LNA in compression, adjacent channel leaking through).

A :class:`ProbeRegistry` owns a set of signal taps installed at stage
boundaries of the TX -> RF -> RX chain (transmitter output, post-LNA,
post-mixer, post-channel-filter, post-ADC, equalizer output).  Each tap
computes **bounded-memory summaries** — nothing retains raw waveforms:

* per-stage complex-baseband power (energy + sample count + peak), the
  raw material of the cascade "budget waterfall", cross-checked against
  the Friis/:mod:`repro.rf.cascade` predictions recorded by
  :meth:`ProbeRegistry.note_budget`;
* data-aided EVM at the equalizer output, per constellation, in the
  exact convention of :func:`repro.core.metrics.error_vector_magnitude`
  (per-packet least-squares gain removal, RMS over symbols);
* Welch PSD accumulation (fixed segment length, summed across taps) via
  :mod:`repro.spectrum.psd`, with margin against the 802.11a section
  17.3.9 transmit spectral mask;
* PAPR as a fixed-bin CCDF histogram plus the exact peak;
* deterministic reservoir-sampled constellation/IQ snapshots: a
  bottom-k sketch whose per-symbol weights derive from the packet's
  seed-derived tag (counter-based Philox), so the retained points are
  identical whatever the worker partitioning.

Determinism contract: probes never consume the simulation's random
streams and never touch the signal, so a probes-off run is bit-identical
to a probes-on run; and every summary merges associatively *in task
order* (:meth:`snapshot` / :meth:`merge` mirror
:class:`repro.obs.metrics.MetricsRegistry`), with the parallel executor
granting each task attempt its own scratch registry, so serial,
``--jobs N``, and faulted-then-retried runs persist byte-identical probe
artifacts.

The registry of the ambient :class:`repro.obs.Telemetry` bundle
(``obs.telemetry().probes``) is disabled by default; a disabled registry costs one attribute check per
tap site (<1 % overhead end to end).
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROBE_PRESETS",
    "ProbeConfig",
    "ProbeRegistry",
    "ccdf_rows",
    "evm_rows",
    "probe_preset",
    "render_ccdf_table",
    "render_evm_table",
    "render_spectrum_ascii",
    "waterfall_rows",
]

#: kT at 290 K in dBm/Hz (the antenna-referred thermal noise density).
KT_DBM_HZ = 10.0 * math.log10(1.380649e-23 * 290.0 * 1e3)

#: OFDM occupied bandwidth used for implied-SNR noise integration [Hz]
#: (52 subcarriers x 312.5 kHz).
NOISE_BANDWIDTH_HZ = 16.6e6


@dataclass(frozen=True)
class ProbeConfig:
    """What the probe layer measures (one of :data:`PROBE_PRESETS`).

    Attributes:
        enabled: master switch; a disabled registry is a no-op.
        preset: name this config was derived from (for manifests).
        psd: accumulate per-stage Welch PSDs.
        psd_nperseg: Welch segment length of the accumulated PSDs.
        constellation: retain reservoir-sampled IQ points at the
            equalizer output.
        reservoir_size: bottom-k sketch size per constellation.
        papr_bin_db / papr_max_db: CCDF histogram resolution and span.
        mask: check the transmitter output against the 802.11a mask.
        mask_resolution_hz: PSD resolution of the mask check.
    """

    enabled: bool = False
    preset: str = "off"
    psd: bool = False
    psd_nperseg: int = 256
    constellation: bool = False
    reservoir_size: int = 256
    papr_bin_db: float = 0.25
    papr_max_db: float = 16.0
    mask: bool = True
    mask_resolution_hz: float = 200e3


#: Named probe configurations selectable via ``--probes [preset]``.
PROBE_PRESETS: Dict[str, ProbeConfig] = {
    "off": ProbeConfig(),
    # Waterfall + EVM + PAPR + mask margin: the cheap always-useful set.
    "basic": ProbeConfig(enabled=True, preset="basic"),
    # Everything, including PSD accumulation and IQ snapshots.
    "full": ProbeConfig(
        enabled=True, preset="full", psd=True, constellation=True
    ),
}


def probe_preset(name: str) -> ProbeConfig:
    """Look up a probe preset by name (``off`` / ``basic`` / ``full``)."""
    try:
        return PROBE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown probe preset {name!r}; "
            f"choose from {', '.join(sorted(PROBE_PRESETS))}"
        ) from None


def _reservoir_weights(tag: str, key: str, n: int) -> np.ndarray:
    """Per-symbol sampling weights, deterministic in (tag, key) only.

    A counter-based Philox stream keyed by the tag/key hash yields the
    same weights for a packet's symbols no matter which process taps
    them or how many packets preceded them — the property that makes
    the bottom-k sketch partition-independent.
    """
    digest = hashlib.sha256(f"{tag}|{key}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.Philox(key=seed)).random(n)


class ProbeRegistry:
    """Signal taps with bounded-memory, deterministically mergeable state.

    All state lives in JSON-friendly scalars and fixed-length arrays;
    :meth:`snapshot` is picklable (worker -> parent transfer) and
    :meth:`merge` folds a snapshot in associatively, mirroring
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self, config: ProbeConfig = ProbeConfig()):
        self.config = config
        self._lock = threading.Lock()
        # stage -> {order, n_taps, n_samples, energy_w, peak_w, sample_rate}
        self._stages: Dict[str, Dict[str, Any]] = {}
        # stage -> {sample_rate, freqs_hz, psd_sum_w_hz, count}
        self._psd: Dict[str, Dict[str, Any]] = {}
        # stage -> {counts, max_db}
        self._papr: Dict[str, Dict[str, Any]] = {}
        # modulation -> {stage, sum_sq, n}
        self._evm: Dict[str, Dict[str, Any]] = {}
        # stage -> {worst_margin_db, n, resolution_hz}
        self._mask: Dict[str, Dict[str, Any]] = {}
        # "stage:modulation" -> [(weight, tag, idx, rxr, rxi, refr, refi)]
        self._constellation: Dict[str, List[Tuple]] = {}
        # stage -> {gain_db, nf_db} cumulative cascade predictions
        self._budget: Dict[str, Dict[str, float]] = {}

    # -- basic properties ----------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether taps record anything (the per-site fast-path check)."""
        return self.config.enabled

    def has_data(self) -> bool:
        """Whether any tap has fired."""
        return bool(self._stages or self._evm or self._mask or self._budget)

    def spawn(self) -> "ProbeRegistry":
        """An empty registry with the same config (worker/attempt scratch)."""
        return ProbeRegistry(self.config)

    # -- taps ------------------------------------------------------------
    def tap(
        self,
        stage: str,
        samples: np.ndarray,
        sample_rate: float,
        papr: bool = True,
    ) -> None:
        """Record one signal at a stage boundary (power, PAPR, PSD).

        Args:
            stage: tap name (``"tx"``, ``"rf:lna"``, ...); first-seen
                order is retained for waterfall rendering.
            samples: complex envelope in sqrt-watt units (read only).
            sample_rate: envelope sample rate [Hz].
            papr: also feed the PAPR/CCDF histogram.
        """
        if not self.config.enabled:
            return
        samples = np.asarray(samples)
        n = int(samples.size)
        if n == 0:
            return
        inst_w = np.abs(samples) ** 2
        energy = float(np.sum(inst_w))
        peak = float(np.max(inst_w))
        with self._lock:
            entry = self._stages.get(stage)
            if entry is None:
                entry = self._stages[stage] = {
                    "order": len(self._stages),
                    "n_taps": 0,
                    "n_samples": 0,
                    "energy_w": 0.0,
                    "peak_w": 0.0,
                    "sample_rate": float(sample_rate),
                }
            entry["n_taps"] += 1
            entry["n_samples"] += n
            entry["energy_w"] += energy
            entry["peak_w"] = max(entry["peak_w"], peak)
        if papr and energy > 0.0:
            self._tap_papr(stage, inst_w, energy / n)
        if self.config.psd and n >= 8:
            self._tap_psd(stage, samples, sample_rate)

    def _tap_papr(
        self, stage: str, inst_w: np.ndarray, mean_w: float
    ) -> None:
        cfg = self.config
        n_bins = max(int(round(cfg.papr_max_db / cfg.papr_bin_db)), 1)
        ratio_db = 10.0 * np.log10(
            np.maximum(inst_w, 1e-300) / mean_w
        )
        idx = np.clip(
            np.floor(ratio_db / cfg.papr_bin_db).astype(int), 0, n_bins
        )
        counts = np.bincount(idx[ratio_db >= 0.0], minlength=n_bins + 1)
        peak_db = float(np.max(ratio_db))
        with self._lock:
            entry = self._papr.get(stage)
            if entry is None:
                entry = self._papr[stage] = {
                    "counts": np.zeros(n_bins + 1, dtype=np.int64),
                    "max_db": -math.inf,
                    "n_below": 0,
                }
            entry["counts"] += counts
            entry["n_below"] += int(np.count_nonzero(ratio_db < 0.0))
            entry["max_db"] = max(entry["max_db"], peak_db)

    def _tap_psd(
        self, stage: str, samples: np.ndarray, sample_rate: float
    ) -> None:
        from repro.rf.signal import Signal
        from repro.spectrum.psd import welch_psd

        psd = welch_psd(
            Signal(samples, sample_rate),
            nperseg=self.config.psd_nperseg,
        )
        with self._lock:
            entry = self._psd.get(stage)
            if entry is None or entry["freqs_hz"].size != psd.freqs_hz.size:
                entry = self._psd[stage] = {
                    "sample_rate": float(sample_rate),
                    "freqs_hz": psd.freqs_hz.copy(),
                    "psd_sum_w_hz": np.zeros_like(psd.psd_w_hz),
                    "count": 0,
                }
            entry["psd_sum_w_hz"] += psd.psd_w_hz
            entry["count"] += 1

    def tap_mask(
        self, stage: str, samples: np.ndarray, sample_rate: float
    ) -> None:
        """Check a transmit signal against the 802.11a spectral mask.

        Tracks the worst (minimum) margin over all tapped packets; a
        negative worst margin means at least one packet violated the
        section 17.3.9 mask.
        """
        if not (self.config.enabled and self.config.mask):
            return
        samples = np.asarray(samples)
        if samples.size < 64 or not np.any(samples):
            return
        from repro.rf.signal import Signal
        from repro.spectrum.psd import check_transmit_mask

        _, margin = check_transmit_mask(
            Signal(samples, sample_rate),
            resolution_hz=self.config.mask_resolution_hz,
        )
        with self._lock:
            entry = self._mask.get(stage)
            if entry is None:
                entry = self._mask[stage] = {
                    "worst_margin_db": math.inf,
                    "n": 0,
                    "resolution_hz": float(self.config.mask_resolution_hz),
                }
            entry["worst_margin_db"] = min(
                entry["worst_margin_db"], float(margin)
            )
            entry["n"] += 1

    def tap_evm(
        self,
        stage: str,
        received: np.ndarray,
        reference: np.ndarray,
        modulation: str,
        tag: str = "pkt",
    ) -> None:
        """Data-aided EVM of equalized constellation points.

        Per-packet least-squares complex gain removal, exactly as
        :func:`repro.core.metrics.error_vector_magnitude`; the squared
        EVM accumulates symbol-weighted so the merged RMS matches a
        single-pass measurement.  With ``constellation`` enabled, the
        gain-corrected points also feed the bottom-k IQ reservoir under
        the packet's ``tag``.
        """
        if not self.config.enabled:
            return
        rx = np.asarray(received, dtype=complex).ravel()
        ref = np.asarray(reference, dtype=complex).ravel()
        n = min(rx.size, ref.size)
        if n == 0:
            return
        rx, ref = rx[:n], ref[:n]
        ref_power = np.vdot(ref, ref)
        if ref_power.real <= 0.0:
            return
        gain = np.vdot(ref, rx) / ref_power
        if gain != 0:
            rx = rx / gain
        err_sq = float(
            np.mean(np.abs(rx - ref) ** 2) / np.mean(np.abs(ref) ** 2)
        )
        with self._lock:
            entry = self._evm.get(modulation)
            if entry is None:
                entry = self._evm[modulation] = {
                    "stage": stage, "sum_sq": 0.0, "n": 0,
                }
            entry["sum_sq"] += err_sq * n
            entry["n"] += n
        if self.config.constellation:
            self._tap_reservoir(stage, modulation, rx, ref, tag)

    def _tap_reservoir(
        self,
        stage: str,
        modulation: str,
        rx: np.ndarray,
        ref: np.ndarray,
        tag: str,
    ) -> None:
        key = f"{stage}:{modulation}"
        k = self.config.reservoir_size
        weights = _reservoir_weights(tag, key, rx.size)
        # Only the k lightest candidates of this packet can ever enter.
        take = np.sort(np.argsort(weights)[:k])
        entries = [
            (
                float(weights[i]), tag, int(i),
                float(rx[i].real), float(rx[i].imag),
                float(ref[i].real), float(ref[i].imag),
            )
            for i in take
        ]
        with self._lock:
            pool = self._constellation.setdefault(key, [])
            pool.extend(entries)
            pool.sort(key=lambda e: (e[0], e[1], e[2]))
            del pool[k:]

    def note_budget(self, frontend_config: Any) -> None:
        """Record the cascade (Friis) budget predictions for the RF taps.

        Derives per-stage cumulative gain and noise figure from the
        front-end configuration via :mod:`repro.rf.cascade`, so the
        waterfall can print measured power next to the paper-style
        line-up budget.  First call wins (the config is constant within
        a run); unknown architectures are simply skipped.
        """
        if not self.config.enabled:
            return
        with self._lock:
            if self._budget:
                return
        from repro.rf.cascade import (
            StageSpec,
            cascade_gain_db,
            friis_noise_figure_db,
        )
        from repro.rf.nonlinearity import iip3_from_p1db

        cfg = frontend_config
        if hasattr(cfg, "mixer1_gain_db"):  # double conversion
            specs = [
                StageSpec("lna", cfg.lna_gain_db, cfg.lna_nf_db,
                          iip3_from_p1db(cfg.lna_p1db_dbm)),
                StageSpec("mixer1", cfg.mixer1_gain_db, cfg.mixer1_nf_db),
                StageSpec("mixer1_nl", 0.0, iip3_dbm=cfg.mixer1_iip3_dbm),
                StageSpec("mixer2", cfg.mixer2_gain_db, cfg.mixer2_nf_db),
                StageSpec("mixer2_nl", 0.0, iip3_dbm=cfg.mixer2_iip3_dbm),
            ]
            prefixes = {"input": 0, "lna": 1, "mixer1": 3, "mixer2": 5}
        elif hasattr(cfg, "mixer_gain_db"):  # zero-IF
            specs = [
                StageSpec("lna", cfg.lna_gain_db, cfg.lna_nf_db,
                          iip3_from_p1db(cfg.lna_p1db_dbm)),
                StageSpec("mixer", cfg.mixer_gain_db, cfg.mixer_nf_db),
                StageSpec("mixer_nl", 0.0, iip3_dbm=cfg.mixer_iip3_dbm),
            ]
            prefixes = {"input": 0, "lna": 1, "mixer": 3}
        else:
            return
        budget = {
            name: {
                "gain_db": cascade_gain_db(specs[:cut]),
                "nf_db": friis_noise_figure_db(specs[:cut]),
            }
            for name, cut in prefixes.items()
        }
        with self._lock:
            if not self._budget:
                self._budget = budget

    # -- cross-process transfer ------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Loss-free picklable dump that round-trips through :meth:`merge`."""
        with self._lock:
            return {
                "stages": {k: dict(v) for k, v in self._stages.items()},
                "psd": {
                    k: {
                        "sample_rate": v["sample_rate"],
                        "freqs_hz": v["freqs_hz"].copy(),
                        "psd_sum_w_hz": v["psd_sum_w_hz"].copy(),
                        "count": v["count"],
                    }
                    for k, v in self._psd.items()
                },
                "papr": {
                    k: {
                        "counts": v["counts"].copy(),
                        "max_db": v["max_db"],
                        "n_below": v["n_below"],
                    }
                    for k, v in self._papr.items()
                },
                "evm": {k: dict(v) for k, v in self._evm.items()},
                "mask": {k: dict(v) for k, v in self._mask.items()},
                "constellation": {
                    k: list(v) for k, v in self._constellation.items()
                },
                "budget": {k: dict(v) for k, v in self._budget.items()},
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` in (energies add, extrema combine).

        Merging worker snapshots strictly in task order — with each
        worker/attempt accumulating into its own scratch registry —
        reproduces the serial accumulation tree exactly, so the merged
        floating-point state is bit-identical at any job count.
        """
        with self._lock:
            for stage, src in snapshot.get("stages", {}).items():
                dst = self._stages.get(stage)
                if dst is None:
                    entry = dict(src)
                    entry["order"] = len(self._stages)
                    self._stages[stage] = entry
                    continue
                dst["n_taps"] += src["n_taps"]
                dst["n_samples"] += src["n_samples"]
                dst["energy_w"] += src["energy_w"]
                dst["peak_w"] = max(dst["peak_w"], src["peak_w"])
            for stage, src in snapshot.get("psd", {}).items():
                dst = self._psd.get(stage)
                freqs = np.asarray(src["freqs_hz"])
                if dst is None or dst["freqs_hz"].size != freqs.size:
                    self._psd[stage] = {
                        "sample_rate": src["sample_rate"],
                        "freqs_hz": freqs.copy(),
                        "psd_sum_w_hz": np.asarray(
                            src["psd_sum_w_hz"]
                        ).copy(),
                        "count": src["count"],
                    }
                    continue
                dst["psd_sum_w_hz"] += np.asarray(src["psd_sum_w_hz"])
                dst["count"] += src["count"]
            for stage, src in snapshot.get("papr", {}).items():
                dst = self._papr.get(stage)
                counts = np.asarray(src["counts"])
                if dst is None or dst["counts"].size != counts.size:
                    self._papr[stage] = {
                        "counts": counts.copy(),
                        "max_db": src["max_db"],
                        "n_below": src["n_below"],
                    }
                    continue
                dst["counts"] += counts
                dst["n_below"] += src["n_below"]
                dst["max_db"] = max(dst["max_db"], src["max_db"])
            for modulation, src in snapshot.get("evm", {}).items():
                dst = self._evm.get(modulation)
                if dst is None:
                    self._evm[modulation] = dict(src)
                    continue
                dst["sum_sq"] += src["sum_sq"]
                dst["n"] += src["n"]
            for stage, src in snapshot.get("mask", {}).items():
                dst = self._mask.get(stage)
                if dst is None:
                    self._mask[stage] = dict(src)
                    continue
                dst["worst_margin_db"] = min(
                    dst["worst_margin_db"], src["worst_margin_db"]
                )
                dst["n"] += src["n"]
            for key, entries in snapshot.get("constellation", {}).items():
                pool = self._constellation.setdefault(key, [])
                pool.extend(tuple(e) for e in entries)
                pool.sort(key=lambda e: (e[0], e[1], e[2]))
                del pool[self.config.reservoir_size:]
            for stage, src in snapshot.get("budget", {}).items():
                self._budget.setdefault(stage, dict(src))

    # -- export ----------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """JSON-serialisable dump (the run store's ``probes.json``).

        Every value is a plain float/int/str/list; non-finite floats are
        dropped or clamped so the payload is strict-JSON safe.  A
        registry that never tapped anything exports ``{}`` so probe-less
        runs keep their original content digests.
        """
        if not self.has_data():
            return {}
        snap = self.snapshot()
        out: Dict[str, Any] = {"preset": self.config.preset}
        out["stages"] = {
            k: {
                "order": v["order"],
                "n_taps": int(v["n_taps"]),
                "n_samples": int(v["n_samples"]),
                "energy_w": float(v["energy_w"]),
                "peak_w": float(v["peak_w"]),
                "sample_rate": float(v["sample_rate"]),
            }
            for k, v in snap["stages"].items()
        }
        out["psd"] = {
            k: {
                "sample_rate": float(v["sample_rate"]),
                "freqs_hz": [float(f) for f in v["freqs_hz"]],
                "psd_sum_w_hz": [float(p) for p in v["psd_sum_w_hz"]],
                "count": int(v["count"]),
            }
            for k, v in snap["psd"].items()
        }
        out["papr"] = {
            k: {
                "bin_db": float(self.config.papr_bin_db),
                "counts": [int(c) for c in v["counts"]],
                "n_below": int(v["n_below"]),
                "max_db": (
                    float(v["max_db"]) if math.isfinite(v["max_db"])
                    else 0.0
                ),
            }
            for k, v in snap["papr"].items()
        }
        out["evm"] = {
            k: {
                "stage": v["stage"],
                "sum_sq": float(v["sum_sq"]),
                "n": int(v["n"]),
            }
            for k, v in snap["evm"].items()
        }
        out["mask"] = {
            k: {
                "worst_margin_db": float(v["worst_margin_db"]),
                "n": int(v["n"]),
                "resolution_hz": float(v["resolution_hz"]),
            }
            for k, v in snap["mask"].items()
            if math.isfinite(v["worst_margin_db"])
        }
        out["constellation"] = {
            k: {
                "points": [
                    [
                        float(w), str(tag), int(i),
                        float(rxr), float(rxi), float(refr), float(refi),
                    ]
                    for (w, tag, i, rxr, rxi, refr, refi) in entries
                ]
            }
            for k, entries in snap["constellation"].items()
        }
        out["budget"] = {
            k: {"gain_db": float(v["gain_db"]), "nf_db": float(v["nf_db"])}
            for k, v in snap["budget"].items()
        }
        return out

    # -- derived results -------------------------------------------------
    def kpis(self) -> Dict[str, float]:
        """Flat KPI mapping (``probe.*``) for the run store / diff gate."""
        from repro.rf.signal import watts_to_dbm

        out: Dict[str, float] = {}
        snap = self.snapshot()
        for stage, v in snap["stages"].items():
            if v["n_samples"] > 0 and v["energy_w"] > 0.0:
                out[f"probe.power_dbm[{stage}]"] = float(
                    watts_to_dbm(v["energy_w"] / v["n_samples"])
                )
        for stage, v in snap["papr"].items():
            if math.isfinite(v["max_db"]):
                out[f"probe.papr_db[{stage}]"] = float(v["max_db"])
        for modulation, v in snap["evm"].items():
            if v["n"] > 0:
                evm = math.sqrt(v["sum_sq"] / v["n"])
                out[f"probe.evm_rms[{modulation}]"] = evm
                out[f"probe.evm_db[{modulation}]"] = (
                    20.0 * math.log10(max(evm, 1e-12))
                )
        for stage, v in snap["mask"].items():
            if math.isfinite(v["worst_margin_db"]):
                out[f"probe.mask_margin_db[{stage}]"] = v["worst_margin_db"]
                out[f"probe.mask_pass[{stage}]"] = (
                    1.0 if v["worst_margin_db"] >= 0.0 else 0.0
                )
        return out

    def emit_metrics(self, registry) -> None:
        """Publish headline probe results as ``probe_*`` gauges.

        These are *telemetry about the signal*, excluded from the
        regression gate by the default
        :attr:`repro.obs.regress.RegressionConfig.metric_ignore`
        patterns (a probes-on candidate must still diff clean against a
        probes-off baseline).
        """
        from repro.rf.signal import watts_to_dbm

        snap = self.snapshot()
        if snap["stages"]:
            gauge = registry.gauge(
                "probe_power_dbm", "mean tapped power per probe stage"
            )
            for stage, v in snap["stages"].items():
                if v["n_samples"] > 0 and v["energy_w"] > 0.0:
                    gauge.set(
                        watts_to_dbm(v["energy_w"] / v["n_samples"]),
                        stage=stage,
                    )
        if snap["evm"]:
            gauge = registry.gauge(
                "probe_evm_db", "data-aided EVM at the equalizer output"
            )
            for modulation, v in snap["evm"].items():
                if v["n"] > 0:
                    evm = math.sqrt(v["sum_sq"] / v["n"])
                    gauge.set(
                        20.0 * math.log10(max(evm, 1e-12)),
                        modulation=modulation,
                    )
        if snap["mask"]:
            gauge = registry.gauge(
                "probe_mask_margin_db",
                "worst 802.11a transmit-mask margin per probe stage",
            )
            for stage, v in snap["mask"].items():
                if math.isfinite(v["worst_margin_db"]):
                    gauge.set(v["worst_margin_db"], stage=stage)
        if snap["papr"]:
            gauge = registry.gauge(
                "probe_papr_db", "peak-to-average power per probe stage"
            )
            for stage, v in snap["papr"].items():
                if math.isfinite(v["max_db"]):
                    gauge.set(v["max_db"], stage=stage)


# -- waterfall / table / spectrum rendering -----------------------------
def _stage_budget_name(stage: str) -> str:
    """Map a tap name (``"rf:lna"``) to its cascade budget key."""
    return stage.split(":", 1)[1] if ":" in stage else stage


def waterfall_rows(
    export: Mapping[str, Any]
) -> Tuple[List[str], List[List[str]]]:
    """The cascade budget waterfall as a renderable (headers, rows).

    Measured mean power per stage, the stage-to-stage power step, and —
    where :meth:`ProbeRegistry.note_budget` recorded a line-up budget —
    the Friis-predicted cumulative gain/NF and the implied SNR
    (measured power over the budget-raised thermal floor in the OFDM
    noise bandwidth).
    """
    from repro.rf.signal import watts_to_dbm

    stages = sorted(
        export.get("stages", {}).items(), key=lambda kv: kv[1]["order"]
    )
    budget = export.get("budget", {})
    noise_ref_dbm = KT_DBM_HZ + 10.0 * math.log10(NOISE_BANDWIDTH_HZ)
    headers = [
        "stage", "taps", "power [dBm]", "step [dB]",
        "budget gain [dB]", "budget NF [dB]", "implied SNR [dB]",
    ]
    rows: List[List[str]] = []
    previous_dbm: Optional[float] = None
    for stage, v in stages:
        if v["n_samples"] <= 0 or v["energy_w"] <= 0.0:
            continue
        power_dbm = watts_to_dbm(v["energy_w"] / v["n_samples"])
        step = (
            "-" if previous_dbm is None
            else f"{power_dbm - previous_dbm:+.2f}"
        )
        previous_dbm = power_dbm
        spec = budget.get(_stage_budget_name(stage))
        if spec is not None:
            noise_dbm = noise_ref_dbm + spec["nf_db"] + spec["gain_db"]
            gain = f"{spec['gain_db']:+.2f}"
            nf = f"{spec['nf_db']:.2f}"
            snr = f"{power_dbm - noise_dbm:.1f}"
        else:
            gain = nf = snr = "-"
        rows.append([
            stage, str(v["n_taps"]), f"{power_dbm:.2f}", step,
            gain, nf, snr,
        ])
    return headers, rows


def evm_rows(
    export: Mapping[str, Any]
) -> Tuple[List[str], List[List[str]]]:
    """EVM per constellation, with the implied Es/N0, as (headers, rows)."""
    rows = []
    for modulation in sorted(export.get("evm", {})):
        v = export["evm"][modulation]
        if v["n"] <= 0:
            continue
        evm = math.sqrt(v["sum_sq"] / v["n"])
        evm_db = 20.0 * math.log10(max(evm, 1e-12))
        rows.append([
            modulation, v["stage"], str(int(v["n"])),
            f"{100.0 * evm:.2f}", f"{evm_db:.2f}", f"{-evm_db:.2f}",
        ])
    headers = [
        "constellation", "stage", "symbols", "EVM [%]", "EVM [dB]",
        "implied Es/N0 [dB]",
    ]
    return headers, rows


def render_evm_table(export: Mapping[str, Any]) -> str:
    """EVM per constellation with the implied Es/N0 it corresponds to."""
    from repro.core.reporting import render_table

    headers, rows = evm_rows(export)
    return render_table(headers, rows)


def ccdf_rows(
    export: Mapping[str, Any],
    stage: str,
    levels: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> Tuple[List[str], List[List[str]]]:
    """PAPR CCDF (papr exceeded with each probability) as (headers, rows)."""
    headers = ["CCDF level", "PAPR [dB]"]
    entry = export.get("papr", {}).get(stage)
    if entry is None:
        return headers, []
    counts = np.asarray(entry["counts"], dtype=float)
    total = counts.sum() + float(entry.get("n_below", 0))
    if total <= 0:
        return headers, []
    # P(PAPR >= bin edge) per bin, from the top down.
    exceed = np.cumsum(counts[::-1])[::-1] / total
    bin_db = float(entry["bin_db"])
    rows = []
    for level in levels:
        above = np.nonzero(exceed >= level)[0]
        papr_db = (above[-1] + 1) * bin_db if above.size else 0.0
        rows.append([f"{level:g}", f"{papr_db:.2f}"])
    rows.append(["peak", f"{entry['max_db']:.2f}"])
    return headers, rows


def render_ccdf_table(
    export: Mapping[str, Any],
    stage: str,
    levels: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> str:
    """PAPR CCDF: the papr exceeded with each probability, plus the peak."""
    from repro.core.reporting import render_table

    headers, rows = ccdf_rows(export, stage, levels)
    if not rows:
        return "(no PAPR data)"
    return render_table(headers, rows)


def render_spectrum_ascii(
    export: Mapping[str, Any],
    stage: str,
    width: int = 64,
    height: int = 16,
    floor_dbr: float = -60.0,
    mask: bool = True,
) -> str:
    """ASCII spectrum of an accumulated stage PSD, with the mask overlay.

    The averaged PSD is normalized to its peak density (dBr, like the
    section 17.3.9 mask definition); ``#`` columns draw the spectrum,
    ``-`` the transmit mask (``+`` where they meet).
    """
    entry = export.get("psd", {}).get(stage)
    if entry is None or entry["count"] <= 0:
        return "(no PSD data)"
    freqs = np.asarray(entry["freqs_hz"], dtype=float)
    psd = np.asarray(entry["psd_sum_w_hz"], dtype=float) / entry["count"]
    ref = psd.max()
    if ref <= 0:
        return "(no PSD data)"
    dbr = 10.0 * np.log10(np.maximum(psd, ref * 10.0 ** (floor_dbr / 10.0))
                          / ref)
    # Downsample to `width` columns, keeping the per-column maximum.
    edges = np.linspace(0, freqs.size, width + 1).astype(int)
    cols = np.array([
        dbr[lo:hi].max() if hi > lo else floor_dbr
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    col_freqs = np.array([
        freqs[lo:hi].mean() if hi > lo else 0.0
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    span = -floor_dbr

    def to_row(level_dbr: float) -> int:
        frac = min(max((0.0 - level_dbr) / span, 0.0), 1.0)
        return min(int(frac * (height - 1)), height - 1)

    grid = [[" "] * width for _ in range(height)]
    for c, level in enumerate(cols):
        for r in range(to_row(level), height):
            grid[r][c] = "#"
    if mask:
        from repro.spectrum.psd import transmit_mask_802_11a_dbr

        mask_dbr = transmit_mask_802_11a_dbr(col_freqs)
        for c, level in enumerate(mask_dbr):
            r = to_row(float(level))
            grid[r][c] = "+" if grid[r][c] == "#" else "-"
    lines = []
    for r in range(height):
        level = 0.0 - span * r / (height - 1)
        label = f"{level:7.1f} " if r % 4 == 0 else " " * 8
        lines.append(f"{label}|{''.join(grid[r])}|")
    f_lo = col_freqs[0] / 1e6
    f_hi = col_freqs[-1] / 1e6
    axis = f"{f_lo:+.1f} MHz".ljust(width // 2) + f"{f_hi:+.1f} MHz".rjust(
        width - width // 2
    )
    lines.append(" " * 9 + axis)
    lines.append(
        " " * 9 + "# spectrum [dBr]    - 802.11a mask    + both"
        if mask else " " * 9 + "# spectrum [dBr]"
    )
    return "\n".join(lines)
