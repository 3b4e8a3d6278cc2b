"""The receiver line-up and its closed-form cascade budget.

The paper verifies the behavioral RF models against the numbers an RF
designer would compute on paper — a cascade (spreadsheet) budget of the
receiver line-up.  This module is the one place that budget is computed:
:class:`StageSpec` describes one stage, each front-end configuration's
``lineup()`` lists its active stages once, and :class:`CascadeAnalysis`
runs the single cumulative recursion every consumer (probe waterfall,
QA oracle, co-simulation noise workaround, link-budget table) reads.
:class:`BlockCascade` runs the *same* stages through their executable
models so :func:`repro.flow.rfsim.characterize` can be checked against
theory.

Formulas (all standard):

* Friis:   ``F = F1 + (F2-1)/G1 + (F3-1)/(G1*G2) + ...``
* IIP3:    ``1/P_casc = sum_k  G_before_k / P_k``  (linear power)
* P1dB:    cascade IIP3 minus the cubic-model offset of ~9.64 dB
  (exact for a memoryless cubic chain dominated by one compressor,
  a good approximation otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rf.noise import thermal_noise_psd_dbm_hz
from repro.rf.nonlinearity import p1db_from_iip3
from repro.rf.signal import Signal


@dataclass(frozen=True)
class StageSpec:
    """Paper parameters of one cascade stage.

    Attributes:
        name: stage label (for reports).
        gain_db: small-signal power gain.
        nf_db: noise figure; 0 for a noiseless stage.
        iip3_dbm: input-referred third-order intercept; ``inf`` for a
            linear stage.
    """

    name: str
    gain_db: float
    nf_db: float = 0.0
    iip3_dbm: float = np.inf


@dataclass(frozen=True)
class CascadeRow:
    """Cumulative cascade figures after one stage."""

    name: str
    gain_db: float
    cumulative_gain_db: float
    cumulative_nf_db: float
    cumulative_iip3_dbm: float


@dataclass(frozen=True)
class CascadeAnalysis:
    """Friis / IIP3 cascade analysis of a stage line-up.

    Example:
        >>> from repro.rf.frontend import FrontendConfig
        >>> analysis = CascadeAnalysis(FrontendConfig().lineup())
        >>> round(analysis.total_iip3_dbm, 1)
        -14.4
    """

    stages: Sequence[StageSpec]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("cascade needs at least one stage")

    def rows(self) -> List[CascadeRow]:
        """Per-stage cumulative gain, noise figure (Friis) and IIP3.

        Each stage's noise and intercept are referred back to the
        cascade input by the gain accumulated in front of it; the excess
        noise factors and the reciprocal linear intercepts add.
        """
        out: List[CascadeRow] = []
        gain_db = 0.0
        gain_before = 1.0
        total_f = 1.0
        inv_iip3 = 0.0
        for s in self.stages:
            total_f += (10.0 ** (s.nf_db / 10.0) - 1.0) / gain_before
            if np.isfinite(s.iip3_dbm):
                inv_iip3 += gain_before / 10.0 ** (s.iip3_dbm / 10.0)
            gain_before *= 10.0 ** (s.gain_db / 10.0)
            gain_db += s.gain_db
            out.append(
                CascadeRow(
                    name=s.name,
                    gain_db=s.gain_db,
                    cumulative_gain_db=float(gain_db),
                    cumulative_nf_db=float(10.0 * np.log10(total_f)),
                    cumulative_iip3_dbm=(
                        float(10.0 * np.log10(1.0 / inv_iip3))
                        if inv_iip3 > 0.0 else float(np.inf)
                    ),
                )
            )
        return out

    @property
    def total_gain_db(self) -> float:
        """Cascade small-signal power gain."""
        return self.rows()[-1].cumulative_gain_db

    @property
    def total_nf_db(self) -> float:
        """Cascade noise figure (Friis)."""
        return self.rows()[-1].cumulative_nf_db

    @property
    def total_iip3_dbm(self) -> float:
        """Input-referred cascade IIP3."""
        return self.rows()[-1].cumulative_iip3_dbm

    @property
    def input_p1db_dbm(self) -> float:
        """Input-referred cascade 1-dB compression point.

        Uses the cubic-nonlinearity relation ``P1dB = IIP3 - 9.64 dB``
        applied to the cascade intercept — exact when every nonlinear
        stage is the memoryless cubic model used by the SPW-style
        library.
        """
        return float(p1db_from_iip3(self.total_iip3_dbm))

    def sensitivity_dbm(
        self,
        required_snr_db: float,
        bandwidth_hz: float = 16.6e6,
        implementation_margin_db: float = 0.0,
    ) -> float:
        """Link-budget sensitivity estimate.

        ``S = -174 + 10log10(B) + NF + SNR_req + margin`` [dBm].
        """
        if bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        return (
            thermal_noise_psd_dbm_hz()
            + 10.0 * np.log10(bandwidth_hz)
            + self.total_nf_db
            + required_snr_db
            + implementation_margin_db
        )

    def spurious_free_range_db(self, input_dbm: float) -> float:
        """Distance of the third-order products below the signal.

        For an input at ``input_dbm`` the IM3 products sit
        ``2 * (IIP3 - input)`` dB below it.
        """
        if not np.isfinite(self.total_iip3_dbm):
            return np.inf
        return 2.0 * (self.total_iip3_dbm - input_dbm)

    def as_table(self) -> str:
        """Rendered cascade table."""
        from repro.core.reporting import render_table

        rows = [
            [
                r.name,
                f"{r.gain_db:+.1f}",
                f"{r.cumulative_gain_db:+.1f}",
                f"{r.cumulative_nf_db:.2f}",
                ("inf" if not np.isfinite(r.cumulative_iip3_dbm)
                 else f"{r.cumulative_iip3_dbm:+.1f}"),
            ]
            for r in self.rows()
        ]
        return render_table(
            ["stage", "gain [dB]", "cum gain [dB]", "cum NF [dB]",
             "cum IIP3 [dBm]"],
            rows,
        )


class _ApplyAdapter:
    """Wrap an object exposing ``apply(samples)`` as a behavioral block."""

    def __init__(self, inner):
        self._inner = inner

    def process(self, signal: Signal, rng=None) -> Signal:
        return signal.with_samples(self._inner.apply(signal.samples))


class BlockCascade:
    """A behavioral block chaining other blocks' ``process`` methods.

    Accepts blocks with ``process(Signal, rng) -> Signal`` (amplifiers,
    mixers), ``process(Signal) -> Signal`` (filters), or bare
    ``apply(samples)`` nonlinearities, so a receiver's individual stages
    can be re-assembled into one measurable device under test.
    """

    def __init__(self, blocks: Sequence[object]):
        self.blocks = [
            b if hasattr(b, "process") else _ApplyAdapter(b) for b in blocks
        ]

    @staticmethod
    def _takes_rng(block) -> bool:
        import inspect

        try:
            params = inspect.signature(block.process).parameters
        except (TypeError, ValueError):
            return True
        return "rng" in params

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        s = signal
        for block in self.blocks:
            if self._takes_rng(block):
                s = block.process(s, rng)
            else:
                s = block.process(s)
        return s


def active_stage_cascade(
    receiver,
) -> Tuple[BlockCascade, Tuple[StageSpec, ...]]:
    """The active gain stages of a double-conversion receiver.

    Returns both the executable cascade (LNA, mixer 1 + its
    nonlinearity, quadrature mixer 2 + its nonlinearity) and the
    receiver configuration's :meth:`~repro.rf.frontend.FrontendConfig.lineup`
    — the pair the conformance oracles compare.  Filters, AGC and ADC
    are excluded: they do not belong in a line-up budget (unity in-band
    gain, negligible noise) and the AGC would mask compression.
    """
    cascade = BlockCascade(
        [
            receiver.lna,
            receiver.mixer1,
            receiver._mixer1_nl,
            receiver.mixer2,
            receiver._mixer2_nl,
        ]
    )
    return cascade, receiver.config.lineup()
