"""Verification campaign: the release acceptance suite.

Bundles the paper's key results and the standard's compliance checks into
one declarative campaign a verification team would run before signing off
an RF design: PHY loopback at every rate, transmit-mask compliance,
sensitivity and adjacent-channel rejection, the figure-5 filter valley,
the figure-6 linearity waterfall, the co-simulation noise-gap check,
and the check that the ``adjacent-16db`` scenario reproduces the frozen
adjacent-channel measurement.

Each check is a named, independently runnable item; the campaign records
status, wall-clock and details, and renders a sign-off report.  The
``quick`` depth keeps the whole campaign to tens of seconds; ``full``
raises the packet counts for release-grade confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs, perf
from repro.core.reporting import render_table
from repro.obs.progress import ProgressEvent
from repro.rf.frontend import FrontendConfig


@dataclass
class CheckResult:
    """Outcome of one campaign check.

    Attributes:
        name: check identifier.
        passed: verdict.
        detail: one-line result summary.
        duration_s: wall-clock spent.
    """

    name: str
    passed: bool
    detail: str
    duration_s: float


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def as_table(self) -> str:
        rows = [
            [
                r.name,
                "PASS" if r.passed else "FAIL",
                f"{r.duration_s:.1f}s",
                r.detail,
            ]
            for r in self.results
        ]
        return render_table(["check", "verdict", "time", "detail"], rows)


def _check_memo_key(frontend, depth, seed, method_name) -> str:
    """Content hash identifying one check's full verification setup.

    Everything that determines the verdict enters the hash — design
    under test, depth (packet counts), seed streams, check identity and
    the seeding scheme — so a checkpoint is only ever replayed into a
    bit-identical rerun.
    """
    return obs.config_key({
        "frontend": frontend,
        "depth": depth,
        "seed": perf.seed_fingerprint(seed),
        "check": method_name,
        "seeding": obs.SEEDING_SCHEME,
    })


def _load_memoized_check(store, key: str) -> Optional[CheckResult]:
    """Reconstruct a checkpointed check result, or None when absent."""
    entry = store.find_by_name("check", f"ck-{key[:12]}")
    if entry is None:
        return None
    try:
        record = store.load_run(entry.run_id)
    except (KeyError, OSError, ValueError):
        return None
    # The store name truncates the key; verify the stored full key so a
    # prefix collision misses instead of replaying the wrong verdict.
    stored = record.manifest.get("config")
    if not isinstance(stored, dict) or stored.get("memo_key") != key:
        return None
    kpis = record.kpis
    if "passed" not in kpis or "duration_s" not in kpis:
        return None
    return CheckResult(
        name=str(stored.get("check_name", "")),
        passed=bool(kpis["passed"]),
        detail=str(stored.get("detail", "")),
        duration_s=float(kpis["duration_s"]),
    )


def _store_memoized_check(store, key: str, result: CheckResult) -> None:
    """Checkpoint one completed check under its content key."""
    obs.contribute(
        store,
        kind="check",
        name=f"ck-{key[:12]}",
        config={
            "memo_key": key,
            "check_name": result.name,
            "detail": result.detail,
        },
        kpis={
            "passed": 1.0 if result.passed else 0.0,
            "duration_s": result.duration_s,
        },
        ambient=False,
    )


def _campaign_check_task(payload):
    """Run one campaign check (a :func:`repro.perf.parallel_map` task).

    The campaign is rebuilt from its plain-data fields inside the
    worker; every check derives its own streams from the campaign seed,
    so the verdict is identical wherever it runs.
    """
    frontend, depth, seed, method_name = payload
    campaign = VerificationCampaign(frontend=frontend, depth=depth, seed=seed)
    return getattr(campaign, method_name)()


@dataclass
class VerificationCampaign:
    """Runs the acceptance checks against a front-end design.

    Attributes:
        frontend: the design under test.
        depth: ``"quick"`` (smoke-level packet counts) or ``"full"``.
        seed: base random seed.
    """

    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    depth: str = "quick"
    seed: int = 0

    def __post_init__(self):
        if self.depth not in ("quick", "full"):
            raise ValueError(f"unknown depth {self.depth!r}")
        self._n = 3 if self.depth == "quick" else 10

    # -- individual checks -------------------------------------------------
    def check_phy_loopback(self) -> CheckResult:
        """Every 802.11a rate decodes over a clean channel."""
        from repro.dsp.params import RATES
        from repro.dsp.receiver import Receiver, RxConfig
        from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu

        with obs.timed("check:phy_loopback") as timer:
            rng = np.random.default_rng(self.seed)
            failures = []
            for rate in sorted(RATES):
                psdu = random_psdu(60, rng)
                wave = Transmitter(TxConfig(rate_mbps=rate)).transmit(psdu)
                samples = np.concatenate(
                    [np.zeros(150, complex), wave, np.zeros(80, complex)]
                )
                result = Receiver(RxConfig()).receive(samples)
                if not (result.success and np.array_equal(result.psdu, psdu)):
                    failures.append(rate)
        return CheckResult(
            "phy loopback (8 rates)",
            not failures,
            "all rates decode" if not failures else f"failed: {failures}",
            timer.elapsed,
        )

    def check_transmit_mask(self) -> CheckResult:
        """The shaped transmit spectrum meets the 802.11a mask."""
        from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
        from repro.rf.signal import Signal
        from repro.spectrum.psd import check_transmit_mask

        with obs.timed("check:transmit_mask") as timer:
            rng = np.random.default_rng(self.seed)
            wave = Transmitter(TxConfig(rate_mbps=54, oversample=4)).transmit(
                random_psdu(300, rng)
            )
            ok, margin = check_transmit_mask(Signal(wave, 80e6))
        return CheckResult(
            "transmit spectral mask",
            ok,
            f"worst margin {margin:+.1f} dB",
            timer.elapsed,
        )

    def check_sensitivity(self) -> CheckResult:
        """Sensitivity meets IEEE table 91 at the lowest and highest rate."""
        from repro.core.sensitivity import find_sensitivity

        with obs.timed("check:sensitivity") as timer:
            details = []
            ok = True
            for rate, start_dbm in ((6, -84.0), (54, -66.0)):
                try:
                    result = find_sensitivity(
                        rate,
                        frontend=self.frontend,
                        n_packets=self._n,
                        psdu_bytes=100,
                        start_dbm=start_dbm,
                        seed=self.seed,
                    )
                except RuntimeError:
                    # The receiver misses the PER target even at the
                    # starting level: an unambiguous sensitivity failure.
                    ok = False
                    details.append(
                        f"{rate}M: fails even at {start_dbm:.0f} dBm"
                    )
                    continue
                ok &= result.meets_standard
                details.append(
                    f"{rate}M: {result.sensitivity_dbm:.0f} dBm "
                    f"(req {result.standard_requirement_dbm:.0f})"
                )
        return CheckResult(
            "minimum sensitivity",
            ok,
            "; ".join(details),
            timer.elapsed,
        )

    def check_adjacent_rejection(self) -> CheckResult:
        """Adjacent-channel rejection meets table 91 at 24 Mbps."""
        from repro.core.sensitivity import measure_adjacent_rejection

        with obs.timed("check:adjacent_rejection") as timer:
            result = measure_adjacent_rejection(
                24,
                sensitivity_dbm=-74.0,
                frontend=self.frontend,
                n_packets=self._n,
                psdu_bytes=100,
                step_db=4.0,
                max_excess_db=24.0,
                seed=self.seed,
            )
        return CheckResult(
            "adjacent channel rejection",
            result.meets_standard,
            f"{result.rejection_db:+.0f} dB "
            f"(req {result.standard_requirement_db:+.0f})",
            timer.elapsed,
        )

    def check_filter_valley(self) -> CheckResult:
        """Figure-5 shape: the nominal filter decodes, a narrow one fails."""
        from repro.core.testbench import TestbenchConfig, WlanTestbench
        from repro.scenario import Scenario

        def ber(edge):
            cfg = TestbenchConfig(
                rate_mbps=36,
                psdu_bytes=60,
                thermal_floor=True,
                frontend=replace(self.frontend, lpf_edge_hz=edge),
                scenario=Scenario.preset("adjacent-16db"),
                input_level_dbm=-60.0,
            )
            return WlanTestbench(cfg).measure_ber(
                n_packets=self._n, seed=self.seed
            ).ber

        with obs.timed("check:filter_valley") as timer:
            nominal = ber(8.6e6)
            narrow = ber(3e6)
        ok = nominal < 0.02 and narrow > 0.3
        return CheckResult(
            "figure-5 filter valley",
            ok,
            f"BER nominal {nominal:.3f}, narrow {narrow:.3f}",
            timer.elapsed,
        )

    def check_linearity_waterfall(self) -> CheckResult:
        """Figure-6 shape: the design's P1dB survives the +16 dB adjacent."""
        from repro.core.testbench import TestbenchConfig, WlanTestbench
        from repro.scenario import Scenario

        def ber(p1db):
            cfg = TestbenchConfig(
                rate_mbps=36,
                psdu_bytes=60,
                thermal_floor=True,
                frontend=replace(self.frontend, lna_p1db_dbm=p1db),
                scenario=Scenario.preset("adjacent-16db"),
                input_level_dbm=-60.0,
            )
            return WlanTestbench(cfg).measure_ber(
                n_packets=self._n, seed=self.seed
            ).ber

        with obs.timed("check:linearity_waterfall") as timer:
            nominal = ber(self.frontend.lna_p1db_dbm)
            compressed = ber(-50.0)
        ok = nominal < 0.02 and compressed > 0.3
        return CheckResult(
            "figure-6 linearity waterfall",
            ok,
            f"BER at design P1dB {nominal:.3f}, at -50 dBm {compressed:.3f}",
            timer.elapsed,
        )

    def check_cosim_consistency(self) -> CheckResult:
        """Co-simulation agrees at a clean point and warns about noise."""
        from repro.flow.cosim import CoSimConfig, CoSimulation

        with obs.timed("check:cosim_consistency") as timer:
            cosim = CoSimulation(
                self.frontend,
                CoSimConfig(
                    rate_mbps=24,
                    psdu_bytes=60,
                    input_level_dbm=-55.0,
                    analog_substeps=1,
                ),
            )
            system = cosim.run_system_only(2, seed=self.seed)
            co = cosim.run_cosim(2, seed=self.seed)
        ok = (
            system.ber == 0.0
            and co.ber == 0.0
            and bool(co.warnings)
            and co.wall_time_s > system.wall_time_s
        )
        return CheckResult(
            "co-simulation consistency",
            ok,
            f"system/cosim BER {system.ber:.3f}/{co.ber:.3f}, "
            f"slowdown {co.wall_time_s / max(system.wall_time_s, 1e-9):.0f}x",
            timer.elapsed,
        )

    def check_scenario_equivalence(self) -> CheckResult:
        """The ``adjacent-16db`` scenario reproduces the frozen measurement.

        :data:`repro.qa.vectors.GOLDEN_ADJACENT_16DB` was frozen from the
        paper's adjacent-channel path before it became a scenario preset.
        """
        from repro.qa import vectors

        case = vectors.ADJACENT_16DB_CASE
        with obs.timed("check:scenario_equivalence") as timer:
            measured = vectors.adjacent_16db_bench().measure_ber(
                n_packets=case["n_packets"], seed=case["seed"]
            )
        got = (measured.bit_errors, measured.bits_total)
        golden = vectors.GOLDEN_ADJACENT_16DB
        return CheckResult(
            "scenario library equivalence",
            got == golden,
            f"adjacent +16 dB: frozen {golden[0]:g}/{golden[1]:g} vs "
            f"scenario {got[0]:g}/{got[1]:g} bit errors",
            timer.elapsed,
        )

    #: Check registry in execution order.
    CHECKS = (
        "check_phy_loopback",
        "check_transmit_mask",
        "check_sensitivity",
        "check_adjacent_rejection",
        "check_filter_valley",
        "check_linearity_waterfall",
        "check_cosim_consistency",
        "check_scenario_equivalence",
    )

    def _checkpoint_store(self, store):
        """The store backing check checkpoints, or None when unavailable."""
        if store is not None:
            return store
        writer = obs.telemetry().writer
        return writer.store if writer is not None else None

    def run(
        self,
        only: Optional[List[str]] = None,
        progress: Optional[Callable] = None,
        store=None,
        run_name: str = "campaign",
        jobs: Optional[int] = None,
        resume: Optional[bool] = None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> CampaignReport:
        """Execute the campaign (or a named subset of checks).

        Checks are independent (each builds its own random streams from
        the campaign seed), so they parallelize without changing any
        verdict; the report lists them in registry order regardless of
        completion order.

        Args:
            only: short check names to run (e.g. ``["phy_loopback"]``).
            progress: same accepted shapes as
                :meth:`repro.core.sweep.ParameterSweep.run` — ``None``,
                a string callback, or a structured listener; one event
                is emitted per completed check.
            store: optional :class:`repro.obs.RunStore`; the sign-off
                report, per-check verdicts and durations are persisted
                there (or to the ambient CLI run when one is active).
            run_name: store name for the campaign run.
            jobs: worker processes for whole checks; None defers to the
                ambient ``--jobs`` default, 1 runs in-process.
            resume: checkpoint each completed check into the store
                under its content key (design, depth, seed, check,
                seeding scheme) and replay any check already
                checkpointed — so a campaign that crashed mid-run picks
                up where it died and signs off bit-identically to an
                uninterrupted run.  Pass it from the *start* of a long
                campaign; on a fresh store it simply checkpoints.  None
                defers to the ambient ``--resume`` default.
            retries: per-check retry budget on task failure; None
                defers to the ambient ``--retries`` default.
            task_timeout: per-check wall-clock budget in seconds; None
                defers to the ambient ``--task-timeout`` default.
        """
        emit = obs.as_listener(progress)
        if resume is None:
            resume = perf.run_options().resume
        ckpt_store = self._checkpoint_store(store) if resume else None
        selected = [
            name for name in self.CHECKS
            if only is None or name.removeprefix("check_") in only
        ]
        results: List[Optional[CheckResult]] = [None] * len(selected)
        pending = []  # (check index, method name, checkpoint key)
        done = 0

        def announce(i, result, cached=False):
            nonlocal done
            done += 1
            suffix = " (resumed)" if cached else ""
            emit(ProgressEvent(
                stage="campaign",
                current=done,
                total=len(selected),
                message=(
                    f"{result.name}: "
                    f"{'PASS' if result.passed else 'FAIL'} "
                    f"({result.duration_s:.1f}s) {result.detail}{suffix}"
                ),
                data={
                    "check": selected[i].removeprefix("check_"),
                    "passed": result.passed,
                    "duration_s": result.duration_s,
                    "resumed": cached,
                },
            ))

        with obs.span("campaign", depth=self.depth, checks=len(selected)):
            for i, method_name in enumerate(selected):
                key = None
                if ckpt_store is not None:
                    key = _check_memo_key(
                        self.frontend, self.depth, self.seed, method_name
                    )
                    cached = _load_memoized_check(ckpt_store, key)
                    if cached is not None:
                        results[i] = cached
                        announce(i, cached, cached=True)
                        continue
                pending.append((i, method_name, key))

            def consume(task_index, result):
                i, method_name, key = pending[task_index]
                results[i] = result
                if (
                    ckpt_store is not None
                    and key is not None
                    and not perf.in_worker()
                ):
                    _store_memoized_check(ckpt_store, key, result)
                announce(i, result)

            perf.parallel_map(
                _campaign_check_task,
                [
                    (self.frontend, self.depth, self.seed, method_name)
                    for _, method_name, _ in pending
                ],
                jobs=jobs,
                stage="campaign",
                on_result=consume,
                retries=retries,
                task_timeout=task_timeout,
            )
        report = CampaignReport(
            results=[r for r in results if r is not None]
        )
        kpis = {"passed": 1.0 if report.passed else 0.0}
        for method_name, result in zip(selected, report.results):
            short = method_name.removeprefix("check_")
            kpis[f"check.{short}.passed"] = 1.0 if result.passed else 0.0
            kpis[f"check.{short}.duration_s"] = result.duration_s
        obs.contribute(
            store,
            kind="campaign",
            name=run_name,
            seed=self.seed,
            config={"depth": self.depth, "frontend": self.frontend,
                    "checks": list(selected)},
            tables={run_name: report.as_table()},
            kpis=kpis,
        )
        return report
