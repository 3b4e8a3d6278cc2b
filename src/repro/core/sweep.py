"""Parameter sweeps (the SPW "simulation manager").

"The simulation manager allows to setup parameter sweeps.  So it was
possible to measure bit error rates versus critical parameters of the RF
front-end, e.g. IP3 value of the LNA."

A :class:`ParameterSweep` varies one named parameter over a grid and runs a
BER measurement per point; :class:`SimulationManager` batches sweeps and
renders result tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs, perf
from repro.core.metrics import BerMeasurement
from repro.core.reporting import render_table
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.obs.progress import ProgressEvent


def _sweep_point_task(payload):
    """Measure one sweep point (a :func:`repro.perf.parallel_map` task).

    The point's packets draw their streams from the point's own
    :class:`~numpy.random.SeedSequence` child, so the measurement
    depends only on the point's coordinates — not on scheduling.
    """
    config, value, n_packets, child, max_bit_errors, estimator, boost = (
        payload
    )
    bench = WlanTestbench(config)
    with obs.span("sweep:point", value=float(value)):
        return bench.measure_ber(
            n_packets=n_packets,
            seed=child,
            max_bit_errors=max_bit_errors,
            estimator=estimator,
            boost_db=boost,
        )


def _point_memo_key(config, n_packets, seed, index, max_bit_errors,
                    estimator: str = "mc",
                    boost_db: Optional[float] = None) -> str:
    """Content hash identifying one sweep point's full measurement setup.

    The seed enters through :func:`repro.perf.seed_fingerprint` (root
    entropy + spawn path), which identifies the point's exact packet
    streams; ``seed_entropy`` would collapse every spawned child to
    None and let sweeps with different base seeds share keys.

    Importance-sampled points key on their estimator and resolved
    proposal boost as well; plain Monte-Carlo points keep the legacy
    key payload, so caches written before the estimator existed stay
    valid.
    """
    payload = {
        "config": config,
        "n_packets": n_packets,
        "seed": perf.seed_fingerprint(seed),
        "index": index,
        "max_bit_errors": max_bit_errors,
        "seeding": obs.SEEDING_SCHEME,
    }
    if estimator != "mc":
        payload["estimator"] = estimator
        payload["boost_db"] = boost_db
    return obs.config_key(payload)


_MEMO_KPIS = (
    "ber", "per", "bit_errors", "bits_total", "packets", "packets_lost",
)

#: Extra KPI fields round-tripping a weighted (importance-sampled)
#: point measurement through the memo store.
_MEMO_WEIGHTED_KPIS = (
    "boost_db", "trials", "n_eff", "ess", "ess_fraction", "mean_weight",
    "max_weight_share", "stderr", "vr_estimate",
)


def _load_memoized_point(store, key: str) -> Optional[BerMeasurement]:
    """Reconstruct a stored point measurement, or None when absent."""
    entry = store.find_by_name("point", f"pt-{key[:12]}")
    if entry is None:
        return None
    try:
        record = store.load_run(entry.run_id)
    except (KeyError, OSError, ValueError):
        return None
    # The store name truncates the key to 12 hex chars; a prefix
    # collision must miss, not silently serve another point's
    # measurement, so verify the stored full key.
    stored = record.manifest.get("config")
    if not isinstance(stored, dict) or stored.get("memo_key") != key:
        return None
    kpis = record.kpis
    if any(name not in kpis for name in _MEMO_KPIS):
        return None
    ber = kpis["ber"]
    bits_total = int(kpis["bits_total"])
    if kpis.get("estimator_is"):
        from repro.perf.rare import WeightedBerMeasurement
        from repro.core.metrics import weighted_binomial_confidence

        if any(name not in kpis for name in _MEMO_WEIGHTED_KPIS):
            return None
        n_eff = kpis["n_eff"]
        return WeightedBerMeasurement(
            ber=ber,
            per=kpis["per"],
            bit_errors=kpis["bit_errors"],
            bits_total=bits_total,
            packets=int(kpis["packets"]),
            packets_lost=int(kpis["packets_lost"]),
            ci95=weighted_binomial_confidence(ber * n_eff, n_eff, z=1.96),
            estimator="is",
            boost_db=kpis["boost_db"],
            trials=int(kpis["trials"]),
            n_eff=n_eff,
            ess=kpis["ess"],
            ess_fraction=kpis["ess_fraction"],
            mean_weight=kpis["mean_weight"],
            max_weight_share=kpis["max_weight_share"],
            stderr=kpis["stderr"],
            vr_estimate=kpis["vr_estimate"],
        )
    sigma = np.sqrt(max(ber * (1.0 - ber), 0.0) / max(bits_total, 1))
    return BerMeasurement(
        ber=ber,
        per=kpis["per"],
        bit_errors=kpis["bit_errors"],
        bits_total=bits_total,
        packets=int(kpis["packets"]),
        packets_lost=int(kpis["packets_lost"]),
        ci95=(max(ber - 1.96 * sigma, 0.0), min(ber + 1.96 * sigma, 1.0)),
    )


def _store_memoized_point(store, key: str, config,
                          measurement: BerMeasurement) -> None:
    """Persist one point measurement under its memoization key."""
    kpis = {
        "ber": measurement.ber,
        "per": measurement.per,
        "bit_errors": measurement.bit_errors,
        "bits_total": float(measurement.bits_total),
        "packets": float(measurement.packets),
        "packets_lost": float(measurement.packets_lost),
    }
    if getattr(measurement, "estimator", "mc") == "is":
        kpis["estimator_is"] = 1.0
        for name in _MEMO_WEIGHTED_KPIS:
            kpis[name] = float(getattr(measurement, name))
    obs.contribute(
        store,
        kind="point",
        name=f"pt-{key[:12]}",
        config={"memo_key": key, "config": config},
        kpis=kpis,
        ambient=False,
    )


@dataclass
class SweepPoint:
    """One sweep grid point and its measurement."""

    value: float
    measurement: BerMeasurement


@dataclass
class SweepResult:
    """Outcome of a full parameter sweep.

    Attributes:
        parameter: swept parameter name.
        points: per-value measurements in sweep order.
        memo_entries: fresh ``(key, config, measurement)`` point results
            a pool worker could not persist itself (its ambient writer
            is a fork-time copy); the parent replays them into the memo
            store, exactly as :meth:`ParameterSweep._persist` is
            replayed for the sweep-level artefacts.  Empty when the
            sweep ran in the parent process or memoization is off.
    """

    parameter: str
    points: List[SweepPoint]
    memo_entries: List[tuple] = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])

    @property
    def bers(self) -> np.ndarray:
        return np.array([p.measurement.ber for p in self.points])

    def _weighted(self) -> bool:
        """True when any point carries an importance-sampled estimate."""
        return any(
            getattr(p.measurement, "estimator", "mc") == "is"
            for p in self.points
        )

    def as_table(self) -> str:
        """Plain-text table of the sweep.

        Pure Monte-Carlo sweeps render the classic five columns;
        importance-sampled points add estimator and ESS% columns (only
        then, so existing golden tables stay byte-identical).
        """
        weighted = self._weighted()
        rows = []
        for p in self.points:
            row = [
                f"{p.value:.6g}",
                f"{p.measurement.ber:.4g}",
                f"{p.measurement.per:.3g}",
                str(p.measurement.packets),
                str(p.measurement.packets_lost),
            ]
            if weighted:
                if getattr(p.measurement, "estimator", "mc") == "is":
                    row.append("is")
                    row.append(f"{100.0 * p.measurement.ess_fraction:.0f}%")
                else:
                    row.append("mc")
                    row.append("-")
            rows.append(row)
        headers = [self.parameter, "BER", "PER", "packets", "lost"]
        if weighted:
            headers += ["est", "ESS%"]
        return render_table(headers, rows)

    def as_curve(self) -> Dict:
        """The sweep as a run-store BER curve (x grid + BER/PER arrays)."""
        return {
            "x_label": self.parameter,
            "x": [p.value for p in self.points],
            "ber": [p.measurement.ber for p in self.points],
            "per": [p.measurement.per for p in self.points],
            "packets": [p.measurement.packets for p in self.points],
        }

    def as_kpis(self) -> Dict[str, float]:
        """Flat key results: per-point BER plus the curve extremes.

        Importance-sampled points also persist their estimator kind,
        ESS, weight diagnostics and measured variance-reduction factor,
        so ``repro runs diff`` gates the weighted-estimator state along
        with the curve itself.
        """
        kpis = {
            f"ber[{self.parameter}={p.value:.6g}]": p.measurement.ber
            for p in self.points
        }
        for p in self.points:
            if getattr(p.measurement, "estimator", "mc") != "is":
                continue
            tag = f"[{self.parameter}={p.value:.6g}]"
            kpis[f"estimator_is{tag}"] = 1.0
            kpis[f"ess{tag}"] = p.measurement.ess
            kpis[f"mean_weight{tag}"] = p.measurement.mean_weight
            kpis[f"max_weight_share{tag}"] = p.measurement.max_weight_share
            kpis[f"vr_estimate{tag}"] = p.measurement.vr_estimate
        if self.points:
            bers = [p.measurement.ber for p in self.points]
            kpis["ber_min"] = min(bers)
            kpis["ber_max"] = max(bers)
        return kpis


@dataclass
class ParameterSweep:
    """Sweep one parameter of a test-bench configuration.

    The parameter is addressed by name on :class:`TestbenchConfig` or, with
    a ``frontend.`` prefix, on the nested RF front-end configuration —
    mirroring how the simulation manager addresses block parameters in the
    schematic.

    Attributes:
        base_config: the test bench to vary.
        parameter: e.g. ``"snr_db"`` or ``"frontend.lna_p1db_dbm"``.
        values: the sweep grid.
        n_packets: packets per point.
        seed: base seed (each point derives its own stream).
        estimator: per-point BER estimator — ``"mc"`` (classic
            Monte-Carlo), ``"is"`` (importance sampling on the AWGN
            noise at every point), or ``"auto"`` (per point: switch to
            importance sampling when the point's analytic uncoded BER
            falls below ``is_threshold``, stay Monte-Carlo otherwise —
            deep points get variance reduction, easy points keep the
            classic path and its memo keys).
        boost_db: explicit proposal noise boost in dB for IS points;
            None resolves :func:`repro.perf.rare.auto_boost_db` per
            point configuration.
        is_threshold: analytic-BER threshold of the ``"auto"`` switch.
    """

    base_config: TestbenchConfig
    parameter: str
    values: Sequence[float]
    n_packets: int = 20
    seed: int = 0
    max_bit_errors: Optional[float] = None
    estimator: str = "mc"
    boost_db: Optional[float] = None
    is_threshold: float = 1e-4

    def _configured(self, value) -> TestbenchConfig:
        cfg = self.base_config
        if self.parameter.startswith("frontend."):
            if cfg.frontend is None:
                raise ValueError(
                    "sweep addresses the RF front end but the test bench "
                    "has none"
                )
            name = self.parameter.split(".", 1)[1]
            if not hasattr(cfg.frontend, name):
                raise AttributeError(
                    f"front end has no parameter {name!r}"
                )
            return replace(cfg, frontend=replace(cfg.frontend, **{name: value}))
        if not hasattr(cfg, self.parameter):
            raise AttributeError(
                f"test bench has no parameter {self.parameter!r}"
            )
        return replace(cfg, **{self.parameter: value})

    def _point_estimator(self, config: TestbenchConfig):
        """Resolve one point's ``(estimator, boost_db)`` plan.

        Deterministic in the point's configuration alone, so the plan —
        and with it the memo key and the measurement — is stable across
        runs, schedules and job counts.
        """
        from repro.perf import rare as _rare

        if self.estimator not in ("mc", "is", "auto"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        estimator = self.estimator
        if estimator == "auto":
            estimator = "mc"
            # Fading or non-AWGN emitters invalidate the IS weights;
            # auto points stay Monte-Carlo there instead of erroring.
            if (
                config.snr_db is not None
                and _rare.is_incompatibility(config) is None
            ):
                from repro.channel.awgn import snr_to_ebn0_db
                from repro.dsp.params import RATES
                from repro.qa.oracles import RATE_MODULATIONS, theoretical_ber

                modulation = RATE_MODULATIONS.get(config.rate_mbps)
                if modulation is not None:
                    ebn0 = snr_to_ebn0_db(
                        config.snr_db, RATES[config.rate_mbps]
                    )
                    if theoretical_ber(modulation, ebn0) < self.is_threshold:
                        estimator = "is"
        if estimator != "is":
            return "mc", None
        boost = self.boost_db
        if boost is None:
            boost = _rare.auto_boost_db(config)
        return "is", float(boost)

    def _memo_store(self, store, memoize: Optional[bool],
                    resume: bool = False):
        """The store backing point memoization, or None when disabled.

        Resume *is* memoization with the dial forced on: completed
        points already persist incrementally under their content keys,
        so resuming an interrupted sweep just means consulting that
        cache again — the surviving prefix loads, the tail runs live.
        """
        if memoize is None:
            memoize = perf.run_options().memoize
        if resume:
            memoize = True
        if not memoize:
            return None
        if store is not None:
            return store
        writer = obs.telemetry().writer
        return writer.store if writer is not None else None

    def run(
        self,
        progress: Optional[Callable] = None,
        store=None,
        run_name: Optional[str] = None,
        jobs: Optional[int] = None,
        memoize: Optional[bool] = None,
        resume: Optional[bool] = None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> SweepResult:
        """Execute the sweep and return per-point measurements.

        Point ``i`` draws its packet streams from child ``i`` of the
        sweep seed's spawn tree, so each point's measurement depends
        only on its coordinates; running with ``jobs>1`` is
        bit-identical to serial.

        Args:
            progress: ``None``, a legacy string callback (e.g.
                :func:`print`), or a structured
                :class:`repro.obs.ProgressListener`; every point is also
                mirrored to the active tracer as a progress event.
            store: optional :class:`repro.obs.RunStore`; when given, the
                sweep persists its own run directory (table, BER curve,
                per-point KPIs).  Without one, the same artefacts attach
                to the ambient run writer if the CLI installed one.
            run_name: store name for the sweep (defaults to the
                parameter name).
            jobs: worker processes for sweep points; None defers to the
                ambient ``--jobs`` default, 1 runs in-process.
            memoize: reuse stored point results whose full measurement
                setup (config, packets, seed, seeding scheme) hashes to
                a run already in the store, and persist fresh points for
                the next run; None defers to the ambient ``--memoize``
                default.  Needs a store (explicit or ambient).
            resume: pick up an interrupted sweep — completed points are
                checkpointed incrementally under their content keys, so
                a resumed run loads the surviving prefix from the store
                and simulates only the missing tail, bit-identical to
                an uninterrupted run (``repro runs diff`` is the CI
                oracle for this).  Forces memoization on; None defers
                to the ambient ``--resume`` default.
            retries: per-point retry budget on task failure (same
                payload each attempt, so a retried sweep matches a
                clean one exactly); None defers to ``--retries``.
            task_timeout: per-point wall-clock budget in seconds; None
                defers to ``--task-timeout``.
        """
        emit = obs.as_listener(progress)
        if resume is None:
            resume = perf.run_options().resume
        memo_store = self._memo_store(store, memoize, resume=resume)
        children = perf.spawn(self.seed, len(self.values))
        measurements: List[Optional[BerMeasurement]] = (
            [None] * len(self.values)
        )
        pending = []  # (point index, value, config, memo key, plan)
        deferred = []  # fresh (key, config, measurement) to store later
        done = 0

        def announce(i, value, measurement, cached=False):
            nonlocal done
            done += 1
            suffix = " (memoized)" if cached else ""
            data = {
                "parameter": self.parameter,
                "value": float(value),
                "ber": measurement.ber,
                "per": measurement.per,
                "packets": measurement.packets,
                # Raw counts feed the live monitor's Wilson-CI
                # convergence classification per sweep point.
                "bit_errors": measurement.bit_errors,
                "bits_total": measurement.bits_total,
                "memoized": cached,
            }
            if getattr(measurement, "estimator", "mc") == "is":
                # Effective counts replace the raw ones, so the live
                # monitor's Wilson classification becomes the weighted
                # CI; raw counts ride alongside.
                data.update(
                    bit_errors=measurement.k_eff,
                    bits_total=measurement.n_eff,
                    raw_bit_errors=measurement.bit_errors,
                    raw_bits_total=measurement.bits_total,
                    estimator="is",
                    ess=measurement.ess,
                )
            emit(ProgressEvent(
                stage="sweep",
                current=done,
                total=len(self.values),
                message=(
                    f"{self.parameter}={value:.6g}: "
                    f"BER={measurement.ber:.4g}{suffix}"
                ),
                data=data,
            ))

        with obs.span(
            "sweep", parameter=self.parameter, n_points=len(self.values)
        ):
            for i, value in enumerate(self.values):
                config = self._configured(value)
                plan = self._point_estimator(config)
                key = None
                if memo_store is not None:
                    key = _point_memo_key(
                        config, self.n_packets, children[i], i,
                        self.max_bit_errors,
                        estimator=plan[0], boost_db=plan[1],
                    )
                    cached = _load_memoized_point(memo_store, key)
                    if cached is not None:
                        measurements[i] = cached
                        announce(i, value, cached, cached=True)
                        continue
                pending.append((i, value, config, key, plan))

            def consume(task_index, measurement):
                i, value, config, key, plan = pending[task_index]
                measurements[i] = measurement
                if memo_store is not None and key is not None:
                    if perf.in_worker():
                        # A worker must not write to the store; hand the
                        # entry to the parent on the result instead.
                        deferred.append((key, config, measurement))
                    else:
                        _store_memoized_point(
                            memo_store, key, config, measurement
                        )
                announce(i, value, measurement)

            perf.parallel_map(
                _sweep_point_task,
                [
                    (config, value, self.n_packets, children[i],
                     self.max_bit_errors, plan[0], plan[1])
                    for i, value, config, _, plan in pending
                ],
                jobs=jobs,
                stage="sweep",
                on_result=consume,
                retries=retries,
                task_timeout=task_timeout,
            )
        result = SweepResult(
            self.parameter,
            [
                SweepPoint(float(value), measurements[i])
                for i, value in enumerate(self.values)
            ],
            memo_entries=deferred,
        )
        if not perf.in_worker():
            self._persist(result, store, run_name)
        return result

    def run_adaptive(
        self,
        total_packets: int,
        initial_packets: Optional[int] = None,
        block: Optional[int] = None,
        jobs: Optional[int] = None,
        progress: Optional[Callable] = None,
        store=None,
        run_name: Optional[str] = None,
        z: float = 1.96,
        batch_size: Optional[int] = None,
    ) -> SweepResult:
        """Run with a shared packet budget allocated where the CI is widest.

        Delegates to :func:`repro.perf.rare.run_adaptive_sweep`: after a
        uniform warm-up, each round's packets go to the point whose
        relative confidence width (Wilson for MC points, the weighted
        interval for IS points) is currently largest.
        """
        from repro.perf import rare as _rare

        return _rare.run_adaptive_sweep(
            self,
            total_packets,
            initial_packets=initial_packets,
            block=block,
            jobs=jobs,
            progress=progress,
            store=store,
            run_name=run_name,
            z=z,
            batch_size=batch_size,
        )

    def _persist(self, result: SweepResult, store, run_name: Optional[str]):
        """Contribute the sweep's artefacts to the store in scope.

        Split out from :meth:`run` so a parent process can persist a
        result computed in a pool worker (whose ambient writer is a
        fork-time copy the parent never sees).
        """
        name = run_name or self.parameter
        config = {
            "parameter": self.parameter,
            "values": [float(v) for v in self.values],
            "n_packets": self.n_packets,
            "base_config": self.base_config,
            "seeding": obs.SEEDING_SCHEME,
        }
        if self.estimator != "mc":
            # Only estimator-bearing sweeps carry the extra config keys,
            # so legacy Monte-Carlo manifests stay byte-stable.
            config["estimator"] = self.estimator
            config["boost_db"] = self.boost_db
            config["is_threshold"] = self.is_threshold
        return obs.contribute(
            store,
            kind="sweep",
            name=name,
            seed=perf.seed_entropy(self.seed),
            config=config,
            tables={name: result.as_table()},
            curves={name: result.as_curve()},
            kpis=result.as_kpis(),
        )


def _manager_sweep_task(payload):
    """Run one registered sweep (a :func:`repro.perf.parallel_map` task).

    Pool workers skip the sweep's own persistence (their ambient writer
    is a fork-time copy); the parent re-contributes the result.
    """
    sweep = payload
    return sweep.run()


class SimulationManager:
    """Batches named sweeps and collects their results.

    Example:
        >>> manager = SimulationManager()
        >>> manager.add("fig5", ParameterSweep(cfg, "frontend.lpf_edge_hz",
        ...                                    [5e6, 8e6, 12e6]))
        >>> results = manager.run_all()
    """

    def __init__(self):
        self._sweeps: Dict[str, ParameterSweep] = {}
        self.results: Dict[str, SweepResult] = {}

    def add(self, name: str, sweep: ParameterSweep):
        """Register a sweep under ``name``."""
        if name in self._sweeps:
            raise ValueError(f"duplicate sweep name {name!r}")
        self._sweeps[name] = sweep

    def run(self, name: str, progress=None) -> SweepResult:
        """Run one registered sweep."""
        result = self._sweeps[name].run(progress=progress)
        self.results[name] = result
        return result

    def run_all(self, progress=None, jobs=None) -> Dict[str, SweepResult]:
        """Run every registered sweep.

        Args:
            progress: progress callback/listener (parallel runs report
                one event per completed sweep instead of per point).
            jobs: worker processes for whole sweeps; None defers to the
                ambient ``--jobs`` default, 1 runs each sweep in-process
                exactly as before.
        """
        from repro import perf

        jobs = perf.jobs_for(jobs)
        names = list(self._sweeps)
        if jobs == 1 or len(names) <= 1:
            for name in names:
                self.run(name, progress=progress)
            return dict(self.results)

        emit = obs.as_listener(progress)

        def consume(i, result):
            name = names[i]
            sweep = self._sweeps[name]
            self.results[name] = result
            sweep._persist(result, None, None)
            if result.memo_entries:
                memo_store = sweep._memo_store(None, None)
                if memo_store is not None:
                    for key, config, measurement in result.memo_entries:
                        _store_memoized_point(
                            memo_store, key, config, measurement
                        )
            emit(ProgressEvent(
                stage="sweeps",
                current=i + 1,
                total=len(names),
                message=f"{name}: {len(result.points)} points",
                data={"sweep": name},
            ))

        perf.parallel_map(
            _manager_sweep_task,
            [self._sweeps[name] for name in names],
            jobs=jobs,
            stage="sweeps",
            on_result=consume,
        )
        return dict(self.results)

    def report(self) -> str:
        """Combined plain-text report of all completed sweeps."""
        sections = []
        for name, result in self.results.items():
            sections.append(f"== {name} ==\n{result.as_table()}")
        return "\n\n".join(sections)
