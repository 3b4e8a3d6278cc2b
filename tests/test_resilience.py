"""Tests for repro.perf resilience — the error paths of the flow.

The contracts under test: a task failure is captured structurally (not
propagated raw out of ``future.result()``), retries replay the same
seeds so a retried run is bit-identical to a clean one, a dying worker
degrades the region to in-process execution, and an interrupted
checkpointing sweep/campaign resumes into a run the regression gate
diffs clean against an uninterrupted one.
"""

import time

import numpy as np
import pytest

from repro import obs, perf
from repro.core.campaign import VerificationCampaign
from repro.core.sweep import (
    ParameterSweep,
    _load_memoized_point,
    _point_memo_key,
    _store_memoized_point,
)
from repro.core.testbench import TestbenchConfig
from repro.obs import RegressionConfig, RunStore, compare_runs
from repro.perf import (
    FaultSpec,
    InjectedFault,
    TaskError,
    TaskFailedError,
    TaskTimeoutError,
    parse_fault_spec,
)


def _faults(spec):
    """Install the parsed fault plan for a ``with`` block."""
    return perf.options_scope(fault_plan=parse_fault_spec(spec))


# -- picklable task functions (module level for the process pool) ------
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"boom {x}")
    return x * x


def _sleep_then_square(payload):
    x, delay = payload
    time.sleep(delay)
    return x * x


def _draw(seed):
    return float(perf.stream(seed).random())


def _fast_config(**overrides):
    base = dict(rate_mbps=6, psdu_bytes=20, snr_db=10.0)
    base.update(overrides)
    return TestbenchConfig(**base)


def _small_sweep(seed=7):
    return ParameterSweep(
        _fast_config(), "snr_db", [0.0, 2.0, 4.0, 6.0],
        n_packets=1, seed=seed,
    )


# -- structured failure capture ----------------------------------------
class TestTaskErrorCapture:
    def test_raise_mode_surfaces_task_failed_error(self):
        with pytest.raises(TaskFailedError) as excinfo:
            perf.parallel_map(_fail_on_three, range(5), jobs=1)
        error = excinfo.value.error
        assert error.index == 3
        assert error.exc_type == "ValueError"
        assert error.message == "boom 3"
        assert "ValueError: boom 3" in error.traceback
        assert error.worker_pid > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_capture_mode_returns_error_in_place(self, jobs):
        out = perf.parallel_map(
            _fail_on_three, range(5), jobs=jobs, on_error="capture"
        )
        assert [type(r).__name__ for r in out] == [
            "int", "int", "int", "TaskError", "int"
        ]
        assert len(out.failures) == 1
        assert out.failures[0].index == 3

    def test_exception_mid_window_drains_in_flight(self):
        # Task 3 of 8 fails with a 2-worker pool: later tasks are
        # already dispatched; the region must not leak their futures
        # and must still emit its metrics.
        registry = obs.MetricsRegistry()
        with obs.telemetry_scope(registry=registry):
            with pytest.raises(TaskFailedError):
                perf.parallel_map(
                    _fail_on_three, range(8), jobs=2, stage="mid"
                )
        assert registry.counter("parallel_task_failures").value(
            stage="mid"
        ) == 1.0
        assert registry.gauge("parallel_efficiency").value(
            stage="mid", jobs=2, requested=2
        ) > 0.0

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError):
            perf.parallel_map(_square, range(3), on_error="ignore")


# -- retries ------------------------------------------------------------
class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_then_succeed(self, jobs):
        with _faults("r/fail:1@0,r/fail:3@0"):
            out = perf.parallel_map(
                _square, range(5), jobs=jobs, stage="r", retries=1
            )
        assert list(out) == [0, 1, 4, 9, 16]
        assert out.retries == 2
        assert not out.failures

    def test_retries_exhausted_raises(self):
        with _faults("r/fail:2"):  # every attempt
            with pytest.raises(TaskFailedError) as excinfo:
                perf.parallel_map(
                    _square, range(4), jobs=1, stage="r", retries=2
                )
        assert excinfo.value.error.attempt == 2

    def test_retry_replays_same_payload_by_default(self):
        seeds = perf.spawn(123, 4)
        clean = perf.parallel_map(_draw, seeds, jobs=1, stage="d")
        with _faults("d/fail:2@0"):
            retried = perf.parallel_map(
                _draw, seeds, jobs=1, stage="d", retries=1
            )
        assert list(retried) == list(clean)

    def test_reseed_hook_gives_fresh_attempt_stream(self):
        seeds = perf.spawn(123, 3)
        clean = perf.parallel_map(_draw, seeds, jobs=1, stage="d")
        with _faults("d/fail:1@0"):
            reseeded = perf.parallel_map(
                _draw, seeds, jobs=1, stage="d", retries=1,
                reseed=perf.attempt_seed,
            )
        assert reseeded[0] == clean[0] and reseeded[2] == clean[2]
        assert reseeded[1] != clean[1]
        # ... and the attempt stream itself is reproducible.
        with _faults("d/fail:1@0"):
            again = perf.parallel_map(
                _draw, seeds, jobs=1, stage="d", retries=1,
                reseed=perf.attempt_seed,
            )
        assert list(again) == list(reseeded)

    def test_ambient_retries_default(self):
        with perf.options_scope(retries=1):
            with _faults("a/fail:0@0"):
                out = perf.parallel_map(
                    _square, range(2), jobs=1, stage="a"
                )
        assert list(out) == [0, 1]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            perf.parallel_map(_square, range(2), retries=-1)
        with pytest.raises(ValueError):
            perf.RunOptions(retries=-2)

    def test_retry_telemetry(self):
        registry = obs.MetricsRegistry()
        with obs.telemetry_scope(registry=registry):
            with _faults("t/fail:1@0"):
                perf.parallel_map(
                    _square, range(3), jobs=1, stage="t", retries=1
                )
        assert registry.counter("parallel_task_retries").value(
            stage="t"
        ) == 1.0
        assert registry.counter("parallel_task_errors").value(
            stage="t", exc_type="InjectedFault"
        ) == 1.0
        assert registry.counter("parallel_task_failures").value(
            stage="t"
        ) == 0.0


# -- attempt seeds ------------------------------------------------------
class TestAttemptSeeds:
    def test_attempt_zero_is_the_seed_itself(self):
        child = perf.spawn(9, 3)[1]
        assert perf.attempt_seed(child, 0) is child

    def test_attempts_are_distinct_and_reproducible(self):
        child = perf.spawn(9, 3)[1]
        draws = {
            perf.stream(perf.attempt_seed(child, k)).random()
            for k in range(4)
        }
        assert len(draws) == 4
        again = perf.stream(perf.attempt_seed(child, 2)).random()
        assert again == perf.stream(perf.attempt_seed(child, 2)).random()

    def test_attempt_stream_disjoint_from_spawn_children(self):
        # The retry branch must never collide with an in-band child.
        root = perf.as_seed_sequence(9)
        children = perf.spawn(root, 100)
        attempt = perf.attempt_seed(root, 1)
        assert all(
            attempt.spawn_key != c.spawn_key for c in children
        )

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            perf.attempt_seed(0, -1)

    def test_retry_scheme_recorded_in_manifest(self):
        manifest = obs.build_manifest(seed=1)
        assert manifest.as_dict()["retry_seeding"] == "retry-spawn-v1"
        assert perf.RETRY_SCHEME == "retry-spawn-v1"


# -- timeouts -----------------------------------------------------------
class TestTaskTimeout:
    def test_pooled_timeout_becomes_task_error(self):
        out = perf.parallel_map(
            _sleep_then_square, [(0, 0.0), (1, 5.0), (2, 0.0)],
            jobs=2, stage="to", task_timeout=0.25, on_error="capture",
        )
        errors = [r for r in out if isinstance(r, TaskError)]
        assert len(errors) == 1
        assert errors[0].index == 1
        assert errors[0].exc_type == "TaskTimeoutError"

    def test_serial_timeout_enforced(self):
        with pytest.raises(TaskFailedError) as excinfo:
            perf.parallel_map(
                _sleep_then_square, [(0, 0.0), (1, 5.0)],
                jobs=1, task_timeout=0.25,
            )
        assert excinfo.value.error.exc_type == "TaskTimeoutError"

    def test_guard_noop_without_budget(self):
        with perf.task_timeout_guard(None):
            pass
        with perf.task_timeout_guard(0):
            pass

    def test_guard_raises_and_restores(self):
        import signal

        with pytest.raises(TaskTimeoutError):
            with perf.task_timeout_guard(0.05):
                time.sleep(1.0)
        # The itimer must be disarmed after the guard exits.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            perf.parallel_map(_square, range(2), task_timeout=-1.0)


# -- broken pool fallback ----------------------------------------------
class TestBrokenPool:
    def test_sigkill_worker_degrades_to_serial(self):
        with _faults("bp/kill:2@0"):
            out = perf.parallel_map(
                _square, range(6), jobs=2, stage="bp", retries=1
            )
        assert list(out) == [0, 1, 4, 9, 16, 25]
        assert out.pool_broken

    def test_broken_pool_metric_emitted(self):
        registry = obs.MetricsRegistry()
        with obs.telemetry_scope(registry=registry):
            with _faults("bp/kill:0@0"):
                perf.parallel_map(
                    _square, range(4), jobs=2, stage="bp", retries=1
                )
        assert registry.counter("parallel_pool_broken").value(
            stage="bp"
        ) == 1.0

    def test_sweep_survives_killed_worker(self):
        sweep = _small_sweep()
        clean = sweep.run(jobs=1)
        with _faults("sweep/kill:1@0"):
            survived = sweep.run(jobs=2, retries=1)
        assert list(survived.bers) == list(clean.bers)


# -- early-stop drain accounting (satellite bugfix) --------------------
class TestEarlyStopDrain:
    def test_discarded_work_counted(self):
        registry = obs.MetricsRegistry()
        with obs.telemetry_scope(registry=registry):
            out = perf.parallel_map(
                _square, range(12), jobs=2, stage="es",
                stop=lambda i, r: i >= 1,
            )
        assert out.stopped
        assert len(out) == 2
        # In-flight tasks past the stop point were drained, not leaked;
        # whatever ran to completion is visible as discarded work.
        assert out.discarded == registry.counter(
            "parallel_tasks_discarded"
        ).value(stage="es")
        assert registry.counter("parallel_tasks").value(stage="es") == 2.0

    def test_serial_early_stop_discards_nothing(self):
        out = perf.parallel_map(
            _square, range(8), jobs=1, stage="es",
            stop=lambda i, r: i >= 2,
        )
        assert out.stopped and out.discarded == 0


# -- requested vs effective jobs (satellite bugfix) --------------------
class TestJobsReporting:
    def test_single_task_keeps_requested_jobs(self):
        out = perf.parallel_map(_square, [5], jobs=4)
        assert out.jobs == 1
        assert out.jobs_requested == 4

    def test_gauge_carries_both_labels(self):
        registry = obs.MetricsRegistry()
        with obs.telemetry_scope(registry=registry):
            perf.parallel_map(_square, [5], jobs=4, stage="one")
        assert registry.gauge("parallel_efficiency").value(
            stage="one", jobs=1, requested=4
        ) == 1.0

    def test_multi_task_requested_equals_effective(self):
        out = perf.parallel_map(_square, range(4), jobs=2)
        assert out.jobs == 2
        assert out.jobs_requested == 2


# -- fault injection ----------------------------------------------------
class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = parse_fault_spec(
            "sweep/fail:1@0,kill:2,ber/delay:0@1=0.25,sweep/abort:3"
        )
        assert [s.action for s in plan.specs] == [
            "fail", "kill", "delay", "abort"
        ]
        assert plan.specs[0].stage == "sweep"
        assert plan.specs[0].task == 1 and plan.specs[0].attempt == 0
        assert plan.specs[1].stage is None and plan.specs[1].attempt is None
        assert plan.specs[2].delay_s == 0.25
        assert plan.should_abort("sweep", 3) is not None
        assert plan.should_abort("ber", 3) is None

    def test_parse_wildcard_task(self):
        plan = parse_fault_spec("fail:*@1")
        assert plan.specs[0].task is None
        assert plan.specs[0].matches("any", 7, 1)
        assert not plan.specs[0].matches("any", 7, 0)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_fault_spec("sweep/explode:1")
        with pytest.raises(ValueError):
            parse_fault_spec("nonsense")

    def test_stage_scoping(self):
        plan = parse_fault_spec("sweep/fail:0")
        with perf.options_scope(fault_plan=plan):
            out = perf.parallel_map(_square, range(2), jobs=1, stage="ber")
        assert list(out) == [0, 1]  # wrong stage: fault never fires

    def test_kill_outside_worker_degrades_to_fail(self):
        # An in-process region must never SIGKILL the parent.
        with _faults("k/kill:0@0"):
            out = perf.parallel_map(
                _square, range(2), jobs=1, stage="k", retries=1
            )
        assert list(out) == [0, 1]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(action="explode")


# -- memo prefix-collision regression (satellite bugfix) ---------------
class TestMemoCollision:
    def test_prefix_collision_misses_instead_of_serving(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        config = _fast_config()
        child = perf.spawn(4, 2)[0]
        key = _point_memo_key(config, 3, child, 0, None)
        # A colliding key: same 12-hex prefix, different full key — as
        # produced by a different measurement setup in a large store.
        impostor = key[:12] + ("0" * (len(key) - 12))
        assert impostor != key
        from repro.core.metrics import BerMeasurement

        wrong = BerMeasurement(
            ber=0.5, per=1.0, bit_errors=80, bits_total=160,
            packets=1, packets_lost=1, ci95=(0.4, 0.6),
        )
        _store_memoized_point(store, impostor, config, wrong)
        # Before the fix this returned the impostor's measurement.
        assert _load_memoized_point(store, key) is None
        assert _load_memoized_point(store, impostor).ber == 0.5

    def test_sweep_reruns_collided_point(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        sweep = ParameterSweep(
            _fast_config(), "snr_db", [6.0], n_packets=1, seed=4,
        )
        clean = sweep.run(jobs=1)
        config = sweep._configured(6.0)
        key = _point_memo_key(config, 1, perf.spawn(4, 1)[0], 0, None)
        impostor = key[:12] + ("f" * (len(key) - 12))
        from repro.core.metrics import BerMeasurement

        wrong = BerMeasurement(
            ber=0.77, per=1.0, bit_errors=1, bits_total=2,
            packets=1, packets_lost=1, ci95=(0.0, 1.0),
        )
        _store_memoized_point(store, impostor, config, wrong)
        result = sweep.run(store=store, memoize=True)
        assert result.points[0].measurement.ber == clean.points[0].measurement.ber
        assert result.points[0].measurement.ber != 0.77


# -- checkpoint / resume ------------------------------------------------
class TestSweepResume:
    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        sweep = _small_sweep()
        clean = sweep.run(jobs=1)
        with pytest.raises(InjectedFault):
            with _faults("sweep/abort:2"):
                sweep.run(jobs=1, store=store, resume=True)
        # The completed prefix was checkpointed before the crash.
        assert len(store.list_runs(kind="point")) == 2
        resumed = sweep.run(jobs=1, store=store, resume=True)
        assert list(resumed.bers) == list(clean.bers)
        assert len(store.list_runs(kind="point")) == 4

    def test_resume_uses_cached_prefix(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        sweep = _small_sweep()
        with pytest.raises(InjectedFault):
            with _faults("sweep/abort:2"):
                sweep.run(jobs=1, store=store, resume=True)

        events = []

        class Recorder:
            def on_event(self, event):
                events.append(event)

        sweep.run(jobs=1, store=store, resume=True, progress=Recorder())
        cached = [e for e in events if e.data.get("memoized")]
        assert len(cached) == 2

    def test_resumed_run_diffs_clean_against_uninterrupted(self, tmp_path):
        # The acceptance oracle: `repro runs diff` on the stored runs.
        store = RunStore(tmp_path / "runs")
        sweep = _small_sweep()
        sweep.run(jobs=1, store=store)
        baseline_id = store.list_runs(kind="sweep")[0].run_id
        with pytest.raises(InjectedFault):
            with _faults("sweep/abort:2"):
                sweep.run(jobs=1, store=store, resume=True)
        sweep.run(jobs=1, store=store, resume=True)
        # Content addressing may collapse the two runs into one id —
        # itself proof of bit-identity; diff whatever was stored.
        resumed_id = store.list_runs(kind="sweep")[0].run_id
        verdict = compare_runs(
            store.load_run(baseline_id), store.load_run(resumed_id),
            RegressionConfig(compare_timing=False, compare_metrics=False),
        )
        assert verdict.passed, verdict.summary()

    def test_resume_without_store_runs_everything(self):
        sweep = _small_sweep()
        clean = sweep.run(jobs=1)
        resumed = sweep.run(jobs=1, resume=True)  # no store anywhere
        assert list(resumed.bers) == list(clean.bers)

    def test_ambient_resume_default(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        sweep = _small_sweep()
        with perf.options_scope(resume=True):
            sweep.run(jobs=1, store=store)
        assert len(store.list_runs(kind="point")) == 4


class TestCampaignResume:
    ONLY = ["phy_loopback", "transmit_mask"]

    def test_interrupt_then_resume_same_verdicts(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        campaign = VerificationCampaign(depth="quick", seed=3)
        clean = campaign.run(only=self.ONLY, jobs=1)
        with pytest.raises(InjectedFault):
            with _faults("campaign/abort:1"):
                campaign.run(
                    only=self.ONLY, jobs=1, store=store, resume=True
                )
        assert len(store.list_runs(kind="check")) == 1
        resumed = campaign.run(
            only=self.ONLY, jobs=1, store=store, resume=True
        )
        assert [r.passed for r in resumed.results] == [
            r.passed for r in clean.results
        ]
        assert [r.name for r in resumed.results] == [
            r.name for r in clean.results
        ]

    def test_checkpoint_respects_seed(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        VerificationCampaign(depth="quick", seed=3).run(
            only=["phy_loopback"], jobs=1, store=store, resume=True
        )
        assert len(store.list_runs(kind="check")) == 1
        VerificationCampaign(depth="quick", seed=4).run(
            only=["phy_loopback"], jobs=1, store=store, resume=True
        )
        # Different seed -> different checkpoint key -> fresh run.
        assert len(store.list_runs(kind="check")) == 2


# -- retried runs keep KPIs identical ----------------------------------
class TestRetriedSweepKpis:
    def test_faulted_sweep_matches_clean_kpis(self, tmp_path):
        # The acceptance scenario: 2 of the points fail once, one retry
        # allowed; the stored run's KPIs must match the clean baseline
        # exactly (zero deltas).
        store = RunStore(tmp_path / "runs")
        sweep = _small_sweep()
        sweep.run(jobs=1, store=store)
        clean_id = store.list_runs(kind="sweep")[0].run_id
        with _faults("sweep/fail:1@0,sweep/fail:3@0"):
            sweep.run(jobs=2, retries=1, store=store)
        faulted_id = store.list_runs(kind="sweep")[0].run_id
        clean = store.load_run(clean_id)
        faulted = store.load_run(faulted_id)
        assert clean.kpis == faulted.kpis
        verdict = compare_runs(
            clean, faulted,
            RegressionConfig(compare_timing=False, compare_metrics=False),
        )
        assert verdict.passed, verdict.summary()

    def test_measure_ber_retry_passthrough(self):
        from repro.core.testbench import WlanTestbench

        bench = WlanTestbench(_fast_config())
        clean = bench.measure_ber(n_packets=2, seed=11)
        with _faults("ber/fail:0@0"), perf.options_scope(retries=1):
            retried = bench.measure_ber(n_packets=2, seed=11)
        assert retried.ber == clean.ber
        assert retried.bit_errors == clean.bit_errors
