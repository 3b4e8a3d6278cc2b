"""The run context: one :class:`RunOptions` and one :class:`Telemetry`.

Contracts under test: the execution settings are one frozen, validated
value in one slot; the telemetry sinks are one bundle in one slot; every
task attempt, serial or pooled, runs under a scratch bundle merged in
task order only when it succeeded; pool workers receive the parent's
whole options whatever the start method; and the CLI leaves the calling
process's context exactly as it found it, whatever the exit.
"""

import ast
import dataclasses
import multiprocessing
from pathlib import Path

import pytest

from repro import obs, perf
from repro.cli import main
from repro.perf import pool

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# -- picklable task functions (module level for the process pool) ------
def _count_and_fail(task):
    """Record a counter tick and a span, then raise on ``"bad"``."""
    obs.telemetry().registry.counter("attempts_seen").inc()
    with obs.span("work:attempt", task=task):
        pass
    if task == "bad":
        raise RuntimeError("bad task")
    return task


def _to_ok(task, attempt):
    return "ok"


def _jobs_in_task(jobs):
    return perf.jobs_for(jobs)


def _context_in_task(_):
    with obs.span("work:context"):
        return perf.run_options(), perf.in_worker()


# -- RunOptions ---------------------------------------------------------
class TestRunOptions:
    def test_exactly_the_seven_settings(self):
        names = [f.name for f in dataclasses.fields(perf.RunOptions)]
        assert names == [
            "jobs", "batch_size", "memoize", "retries", "task_timeout",
            "resume", "fault_plan",
        ]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            perf.RunOptions().retries = 3

    @pytest.mark.parametrize("bad", [
        {"jobs": -2},
        {"batch_size": 0},
        {"retries": -1},
        {"task_timeout": 0},
        {"task_timeout": -1.5},
        {"task_timeout": float("nan")},
    ])
    def test_bad_setting_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            perf.RunOptions(**bad)

    def test_fault_plan_type_checked(self):
        with pytest.raises(TypeError):
            perf.RunOptions(fault_plan="sweep/fail:1")

    def test_overlay_keeps_none_and_validates_the_rest(self):
        base = perf.RunOptions(jobs=3, retries=2)
        assert base.overlay(jobs=None, retries=None) is base
        assert base.overlay(retries=5) == perf.RunOptions(jobs=3, retries=5)
        with pytest.raises(ValueError):
            base.overlay(batch_size=0)

    def test_scope_installs_and_restores(self):
        before = perf.run_options()
        with perf.options_scope(retries=4, resume=True) as installed:
            assert perf.run_options() is installed
            assert installed.retries == 4 and installed.resume
            assert installed.jobs == before.jobs
        assert perf.run_options() is before

    def test_scope_validates_before_installing(self):
        before = perf.run_options()
        with pytest.raises(ValueError):
            with perf.options_scope(retries=-1):
                pass  # pragma: no cover - never entered
        assert perf.run_options() is before

    def test_kept_setters_write_the_slot(self):
        before = perf.run_options()
        try:
            assert perf.set_default_jobs(3) == before.jobs
            assert perf.set_default_batch_size(5) == before.batch_size
            assert perf.run_options() == dataclasses.replace(
                before, jobs=3, batch_size=5
            )
            with pytest.raises(ValueError):
                perf.set_default_batch_size(0)
        finally:
            perf.set_default_jobs(before.jobs)
            perf.set_default_batch_size(before.batch_size)
        assert perf.run_options() == before


    def test_jobs_for_resolves_from_the_slot(self):
        with perf.options_scope(jobs=3):
            assert perf.jobs_for() == 3
            assert perf.jobs_for(2) == 2
        with pytest.raises(ValueError):
            perf.jobs_for(-2)

    def test_jobs_for_is_one_in_a_worker(self):
        out = perf.parallel_map(_jobs_in_task, [None, 4], jobs=2)
        assert out.jobs == 2
        assert list(out) == [1, 1]


# -- Telemetry ----------------------------------------------------------
class TestTelemetry:
    def test_spawn_keeps_the_shape_and_the_writer_only(self, tmp_path):
        writer = obs.RunStore(tmp_path).create("demo", name="demo")
        bundle = obs.Telemetry(
            tracer=obs.Tracer(),
            probes=obs.ProbeRegistry(obs.probe_preset("basic")),
            monitor=obs.LiveMonitor(),
            writer=writer,
        )
        scratch = bundle.spawn()
        assert scratch.tracer.enabled and scratch.tracer is not bundle.tracer
        assert scratch.registry is not bundle.registry
        assert scratch.probes.config == bundle.probes.config
        assert scratch.probes is not bundle.probes
        assert scratch.monitor is None
        assert scratch.writer is writer
        assert not obs.Telemetry().spawn().tracer.enabled

    def test_snapshot_merge_round_trip(self):
        parent = obs.Telemetry(tracer=obs.Tracer())
        scratch = parent.spawn()
        with obs.telemetry_scope(scratch):
            obs.telemetry().registry.counter("n").inc(2)
            with obs.span("inner"):
                pass
        with parent.tracer.span("outer") as outer:
            parent.merge(scratch.snapshot())
        assert parent.registry.counter("n").value() == 2.0
        (inner,) = parent.tracer.spans("inner")
        assert inner.parent_id == outer.span_id

    def test_merge_goes_through_the_sink_merges(self, monkeypatch):
        calls = []
        for cls, name in ((obs.MetricsRegistry, "merge"),
                          (obs.ProbeRegistry, "merge"),
                          (obs.Tracer, "absorb")):
            original = getattr(cls, name)

            def wrapper(self, *args, _orig=original, _cls=cls, **kwargs):
                calls.append(_cls.__name__)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
        parent = obs.Telemetry(
            tracer=obs.Tracer(),
            probes=obs.ProbeRegistry(obs.probe_preset("basic")),
        )
        scratch = parent.spawn()
        with scratch.tracer.span("x"):
            pass
        parent.merge(scratch.snapshot())
        assert calls == ["MetricsRegistry", "ProbeRegistry", "Tracer"]

    def test_scope_installs_and_restores(self):
        before = obs.telemetry()
        tracer = obs.Tracer()
        with obs.telemetry_scope(tracer=tracer) as bundle:
            assert obs.telemetry() is bundle
            assert obs.get_tracer() is tracer
            assert bundle.registry is before.registry
        assert obs.telemetry() is before

    def test_kept_names_read_and_write_the_slot(self):
        before = obs.telemetry()
        tracer = obs.Tracer()
        probes = obs.ProbeRegistry(obs.probe_preset("basic"))
        try:
            assert obs.set_tracer(tracer) is before.tracer
            assert obs.set_probes(probes) is before.probes
            assert obs.telemetry().tracer is tracer
            assert obs.telemetry().probes is probes
            with obs.span("via-shorthand"):
                pass
            assert [s.name for s in tracer.spans()] == ["via-shorthand"]
            obs.set_tracer(None)
            assert not obs.get_tracer().enabled
        finally:
            obs.set_tracer(before.tracer)
            obs.set_probes(before.probes)
        assert obs.get_tracer() is before.tracer
        assert obs.telemetry().registry is before.registry

    def test_none_sinks_are_the_quiet_defaults(self):
        bundle = obs.Telemetry(tracer=None, registry=None, probes=None)
        assert isinstance(bundle.tracer, obs.NullTracer)
        assert isinstance(bundle.registry, obs.MetricsRegistry)
        assert not bundle.probes.enabled


# -- one attempt contract -----------------------------------------------
class TestAttemptContract:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_attempt_telemetry_is_discarded(self, jobs):
        # Task 0 fails on attempt 0 and succeeds reseeded on attempt 1;
        # task 1 succeeds at once.  Only the two successful attempts may
        # show up, serial or pooled.
        bundle = obs.Telemetry(tracer=obs.Tracer())
        with obs.telemetry_scope(bundle):
            out = perf.parallel_map(
                _count_and_fail, ["bad", "ok"], jobs=jobs, stage="ac",
                retries=1, reseed=_to_ok,
            )
        assert list(out) == ["ok", "ok"]
        assert out.retries == 1
        assert bundle.registry.counter("attempts_seen").value() == 2.0
        assert len(bundle.tracer.spans("work:attempt")) == 2
        assert bundle.registry.counter("parallel_task_errors").value(
            stage="ac", exc_type="RuntimeError"
        ) == 1.0

    def test_in_process_spans_nest_under_the_caller(self):
        tracer = obs.Tracer()
        with obs.telemetry_scope(tracer=tracer):
            with obs.span("caller") as caller:
                perf.parallel_map(_count_and_fail, ["a", "b"], jobs=1)
        spans = tracer.spans("work:attempt")
        assert [s.attributes["task"] for s in spans] == ["a", "b"]
        assert all(s.parent_id == caller.span_id for s in spans)

    def test_task_never_sees_the_parent_monitor(self):
        monitor = obs.LiveMonitor()
        seen = []
        with obs.telemetry_scope(monitor=monitor):
            perf.parallel_map(
                lambda _: seen.append(obs.telemetry().monitor), [0], jobs=1
            )
            assert obs.telemetry().monitor is monitor
        assert seen == [None]


# -- workers receive the whole RunOptions ------------------------------
class TestWorkerOptions:
    OPTIONS = dict(
        jobs=2, batch_size=3, memoize=True, retries=2, task_timeout=30.0,
        resume=True,
        fault_plan=perf.FaultPlan([perf.FaultSpec("delay", task=99)]),
    )

    @pytest.mark.parametrize("method", ["default", "spawn"])
    def test_worker_sees_the_parent_options(self, method, monkeypatch):
        if method == "spawn":
            monkeypatch.setattr(
                pool, "_pool_context",
                lambda: multiprocessing.get_context("spawn"),
            )
        tracer = obs.Tracer()
        with perf.options_scope(**self.OPTIONS) as parent, \
                obs.telemetry_scope(tracer=tracer):
            out = perf.parallel_map(_context_in_task, [0, 1])
        assert out.jobs == 2
        assert list(out) == [(parent, True), (parent, True)]
        # The telemetry shape rides along too: worker spans come back.
        assert len(tracer.spans("work:context")) == 2


# -- the CLI leaves the caller's context as it found it ----------------
class TestCliContext:
    def _exit(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("case", ["clean", "abort", "failed", "usage"])
    def test_context_identical_after_main(self, case, tmp_path, capsys):
        argv, expected = {
            "clean": (["--probes", "basic", "--batch-size", "4",
                       "--retries", "1",
                       "--trace", str(tmp_path / "t.jsonl"),
                       "quickstart", "--rate", "24", "--bytes", "60",
                       "--level", "-55"], 0),
            "abort": (["--probes", "basic", "--batch-size", "4",
                       "--inject-faults", "sweep/abort:0",
                       "fig5", "--packets", "1"], 70),
            "failed": (["--probes", "basic", "--jobs", "1",
                        "--inject-faults", "sweep/fail:0",
                        "fig5", "--packets", "1"], 71),
            "usage": (["--probes", "basic", "--jobs", "3",
                       "--batch-size", "4", "--retries", "-1",
                       "fig5"], 2),
        }[case]
        options, bundle = perf.run_options(), obs.telemetry()
        code, _ = self._exit(argv, capsys)
        assert code == expected
        assert perf.run_options() is options
        assert obs.telemetry() is bundle

    @pytest.mark.parametrize("flags", [
        ["--retries", "-1"],
        ["--task-timeout", "0"],
        ["--batch-size", "0"],
        ["--jobs", "-2"],
        ["--inject-faults", "sweep/fail"],
    ])
    def test_bad_flag_is_a_one_line_usage_error(self, flags, capsys):
        code, err = self._exit(flags + ["fig5", "--packets", "1"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("repro: error: ")


# -- module-level state -------------------------------------------------
def test_three_ambient_slots_in_obs_and_perf():
    globals_seen = []
    for package in ("obs", "perf"):
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    globals_seen.extend(
                        f"{package}/{path.name}:{name}"
                        for name in node.names
                    )
    assert sorted(globals_seen) == [
        "obs/bundle.py:_telemetry",
        "perf/options.py:_options",
        "perf/pool.py:_in_worker",
    ]
