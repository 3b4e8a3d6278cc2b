"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that tracing is invisible to the program (identical
statistics, every patched attribute restored by identity), that the
``bench:`` spans cover the traced wall time, and that the per-layer
attribution names the layer a profiler would name.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())
SEED = 0


def _targets():
    return [
        (target, *layers.resolve(target))
        for targets in layers.OPS.values()
        for target in targets
    ]


def test_tracing_restores_every_attribute_by_identity():
    before = {
        target: (attr in vars(owner), vars(owner).get(attr),
                 getattr(owner, attr))
        for target, owner, attr in _targets()
    }
    tracer = obs.get_tracer()
    with layers.Tracing() as tracing:
        assert obs.get_tracer() is tracing.tracer
        for target, owner, attr in _targets():
            assert getattr(owner, attr) is not before[target][2], target
    assert obs.get_tracer() is tracer
    for target, owner, attr in _targets():
        had_own, own, resolved = before[target]
        assert (attr in vars(owner)) == had_own, target
        assert vars(owner).get(attr) is own, target
        assert getattr(owner, attr) is resolved, target


def _span(tracer, name, start, duration, parent=None):
    record = obs.SpanRecord(name, tracer._next_id(), parent, 0.0, start,
                            duration)
    tracer._record(record)
    return record.span_id


def test_attribute_subtracts_nearest_bench_descendants():
    tracer = obs.Tracer()
    root = _span(tracer, "bench:core.sweep.run", 0.0, 10.0)
    # A span of the program itself is transparent to attribution.
    block = _span(tracer, "block:receiver", 1.0, 6.0, root)
    _span(tracer, "bench:dsp.viterbi.decode_soft", 1.0, 3.0, block)
    # Overlapping children (two pool workers) count once.
    _span(tracer, "bench:dsp.sync", 2.0, 3.0, block)
    _span(tracer, "bench:dsp.sync", 8.0, 1.0, root)
    per_op, covered = layers.attribute(tracer.records)
    assert covered == pytest.approx(10.0)
    assert per_op["core.sweep.run"]["self_s"] == pytest.approx(5.0)
    assert per_op["dsp.sync"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert per_op["dsp.viterbi.decode_soft"]["bits"] == 0


def _passes(name):
    workload = workloads.build(name)
    workloads.setup(workload, SEED)
    plain = workloads.run_pass(workload, SEED)
    with layers.Tracing() as tracing:
        t0 = time.perf_counter()
        traced = workloads.run_pass(workload, SEED)
        wall = time.perf_counter() - t0
    per_op, covered = tracing.attribute()
    return workload, plain, traced, per_op, covered / wall


@pytest.fixture(scope="module", params=workloads.NAMES)
def passes(request):
    return _passes(request.param)


def test_tracing_leaves_statistics_identical_and_pinned(passes):
    workload, plain, traced, _, _ = passes
    assert workloads.check(workload, plain) == []
    assert traced.as_json() == plain.as_json()
    pinned = PINS[workload.name][str(SEED)]
    assert json.loads(json.dumps(plain.as_json())) == pinned


#: Ops whose spans enclose other layers' spans: the sweep and test-bench
#: loop, the pool, the receivers, the scenario mixer and the front end.
#: Their self time is glue, so the layers inside them must account for
#: most of the attributed time.
ENCLOSING = (
    "core.", "perf.parallel_map", "dsp.receiver.", "scenario.apply",
    "rf.frontend.process",
)


def test_bench_spans_cover_the_traced_wall_time(passes):
    _, _, _, per_op, coverage = passes
    assert coverage >= 0.9
    total = sum(row["self_s"] for row in per_op.values())
    enclosing = sum(
        row["self_s"] for op, row in per_op.items()
        if op.startswith(ENCLOSING)
    )
    assert enclosing <= 0.2 * total, enclosing / total


#: The op a profiler names first on each workload.
TOP_OP = {
    "dsp-waterfall": lambda op: op == "dsp.viterbi.decode_soft",
    "fig6-frontend": lambda op: op.startswith(("scenario.", "rf.")),
    "hostile-coexistence": (
        lambda op: op == "channel.fading.realize_time_varying"
    ),
    "scalar-pool": lambda op: op == "dsp.viterbi.decode_soft",
}


def test_top_self_time_op_is_the_expected_layer(passes):
    workload, _, _, per_op, _ = passes
    top = max(per_op, key=lambda op: per_op[op]["self_s"])
    assert TOP_OP[workload.name](top), top


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "dsp-waterfall", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
