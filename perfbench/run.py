"""Benchmark of the WLAN verification chain, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dsp-waterfall --seed 0 \\
        --seconds 15 --trace 0

Runs one workload (see ``perfbench/workloads.py``) in a closed loop of
passes for ``--seconds`` seconds.  Every pass simulates the workload's
fixed packet budget from ``--seed`` and has its statistics checked:
against ``perfbench/pins.json`` when the seed is pinned there, otherwise
against the run's first pass, plus invariants that hold for any seed.
Before the timed loop, one more pass at the pinned seed
``seed % PINNED_SEEDS`` is checked against ``pins.json``, so every run
compares the program's output with known-good statistics.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``perfbench/layers.py``); both
kinds of pass must give identical statistics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the machine.  ``--setup-only`` prints just the set-up time of
this process and the reference-kernel time after it (the run itself
samples set-up in fresh processes too).
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes that time set-up, besides the measuring process.
SETUP_SAMPLES = 2

#: ``setup_s`` is reported in seconds of a host on which
#: :func:`_reference_s` takes this long (about its time on the 2-vCPU
#: host the bounds were set on), so that the shared host's drifting
#: speed divides out of it as it does out of ``pkt_per_ref``.
NOMINAL_REFERENCE_S = 0.1


def _cpu_s() -> float:
    """User + system time of this process and its joined children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest joined child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def _kernel_s() -> float:
    """Host time of one run of a fixed kernel that is not the program.

    Small FFTs, complex exponentials over a cache-exceeding array and
    a Python loop, in roughly equal parts, mirror the chain's mix of
    work.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    small = rng.standard_normal((4, 80, 64)) * (1 + 1j)
    large = rng.standard_normal(1 << 18)
    t0 = time.perf_counter()
    for _ in range(100):
        numpy.cumsum(numpy.abs(numpy.fft.fft(small, axis=-1)) ** 2, axis=1)
    for _ in range(2):
        numpy.exp(1j * large).sum()
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - t0


def _reference_s() -> float:
    """How fast the shared host runs at this moment.

    The fastest of three kernel timings: one alone varies by about 10 %,
    and a disturbed host only ever slows the kernel down.  Timed around
    every untraced pass and after set-up; ``pkt_per_ref`` and
    ``setup_s`` divide it out.
    """
    return min(_kernel_s() for _ in range(3))


def _timed_setup(workload_name, seed) -> tuple:
    """Set up this process; return ``(workload, setup_s, reference_s)``.

    ``setup_s`` runs from interpreter start-up (``SETUP_START``);
    ``reference_s``, timed right after it, is the host speed that
    set-up ran at.
    """
    import workloads

    workload = workloads.build(workload_name)
    workloads.setup(workload, seed)
    setup_s = time.perf_counter() - SETUP_START
    reference_s = _reference_s()
    return workload, setup_s, reference_s


def _scaled_setup_s(setup_s, reference_s) -> float:
    """``setup_s`` on a host where the reference takes the nominal time."""
    return setup_s * NOMINAL_REFERENCE_S / reference_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_stamp() -> dict:
    """Host and source identity, printed with every result."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_describe": _git_describe(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _setup_samples(args) -> list:
    """Scaled set-up time of fresh processes, each timing its own."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
            check=True,
        )
        setup_s, reference_s = out.stdout.strip().splitlines()[-1].split()
        samples.append(_scaled_setup_s(float(setup_s), float(reference_s)))
    return samples


class Verifier:
    """Counts checked operations: one per sweep point, one per probe export.

    A pass is compared with the reference given to :meth:`add`, else
    with the pinned statistics of the run's seed, or with the first pass
    of the run when that seed is not pinned.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result, reference=None) -> None:
        import workloads

        ops = self.workload.points + (self.workload.probes is not None)
        self.attempted += ops
        if isinstance(result, BaseException):
            self.failed += ops
            self.problems.append(f"raised {result!r}")
            return
        problems = workloads.check(self.workload, result)
        if problems:
            self.failed += ops
            self.problems.extend(problems)
            return
        got = json.loads(json.dumps(result.as_json()))
        if reference is None:
            if self.reference is None:
                self.reference = got
                return
            reference = self.reference
        for mine, theirs in zip(got["points"], reference["points"]):
            if mine != theirs:
                self.failed += 1
                self.problems.append(f"point {mine} != {theirs}")
        if got.get("probe_digest") != reference.get("probe_digest"):
            self.failed += 1
            self.problems.append(
                f"probe digest {got.get('probe_digest')} != "
                f"{reference.get('probe_digest')}"
            )


def _one_pass(workload, seed, traced):
    """Run one pass; return ``(wall_s, cpu_s, result, attribution)``.

    ``result`` is the pass's statistics, or the exception it raised;
    ``attribution`` is ``(per_op, covered_s, regions)`` of a traced pass
    and None otherwise.  Installing and removing the wrappers happens
    outside the timed region.
    """
    import layers
    import workloads

    tracing = layers.Tracing() if traced else contextlib.nullcontext()
    with tracing:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            result = workloads.run_pass(workload, seed)
        except Exception as exc:  # a failed operation, counted not raised
            result = exc
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    attribution = None
    if traced:
        attribution = (*tracing.attribute(), tracing.regions)
    return wall, cpu, result, attribution


def _median(values) -> float:
    return float(statistics.median(values))


def per_layer(traced, untraced_walls) -> dict:
    """Per-layer metrics from the traced passes, normalised per pass."""
    import layers

    metrics = {}
    walls = [wall for wall, _, _ in traced]
    for op in layers.OPS:
        rows = [a[0].get(op, {}) for _, _, a in traced]
        calls = [row.get("calls", 0) for row in rows]
        selfs = [row.get("self_s", 0.0) for row in rows]
        metrics[f"{op}.calls"] = (_median(calls), "count")
        metrics[f"{op}.self_s"] = (_median(selfs), "s")
        metrics[f"{op}.share"] = (
            _median([s / w for s, w in zip(selfs, walls)]), "frac"
        )
        work = layers.WORK.get(op)
        if work is not None:
            metrics[f"{op}.{work}"] = (
                _median([row.get(work, 0) for row in rows]), "count"
            )
    tasks, busy = [], []
    for _, _, (_, _, regions) in traced:
        tasks.append(sum(r[0] for r in regions))
        capacity = sum(r[1] * r[2] for r in regions)
        busy.append(sum(r[3] for r in regions) / capacity if capacity else 0)
    metrics["perf.tasks"] = (_median(tasks), "count")
    metrics["perf.worker_busy_frac"] = (_median(busy), "frac")
    metrics["obs.trace_overhead_frac"] = (
        _median(walls) / _median(untraced_walls) - 1.0, "frac"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workload, setup_s, setup_reference_s = _timed_setup(
        args.workload, args.seed
    )
    if args.setup_only:
        print(repr(setup_s), repr(setup_reference_s))
        return 0

    # pin.py pins seeds 0 .. PINNED_SEEDS-1, so their count is the modulus.
    pinned = json.loads((HERE / "pins.json").read_text())[workload.name]
    pin_seed = args.seed % len(pinned)
    verifier = Verifier(workload, pinned.get(str(args.seed)))
    verifier.add(
        _one_pass(workload, pin_seed, False)[2], pinned[str(pin_seed)]
    )
    # Untraced passes: (wall, cpu, reference time around the pass);
    # consecutive ones share the reference timed between them.
    untraced, traced = [], []
    reference = None
    deadline = time.perf_counter() + args.seconds
    while (
        not untraced
        or (args.trace and not traced)
        or time.perf_counter() < deadline
    ):
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        if trace_this:
            wall, cpu, result, attribution = _one_pass(
                workload, args.seed, True
            )
            traced.append((wall, cpu, attribution))
            reference = None
        else:
            before = reference if reference is not None else _reference_s()
            wall, cpu, result, _ = _one_pass(workload, args.seed, False)
            reference = _reference_s()
            untraced.append((wall, cpu, (before + reference) / 2))
        verifier.add(result)

    packets = workload.packets
    walls = [wall for wall, _, _ in untraced]
    if args.trace:
        metrics = per_layer(traced, walls)
    else:
        metrics = {
            "pkt_per_ref": (
                _median([packets * ref / w for w, _, ref in untraced]),
                "pkt/ref",
            ),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ok_frac": (
                1.0 - verifier.failed / max(verifier.attempted, 1), "frac"
            ),
        }
        metrics["setup_s"] = (
            _median(
                [_scaled_setup_s(setup_s, setup_reference_s)]
                + _setup_samples(args)
            ),
            "s",
        )

    for problem in verifier.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    # Host-second rates drift with the shared host's load, too much to
    # gate on; they are printed for context only.
    print(
        f"# {workload.name} seed={args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced passes of {packets} packets; untraced "
        f"{_median([packets / w for w in walls]):.2f} pkt/s, "
        f"{_median([packets / cpu for _, cpu, _ in untraced]):.2f} "
        f"pkt/cpu-s, pass wall min/median/max "
        f"{min(walls):.3f}/{_median(walls):.3f}/{max(walls):.3f} s"
    )
    print(json.dumps({"machine": machine_stamp()}))
    correct = verifier.failed == 0 and verifier.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
