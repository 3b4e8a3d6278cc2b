"""Regenerate ``perfbench/pins.json``, the pinned statistics of every pass.

Usage (from the repository root)::

    python3 perfbench/pin.py

For each workload and each seed ``0 .. PINNED_SEEDS-1`` one pass runs through
the workload's own PHY path and once more through the other one (batch 1
over two workers for a batched workload, batch 32 in one process for
``scalar-pool``).  The program promises the same statistics at every
batch size and job count, so the two must agree before they are pinned.
Run it only when a workload changes, or when a change to the program is
meant to change its output bits.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

#: Seeds pinned per workload; ``run.py`` checks seed ``n`` against the
#: pins of seed ``n % PINNED_SEEDS``.
PINNED_SEEDS = 16


def _other_path(workload):
    if workload.batch_size > 1:
        return dataclasses.replace(workload, batch_size=1, jobs=2)
    return dataclasses.replace(workload, batch_size=32, jobs=1)


def dump(pins) -> str:
    """``pins`` as JSON text with one seed's statistics per line."""
    blocks = []
    for name, seeds in pins.items():
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(entry)}"
            for seed, entry in seeds.items()
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    pins = {}
    for name in workloads.NAMES:
        workload = workloads.build(name)
        other = _other_path(workload)
        pins[name] = {}
        for seed in range(PINNED_SEEDS):
            workloads.setup(workload, seed)
            result = workloads.run_pass(workload, seed)
            problems = workloads.check(workload, result)
            workloads.setup(other, seed)
            if workloads.run_pass(other, seed).points != result.points:
                problems.append("batched and scalar paths disagree")
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = result.as_json()
            print(f"{name} seed {seed}: pinned", flush=True)
    (HERE / "pins.json").write_text(dump(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
