#!/usr/bin/env python
"""Measure batched PHY-engine throughput (packets/s per batch size).

Runs the single-core ``measure_ber`` workload at a fixed SNR for a few
representative rates, once with the classic per-packet path
(``batch_size=1``) and once per batched setting, and records packets/s
plus the speedup over serial.  Every batched run is checked KPI-identical
to the serial one — the batched engine is a pure throughput
optimization, so any KPI delta is a recording error.

Usage::

    PYTHONPATH=src python benchmarks/bench_phy_throughput.py \
        --out BENCH_phy.json --packets 64
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import perf  # noqa: E402
from repro.core.testbench import TestbenchConfig, WlanTestbench  # noqa: E402

#: Representative rates: BPSK 1/2, QPSK 1/2, 16-QAM 1/2, 64-QAM 3/4.
RATES_MBPS = (6, 12, 24, 54)
BATCH_SIZES = (1, 8, 32)
SNR_DB = 20.0
PSDU_BYTES = 100


def _kpis(m) -> tuple:
    return (m.ber, m.per, m.bit_errors, m.bits_total, m.packets,
            m.packets_lost)


def run_phy_throughput(
    rates=RATES_MBPS,
    batch_sizes=BATCH_SIZES,
    packets: int = 64,
    seed: int = 3,
    repeats: int = 3,
) -> dict:
    """Measure packets/s per (rate, batch size); return the doc section.

    The packet count is rounded up to a multiple of the largest batch so
    every batched run uses full batches (a ragged tail group would fall
    back to the scalar path and understate the speedup).  Each timing is
    the best of ``repeats`` runs — on shared/containerized runners the
    minimum is the standard noise-robust estimator.
    """
    largest = max(batch_sizes)
    n_packets = ((packets + largest - 1) // largest) * largest
    entries = []
    for rate in rates:
        bench = WlanTestbench(TestbenchConfig(
            rate_mbps=rate, snr_db=SNR_DB, psdu_bytes=PSDU_BYTES,
        ))
        serial_rate = None
        serial_kpis = None
        for batch in batch_sizes:
            with perf.options_scope(batch_size=batch):
                # warm-up: caches, allocator
                bench.measure_ber(n_packets=n_packets, seed=seed)
                wall_s = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    m = bench.measure_ber(n_packets=n_packets, seed=seed)
                    wall_s = min(wall_s, time.perf_counter() - t0)
            pkt_per_s = n_packets / wall_s
            if batch == 1:
                serial_rate = pkt_per_s
                serial_kpis = _kpis(m)
            identical = _kpis(m) == serial_kpis
            if not identical:
                raise AssertionError(
                    f"batch_size={batch} KPIs diverged from serial at "
                    f"{rate} Mbit/s — the batched engine must be "
                    "bit-identical"
                )
            speedup = pkt_per_s / serial_rate if serial_rate else 1.0
            entries.append({
                "rate_mbps": rate,
                "batch_size": batch,
                "wall_s": round(wall_s, 4),
                "packets_per_s": round(pkt_per_s, 1),
                "speedup_vs_serial": round(speedup, 2),
                "identical_to_serial": identical,
            })
            print(
                f"[phy] rate={rate} batch={batch}: "
                f"{pkt_per_s:.0f} pkt/s ({speedup:.2f}x)",
                flush=True,
            )
    return {
        "workload": {
            "n_packets": n_packets,
            "snr_db": SNR_DB,
            "psdu_bytes": PSDU_BYTES,
            "jobs": 1,
        },
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_phy.json", metavar="PATH",
                        help="output JSON path (default BENCH_phy.json)")
    parser.add_argument("--packets", type=int, default=64,
                        help="packets per measurement (default 64)")
    args = parser.parse_args(argv)

    doc = {
        "schema": "repro-bench-phy/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "phy_throughput": run_phy_throughput(packets=args.packets),
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
