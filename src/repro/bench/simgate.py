"""Speedup gate over a ``BENCH_sim.json`` artifact.

``benchmarks/bench_sim.py`` records paired cases
``fig11_sweep_scalar_<bench>`` (the replay loop with real bytes) /
``fig11_sweep_batch_<bench>`` (the same loop with the classification
oracle).  This module turns each pair's median wall times into an
end-to-end speedup and fails if the median speedup across benchmarks
falls below a floor::

    python -m repro.bench.simgate results/BENCH_sim.json --min-speedup 5

Run by ``make bench-trajectory`` — the oracle content model's headline
claim (docs/kernels.md, "Epoch replay") is a regression-gated artifact,
not a one-off measurement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

__all__ = ["pair_speedups", "main"]

_SCALAR = "fig11_sweep_scalar_"
_BATCH = "fig11_sweep_batch_"


def pair_speedups(cases: Dict[str, dict]) -> Dict[str, float]:
    """``{benchmark: scalar_median / batch_median}`` for every full pair."""
    speedups: Dict[str, float] = {}
    for name, stats in cases.items():
        if not name.startswith(_SCALAR):
            continue
        bench = name[len(_SCALAR):]
        batch = cases.get(_BATCH + bench)
        if batch is None:
            continue
        scalar_ns = float(stats["ns"]["median"])
        batch_ns = float(batch["ns"]["median"])
        if batch_ns > 0:
            speedups[bench] = scalar_ns / batch_ns
    return speedups


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", type=Path, help="path to BENCH_sim.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail if the median oracle-vs-real-bytes speedup is below this",
    )
    args = parser.parse_args(argv)

    data = json.loads(args.artifact.read_text())
    speedups = pair_speedups(data.get("cases", {}))
    if not speedups:
        print("simgate: no scalar/batch case pairs in artifact", file=sys.stderr)
        return 2
    for bench in sorted(speedups):
        print(f"simgate: {bench}: {speedups[bench]:.2f}x")
    median = _median(list(speedups.values()))
    verdict = "ok" if median >= args.min_speedup else "FAIL"
    print(
        f"simgate: median {median:.2f}x over {len(speedups)} benchmarks "
        f"(floor {args.min_speedup:g}x) {verdict}"
    )
    return 0 if median >= args.min_speedup else 1


if __name__ == "__main__":
    sys.exit(main())
