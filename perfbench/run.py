"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig11-real --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import common
import simbench
import svcbench

WORKLOADS = ("fig11-real", "fig11-oracle", "svc-open")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}

#: Per-layer metrics and units.  A layer a workload never enters reports 0.
PER_LAYER = {
    "codec.self_s": "s",
    "codec.calls": "count",
    "codec.rows_per_call": "rows",
    "controller.self_s": "s",
    "controller.calls": "count",
    "workloads.blocks.self_s": "s",
    "workloads.blocks.calls": "count",
    "workloads.tracegen.self_s": "s",
    "workloads.tracegen.accesses": "count",
    "cache.llc.self_s": "s",
    "cache.llc.calls": "count",
    "cache.llc.hit_ratio": "fraction",
    "memory.dram.self_s": "s",
    "memory.dram.calls": "count",
    "memory.dram.requests_per_call": "requests",
    "memory.dram.row_hit_ratio": "fraction",
    "simulation.engine.self_s": "s",
    "simulation.ns_per_access": "ns",
    "simulation.oracle.self_s": "s",
    "simulation.oracle.classify_ratio": "fraction",
    "experiments.runner.self_s": "s",
    "service.protocol.decode_us": "us",
    "service.protocol.encode_us": "us",
    "service.submit_us": "us",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.shard.residence_p50_ms": "ms",
    "service.shard.residence_p99_ms": "ms",
    "service.exec_us": "us",
    "service.wal.commit_ms": "ms",
    "service.wal.records_per_commit": "records",
    "service.shard.batch_mean": "requests",
    "kernels.memo.hit_ratio": "fraction",
    "service.prewarm.codec_s": "s",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.backlog_end": "requests",
    "loadgen.light_p50_ms": "ms",
    "loadgen.busy_p50_ms": "ms",
    "loadgen.light_p99_ms": "ms",
    "loadgen.busy_p99_ms": "ms",
    "loadgen.max_rate_ops_s": "1/s",
    "sim.unattributed_share": "fraction",
    "service.unattributed_share": "fraction",
    "trace.overhead_ratio": "ratio",
}


def traced(workload: str, seed: int, seconds: float, run_dir) -> dict:
    spans = common.out_dir() / f"{workload}-seed{seed}-spans.npz"
    if workload == "svc-open":
        run = svcbench.run_traced(seed, seconds, run_dir, spans)
    else:
        run = simbench.run_traced(workload, seed, run_dir, spans)
    print(f"[{workload}] spans written to {spans}", flush=True)
    layers = run["layers"]
    metrics = {
        name: common.metric(layers.get(name, 0.0), unit)
        for name, unit in PER_LAYER.items()
    }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup below stops the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not common.program_present():
        print(
            "perfbench: no program here (expected src/repro under the current "
            "directory); run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.ROOT / "src"))
    common.scrub_environ()
    run_dir = common.make_run_dir(f"{args.workload}-seed{args.seed}")
    try:
        common.precompile(common.child_env(run_dir))
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, run_dir)
        elif args.workload == "svc-open":
            result = svcbench.run_untraced(args.seed, args.seconds, run_dir)
        else:
            result = simbench.run_untraced(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace and set(result["metrics"]) != set(END_TO_END):
        print("perfbench: run produced no metrics", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
