"""One Fig. 11 sweep in a fresh process (started by ``simbench``).

Usage: ``sim_child.py ENGINE SEED SPAWN_NS OUT_JSON [SPANS_NPZ]``.

Builds the 20 memory-intensive benchmarks x 4 protection modes matrix at
smoke scale, 4 cores, and runs it through the public ``run_jobs`` with
one worker and the result cache off.  ``ENGINE`` is ``real`` (content
engine, the default ``cop-experiments fig11`` path) or ``oracle``
(classification oracle, ``--batch``).  Writes timings and one digest per
job result to ``OUT_JSON``.  With ``SPANS_NPZ`` every layer boundary is
wrapped (see ``tracing.py``) and the spans are written there at the end.

A fresh process per sweep keeps the process-level classification store
of the oracle engine cold, as it is for a command-line user.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments import runner
from repro.experiments.common import Scale
from repro.experiments.fig11_performance import MODES
from repro.simulation.config import SCALED_SYSTEM
from repro.workloads.profiles import MEMORY_INTENSIVE

import tracing


def build_jobs(engine: str, seed: int) -> list:
    system = replace(SCALED_SYSTEM, use_batch=(engine == "oracle"))
    return [
        runner.SimJob(
            benchmark=name,
            mode=mode,
            scale=Scale.SMOKE,
            cores=4,
            system=system,
            seed=seed,
            track=False,
        )
        for name in MEMORY_INTENSIVE
        for _, mode in MODES
    ]


def job_digest(result: runner.SimResult) -> str:
    """Digest of everything a job simulated: timing, DRAM/LLC and controller stats."""
    text = repr((result.perf, result.memory, result.vulnerability))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def install_sim_layers(rec: tracing.Recorder) -> None:
    """Wrap each simulator layer's public calls (class level)."""
    from repro.cache.cache import SetAssocCache
    from repro.core.codec import COPCodec
    from repro.core.controller import ProtectedMemory
    from repro.kernels import BatchCodec, MemoizedCodec
    from repro.memory.dram import DRAMSystem
    from repro.simulation.batch import ContentOracle
    from repro.simulation.system import MultiCoreSystem
    from repro.workloads.blocks import BlockSource
    from repro.workloads.tracegen import TraceGenerator

    def epoch_accesses(args: tuple, epoch) -> int:
        return len(epoch.accesses) if epoch is not None else 0

    tracing.install(
        rec, TraceGenerator, "epochs", "workloads.tracegen|epochs",
        count=lambda a, r: 0,
        iter_name="workloads.tracegen|next", iter_count=epoch_accesses,
    )
    tracing.install(
        rec, TraceGenerator, "epoch_arrays", "workloads.tracegen|epoch_arrays",
        count=lambda a, r: int(r.accesses),
    )
    tracing.install(rec, BlockSource, "block", "workloads.blocks|block")
    for attr in ("encode", "decode", "codeword_count", "is_alias"):
        tracing.install(rec, COPCodec, attr, f"codec|COPCodec.{attr}")
        tracing.install(rec, MemoizedCodec, attr, f"codec|MemoizedCodec.{attr}")
    for attr in (
        "codeword_count_many",
        "is_alias_many",
        "compressible_many",
        "encode_many",
        "decode_many",
    ):
        tracing.install(
            rec, BatchCodec, attr, f"codec|BatchCodec.{attr}",
            count=tracing.rows_of_arg,
        )
    tracing.install(
        rec, SetAssocCache, "lookup", "cache.llc|lookup", count=tracing.found
    )
    tracing.install(rec, SetAssocCache, "insert", "cache.llc|insert")
    tracing.install(rec, SetAssocCache, "peek", "cache.llc|peek")
    for attr in ("write", "read", "fast_write", "fast_read"):
        tracing.install(rec, ProtectedMemory, attr, f"controller|{attr}")
    tracing.install(rec, DRAMSystem, "access", "memory.dram|access")
    tracing.install(
        rec, DRAMSystem, "service_wave", "memory.dram|service_wave",
        count=tracing.rows_of_arg,
    )
    tracing.install(rec, ContentOracle, "prefetch", "simulation.oracle|prefetch")
    tracing.install(rec, ContentOracle, "kind", "simulation.oracle|kind")
    tracing.install(rec, MultiCoreSystem, "run", "simulation.engine|run")
    tracing.install(rec, runner, "run_jobs", "experiments.runner|run_jobs")


def main(argv: list) -> int:
    engine, seed, spawn_ns, out_path = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    rec = tracing.Recorder() if spans_path is not None else None
    if rec is not None:
        install_sim_layers(rec)

    jobs = build_jobs(engine, seed)
    sweep_start = time.perf_counter_ns()
    cpu_start = time.process_time_ns()
    results = runner.run_jobs(jobs, workers=1, use_cache=False)
    cpu_ns = time.process_time_ns() - cpu_start
    sweep_end = time.perf_counter_ns()

    dram_requests = sum(r.perf.dram_reads + r.perf.dram_writes for r in results)
    row_hits = sum(
        r.perf.row_hit_rate * (r.perf.dram_reads + r.perf.dram_writes)
        for r in results
    )
    out = {
        "engine": engine,
        "seed": seed,
        "setup_ns": sweep_start - spawn_ns,
        "sweep_ns": sweep_end - sweep_start,
        "cpu_ns": cpu_ns,
        "digests": [job_digest(r) for r in results],
        "labels": [job.label() for job in jobs],
        "dram_requests": dram_requests,
        "dram_row_hits": row_hits,
    }
    if rec is not None and spans_path is not None:
        rec.dump(spans_path, extra={"sweep_start": sweep_start, "sweep_end": sweep_end})
    out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
