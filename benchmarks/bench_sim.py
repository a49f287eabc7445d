"""Benchmark: the replay loop's two content models (the Fig. 11 hot path).

Each case times one fig11-style sweep — four protection modes over one
memory-intensive benchmark at SMALL scale — through ``MultiCoreSystem``'s
one epoch loop, once with the real-bytes content model and once with the
classification oracle (``use_batch``, :mod:`repro.simulation.batch`).
The recorded ``BENCH_sim.json`` pairs ``fig11_sweep_scalar_<bench>``
(real bytes) with ``fig11_sweep_batch_<bench>`` (oracle); the names are
kept from when these were two engines, so the trajectory still compares.
``python -m repro.bench.simgate`` turns those pairs into end-to-end
speedups and gates the median (wired into ``make bench-trajectory``).

The oracle cases run with ``warmup=1`` so the process-level
classification store (:data:`repro.simulation.batch._STORE`) is warm —
the steady state of a multi-mode sweep, which is exactly how fig11 uses
it.  The speedups only mean anything because the two models are
bit-exact; ``tests/test_batch_sim.py``, ``tests/test_sim_goldens.py`` and
``make sim-parity-smoke`` enforce that.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import perf_case
from repro.core.controller import ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark
from repro.simulation.config import SCALED_SYSTEM

#: Fig. 11's comparison set: the unprotected baseline, both COP variants
#: and the strongest conventional baseline.
_MODES = (
    ProtectionMode.UNPROTECTED,
    ProtectionMode.COP,
    ProtectionMode.COP_ER,
    ProtectionMode.ECC_REGION,
)

#: Memory-intensive picks spanning the compressibility range.
_BENCHES = ("lbm", "mcf", "omnetpp")


def _sweep(bench: str, use_batch: bool):
    system = replace(SCALED_SYSTEM, use_batch=use_batch)

    def run():
        for mode in _MODES:
            run_benchmark(
                bench,
                mode,
                scale=Scale.SMALL,
                cores=4,
                system=system,
                track=False,
            )

    return run


# -- trajectory cases (run by `cop-experiments bench --suite sim`) ------------

for _bench in _BENCHES:
    # Real-bytes sweeps are deterministic cold; skip the warmup repeat to
    # keep the suite's wall time down.
    perf_case(suite="sim", name=f"fig11_sweep_scalar_{_bench}", repeats=2, warmup=0)(
        lambda bench=_bench: _sweep(bench, use_batch=False)
    )
    perf_case(suite="sim", name=f"fig11_sweep_batch_{_bench}", repeats=3, warmup=1)(
        lambda bench=_bench: _sweep(bench, use_batch=True)
    )

