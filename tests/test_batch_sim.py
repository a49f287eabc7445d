"""Real-bytes / oracle parity of the simulator's two content models.

``MultiCoreSystem`` runs one epoch loop; ``use_batch`` swaps the real-bytes
content model for the classification oracle
(:mod:`repro.simulation.batch`), which is only allowed to be fast — never
different.  These tests drive the same traces through both models and
require bit-identical results on every observable surface: ``PerfResult``,
vulnerability report, controller / cache / DRAM stats, metrics snapshot
and the trace-event stream (wall-clock fields excluded — two runs of
*anything* disagree on those).
"""

import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark, run_mix
from repro.obs import Observability
from repro.reliability.parma import VulnerabilityTracker
from repro.simulation.config import SCALED_SYSTEM, SystemConfig
from repro.simulation.system import MultiCoreSystem
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import Access, Epoch, EpochArrays, TraceGenerator

ORACLE_SYSTEM = replace(SCALED_SYSTEM, use_batch=True)


def _strip_wall(obj):
    """Drop wall-clock keys (``*.seconds`` gauges) from a snapshot."""
    if isinstance(obj, dict):
        return {
            k: _strip_wall(v)
            for k, v in obj.items()
            if not (isinstance(k, str) and "seconds" in k)
        }
    return obj


def _events(text: str) -> list[str]:
    """Trace events normalised: wall-clock span durations removed."""
    out = []
    for line in text.splitlines():
        event = json.loads(line)
        event.pop("wall_ms", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def _outcome_surfaces(outcome):
    return (
        asdict(outcome.perf),
        outcome.vulnerability,
        outcome.memory.stats.as_dict(),
    )


class TestEpochArrays:
    def test_round_trip(self):
        generator = TraceGenerator(PROFILES["gcc"], seed=3)
        epochs = list(generator.epochs(40))
        arrays = EpochArrays.from_epochs(epochs)
        assert list(arrays.to_epochs()) == epochs
        assert len(arrays) == 40
        assert arrays.accesses == sum(len(e.accesses) for e in epochs)

    def test_epoch_slice(self):
        arrays = EpochArrays.from_epochs(
            [Epoch(7, (Access(0, False), Access(64, True))), Epoch(9, (Access(128, False),))]
        )
        assert arrays.epoch_slice(0) == (7, 0, 2)
        assert arrays.epoch_slice(1) == (9, 2, 3)

    def test_validation(self):
        ok = EpochArrays.from_epochs([Epoch(1, (Access(0, True),))])
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts[:-1],
                addrs=ok.addrs,
                is_store=ok.is_store,
            )
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts,
                addrs=ok.addrs,
                is_store=np.zeros(5, dtype=np.bool_),
            )

    @pytest.mark.parametrize("bench", ["gcc", "lbm", "canneal"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_epoch_arrays_matches_epochs(self, bench, seed):
        """``epochs(n)`` is the object view of ``epoch_arrays(n)`` —
        identical trace, identical generator state after."""
        profile = PROFILES[bench]
        via_epochs = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        direct = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        for count in (50, 25):  # second call: cursor/RNG state carried over
            a = EpochArrays.from_epochs(via_epochs.epochs(count))
            b = direct.epoch_arrays(count)
            for name in ("instructions", "starts", "addrs", "is_store"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert via_epochs._cursor == direct._cursor


class TestBenchmarkParity:
    @pytest.mark.parametrize("mode", list(ProtectionMode))
    def test_every_mode(self, mode):
        real = run_benchmark("gcc", mode, scale=Scale.SMOKE, cores=2)
        oracle = run_benchmark(
            "gcc", mode, scale=Scale.SMOKE, cores=2, system=ORACLE_SYSTEM
        )
        assert _outcome_surfaces(real) == _outcome_surfaces(oracle)

    @pytest.mark.parametrize("bench", ["lbm", "mcf", "omnetpp", "canneal"])
    def test_memory_intensive_benchmarks(self, bench):
        real = run_benchmark(bench, ProtectionMode.COP, scale=Scale.SMOKE, cores=2)
        oracle = run_benchmark(
            bench, ProtectionMode.COP, scale=Scale.SMOKE, cores=2, system=ORACLE_SYSTEM
        )
        assert _outcome_surfaces(real) == _outcome_surfaces(oracle)

    def test_mix_parity(self):
        benches = ("gcc", "lbm")
        real = run_mix(benches, ProtectionMode.COP_ER, scale=Scale.SMOKE)
        oracle = run_mix(
            benches, ProtectionMode.COP_ER, scale=Scale.SMOKE, system=ORACLE_SYSTEM
        )
        assert _outcome_surfaces(real) == _outcome_surfaces(oracle)

    def test_metrics_and_trace_events(self):
        """With observability live, the oracle model emits the *same
        events in the same order* with the same fields (minus wall
        clock)."""

        def run(system):
            sink = io.StringIO()
            obs = Observability.create(trace_sink=sink)
            run_benchmark(
                "mcf",
                ProtectionMode.COP,
                scale=Scale.SMOKE,
                cores=2,
                system=system,
                obs=obs,
            )
            obs.trace.flush()
            return _strip_wall(obs.snapshot()), _events(sink.getvalue())

        real_metrics, real_events = run(SCALED_SYSTEM)
        oracle_metrics, oracle_events = run(ORACLE_SYSTEM)
        assert real_metrics == oracle_metrics
        assert real_events == oracle_events


def _direct_pair(bench, mode, cores, epochs, seed):
    """Two identically seeded systems, real and oracle, run to completion."""
    profile = PROFILES[bench]
    results = []
    for use_batch in (False, True):
        config = SystemConfig(
            llc_bytes=128 << 10, footprint_divider=16, use_batch=use_batch
        )
        memory = ProtectedMemory(mode)
        footprint = max(
            1024,
            profile.footprint_mb * (1 << 20) // 64 // config.footprint_divider,
        )
        traces, sources, ipcs = [], [], []
        for core in range(cores):
            generator = TraceGenerator(
                profile,
                seed=seed + core,
                footprint_blocks=footprint,
                base_addr=core << 40,
            )
            traces.append(generator.epoch_arrays(epochs))
            sources.append(BlockSource(profile, seed=seed + core))
            ipcs.append(profile.perfect_ipc)
        sim = MultiCoreSystem(
            memory,
            traces,
            sources,
            ipcs,
            config,
            tracker=VulnerabilityTracker(),
        )
        perf = sim.run()
        results.append(
            (
                asdict(perf),
                sim.tracker.report(),
                memory.stats.as_dict(),
                sim.llc.stats.as_dict(),
                sim.dram.stats.as_dict(),
            )
        )
    return results


@settings(max_examples=12, deadline=None)
@given(
    bench=st.sampled_from(["gcc", "lbm", "mcf", "omnetpp", "soplex"]),
    mode=st.sampled_from(list(ProtectionMode)),
    cores=st.integers(min_value=1, max_value=3),
    epochs=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_differential_random_traces(bench, mode, cores, epochs, seed):
    """Hypothesis differential: random multi-core traces are byte-identical
    between the real-bytes and the oracle content model across every stats
    surface (PerfResult, vulnerability, controller, LLC, DRAM)."""
    real, oracle = _direct_pair(bench, mode, cores, epochs, seed)
    assert real == oracle
