"""Golden digests pinning the simulator's observable output.

``tests/sim_goldens.json`` holds sha256 digests recorded from the scalar
interval loop at commit ce27a58, the last commit that carried it.  The
single wave-deferred loop that replaced it must reproduce every digest
under both of its content models: real bytes (``use_batch=False``) and
the classification oracle (``use_batch=True``).

The file is a fixed reference.  A differing digest means the simulator's
behaviour changed; it is never fixed by recording the file again from the
current code.

Surfaces covered:

* every :class:`ProtectionMode` x {gcc, lbm, mcf, canneal} at SMOKE scale
  on 2 cores, plus one heterogeneous ``run_mix``: ``PerfResult``,
  vulnerability report, controller / LLC / DRAM stats;
* one observability-on case whose content stream carries crafted alias
  blocks, so a writeback is rejected (``alias_reject``, ``writeback``
  with ``accepted=False`` and the re-pin) inside a wave: the metrics
  snapshot and the trace-event stream, wall clock stripped.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import pytest

from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments import simruns
from repro.experiments.common import Scale
from repro.obs import Observability
from repro.reliability.parma import VulnerabilityTracker
from repro.simulation.config import SCALED_SYSTEM, SystemConfig
from repro.simulation.system import MultiCoreSystem
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import TraceGenerator

from test_batch_sim import _strip_wall

GOLDENS = Path(__file__).with_name("sim_goldens.json")
BENCHES = ("gcc", "lbm", "mcf", "canneal")
MIX = ("gcc", "lbm")
MIX_MODE = ProtectionMode.COP_ER
OBS_CASE = "obs/alias-writeback"
#: Content seed of the crafted obs case; no other test uses it, so the
#: oracle's process-level classification store never mixes it up with a
#: plain ``BlockSource`` stream.
_CRAFTED_SEED = 4_242_421


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _surfaces(perf, report, sim) -> dict:
    return {
        "perf": _digest(asdict(perf)),
        "vulnerability": _digest(asdict(report)),
        "controller": _digest(sim.memory.stats.as_dict()),
        "llc": _digest(sim.llc.stats.as_dict()),
        "dram": _digest(sim.dram.stats.as_dict()),
    }


def _captured(run, *args, **kwargs):
    """Run a ``simruns`` driver and keep the system it built."""
    systems = []

    class Capturing(MultiCoreSystem):
        def run(self):
            systems.append(self)
            return super().run()

    with mock.patch.object(simruns, "MultiCoreSystem", Capturing):
        outcome = run(*args, **kwargs)
    (sim,) = systems
    return _surfaces(outcome.perf, outcome.vulnerability, sim)


def benchmark_case(bench: str, mode: ProtectionMode, system: SystemConfig) -> dict:
    return _captured(
        simruns.run_benchmark, bench, mode, scale=Scale.SMOKE, cores=2,
        system=system,
    )


def mix_case(system: SystemConfig) -> dict:
    return _captured(
        simruns.run_mix, MIX, MIX_MODE, scale=Scale.SMOKE, system=system
    )


def _alias_block(addr: int, version: int) -> bytes:
    """A raw block the COP decoder mistakes for compressed data."""
    codec = COPCodec(COPConfig.four_byte())
    rng = random.Random(f"alias|{addr}|{version}")
    words = [
        codec.code.encode(rng.getrandbits(codec.config.codeword_data_bits))
        for _ in codec.masks
    ]
    return codec._pack_words(words)


class _AliasingSource(BlockSource):
    """Content stream with a crafted alias at every 7th (block, version)."""

    def block(self, addr: int, version: int = 0) -> bytes:
        if (addr // 64 + version) % 7 == 0:
            return _alias_block(addr, version)
        return super().block(addr, version)


def _events(text: str) -> list:
    """Trace events with wall-clock span durations removed."""
    out = []
    for line in text.splitlines():
        event = json.loads(line)
        event.pop("wall_ms", None)
        out.append(event)
    return out


def run_obs_case(use_batch: bool) -> tuple:
    """The crafted COP run with observability on: ``(metrics, events)``."""
    profile = PROFILES["mcf"]
    config = SystemConfig(
        llc_bytes=16 << 10, footprint_divider=16, use_batch=use_batch
    )
    sink = io.StringIO()
    obs = Observability.create(trace_sink=sink)
    memory = ProtectedMemory(ProtectionMode.COP, obs=obs)
    traces, sources, ipcs = [], [], []
    for core in range(2):
        generator = TraceGenerator(
            profile, seed=_CRAFTED_SEED + core, footprint_blocks=512,
            base_addr=core << 40,
        )
        traces.append(generator.epoch_arrays(60))
        sources.append(_AliasingSource(profile, seed=_CRAFTED_SEED + core))
        ipcs.append(profile.perfect_ipc)
    sim = MultiCoreSystem(
        memory, traces, sources, ipcs, config,
        tracker=VulnerabilityTracker(), obs=obs,
    )
    sim.run()
    obs.trace.flush()
    return _strip_wall(obs.snapshot()), _events(sink.getvalue())


def obs_case(use_batch: bool) -> dict:
    metrics, events = run_obs_case(use_batch)
    return {"metrics": _digest(metrics), "events": _digest(events)}


# -- tests -----------------------------------------------------------------

MODELS = {
    "real": SCALED_SYSTEM,
    "oracle": replace(SCALED_SYSTEM, use_batch=True),
}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())["cases"]


def test_goldens_cover_every_case(goldens):
    expected = {f"{b}/{m.value}" for m in ProtectionMode for b in BENCHES}
    expected |= {f"mix/{'+'.join(MIX)}/{MIX_MODE.value}", OBS_CASE}
    assert set(goldens) == expected


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("mode", list(ProtectionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("bench", BENCHES)
def test_benchmark_matches_golden(goldens, model, mode, bench):
    got = benchmark_case(bench, mode, MODELS[model])
    assert got == goldens[f"{bench}/{mode.value}"]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_mix_matches_golden(goldens, model):
    assert mix_case(MODELS[model]) == goldens[
        f"mix/{'+'.join(MIX)}/{MIX_MODE.value}"
    ]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_obs_case_matches_golden(goldens, model):
    assert obs_case(MODELS[model].use_batch) == goldens[OBS_CASE]


def test_obs_case_rejects_a_writeback_inside_a_wave():
    """The crafted stream really exercises the deferred-event ordering: an
    ``alias_reject`` is followed directly by its rejected ``writeback``."""
    codec = COPCodec(COPConfig.four_byte())
    sample = _alias_block(7 * 64, 0)
    assert codec.is_alias(sample)
    assert codec.compressor.compress(sample, codec.config.capacity_bits) is None
    _, events = run_obs_case(use_batch=False)
    kinds = [event["kind"] for event in events]
    pairs = [
        i for i in range(len(kinds) - 1)
        if kinds[i] == "alias_reject"
        and kinds[i + 1] == "writeback"
        and events[i + 1]["accepted"] is False
    ]
    assert pairs
