"""Workload substrate: synthetic stand-ins for SPEC2006 / PARSEC traces.

The paper drives every result from Pin-captured L3-miss traces carrying the
data contents of each referenced block.  Offline we reproduce the two
properties those traces contribute:

* **content statistics** — per-benchmark mixtures of the data archetypes
  that determine compressibility under each scheme (small integers,
  pointers with shared high bits, clustered floating point, ASCII/UTF-16
  text, sparse arrays, incompressible bytes);
* **access statistics** — L3 miss rate, memory-level parallelism, write
  fraction, footprint and spatial locality, which determine the
  performance and vulnerability results.

Profiles are calibrated so the compressibility figures (Figs. 1, 4, 8, 9)
land near the paper's per-benchmark values; all downstream experiments
then exercise the real code paths with faithful input statistics.
"""

from importlib import import_module
from typing import Any

from repro.workloads.blocks import BlockSource
from repro.workloads.generators import COMPONENTS, generate_block
from repro.workloads.profiles import (
    FIG1_BENCHMARKS,
    FIG4_BENCHMARKS,
    MEMORY_INTENSIVE,
    PROFILES,
    BenchmarkProfile,
    profiles_in_suite,
)

# Trace synthesis imports numpy; load it on first attribute access so
# content generation alone (the service's load generator) stays light
# (PEP 562).
_LAZY = {
    "Access": "repro.workloads.tracegen",
    "Epoch": "repro.workloads.tracegen",
    "TraceGenerator": "repro.workloads.tracegen",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


__all__ = [
    "COMPONENTS",
    "generate_block",
    "BenchmarkProfile",
    "PROFILES",
    "MEMORY_INTENSIVE",
    "FIG1_BENCHMARKS",
    "FIG4_BENCHMARKS",
    "profiles_in_suite",
    "BlockSource",
    "Access",
    "Epoch",
    "TraceGenerator",
]
