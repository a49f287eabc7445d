"""DRAM substrate: a DDR3-1600-class main-memory timing model.

The paper backs its interval simulator with DRAMSim2; this package plays
that role at the fidelity the evaluation needs — per-bank row-buffer state,
bank timing constraints (tRCD / tRP / CL / tRAS / burst), per-channel data
bus serialisation, and the Table 1 organisation (2 channels, 1 DIMM per
channel, 2 ranks per DIMM, 8 banks per rank, 8 GB total).
"""

from importlib import import_module
from typing import Any

from repro.memory.address import AddressMapper, DRAMGeometry, MappedAddress

# The timing model (and the power / scheduler models built on it) imports
# numpy; load it on first attribute access so importing the package for the
# address mapper alone stays light (PEP 562).
_LAZY = {
    "DDR3_1600": "repro.memory.dram",
    "PagePolicy": "repro.memory.dram",
    "AccessTiming": "repro.memory.dram",
    "DRAMConfig": "repro.memory.dram",
    "DRAMStats": "repro.memory.dram",
    "DRAMSystem": "repro.memory.dram",
    "DRAMTiming": "repro.memory.dram",
    "DRAMPowerParams": "repro.memory.power",
    "PowerModel": "repro.memory.power",
    "PowerReport": "repro.memory.power",
    "MemoryScheduler": "repro.memory.scheduler",
    "MemRequest": "repro.memory.scheduler",
    "SchedulingPolicy": "repro.memory.scheduler",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


__all__ = [
    "DRAMGeometry",
    "AddressMapper",
    "MappedAddress",
    "DRAMTiming",
    "DRAMConfig",
    "DDR3_1600",
    "PagePolicy",
    "DRAMSystem",
    "DRAMStats",
    "AccessTiming",
    "DRAMPowerParams",
    "PowerModel",
    "PowerReport",
    "MemoryScheduler",
    "MemRequest",
    "SchedulingPolicy",
]
