"""Wall-clock profiling hooks for the simulator's host-side hot paths.

The metrics registry counts *simulated* quantities; this module measures
where the *host* (Python) time goes: phase timers around the simulator's
main loop stages and cheap call counters on hot paths.  Phases are timed
on the :func:`repro.obs.perf.now_ns` protocol clock and accumulated as
integer nanoseconds; every output reports seconds.  The default
:class:`NullProfiler` reduces every hook to a no-op so un-instrumented
runs pay nothing beyond the call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.perf import now_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER"]


class Profiler:
    """Accumulates wall time per phase and counts per hot-path label."""

    enabled = True

    def __init__(self) -> None:
        self.phase_ns: dict[str, int] = {}
        self.phase_calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Accumulated wall time per phase, in seconds."""
        return {name: ns / 1e9 for name, ns in self.phase_ns.items()}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = now_ns()
        try:
            yield
        finally:
            elapsed = now_ns() - start
            self.phase_ns[name] = self.phase_ns.get(name, 0) + elapsed
            self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict[str, Any]:
        seconds = self.phase_seconds
        return {
            "phases": {
                name: {"calls": self.phase_calls[name], "seconds": seconds[name]}
                for name in sorted(seconds)
            },
            "counts": dict(sorted(self.counts.items())),
        }

    def publish(self, registry: "MetricsRegistry", prefix: str = "profile") -> None:
        """Mirror the profile into a metrics registry (gauges + counters)."""
        for name, seconds in self.phase_seconds.items():
            registry.set_gauge(f"{prefix}.{name}.seconds", seconds)
            registry.set_gauge(f"{prefix}.{name}.calls", self.phase_calls[name])
        registry.update_counters(prefix, self.counts)

    def report(self) -> str:
        lines = ["phase                     calls      seconds"]
        seconds = self.phase_seconds
        for name in sorted(seconds):
            lines.append(
                f"{name:<24} {self.phase_calls[name]:>6} {seconds[name]:>12.4f}"
            )
        if self.counts:
            lines.append("hot-path counters:")
            for name in sorted(self.counts):
                lines.append(f"  {name}: {self.counts[name]:,}")
        return "\n".join(lines)

    def clear(self) -> None:
        self.phase_ns.clear()
        self.phase_calls.clear()
        self.counts.clear()


class NullProfiler(Profiler):
    """No-op profiler (the default)."""

    enabled = False

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def publish(self, registry: "MetricsRegistry", prefix: str = "profile") -> None:
        pass


#: Shared default — safe to hand to any number of components.
NULL_PROFILER = NullProfiler()
