"""Fault-tolerant execution layer for the experiment runner.

The paper's protection discipline — failures must be *detected, bounded
and recoverable*, never silent — applied to the harness itself.  A
fig10/fig11 sweep is hours of Monte-Carlo work; a hung worker, a
crashed process or a flipped bit in a cached pickle must not cost the
whole run (or worse, poison it invisibly).  This module provides the
pieces :func:`repro.experiments.runner.run_jobs` composes:

per-attempt wall-clock timeouts
    :func:`time_limit` arms ``SIGALRM`` around one job attempt and
    raises :class:`JobTimeoutError` when the budget expires.  It works
    both inside pool workers and on the serial path.

bounded retries with deterministic backoff
    :func:`backoff_delay` grows exponentially with the attempt number
    and jitters with a generator seeded from the job key — no global
    RNG (the same REP001 discipline the simulation packages obey), so
    two runs of the same faulty sweep sleep identically.

a crash-safe checkpoint journal
    :class:`CheckpointJournal` appends one fsync'd JSONL line per
    completed job under ``results/.journal/``.  A killed sweep re-run
    with ``--resume`` skips journaled work (served from the result
    cache) and recomputes anything whose cache entry went missing.

an opt-in chaos hook (test/CI only)
    ``REPRO_CHAOS=crash:0.1,hang:0.05[,seed:N]`` makes workers
    ``os._exit`` or stall, with every decision drawn from a generator
    seeded by ``(seed, job, attempt)`` — the harness-level twin of
    :mod:`repro.reliability.injection`, and just as reproducible.

Knob resolution is explicit argument > :func:`configure` (the CLI's
``--timeout/--retries/--resume/--fail-fast``) > environment
(``REPRO_TIMEOUT``, ``REPRO_RETRIES``, ``REPRO_CHAOS``).  Invalid
environment values warn once on stderr and are recorded in the obs
snapshot (``runner.config.invalid_env.*``) instead of silently falling
through.  See docs/resilience.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro._durable import fsync_dir, make_dirs
from repro.experiments.common import results_dir
from repro.obs import get_obs

__all__ = [
    "JobTimeoutError",
    "ChaosCrashError",
    "JobFailedError",
    "ChaosConfig",
    "ResilienceConfig",
    "CheckpointJournal",
    "backoff_delay",
    "chaos_key",
    "configure",
    "guarded_execute",
    "invalid_env",
    "reset",
    "resolve",
    "time_limit",
    "CHAOS_EXIT_CODE",
]


class JobTimeoutError(RuntimeError):
    """One job attempt exceeded its wall-clock budget."""


class ChaosCrashError(RuntimeError):
    """Injected worker crash on the serial path (workers ``os._exit``)."""


class JobFailedError(RuntimeError):
    """A job exhausted its retry budget (or failed under ``--fail-fast``)."""


#: Exit status a chaos 'crash' uses inside a pool worker; distinctive in
#: core dumps / CI logs so an injected death is never mistaken for a bug.
CHAOS_EXIT_CODE = 113


# ---------------------------------------------------------------------------
# chaos injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic worker-fault injection (test/CI only).

    ``crash``/``hang`` are per-attempt probabilities; every decision is
    drawn from ``random.Random(f"chaos|{seed}|{key}|{attempt}")`` so a
    fixed seed reproduces the exact fault schedule run after run.
    """

    crash: float = 0.0
    hang: float = 0.0
    seed: int = 0

    #: Service-layer knobs (repro.service.chaos) sharing the REPRO_CHAOS
    #: grammar; the runner parser skips them, the service parser skips
    #: crash/hang — one spec can fault both layers at once.
    SERVICE_KNOBS = ("worker-kill", "delay", "conn-drop")

    @classmethod
    def parse(cls, spec: str) -> Optional["ChaosConfig"]:
        """Parse ``"crash:0.1,hang:0.05,seed:3"``; None for empty/invalid."""
        spec = spec.strip()
        if not spec:
            return None
        crash, hang, seed = 0.0, 0.0, 0
        for part in spec.split(","):
            name, _, raw = part.partition(":")
            name = name.strip().lower()
            raw = raw.strip()
            try:
                if name == "crash":
                    crash = float(raw)
                elif name == "hang":
                    hang = float(raw)
                elif name == "seed":
                    seed = int(raw)
                elif name in cls.SERVICE_KNOBS:
                    continue
                else:
                    raise ValueError(f"unknown chaos knob {name!r}")
            except ValueError:
                invalid_env("REPRO_CHAOS", spec, "chaos injection disabled")
                return None
        if not 0.0 <= crash <= 1.0 or not 0.0 <= hang <= 1.0:
            invalid_env("REPRO_CHAOS", spec, "chaos injection disabled")
            return None
        if crash == 0.0 and hang == 0.0:
            return None
        return cls(crash=crash, hang=hang, seed=seed)

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """``"crash"``, ``"hang"`` or None for this (job, attempt) pair."""
        draw = random.Random(f"chaos|{self.seed}|{key}|{attempt}").random()
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        return None


def chaos_key(job: Any) -> str:
    """Stable fault-injection identity for a job (label + seed).

    Deliberately *not* the cache key: the cache key folds in a source
    salt, and a code edit must not reshuffle a chaos schedule under a
    fixed seed.
    """
    return f"{job.label()}|seed={job.seed}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance policy for one :func:`run_jobs` batch."""

    #: Per-attempt wall-clock budget in seconds (None: unlimited).
    timeout: Optional[float] = None
    #: Extra attempts after the first (0: any fault is fatal).
    retries: int = 0
    #: First backoff delay in seconds; doubles per retry.
    backoff_base: float = 0.05
    #: Ceiling on any single backoff delay.
    backoff_cap: float = 2.0
    #: Abort the sweep on the first fault instead of retrying.
    fail_fast: bool = False
    #: Trust the checkpoint journal: skip jobs it marks complete.
    resume: bool = False
    #: Fault injection (None: off).  Test/CI only.
    chaos: Optional[ChaosConfig] = None


_configured: dict[str, Any] = {}
_warned: set[str] = set()


def configure(
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    fail_fast: Optional[bool] = None,
    resume: Optional[bool] = None,
    chaos: Optional[ChaosConfig] = None,
    backoff_base: Optional[float] = None,
    backoff_cap: Optional[float] = None,
) -> None:
    """Set process-wide resilience defaults (the CLI's flags).

    ``None`` leaves a knob untouched; :func:`reset` clears everything.
    """
    for name, value in (
        ("timeout", timeout),
        ("retries", retries),
        ("fail_fast", fail_fast),
        ("resume", resume),
        ("chaos", chaos),
        ("backoff_base", backoff_base),
        ("backoff_cap", backoff_cap),
    ):
        if value is not None:
            _configured[name] = value


def reset() -> None:
    """Clear :func:`configure` state and warn-once latches (tests)."""
    _configured.clear()
    _warned.clear()


def invalid_env(name: str, raw: str, action: str) -> None:
    """Report a bad environment knob: warn once, count in the obs snapshot."""
    get_obs().metrics.inc(f"runner.config.invalid_env.{name.lower()}")
    if name in _warned:
        return
    _warned.add(name)
    print(
        f"[resilience] ignoring invalid {name}={raw!r}; {action}",
        file=sys.stderr,
    )


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        invalid_env(name, raw, "no timeout will be enforced")
        return None
    return value if value > 0 else None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        invalid_env(name, raw, f"using {default} retries")
        return default


def resolve(explicit: Optional[ResilienceConfig] = None) -> ResilienceConfig:
    """Policy resolution: explicit arg > :func:`configure` > environment."""
    if explicit is not None:
        return explicit
    chaos = _configured.get("chaos")
    if chaos is None:
        chaos = ChaosConfig.parse(os.environ.get("REPRO_CHAOS", ""))
    timeout = _configured.get("timeout", _env_float("REPRO_TIMEOUT"))
    return ResilienceConfig(
        timeout=timeout,
        retries=_configured.get("retries", _env_int("REPRO_RETRIES", 0)),
        backoff_base=_configured.get("backoff_base", 0.05),
        backoff_cap=_configured.get("backoff_cap", 2.0),
        fail_fast=_configured.get("fail_fast", False),
        resume=_configured.get("resume", False),
        chaos=chaos,
    )


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------


def backoff_delay(key: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic seeded jitter.

    ``base * 2**(attempt-2)`` for the delay before attempt ``attempt``
    (so the first retry waits about ``base``), scaled by a jitter in
    [0.5, 1.0) drawn from a generator seeded with the job key and the
    attempt number — reproducible, and decorrelated across jobs so a
    broken pool's survivors do not retry in lockstep.
    """
    if base <= 0:
        return 0.0
    raw = base * (2.0 ** max(0, attempt - 2))
    jitter = 0.5 + 0.5 * random.Random(f"backoff|{key}|{attempt}").random()
    return min(cap, raw * jitter)


# ---------------------------------------------------------------------------
# wall-clock timeout
# ---------------------------------------------------------------------------


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the body outlives ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` so a *hung* job (stuck in
    a sleep or a pure-Python loop) is interrupted, not merely noticed.
    Degrades to a no-op when there is nothing to arm: no budget, no
    ``setitimer`` on the platform, or a non-main thread.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise JobTimeoutError(
            f"job attempt exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _hang_seconds(timeout: Optional[float]) -> float:
    """How long an injected hang stalls.

    With a timeout armed the alarm cuts the sleep at ``timeout``; the
    4x headroom only matters on platforms without ``SIGALRM``.  Without
    a timeout a hang degrades to a bounded 1 s stall so a misconfigured
    chaos run slows down rather than deadlocks.
    """
    return min(4.0 * timeout, 60.0) if timeout else 1.0


# ---------------------------------------------------------------------------
# guarded execution (shared by pool workers and the serial path)
# ---------------------------------------------------------------------------


def guarded_execute(
    job: Any,
    collect_metrics: bool,
    cfg: ResilienceConfig,
    attempt: int,
    execute: Callable[..., Any],
    tracer: Any = None,
    in_worker: bool = False,
) -> Any:
    """Run one job attempt under the timeout guard and chaos hook.

    ``execute`` is the real job function (the runner's
    ``_execute_job``), injected so this module stays import-cycle-free
    and benchmarkable with a stub.  Inside a pool worker an injected
    crash is a genuine ``os._exit`` (the parent sees a broken pool,
    exactly like a segfault); on the serial path it raises
    :class:`ChaosCrashError` instead of killing the interpreter.
    """
    with time_limit(cfg.timeout):
        if cfg.chaos is not None:
            action = cfg.chaos.decide(chaos_key(job), attempt)
            if action == "crash":
                if in_worker:
                    os._exit(CHAOS_EXIT_CODE)
                raise ChaosCrashError(
                    f"chaos: injected crash for {job.label()} "
                    f"(attempt {attempt})"
                )
            if action == "hang":
                time.sleep(_hang_seconds(cfg.timeout))
        return execute(job, collect_metrics, tracer)


# ---------------------------------------------------------------------------
# checkpoint journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only JSONL record of a sweep's completed job keys.

    One fsync'd line per completed job, so the journal is exactly as
    complete as the work that survived a kill.  Loading tolerates a
    torn final line (the crash case an append-only file can produce).
    The file name is a fingerprint of the sweep's sorted key set:
    re-running the same job list — the ``--resume`` workflow — lands on
    the same journal.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.done: set[str] = set()
        self.torn_lines = 0
        self._tail_torn = False
        self._load()

    @classmethod
    def for_keys(
        cls, keys: Sequence[str], root: Union[str, Path, None] = None
    ) -> "CheckpointJournal":
        root = Path(root) if root is not None else results_dir() / ".journal"
        sweep = hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()
        return cls(root / f"{sweep[:16]}.jsonl")

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        self._tail_torn = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A torn tail from a mid-write kill: count it, skip it.
                self.torn_lines += 1
                continue
            key = entry.get("key")
            if isinstance(key, str):
                self.done.add(key)

    def record(self, key: str, label: str = "") -> None:
        """Durably mark one job complete (idempotent).

        The first record of a new journal also syncs every directory it
        creates and, after the entry itself, the journal's directory
        entry, so a power loss cannot drop the whole journal.
        """
        if key in self.done:
            return
        created = not self.path.exists()
        if created:
            make_dirs(self.path.parent)
        line = json.dumps({"key": key, "label": label}, sort_keys=True)
        with self.path.open("a", encoding="utf-8") as fh:
            if self._tail_torn:
                # Terminate a torn tail so the new entry starts clean.
                fh.write("\n")
                self._tail_torn = False
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            fsync_dir(self.path.parent)
        self.done.add(key)

    def __len__(self) -> int:
        return len(self.done)
