"""Bank-level DDR3 timing model with an open-row policy.

The model tracks, per bank, the open row, the earliest time the bank can
accept a new column/row command, and the last activate time (to honour
tRAS before a precharge).  Each channel serialises data bursts on its bus.
Requests are processed in arrival order; :meth:`DRAMSystem.access_batch`
applies FR-FCFS-style reordering inside a batch of simultaneously ready
requests (row hits first), which is where scheduling matters for the
interval performance model.

All times are nanoseconds.  Defaults model DDR3-1600 (tCK = 1.25 ns,
11-11-11-28, BL8) per Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.memory.address import AddressMapper, DRAMGeometry

__all__ = [
    "DRAMTiming",
    "PagePolicy",
    "DRAMConfig",
    "DDR3_1600",
    "AccessTiming",
    "DRAMStats",
    "DRAMSystem",
]


@dataclass(frozen=True)
class DRAMTiming:
    """Core timing parameters, in memory-clock cycles unless noted."""

    tck_ns: float = 1.25  # DDR3-1600: 800 MHz clock, 1600 MT/s
    cl: int = 11  # CAS latency
    trcd: int = 11  # activate -> column command
    trp: int = 11  # precharge
    tras: int = 28  # activate -> precharge
    burst_cycles: int = 4  # BL8 at double data rate
    tfaw: int = 24  # four-activate window per rank (0 disables)
    trefi_ns: float = 7800.0  # refresh interval (0 disables refresh)
    trfc_ns: float = 260.0  # refresh cycle time (4 Gb-class devices)

    def __post_init__(self) -> None:
        # The refresh window is the last tRFC of each tREFI interval.  A
        # device that spends its whole interval (or more) refreshing can
        # never accept a command: the refresh step of ``service_wave``
        # would "push" a start time into a window that covers all time,
        # silently returning a time still inside a refresh.  Reject the
        # impossible geometry at construction instead of producing
        # nonsense timings.
        if self.trfc_ns < 0:
            raise ValueError(f"trfc_ns must be non-negative: {self.trfc_ns}")
        if self.trefi_ns > 0 and self.trfc_ns >= self.trefi_ns:
            raise ValueError(
                f"refresh window tRFC ({self.trfc_ns} ns) must be shorter "
                f"than the refresh interval tREFI ({self.trefi_ns} ns); "
                "set trefi_ns=0 to disable refresh entirely"
            )

    def ns(self, cycles: float) -> float:
        return cycles * self.tck_ns

    @property
    def row_hit_ns(self) -> float:
        """Column access + burst on an already-open row."""
        return self.ns(self.cl + self.burst_cycles)

    @property
    def row_miss_ns(self) -> float:
        """Precharge + activate + column access + burst."""
        return self.ns(self.trp + self.trcd + self.cl + self.burst_cycles)


class PagePolicy(enum.Enum):
    """Row-buffer management policy.

    The paper assumes an open-row policy (its embedded-ECC discussion
    depends on it); the closed-page alternative precharges after every
    access, trading row hits for lower conflict latency — exposed for the
    policy ablation bench.
    """

    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class DRAMConfig:
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    page_policy: PagePolicy = PagePolicy.OPEN


#: The Table 1 configuration.
DDR3_1600 = DRAMConfig()


class AccessTiming(NamedTuple):
    """When one request started and finished, and how it hit."""

    start_ns: float
    complete_ns: float
    row_hit: bool

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.start_ns


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_ns: float = 0.0
    #: Per-bank ``(channel, rank, bank) -> [row_hits, row_misses]``,
    #: populated only when the owning DRAMSystem has observability on.
    per_bank: dict[tuple[int, int, int], list[int]] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Scalar counters keyed by name (per-bank detail excluded)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "busy_ns": self.busy_ns,
        }

    def merge(self, other: "DRAMStats") -> "DRAMStats":
        """Accumulate another instance's counts into this one."""
        self.reads += other.reads
        self.writes += other.writes
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.busy_ns += other.busy_ns
        for key, (hits, misses) in other.per_bank.items():
            entry = self.per_bank.setdefault(key, [0, 0])
            entry[0] += hits
            entry[1] += misses
        return self


class _Bank:
    __slots__ = ("open_row", "ready_ns", "act_ns")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_ns = 0.0
        self.act_ns = 0.0


class DRAMSystem:
    """Functional-timing model of the whole memory system."""

    def __init__(self, config: DRAMConfig = DDR3_1600, obs=None) -> None:
        from repro.obs import NULL_OBS

        self.config = config
        self.mapper = AddressMapper(config.geometry)
        geometry = config.geometry
        self._banks = [
            [
                [_Bank() for _ in range(geometry.banks_per_rank)]
                for _ in range(geometry.ranks_per_channel)
            ]
            for _ in range(geometry.channels)
        ]
        #: Flat view of the same bank objects, indexed by
        #: ``(channel * ranks + rank) * banks + bank`` — the wave kernel's
        #: vectorised address decomposition lands directly on this.
        self._flat_banks = [
            bank
            for channel in self._banks
            for rank in channel
            for bank in rank
        ]
        self._bus_free_ns = [0.0] * geometry.channels
        #: Rolling activate history per (channel, rank) for tFAW.
        self._act_history: dict[tuple[int, int], list[float]] = {}
        # Wave-kernel constants, hoisted once (config is frozen): timing
        # conversions and the positional address-decompose plan.
        timing = config.timing
        self._wave_consts = (
            timing.ns(timing.cl),
            timing.ns(timing.trp),
            timing.ns(timing.trcd),
            timing.ns(timing.tras),
            timing.ns(timing.tras + timing.trp),
            timing.ns(timing.burst_cycles),
            timing.tfaw,
            timing.ns(timing.tfaw),
            timing.trefi_ns,
            timing.trefi_ns - timing.trfc_ns,
        )
        spec = self.mapper.field_spec
        self._wave_sizes = tuple(size for _, size in spec)
        names = [name for name, _ in spec]
        self._wave_pos = (
            names.index("channel"),
            names.index("rank"),
            names.index("bank"),
            names.index("row"),
        )
        self.stats = DRAMStats()
        self.obs = obs if obs is not None else NULL_OBS
        #: Hot-path flag: per-bank accounting only when someone is looking.
        self._track_banks = self.obs.enabled

    # -- single access ---------------------------------------------------

    def would_row_hit(self, addr: int) -> bool:
        """Peek whether ``addr`` would hit the open row right now."""
        loc = self.mapper.map(addr)
        bank = self._banks[loc.channel][loc.rank][loc.bank]
        return bank.open_row == loc.row

    def access(self, addr: int, is_write: bool, now_ns: float) -> AccessTiming:
        """Perform one 64-byte access: a one-request :meth:`service_wave`."""
        starts, completes, hits = self.service_wave(((addr, is_write),), now_ns)
        return AccessTiming(starts[0], completes[0], hits[0])

    def publish_metrics(self, registry, prefix: str = "dram") -> None:
        """Mirror the DRAM counters (and per-bank detail) into a registry.

        Per-bank names follow ``dram.bank.c{ch}r{rank}b{bank}.row_hits``.
        """
        registry.update_counters(prefix, self.stats.as_dict())
        registry.set_gauge(f"{prefix}.busy_ns", self.stats.busy_ns)
        registry.set_gauge(f"{prefix}.row_hit_rate", self.stats.row_hit_rate)
        for (ch, rank, bank), (hits, misses) in self.stats.per_bank.items():
            registry.update_counters(
                f"{prefix}.bank.c{ch}r{rank}b{bank}",
                {"row_hits": hits, "row_misses": misses},
            )

    # -- batched access (the wave kernel) ----------------------------------

    def service_wave(
        self, requests: Sequence[tuple[int, bool]], now_ns: float
    ) -> tuple[list[float], list[float], list[bool]]:
        """Service a wave of simultaneously ready requests *in order*.

        The model's one command-timing recurrence.  Per request: wait for
        the bank, step out of any refresh window, then either a row hit
        (tCL) or precharge (after tRAS) + activate (within tFAW) + tRCD +
        tCL, then the data burst on the channel bus.  Returns per-request
        ``(start_ns, complete_ns, row_hit)`` as three parallel lists.

        The recurrence is serial — each request's start time depends on
        the bank/bus state its predecessors left behind — so the address
        decomposition is done up front and the recurrence runs as one
        tight loop over pre-resolved bank state, carrying that state
        across calls.

        Refresh: all ranks refresh in lockstep every tREFI, occupying the
        last tRFC of each interval.  A refresh also closes every row (the
        DRAM's auto-precharge on REF), which the row-buffer state ignores
        here — a small optimism that applies equally to every protection
        mode under comparison.
        """
        n = len(requests)
        if n == 0:
            return [], [], []
        geometry = self.config.geometry
        if n <= 24:
            # A short wave (one MSHR group): the pure-Python decomposition
            # beats the numpy path's array setup.  Same integer arithmetic
            # either way — see AddressMapper.map_lists.
            block_bytes = geometry.block_bytes
            total_blocks = geometry.total_blocks
            sizes = self._wave_sizes
            ch_pos, rank_pos, bank_pos, row_pos = self._wave_pos
            channels = []
            rows = []
            ranks = []
            flat_index = []
            rpc = geometry.ranks_per_channel
            bpr = geometry.banks_per_rank
            vals = [0] * len(sizes)
            for request in requests:
                block = (request[0] // block_bytes) % total_blocks
                for j, size in enumerate(sizes):
                    vals[j] = block % size
                    block //= size
                ch = vals[ch_pos]
                rank = vals[rank_pos]
                channels.append(ch)
                rows.append(vals[row_pos])
                ranks.append(rank)
                flat_index.append(
                    (ch * rpc + rank) * bpr + vals[bank_pos]
                )
        else:
            addrs = np.fromiter(
                (request[0] for request in requests), dtype=np.int64, count=n
            )
            fields = self.mapper.map_arrays(addrs)
            channel = fields["channel"]
            rows = fields["row"].tolist()
            flat_index = (
                (channel * geometry.ranks_per_channel + fields["rank"])
                * geometry.banks_per_rank
                + fields["bank"]
            ).tolist()
            channels = channel.tolist()
            ranks = fields["rank"].tolist()

        (
            cl_ns,
            trp_ns,
            trcd_ns,
            tras_ns,
            tras_trp_ns,
            burst_ns,
            tfaw,
            tfaw_ns,
            trefi,
            refresh_edge,
        ) = self._wave_consts
        closed = self.config.page_policy is PagePolicy.CLOSED
        flat_banks = self._flat_banks
        bus = self._bus_free_ns
        history_map = self._act_history
        track = self._track_banks
        per_bank = self.stats.per_bank

        busy_ns = self.stats.busy_ns
        reads = writes = row_hits = row_misses = 0
        starts: list[float] = []
        completes: list[float] = []
        hits: list[bool] = []
        for request, row, ch, rank, flat in zip(
            requests, rows, channels, ranks, flat_index
        ):
            bank = flat_banks[flat]
            start = now_ns if now_ns > bank.ready_ns else bank.ready_ns
            if trefi > 0:
                position = start % trefi
                if position >= refresh_edge:
                    start = start - position + trefi
            if bank.open_row == row:
                row_hit = True
                data_ready = start + cl_ns
            else:
                row_hit = False
                t = start
                if bank.open_row is not None:
                    after_ras = bank.act_ns + tras_ns
                    if after_ras > t:
                        t = after_ras
                    t += trp_ns
                if tfaw:
                    key = (ch, rank)
                    history = history_map.get(key)
                    if history is None:
                        history = history_map[key] = []
                    if len(history) >= 4:
                        window = history[-4] + tfaw_ns
                        if window > t:
                            t = window
                    history.append(t)
                    del history[:-4]
                t += trcd_ns
                bank.act_ns = t - trcd_ns
                bank.open_row = row
                data_ready = t + cl_ns
            burst_start = bus[ch]
            if data_ready > burst_start:
                burst_start = data_ready
            complete = burst_start + burst_ns
            bus[ch] = complete
            bank.ready_ns = complete
            if closed:
                precharged = bank.act_ns + tras_trp_ns
                bank.ready_ns = (
                    complete if complete > precharged else precharged
                )
                bank.open_row = None
            busy_ns += complete - start
            if request[1]:
                writes += 1
            else:
                reads += 1
            if row_hit:
                row_hits += 1
            else:
                row_misses += 1
            if track:
                entry = per_bank.setdefault(
                    (ch, rank, flat % geometry.banks_per_rank),
                    [0, 0],
                )
                entry[0 if row_hit else 1] += 1
            starts.append(start)
            completes.append(complete)
            hits.append(row_hit)

        stats = self.stats
        stats.busy_ns = busy_ns
        stats.reads += reads
        stats.writes += writes
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        return starts, completes, hits

    def access_batch(
        self, requests: Sequence[tuple[int, bool]], now_ns: float
    ) -> list[AccessTiming]:
        """Service simultaneously ready requests, row hits first.

        ``requests`` is a sequence of ``(addr, is_write)``.  Results are
        returned in the original request order.  This models the memory
        controller's first-ready first-come-first-served queue at the
        granularity the interval simulator needs: within one miss group,
        requests to open rows are scheduled before row conflicts.

        Returns exactly ``len(requests)`` timings.  A scheduler that drops
        a request is an invariant violation and raises, instead of
        returning a shorter list out of step with the request order.
        """
        order = sorted(
            range(len(requests)),
            key=lambda i: (not self.would_row_hit(requests[i][0]), i),
        )
        starts, completes, hits = self.service_wave(
            [requests[i] for i in order], now_ns
        )
        serviced = min(len(starts), len(completes), len(hits))
        if serviced != len(requests):
            raise RuntimeError(
                f"access_batch serviced {serviced} of "
                f"{len(requests)} requests; the FR-FCFS order must "
                "cover every slot exactly once"
            )
        timings = map(AccessTiming, starts, completes, hits)
        return [timing for _, timing in sorted(zip(order, timings))]
