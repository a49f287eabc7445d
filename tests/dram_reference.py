"""Independent per-request reference for the DRAM timing recurrence.

``DRAMSystem`` runs its command-timing recurrence in one place, the wave
kernel ``service_wave`` (``access`` is a one-request wave).  This module
keeps the straightforward per-request formulation of the same model —
explicit ``max`` calls, a refresh helper, tFAW history per rank — so tests
can check the optimised kernel against arithmetic written independently.
It mutates a ``DRAMSystem``'s bank, bus and stats state exactly as the
kernel must.
"""

from __future__ import annotations

from repro.memory.dram import AccessTiming, DRAMSystem, DRAMTiming, PagePolicy


def after_refresh(timing: DRAMTiming, t_ns: float) -> float:
    """Push a command start time out of any refresh window."""
    if timing.trefi_ns <= 0:
        return t_ns
    position = t_ns % timing.trefi_ns
    if position >= timing.trefi_ns - timing.trfc_ns:
        return t_ns - position + timing.trefi_ns
    return t_ns


def reference_access(
    dram: DRAMSystem, addr: int, is_write: bool, now_ns: float
) -> AccessTiming:
    """One 64-byte access, updating ``dram``'s bank and bus state."""
    timing = dram.config.timing
    loc = dram.mapper.map(addr)
    bank = dram._banks[loc.channel][loc.rank][loc.bank]

    start = after_refresh(timing, max(now_ns, bank.ready_ns))
    if bank.open_row == loc.row:
        row_hit = True
        data_ready = start + timing.ns(timing.cl)
    else:
        row_hit = False
        t = start
        if bank.open_row is not None:
            # Precharge may not begin before tRAS from the activate.
            t = max(t, bank.act_ns + timing.ns(timing.tras))
            t += timing.ns(timing.trp)
        # tFAW: at most four activates per rank per rolling window.
        if timing.tfaw:
            history = dram._act_history.setdefault((loc.channel, loc.rank), [])
            if len(history) >= 4:
                t = max(t, history[-4] + timing.ns(timing.tfaw))
            history.append(t)
            del history[:-4]
        t += timing.ns(timing.trcd)
        bank.act_ns = t - timing.ns(timing.trcd)
        bank.open_row = loc.row
        data_ready = t + timing.ns(timing.cl)

    burst_start = max(data_ready, dram._bus_free_ns[loc.channel])
    complete = burst_start + timing.ns(timing.burst_cycles)
    dram._bus_free_ns[loc.channel] = complete
    bank.ready_ns = complete
    if dram.config.page_policy is PagePolicy.CLOSED:
        bank.ready_ns = max(
            complete, bank.act_ns + timing.ns(timing.tras + timing.trp)
        )
        bank.open_row = None

    stats = dram.stats
    stats.busy_ns += complete - start
    if is_write:
        stats.writes += 1
    else:
        stats.reads += 1
    if row_hit:
        stats.row_hits += 1
    else:
        stats.row_misses += 1
    if dram._track_banks:
        entry = stats.per_bank.setdefault((loc.channel, loc.rank, loc.bank), [0, 0])
        entry[0 if row_hit else 1] += 1
    return AccessTiming(start, complete, row_hit)
