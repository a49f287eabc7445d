"""Tests for the DRAM address mapping and timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import AddressMapper, DRAMGeometry, MappedAddress
from repro.memory.dram import DDR3_1600, DRAMConfig, DRAMSystem, DRAMTiming, PagePolicy

from dram_reference import after_refresh, reference_access


class TestGeometry:
    def test_table1_defaults(self):
        g = DRAMGeometry()
        assert g.channels == 2
        assert g.ranks_per_channel == 2
        assert g.banks_per_rank == 8
        assert g.capacity_bytes == 8 << 30
        assert g.blocks_per_row == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMGeometry(channels=3)
        with pytest.raises(ValueError):
            DRAMGeometry(row_bytes=100)

    def test_total_blocks(self):
        assert DRAMGeometry().total_blocks == (8 << 30) // 64


class TestAddressMapper:
    def test_field_order_validation(self):
        with pytest.raises(ValueError):
            AddressMapper(order=("row", "bank", "col", "channel"))

    def test_consecutive_blocks_alternate_channels(self):
        mapper = AddressMapper()
        assert mapper.map(0).channel != mapper.map(64).channel

    def test_blocks_in_run_share_row(self):
        mapper = AddressMapper()
        a = mapper.map(0)
        b = mapper.map(128)  # same channel as 0 (two blocks later)
        assert (a.row, a.bank, a.rank, a.channel) == (
            b.row,
            b.bank,
            b.rank,
            b.channel,
        )

    @given(st.integers(min_value=0, max_value=(8 << 30) - 64))
    @settings(max_examples=60)
    def test_map_compose_roundtrip(self, addr):
        mapper = AddressMapper()
        aligned = addr - addr % 64
        assert mapper.compose(mapper.map(addr)) == aligned

    def test_fields_within_bounds(self):
        mapper = AddressMapper()
        g = mapper.geometry
        for addr in range(0, 1 << 20, 64 * 17):
            m = mapper.map(addr)
            assert 0 <= m.channel < g.channels
            assert 0 <= m.rank < g.ranks_per_channel
            assert 0 <= m.bank < g.banks_per_rank
            assert 0 <= m.col < g.blocks_per_row
            assert 0 <= m.row < g.num_rows


class TestTiming:
    def test_latency_constants(self):
        t = DRAMTiming()
        assert t.row_hit_ns == pytest.approx((11 + 4) * 1.25)
        assert t.row_miss_ns == pytest.approx((11 + 11 + 11 + 4) * 1.25)

    def test_first_access_is_row_open_no_precharge(self):
        dram = DRAMSystem()
        timing = dram.access(0, False, 0.0)
        assert not timing.row_hit
        # Closed bank: activate + CAS + burst, no precharge.
        assert timing.latency_ns == pytest.approx((11 + 11 + 4) * 1.25)

    def test_second_access_same_row_hits(self):
        dram = DRAMSystem()
        first = dram.access(0, False, 0.0)
        second = dram.access(128, False, first.complete_ns)
        assert second.row_hit
        assert second.latency_ns == pytest.approx(DRAMTiming().row_hit_ns)

    def test_row_conflict_pays_precharge(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        base = mapper.map(0)
        conflict_addr = mapper.compose(base._replace(row=base.row + 1))
        first = dram.access(0, False, 0.0)
        # Wait out tRAS so only tRP + tRCD + CL + burst remain.
        start = first.complete_ns + 100.0
        second = dram.access(conflict_addr, False, start)
        assert not second.row_hit
        assert second.latency_ns == pytest.approx(DRAMTiming().row_miss_ns)

    def test_channel_bus_serialises_bursts(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        # Two addresses on the same channel, different banks, same start.
        a = mapper.compose(MappedAddress(channel=0, rank=0, bank=0, row=0, col=0))
        b = mapper.compose(MappedAddress(channel=0, rank=0, bank=1, row=0, col=0))
        ta = dram.access(a, False, 0.0)
        tb = dram.access(b, False, 0.0)
        burst = DRAMTiming().ns(DRAMTiming().burst_cycles)
        assert tb.complete_ns >= ta.complete_ns + burst - 1e-9

    def test_different_channels_overlap(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        a = mapper.compose(MappedAddress(channel=0, rank=0, bank=0, row=0, col=0))
        b = mapper.compose(MappedAddress(channel=1, rank=0, bank=0, row=0, col=0))
        ta = dram.access(a, False, 0.0)
        tb = dram.access(b, False, 0.0)
        assert ta.complete_ns == pytest.approx(tb.complete_ns)

    def test_stats_accumulate(self):
        dram = DRAMSystem()
        dram.access(0, False, 0.0)
        dram.access(128, True, 100.0)
        assert dram.stats.reads == 1 and dram.stats.writes == 1
        assert dram.stats.row_hits == 1 and dram.stats.row_misses == 1
        assert dram.stats.row_hit_rate == pytest.approx(0.5)

    def test_time_monotonicity(self):
        """Completions never precede their issue time."""
        import random

        dram = DRAMSystem()
        rng = random.Random(4)
        now = 0.0
        for _ in range(200):
            addr = rng.randrange(1 << 22) * 64
            timing = dram.access(addr, rng.random() < 0.3, now)
            assert timing.complete_ns > now
            now += rng.random() * 5


class TestPagePolicy:
    def test_closed_page_never_row_hits(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        dram = DRAMSystem(DRAMConfig(page_policy=PagePolicy.CLOSED))
        first = dram.access(0, False, 0.0)
        second = dram.access(128, False, first.complete_ns + 100.0)
        assert not second.row_hit
        assert dram.stats.row_hit_rate == 0.0

    def test_closed_page_honours_tras_trp(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        timing = DRAMTiming()
        dram = DRAMSystem(DRAMConfig(page_policy=PagePolicy.CLOSED))
        first = dram.access(0, False, 0.0)
        # Back-to-back to the same bank: the auto-precharge cycle
        # (tRAS + tRP from the activate) gates the next activate.
        second = dram.access(128, False, first.complete_ns)
        assert second.start_ns >= timing.ns(timing.tras + timing.trp) - 1e-9

    def test_open_beats_closed_on_sequential_runs(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        def total(policy):
            dram = DRAMSystem(DRAMConfig(page_policy=policy))
            t = 0.0
            for i in range(32):
                t = dram.access(i * 128, False, t).complete_ns
            return t

        assert total(PagePolicy.OPEN) < total(PagePolicy.CLOSED)


class TestBatchScheduling:
    def test_row_hits_scheduled_first(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        open_addr = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=5, col=0)
        )
        dram.access(open_addr, False, 0.0)  # opens row 5
        conflict = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=9, col=0)
        )
        hit = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=5, col=3)
        )
        results = dram.access_batch([(conflict, False), (hit, False)], 200.0)
        # Results keep request order, but the row hit completed first.
        assert results[1].complete_ns < results[0].complete_ns

    def test_batch_returns_all(self):
        dram = DRAMSystem()
        requests = [(i * 64, False) for i in range(10)]
        assert len(dram.access_batch(requests, 0.0)) == 10

    def test_batch_raises_on_dropped_request(self):
        """A scheduler that loses a request is an invariant violation, not
        a silently shorter result list (the old filter desynchronised the
        results from the request order)."""

        class DroppyDRAM(DRAMSystem):
            def service_wave(self, requests, now_ns):
                starts, completes, hits = super().service_wave(
                    requests, now_ns
                )
                return starts[:-1], completes[:-1], hits[:-1]

        dram = DroppyDRAM()
        with pytest.raises(RuntimeError, match="serviced 3 of 4"):
            dram.access_batch([(i * 64, False) for i in range(4)], 0.0)

    def test_batch_matches_scalar_order_and_timing(self):
        """access_batch through service_wave equals issuing the sorted
        row-hit-first order through the per-request reference."""
        reference = DRAMSystem()
        batch = DRAMSystem()
        warm = [(i * 64, False) for i in range(6)]
        for addr, write in warm:
            reference_access(reference, addr, write, 0.0)
        batch.access_batch(warm, 0.0)
        requests = [(i * 64, i % 2 == 0) for i in range(8)]
        order = sorted(
            range(len(requests)),
            key=lambda i: (not reference.would_row_hit(requests[i][0]), i),
        )
        expected = [None] * len(requests)
        for i in order:
            addr, write = requests[i]
            expected[i] = reference_access(reference, addr, write, 1000.0)
        got = batch.access_batch(requests, 1000.0)
        assert got == expected


class TestTimingValidation:
    def test_trfc_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DRAMTiming(trfc_ns=-1.0)

    def test_refresh_window_must_fit_interval(self):
        with pytest.raises(ValueError, match="tRFC"):
            DRAMTiming(trefi_ns=100.0, trfc_ns=100.0)
        with pytest.raises(ValueError, match="tRFC"):
            DRAMTiming(trefi_ns=100.0, trfc_ns=250.0)

    def test_zero_trefi_disables_refresh(self):
        timing = DRAMTiming(trefi_ns=0.0, trfc_ns=260.0)
        dram = DRAMSystem(DRAMConfig(timing=timing))
        assert dram.access(0, False, 123.456).start_ns == 123.456

    def test_valid_window_accepted(self):
        DRAMTiming(trefi_ns=7800.0, trfc_ns=7799.0)


class TestRefreshWindowEdges:
    """Refresh push at exactly the window boundaries: the start time of an
    access issued at ``t`` to an idle bank."""

    def _start(self, t_ns):
        dram = DRAMSystem(
            DRAMConfig(timing=DRAMTiming(trefi_ns=1000.0, trfc_ns=100.0))
        )
        start = dram.access(0, False, t_ns).start_ns
        assert start == after_refresh(dram.config.timing, t_ns)
        return start

    def test_just_before_window_untouched(self):
        assert self._start(899.999) == 899.999

    def test_exactly_on_window_edge_pushed(self):
        # position == trefi - trfc is the first instant *inside* the
        # refresh window: pushed to the next interval boundary.
        assert self._start(900.0) == 1000.0

    def test_inside_window_pushed(self):
        assert self._start(950.0) == 1000.0

    def test_exactly_on_interval_boundary_untouched(self):
        # position == 0: the refresh just finished; commands may start.
        assert self._start(1000.0) == 1000.0

    def test_later_interval_edge(self):
        assert self._start(2900.0) == 3000.0


@settings(max_examples=40, deadline=None)
@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 16),
            st.booleans(),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=60,
    ),
    policy=st.sampled_from(list(PagePolicy)),
    trefi_ns=st.sampled_from([0.0, 300.0, 7800.0]),
)
def test_access_matches_per_request_reference(requests, policy, trefi_ns):
    """Random request streams through ``access`` (one-request waves of the
    kernel) and through the independent per-request reference leave
    identical timings, bank state and stats."""
    config = DRAMConfig(
        page_policy=policy,
        timing=DRAMTiming(trefi_ns=trefi_ns, trfc_ns=min(260.0, trefi_ns / 2)),
    )
    kernel = DRAMSystem(config)
    reference = DRAMSystem(config)
    now = 0.0
    for block, write, gap in requests:
        now += gap
        addr = block * 64
        assert kernel.access(addr, write, now) == reference_access(
            reference, addr, write, now
        )
    assert kernel.stats == reference.stats
    assert kernel._bus_free_ns == reference._bus_free_ns
    assert kernel._act_history == reference._act_history
