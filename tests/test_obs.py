"""Unit tests for the observability subsystem (repro.obs)."""

import io
import json

import pytest

from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    EventTracer,
    MetricsRegistry,
    NullTracer,
    Observability,
    get_obs,
    render_tree,
    set_obs,
    summarize_trace,
)
from repro.obs.metrics import DEFAULT_PERCENTILES, Histogram
from repro.obs import profile as profile_module
from repro.obs.profile import NullProfiler, Profiler
from repro.obs.trace import TraceShardSpec, derive_shard_seed


class TestRegistry:
    def test_counter_create_increment_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("controller.reads").inc()
        registry.inc("controller.reads", 4)
        registry.inc("dram.row_hits")
        snap = registry.snapshot()
        assert snap["counters"]["controller.reads"] == 5
        assert snap["counters"]["dram.row_hits"] == 1

    def test_counter_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_gauge_set_and_max(self):
        registry = MetricsRegistry()
        registry.set_gauge("llc.pinned_lines", 3)
        registry.gauge("llc.pinned_lines").max(1)  # lower: keeps 3
        assert registry.snapshot()["gauges"]["llc.pinned_lines"] == 3

    def test_delta(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 10)
        before = registry.snapshot()
        registry.inc("a.b", 7)
        registry.inc("a.c", 2)
        delta = MetricsRegistry.delta(before, registry.snapshot())
        assert delta["counters"]["a.b"] == 7
        assert delta["counters"]["a.c"] == 2

    def test_merge_registries(self):
        """Merging per-core registries sums counters, maxes gauges."""
        core0, core1 = MetricsRegistry(), MetricsRegistry()
        core0.inc("dram.reads", 5)
        core1.inc("dram.reads", 7)
        core0.set_gauge("peak", 10)
        core1.set_gauge("peak", 4)
        core0.observe("lat", 1.0)
        core1.observe("lat", 100.0)
        merged = MetricsRegistry().merge(core0).merge(core1)
        snap = merged.snapshot()
        assert snap["counters"]["dram.reads"] == 12
        assert snap["gauges"]["peak"] == 10
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["min"] == 1.0
        assert snap["histograms"]["lat"]["max"] == 100.0

    def test_merge_accepts_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.inc("x", 3)
        other = MetricsRegistry().merge(registry.snapshot())
        assert other.counter("x").value == 3

    def test_update_counters_idempotent(self):
        registry = MetricsRegistry()
        registry.update_counters("controller", {"reads": 10})
        registry.update_counters("controller", {"reads": 10})
        assert registry.counter("controller.reads").value == 10

    def test_render_tree_groups_by_dots(self):
        registry = MetricsRegistry()
        registry.inc("dram.row_hits", 3)
        registry.inc("dram.row_misses", 1)
        registry.inc("llc.hits", 9)
        text = registry.render_tree()
        assert "dram" in text and "llc" in text
        assert "row_hits" in text
        # Children are indented under their parent namespace.
        lines = text.splitlines()
        dram_index = lines.index("dram")
        assert lines[dram_index + 1].startswith("  ")

    def test_render_tree_empty(self):
        assert "no metrics" in render_tree({"counters": {}})


class TestHistogram:
    def test_count_total_min_max_mean(self):
        hist = Histogram("lat")
        for value in (1.0, 2.0, 4.0, 8.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 15.0
        assert hist.min == 1.0
        assert hist.max == 8.0
        assert hist.mean == pytest.approx(3.75)

    def test_percentiles_monotone_and_bounded(self):
        hist = Histogram("lat")
        for value in range(1, 1001):
            hist.observe(float(value))
        p50, p90, p99 = (hist.percentile(p) for p in (50, 90, 99))
        assert hist.min <= p50 <= p90 <= p99 <= hist.max
        # Log2 buckets: estimates land within a factor of 2 of the truth.
        assert 250 <= p50 <= 1000
        assert p99 >= 500

    def test_percentile_deterministic(self):
        a, b = Histogram("x"), Histogram("x")
        for value in (3.0, 7.0, 120.0, 5000.0):
            a.observe(value)
            b.observe(value)
        assert a.percentile(90) == b.percentile(90)
        assert a.as_dict() == b.as_dict()

    def test_empty_percentile(self):
        assert Histogram("x").percentile(99) == 0.0
        assert Histogram("x").as_dict() == {"count": 0}

    def test_merge_dict_roundtrip(self):
        a, b = Histogram("x"), Histogram("x")
        for value in (1.0, 10.0):
            a.observe(value)
        b.merge_dict(a.as_dict())
        b.merge_dict(a.as_dict())
        assert b.count == 4
        assert b.min == 1.0 and b.max == 10.0

    def test_default_percentiles_include_p999_sum_mean(self):
        assert 99.9 in DEFAULT_PERCENTILES
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.observe(float(value))
        data = hist.as_dict()
        assert {"p50", "p90", "p99", "p99.9", "sum", "mean"} <= set(data)
        assert data["sum"] == data["total"] == hist.total
        assert data["mean"] == pytest.approx(hist.mean)
        assert data["p99"] <= data["p99.9"] <= data["max"]

    def test_custom_percentiles(self):
        hist = Histogram("lat", percentiles=(25.0, 75.0))
        for value in range(1, 101):
            hist.observe(float(value))
        data = hist.as_dict()
        assert "p25" in data and "p75" in data
        assert "p50" not in data
        # A custom-percentile snapshot still merges losslessly (buckets,
        # not the derived percentiles, carry the distribution).
        other = Histogram("lat")
        other.merge_dict(data)
        assert other.count == 100
        assert other.as_dict()["p50"] > 0

    def test_merge_accepts_sum_only_snapshot(self):
        hist = Histogram("x")
        hist.merge_dict({"count": 2, "sum": 6.0, "min": 1.0, "max": 5.0})
        assert hist.total == 6.0

    def test_registry_histogram_percentiles_pass_through(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", percentiles=(10.0,))
        assert hist.percentiles == (10.0,)
        assert registry.histogram("lat") is hist


class TestTracer:
    def test_jsonl_events_parse(self):
        sink = io.StringIO()
        tracer = EventTracer(sink)
        tracer.emit("access", addr=64, latency_ns=31.25)
        with tracer.span("phase1"):
            pass
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert records[0]["kind"] == "access"
        assert records[0]["addr"] == 64
        assert records[1]["kind"] == "span"
        assert records[1]["name"] == "phase1"
        assert "wall_ms" in records[1]

    def test_sampling_deterministic_under_fixed_seed(self):
        def kept(seed):
            sink = io.StringIO()
            tracer = EventTracer(sink, sample_rate=0.3, seed=seed)
            return [
                i for i in range(200) if tracer.emit("access", index=i)
            ]

        assert kept(seed=42) == kept(seed=42)
        assert kept(seed=42) != kept(seed=43)

    def test_sampling_rate_respected(self):
        sink = io.StringIO()
        tracer = EventTracer(sink, sample_rate=0.1, seed=1)
        for i in range(2000):
            tracer.emit("access", index=i)
        assert 100 < tracer.emitted < 320
        assert tracer.emitted + tracer.dropped == 2000

    def test_spans_never_sampled_out(self):
        sink = io.StringIO()
        tracer = EventTracer(sink, sample_rate=0.0, seed=1)
        with tracer.span("always"):
            pass
        assert '"span"' in sink.getvalue()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(io.StringIO(), sample_rate=1.5)

    def test_file_sink_and_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventTracer(path) as tracer:
            tracer.emit("access", latency_ns=10.0)
            tracer.emit("access", latency_ns=30.0)
            tracer.emit("writeback", addr=128)
            with tracer.span("run"):
                pass
        summary = summarize_trace(path)
        assert summary["events"] == 4
        assert summary["by_kind"] == {"access": 2, "writeback": 1, "span": 1}
        assert summary["latency_ns"]["count"] == 2
        assert summary["spans"]["run"]["count"] == 1

    def test_summary_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "access"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            summarize_trace(path)

    def test_null_tracer_is_silent(self):
        tracer = NullTracer()
        assert tracer.emit("access") is False
        with tracer.span("x"):
            pass
        assert not tracer.enabled


class TestTraceSharding:
    def test_deterministic_span_omits_wall_ms(self):
        sink = io.StringIO()
        tracer = EventTracer(sink, deterministic=True)
        with tracer.span("phase"):
            pass
        (record,) = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert record["kind"] == "span"
        assert "wall_ms" not in record

    def test_static_fields_stamped_on_every_record(self):
        sink = io.StringIO()
        tracer = EventTracer(sink, static_fields={"job": 3})
        tracer.emit("access", addr=1)
        with tracer.span("run"):
            pass
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert all(r["job"] == 3 for r in records)

    def test_absorb_renumbers_seq_in_order(self, tmp_path):
        spec = TraceShardSpec(directory=str(tmp_path))
        for index in (0, 1):
            shard = spec.tracer_for(index)
            shard.emit("access", addr=index * 10)
            shard.emit("access", addr=index * 10 + 1)
            shard.close()
        sink = io.StringIO()
        parent = EventTracer(sink)
        parent.emit("preamble")
        absorbed = parent.absorb(
            [spec.shard_path(0), spec.shard_path(1), spec.shard_path(2)]
        )
        assert absorbed == 4  # missing shard 2 skipped
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert [r.get("job") for r in records] == [None, 0, 0, 1, 1]
        assert parent.emitted == 5

    def test_shard_seeds_differ_per_index_and_are_stable(self):
        assert derive_shard_seed(0, 1) != derive_shard_seed(0, 2)
        assert derive_shard_seed(0, 1) != derive_shard_seed(1, 1)
        assert derive_shard_seed(7, 3) == derive_shard_seed(7, 3)

    def test_tracer_for_truncates_on_reopen(self, tmp_path):
        spec = TraceShardSpec(directory=str(tmp_path))
        first = spec.tracer_for(0)
        first.emit("access", attempt=1)
        first.close()
        second = spec.tracer_for(0)
        second.emit("access", attempt=2)
        second.close()
        lines = spec.shard_path(0).read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["attempt"] == 2

    def test_null_tracer_absorb_is_noop(self, tmp_path):
        assert NullTracer().absorb([tmp_path / "missing.jsonl"]) == 0


class TestProfiler:
    def test_phase_timing_and_counts(self):
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        with profiler.phase("run"):
            pass
        profiler.count("misses", 5)
        summary = profiler.summary()
        assert summary["phases"]["run"]["calls"] == 2
        assert summary["phases"]["run"]["seconds"] >= 0.0
        assert summary["counts"]["misses"] == 5
        assert "run" in profiler.report()

    def test_publish_into_registry(self):
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        profiler.count("misses", 3)
        registry = MetricsRegistry()
        profiler.publish(registry)
        snap = registry.snapshot()
        assert snap["counters"]["profile.misses"] == 3
        assert "profile.run.seconds" in snap["gauges"]

    def test_phases_accumulate_exact_ns_on_the_perf_clock(self, monkeypatch):
        """Integer ns sums: 0.1 s + 0.2 s of phase time reads exactly 0.3 s
        (float accumulation would give 0.30000000000000004)."""
        ticks = iter([10, 100_000_010, 200_000_000, 400_000_000, 500, 2_000])
        monkeypatch.setattr(profile_module, "now_ns", lambda: next(ticks))
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        with profiler.phase("run"):
            pass
        with profiler.phase("tail"):
            pass
        assert profiler.phase_ns == {"run": 300_000_000, "tail": 1_500}
        assert profiler.phase_seconds == {"run": 0.3, "tail": 1.5e-6}
        assert profiler.summary()["phases"]["run"] == {"calls": 2, "seconds": 0.3}
        registry = MetricsRegistry()
        profiler.publish(registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["profile.run.seconds"] == 0.3
        assert gauges["profile.tail.seconds"] == 1.5e-6
        assert "run                           2       0.3000" in profiler.report()

    def test_null_profiler_noop(self):
        profiler = NullProfiler()
        with profiler.phase("x"):
            pass
        profiler.count("x")
        assert profiler.summary() == {"phases": {}, "counts": {}}


class TestObservabilityBundle:
    def test_null_obs_disabled_and_empty(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.snapshot() == {}
        NULL_OBS.metrics.inc("anything")
        assert NULL_REGISTRY.snapshot()["counters"] == {}

    def test_create_is_enabled(self):
        obs = Observability.create()
        assert obs.enabled
        obs.metrics.inc("x")
        assert obs.snapshot()["counters"]["x"] == 1

    def test_from_env_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert Observability.from_env() is NULL_OBS

    def test_from_env_enabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        obs = Observability.from_env()
        assert obs.enabled
        assert obs.trace.sample_rate == 0.5
        obs.close()

    def test_get_set_obs(self):
        try:
            obs = Observability.create()
            set_obs(obs)
            assert get_obs() is obs
        finally:
            set_obs(NULL_OBS)


class TestStatsViews:
    def test_controller_stats_as_dict_covers_all_fields(self):
        from dataclasses import fields

        from repro.core.controller import ControllerStats

        stats = ControllerStats(reads=3, alias_rejects=1)
        data = stats.as_dict()
        assert data["reads"] == 3
        assert data["alias_rejects"] == 1
        assert set(data) == {f.name for f in fields(ControllerStats)}

    def test_controller_stats_merge(self):
        from repro.core.controller import ControllerStats

        a = ControllerStats(reads=3, writes=2)
        b = ControllerStats(reads=4, ecc_block_reads=5)
        a.merge(b)
        assert a.reads == 7
        assert a.writes == 2
        assert a.ecc_block_reads == 5

    def test_cache_and_dram_stats_views(self):
        from repro.cache.cache import CacheStats
        from repro.memory.dram import DRAMStats

        cache = CacheStats(hits=2, misses=1)
        cache.merge(CacheStats(hits=1, alias_pins=4))
        assert cache.hits == 3 and cache.alias_pins == 4

        dram = DRAMStats(reads=5, row_hits=3, row_misses=2)
        dram.per_bank[(0, 0, 1)] = [3, 2]
        other = DRAMStats(reads=1, row_hits=1)
        other.per_bank[(0, 0, 1)] = [1, 0]
        dram.merge(other)
        assert dram.reads == 6
        assert dram.per_bank[(0, 0, 1)] == [4, 2]
        assert dram.as_dict()["accesses"] == 6

    def test_scorecard_controller_view_roundtrip(self):
        from repro.core.controller import ControllerStats
        from repro.experiments.report import controller_stats_from_snapshot

        stats = ControllerStats(reads=9, alias_rejects=2)
        registry = MetricsRegistry()
        registry.update_counters("controller", stats.as_dict())
        rebuilt = controller_stats_from_snapshot(registry.snapshot())
        assert rebuilt.as_dict() == stats.as_dict()
