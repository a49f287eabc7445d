"""Tests for the parallel experiment runner and its result cache."""

import json
import multiprocessing
import os

import pytest

from repro.core.config import COPConfig
from repro.core.controller import ProtectionMode
from repro.experiments import runner
from repro.experiments.common import Scale
from repro.experiments.runner import ResultCache, SimJob, SimResult, run_jobs
from repro.obs import Observability

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method; runner falls back to serial",
)


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    """Fresh results dir, no env/config leakage between tests."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    runner.reset()
    yield
    runner.reset()


def smoke_jobs():
    """A tiny mixed batch: two rate-mode runs and one heterogeneous mix."""
    return [
        SimJob(
            benchmark="gcc",
            mode=ProtectionMode.COP,
            scale=Scale.SMOKE,
            cores=1,
            track=False,
        ),
        SimJob(
            benchmark="mcf",
            mode=ProtectionMode.COP_ER,
            scale=Scale.SMOKE,
            cores=1,
            track=True,
        ),
        SimJob(
            benchmark=("gcc", "mcf"),
            mode=ProtectionMode.COP,
            scale=Scale.SMOKE,
            cores=2,
            seed=7,
        ),
    ]


class TestJobKeys:
    def test_key_is_stable(self):
        job = SimJob(benchmark="gcc", mode=ProtectionMode.COP)
        assert job.key() == job.key()
        clone = SimJob(benchmark="gcc", mode=ProtectionMode.COP)
        assert clone.key() == job.key()
        assert len(job.key()) == 64
        int(job.key(), 16)  # hex digest

    def test_key_distinguishes_every_field(self):
        base = SimJob(benchmark="gcc", mode=ProtectionMode.COP)
        variants = [
            SimJob(benchmark="mcf", mode=ProtectionMode.COP),
            SimJob(benchmark="gcc", mode=ProtectionMode.COP_ER),
            SimJob(benchmark="gcc", mode=ProtectionMode.COP, scale=Scale.FULL),
            SimJob(benchmark="gcc", mode=ProtectionMode.COP, cores=2),
            SimJob(benchmark="gcc", mode=ProtectionMode.COP, seed=12),
            SimJob(benchmark="gcc", mode=ProtectionMode.COP, track=False),
            SimJob(
                benchmark="gcc",
                mode=ProtectionMode.COP,
                cop_config=COPConfig.eight_byte(),
            ),
            SimJob(benchmark=("gcc",), mode=ProtectionMode.COP),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_covers_metrics_collection(self):
        job = SimJob(benchmark="gcc", mode=ProtectionMode.COP)
        assert job.key(obs=False) != job.key(obs=True)

    def test_mix_label_and_spec(self):
        job = smoke_jobs()[2]
        assert job.is_mix
        assert job.label().startswith("gcc+mcf/")
        assert json.dumps(job.spec())  # JSON-serialisable as-is


class TestResultCache:
    def test_roundtrip_hits_second_run(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        jobs = smoke_jobs()
        first = run_jobs(jobs, workers=1, cache=cache)
        assert (cache.hits, cache.stores) == (0, len(jobs))
        second = run_jobs(jobs, workers=1, cache=cache)
        assert cache.hits == len(jobs)
        assert second == first

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        (first,) = run_jobs([job], workers=1, cache=cache)
        path = cache.path_for(job.key())
        path.write_bytes(b"not a pickle")
        assert cache.load(job.key()) is None
        assert cache.corrupt == 1
        (again,) = run_jobs([job], workers=1, cache=cache)
        assert again == first

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", enabled=False)
        run_jobs(smoke_jobs()[:1], workers=1, cache=cache)
        assert cache.stores == 0
        assert not (tmp_path / "cache").exists()

    def test_use_cache_false_overrides_given_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        run_jobs(smoke_jobs()[:1], workers=1, use_cache=False, cache=cache)
        assert not (tmp_path / "cache").exists()

    def test_store_syncs_entry_before_rename_then_directory(
        self, tmp_path, monkeypatch
    ):
        """A cache entry's bytes are durable before the rename names them;
        the rename, and every directory the store creates, is synced after."""
        job = smoke_jobs()[0]
        (result,) = run_jobs([job], workers=1, use_cache=False)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            stat = os.fstat(fd)
            events.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        def recording_replace(src, dst, **kwargs):
            events.append("replace")
            real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        cache = ResultCache(root=tmp_path / "cache")
        cache.store(job.key(), result)
        path = cache.path_for(job.key())

        def key(p):
            stat = os.stat(p)
            return (stat.st_dev, stat.st_ino)

        created = [p for p in path.parents if tmp_path in p.parents]
        expected = [key(p.parent) for p in reversed(created)]
        expected += [key(path), "replace", key(path.parent)]
        assert events == expected
        assert cache.load(job.key()) == result

    def test_code_salt_changes_invalidate(self, monkeypatch):
        job = smoke_jobs()[0]
        before = job.key()
        monkeypatch.setattr(runner, "_code_salt", "different-code")
        assert job.key() != before


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert runner.resolve_workers() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert runner.resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runner.resolve_workers() == 3

    def test_bad_env_warns_once_and_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        obs = Observability.create()
        from repro.obs import set_obs

        set_obs(obs)
        try:
            assert runner.resolve_workers() == 1
            assert runner.resolve_workers() == 1
        finally:
            set_obs(None)
        err = capsys.readouterr().err
        assert err.count("REPRO_JOBS") == 1  # warned exactly once
        snapshot = obs.snapshot()
        assert (
            snapshot["counters"]["runner.config.invalid_env.repro_jobs"] == 2
        )

    def test_configure_between_explicit_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        runner.configure(workers=2)
        assert runner.resolve_workers() == 2
        assert runner.resolve_workers(4) == 4

    def test_floor_of_one(self):
        assert runner.resolve_workers(0) == 1
        assert runner.resolve_workers(-3) == 1

    def test_cache_policy_precedence(self, monkeypatch):
        assert runner.cache_enabled() is True
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert runner.cache_enabled() is False
        assert runner.cache_enabled(True) is True
        runner.configure(use_cache=True)
        assert runner.cache_enabled() is True


class TestDeterminism:
    @needs_fork
    def test_parallel_results_identical_to_serial(self):
        jobs = smoke_jobs()
        serial = run_jobs(jobs, workers=1, use_cache=False)
        parallel = run_jobs(jobs, workers=4, use_cache=False)
        assert parallel == serial
        assert all(isinstance(r, SimResult) for r in parallel)

    @needs_fork
    def test_merged_metrics_identical_to_serial(self):
        jobs = smoke_jobs()
        serial_obs = Observability.create()
        parallel_obs = Observability.create()
        serial = run_jobs(jobs, workers=1, use_cache=False, obs=serial_obs)
        parallel = run_jobs(jobs, workers=4, use_cache=False, obs=parallel_obs)
        assert parallel == serial
        s, p = serial_obs.snapshot(), parallel_obs.snapshot()
        assert s["counters"]  # metrics actually collected
        assert json.dumps(p, sort_keys=True) == json.dumps(s, sort_keys=True)

    def test_cached_replay_merges_same_metrics(self, tmp_path):
        jobs = smoke_jobs()[:2]
        cache = ResultCache(root=tmp_path / "cache")
        live_obs = Observability.create()
        live = run_jobs(jobs, workers=1, obs=live_obs, cache=cache)
        replay_obs = Observability.create()
        replay = run_jobs(jobs, workers=1, obs=replay_obs, cache=cache)
        assert cache.hits == len(jobs)
        assert replay == live
        assert json.dumps(replay_obs.snapshot(), sort_keys=True) == json.dumps(
            live_obs.snapshot(), sort_keys=True
        )

    def test_wallclock_gauges_are_stripped(self):
        obs = Observability.create()
        (result,) = run_jobs(
            smoke_jobs()[:1], workers=1, use_cache=False, obs=obs
        )
        assert result.metrics["counters"]
        assert not [
            name
            for name in result.metrics.get("gauges", {})
            if name.startswith("profile.") and name.endswith(".seconds")
        ]

    def test_tracing_bypasses_cache(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        obs = Observability.create(trace_sink=str(trace_path))
        cache = ResultCache(root=tmp_path / "cache")
        run_jobs(smoke_jobs()[:1], workers=4, obs=obs, cache=cache)
        obs.close()
        assert cache.stores == 0  # bypassed: a cached hit emits no events
        assert trace_path.exists() and trace_path.stat().st_size > 0

    @needs_fork
    def test_parallel_trace_byte_identical_to_serial(self, tmp_path):
        """--trace composes with --jobs: the merged shard stream equals
        the serial stream byte for byte (no wall times, no pids; per-job
        records stamped with the job index and merged in job order)."""
        jobs = smoke_jobs()
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial_obs = Observability.create(trace_sink=str(serial_path))
        serial = run_jobs(jobs, workers=1, obs=serial_obs)
        serial_obs.close()
        parallel_obs = Observability.create(trace_sink=str(parallel_path))
        parallel = run_jobs(jobs, workers=4, obs=parallel_obs)
        parallel_obs.close()
        assert parallel == serial
        serial_bytes = serial_path.read_bytes()
        assert serial_bytes  # events were actually captured
        assert parallel_path.read_bytes() == serial_bytes
        records = [
            json.loads(line)
            for line in serial_bytes.decode().splitlines()
        ]
        assert {r["job"] for r in records} == set(range(len(jobs)))
        assert [r["seq"] for r in records] == list(
            range(1, len(records) + 1)
        )
        assert not any("wall_ms" in r for r in records)

    @needs_fork
    def test_sampled_parallel_trace_matches_serial(self, tmp_path):
        """Sampling draws from per-job seeded PRNGs, so the kept-set is
        schedule-independent too."""
        jobs = smoke_jobs()[:2]
        paths = {
            "serial": tmp_path / "serial.jsonl",
            "parallel": tmp_path / "parallel.jsonl",
        }
        for name, workers in (("serial", 1), ("parallel", 4)):
            obs = Observability.create(
                trace_sink=str(paths[name]), sample_rate=0.25, seed=11
            )
            run_jobs(jobs, workers=workers, obs=obs)
            obs.close()
        assert paths["parallel"].read_bytes() == paths["serial"].read_bytes()

    def test_harness_parallel_equals_serial(self, tmp_path, monkeypatch):
        """End-to-end: a ported figure harness renders byte-identical
        tables whichever way its matrix executes."""
        from repro.experiments import fig12_ecc_storage

        serial = fig12_ecc_storage.run(Scale.SMOKE, workers=1, use_cache=False)
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork; parallel path unavailable")
        parallel = fig12_ecc_storage.run(
            Scale.SMOKE, workers=2, use_cache=False
        )
        assert parallel.to_text() == serial.to_text()
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
