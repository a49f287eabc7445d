"""``fig11-real`` / ``fig11-oracle``: the Fig. 11 sweep, one fresh process per sweep.

Each sweep runs ``sim_child.py`` in a new process, so nothing (imports,
the oracle's process-level classification store) carries over from one
sweep to the next.  A run repeats sweeps until ``--seconds`` is used up
(at least ``MIN_SWEEPS``) and reports medians.  Every job's result is
checked against the reference digests recorded from the real-content
engine in ``refs/fig11_smoke.json``; a differing job is a failed op.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, child_env, median, metric, python_cmd, wait_with_rusage

ENGINES = {"fig11-real": "real", "fig11-oracle": "oracle"}
REFS = HERE / "refs" / "fig11_smoke.json"
#: Recorded reference seeds; the workload seed picks one of them.
REF_SEEDS = 32
MIN_SWEEPS = 3
SWEEP_TIMEOUT_S = 170.0


class SweepFailed(RuntimeError):
    pass


def sim_seed(seed: int) -> int:
    """Simulation seed generated from the workload seed."""
    return seed % REF_SEEDS


def reference(seed: int) -> List[str]:
    refs = json.loads(REFS.read_text())
    return refs["seeds"][str(sim_seed(seed))]


def run_sweep(engine: str, seed: int, run_dir: Path, env: Dict[str, str], tag: str,
              spans: Optional[Path] = None) -> dict:
    out = run_dir / f"sweep-{tag}.json"
    args = [engine, str(sim_seed(seed)), "", str(out)]
    if spans is not None:
        args.append(str(spans))
    with open(run_dir / f"sweep-{tag}.log", "wb") as log:
        args[2] = str(time.perf_counter_ns())
        proc = subprocess.Popen(
            python_cmd("sim_child.py", *args), env=env,
            stdout=subprocess.DEVNULL, stderr=log,
        )
    code, usage = wait_with_rusage(proc, SWEEP_TIMEOUT_S)
    if code != 0 or not out.is_file():
        raise SweepFailed(f"sweep {tag} exited with {code}; see {run_dir}/sweep-{tag}.log")
    data = json.loads(out.read_text())
    data["maxrss_kb"] = usage.ru_maxrss
    return data


def mismatches(data: dict, expected: List[str]) -> int:
    got = data["digests"]
    if len(got) != len(expected):
        return len(expected)
    return sum(1 for a, b in zip(got, expected) if a != b)


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    engine = ENGINES[workload]
    env = child_env(run_dir)
    expected = reference(seed)
    sweeps: List[dict] = []
    attempted = failed = 0
    began = time.monotonic()
    while True:
        attempted += len(expected)
        try:
            data = run_sweep(engine, seed, run_dir, env, str(len(sweeps)))
        except SweepFailed as exc:
            print(f"[{workload}] {exc}", flush=True)
            failed += len(expected)
            break
        failed += mismatches(data, expected)
        sweeps.append(data)
        spent = time.monotonic() - began
        per_sweep = spent / len(sweeps)
        if len(sweeps) >= MIN_SWEEPS and spent + per_sweep > seconds:
            break
    if not sweeps:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    sweep_s = [d["sweep_ns"] / 1e9 for d in sweeps]
    print(
        f"[{workload}] seed {seed} -> sim seed {sim_seed(seed)}: {len(sweeps)} sweeps "
        + " ".join(f"{s:.3f}s" for s in sweep_s),
        flush=True,
    )

    jobs = len(expected)
    metrics = {
        "setup_s": metric(median([d["setup_ns"] / 1e9 for d in sweeps]), "s"),
        "sweep_s": metric(median(sweep_s), "s"),
        "cpu_ms_per_op": metric(median([d["cpu_ns"] / 1e6 / jobs for d in sweeps]), "ms"),
        "peak_rss_mb": metric(median([d["maxrss_kb"] / 1024 for d in sweeps]), "MB"),
        "ops_ok_frac": metric(1 - failed / attempted, "fraction"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def sim_layers(spans_path: Path, data: dict, plain_sweep_ns: int) -> Dict[str, float]:
    """Per-layer simulator metrics from one traced sweep's spans."""
    from tracing import Spans

    s = Spans(spans_path)
    layer = s.layer_of(s.name)
    parent_layer = s.layer_of(s.parent)
    out: Dict[str, float] = {}

    def self_s(name: str) -> float:
        return float(s.self_ns[layer == name].sum() / 1e9)

    def top_calls(name: str):
        return (layer == name) & (parent_layer != name)

    for name in (
        "codec", "controller", "workloads.blocks", "workloads.tracegen",
        "cache.llc", "memory.dram", "simulation.engine", "simulation.oracle",
        "experiments.runner",
    ):
        out[f"{name}.self_s"] = self_s(name)
    codec_top = top_calls("codec")
    out["codec.calls"] = float(codec_top.sum())
    out["codec.rows_per_call"] = float(s.count[codec_top].sum() / max(1, codec_top.sum()))
    out["controller.calls"] = float(top_calls("controller").sum())
    out["workloads.blocks.calls"] = float((layer == "workloads.blocks").sum())
    accesses = float(s.count[layer == "workloads.tracegen"].sum())
    out["workloads.tracegen.accesses"] = accesses
    llc = layer == "cache.llc"
    lookups = s.named("cache.llc|lookup")
    out["cache.llc.calls"] = float(llc.sum())
    out["cache.llc.hit_ratio"] = float(s.count[lookups].sum() / max(1, lookups.sum()))
    dram = layer == "memory.dram"
    out["memory.dram.calls"] = float(dram.sum())
    out["memory.dram.requests_per_call"] = float(s.count[dram].sum() / max(1, dram.sum()))
    requests = data["dram_requests"]
    out["memory.dram.row_hit_ratio"] = data["dram_row_hits"] / requests if requests else 0.0
    out["simulation.ns_per_access"] = plain_sweep_ns / accesses if accesses else 0.0
    kinds = s.named("simulation.oracle|kind")
    kind_ids = s.ids(lambda n: n == "simulation.oracle|kind")
    lazy = (layer == "workloads.blocks") & (s.parent == (kind_ids[0] if kind_ids.size else -2))
    out["simulation.oracle.classify_ratio"] = float(lazy.sum() / kinds.sum()) if kinds.any() else 0.0
    # Unexplained: the self time of the two catch-all spans (the sweep
    # loop of run_jobs and the engine loop of MultiCoreSystem.run) plus
    # sweep time outside any span, over the untraced sweep time.
    wall = s.extra["sweep_end"] - s.extra["sweep_start"]
    roots = s.named("experiments.runner|run_jobs") | s.named("simulation.engine|run")
    outside = wall - int(s.duration[s.parent == -1].sum())
    unexplained = int(s.self_ns[roots].sum()) + max(0, outside)
    out["sim.unattributed_share"] = unexplained / plain_sweep_ns
    return out


def run_traced(workload: str, seed: int, run_dir: Path, spans: Path) -> dict:
    """One plain and one traced sweep, each in a fresh process."""
    engine = ENGINES[workload]
    env = child_env(run_dir)
    expected = reference(seed)
    plain = run_sweep(engine, seed, run_dir, env, "plain")
    traced = run_sweep(engine, seed, run_dir, env, "traced", spans=spans)
    failed = mismatches(plain, expected) + mismatches(traced, expected)
    layers = sim_layers(spans, traced, plain["sweep_ns"])
    layers["trace.overhead_ratio"] = traced["sweep_ns"] / plain["sweep_ns"]
    return {"attempted": 2 * len(expected), "failed": failed, "layers": layers}
