"""Record the per-seed reference digests of the Fig. 11 sweep.

Usage (from the root of a checkout)::

    python3 perfbench/record_refs.py

Runs the real-content engine (``sim_child.py real``) once per reference
seed and writes ``perfbench/refs/fig11_smoke.json``: one digest per job,
in job order.  Re-record only when a change is *meant* to alter
simulated results; the benchmark counts every differing job as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import common
import simbench

#: Reference seeds recorded at once, one sweep process each.
RECORD_WORKERS = 2


def record(seed: int, run_dir, env) -> dict:
    return simbench.run_sweep("real", seed, run_dir, env, f"ref{seed}")


def main() -> int:
    run_dir = common.make_run_dir("record-refs")
    env = common.child_env(run_dir)
    seeds = range(simbench.REF_SEEDS)
    with ThreadPoolExecutor(max_workers=RECORD_WORKERS) as pool:
        runs = list(pool.map(lambda s: record(s, run_dir, env), seeds))
    refs = {
        "engine": "real",
        "scale": "smoke",
        "labels": runs[0]["labels"],
        "seeds": {str(seed): run["digests"] for seed, run in zip(seeds, runs)},
    }
    simbench.REFS.parent.mkdir(exist_ok=True)
    simbench.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"wrote {simbench.REFS} ({len(runs)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
