"""The service path is numpy-free.

COP's controller and the daemon that serves it work one 64-byte block at
a time through the scalar codec; only bulk helpers (``BatchCodec``, the
alias census, the simulator) need numpy.  Importing numpy costs the
daemon most of its cold start, so ``repro``, the CLI and the service
server must load without it, and a daemon serving write / read / encode
/ decode must never import it.  The check runs in a fresh interpreter:
this test process has long since imported numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

import repro
import repro.experiments.cli
import repro.service.server

out = {"numpy_after_import": "numpy" in sys.modules}

from repro.core.controller import ProtectionMode
from repro.service import COPService, Request, ServiceConfig, Status

service = COPService(
    ServiceConfig(shards=4, mode=ProtectionMode.COP, wal_dir=sys.argv[1])
)
service.start()
try:
    checks = []
    for i in range(16):
        data = (b"block %d " % i).ljust(64, b".") if i % 2 else bytes(range(i, i + 64))
        wrote = service.call(Request("write", id=4 * i, addr=64 * i, data=data))
        read = service.call(Request("read", id=4 * i + 1, addr=64 * i))
        encoded = service.call(Request("encode", id=4 * i + 2, data=data))
        decoded = service.call(Request("decode", id=4 * i + 3, data=encoded.data))
        checks += [r.status is Status.OK for r in (wrote, read, encoded, decoded)]
        checks += [read.data == data, decoded.data == data]
finally:
    service.stop()
out["all_ok"] = all(checks)
out["numpy_after_serving"] = "numpy" in sys.modules
print(json.dumps(out), flush=True)
out = {}

# The deferred names still resolve to the objects of their defining modules.
import repro.kernels
import repro.memory
import repro.memory.dram
import repro.workloads
import repro.workloads.tracegen
from repro.experiments import cli, fig11_performance, sweeps

out["same_objects"] = [
    repro.BatchCodec is repro.kernels.BatchCodec,
    repro.workloads.TraceGenerator is repro.workloads.tracegen.TraceGenerator,
    repro.memory.DRAMSystem is repro.memory.dram.DRAMSystem,
    cli._experiment("fig11") is fig11_performance.run,
    cli._experiment("sweep-fit") is sweeps.fit_sweep,
]
from repro.core.codec import COPCodec
from repro.kernels import BatchCodec, blocks_to_array

block = (b"batch").ljust(64, b".")
out["batch_matches_scalar"] = BatchCodec().codeword_count_many(
    blocks_to_array([block])
).tolist() == [COPCodec().codeword_count(block)]
out["experiments"] = sorted(cli.EXPERIMENTS)
out["callable"] = all(callable(cli._experiment(name)) for name in cli.EXPERIMENTS)
missing = []
for package in (repro.memory, repro.workloads):
    try:
        getattr(package, "no_such_name")
    except AttributeError:
        missing.append(package.__name__)
out["attribute_errors"] = missing
print(json.dumps(out))
"""


def test_service_path_never_imports_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "wal")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    served = json.loads(lines[0])
    assert served["numpy_after_import"] is False
    assert served["all_ok"] is True
    assert served["numpy_after_serving"] is False
    assert proc.returncode == 0, proc.stderr
    out = json.loads(lines[1])
    assert out["same_objects"] == [True] * 5
    assert out["batch_matches_scalar"] is True
    assert out["experiments"] == sorted(
        [
            "chipkill", "fig1", "fig4", "fig8", "fig9", "fig10", "fig11",
            "fig12", "intext", "mixes", "power", "sweep-fit",
            "sweep-latency", "table3",
        ]
    )
    assert out["callable"] is True
    assert out["attribute_errors"] == ["repro.memory", "repro.workloads"]
