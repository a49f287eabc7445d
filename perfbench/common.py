"""Helpers shared by the benchmark's workloads: environment, processes, stats."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The benchmark runs from the root of a checkout; the program is ``src/``.
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: Variables that would change what the program does or measures.
SCRUBBED = (
    "REPRO_CHAOS",
    "REPRO_JOBS",
    "REPRO_SCALE",
    "REPRO_OBS",
    "REPRO_SANITIZE",
    "REPRO_NO_CACHE",
    "REPRO_TIMEOUT",
    "REPRO_RETRIES",
)


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _kept(name: str) -> bool:
    return name not in SCRUBBED and not name.startswith("REPRO_TRACE")


def scrub_environ() -> None:
    """Drop the scrubbed variables from this process (the driver side)."""
    for name in [k for k in os.environ if not _kept(k)]:
        del os.environ[name]


def child_env(run_dir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Stray ``REPRO_*`` knobs are removed, results and temporary files stay
    inside the run directory, and string hashing is fixed so two runs of
    one seed execute the same dict and set orders.
    """
    env = {k: v for k, v in os.environ.items() if _kept(k)}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_RESULTS_DIR"] = str(run_dir / "results")
    env["TMPDIR"] = str(run_dir / "tmp")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def precompile(env: Dict[str, str]) -> None:
    """Compile the program and the benchmark to bytecode, before any timing.

    A fresh checkout holds no bytecode, so the first processes would
    compile the program from source, and set-up time would measure the
    compiler instead of the imports an installed program performs.  The
    bytecode lands in the checkout's ``__pycache__`` directories; later
    runs find it up to date.
    """
    cmd = [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)


def make_run_dir(tag: str) -> Path:
    run_dir = ROOT / ".perfbench_run" / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def out_dir() -> Path:
    """Where traced runs leave their span files (kept after the run)."""
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def python_cmd(script: str, *args: str) -> List[str]:
    return [sys.executable, str(HERE / script), *args]


def wait_with_rusage(
    proc: subprocess.Popen, timeout: float
) -> Tuple[int, os.struct_rusage]:
    """Reap ``proc`` and return its exit code and its own resource usage.

    ``os.wait4`` reports the usage of exactly this child (peak RSS, CPU
    time), unlike ``RUSAGE_CHILDREN`` which mixes every reaped child.
    The child is killed if it outlives ``timeout`` seconds, or if the
    wait is interrupted (an exception, SIGTERM turned into SystemExit),
    and is reaped either way.
    """
    end = time.monotonic() + timeout
    flags = os.WNOHANG
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, flags)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > end:
                proc.kill()
                flags = 0
            else:
                time.sleep(0.005)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; ``inf`` samples stay."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == math.inf:
        return math.inf if pos > lo or data[lo] == math.inf else data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
