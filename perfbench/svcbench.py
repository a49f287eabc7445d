"""``svc-open``: the COP daemon driven open-loop at fixed arrival rates.

The daemon runs in its own process (``cop-experiments serve``: 4 shards,
COP mode, WAL on in a fresh directory).  This process drives it over one
connection with two threads: the main thread sends on a fixed schedule
and a receiver thread timestamps every response line as it arrives.
Requests are the deterministic loadgen tenant mix
(``interleave(LoadgenConfig(seed=...))``), wire-encoded before each
phase starts.  Each request is timed from the moment it was *due*, so a
stall also charges the requests that queued behind it (no coordinated
omission).  Responses come back in request order on one connection.

An untraced run serves, after a warm-up phase, ``REPS`` cycles of a
light phase (``LIGHT_RATE``) and a busy phase (``BUSY_RATE``) and
reports medians.  The untraced half of a traced run also climbs the
rate ladder (``RATES`` above the busy rate), stopping after the first
rate that misses the limit: p99 at most ``P99_LIMIT_MS``, no failed op,
no backlog still growing at the end of the phase.

A phase whose generator ran late (``LAG_LIMIT_MS`` at p99, measured as
wake-up lateness that the daemon's back-pressure did not cause) is
invalid, not slow: it is left out of the medians and its rate does not
count as met.  A phase whose backlog passes ``ABORT_BACKLOG`` stops
sending early; it has missed the limit already, and stopping keeps the
shard queues far below the breaker threshold.

After every phase, while the daemon is idle, the phase's requests are
replayed serially through ``Shard.process_serially`` on shards that one
worker process (``replay_worker.py``) keeps for the whole run, so the
replay is one continuous serial schedule; every response line must equal
the serial one.  The
replay's time summed over the run is ``sweep_s``: the run's fixed
request stream through the shard pipeline (prewarm, memo, controller,
codec) with no transport, queueing or WAL.  Replaying in slices between
the phases samples the host's speed across the whole run rather than in
one window at its end.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    child_env,
    median,
    metric,
    python_cmd,
    quantile,
    wait_with_rusage,
)

RATES = (1000, 1500, 3000, 4000, 6000, 8000, 12000)
LIGHT_RATE = 1000
BUSY_RATE = 1500
P99_LIMIT_MS = 50.0
LAG_LIMIT_MS = 5.0
ABORT_BACKLOG = 1024
#: Light/busy cycles of an untraced run, phases per ladder rate, and
#: phases per rate in a traced pass (medians reported).
REPS = 6
LADDER_REPS = 3
TRACED_REPS = 2
#: Statuses that are a correct answer to the loadgen mix.
OK_STATUSES = ("ok", "not-written", "alias-reject")


class DaemonError(RuntimeError):
    pass


@dataclass
class Daemon:
    proc: subprocess.Popen
    #: Spawn to the first OK ``health`` answer.
    setup_ns: int

    def stop(self) -> Tuple[int, os.struct_rusage]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        code, usage = wait_with_rusage(self.proc, 60.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code, usage


def spawn_daemon(run_dir: Path, env: Dict[str, str], tag: str,
                 spans: Optional[Path] = None) -> Tuple[Daemon, socket.socket]:
    """Start a daemon and return it with a connection that saw ``health`` OK."""
    wal_dir = run_dir / f"wal-{tag}"
    env = dict(env, PYTHONUNBUFFERED="1")
    if spans is None:
        cmd = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--shards", "4", "--service-mode", "cop",
            "--wal-dir", str(wal_dir),
        ]
    else:
        cmd = python_cmd("svc_daemon.py", str(wal_dir), str(spans))
    spawn = time.perf_counter_ns()
    with open(run_dir / f"daemon-{tag}.log", "wb") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=log)
    try:
        line = _read_line(proc, 60.0)
        addr = line.rsplit(" on ", 1)[1].split()[0]
        host, port = addr.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=60.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        while True:
            sock.sendall(b'{"op":"health","id":0}\n')
            reply = json.loads(reader.readline())
            if reply.get("status") == "ok":
                break
            time.sleep(0.001)
        reader.close()
        sock.settimeout(None)
    except BaseException:
        proc.kill()
        wait_with_rusage(proc, 10.0)
        raise
    return Daemon(proc, time.perf_counter_ns() - spawn), sock


def time_setup(run_dir: Path, env: Dict[str, str], tag: str) -> int:
    """Spawn a daemon only to time its set-up, then stop it."""
    daemon, sock = spawn_daemon(run_dir, env, tag)
    sock.close()
    daemon.stop()
    return daemon.setup_ns


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    assert proc.stdout is not None
    end = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        left = end - time.monotonic()
        if left <= 0 or proc.poll() is not None:
            raise DaemonError("daemon did not report its address")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise DaemonError("daemon closed stdout before listening")
            buf += chunk
    return buf.split(b"\n", 1)[0].decode()


class Receiver(threading.Thread):
    """Timestamps every response line on the connection, in order."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(name="perfbench-recv", daemon=True)
        self.sock = sock
        self.lines: List[bytes] = []
        self.times: List[int] = []
        self.cond = threading.Condition()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        pending = b""
        try:
            while True:
                chunk = self.sock.recv(1 << 20)
                now = time.perf_counter_ns()
                if not chunk:
                    break
                pending += chunk
                *complete, pending = pending.split(b"\n")
                if complete:
                    with self.cond:
                        self.lines.extend(complete)
                        self.times.extend([now] * len(complete))
                        self.cond.notify_all()
        except OSError as exc:
            self.error = exc
        with self.cond:
            self.cond.notify_all()

    def received(self) -> int:
        return len(self.lines)

    def wait_for(self, count: int, timeout: float) -> bool:
        end = time.monotonic() + timeout
        with self.cond:
            while len(self.lines) < count:
                left = end - time.monotonic()
                if left <= 0 or self.error is not None or not self.is_alive():
                    return False
                self.cond.wait(min(left, 0.1))
        return True


class Replayer:
    """The serial replay worker process (``replay_worker.py``).

    It is one process (a second would share the host's CPUs with the
    first and make the replay time noisier) and starts with the daemon's
    environment, like every measured process.  Chunks and answers travel
    pickled over its standard input and output.
    """

    def __init__(self, run_dir: Path, env: Dict[str, str]) -> None:
        with open(run_dir / "replay.log", "wb") as log:
            self.proc = subprocess.Popen(
                python_cmd("replay_worker.py"), env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            )

    def replay(self, chunk: Dict[int, list]) -> Tuple[Dict[int, List[bytes]], int]:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        pickle.dump(chunk, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        """Close the worker's input, so it exits, and reap it."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        wait_with_rusage(self.proc, 30.0)
        self.proc.stdout.close()


@dataclass
class Phase:
    """One open-loop phase and what it measured."""

    rate: int
    first: int  # stream index of the phase's first request
    sent: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    failures: int = 0
    growing: bool = False
    aborted: bool = False
    backlog_end: int = 0

    @property
    def p50(self) -> float:
        return quantile(self.latencies_ms, 0.50)

    @property
    def p99(self) -> float:
        return quantile(self.latencies_ms, 0.99)

    @property
    def lag_p99(self) -> float:
        return quantile(self.lag_ms, 0.99) if self.lag_ms else 0.0

    @property
    def valid(self) -> bool:
        return self.lag_p99 <= LAG_LIMIT_MS

class Driver:
    """One connection, one request stream, the phases run over it.

    Response line ``k`` on the connection answers sent request ``k``
    (the daemon answers in request order; the ``health`` probe was read
    before the receiver started).
    """

    def __init__(self, sock: socket.socket, seed: int, total_ops: int,
                 replayer: Replayer) -> None:
        from repro.service.loadgen import LoadgenConfig, interleave

        self.sock = sock
        self.receiver = Receiver(sock)
        self.receiver.start()
        self.stream = interleave(LoadgenConfig(ops=total_ops, seed=seed))
        #: Requests sent, in connection order (for the serial replay).
        self.sent: list = []
        self.replayer = replayer
        #: Serial-replay answer line of every sent request, and its time.
        self.expected: List[bytes] = []
        self.replay_ns = 0

    def _take(self, count: int) -> Tuple[list, List[bytes]]:
        requests = list(itertools.islice(self.stream, count))
        return requests, [r.to_json().encode() + b"\n" for r in requests]

    def _finish(self, phase: Phase, due: List[int], timeout: float) -> None:
        """Wait for the phase's answers; latency from due time, inf if failed."""
        if not self.receiver.wait_for(phase.first + phase.sent, timeout):
            phase.aborted = True
        lines, times = self.receiver.lines, self.receiver.times
        for k in range(phase.sent):
            pos = phase.first + k
            ok = pos < len(lines) and json.loads(lines[pos]).get("status") in OK_STATUSES
            if ok:
                phase.latencies_ms.append((times[pos] - due[k]) / 1e6)
            else:
                phase.failures += 1
                phase.latencies_ms.append(math.inf)

    def open_loop(self, rate: int, seconds: float) -> Phase:
        count = max(2, int(rate * seconds))
        requests, lines = self._take(count)
        phase = Phase(rate=rate, first=len(self.sent))
        period = 1e9 / rate
        start = time.perf_counter_ns() + 2_000_000
        due = [start + int(i * period) for i in range(count)]
        half = count // 2
        mid_backlog = 0
        prev_end = start
        sock, receiver, base = self.sock, self.receiver, phase.first
        i = 0
        while i < count:
            now = time.perf_counter_ns()
            if now < due[i]:
                wait = due[i] - now
                time.sleep(wait / 1e9 if wait > 200_000 else 0)
                continue
            j = i + 1
            while j < count and due[j] <= now:
                j += 1
            sock.sendall(b"".join(lines[i:j]))
            # Generator lag: lateness the daemon's back-pressure (a
            # blocking sendall) did not cause.
            for k in range(i, j):
                phase.lag_ms.append(max(0, now - max(due[k], prev_end)) / 1e6)
            prev_end = time.perf_counter_ns()
            backlog = base + j - receiver.received()
            if i < half <= j:
                mid_backlog = backlog
            i = j
            if backlog > ABORT_BACKLOG:
                phase.aborted = True
                break
        phase.sent = i
        phase.backlog_end = base + i - receiver.received()
        phase.growing = phase.backlog_end > mid_backlog + max(10, 0.05 * (i - half))
        self.sent.extend(requests[:i])
        self._finish(phase, due, 30.0)
        self._replay_new()
        return phase

    def _replay_new(self) -> None:
        """Serially replay the requests sent since the last replay."""
        from repro.service.shard import ServiceConfig, route_request

        shards = ServiceConfig().shards
        first = len(self.expected)
        by_shard: Dict[int, List[int]] = {}
        for index in range(first, len(self.sent)):
            by_shard.setdefault(route_request(self.sent[index], shards), []).append(index)
        chunk = {shard: [self.sent[i] for i in indices] for shard, indices in by_shard.items()}
        lines, elapsed_ns = self.replayer.replay(chunk)
        self.replay_ns += elapsed_ns
        self.expected.extend([b""] * (len(self.sent) - first))
        for shard, indices in by_shard.items():
            for i, line in zip(indices, lines[shard]):
                self.expected[i] = line

    def stats(self) -> dict:
        """The daemon's merged counters (``stats`` op) on this connection."""
        before = len(self.sent)
        self.sock.sendall(b'{"op":"stats","id":1}\n')
        if not self.receiver.wait_for(before + 1, 30.0):
            return {}
        return json.loads(self.receiver.lines[before]).get("payload", {})

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.receiver.join(10.0)

    def check(self) -> int:
        """Failed ops: a missing answer, a failing status, or an answer that
        differs from the serial replay of the same schedule."""
        lines = self.receiver.lines
        failed = 0
        for index, want in enumerate(self.expected):
            if index >= len(lines) or lines[index] != want:
                failed += 1
            elif json.loads(want).get("status") not in OK_STATUSES:
                failed += 1
        return failed


def _phase_seconds(seconds: float) -> float:
    return min(5.0, max(0.5, seconds / 16.0))


def _stream_ops(phase_s: float) -> int:
    """Upper bound on requests one run can take from the stream."""
    return int((REPS + 1) * phase_s * sum(RATES)) + 16


@dataclass
class RateResult:
    """One ladder rate and the phases run at it."""

    rate: int
    phases: List[Phase]

    @property
    def counted(self) -> List[Phase]:
        """Valid phases (all of them if none is valid)."""
        return [p for p in self.phases if p.valid] or self.phases

    @property
    def p50(self) -> float:
        return median([p.p50 for p in self.counted])

    @property
    def p99(self) -> float:
        return median([p.p99 for p in self.counted])

    @property
    def lag_p99(self) -> float:
        return max(p.lag_p99 for p in self.phases)

    @property
    def backlog_end(self) -> int:
        return int(median([p.backlog_end for p in self.phases]))

    @property
    def failures(self) -> int:
        return sum(p.failures for p in self.phases)

    @property
    def meets(self) -> bool:
        """p99 within the limit, no failure, backlog not growing (most phases)."""
        growing = sum(p.growing for p in self.phases)
        return (
            any(p.valid for p in self.phases)
            and not any(p.aborted for p in self.phases)
            and self.failures == 0
            and 2 * growing < len(self.phases)
            and self.p99 <= P99_LIMIT_MS
        )


def run_rate(driver: Driver, rate: int, phase_s: float, reps: int) -> RateResult:
    return RateResult(rate, [driver.open_loop(rate, phase_s) for _ in range(reps)])


def run_ladder_above(driver: Driver, phase_s: float,
                     results: Dict[int, RateResult]) -> None:
    """Ladder rates above the busy rate, until the first that misses."""
    for rate in RATES:
        if rate <= BUSY_RATE:
            continue
        results[rate] = run_rate(driver, rate, phase_s, LADDER_REPS)
        if not results[rate].meets:
            return


def max_rate(results: Dict[int, RateResult]) -> float:
    """Highest ladder rate that meets the limit (0 if none does)."""
    return float(max((r for r, result in results.items() if result.meets), default=0))


@dataclass
class Session:
    """What one daemon served and what the output check found."""

    driver: Driver
    setup_ns: int
    usage: os.struct_rusage
    failed: int
    replay_s: float

    @property
    def cpu_ms_per_op(self) -> float:
        cpu_s = self.usage.ru_utime + self.usage.ru_stime
        return 1e3 * cpu_s / max(1, len(self.driver.sent))


def serve(run_dir: Path, env: Dict[str, str], tag: str, seed: int, phase_s: float,
          body, spans: Optional[Path] = None) -> Session:
    """Spawn a daemon, run ``body(driver)`` against it, stop it, check answers."""
    replayer = Replayer(run_dir, env)
    try:
        daemon, sock = spawn_daemon(run_dir, env, tag, spans=spans)
        driver = None
        try:
            driver = Driver(sock, seed, _stream_ops(phase_s), replayer)
            body(driver)
        finally:
            if driver is not None:
                driver.close()
            else:
                sock.close()
            code, usage = daemon.stop()
    finally:
        replayer.close()
    failed = driver.check() if code == 0 else len(driver.sent)
    return Session(driver, daemon.setup_ns, usage, failed, driver.replay_ns / 1e9)


def _report(results: Dict[int, RateResult]) -> None:
    for rate, result in sorted(results.items()):
        print(
            f"[svc-open] rate {rate:>6}/s x{len(result.phases)} p50 {result.p50:8.2f} ms "
            f"p99 {result.p99:8.2f} ms lag_p99 {result.lag_p99:6.3f} ms "
            f"backlog_end {result.backlog_end:>5} meets {result.meets}",
            flush=True,
        )


def run_untraced(seed: int, seconds: float, run_dir: Path) -> dict:
    """Interleaved light and busy phases on one daemon, set-up spawns between.

    The work is fixed, so peak RSS, CPU per op and the replay compare
    across runs.  Set-up time is the median of the measured daemon's
    spawn and one extra spawn before it and after every phase, so the
    samples spread over the whole run.
    """
    env = child_env(run_dir)
    phase_s = _phase_seconds(seconds)
    setups = [time_setup(run_dir, env, "setup-first")]
    results: Dict[int, RateResult] = {}

    def body(driver: Driver) -> None:
        driver.open_loop(LIGHT_RATE, phase_s)  # warm-up, not reported
        setups.append(time_setup(run_dir, env, "setup-warm"))
        light: List[Phase] = []
        busy: List[Phase] = []
        # Interleaved, so both rates sample the host across the whole run.
        for k in range(REPS):
            light.append(driver.open_loop(LIGHT_RATE, phase_s))
            setups.append(time_setup(run_dir, env, f"setup{k}-light"))
            busy.append(driver.open_loop(BUSY_RATE, phase_s))
            setups.append(time_setup(run_dir, env, f"setup{k}-busy"))
        results[LIGHT_RATE] = RateResult(LIGHT_RATE, light)
        results[BUSY_RATE] = RateResult(BUSY_RATE, busy)

    session = serve(run_dir, env, "measured", seed, phase_s, body)
    setups.append(session.setup_ns)
    _report(results)
    print(f"[svc-open] serial replay {session.replay_s:.3f}s", flush=True)
    attempted = max(1, len(session.driver.sent))
    failed = session.failed
    metrics = {
        "setup_s": metric(median(setups) / 1e9, "s"),
        "sweep_s": metric(session.replay_s, "s"),
        "cpu_ms_per_op": metric(session.cpu_ms_per_op, "ms"),
        "peak_rss_mb": metric(session.usage.ru_maxrss / 1024, "MB"),
        "ops_ok_frac": metric(1 - failed / attempted, "fraction"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


#: Per-request execution spans on a shard thread (top level there).
EXEC_SPANS = (
    "controller|write",
    "controller|read",
    "codec|MemoizedCodec.encode",
    "codec|MemoizedCodec.decode",
)


def _traced_pass(run_dir: Path, env: Dict[str, str], seed: int, phase_s: float,
                 spans: Optional[Path]) -> dict:
    """Light and busy phases on one daemon, then (untraced) the rate ladder."""
    out: dict = {"results": {}}

    def body(driver: Driver) -> None:
        results = out["results"]
        driver.open_loop(LIGHT_RATE, phase_s)  # warm-up, not reported
        results[LIGHT_RATE] = run_rate(driver, LIGHT_RATE, phase_s, TRACED_REPS)
        results[BUSY_RATE] = run_rate(driver, BUSY_RATE, phase_s, TRACED_REPS)
        if spans is not None:
            out["counters"] = driver.stats().get("counters", {})
        elif results[LIGHT_RATE].meets and results[BUSY_RATE].meets:
            run_ladder_above(driver, phase_s, results)

    tag = "traced" if spans is not None else "plain"
    session = serve(run_dir, env, tag, seed, phase_s, body, spans=spans)
    out["attempted"] = len(session.driver.sent)
    out["failed"] = session.failed
    return out


def _counter_sum(counters: dict, suffix: str) -> float:
    return float(sum(v for k, v in counters.items() if k.endswith(suffix)))


def service_layers(spans_path: Path, counters: dict) -> Dict[str, float]:
    """Per-layer service metrics from the traced daemon's spans."""
    import numpy as np

    from tracing import Spans

    s = Spans(spans_path)
    layer = s.layer_of(s.name)
    parent_layer = s.layer_of(s.parent)
    dur = s.duration

    def mean_us(mask: np.ndarray) -> float:
        return float(dur[mask].mean() / 1e3) if mask.any() else 0.0

    out: Dict[str, float] = {}
    out["service.protocol.decode_us"] = mean_us(s.named("service.protocol|decode"))
    out["service.protocol.encode_us"] = mean_us(s.named("service.protocol|encode"))
    out["service.submit_us"] = mean_us(s.named("service.submit|COPService.submit"))
    codec = layer == "codec"
    codec_top = codec & (parent_layer != "codec")
    out["codec.self_s"] = float(s.self_ns[codec].sum() / 1e9)
    out["codec.calls"] = float(codec_top.sum())
    out["codec.rows_per_call"] = float(s.count[codec_top].sum() / max(1, codec_top.sum()))
    ctrl = layer == "controller"
    out["controller.self_s"] = float(s.self_ns[ctrl].sum() / 1e9)
    out["controller.calls"] = float((ctrl & (parent_layer != "controller")).sum())

    commit = s.named("service.wal|commit") & (s.count > 0)
    out["service.wal.commit_ms"] = float(dur[commit].mean() / 1e6) if commit.any() else 0.0
    out["service.wal.records_per_commit"] = float(s.count[commit].sum() / max(1, commit.sum()))

    batches = _counter_sum(counters, ".batches")
    out["service.shard.batch_mean"] = _counter_sum(counters, ".requests") / batches if batches else 0.0
    hits = float(counters.get("kernels.memo.hits", 0))
    misses = float(counters.get("kernels.memo.misses", 0))
    out["kernels.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    exec_ids = set(s.ids(lambda n: n in EXEC_SPANS).tolist())
    residence_ids = set(s.ids(lambda n: n.startswith("service.residence|")).tolist())
    commit_ids = set(s.ids(lambda n: n == "service.wal|commit").tolist())
    residences: List[float] = []
    waits: List[float] = []
    execs: List[float] = []
    prewarm_ns = 0
    total_res = 0
    unattributed = 0
    for t, thread_name in enumerate(s.threads):
        if not thread_name.startswith("cop-shard-"):
            continue
        rows = np.nonzero((s.thread == t) & (s.parent == -1))[0]
        rows = rows[np.argsort(s.end[rows], kind="stable")]
        exec_q: List[int] = []
        last_commit = 0
        batch_start: Optional[int] = None
        prev_was_answer = True
        covered = 0  # work span time since the batch started
        for r in rows.tolist():
            nid = int(s.name[r])
            if nid in residence_ids:
                start, end = int(s.start[r]), int(s.end[r])
                res = end - start
                ex = exec_q.pop(0) if exec_q else 0
                residences.append(res / 1e6)
                execs.append(ex / 1e3)
                waits.append((res - ex - last_commit) / 1e6)
                bstart = batch_start if batch_start is not None else start
                pre = max(0, bstart - start)
                total_res += res
                unattributed += max(0, res - pre - covered)
                prev_was_answer = True
                continue
            if prev_was_answer:
                batch_start, covered = int(s.start[r]), 0
                prev_was_answer = False
            covered += int(dur[r])
            if nid in exec_ids:
                exec_q.append(int(dur[r]))
            elif nid in commit_ids:
                last_commit = int(dur[r])
            elif layer[r] == "codec":
                prewarm_ns += int(dur[r])
    out["service.queue_wait_p50_ms"] = quantile(waits, 0.5) if waits else 0.0
    out["service.queue_wait_p99_ms"] = quantile(waits, 0.99) if waits else 0.0
    out["service.shard.residence_p50_ms"] = quantile(residences, 0.5) if residences else 0.0
    out["service.shard.residence_p99_ms"] = quantile(residences, 0.99) if residences else 0.0
    out["service.exec_us"] = float(np.mean(execs)) if execs else 0.0
    out["service.prewarm.codec_s"] = prewarm_ns / 1e9
    out["service.unattributed_share"] = unattributed / total_res if total_res else 0.0
    return out


def run_traced(seed: int, seconds: float, run_dir: Path, spans: Path) -> dict:
    """Per-layer metrics: a plain daemon (plus the ladder), then a traced one."""
    env = child_env(run_dir)
    phase_s = _phase_seconds(seconds)
    plain = _traced_pass(run_dir, env, seed, phase_s, None)
    traced = _traced_pass(run_dir, env, seed, phase_s, spans)
    _report(plain["results"])
    layers = service_layers(spans, traced["counters"])
    light, busy = plain["results"][LIGHT_RATE], plain["results"][BUSY_RATE]
    traced_light = traced["results"][LIGHT_RATE]
    layers["loadgen.lag_p99_ms"] = max(r.lag_p99 for r in plain["results"].values())
    layers["loadgen.backlog_end"] = float(busy.backlog_end)
    layers["loadgen.light_p50_ms"] = light.p50
    layers["loadgen.busy_p50_ms"] = busy.p50
    layers["loadgen.light_p99_ms"] = light.p99
    layers["loadgen.busy_p99_ms"] = busy.p99
    layers["loadgen.max_rate_ops_s"] = max_rate(plain["results"])
    # Light-load latency is service time with almost no queueing, so its
    # ratio is the tracing cost on the request path.
    layers["trace.overhead_ratio"] = traced_light.p50 / light.p50
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"attempted": attempted, "failed": failed, "layers": layers}
