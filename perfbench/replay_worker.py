"""Serial replay worker for ``svc-open``: one process for a whole run.

Usage: ``replay_worker.py`` with pickled chunks on standard input.

Each chunk is ``{shard_index: [Request, ...]}``, the requests sent to
each shard since the previous chunk.  The worker keeps one shard per
index across chunks, so successive chunks replay one continuous serial
schedule through ``Shard.process_serially``.  For each chunk it writes
back, pickled, each shard's answer lines and the replay's wall time in
ns.  It exits when standard input closes.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from typing import Dict, List, Tuple


def replay_chunk(shards: dict, chunk: Dict[int, list]) -> Tuple[Dict[int, List[bytes]], int]:
    from repro.service.shard import ServiceConfig, Shard

    lines: Dict[int, List[bytes]] = {}
    elapsed = 0
    for index, requests in chunk.items():
        if index not in shards:
            shards[index] = Shard(index, ServiceConfig())
        start = time.perf_counter_ns()
        replies = shards[index].process_serially(requests)
        elapsed += time.perf_counter_ns() - start
        lines[index] = [reply.to_json().encode() for reply in replies]
    return lines, elapsed


def main() -> int:
    # Answers go out on a private copy of stdout; anything the program
    # prints lands on stderr and cannot corrupt the pickle stream.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    source = sys.stdin.buffer
    shards: dict = {}
    while True:
        try:
            chunk = pickle.load(source)
        except EOFError:
            break
        pickle.dump(replay_chunk(shards, chunk), out)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
