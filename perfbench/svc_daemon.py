"""The COP service daemon with every request-path layer wrapped in spans.

Usage: ``svc_daemon.py WAL_DIR SPANS_NPZ``.

Starts the same :class:`ServiceServer` that ``cop-experiments serve``
starts, with the same defaults (4 shards, COP mode, WAL under
``WAL_DIR``), prints the same ``listening on HOST:PORT`` line and serves
until SIGINT.  Before it builds the service it wraps, at class level:

* ``Request.from_json`` / ``Response.to_json`` (wire decode / encode);
* ``COPService.submit`` and ``Shard.submit`` -- the latter adds a
  done-callback to the returned future, so each request's residence in
  its shard (submit to answer) is one ``service.residence`` span;
* the controller (``ProtectedMemory.write``/``read``) and codec calls;
* ``BatchCodec.*_many`` and ``MemoizedCodec`` calls (the prewarm's);
* ``ShardWAL.commit`` (group commit).

On shutdown the spans are written to ``SPANS_NPZ``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter_ns

import tracing


def install_service_layers(rec: tracing.Recorder) -> None:
    from repro.core.codec import COPCodec
    from repro.core.controller import ProtectedMemory
    from repro.kernels import BatchCodec, MemoizedCodec
    from repro.service.protocol import Request, Response
    from repro.service.server import COPService
    from repro.service.shard import Shard
    from repro.service.wal import ShardWAL

    tracing.install(rec, Request, "from_json", "service.protocol|decode")
    tracing.install(rec, Response, "to_json", "service.protocol|encode")
    tracing.install(rec, COPService, "submit", "service.submit|COPService.submit")

    shard_submit = Shard.submit

    def submit(shard: Shard, request: Request):
        start = perf_counter_ns()
        future = rec.call(
            rec.intern("service.submit|Shard.submit"),
            shard_submit, (shard, request), {}, None,
        )
        name = f"service.residence|shard{shard.index}"

        def answered(_future) -> None:
            rec.event(name, start, perf_counter_ns())

        future.add_done_callback(answered)
        return future

    Shard.submit = submit  # type: ignore[method-assign]

    for attr in ("write", "read"):
        tracing.install(rec, ProtectedMemory, attr, f"controller|{attr}")
    for attr in ("encode", "decode", "codeword_count", "is_alias"):
        tracing.install(rec, COPCodec, attr, f"codec|COPCodec.{attr}")
        tracing.install(rec, MemoizedCodec, attr, f"codec|MemoizedCodec.{attr}")
    for attr in (
        "peek_encode", "peek_decode", "peek_count",
        "seed_encode", "seed_decode", "seed_count",
    ):
        tracing.install(rec, MemoizedCodec, attr, f"codec|MemoizedCodec.{attr}")
    for attr in (
        "codeword_count_many",
        "is_alias_many",
        "compressible_many",
        "encode_many",
        "decode_many",
    ):
        tracing.install(
            rec, BatchCodec, attr, f"codec|BatchCodec.{attr}",
            count=tracing.rows_of_arg,
        )
    tracing.install(rec, ShardWAL, "commit", "service.wal|commit", count=lambda a, r: r)


def main(argv: list) -> int:
    wal_dir, spans_path = argv[0], Path(argv[1])
    rec = tracing.Recorder()
    install_service_layers(rec)

    from repro.service import COPService, ServiceConfig, ServiceServer

    config = ServiceConfig(wal_dir=wal_dir)
    server = ServiceServer(COPService(config), host="127.0.0.1", port=0)
    server.start()
    host, port = server.server_address[0], server.server_address[1]
    print(f"cop service listening on {host}:{port}", flush=True)
    try:
        while not server.wait(3600.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown_service()
        rec.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
