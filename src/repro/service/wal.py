"""Per-shard durable write-ahead log for the COP service.

Each shard appends one ``COPW1``-framed JSONL record per *accepted*
write and group-commits (flush + fdatasync) once per drained batch, before
any future in that batch resolves.  Acknowledged writes are therefore
durable: after a worker crash — or a whole-process restart — replaying
the journal rebuilds the shard's stored contents byte-identically,
because COP-mode writes are pure per-address functions of content.
The journal's directory is fsynced whenever the journal is opened for
appending and after a compaction's rename, so the file's name is as
durable as the records in it (Pillai et al., OSDI'14).

Framing follows the PR 4 ``CheckpointJournal`` (fsync'd JSONL with
torn-tail repair): a kill mid-append can tear at most the final line,
loading skips it, and the next append terminates the torn tail before
writing.  Additionally every record carries a CRC32 content checksum —
torn-line detection, not cryptography, so the cheap classic WAL
checksum (cf. SQLite/Postgres journals) is the right tool — so a
torn-then-overwritten line can never replay garbage.

Recovery compacts: only the last record per address matters (later
writes overwrite earlier ones), so replay cost and journal size are
bounded by the live address set, not by uptime.

Record format (one JSON object per line)::

    {"m": "COPW1", "seq": 17, "id": 12345, "addr": 4096,
     "data": "<128 hex chars>", "ck": "<crc32 of seq|id|addr|data, 8 hex>"}

Threading: the owning shard worker appends/commits; the supervisor (or
a cold-starting shard) loads/compacts while the worker is not running.
The two never overlap — the supervisor only touches the WAL after the
worker died and before it is restarted.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import IO, Dict, List, NamedTuple, Optional, Union

from repro._durable import fsync_dir, make_dirs

__all__ = ["MAGIC", "ShardWAL", "WalRecord"]

#: Frame magic; bump when the record layout changes.
MAGIC = "COPW1"


class WalRecord(NamedTuple):
    """One durable accepted write."""

    seq: int
    request_id: int
    addr: int
    data: bytes


def _checksum(seq: int, request_id: int, addr: int, data: bytes) -> str:
    head = b"%d|%d|%d|" % (seq, request_id, addr)
    return f"{zlib.crc32(data, zlib.crc32(head)):08x}"


def _encode(record: WalRecord) -> str:
    # Hand-rolled JSON: every field is an int or lowercase hex, so the
    # template emits exactly what ``json.dumps(..., separators=(",",":"))``
    # would — at ~1/6th the cost, which matters on the per-write hot path
    # (the bench_service WAL guard holds this under 10% of the write path).
    ck = _checksum(record.seq, record.request_id, record.addr, record.data)
    return (
        f'{{"m":"{MAGIC}","seq":{record.seq},"id":{record.request_id},'
        f'"addr":{record.addr},"data":"{record.data.hex()}","ck":"{ck}"}}'
    )


def _decode(line: str) -> Optional[WalRecord]:
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(entry, dict) or entry.get("m") != MAGIC:
        return None
    seq = entry.get("seq")
    request_id = entry.get("id")
    addr = entry.get("addr")
    data_hex = entry.get("data")
    ck = entry.get("ck")
    if (
        not isinstance(seq, int)
        or not isinstance(request_id, int)
        or not isinstance(addr, int)
        or not isinstance(data_hex, str)
        or not isinstance(ck, str)
    ):
        return None
    try:
        data = bytes.fromhex(data_hex)
    except ValueError:
        return None
    if ck != _checksum(seq, request_id, addr, data):
        return None
    return WalRecord(seq=seq, request_id=request_id, addr=addr, data=data)


class ShardWAL:
    """Append-only group-committed journal of one shard's accepted writes."""

    # owner-thread: external  (worker appends/commits; supervisor recovers;
    # the shard lifecycle guarantees the two phases never overlap)

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._buffer: List[str] = []
        self._fh: Optional[IO[str]] = None
        self._tail_torn = False
        self.next_seq = 0
        self.torn_lines = 0
        # Plain ints, single-writer (see class annotation); the shard
        # mirrors them into its metrics registry after each commit.
        self.records_appended = 0
        self.commits = 0
        self.compactions = 0
        self._scan_existing()

    def _scan_existing(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        self._tail_torn = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = _decode(line)
            if record is None:
                # Torn tail from a mid-append kill: count it, skip it.
                self.torn_lines += 1
                continue
            self.next_seq = max(self.next_seq, record.seq + 1)

    # -- append path (shard worker) -------------------------------------------

    def append(self, request_id: int, addr: int, data: bytes) -> None:
        """Buffer one accepted write; durable only after :meth:`commit`.

        Inlined :func:`_encode` — this runs once per accepted write on the
        shard worker's hot path, and the extra call layers alone are
        measurable against the <10% write-path overhead budget enforced
        by ``benchmarks/bench_service.py``.
        """
        seq = self.next_seq
        self.next_seq = seq + 1
        ck = zlib.crc32(data, zlib.crc32(b"%d|%d|%d|" % (seq, request_id, addr)))
        self._buffer.append(
            f'{{"m":"{MAGIC}","seq":{seq},"id":{request_id},'
            f'"addr":{addr},"data":"{data.hex()}","ck":"{ck:08x}"}}'
        )

    def commit(self) -> int:
        """Flush + fdatasync buffered records; returns how many became durable."""
        if not self._buffer:
            return 0
        if self._fh is None:
            # A wal_dir created here is synced into its own parent.
            make_dirs(self.path.parent)
            self._fh = self.path.open("a", encoding="utf-8")
            # The journal's name is directory metadata that fdatasync does
            # not cover.  Sync it once per open, so a journal created here
            # (or by a predecessor that died before syncing it) cannot
            # vanish together with the writes acked into it.
            fsync_dir(self.path.parent)
        if self._tail_torn:
            # Terminate a torn tail so the new records start clean.
            self._fh.write("\n")
            self._tail_torn = False
        self._fh.write("".join(line + "\n" for line in self._buffer))
        self._fh.flush()
        # fdatasync, not fsync: POSIX requires it to flush the data and
        # any metadata needed to read it back (the file size for an
        # append) — same durability for replay, ~30% cheaper on ext4
        # because the mtime update skips the journal.
        os.fdatasync(self._fh.fileno())
        count = len(self._buffer)
        self._buffer.clear()
        self.records_appended += count
        self.commits += 1
        return count

    def abort(self) -> int:
        """Drop uncommitted buffered records (crash recovery); returns count."""
        count = len(self._buffer)
        self._buffer.clear()
        return count

    # -- recovery path (supervisor / cold start) ------------------------------

    def load_records(self) -> List[WalRecord]:
        """Re-read every durable record from disk, in append order."""
        records: List[WalRecord] = []
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = _decode(line)
            if record is not None:
                records.append(record)
        return records

    @staticmethod
    def live_records(records: List[WalRecord]) -> List[WalRecord]:
        """Last record per address, in append (seq) order."""
        last: Dict[int, WalRecord] = {}
        for record in records:
            last[record.addr] = record
        return sorted(last.values(), key=lambda record: record.seq)

    def compact(self, live: List[WalRecord]) -> None:
        """Atomically rewrite the journal to exactly ``live`` records.

        Write-to-temp + fsync + ``os.replace`` + directory fsync, so a
        kill mid-compaction leaves either the old journal or the new one,
        never a mix, and a power loss cannot revert the rename.
        """
        self.close()
        make_dirs(self.path.parent)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write("".join(_encode(record) + "\n" for record in live))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_dir(self.path.parent)
        self._tail_torn = False
        self.torn_lines = 0
        self.compactions += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
