"""In-memory span recorder and the class-level wrappers that feed it.

The benchmark times the program from outside: :func:`install` replaces
a public method on a class with a wrapper that records one span per call
(name, start, end, time covered by child spans, parent span name and a
small count such as rows in a batch call).  Spans stay in per-thread
buffers while the run lasts; :meth:`Recorder.dump` writes them to one
``.npz`` file when the run ends, and :class:`Spans` reads that file back
for aggregation in another process.

Self time of a span is its duration minus the part covered by the spans
it caused, so on one thread the self times of all layers add up to the
traced wall time without double counting.  Every span is stamped with
``time.perf_counter_ns``, the same monotonic clock the program's own
``repro.obs.perf`` uses, so daemon spans and client timestamps compare.
"""

from __future__ import annotations

import inspect
import json
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

#: ``count(args, result) -> int`` for the span's count field.
CountFn = Callable[[tuple, Any], int]

_FIELDS = ("name", "parent", "start", "end", "child", "count")


class _Buffer:
    """Spans recorded by one thread (appended only by that thread)."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.count = array("q")
        #: Open spans: ``[name id, child ns]`` per level.
        self.stack: List[List[int]] = []


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()

    def intern(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def call(
        self,
        nid: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        count: Optional[CountFn],
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span."""
        buf = self.buffer()
        stack = buf.stack
        parent = stack[-1][0] if stack else -1
        frame = [nid, 0]
        stack.append(frame)
        start = perf_counter_ns()
        done = False
        result = None
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.start.append(start)
            buf.end.append(end)
            buf.child.append(frame[1])
            if count is None:
                buf.count.append(1)
            else:
                buf.count.append(count(args, result) if done else 0)

    def event(self, name: str, start: int, end: int, count: int = 1) -> None:
        """Record a span measured by the caller (no nesting bookkeeping)."""
        buf = self.buffer()
        buf.name.append(self.intern(name))
        buf.parent.append(buf.stack[-1][0] if buf.stack else -1)
        buf.start.append(start)
        buf.end.append(end)
        buf.child.append(0)
        buf.count.append(count)

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        with self._lock:
            buffers = list(self._buffers)
        arrays: Dict[str, np.ndarray] = {}
        for field in _FIELDS:
            parts = [
                np.frombuffer(getattr(b, field), dtype=getattr(b, field).typecode)
                if len(getattr(b, field))
                else np.zeros(0, dtype=np.int64)
                for b in buffers
            ]
            arrays[field] = (
                np.concatenate([p.astype(np.int64) for p in parts])
                if parts
                else np.zeros(0, dtype=np.int64)
            )
        arrays["thread"] = np.concatenate(
            [np.full(len(b.name), i, dtype=np.int64) for i, b in enumerate(buffers)]
            or [np.zeros(0, dtype=np.int64)]
        )
        meta = {
            "names": self.names,
            "threads": [b.thread_name for b in buffers],
            "extra": extra or {},
        }
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8), **arrays)


class _TimedIterator:
    """Iterator whose every ``next`` is one span."""

    def __init__(self, rec: Recorder, nid: int, it: Iterator, count: CountFn):
        self._rec, self._nid, self._it, self._count = rec, nid, it, count

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._rec.call(self._nid, self._it.__next__, (), {}, self._count)


def install(
    rec: Recorder,
    owner: Any,
    attr: str,
    name: str,
    count: Optional[CountFn] = None,
    iter_name: Optional[str] = None,
    iter_count: Optional[CountFn] = None,
) -> None:
    """Wrap ``owner.attr`` (function, method or classmethod) in a span.

    ``iter_name`` additionally times every ``next`` on the iterator the
    call returns, as spans of that name (generator methods).
    """
    raw = inspect.getattr_static(owner, attr)
    is_cm = isinstance(raw, classmethod)
    fn = raw.__func__ if is_cm else raw
    nid = rec.intern(name)
    it_nid = rec.intern(iter_name) if iter_name is not None else -1

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = rec.call(nid, fn, args, kwargs, count)
        if it_nid >= 0:
            return _TimedIterator(rec, it_nid, iter(result), iter_count or _one)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", attr)
    setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)


def _one(args: tuple, result: Any) -> int:
    return 1


def rows_of_arg(args: tuple, result: Any) -> int:
    """Rows in the first positional argument after ``self``."""
    return len(args[1])


def found(args: tuple, result: Any) -> int:
    """1 when a lookup returned something, else 0."""
    return 0 if result is None else 1


class Spans:
    """Spans read back from a :meth:`Recorder.dump` file."""

    def __init__(self, path: Path) -> None:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            for field in _FIELDS + ("thread",):
                setattr(self, field, data[field])
        self.names: List[str] = meta["names"]
        self.threads: List[str] = meta["threads"]
        self.extra: dict = meta["extra"]
        self.duration = self.end - self.start
        self.self_ns = self.duration - self.child

    def ids(self, predicate: Callable[[str], bool]) -> np.ndarray:
        return np.array(
            [i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int64
        )

    def named(self, name: str) -> np.ndarray:
        """Mask of the spans called ``name``."""
        return np.isin(self.name, self.ids(lambda n: n == name))

    def layer_of(self, ids: np.ndarray) -> np.ndarray:
        """Layer label of each name id (``-1`` maps to ``""``)."""
        labels = np.array([n.split("|", 1)[0] for n in self.names] + [""], dtype=object)
        return labels[ids]
