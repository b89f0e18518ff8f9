"""In-memory span tracing around the program's public functions.

The tracer replaces a module attribute or class method with a wrapper that
records one span per call: name, start, end and parent span. Spans live in
per-thread ``array`` columns, so recording takes no lock and little memory;
``unwrap`` restores every original. A span's trace id is the id of its
outermost ancestor on the same thread, which is one simulate run, one
streamed request or one ``compute_profile`` call.
"""

from __future__ import annotations

import gzip
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np


class _Buffer:
    __slots__ = ("thread", "name", "parent", "start", "end", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buffer = _Buffer(len(self._buffers))
                self._buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(self, owner: Any, attr: str, name: str,
             after: Callable[[Any, tuple], None] | None = None) -> None:
        """Trace calls of ``owner.attr`` as span ``name``; ``after(result, args)`` counts."""
        original = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        clock = time.perf_counter_ns
        buffer_of = self._buffer

        def traced(*args, **kwargs):
            buf = buffer_of()
            span = len(buf.start)
            stack = buf.stack
            buf.name.append(index)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(span)
            buf.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                buf.end[span] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Start new span buffers; a call still in flight finishes into its old one."""
        with self._lock:
            self._local = threading.local()
            self._buffers = []

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as columns; ids are (thread << 40) | index."""
        cols: dict[str, list] = {k: [] for k in ("id", "parent", "trace", "name", "start", "end")}
        for buf in list(self._buffers):
            n = len(buf.start)
            if n == 0:
                continue
            # Slices copy, so a thread still appending is never blocked by an export.
            end = np.array(buf.end[:n], dtype=np.int64)
            parents = buf.parent[:n].tolist()
            trace = list(range(n))
            for i, p in enumerate(parents):  # a parent precedes its children
                if p >= 0:
                    trace[i] = trace[p]
            parent = np.array(parents, dtype=np.int64)
            closed = end != 0  # spans still open are dropped, and so is the link to them
            parent[(parent >= 0) & ~closed[np.maximum(parent, 0)]] = -1
            base = buf.thread << 40
            cols["id"].append((base + np.arange(n, dtype=np.int64))[closed])
            cols["parent"].append(np.where(parent >= 0, base + parent, -1)[closed])
            cols["trace"].append((base + np.array(trace, dtype=np.int64))[closed])
            cols["name"].append(np.array(buf.name[:n], dtype=np.int64)[closed])
            cols["start"].append(np.array(buf.start[:n], dtype=np.int64)[closed])
            cols["end"].append(end[closed])
        return {k: (np.concatenate(v) if v else np.zeros(0, np.int64)) for k, v in cols.items()}

    def write(self, path: Path, s: dict[str, np.ndarray]) -> int:
        """Write spans as gzipped CSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span_id,parent_id,trace_id,name,start_ns,end_ns\n")
            for i, p, t, n, a, b in zip(*(s[k].tolist() for k in ("id", "parent", "trace", "name", "start", "end"))):
                out.write(f"{i},{p},{t},{self.names[n]},{a},{b}\n")
        return len(s["id"])

    def totals(self, s: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (children excluded)."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        if len(s["id"]) == 0:
            return out
        duration = (s["end"] - s["start"]).astype(float) / 1e9
        order = np.argsort(s["id"])
        ids = s["id"][order]
        child = s["parent"] >= 0
        parent_pos = order[np.searchsorted(ids, s["parent"][child])]
        child_time = np.bincount(parent_pos, weights=duration[child], minlength=len(duration))
        self_time = duration - child_time
        names = len(self.names)
        calls = np.bincount(s["name"], minlength=names)
        total = np.bincount(s["name"], weights=duration, minlength=names)
        own = np.bincount(s["name"], weights=self_time, minlength=names)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        return out
