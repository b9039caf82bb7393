"""Span tracer that wraps chutelat's public functions from outside.

Each wrapped call records one span: name id, start, end and the index of
the enclosing span (-1 at top level).  Spans stay in memory in flat
arrays and are written out when the pass ends.  Self time (a span's
duration minus the time its child spans cover) and call counts are
accumulated as spans close, so the summary needs no second walk.

Wrappers are installed at the module attributes where callers look the
functions up, and removed again by ``Tracer.uninstall``.  A wrapped
``lru_cache`` keeps the original cache object reachable through
``cache_info``/``cache_clear`` on the wrapper.
"""

from __future__ import annotations

import json
import time
from array import array

_clock = time.perf_counter


def _put(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        # open spans, innermost last: [span index, seconds covered by children]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def traced(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        sname, sstart, send, sparent = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(sstart)
            sname.append(nid)
            sparent.append(stack[-1][0] if stack else -1)
            send.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = _clock()
            sstart.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                send[idx] = t1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module or class attribute) or
        ``owner[attr]`` (a dict entry) by ``make(original)``; ``uninstall``
        puts the original back."""
        orig = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        _put(owner, attr, make(orig))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace a function by its traced wrapper, as ``replace`` does."""
        self.replace(owner, attr, lambda fn: self.traced(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            _put(*self._undo.pop())

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds, self seconds."""
        return {
            name: {"calls": self.calls[k], "s": self.total_s[k], "self_s": self.self_s[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, stem: str) -> None:
        """Spans as raw columns in ``stem.bin`` (int32 name, float64 start,
        float64 end, int32 parent, each column whole), described by
        ``stem.json``."""
        with open(stem + ".bin", "wb") as fh:
            for col in (self.span_name, self.span_start, self.span_end, self.span_parent):
                col.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
