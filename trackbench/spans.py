"""In-memory spans around calls into the program's public functions and methods.

A wrapper replaces a name in the namespace where the program looks it up
(``trackforge.tracker.nms``, not ``trackforge.postproc.nms``), records one span
per call on the calling thread, and is removed again by ``Recorder.close``.
A name that no longer exists is reported as absent; the metrics built from it
are left out instead of failing the run. Spans stay in memory until
``Recorder.write`` stores them as a Chrome trace file.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

_MISSING = object()


class Recorder:
    """Installs span and call-count wrappers and keeps what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, thread id, start, end, parent span or None]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _resolve(self, target: str) -> tuple[object, str] | None:
        """``"pkg.module:Class.method"`` -> (owner, attribute), or None when gone."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if getattr(owner, attr, None) is None:
            return None
        return owner, attr

    def _install(self, target: str, make_wrapper) -> bool:
        resolved = self._resolve(target)
        if resolved is None:
            self.absent.append(target)
            return False
        owner, attr = resolved
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)
        return True

    def span(self, target: str, name, observe=None) -> bool:
        """Record a span named ``name`` (or ``name(args)``) around every call.

        ``observe(args, result)`` runs after the call, outside the span, to
        add counts measured where the work happens.
        """
        spans, local = self.spans, self._local

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                stack = local.__dict__.setdefault("stack", [])
                label = name(args) if callable(name) else name
                record = [label, threading.get_ident(), time.perf_counter(), 0.0,
                          stack[-1] if stack else None]
                stack.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[3] = time.perf_counter()
                    stack.pop()
                    spans.append(record)
                if observe is not None:
                    observe(args, result)
                return result

            return wrapper

        return self._install(target, make_wrapper)

    def count(self, target: str, name: str) -> bool:
        """Count calls only; for functions called too often to span."""
        counts = self.counts

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return self._install(target, make_wrapper)

    def close(self) -> None:
        """Put every wrapped name back as it was."""
        for owner, attr, original in reversed(self._installed):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def totals(self) -> tuple[dict[str, float], Counter, dict[str, float]]:
        """Per span name: summed seconds, number of spans, and summed self time."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child: dict[int, float] = defaultdict(float)
        for name, _, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[id(parent)] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for record in self.spans:
            self_time[record[0]] += record[3] - record[2] - child[id(record)]
        return dict(total), calls, dict(self_time)

    def write(self, path: Path) -> None:
        """Store the spans as Chrome trace events, plus counts and absent names."""
        origin = min((s[2] for s in self.spans), default=0.0)
        index = {id(s): i for i, s in enumerate(self.spans)}
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": i, "parent": index.get(id(parent))},
            }
            for i, (name, tid, start, end, parent) in enumerate(self.spans)
        ]
        payload = {"traceEvents": events, "counts": dict(self.counts), "absent": self.absent}
        path.write_text(json.dumps(payload), encoding="utf-8")
