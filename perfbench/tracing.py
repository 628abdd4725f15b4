"""Span recording for the traced benchmark run.

Spans are recorded from outside the package: around the benchmark's own
calls into a layer (``Tracer.span``) and around the target, field and
kernel callables it hands in (``Tracer.wrap``, applied through
``traced_target`` / ``traced_field`` / ``traced_kernel``).  Each span
keeps its name, start, end, parent span and operation id in flat arrays;
self time (a span minus the part its child spans cover) is computed once
the run is over.

Span names may carry a tag after ``#`` (``chain.run_chain#2d``): the
part before it names the layer call, the tag splits it by input kind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array

import numpy as np


class NullTracer:
    """Tracing off: no wrappers, no spans, nothing recorded."""

    enabled = False
    op_id = -1

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def note(self, name: str, value: float, op: int | None = None) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.op_id = -1
        self._names: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        #: (name, operation id, value) measurements that are not spans
        self.notes: list[tuple[str, int, float]] = []

    def _name_id(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    def _enter(self, nid: int) -> int:
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _leave(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._leave(sid)

    def note(self, name: str, value: float, op: int | None = None) -> None:
        self.notes.append((name, self.op_id if op is None else op, float(value)))

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call; arguments pass straight through."""
        if fn is None:
            return None
        nid = self._name_id(name)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            sid = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(sid)

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with ``self`` = duration minus child spans."""
        start = np.frombuffer(self._start, dtype=float).copy()
        end = np.frombuffer(self._end, dtype=float).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "dur": dur,
            "self": dur - child,
        }

    def names(self) -> list[str]:
        return sorted(self._names, key=self._names.__getitem__)

    def save(self, path) -> None:
        s = self.spans()
        np.savez(
            path,
            names=np.array(self.names()),
            **{k: s[k] for k in ("name", "start", "end", "parent", "op")},
        )


def traced_target(tracer, target):
    if not tracer.enabled:
        return target
    return dataclasses.replace(
        target,
        log_density=tracer.wrap("targets.log_density", target.log_density),
        support_test=tracer.wrap("targets.support_test", target.support_test),
    )


def traced_field(tracer, field):
    if not tracer.enabled:
        return field
    return dataclasses.replace(
        field, inv_metric=tracer.wrap("fields.inv_metric", field.inv_metric)
    )


def traced_kernel(tracer, kernel):
    if not tracer.enabled:
        return kernel
    return dataclasses.replace(
        kernel,
        sample=tracer.wrap("proposals.sample", kernel.sample),
        log_q=tracer.wrap("proposals.log_q", kernel.log_q),
        sample_batch=tracer.wrap("proposals.sample_batch", kernel.sample_batch),
    )
