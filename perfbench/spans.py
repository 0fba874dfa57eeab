"""Host-time spans for the traced benchmark run.

A :class:`SpanRecorder` keeps every span in memory — name, start, end,
parent and the id of the benchmark operation it belongs to — and writes
them out only when the run ends.  Spans come from two places, both in
the benchmark's own files:

* :meth:`SpanRecorder.span` around the calls the benchmark makes itself
  (``compile_c``, ``profile_module``, ``NativeOffloaderCompiler.compile``,
  ``run_local``, ``FleetScheduler.run``, ``build_report`` ...);
* :meth:`SpanRecorder.install`, which replaces public methods that the
  program calls internally (``Interpreter.run_main``, ``Machine.load``,
  ``OffloadSession.run``, ``ServerPool.admit``, ``SegmentCache.advance``
  ...) with timing wrappers, and :meth:`SpanRecorder.restore`, which puts
  every original back.

Spans nest strictly (one thread, one stack), so a span's self time is
its duration minus the durations of its direct children, and the self
times of one operation's spans sum to the duration of its root span.

:data:`NULL_RECORDER` is the untraced stand-in: its ``span`` is a no-op
context and it installs nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 op: Optional[int], start: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end}


class SpanRecorder:
    """In-memory span and counter store for one traced run."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._op: Optional[int] = None
        self._next_op = 0
        self._patches: List[tuple] = []
        self.interpreters: list = []

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order "
                               f"(innermost open span is {top.name!r})")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def operation(self, name: str) -> Iterator[Span]:
        """The root span of one benchmark operation; every span opened
        inside it carries the operation's id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op = self._next_op
        self._next_op += 1
        try:
            with self.span(name) as root:
                yield root
        finally:
            self._op = None

    # -- wrappers around the program's own calls ------------------------
    def install(self, owner, attr: str, name: str, *,
                outermost: bool = False,
                after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a ``name``
        span around each call.  With ``outermost``, a call made while the
        innermost open span is already a ``name`` span runs unwrapped
        (a guest call inside the interpreter is not a new interpreter
        entry; a server interpreter started by the runtime is).
        ``after(recorder, result, args)`` runs once the call returns."""
        original = owner.__dict__[attr]
        recorder = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if outermost and stack and stack[-1].name == name:
                return original(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(recorder, result, args)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        own = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_totals(self, op_ids=None) -> Dict[str, Dict[str, float]]:
        """Per span name, over the given operations (all when None):
        ``busy``, the summed duration of the spans not nested inside
        another span of the same name; ``self``, the summed self time
        of all of them; ``calls``, how many there were."""
        own = self.self_times()
        by_id = {s.sid: s for s in self.spans}
        totals: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if op_ids is not None and s.op not in op_ids:
                continue
            t = totals.setdefault(s.name,
                                  {"busy": 0.0, "self": 0.0, "calls": 0})
            ancestor = by_id.get(s.parent)
            while ancestor is not None and ancestor.name != s.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                t["busy"] += s.duration
            t["self"] += own[s.sid]
            t["calls"] += 1
        return totals

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
        return len(self.spans)


class _NullRecorder:
    """Tracing off: the benchmark's own span sites cost one no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    operation = span


NULL_RECORDER = _NullRecorder()


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public calls each layer receives from the layer above.

    The span names are the per-layer metric prefixes of the benchmark
    (README.md, "Traced runs")."""
    from repro.fleet import SegmentCache, ServerPool
    from repro.machine import Interpreter, Machine
    from repro.runtime import LocalBackend, OffloadSession, RemoteBackend
    import repro.trace.analysis.report as report_module

    def register_interpreter(rec, result, args):
        rec.counts["machine.interpreters"] += 1
        rec.interpreters.append(args[0])

    # The interpreter: one span per entry that is not a guest call inside
    # a running interpreter; a server interpreter that the runtime starts
    # inside the mobile's gets its own span.
    recorder.install(Interpreter, "run_main", "machine.run",
                     outermost=True)
    recorder.install(Interpreter, "call_function", "machine.run",
                     outermost=True)
    recorder.install(Interpreter, "__init__", "machine.load",
                     after=register_interpreter)
    recorder.install(Machine, "load", "machine.load")
    recorder.install(OffloadSession, "run", "runtime.session")
    # One offload-target invocation; the remote backend may hand it to
    # the local one (decline, rejection, abort replay).
    recorder.install(RemoteBackend, "execute", "runtime.backend",
                     outermost=True)
    recorder.install(LocalBackend, "execute", "runtime.backend",
                     outermost=True)
    # admit_gang may degrade to admit: one span per admission request.
    recorder.install(ServerPool, "admit", "fleet.admit", outermost=True)
    recorder.install(ServerPool, "admit_gang", "fleet.admit",
                     outermost=True)
    recorder.install(SegmentCache, "advance", "fleet.segment")
    # build_report calls the span reconstruction through its module.
    recorder.install(report_module, "reconstruct_sessions",
                     "trace.reconstruct")
