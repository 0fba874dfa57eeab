"""Timed iterations, correctness checks and metric assembly.

One run executes whole iterations of a workload — every operation of
:func:`perfbench.workloads.make_inputs` once — for about ``seconds``.
Untraced iterations give the end-to-end metrics.  A traced run
alternates untraced and traced iterations: the fastest traced one gives
the per-layer metrics, and the difference between the fastest traced
and the fastest untraced wall time is ``bench.trace_overhead_s``.

Each host time is the best (lowest) over the run's iterations, rescaled
to a reference host speed.  The work is deterministic and
single-threaded, so the host can only slow an iteration down; and on a
shared machine whose speed halves for minutes at a time, a fixed
pure-Python calibration kernel, timed before every iteration, measures
how fast the host was during the run (README.md, "Host speed").
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional

from .spans import NULL_RECORDER, SpanRecorder, install_layer_wrappers
from .workloads import OpResult, check, run_operation

#: (name, unit, better) of every end-to-end metric, measured untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("execute_s", "s", "lower"),
    ("ir_instr_per_s", "instr/s", "higher"),
    ("invocations_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better) of every per-layer metric, from traced
#: iterations.  Model counts (runtime.invocations ... fleet.scale_events)
#: must not move at all; the direction listed for them is nominal.
PER_LAYER = (
    ("frontend.busy_s", "s", "lower"),
    ("frontend.ir_insts", "count", "lower"),
    ("profiler.busy_s", "s", "lower"),
    ("profiler.instructions", "count", "lower"),
    ("offload.busy_s", "s", "lower"),
    ("offload.targets", "count", "higher"),
    ("offload.shard_refusals", "count", "lower"),
    ("machine.busy_s", "s", "lower"),
    ("machine.instructions", "count", "lower"),
    ("machine.instr_per_s", "instr/s", "higher"),
    ("machine.load_s", "s", "lower"),
    ("machine.interpreters", "count", "lower"),
    ("runtime.local_s", "s", "lower"),
    ("runtime.session_s", "s", "lower"),
    ("runtime.session_self_s", "s", "lower"),
    ("runtime.sessions", "count", "lower"),
    ("runtime.invocations", "count", "higher"),
    ("runtime.offloaded", "count", "higher"),
    ("runtime.declined", "count", "lower"),
    ("runtime.rejected", "count", "lower"),
    ("runtime.aborted", "count", "lower"),
    ("runtime.fallbacks", "count", "lower"),
    ("runtime.retries", "count", "lower"),
    ("runtime.shard_plans", "count", "higher"),
    ("runtime.bytes_on_wire", "bytes", "lower"),
    ("runtime.cod_faults", "count", "lower"),
    ("runtime.prefetch_hit_ratio", "ratio", "higher"),
    ("fleet.busy_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("fleet.admit_calls", "count", "lower"),
    ("fleet.admit_s", "s", "lower"),
    ("fleet.summary_s", "s", "lower"),
    ("fleet.segment_runs", "count", "lower"),
    ("fleet.segment_hits", "count", "higher"),
    ("fleet.segment_hit_ratio", "ratio", "higher"),
    ("fleet.segment_s", "s", "lower"),
    ("fleet.queued", "count", "lower"),
    ("fleet.rejected", "count", "lower"),
    ("fleet.gang_admissions", "count", "higher"),
    ("fleet.scale_events", "count", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.reconstruct_s", "s", "lower"),
    ("trace.report_s", "s", "lower"),
    ("trace.render_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

#: Per-layer metrics that are exact counts: every traced iteration of
#: a run must report the same value.
EXACT = frozenset(name for name, unit, _ in PER_LAYER
                  if unit in ("count", "bytes", "ratio"))


#: Seconds :func:`calibrate` takes at the reference host speed (its best
#: time on a shared 2-vCPU Linux virtual machine, Python 3.11, in a fast
#: phase).
CALIBRATION_REF_S = 0.03


class _Frame:
    __slots__ = ("regs", "pc", "parent")

    def __init__(self, parent):
        self.regs = {}
        self.pc = 0
        self.parent = parent


def _calibration_kernel(steps: int = 120_000) -> int:
    """Fixed pure-Python work shaped like an interpreter loop — dict
    registers and memory, branches, small allocations — that uses no
    program code, so no change to the program can speed it up."""
    ops = ("add", "mul", "xor", "load", "store", "call")
    mem: Dict[int, int] = {}
    frame = _Frame(None)
    acc = 0
    for i in range(steps):
        op = ops[i % 6]
        regs = frame.regs
        if op == "add":
            regs[i & 15] = (regs.get((i - 1) & 15, 0) + i) & 0xFFFFFFFF
        elif op == "mul":
            regs[i & 15] = (regs.get(i & 15, 1) * 31) & 0xFFFFFFFF
        elif op == "xor":
            acc ^= regs.get(i & 7, 0)
        elif op == "load":
            acc += mem.get(i & 1023, 0)
        elif op == "store":
            mem[i & 1023] = acc & 0xFFFF
        else:
            frame = _Frame(frame if i & 63 else None)
        frame.pc += 1
    return acc


def calibrate(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the calibration kernel, now."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Iteration:
    """One pass over a workload's operations, and the calibration
    timing taken just before it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.calibration_s = math.inf
        self.attempted = 0
        self.results: List[OpResult] = []
        # Operation label -> what went wrong with it.
        self.failures: Dict[str, List[str]] = {}
        self.wall_s = 0.0
        self.layers: Dict[str, float] = {}

    def total(self, field: str) -> float:
        return sum(getattr(r, field) for r in self.results)


def run_iteration(ops, reference: Dict[str, dict],
                  recorder: Optional[SpanRecorder] = None) -> Iteration:
    """Run every operation once; with a recorder, under the layer
    wrappers (installed here and restored before returning)."""
    it = Iteration(traced=recorder is not None)
    rec = recorder if recorder is not None else NULL_RECORDER
    gc.collect()
    it.calibration_s = calibrate()
    first_span = len(recorder.spans) if recorder is not None else 0
    if recorder is not None:
        recorder.interpreters.clear()
        recorder.counts.clear()
        install_layer_wrappers(recorder)
    try:
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            it.attempted += 1
            with rec.operation("op"):
                try:
                    result = run_operation(op, rec)
                except Exception:
                    it.failures[f"operation {index}"] = [
                        traceback.format_exc()]
                    continue
            it.results.append(result)
            problems = check(result, reference)
            if problems:
                it.failures[result.key] = problems
        it.wall_s = time.perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.restore()
    if recorder is not None:
        op_ids = {s.op for s in recorder.spans[first_span:]}
        it.layers = layer_metrics(recorder, op_ids, it.results)
        recorder.interpreters.clear()
    return it


def layer_metrics(recorder: SpanRecorder, op_ids,
                  results: List[OpResult]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration (all but
    ``bench.trace_overhead_s``, which needs the untraced iterations)."""
    totals = recorder.layer_totals(op_ids)

    def busy(name):
        return totals.get(name, {}).get("busy", 0.0)

    def own(name):
        return totals.get(name, {}).get("self", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    counts: Dict[str, float] = {}
    for r in results:
        for name, value in r.counts.items():
            counts[name] = counts.get(name, 0) + value
    instructions = sum(i.instruction_count for i in recorder.interpreters)
    interpreting_s = own("machine.run")
    segments = counts["fleet.segment_runs"] + counts["fleet.segment_hits"]
    m = {
        "frontend.busy_s": busy("frontend"),
        "profiler.busy_s": busy("profiler"),
        "offload.busy_s": busy("offload"),
        "machine.busy_s": busy("machine.run"),
        "machine.instructions": instructions,
        "machine.instr_per_s": (instructions / interpreting_s
                                if interpreting_s > 0 else 0.0),
        "machine.load_s": busy("machine.load"),
        "machine.interpreters": recorder.counts["machine.interpreters"],
        "runtime.local_s": busy("runtime.local"),
        "runtime.session_s": busy("runtime.session"),
        "runtime.session_self_s": (own("runtime.session")
                                   + own("runtime.backend")),
        "runtime.sessions": calls("runtime.session"),
        "runtime.prefetch_hit_ratio": (
            counts["runtime.prefetch_hits"]
            / counts["runtime.prefetch_attempts"]
            if counts["runtime.prefetch_attempts"] else 0.0),
        "fleet.busy_s": busy("fleet"),
        "fleet.self_s": own("fleet"),
        "fleet.admit_calls": calls("fleet.admit"),
        "fleet.admit_s": busy("fleet.admit"),
        "fleet.summary_s": busy("fleet.summary"),
        "fleet.segment_hit_ratio": (counts["fleet.segment_hits"] / segments
                                    if segments else 0.0),
        "fleet.segment_s": busy("fleet.segment"),
        "trace.reconstruct_s": busy("trace.reconstruct"),
        "trace.report_s": busy("trace.report"),
        "trace.render_s": busy("trace.render"),
    }
    for name, _, _ in PER_LAYER:
        if name not in m and name in counts:
            m[name] = counts[name]
    return m


def run_workload(ops, reference: Dict[str, dict], seconds: float,
                 traced: bool, recorder: Optional[SpanRecorder] = None
                 ) -> List[Iteration]:
    """Run whole iterations for about ``seconds``: never start one that
    the median iteration so far says would end past the budget.
    Untraced: at least one iteration.  Traced: alternate untraced and
    traced iterations, at least one of each."""
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while True:
        want_trace = traced and len(iterations) % 2 == 1
        iterations.append(run_iteration(
            ops, reference, recorder if want_trace else None))
        if traced and len(iterations) < 2:
            continue
        typical = statistics.median(it.wall_s for it in iterations)
        if time.perf_counter() - start + typical > seconds:
            return iterations


def host_factor(iterations: List[Iteration]) -> float:
    """Reference speed over the run's best host speed: multiply a host
    time by it to express the time at the reference speed."""
    return CALIBRATION_REF_S / min(it.calibration_s for it in iterations)


def end_to_end_metrics(iterations: List[Iteration],
                       setup_s: float) -> Dict[str, float]:
    runs = [it for it in iterations if not it.traced]
    f = host_factor(iterations)
    return {
        "setup_s": setup_s * f,
        "wall_s": min(it.wall_s for it in runs) * f,
        "compile_s": min(it.total("compile_s") for it in runs) * f,
        "execute_s": min(it.total("execute_s") for it in runs) * f,
        "ir_instr_per_s": max(it.total("instructions")
                              / it.total("instr_time_s") for it in runs) / f,
        "invocations_per_s": max(it.total("invocations")
                                 / it.total("execute_s") for it in runs) / f,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(iterations: List[Iteration]) -> Dict[str, float]:
    fastest = min((it for it in iterations if it.traced),
                  key=lambda it: it.wall_s)
    untraced = min(it.wall_s for it in iterations if not it.traced)
    raw = dict(fastest.layers,
               **{"bench.trace_overhead_s": fastest.wall_s - untraced})
    f = host_factor(iterations)
    scale = {"s": f, "instr/s": 1.0 / f}
    return {name: raw[name] * scale[unit] if unit in scale else raw[name]
            for name, unit, _ in PER_LAYER}


def check_consistency(iterations: List[Iteration]) -> None:
    """Outputs must not depend on tracing or on the iteration, and the
    exact per-layer counts must repeat across traced iterations; each
    breach is recorded as a failure of the iteration it shows in."""
    first = {r.key: r.outputs for r in iterations[0].results}
    for n, it in enumerate(iterations[1:], start=1):
        for r in it.results:
            if r.key in first and r.outputs != first[r.key]:
                kind = "traced" if it.traced else "untraced"
                it.failures.setdefault(r.key, []).append(
                    f"iteration {n} ({kind}) outputs differ from "
                    f"iteration 0")
    traced = [it for it in iterations if it.traced]
    for it in traced[1:]:
        changed = [name for name in sorted(EXACT)
                   if it.layers[name] != traced[0].layers[name]]
        if changed:
            it.failures.setdefault("counts", []).append(
                f"exact counts changed between traced iterations: "
                f"{', '.join(changed)}")


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
