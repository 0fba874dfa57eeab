"""The benchmark's workloads: seeded inputs and the operations they run.

Every workload is a closed batch of *operations* run in one thread.  An
operation is one program pipeline (``offload-run``) or one fleet (the
two fleet workloads).  :func:`make_inputs` turns ``(workload, seed)``
into the operations' inputs without touching the program's code paths;
:func:`run_operation` drives one operation through public ``repro``
names and returns its outputs, exact counts and host times.

The seed selects one of :data:`VARIANTS` input variants.  Variants
change the data — arrivals, fault schedules, device mix, kernel size,
program order — but not the amount of host work, so the spread between
seeds measures the host, not the draw; and every variant has a frozen
reference (``reference.json``), so every seed is checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Tuple

from repro import (CompilerOptions, NativeOffloaderCompiler, OffloadSession,
                   SessionOptions, compile_c, profile_module, run_local)
from repro.fleet import (Autoscaler, AutoscalerOptions, DeviceSpec,
                         PoolOptions, SeedFanout, ServerPool, ServerSpec,
                         arrival_offsets, make_scheduler)
from repro.runtime import NETWORKS, FaultPlan
from repro.trace.analysis import (build_report, invocation_counts,
                                  render_html, report_to_json)
from repro.workloads import workload as table4_workload

from .kernels import (FLEET_MICRO_SRC, FLEET_MICRO_TARGET,
                      PARALLEL_MICRO_SRC, PARALLEL_MICRO_TARGET)

WORKLOADS = ("offload-run", "fleet-uniform", "fleet-contended")
VARIANTS = 16
NETWORK = "802.11ac"

# offload-run: long sessions of a Table 4 program (three invocations,
# function pointers) plus the shardable kernel over four servers.  The
# Table 4 program keeps its profiling input; its evaluation input is
# smaller than the registry's (3 turns at a search budget of 4 instead
# of 12), so a run repeats the batch often enough for a stable median.
OFFLOAD_RUN_PROGRAMS = (("458.sjeng", b"3 4\n8 16\n12 20\n20 28\n"),)
OFFLOAD_RUN_SHARDS = 4
OFFLOAD_RUN_PARALLEL_N = (992, 8)           # base, step per variant

# fleet-uniform: many identical untraced devices, uncontended pool.
UNIFORM_DEVICES = 8000
UNIFORM_N = 60
UNIFORM_SPACING_S = 0.002
UNIFORM_POOL = PoolOptions(servers=2, capacity=64)

# fleet-contended: a small traced heterogeneous fleet on a tight tiered
# pool, faulty links, deadline-aware placement and the autoscaler.
CONTENDED_DEVICES = 32
CONTENDED_FLEET_N = 20
CONTENDED_PARALLEL_N = 200
CONTENDED_SHARDS = 2
CONTENDED_SPACING_S = 0.0003
CONTENDED_DEADLINE_S = 0.2
CONTENDED_QUEUE_LIMIT = 2
CONTENDED_FAULTS = dict(drop_rate=0.1, disconnect_rate=0.1,
                        reconnect_rate=0.1)

# Mechanism guards: what each fleet workload was chosen to exercise.
UNIFORM_GUARDS = ("segment runs == k+1", "every invocation offloaded")
CONTENDED_GUARDS = ("no segment cache hits", "admissions queued",
                    "admissions rejected", "gangs admitted", "pool resized",
                    "transport retried", "an abort replayed locally")


@dataclasses.dataclass(frozen=True)
class Program:
    """One mini-C program and the inputs it is profiled and run with."""

    key: str                        # names the operation's reference
    name: str
    source: str
    profile_stdin: bytes
    stdin: bytes
    profile_files: Optional[Dict[str, bytes]] = None
    files: Optional[Dict[str, bytes]] = None
    # None lets the target selector choose, as `repro run` does.
    forced_targets: Optional[Tuple[str, ...]] = None
    shards: int = 1


@dataclasses.dataclass(frozen=True)
class Device:
    program: int                    # index into FleetOp.programs
    start_offset_s: float
    fault_seed: Optional[int]


@dataclasses.dataclass(frozen=True)
class FleetOp:
    """One fleet: programs, devices, pool and control plane.  A traced
    fleet also builds the JSON and HTML report from its merged trace."""

    key: str
    programs: Tuple[Program, ...]
    devices: Tuple[Device, ...]
    pool: PoolOptions
    guards: Tuple[str, ...]         # names from FLEET_GUARDS
    engine: str = "fifo"
    autoscale: Optional[AutoscalerOptions] = None
    traced: bool = False
    deadline_s: Optional[float] = None
    faults: Optional[dict] = None
    dynamic_estimation: bool = True


@dataclasses.dataclass
class OpResult:
    """What one operation produced."""

    key: str
    outputs: dict                  # compared against the reference
    counts: Dict[str, float]       # exact model/static counts
    guards: Dict[str, bool]        # mechanism guards (must all hold)
    compile_s: float
    execute_s: float
    instructions: int              # IR instructions public fields report
    instr_time_s: float            # host time that interpreted them
    invocations: int


def _micro(name: str, source: str, target: str, n: int,
           shards: int = 1) -> Program:
    stdin = f"{n}\n".encode()
    return Program(key=f"{name}:n={n}:shards={shards}", name=name,
                   source=source, profile_stdin=stdin, stdin=stdin,
                   forced_targets=(target,), shards=shards)


def fleet_micro(n: int) -> Program:
    return _micro("fleet-micro", FLEET_MICRO_SRC, FLEET_MICRO_TARGET, n)


def parallel_micro(n: int, shards: int) -> Program:
    return _micro("parallel-micro", PARALLEL_MICRO_SRC,
                  PARALLEL_MICRO_TARGET, n, shards)


def make_inputs(name: str, seed: int) -> list:
    """The operations of one iteration of workload ``name`` at ``seed``
    (the same seed always gives the same list)."""
    variant = seed % VARIANTS
    fan = SeedFanout(variant)
    if name == "offload-run":
        rng = fan.rng("offload-run")
        programs = []
        for prog, stdin in OFFLOAD_RUN_PROGRAMS:
            spec = table4_workload(prog)
            programs.append(Program(
                key=f"{spec.name}:stdin={' '.join(stdin.decode().split())}",
                name=spec.name, source=spec.source,
                profile_stdin=spec.profile_stdin, stdin=stdin,
                profile_files=spec.profile_files or None,
                files=spec.eval_files or None))
        base, step = OFFLOAD_RUN_PARALLEL_N
        programs.append(parallel_micro(base + step * variant,
                                       OFFLOAD_RUN_SHARDS))
        rng.shuffle(programs)
        return programs
    if name == "fleet-uniform":
        offsets = arrival_offsets("poisson", UNIFORM_DEVICES,
                                  UNIFORM_SPACING_S, fan.rng("arrivals"))
        devices = tuple(Device(0, t, None) for t in offsets)
        return [FleetOp(key=f"fleet-uniform:variant={variant}",
                        programs=(fleet_micro(UNIFORM_N),),
                        devices=devices, pool=UNIFORM_POOL,
                        guards=UNIFORM_GUARDS)]
    if name == "fleet-contended":
        offsets = arrival_offsets("poisson", CONTENDED_DEVICES,
                                  CONTENDED_SPACING_S, fan.rng("arrivals"))
        # Exactly half the devices run each kernel; the seed decides
        # which ones.
        kinds = [i % 2 for i in range(CONTENDED_DEVICES)]
        fan.rng("mix").shuffle(kinds)
        devices = tuple(Device(kind, offsets[i], fan.seed("fault", i))
                        for i, kind in enumerate(kinds))
        edge = ServerSpec(capacity=1, queue_limit=CONTENDED_QUEUE_LIMIT)
        cloud = ServerSpec(speed=2.0, capacity=1,
                           queue_limit=CONTENDED_QUEUE_LIMIT, tier="cloud",
                           network=NETWORKS["cloud-wan"])
        return [FleetOp(
            key=f"fleet-contended:variant={variant}",
            programs=(fleet_micro(CONTENDED_FLEET_N),
                      parallel_micro(CONTENDED_PARALLEL_N,
                                     CONTENDED_SHARDS)),
            devices=devices,
            pool=PoolOptions(specs=(edge, edge, cloud)),
            guards=CONTENDED_GUARDS, engine="deadline-aware",
            autoscale=AutoscalerOptions(template=edge, max_servers=5),
            traced=True, deadline_s=CONTENDED_DEADLINE_S,
            faults=CONTENDED_FAULTS, dynamic_estimation=False)]
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


# -- digests ----------------------------------------------------------------
def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ir_size(module) -> int:
    """Static IR size: instructions over every defined function."""
    return sum(len(block.instructions)
               for fn in module.defined_functions() for block in fn.blocks)


def _session_counts(results) -> Dict[str, float]:
    """The runtime layer's model counts over some session results."""
    records = [r for res in results for r in res.invocations]
    outcomes = invocation_counts(records)
    uva = [res.uva_stats for res in results if res.uva_stats is not None]
    hits = sum(u.prefetch_hits for u in uva)
    return {
        "runtime.invocations": outcomes["total"],
        "runtime.offloaded": outcomes["offloaded"],
        "runtime.declined": outcomes["declined"],
        "runtime.rejected": outcomes["rejected"],
        "runtime.aborted": outcomes["aborted"],
        "runtime.fallbacks": outcomes["local_fallbacks"],
        "runtime.retries": sum(res.transport_stats.retries
                               for res in results
                               if res.transport_stats is not None),
        "runtime.shard_plans": sum(1 for r in records if r.shards > 1),
        "runtime.bytes_on_wire": sum(res.bytes_to_server
                                     + res.bytes_to_mobile
                                     for res in results),
        "runtime.cod_faults": sum(res.cod_faults for res in results),
        "runtime.prefetch_hits": hits,
        "runtime.prefetch_attempts": hits + sum(u.prefetch_wasted
                                                for u in uva),
    }


# -- operations -------------------------------------------------------------
def compile_program(prog: Program, rec, counts: Dict[str, float]):
    """C source -> OffloadProgram: frontend, profiling run, passes."""
    with rec.span("frontend"):
        module = compile_c(prog.source, prog.name)
    counts["frontend.ir_insts"] += ir_size(module)
    with rec.span("profiler"):
        profile = profile_module(module, stdin=prog.profile_stdin,
                                 files=prog.profile_files)
    forced = (list(prog.forced_targets)
              if prog.forced_targets is not None else None)
    with rec.span("offload"):
        program = NativeOffloaderCompiler(
            CompilerOptions(forced_targets=forced)).compile(module, profile)
    counts["profiler.instructions"] += profile.instructions
    counts["offload.targets"] += len(program.target_names())
    counts["offload.shard_refusals"] += len(program.shard_refusals)
    return module, profile, program


def run_program(prog: Program, rec) -> OpResult:
    """``python -m repro run``: compile, the local baseline, and one
    offload session over the benchmark network."""
    counts = _zero_counts()
    t0 = time.perf_counter()
    module, profile, program = compile_program(prog, rec, counts)
    t1 = time.perf_counter()
    with rec.span("runtime.local"):
        local = run_local(module, stdin=prog.stdin, files=prog.files)
    session = OffloadSession(program, NETWORKS[NETWORK],
                             options=SessionOptions(shards=prog.shards),
                             stdin=prog.stdin, files=prog.files)
    result = session.run()
    t2 = time.perf_counter()
    counts.update(_session_counts([result]))
    outputs = {
        "stdout_sha256": sha256(result.stdout),
        "exit_code": result.exit_code,
        "total_seconds": result.total_seconds,
        "energy_mj": result.energy_mj,
        "bytes_to_server": result.bytes_to_server,
        "bytes_to_mobile": result.bytes_to_mobile,
        "local_seconds": local.seconds,
        "local_energy_mj": local.energy_mj,
        "invocation_shards": [r.shards for r in result.invocations],
    }
    guards = {"offloaded output identical to local":
              result.stdout == local.stdout}
    if prog.shards > 1:
        guards[f"a plan ran with {prog.shards} shards"] = any(
            r.shards == prog.shards for r in result.invocations)
    instructions = (profile.instructions + local.instructions
                    + result.instructions_mobile
                    + result.instructions_server)
    return OpResult(key=prog.key, outputs=outputs, counts=counts,
                    guards=guards, compile_s=t1 - t0, execute_s=t2 - t1,
                    instructions=instructions, instr_time_s=t2 - t0,
                    invocations=len(result.invocations))


def run_fleet(op: FleetOp, rec) -> OpResult:
    """One fleet: compile its programs, simulate it, summarize it and
    (when traced) build the JSON and HTML report."""
    counts = _zero_counts()
    network = NETWORKS[NETWORK]
    t0 = time.perf_counter()
    programs = [compile_program(p, rec, counts)[2] for p in op.programs]
    compile_s = time.perf_counter() - t0
    profile_instructions = counts["profiler.instructions"]

    base_plan = FaultPlan(**op.faults) if op.faults else None
    devices = []
    for i, dev in enumerate(op.devices):
        prog = op.programs[dev.program]
        plan = (dataclasses.replace(base_plan, seed=dev.fault_seed)
                if base_plan is not None else None)
        options = SessionOptions(
            enable_tracing=op.traced, fault_plan=plan, shards=prog.shards,
            enable_dynamic_estimation=op.dynamic_estimation)
        devices.append(DeviceSpec(
            device_id=f"dev{i:05d}", program=programs[dev.program],
            network=network, stdin=prog.stdin, files=prog.files,
            start_offset_s=dev.start_offset_s, options=options,
            deadline_s=op.deadline_s))
    pool = ServerPool(op.pool, engine=op.engine)
    autoscaler = Autoscaler(op.autoscale) if op.autoscale else None
    scheduler = make_scheduler(devices, pool, engine="event",
                               autoscaler=autoscaler)
    t1 = time.perf_counter()
    with rec.span("fleet"):
        result = scheduler.run()
    execute_s = time.perf_counter() - t1
    with rec.span("fleet.summary"):
        summary = result.summary()

    results = [d.result for d in result.devices]
    records = [r for res in results for r in res.invocations]
    counts.update(_session_counts(results))
    replay = scheduler.replay.stats()
    servers = summary["servers_detail"]
    scaling = summary["autoscale"]
    inv = summary["invocations"]
    counts.update({
        "fleet.segment_runs": replay["session_runs"],
        "fleet.segment_hits": replay["shared_hits"],
        "fleet.queued": summary["queue"]["queued_admissions"],
        "fleet.rejected": sum(s["rejected"] for s in servers),
        "fleet.gang_admissions": sum(s["shard_admissions"]
                                     for s in servers),
        "fleet.scale_events": (scaling.get("scale_ups", 0)
                               + scaling.get("scale_downs", 0)),
    })
    outputs = {
        "summary_sha256": sha256(json.dumps(summary, sort_keys=True)),
        "stdout_sha256": sha256("\0".join(r.stdout for r in results)),
        "makespan_s": summary["makespan_s"],
        "total_seconds": sum(r.total_seconds for r in results),
        "energy_mj": summary["energy_mj_total"],
        "bytes": counts["runtime.bytes_on_wire"],
    }
    if op.traced:
        events = result.merged_events()
        counts["trace.events"] = len(events)
        counts["trace.dropped"] = result.dropped_events
        with rec.span("trace.report"):
            report = build_report(
                events, source={"kind": "fleet", "op": op.key},
                dropped=result.dropped_events,
                servers=result.pool.servers_detail(result.makespan_s))
            text = report_to_json(report)
        with rec.span("trace.render"):
            html = render_html(report)
        outputs["report_sha256"] = sha256(text)
        outputs["html_sha256"] = sha256(html)

    per_device = {len(r.invocations) for r in results}
    replayed_aborts = sum(1 for r in records if r.aborted
                          and r.fallback_local)
    checks = {
        "segment runs == k+1": (len(per_device) == 1 and
                                replay["session_runs"]
                                == min(per_device) + 1),
        "every invocation offloaded": inv["offloaded"] == inv["total"] > 0,
        "no segment cache hits": replay["shared_hits"] == 0,
        "admissions queued": counts["fleet.queued"] > 0,
        "admissions rejected": counts["fleet.rejected"] > 0,
        "gangs admitted": counts["fleet.gang_admissions"] > 0,
        "pool resized": counts["fleet.scale_events"] > 0,
        "transport retried": counts["runtime.retries"] > 0,
        "an abort replayed locally": replayed_aborts > 0,
    }
    return OpResult(key=op.key, outputs=outputs, counts=counts,
                    guards={name: checks[name] for name in op.guards},
                    compile_s=compile_s, execute_s=execute_s,
                    instructions=profile_instructions,
                    instr_time_s=compile_s, invocations=inv["total"])


def run_operation(op, rec) -> OpResult:
    if isinstance(op, FleetOp):
        return run_fleet(op, rec)
    return run_program(op, rec)


COUNT_NAMES = (
    "frontend.ir_insts", "profiler.instructions", "offload.targets",
    "offload.shard_refusals",
    "runtime.invocations", "runtime.offloaded", "runtime.declined",
    "runtime.rejected", "runtime.aborted", "runtime.fallbacks",
    "runtime.retries", "runtime.shard_plans", "runtime.bytes_on_wire",
    "runtime.cod_faults", "runtime.prefetch_hits",
    "runtime.prefetch_attempts",
    "fleet.segment_runs", "fleet.segment_hits", "fleet.queued",
    "fleet.rejected", "fleet.gang_admissions", "fleet.scale_events",
    "trace.events", "trace.dropped",
)


def _zero_counts() -> Dict[str, float]:
    return {name: 0 for name in COUNT_NAMES}


def check(result: OpResult, reference: Dict[str, dict]) -> List[str]:
    """Every way ``result`` differs from its frozen reference or breaks
    a mechanism guard ([] when the operation is correct)."""
    problems = [f"guard failed: {name}"
                for name, ok in result.guards.items() if not ok]
    expected = reference.get(result.key)
    if expected is None:
        problems.append(f"no frozen reference for {result.key}")
        return problems
    for field in sorted(set(expected) | set(result.outputs)):
        got, want = result.outputs.get(field), expected.get(field)
        if got != want:
            problems.append(f"{field}: got {got!r}, reference {want!r}")
    return problems
