"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They use tiny inputs, so they check the harness — spans, wrappers,
reference checks, seeding, imports — not the host time of the program.
"""

import ast
import json
import os

import pytest

from perfbench import harness, workloads
from perfbench.harness import run_iteration
from perfbench.spans import SpanRecorder
from perfbench.workloads import (Device, FleetOp, PoolOptions, check,
                                 fleet_micro, make_inputs, parallel_micro)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CODE = sorted(name for name in os.listdir(HERE)
              if name.endswith(".py") and not name.startswith("test_"))


def tiny_program():
    return parallel_micro(128, shards=2)


def tiny_fleet():
    return FleetOp(key="tiny-fleet",
                   programs=(fleet_micro(6),),
                   devices=tuple(Device(0, 0.001 * i, None)
                                 for i in range(3)),
                   pool=PoolOptions(servers=1, capacity=4),
                   guards=workloads.UNIFORM_GUARDS,
                   dynamic_estimation=False)


def frozen(ops):
    """A reference made from one untraced run of ``ops``."""
    it = run_iteration(ops, reference={})
    return {r.key: r.outputs for r in it.results}


@pytest.fixture(scope="module")
def traced_iteration():
    ops = [tiny_program(), tiny_fleet()]
    recorder = SpanRecorder()
    it = run_iteration(ops, frozen(ops), recorder)
    return ops, recorder, it


def test_self_times_are_nonnegative_and_sum_to_each_root(traced_iteration):
    _, recorder, it = traced_iteration
    assert not it.failures
    own = recorder.self_times()
    assert min(own.values()) >= -1e-9
    roots = [s for s in recorder.spans if s.parent is None]
    assert len(roots) == 2
    for root in roots:
        total = sum(own[s.sid] for s in recorder.spans if s.op == root.op)
        assert total == pytest.approx(root.duration, abs=1e-9)


def test_spans_cover_every_layer(traced_iteration):
    _, recorder, it = traced_iteration
    names = {s.name for s in recorder.spans}
    assert {"frontend", "profiler", "offload", "machine.run",
            "machine.load", "runtime.local", "runtime.session",
            "runtime.backend", "fleet",
            "fleet.admit", "fleet.segment", "fleet.summary"} <= names
    layers = it.layers
    assert layers["machine.instructions"] > 0
    assert layers["runtime.sessions"] == layers["fleet.segment_runs"] + 1
    assert layers["fleet.admit_calls"] == 3 * 3


def test_reentrant_calls_do_not_open_nested_spans(traced_iteration):
    _, recorder, _ = traced_iteration
    by_id = {s.sid: s for s in recorder.spans}
    nested = [s for s in recorder.spans if s.parent is not None
              and by_id[s.parent].name == s.name]
    assert [s.name for s in nested] == []
    # A server interpreter runs inside the runtime, inside the mobile's.
    servers = [s for s in recorder.spans if s.name == "machine.run"
               and by_id[s.parent].name == "runtime.backend"]
    assert servers


def test_wrappers_are_removed_afterwards():
    from repro.fleet import SegmentCache, ServerPool
    from repro.machine import Interpreter, Machine
    from repro.runtime import OffloadSession
    import repro.trace.analysis.report as report_module
    from repro.runtime import LocalBackend, RemoteBackend
    targets = [(Interpreter, "run_main"), (Interpreter, "call_function"),
               (Interpreter, "__init__"), (Machine, "load"),
               (OffloadSession, "run"), (RemoteBackend, "execute"),
               (LocalBackend, "execute"), (ServerPool, "admit"),
               (ServerPool, "admit_gang"), (SegmentCache, "advance"),
               (report_module, "reconstruct_sessions")]
    before = [owner.__dict__[attr] for owner, attr in targets]
    seen = []

    class Probe(SpanRecorder):
        def begin(self, name):
            seen.append(self.installed)
            return super().begin(name)

    recorder = Probe()
    run_iteration([tiny_program()], {}, recorder)
    assert max(seen) == len(targets)
    assert recorder.installed == 0
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def test_traced_outputs_equal_untraced(traced_iteration):
    ops, _, it = traced_iteration
    untraced = frozen(ops)
    assert {r.key: r.outputs for r in it.results} == untraced


@pytest.mark.parametrize("field,value", [
    ("stdout_sha256", "0" * 64),
    ("total_seconds", 1.0),
    ("energy_mj", -1.0),
])
def test_a_corrupted_output_fails_the_operation(field, value):
    ops = [tiny_program()]
    reference = frozen(ops)
    assert not run_iteration(ops, reference).failures
    reference[ops[0].key] = dict(reference[ops[0].key], **{field: value})
    it = run_iteration(ops, reference)
    assert it.attempted == 1
    assert len(it.failures) == 1
    assert field in it.failures[ops[0].key][0]


def test_a_broken_guard_fails_the_operation():
    ops = [tiny_fleet()]
    it = run_iteration(ops, frozen(ops))
    result = it.results[0]
    assert check(result, {result.key: result.outputs}) == []
    result.guards["every invocation offloaded"] = False
    assert check(result, {result.key: result.outputs}) == [
        "guard failed: every invocation offloaded"]


def test_a_missing_reference_fails_the_operation():
    it = run_iteration([tiny_program()], reference={})
    assert len(it.failures) == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_same_seed_gives_identical_inputs(name):
    assert make_inputs(name, 7) == make_inputs(name, 7)
    assert make_inputs(name, 7) != make_inputs(name, 8)


def test_every_variant_has_a_frozen_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"]
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            for op in make_inputs(name, variant):
                assert op.key in reference[name], (name, op.key)


def _repro_imports():
    """(module, imported names) of every ``repro`` import in the
    benchmark's code."""
    found = []
    for name in CODE:
        with open(os.path.join(HERE, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "repro"
                    or node.module.startswith("repro.")):
                found.append((node.module, [a.name for a in node.names]))
            elif isinstance(node, ast.Import):
                found.extend((a.name, []) for a in node.names
                             if a.name.split(".")[0] == "repro")
    return found


def test_the_benchmark_imports_only_public_repro_names():
    import importlib
    imports = _repro_imports()
    assert imports
    for module_name, names in imports:
        assert "__main__" not in module_name
        assert not any(part.startswith("_")
                       for part in module_name.split("."))
        module = importlib.import_module(module_name)
        for name in names:
            assert name in module.__all__, (module_name, name)


def test_the_micro_kernels_are_the_benchmarks_own_copies():
    from perfbench import kernels
    for name in CODE:
        with open(os.path.join(HERE, name)) as fh:
            text = fh.read()
        assert "_FLEET_MICRO_SRC" not in text
        assert "_PARALLEL_MICRO_SRC" not in text
    assert "int crunch(void)" in kernels.FLEET_MICRO_SRC
    assert "void smooth(void)" in kernels.PARALLEL_MICRO_SRC


def test_no_lockstep_engine_and_no_direct_dispatcher():
    for name in CODE:
        with open(os.path.join(HERE, name)) as fh:
            text = fh.read()
        for word in ("lockstep", "Lockstep", "DirectDispatcher"):
            assert word not in text, (name, word)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_times_are_rescaled_to_the_reference_host_speed():
    from perfbench.workloads import OpResult
    iterations = []
    for wall, calibration in ((4.0, 0.06), (3.0, 0.05), (5.0, 0.04)):
        it = harness.Iteration(traced=False)
        it.wall_s, it.calibration_s = wall, calibration
        it.results = [OpResult(key="k", outputs={}, counts={}, guards={},
                               compile_s=1.0, execute_s=wall - 1.0,
                               instructions=100, instr_time_s=wall,
                               invocations=2)]
        iterations.append(it)
    factor = harness.CALIBRATION_REF_S / 0.04
    assert harness.host_factor(iterations) == factor
    metrics = harness.end_to_end_metrics(iterations, setup_s=0.5)
    assert metrics["wall_s"] == 3.0 * factor
    assert metrics["execute_s"] == 2.0 * factor
    assert metrics["setup_s"] == 0.5 * factor
    assert metrics["invocations_per_s"] == 1.0 / factor
    assert 0 < harness.calibrate(repeats=1) < 10
