"""Golden interpreter fingerprints and exception-path exactness.

Every expected value in ``interpreter_golden.json`` was frozen from the
tree-walking interpreter that the compiled closure interpreter replaced,
so these tests prove the rewrite moved no simulated number: instruction
counts, cycles to the last bit (``float.hex``), the per-class cycle
breakdown *in first-charge order*, the unification-overhead counters,
stdout, and every profile candidate of the 17 registry workloads.

The exception-path cases pin the values the interpreter leaves behind
when execution stops part-way through a block — the execution limit at
every instruction of a small program, a segmentation fault on a mid-block
load, ``exit()`` from a nested call, and a dead link during a server-side
copy-on-demand fault on a pointer load — together with the cycle stamps
every observer callback saw on the way out.

A deliberate change to the timing model invalidates the file; regenerate
it with::

    PYTHONPATH=src python tests/test_interpreter_golden.py --freeze
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import pytest

from repro.frontend import compile_c
from repro.machine import (ExecutionLimitExceeded, Interpreter,
                           IOEnvironment, Machine, Observer,
                           SegmentationFault, install_libc)
from repro.offload import CompilerOptions, NativeOffloaderCompiler
from repro.profiler import profile_module
from repro.runtime import (FAST_WIFI, FaultPlan, OffloadSession,
                           SessionOptions, run_local)
import repro.runtime.local as local_module
from repro.targets import ARM32, MIPS32BE, X86_64, DataLayout
from repro.workloads.registry import SPEC_WORKLOADS, workload

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "interpreter_golden.json")


# -- fingerprints -----------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def _page_runs(pages) -> List[List[int]]:
    """Sorted pages as inclusive [first, last] runs (keeps the file small)."""
    runs: List[List[int]] = []
    for page in sorted(pages):
        if runs and runs[-1][1] == page - 1:
            runs[-1][1] = page
        else:
            runs.append([page, page])
    return runs


def _interp_state(interp: Interpreter) -> Dict:
    machine = interp.machine
    return {
        "instruction_count": interp.instruction_count,
        "cycles": interp.cycles.hex(),
        "cycles_by_class": [[k, v.hex()]
                            for k, v in interp.cycles_by_class.items()],
        "pointer_conversions": machine.pointer_conversions,
        "endian_swaps": machine.endian_swaps,
    }


class _CapturingInterpreter(Interpreter):
    """Remembers the interpreter ``run_local`` creates."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CapturingInterpreter.last = self


def local_fingerprint(name: str) -> Dict:
    spec = workload(name)
    saved = local_module.Interpreter
    local_module.Interpreter = _CapturingInterpreter
    try:
        result = run_local(spec.module(), stdin=spec.profile_stdin,
                           files=dict(spec.profile_files))
    finally:
        local_module.Interpreter = saved
    state = _interp_state(_CapturingInterpreter.last)
    state["exit_code"] = result.exit_code
    state["stdout_sha256"] = _digest(result.stdout)
    return state


def profile_fingerprint(name: str) -> Dict:
    spec = workload(name)
    data = profile_module(spec.module(), stdin=spec.profile_stdin,
                          files=dict(spec.profile_files))
    return {
        "instructions": data.instructions,
        "program_seconds": data.program_seconds.hex(),
        "candidates": {
            cname: [c.invocations, c.total_seconds.hex(),
                    _page_runs(c.pages_touched)]
            for cname, c in sorted(data.candidates.items())
        },
    }


# Pointer-size conversion and endianness translation are off on the
# default mobile run; these two runs turn each on for a whole program.
CROSS_LAYOUTS = {
    "x86_64-ptr32": (X86_64, "server", lambda: DataLayout(
        X86_64, pointer_bytes=4)),
    "mips32be-little": (MIPS32BE, "mobile", lambda: DataLayout(
        MIPS32BE, byte_order="little")),
}
CROSS_WORKLOADS = ("445.gobmk", "458.sjeng")


def cross_layout_fingerprint(name: str, layout_name: str) -> Dict:
    arch, role, make_layout = CROSS_LAYOUTS[layout_name]
    spec = workload(name)
    machine = Machine(arch, role, io=IOEnvironment(
        files=dict(spec.profile_files), stdin=spec.profile_stdin))
    machine.set_layout(make_layout())
    install_libc(machine)
    machine.load(spec.module())
    interp = Interpreter(machine)
    exit_code = interp.run_main()
    state = _interp_state(interp)
    state["exit_code"] = exit_code
    state["stdout_sha256"] = _digest(machine.io.stdout_text())
    return state


# -- exception paths --------------------------------------------------------

class RecordingObserver(Observer):
    """Logs the cycle stamp of every function and block callback."""

    def __init__(self):
        self.events: List[List] = []

    def enter_function(self, fn, cycles):
        self.events.append(["call", fn.name, cycles.hex()])

    def exit_function(self, fn, cycles):
        self.events.append(["exit", fn.name, cycles.hex()])

    def enter_block(self, block, cycles):
        self.events.append(["block", block.name, cycles.hex()])


def _observed_machine(source: str, name: str):
    machine = Machine(ARM32, "mobile")
    install_libc(machine)
    machine.load(compile_c(source, name))
    return machine


# A multi-instruction entry block with a call in its middle, so limits
# land before, inside and after the callee and on both sides of it.
LIMIT_SRC = r"""
int g[4];
int helper(int x) { int y = x * 3; return y + g[0] + 1; }
int main() {
    int a = 5, b = 7, c;
    g[1] = a + b;
    c = helper(g[1]) + a * b;
    g[2] = c / 3;
    g[3] = c % 5 + g[2];
    return g[3] & 0xff;
}
"""


def limit_case(limit: int) -> Dict:
    machine = _observed_machine(LIMIT_SRC, "limit")
    observer = RecordingObserver()
    interp = Interpreter(machine, observer=observer,
                         max_instructions=limit)
    try:
        code = interp.run_main()
        outcome = ["exit", code]
    except ExecutionLimitExceeded:
        outcome = ["limit"]
    state = _interp_state(interp)
    state["outcome"] = outcome
    state["events"] = observer.events
    return state


def limit_cases() -> List[Dict]:
    machine = _observed_machine(LIMIT_SRC, "limit")
    interp = Interpreter(machine)
    interp.run_main()
    return [limit_case(n) for n in range(1, interp.instruction_count + 1)]


# The load through ``p`` faults with a multiply before it and a store,
# a division and a call after it in the same block; ``div`` is first
# charged only after the fault point.
SEGV_SRC = r"""
int g;
int main() {
    int a = 3, b = 4;
    int *p = (int *) 16;
    g = a * b;
    a = *p + g;
    b = a / b;
    printf("%d\n", b);
    return 0;
}
"""


def segfault_case() -> Dict:
    machine = _observed_machine(SEGV_SRC, "segv")
    observer = RecordingObserver()
    interp = Interpreter(machine, observer=observer)
    with pytest.raises(SegmentationFault) as fault:
        interp.run_main()
    state = _interp_state(interp)
    state["address"] = fault.value.address
    state["events"] = observer.events
    state["sp"] = interp.sp
    state["call_depth"] = interp.call_depth
    return state


EXIT_SRC = r"""
int depth2(int x) { int y = x * 5; if (y > 20) exit(y % 7 + x); return y; }
int depth1(int x) { int r = depth2(x * 2); printf("%d\n", r); return r + 1; }
int main() { int v = depth1(3); printf("%d\n", v); return 0; }
"""


def exit_case() -> Dict:
    machine = _observed_machine(EXIT_SRC, "exit")
    observer = RecordingObserver()
    interp = Interpreter(machine, observer=observer)
    code = interp.run_main()
    state = _interp_state(interp)
    state["exit_code"] = code
    state["events"] = observer.events
    state["sp"] = interp.sp
    state["call_depth"] = interp.call_depth
    state["stdout"] = machine.io.stdout_text()
    return state


# Each node fills a page and the walk reads ``next`` (a pointer, so the
# ARM32 -> x86_64 server converts its width) before anything else on the
# node's page; without prefetch every node is a copy-on-demand fault, and
# the link dies during the one on the second node.
LINK_SRC = r"""
struct node { struct node *next; int val; int pad[1020]; };
struct node *head;
int walk(int n) {
    struct node *p = head;
    int j, acc = 0;
    while (p) {
        struct node *q = p->next;
        for (j = 0; j < 60; j++) acc += (p->val ^ j) * 3 + n;
        p = q;
    }
    return acc;
}
int main() {
    int i, n, acc = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) {
        struct node *x = (struct node*) malloc(sizeof(struct node));
        x->next = head;
        x->val = i;
        head = x;
    }
    for (i = 0; i < 2; i++) acc += walk(i);
    printf("%d\n", acc);
    return 0;
}
"""
LINK_STDIN = b"12\n"
LINK_DISCONNECT_AFTER = 7


def link_down_case() -> Dict:
    module = compile_c(LINK_SRC, "linkdown")
    profile = profile_module(module, stdin=LINK_STDIN)
    program = NativeOffloaderCompiler(CompilerOptions()).compile(
        module, profile)
    assert program.options.mobile_arch is ARM32
    assert program.options.server_arch is X86_64
    session = OffloadSession(program, FAST_WIFI, options=SessionOptions(
        enable_dynamic_estimation=False, enable_prefetch=False,
        fault_plan=FaultPlan(disconnect_after_messages=LINK_DISCONNECT_AFTER)),
        stdin=LINK_STDIN)
    result = session.run()
    aborted = [r for r in result.invocations if r.aborted]
    return {
        "stdout": result.stdout,
        "total_seconds": result.total_seconds.hex(),
        "aborted": [[r.target, r.abort_phase, r.server_seconds.hex()]
                    for r in aborted],
        "server_instructions": session.server_instructions,
        "server_pointer_conversions": session.server.pointer_conversions,
    }


# -- freezing and loading ---------------------------------------------------

def compute_golden() -> Dict:
    names = [w.name for w in SPEC_WORKLOADS]
    return {
        "run_local": {n: local_fingerprint(n) for n in names},
        "profile_module": {n: profile_fingerprint(n) for n in names},
        "cross_layout": {f"{n}@{lay}": cross_layout_fingerprint(n, lay)
                         for n in CROSS_WORKLOADS for lay in CROSS_LAYOUTS},
        "limit": limit_cases(),
        "segfault": segfault_case(),
        "exit": exit_case(),
        "link_down": link_down_case(),
    }


def _load_golden() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _load_golden() if os.path.exists(GOLDEN_PATH) else {}
REGISTRY = [w.name for w in SPEC_WORKLOADS]


def _roundtrip(value):
    """Lists and tuples compare alike after a JSON round trip."""
    return json.loads(json.dumps(value))


def test_golden_covers_the_registry():
    assert len(REGISTRY) == 17
    assert sorted(GOLDEN["run_local"]) == sorted(REGISTRY)
    assert sorted(GOLDEN["profile_module"]) == sorted(REGISTRY)


@pytest.mark.parametrize("name", REGISTRY)
def test_run_local_fingerprint(name):
    assert _roundtrip(local_fingerprint(name)) == GOLDEN["run_local"][name]


@pytest.mark.parametrize("name", REGISTRY)
def test_profile_fingerprint(name):
    assert (_roundtrip(profile_fingerprint(name))
            == GOLDEN["profile_module"][name])


@pytest.mark.parametrize("name", CROSS_WORKLOADS)
@pytest.mark.parametrize("layout", sorted(CROSS_LAYOUTS))
def test_cross_layout_fingerprint(name, layout):
    got = _roundtrip(cross_layout_fingerprint(name, layout))
    assert got == GOLDEN["cross_layout"][f"{name}@{layout}"]
    counter = ("pointer_conversions" if layout.startswith("x86")
               else "endian_swaps")
    assert got[counter] > 0


class TestExceptionPaths:
    def test_limit_at_every_instruction(self):
        expected = GOLDEN["limit"]
        got = _roundtrip(limit_cases())
        assert len(got) == len(expected)
        # Every limit but the last stops the program part-way.
        assert all(c["outcome"] == ["limit"] for c in got[:-1])
        assert got[-1]["outcome"][0] == "exit"
        for limit, (g, e) in enumerate(zip(got, expected), start=1):
            assert g == e, f"max_instructions={limit}"
            if g["outcome"] == ["limit"]:
                assert g["instruction_count"] == limit + 1

    def test_segfault_on_mid_block_load(self):
        got = _roundtrip(segfault_case())
        assert got == GOLDEN["segfault"]
        assert "div" not in dict(got["cycles_by_class"])

    def test_exit_from_nested_call(self):
        got = _roundtrip(exit_case())
        assert got == GOLDEN["exit"]
        assert got["exit_code"] == 8

    def test_link_down_during_pointer_load_fault(self):
        got = _roundtrip(link_down_case())
        assert got == GOLDEN["link_down"]
        assert [a[1] for a in got["aborted"]] == ["exec"]
        assert got["server_pointer_conversions"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: test_interpreter_golden.py --freeze")
    golden = compute_golden()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
