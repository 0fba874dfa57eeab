"""Hot function/loop profiler (paper, Section 3.1).

Runs the application once on the *mobile* machine model with a profiling
input, observing every function call, loop entry and memory access.  The
resulting :class:`ProfileData` drives the static performance estimator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..analysis.loops import Loop, LoopInfo
from ..ir.module import Module
from ..ir.values import BasicBlock, Function
from ..machine.fs import IOEnvironment
from ..machine.interpreter import Interpreter, Observer
from ..machine.libc import install_libc
from ..machine.machine import Machine
from ..targets.arch import TargetArch
from ..targets.presets import ARM32
from .profile_data import CandidateProfile, ProfileData


class _LoopActivation:
    __slots__ = ("loop", "start_cycles", "profile", "accounting")

    def __init__(self, loop: Loop, start_cycles: float,
                 profile: CandidateProfile, accounting: bool):
        self.loop = loop
        self.start_cycles = start_cycles
        self.profile = profile
        # Only the outermost activation of a loop accumulates time —
        # recursive re-entry of the enclosing function must not double
        # count (same rule as for function profiles).
        self.accounting = accounting


class _FrameState:
    __slots__ = ("fn", "loop_stack", "loop_info")

    def __init__(self, fn: Function, loop_info: Optional[LoopInfo]):
        self.fn = fn
        self.loop_info = loop_info
        self.loop_stack: List[_LoopActivation] = []


class ProfilingObserver(Observer):
    """Interpreter observer that attributes time, invocations and touched
    pages to functions and natural loops."""

    def __init__(self, module: Module, arch: TargetArch, page_size: int):
        self.arch = arch
        self.page_size = page_size
        self.profiles: Dict[str, CandidateProfile] = {}
        self._loop_infos: Dict[str, LoopInfo] = {}
        for fn in module.defined_functions():
            self.profiles[fn.name] = CandidateProfile(
                fn.name, "function", fn.name, page_size=page_size)
            info = LoopInfo(fn)
            self._loop_infos[fn.name] = info
            for loop in info.loops:
                self.profiles[loop.name] = CandidateProfile(
                    loop.name, "loop", fn.name, page_size=page_size)
        self._frames: List[_FrameState] = []
        self._fn_entry_cycles: Dict[str, List[float]] = {}
        self._active_fn_depth: Dict[str, int] = {}
        self._active_loop_depth: Dict[str, int] = {}
        # The distinct pages_touched sets of every active function frame
        # and loop activation, each with its number of activations: a
        # memory access updates each set once, however deep the
        # recursion that made it active several times.
        self._touch_sets: List[Set[int]] = []
        self._touch_refs: Dict[int, int] = {}
        # Pages already in every active set; a set that becomes active
        # may lack any of them, so activation empties this.
        self._in_all: Set[int] = set()

    def _touch_enter(self, pages: Set[int]) -> None:
        key = id(pages)
        refs = self._touch_refs.get(key, 0)
        if refs == 0:
            self._touch_sets.append(pages)
            self._in_all = set()
        self._touch_refs[key] = refs + 1

    def _touch_exit(self, pages: Set[int]) -> None:
        key = id(pages)
        refs = self._touch_refs[key] - 1
        if refs:
            self._touch_refs[key] = refs
            return
        del self._touch_refs[key]
        # Remove by identity: list.remove compares sets by equality.
        sets = self._touch_sets
        for i in range(len(sets) - 1, -1, -1):
            if sets[i] is pages:
                del sets[i]
                break

    # -- function events --------------------------------------------------
    def enter_function(self, fn: Function, cycles: float) -> None:
        profile = self.profiles.get(fn.name)
        if profile is None:
            return
        profile.invocations += 1
        depth = self._active_fn_depth.get(fn.name, 0)
        self._active_fn_depth[fn.name] = depth + 1
        if depth == 0:
            self._fn_entry_cycles.setdefault(fn.name, []).append(cycles)
        self._frames.append(
            _FrameState(fn, self._loop_infos.get(fn.name)))
        self._touch_enter(profile.pages_touched)

    def exit_function(self, fn: Function, cycles: float) -> None:
        profile = self.profiles.get(fn.name)
        if profile is None:
            return
        frame = self._frames.pop()
        while frame.loop_stack:
            self._pop_loop(frame, cycles)
        self._touch_exit(profile.pages_touched)
        depth = self._active_fn_depth.get(fn.name, 1)
        self._active_fn_depth[fn.name] = depth - 1
        if depth == 1:
            start = self._fn_entry_cycles[fn.name].pop()
            profile.total_seconds += (cycles - start) / self.arch.clock_hz

    # -- loop events ----------------------------------------------------
    def enter_block(self, block: BasicBlock, cycles: float) -> None:
        if not self._frames:
            return
        frame = self._frames[-1]
        info = frame.loop_info
        if info is None or not info.loops:
            return
        # Leave loops that do not contain this block.
        while frame.loop_stack and not frame.loop_stack[-1].loop.contains(
                block):
            self._pop_loop(frame, cycles)
        # Enter loops: the chain from the current innermost down to the
        # innermost loop containing the block.
        innermost = info.innermost_loop_of(block)
        if innermost is None:
            return
        chain: List[Loop] = []
        active = frame.loop_stack[-1].loop if frame.loop_stack else None
        node: Optional[Loop] = innermost
        while node is not None and node is not active:
            chain.append(node)
            node = node.parent
        if node is not active:
            # block jumped into a disjoint loop nest; unwind fully
            while frame.loop_stack:
                self._pop_loop(frame, cycles)
            chain = []
            node = innermost
            while node is not None:
                chain.append(node)
                node = node.parent
        for loop in reversed(chain):
            profile = self.profiles[loop.name]
            profile.invocations += 1
            depth = self._active_loop_depth.get(loop.name, 0)
            self._active_loop_depth[loop.name] = depth + 1
            activation = _LoopActivation(loop, cycles, profile,
                                         accounting=depth == 0)
            frame.loop_stack.append(activation)
            self._touch_enter(profile.pages_touched)

    def _pop_loop(self, frame: _FrameState, cycles: float) -> None:
        activation = frame.loop_stack.pop()
        name = activation.loop.name
        self._active_loop_depth[name] = (
            self._active_loop_depth.get(name, 1) - 1)
        if activation.accounting:
            activation.profile.total_seconds += (
                (cycles - activation.start_cycles) / self.arch.clock_hz)
        self._touch_exit(activation.profile.pages_touched)

    # -- memory events ----------------------------------------------------
    def memory_access(self, address: int, size: int, is_write: bool) -> None:
        page_size = self.page_size
        first = address // page_size
        last = (address + size - 1) // page_size if size > 1 else first
        in_all = self._in_all
        if first == last:
            if first in in_all:
                return
            for pages in self._touch_sets:
                pages.add(first)
            in_all.add(first)
            return
        span = range(first, last + 1)
        for pages in self._touch_sets:
            pages.update(span)
        in_all.update(span)


def profile_module(module: Module,
                   arch: TargetArch = ARM32,
                   stdin: bytes = b"",
                   files: Optional[Dict[str, bytes]] = None,
                   page_size: int = 4096,
                   max_instructions: int = 500_000_000) -> ProfileData:
    """Run the program once on the mobile model and collect profiles."""
    io = IOEnvironment(files=files, stdin=stdin)
    machine = Machine(arch, "mobile", io=io, page_size=page_size)
    install_libc(machine)
    machine.load(module)
    observer = ProfilingObserver(module, arch, page_size)
    interp = Interpreter(machine, observer=observer,
                         max_instructions=max_instructions)
    exit_code = interp.run_main()
    data = ProfileData(
        module_name=module.name,
        arch_name=arch.name,
        program_seconds=interp.time_seconds,
        instructions=interp.instruction_count,
        candidates=observer.profiles,
        stdout=io.stdout_text(),
        exit_code=exit_code,
    )
    return data
