"""IR interpreter with per-architecture cycle accounting.

This is the "CPU" of a simulated machine.  Execution is functionally exact
(byte-accurate memory, real control flow) while *time* is modelled: every
executed instruction charges cycles from the target's timing model, so the
same program takes ~5-6x longer on the ARM mobile profile than on the x86
server profile — the gap the paper's Table 1 measures.

The interpreter also charges and counts the two memory-unification
overheads the paper discusses: address-size conversion (negligible) and
endianness translation (zero on the default little/little pair).

Execution is compiled.  The first call of an IR function lowers it once
per interpreter (:class:`_FunctionCompiler`): arguments and
value-producing instructions get integer *slots* in a per-call register
list, constants (global and function addresses, ``undef``) are resolved
into pre-filled slots, every instruction becomes one closure specialized
on its opcode, bit width and access plan, and every terminator becomes a
closure returning the next compiled block.  Each block is cut into
*segments* that end after every ``call``; a segment's instruction count
and cycle charge are summed at compile time and applied once, before its
closures run.  No callback can observe the cycle counter between two
instructions of a segment, so observers, builtins and ``exit()`` see the
same values as with per-instruction charging (cycle costs are integral,
see :class:`repro.targets.arch.TargetArch`, so the sums are exact).  When
an instruction raises, the charges of the ones after it are taken back,
and a segment that would cross ``max_instructions`` runs one instruction
at a time, so every exception leaves exact counters too.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from ..analysis.cfg import CFG
from ..analysis.dominators import DominatorTree
from ..ir import instructions as inst
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import (Argument, BasicBlock, Constant, Function,
                         GlobalVariable, UndefValue, Value)
from ..targets.arch import CYCLE_TIME_SCALE
from .machine import Machine, STACK_SIZE
from .values import scalar_size, to_signed, to_unsigned


class InterpreterError(Exception):
    pass


class BadFunctionPointer(InterpreterError):
    """Indirect call through an address that is not a function entry point
    on this machine — e.g. a *mobile* code address dereferenced on the
    server without function-pointer mapping."""

    def __init__(self, address: int):
        super().__init__(f"indirect call to non-function address {address:#x}")
        self.address = address


class StackOverflow(InterpreterError):
    pass


class ExecutionLimitExceeded(InterpreterError):
    pass


class ExitProgram(Exception):
    """Raised by the exit() builtin to unwind the interpreter."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class Observer:
    """Hook interface for profilers and the offload runtime.  All methods
    are optional no-ops.  ``wants_memory`` / ``wants_blocks`` let cheap
    observers (e.g. the runtime's target timer) opt out of the hot
    per-access and per-block callbacks."""

    wants_memory = True
    wants_blocks = True

    def enter_function(self, fn: Function, cycles: float) -> None:
        pass

    def exit_function(self, fn: Function, cycles: float) -> None:
        pass

    def enter_block(self, block: BasicBlock, cycles: float) -> None:
        pass

    def memory_access(self, address: int, size: int, is_write: bool) -> None:
        pass

    def heap_alloc(self, size: int) -> None:
        pass


class Interpreter:
    """Executes IR on a :class:`Machine`."""

    def __init__(self, machine: Machine,
                 observer: Optional[Observer] = None,
                 max_instructions: int = 500_000_000):
        self.machine = machine
        self.observer = observer
        self._mem_observer = (observer if observer is not None
                              and observer.wants_memory else None)
        self._block_observer = (observer if observer is not None
                                and observer.wants_blocks else None)
        self.max_instructions = max_instructions
        self.sp = machine.stack_top
        self.instruction_count = 0
        self.cycles = 0.0
        self.cycles_by_class: Dict[str, float] = {}
        self.call_depth = 0
        # Deep guest recursion needs several Python frames per guest
        # frame; lift the interpreter limit so the *simulated* stack (or
        # the call-depth guard) is what overflows, deterministically.
        if sys.getrecursionlimit() < 30000:
            sys.setrecursionlimit(30000)
        self._scale = CYCLE_TIME_SCALE
        self._cycle_table = {k: v * self._scale
                             for k, v in machine.arch.cycles.items()}
        # Compiled functions.  The data layout, the address maps and the
        # observer are fixed for an interpreter's lifetime, so code
        # compiled against them stays valid for it.
        self._code: Dict[object, _Code] = {}
        # Equal cost records and class tuples of compiled segments are
        # shared: an interpreter sees only a few dozen distinct ones.
        self._shared: Dict[tuple, tuple] = {}
        # (instruction_count, classes) of the last charge that put new
        # keys into cycles_by_class; an unwind drops such a key again when
        # no instruction that actually ran charged it.
        self._fresh: Optional[tuple] = None

    # -- accounting -----------------------------------------------------
    def charge(self, inst_class: str, count: float = 1.0) -> None:
        amount = self._cycle_table[inst_class] * count
        self.cycles += amount
        self.cycles_by_class[inst_class] = (
            self.cycles_by_class.get(inst_class, 0.0) + amount)

    def charge_cycles(self, cycles: float, inst_class: str = "alu") -> None:
        scaled = cycles * self._scale
        self.cycles += scaled
        self.cycles_by_class[inst_class] = (
            self.cycles_by_class.get(inst_class, 0.0) + scaled)

    def charge_raw_cycles(self, cycles: float,
                          inst_class: str = "alu") -> None:
        """Charge unscaled cycles — for runtime services whose cost is a
        real machine-cycle figure (e.g. a hash-table lookup), not an
        IR-operation bundle."""
        self.cycles += cycles
        self.cycles_by_class[inst_class] = (
            self.cycles_by_class.get(inst_class, 0.0) + cycles)

    @property
    def time_seconds(self) -> float:
        return self.cycles / self.machine.arch.clock_hz

    # -- entry points ---------------------------------------------------
    def call_by_name(self, name: str, args: Sequence = ()):
        fn = self.machine.module.function(name)
        return self.call_function(fn, list(args))

    def run_main(self, argv: Sequence[str] = ()) -> int:
        """Execute ``main`` like a C runtime would; returns the exit code."""
        main = self.machine.module.get_function("main")
        if main is None:
            raise InterpreterError("module has no main function")
        args: List = []
        if len(main.ftype.params) >= 1:
            args.append(to_unsigned(len(argv) + 1, 32))
        if len(main.ftype.params) >= 2:
            args.append(0)  # argv pointer: not modelled
        try:
            result = self.call_function(main, args)
        except ExitProgram as exit_:
            return exit_.code
        return to_signed(result, 32) if result is not None else 0

    # -- call machinery --------------------------------------------------
    def call_function(self, fn: Function, args: List):
        if not fn.is_definition:
            return self._call_external(fn, args)
        return self._invoke(fn, args)

    def _call_external(self, fn: Function, args: List):
        builtin = self.machine.builtins.get(fn.name)
        if builtin is None:
            raise InterpreterError(
                f"call to unknown external function {fn.name}")
        self.charge("call")
        return builtin(self, args)

    def _compiled(self, fn: Function, args) -> tuple:
        """(code, args) for a call; a call with fewer arguments than
        parameters runs a variant whose argument reads are checked."""
        code = self._code.get(fn)
        if code is None:
            code = self._code[fn] = _FunctionCompiler(self, fn).compile()
        missing = code.nparams - len(args)
        if missing > 0:
            key = (fn, "missing-args")
            code = self._code.get(key)
            if code is None:
                code = self._code[key] = _FunctionCompiler(
                    self, fn, check_args=True).compile()
            return code, [*args, *[_UNSET] * missing]
        return code, args[:code.nparams] if missing else args

    def _invoke(self, fn: Function, args):
        if self.call_depth > 4000:
            raise StackOverflow(f"call depth exceeded in {fn.name}")
        code = self._code.get(fn)
        if code is None or len(args) != code.nparams:
            code, args = self._compiled(fn, args)
        amount = self._cycle_table["call"]
        self.cycles += amount
        by_class = self.cycles_by_class
        by_class["call"] = by_class.get("call", 0.0) + amount
        observer = self.observer
        if observer is not None:
            observer.enter_function(fn, self.cycles)
        saved_sp = self.sp
        self.call_depth += 1
        try:
            return self._run(code, [*args, *code.tail])
        finally:
            self.call_depth -= 1
            self.sp = saved_sp
            if observer is not None:
                observer.exit_function(fn, self.cycles)

    # -- the execution loop -------------------------------------------------
    def _run(self, code: "_Code", regs: list):
        by_class = self.cycles_by_class
        block_observer = self._block_observer
        limit = self.max_instructions
        block = code.entry
        while True:
            if block_observer is not None:
                block_observer.enter_block(block.block, self.cycles)
            for count, cycles, classes, ops, costs in block.segments:
                if self.instruction_count + count > limit:
                    self._step(ops, costs, regs)
                    continue
                self.instruction_count += count
                self.cycles += cycles
                try:
                    for cls, amount in classes:
                        by_class[cls] += amount
                except KeyError:
                    names = [c for c, _ in classes]
                    self._add_classes(classes[names.index(cls):])
                try:
                    for op in ops:
                        op(regs)
                except Exception:
                    self._unwind(ops, costs, op)
                    raise
            block = block.term(regs)
            if block is None:
                return regs[code.ret_slot]

    def _step(self, ops: tuple, costs: tuple, regs: list) -> None:
        """Run one segment an instruction at a time.  Used when the
        segment would carry the count past ``max_instructions``, which
        must stop execution exactly at instruction max_instructions + 1."""
        for i, (count, charges, own) in enumerate(costs):
            if count:
                self.instruction_count += count
                if self.instruction_count > self.max_instructions:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self.max_instructions} instructions")
            for _, amount in charges:
                self.cycles += amount
            self._add_classes(charges)
            if i < len(ops):
                try:
                    ops[i](regs)
                except Exception:
                    self._uncharge(own, {c for c, _ in
                                         charges[:len(charges) - len(own)]})
                    raise

    def _add_classes(self, charges) -> None:
        """Add charges to cycles_by_class, noting the classes they are the
        first to charge."""
        by_class = self.cycles_by_class
        fresh = [cls for cls, _ in charges if cls not in by_class]
        for cls, amount in charges:
            by_class[cls] = by_class.get(cls, 0.0) + amount
        self._fresh = (self.instruction_count, fresh) if fresh else None

    def _unwind(self, ops: tuple, costs: tuple, failed) -> None:
        """Take back what a segment pre-charged for the instructions after
        the one that raised (and a load's own post-read charges)."""
        i = ops.index(failed)
        _, charges, own = costs[i]
        kept = {cls for _, done, _ in costs[:i] for cls, _ in done}
        kept.update(cls for cls, _ in charges[:len(charges) - len(own)])
        undo = list(own)
        count = 0
        for n, later, _ in costs[i + 1:]:
            count += n
            undo.extend(later)
        self._uncharge(undo, kept)
        self.instruction_count -= count

    def _uncharge(self, charges, kept) -> None:
        by_class = self.cycles_by_class
        for cls, amount in charges:
            self.cycles -= amount
            by_class[cls] -= amount
        fresh, self._fresh = self._fresh, None
        if fresh is not None and fresh[0] == self.instruction_count:
            for cls in fresh[1]:
                if cls not in kept:
                    del by_class[cls]


# -- compiled code ------------------------------------------------------------

# The value of a slot whose instruction has not run yet in this frame.
_UNSET = object()

_MASK64 = 0xFFFFFFFFFFFFFFFF
_DIV_OPS = {"sdiv", "udiv", "srem", "urem", "fdiv", "frem"}
_OPCODE_CLASS = {
    "load": "mem", "store": "mem", "gep": "alu", "cast": "alu",
    "alloca": "alu", "select": "alu", "asm": "alu", "syscall": "call",
    "br": "branch", "condbr": "branch", "switch": "branch", "ret": "branch",
}
# Opcodes whose instruction writes its slot (a call only when non-void).
_WRITES = {"binop", "cmp", "load", "gep", "cast", "alloca", "select",
           "syscall"}
_UNSIGNED_CMP = {"eq": operator.eq, "ne": operator.ne,
                 "ult": operator.lt, "ule": operator.le,
                 "ugt": operator.gt, "uge": operator.ge}
_SIGNED_CMP = {"slt": operator.lt, "sle": operator.le,
               "sgt": operator.gt, "sge": operator.ge}
_FLOAT_CMP = {"feq": operator.eq, "fne": operator.ne, "flt": operator.lt,
              "fle": operator.le, "fgt": operator.gt, "fge": operator.ge}


def _charge_class(instruction) -> Optional[str]:
    """The timing class an instruction charges before it does anything
    (None: it charges nothing itself)."""
    opcode = instruction.opcode
    if opcode == "binop":
        op = instruction.op
        return "div" if op in _DIV_OPS else "fpu" if op.startswith("f") \
            else "alu"
    if opcode == "cmp":
        return "fpu" if instruction.pred.startswith("f") else "alu"
    return _OPCODE_CLASS.get(opcode)


class _Code:
    """One compiled function: the call's register template and its entry."""

    __slots__ = ("nparams", "tail", "entry", "ret_slot")


class _Block:
    """One compiled block.  ``segments`` holds (count, cycles, classes,
    ops, costs) tuples: ``ops`` are the closures, ``costs`` one
    (count, charges, own) record per closure plus, in the last segment,
    the terminator's; ``own`` is what a closure charged in advance but
    must take back when it raises itself.  ``term`` returns the next
    block, or None after storing the return value."""

    __slots__ = ("block", "segments", "term")

    def __init__(self, block: BasicBlock):
        self.block = block


def _segment(ops: list, costs: list, shared: Dict[tuple, tuple]) -> tuple:
    cycles = 0.0
    classes: Dict[str, float] = {}
    for _, charges, _ in costs:
        for cls, amount in charges:
            cycles += amount
            classes[cls] = classes.get(cls, 0.0) + amount
    items = tuple(classes.items())
    return (sum(c[0] for c in costs), cycles, shared.setdefault(items, items),
            tuple(ops), tuple(costs))


def _raiser(exc: BaseException):
    def op(regs):
        raise exc
    return op


def _nop(regs) -> None:
    pass


def _checker(checks: list):
    """Raise the first check's error whose slot is still unset."""
    def check(regs):
        for slot, error, message in checks:
            if regs[slot] is _UNSET:
                raise error(message)
    return check


def _args_getter(slots: list):
    if not slots:
        return lambda regs: []
    if len(slots) == 1:
        s0 = slots[0]
        return lambda regs: [regs[s0]]
    get = itemgetter(*slots)
    return lambda regs: list(get(regs))


class _FunctionCompiler:
    """Lowers one IR function into slot-addressed closures."""

    def __init__(self, interp: Interpreter, fn: Function,
                 check_args: bool = False):
        self.interp = interp
        self.machine = interp.machine
        self.layout = interp.machine.layout
        self.table = interp._cycle_table
        self.fn = fn
        self.check_args = check_args
        self.nparams = len(fn.args)
        self.slots: Dict[int, int] = {
            id(arg): i for i, arg in enumerate(fn.args)}
        self.init: list = []          # initial values of slots >= nparams
        self.consts: Dict[tuple, int] = {}
        self.defs: Dict[int, tuple] = {}  # id(inst) -> (block, index)
        self.checks: list = []        # operand checks of one instruction

    # -- slots ----------------------------------------------------------
    def new_slot(self, initial) -> int:
        self.init.append(initial)
        return self.nparams + len(self.init) - 1

    def const(self, value) -> int:
        key = (type(value), value.hex() if isinstance(value, float)
               else value)
        slot = self.consts.get(key)
        if slot is None:
            slot = self.consts[key] = self.new_slot(value)
        return slot

    def failing(self, error, message) -> int:
        """A slot that is never written: reading it raises."""
        slot = self.new_slot(_UNSET)
        self.checks.append((slot, error, message))
        return slot

    def read(self, value: Value) -> int:
        """The slot an operand is read from.  A read that may find the
        slot unset (the definition does not dominate the use) records a
        check raising the tree-walker's error for it."""
        if isinstance(value, Constant):
            return self.const(value.value)
        if isinstance(value, (inst.Instruction, Argument)):
            slot = self.slots.get(id(value))
            if slot is None:
                slot = self.slots[id(value)] = self.new_slot(_UNSET)
            if not self.defined_here(value):
                self.checks.append((slot, InterpreterError,
                                    f"use of undefined value {value.short()}"))
            return slot
        if isinstance(value, GlobalVariable):
            addresses = self.machine.global_addresses
            if value.name in addresses:
                return self.const(addresses[value.name])
            return self.failing(KeyError, value.name)
        if isinstance(value, Function):
            addresses = self.machine.function_addresses
            if value.name in addresses:
                return self.const(addresses[value.name])
            return self.failing(KeyError, value.name)
        if isinstance(value, UndefValue):
            return self.const(0)
        return self.failing(InterpreterError, f"cannot evaluate {value!r}")

    def defined_here(self, value: Value) -> bool:
        if isinstance(value, Argument):
            return not self.check_args and self.slots[id(value)] < self.nparams
        where = self.defs.get(id(value))
        if where is None:
            return False
        block, index = where
        if block is self.block:
            return index < self.index
        return self.dominates(block, self.block)

    # -- the function ---------------------------------------------------
    def compile(self) -> _Code:
        fn = self.fn
        # Blocks as the interpreter sees them: reachable from the entry,
        # each ending at its first terminator.
        bodies: Dict[BasicBlock, list] = {}
        order = [fn.entry]
        seen = {fn.entry}
        for block in order:
            body = []
            for instruction in block.instructions:
                body.append(instruction)
                if instruction.is_terminator:
                    break
            bodies[block] = body
            targets = (body[-1].targets()
                       if body and body[-1].is_terminator else [])
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    order.append(target)
        if all(len(bodies[b]) == len(b.instructions) for b in order):
            self.dominates = DominatorTree(CFG(fn)).dominates
        else:
            # A terminator before the end of a block: the CFG (which
            # follows the last instruction) is not the path execution
            # takes, so no cross-block read goes unchecked.
            self.dominates = lambda a, b: False
        for block in order:
            for index, instruction in enumerate(bodies[block]):
                opcode = instruction.opcode
                if opcode in _WRITES or (opcode == "call"
                                         and not instruction.type.is_void):
                    self.slots[id(instruction)] = self.new_slot(_UNSET)
                    self.defs[id(instruction)] = (block, index)
        self.ret_slot = self.new_slot(None)
        self.blocks = {block: _Block(block) for block in order}
        for block in order:
            self.lower_block(block, bodies[block])
        code = _Code()
        code.nparams = self.nparams
        code.tail = tuple(self.init)
        code.entry = self.blocks[fn.entry]
        code.ret_slot = self.ret_slot
        return code

    def lower_block(self, block: BasicBlock, body: list) -> None:
        self.block = block
        shared = self.interp._shared
        segments = []
        ops: list = []
        costs: list = []
        for index, instruction in enumerate(body):
            if instruction.is_terminator:
                break
            self.index = index
            for op, count, charges, own in self.lower(instruction):
                ops.append(op)
                record = (count, charges, own)
                costs.append(shared.setdefault(record, record))
            if instruction.opcode == "call":
                segments.append(_segment(ops, costs, shared))
                ops, costs = [], []
        self.index = len(body) - 1
        term, record = self.lower_terminator(body)
        costs.append(shared.setdefault(record, record))
        segments.append(_segment(ops, costs, shared))
        compiled = self.blocks[block]
        compiled.segments = tuple(segments)
        compiled.term = term

    def base_charges(self, instruction) -> tuple:
        cls = _charge_class(instruction)
        return ((cls, self.table[cls]),) if cls is not None else ()

    def lower(self, instruction) -> list:
        """[(closure, count, charges, own)] for one instruction: one
        entry, or two when operand checks must run (and may raise) after
        the instruction's own charge but before its work."""
        self.checks = []
        base = self.base_charges(instruction)
        post: tuple = ()
        own: tuple = ()
        builder = getattr(self, "op_" + instruction.opcode, None)
        try:
            if builder is None:
                raise InterpreterError(f"unknown opcode {instruction.opcode}")
            op, post, own = builder(instruction)
        except Exception as exc:  # fails when executed, not when compiled
            op = _raiser(exc)
        if self.checks:
            return [(_checker(self.checks), 1, base, ()),
                    (op, 0, post, own)]
        return [(op, 1, base + post, own)]

    # -- straight-line opcodes --------------------------------------------
    def op_binop(self, instruction):
        a = self.read(instruction.lhs)
        b = self.read(instruction.rhs)
        d = self.slots[id(instruction)]
        name = instruction.op
        if isinstance(instruction.type, FloatType):
            if name == "fadd":
                def op(regs):
                    regs[d] = regs[a] + regs[b]
            elif name == "fsub":
                def op(regs):
                    regs[d] = regs[a] - regs[b]
            elif name == "fmul":
                def op(regs):
                    regs[d] = regs[a] * regs[b]
            elif name == "fdiv":
                def op(regs):
                    lhs = regs[a]
                    rhs = regs[b]
                    if rhs == 0.0:
                        regs[d] = (math.inf if lhs > 0 else
                                   -math.inf if lhs < 0 else math.nan)
                    else:
                        regs[d] = lhs / rhs
            elif name == "frem":
                def op(regs):
                    regs[d] = math.fmod(regs[a], regs[b])
            else:
                raise InterpreterError(f"unknown float binop {name}")
            return op, (), ()
        bits = instruction.type.bits
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)  # x -> ((x + half) & mask) - half is signed
        if name == "add":
            def op(regs):
                regs[d] = (regs[a] + regs[b]) & mask
        elif name == "sub":
            def op(regs):
                regs[d] = (regs[a] - regs[b]) & mask
        elif name == "mul":
            def op(regs):
                regs[d] = (regs[a] * regs[b]) & mask
        elif name == "and":
            def op(regs):
                regs[d] = regs[a] & regs[b]
        elif name == "or":
            def op(regs):
                regs[d] = regs[a] | regs[b]
        elif name == "xor":
            def op(regs):
                regs[d] = regs[a] ^ regs[b]
        elif name == "shl":
            def op(regs):
                regs[d] = (regs[a] << (regs[b] % bits)) & mask
        elif name == "lshr":
            def op(regs):
                regs[d] = regs[a] >> (regs[b] % bits)
        elif name == "ashr":
            def op(regs):
                regs[d] = ((((regs[a] + half) & mask) - half)
                           >> (regs[b] % bits)) & mask
        elif name in ("sdiv", "srem"):
            what = "division" if name == "sdiv" else "remainder"
            remainder = name == "srem"

            # C truncates toward zero, as int() of the true quotient does.
            def op(regs):
                lhs = ((regs[a] + half) & mask) - half
                rhs = ((regs[b] + half) & mask) - half
                if rhs == 0:
                    raise InterpreterError(f"integer {what} by zero")
                quotient = int(lhs / rhs)
                regs[d] = (lhs - quotient * rhs if remainder
                           else quotient) & mask
        elif name == "udiv":
            def op(regs):
                rhs = regs[b]
                if rhs == 0:
                    raise InterpreterError("integer division by zero")
                regs[d] = (regs[a] // rhs) & mask
        elif name == "urem":
            def op(regs):
                rhs = regs[b]
                if rhs == 0:
                    raise InterpreterError("integer remainder by zero")
                regs[d] = (regs[a] % rhs) & mask
        else:
            raise InterpreterError(f"unknown int binop {name}")
        return op, (), ()

    def op_cmp(self, instruction):
        a = self.read(instruction.lhs)
        b = self.read(instruction.rhs)
        d = self.slots[id(instruction)]
        pred = instruction.pred
        type_ = instruction.lhs.type
        if pred.startswith("f"):
            compare = _FLOAT_CMP.get(pred)
            if compare is None:
                raise InterpreterError(f"unknown float predicate {pred}")
        elif pred in _SIGNED_CMP:
            compare = _SIGNED_CMP[pred]
            bits = (type_.bits if isinstance(type_, IntType)
                    else self.layout.pointer_bytes * 8)
            half = 1 << (bits - 1)
            mask = (1 << bits) - 1

            # Comparing (x + 2^(bits-1)) mod 2^bits orders like the
            # signed reinterpretation of x.
            def op(regs):
                regs[d] = 1 if compare((regs[a] + half) & mask,
                                       (regs[b] + half) & mask) else 0
            return op, (), ()
        else:
            compare = _UNSIGNED_CMP.get(pred)
            if compare is None:
                raise InterpreterError(f"unknown int predicate {pred}")
        if compare is operator.eq:
            def op(regs):
                regs[d] = 1 if regs[a] == regs[b] else 0
        elif compare is operator.ne:
            def op(regs):
                regs[d] = 1 if regs[a] != regs[b] else 0
        else:
            def op(regs):
                regs[d] = 1 if compare(regs[a], regs[b]) else 0
        return op, (), ()

    def access_plan(self, type_) -> tuple:
        """(size, float struct or None, converts, swaps, post charges) of
        a load/store."""
        if not type_.is_scalar:
            raise InterpreterError(
                f"aggregate access of {type_}; the frontend must lower "
                "struct copies to memcpy")
        machine = self.machine
        layout = self.layout
        size = scalar_size(type_, layout)
        codec = None
        if type_.is_float:
            codec = struct.Struct(
                ("<" if layout.byte_order == "little" else ">")
                + ("f" if type_.bits == 32 else "d"))
        # Address-size conversion (Section 3.2): zero/trunc-extend on
        # every pointer-sized memory access.  Negligible cost, counted.
        converts = (isinstance(type_, PointerType)
                    and layout.pointer_bytes != machine.arch.pointer_bytes)
        # Endianness translation (Section 3.2): byte swap per access.
        swaps = size > 1 and layout.byte_order != machine.arch.endianness
        post = []
        if converts:
            post.append(("alu", self.table["alu"] * 0.5))
        if swaps:
            post.append(("alu", self.table["alu"] * 1.0))
        return size, codec, converts, swaps, tuple(post)

    def op_load(self, instruction):
        p = self.read(instruction.pointer)
        d = self.slots[id(instruction)]
        size, codec, converts, swaps, post = self.access_plan(
            instruction.type)
        machine = self.machine
        read = machine.memory.read
        order = self.layout.byte_order
        observer = self.interp._mem_observer
        from_bytes = int.from_bytes
        unpack = codec.unpack if codec is not None else None
        if post:
            def op(regs):
                address = regs[p]
                if observer is not None:
                    observer.memory_access(address, size, False)
                data = read(address, size)
                if converts:
                    machine.pointer_conversions += 1
                if swaps:
                    machine.endian_swaps += 1
                regs[d] = (from_bytes(data, order) if unpack is None
                           else unpack(data)[0])
            # The conversion and swap happen after the read: a faulting
            # read takes their charges back.
            return op, post, post
        if observer is not None:
            access = observer.memory_access
            if unpack is not None:
                def op(regs):
                    address = regs[p]
                    access(address, size, False)
                    regs[d] = unpack(read(address, size))[0]
            else:
                def op(regs):
                    address = regs[p]
                    access(address, size, False)
                    regs[d] = from_bytes(read(address, size), order)
        elif unpack is not None:
            def op(regs):
                regs[d] = unpack(read(regs[p], size))[0]
        else:
            def op(regs):
                regs[d] = from_bytes(read(regs[p], size), order)
        return op, (), ()

    def op_store(self, instruction):
        p = self.read(instruction.pointer)
        v = self.read(instruction.value)
        size, codec, converts, swaps, post = self.access_plan(
            instruction.value.type)
        machine = self.machine
        write = machine.memory.write
        order = self.layout.byte_order
        observer = self.interp._mem_observer
        limit = 1 << (size * 8)
        pack = codec.pack if codec is not None else None
        if post:
            def op(regs):
                address = regs[p]
                value = regs[v]
                if observer is not None:
                    observer.memory_access(address, size, True)
                if converts:
                    machine.pointer_conversions += 1
                if swaps:
                    machine.endian_swaps += 1
                if pack is not None:
                    write(address, pack(value))
                    return
                if value >= limit:
                    raise _pointer_overflow(value, size)
                write(address, value.to_bytes(size, order))
            # Charged before the write, as the conversion precedes it.
            return op, post, ()
        if observer is not None:
            access = observer.memory_access
            if pack is not None:
                def op(regs):
                    address = regs[p]
                    access(address, size, True)
                    write(address, pack(regs[v]))
            else:
                def op(regs):
                    address = regs[p]
                    value = regs[v]
                    access(address, size, True)
                    if value >= limit:
                        raise _pointer_overflow(value, size)
                    write(address, value.to_bytes(size, order))
        elif pack is not None:
            def op(regs):
                write(regs[p], pack(regs[v]))
        else:
            def op(regs):
                value = regs[v]
                if value >= limit:
                    raise _pointer_overflow(value, size)
                write(regs[p], value.to_bytes(size, order))
        return op, (), ()

    def op_gep(self, instruction):
        base = self.read(instruction.base)
        d = self.slots[id(instruction)]
        layout = self.layout
        offset = 0
        terms = []          # (slot, bits, scale) of variable indices

        def index_term(index, bits, scale):
            nonlocal offset
            if isinstance(index, (Constant, UndefValue)):
                value = index.value if isinstance(index, Constant) else 0
                offset += to_signed(value, bits) * scale
            else:
                terms.append((self.read(index), bits, scale))

        indices = instruction.indices
        pointee = instruction.base.type.pointee
        index_term(indices[0], indices[0].type.bits
                   if isinstance(indices[0].type, IntType) else 64,
                   layout.size_of(pointee))
        current = pointee
        for index in indices[1:]:
            if isinstance(current, StructType):
                field = int(index.value)  # verified constant
                offset += layout.struct_layout(current).offset_of(field)
                current = current.field_types[field]
            elif isinstance(current, ArrayType):
                index_term(index, index.type.bits
                           if isinstance(index.type, IntType) else 64,
                           layout.size_of(current.element))
                current = current.element
            else:
                raise InterpreterError(f"gep into non-aggregate {current}")
        if not terms:
            def op(regs):
                regs[d] = (regs[base] + offset) & _MASK64
        elif len(terms) == 1:
            ((s, bits, scale),) = terms
            half = 1 << (bits - 1)
            mask = (1 << bits) - 1

            def op(regs):
                regs[d] = (regs[base] + offset + (
                    ((regs[s] + half) & mask) - half) * scale) & _MASK64
        else:
            steps = tuple((s, 1 << (bits - 1), (1 << bits) - 1, scale)
                          for s, bits, scale in terms)

            def op(regs):
                total = regs[base] + offset
                for s, half, mask, scale in steps:
                    total += (((regs[s] + half) & mask) - half) * scale
                regs[d] = total & _MASK64
        return op, (), ()

    def op_cast(self, instruction):
        s = self.read(instruction.value)
        d = self.slots[id(instruction)]
        name = instruction.op
        if name == "bitcast":
            def op(regs):
                regs[d] = regs[s]
        elif name in ("fptrunc", "fpext", "uitofp"):
            def op(regs):
                regs[d] = float(regs[s])
        elif name == "inttoptr":
            def op(regs):
                regs[d] = regs[s] & _MASK64
        elif name == "sitofp":
            bits = instruction.value.type.bits
            half = 1 << (bits - 1)
            mask = (1 << bits) - 1

            def op(regs):
                regs[d] = float(((regs[s] + half) & mask) - half)
        elif name in ("trunc", "zext", "ptrtoint", "sext", "fptosi",
                      "fptoui"):
            dmask = (1 << instruction.type.bits) - 1
            if name == "sext":
                bits = instruction.value.type.bits
                half = 1 << (bits - 1)
                mask = (1 << bits) - 1

                def op(regs):
                    regs[d] = (((regs[s] + half) & mask) - half) & dmask
            elif name == "fptosi":
                def op(regs):
                    regs[d] = int(regs[s]) & dmask
            elif name == "fptoui":
                def op(regs):
                    regs[d] = int(abs(regs[s])) & dmask
            else:
                def op(regs):
                    regs[d] = regs[s] & dmask
        else:
            raise InterpreterError(f"unknown cast {name}")
        return op, (), ()

    def op_alloca(self, instruction):
        d = self.slots[id(instruction)]
        interp = self.interp
        machine = self.machine
        map_range = machine.map_range
        size = max(1, self.layout.size_of(instruction.allocated_type))
        size = (size + 15) // 16 * 16

        def op(regs):
            sp = interp.sp - size
            interp.sp = sp
            if sp < machine.stack_top - STACK_SIZE:
                raise StackOverflow("simulated stack exhausted")
            map_range(sp, size)
            regs[d] = sp
        return op, (), ()

    def op_select(self, instruction):
        c = self.read(instruction.cond)
        d = self.slots[id(instruction)]
        # Only the picked arm is read, so only its check may raise.
        arm_checks = []
        arms = []
        for value in instruction.operands[1:3]:
            self.checks, outer = [], self.checks
            arms.append(self.read(value))
            arm_checks.extend(self.checks)
            self.checks = outer
        t, f = arms
        if not arm_checks:
            def op(regs):
                regs[d] = regs[t] if regs[c] else regs[f]
            return op, (), ()
        errors = {slot: (error, message)
                  for slot, error, message in reversed(arm_checks)}

        def op(regs):
            slot = t if regs[c] else f
            value = regs[slot]
            if value is _UNSET:
                error, message = errors[slot]
                raise error(message)
            regs[d] = value
        return op, (), ()

    def op_call(self, instruction):
        args = _args_getter([self.read(a) for a in instruction.args])
        interp = self.interp
        d = (self.slots[id(instruction)] if id(instruction) in self.defs
             else None)
        callee = instruction.callee
        if not isinstance(callee, Function):
            # Indirect call: resolve the runtime address to a function on
            # *this* machine.  Untranslated foreign addresses fault here.
            c = self.read(callee)
            function_at = self.machine.function_at
            call_function = interp.call_function

            def op(regs):
                call_args = args(regs)
                address = regs[c]
                fn = function_at(address)
                if fn is None:
                    raise BadFunctionPointer(address)
                result = call_function(fn, call_args)
                if d is not None:
                    regs[d] = result
            return op, (), ()
        call = (interp._invoke if callee.is_definition
                else interp._call_external)
        if d is None:
            def op(regs):
                call(callee, args(regs))
        else:
            def op(regs):
                regs[d] = call(callee, args(regs))
        return op, (), ()

    def op_asm(self, instruction):
        # Inline assembly executes natively on its home machine; only its
        # token cost is charged.
        return _nop, (), ()

    def op_syscall(self, instruction):
        d = self.slots[id(instruction)]

        def op(regs):
            regs[d] = 0
        return op, (), ()

    # -- terminators ---------------------------------------------------
    def lower_terminator(self, body: list) -> tuple:
        """(closure, cost record) ending a block."""
        fn = self.fn
        if not body or not body[-1].is_terminator:
            name = self.block.name
            return (_raiser(InterpreterError(
                f"block {name} in {fn.name} fell through")), (0, (), ()))
        instruction = body[-1]
        self.checks = []
        opcode = instruction.opcode
        blocks = self.blocks
        if opcode == "br":
            target = blocks[instruction.target]

            def term(regs):
                return target
        elif opcode == "condbr":
            c = self.read(instruction.cond)
            if_true = blocks[instruction.if_true]
            if_false = blocks[instruction.if_false]

            def term(regs):
                return if_true if regs[c] else if_false
        elif opcode == "switch":
            v = self.read(instruction.value)
            default = blocks[instruction.default]
            table: Dict[int, _Block] = {}
            for const, target in instruction.cases:
                table.setdefault(to_unsigned(const, 64), blocks[target])
            lookup = table.get

            def term(regs):
                return lookup(regs[v] & _MASK64, default)
        elif opcode == "ret":
            r = self.ret_slot
            if instruction.value is None:
                def term(regs):
                    return None
            else:
                v = self.read(instruction.value)

                def term(regs):
                    regs[r] = regs[v]
                    return None
        elif opcode == "unreachable":
            term = _raiser(InterpreterError(
                f"reached unreachable in {fn.name}"))
        else:
            term = _raiser(InterpreterError(f"unknown opcode {opcode}"))
        if self.checks:
            check = _checker(self.checks)
            unchecked = term

            def term(regs):
                check(regs)
                return unchecked(regs)
        return term, (1, self.base_charges(instruction), ())


def _pointer_overflow(value: int, size: int) -> OverflowError:
    return OverflowError(
        f"pointer {value:#x} does not fit in {size} bytes; UVA addresses "
        "must stay below the unified pointer range")
