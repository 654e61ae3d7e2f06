"""CPU: executes assembled programs and captures memory traces.

The CPU is a functional (not cycle-accurate) simulator: one instruction per
logical time step.  That is exactly the fidelity the reproduced experiments
need — they consume the *address and value streams*, not pipeline timing.

Captured streams:

* **instruction trace** — one event per fetch, carrying the PC and the raw
  32-bit instruction word (the payload of the bus-encoding experiment E3);
* **data trace** — one event per load/store, carrying address, width, and the
  stored/loaded value (the payload of partitioning/clustering/compression
  experiments E1/E2).

Each run translates a *basic block* once, on the first dispatch to its PC:
the straight-line instructions from that PC up to and including the next
branch, ``jal``, ``jalr`` or ``halt``.  A block is cut short before an
undecodable word that is not its first, at the end of memory, and at the
remaining step budget.  The block becomes the source of one Python function
whose immediates, register numbers, access sizes and PCs are constants; it
is compiled once and kept, keyed by its PC, for the rest of the run.  A
block the step budget cut short is not kept, so the limit stays exact.

The checks of a fetch run on the first dispatch to a PC: the step budget,
then the PC's alignment and range, then :func:`decode`, whose ``ValueError``
is raised only for a word that would execute.  Every load and store checks
its range and alignment inline and reports a failure through
:meth:`CPU._check_range`, with :attr:`CPU.pc` naming the faulting
instruction.  A store that overlaps any translated word clears the block
table and leaves its block right after the store, so rewritten code is
translated afresh before it runs.

Each translated instruction takes one *row* of per-run tables (its PC, word,
block, access size and kind).  A block's exit appends the row of its last
retired instruction, which names the block and how much of it ran; loads and
stores append only their address and payload.  After the run, numpy gathers
the instruction trace's PCs and words, and the data trace's times, sizes and
kinds, from the rows the exits name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..trace.trace import KIND_READ, KIND_WRITE, SPACE_INSTRUCTION, Trace
from .assembler import Program
from .instructions import (
    BRANCH_OPCODES,
    LOAD_OPCODES,
    STORE_OPCODES,
    Instruction,
    Opcode,
    RFunct,
    decode,
    register_number,
)

__all__ = ["CPU", "ExecutionResult", "ExecutionError"]

_WORD_MASK = 0xFFFFFFFF


class ExecutionError(RuntimeError):
    """Raised on illegal execution (bad PC, unaligned access, step overrun)."""


@dataclass
class ExecutionResult:
    """Everything produced by one program run."""

    program: Program
    instructions_executed: int
    data_trace: Trace
    instruction_trace: Trace
    registers: list[int]
    halted: bool


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 32) if value & (1 << 31) else value


def _div(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return _WORD_MASK  # division by zero: all-ones, RISC-V style
    return int(sa / sb) & _WORD_MASK  # truncate toward zero


def _rem(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return a
    return (sa - int(sa / sb) * sb) & _WORD_MASK


# -- block source -----------------------------------------------------------------
#
# The tables below map operand expressions (``r[n]``, or ``0`` for r0) and
# constants to source.  Every register holds a value in [0, 2**32), so a signed
# comparison flips both sign bits and compares unsigned, and
# ``((x ^ 2**31) - 2**31)`` is ``x`` read as signed.


def _register(number: int) -> str:
    return f"r[{number}]" if number else "0"


def _plus(operand: str, imm: int) -> str:
    return f"({operand} + {imm}) & 4294967295" if imm else operand


_RTYPE_SOURCE = {
    RFunct.ADD: lambda a, b: f"({a} + {b}) & 4294967295",
    RFunct.SUB: lambda a, b: f"({a} - {b}) & 4294967295",
    RFunct.AND: lambda a, b: f"{a} & {b}",
    RFunct.OR: lambda a, b: f"{a} | {b}",
    RFunct.XOR: lambda a, b: f"{a} ^ {b}",
    RFunct.SLL: lambda a, b: f"({a} << ({b} & 31)) & 4294967295",
    RFunct.SRL: lambda a, b: f"{a} >> ({b} & 31)",
    RFunct.SRA: lambda a, b: f"((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) & 4294967295",
    RFunct.SLT: lambda a, b: f"1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0",
    RFunct.SLTU: lambda a, b: f"1 if {a} < {b} else 0",
    RFunct.MUL: lambda a, b: f"({a} * {b}) & 4294967295",
    RFunct.DIV: lambda a, b: f"div({a}, {b})",
    RFunct.REM: lambda a, b: f"rem({a}, {b})",
}

_IMMEDIATE_SOURCE = {
    Opcode.ADDI: _plus,
    Opcode.ANDI: lambda a, imm: f"{a} & {imm & 0xFFFF}",
    Opcode.ORI: lambda a, imm: f"{a} | {imm & 0xFFFF}",
    Opcode.XORI: lambda a, imm: f"{a} ^ {imm & 0xFFFF}",
    Opcode.SLTI: lambda a, imm: f"1 if ({a} ^ 2147483648) < {(imm & _WORD_MASK) ^ 1 << 31} else 0",
    Opcode.SLLI: lambda a, imm: f"({a} << {imm & 31}) & 4294967295",
    Opcode.SRLI: lambda a, imm: f"{a} >> {imm & 31}",
    Opcode.SRAI: lambda a, imm: f"((({a} ^ 2147483648) - 2147483648) >> {imm & 31}) & 4294967295",
    Opcode.LUI: lambda a, imm: f"{(imm & 0xFFFF) << 16}",
}

_BRANCH_SOURCE = {
    Opcode.BEQ: lambda a, b: f"{a} == {b}",
    Opcode.BNE: lambda a, b: f"{a} != {b}",
    Opcode.BLT: lambda a, b: f"({a} ^ 2147483648) < ({b} ^ 2147483648)",
    Opcode.BGE: lambda a, b: f"({a} ^ 2147483648) >= ({b} ^ 2147483648)",
    Opcode.BLTU: lambda a, b: f"{a} < {b}",
    Opcode.BGEU: lambda a, b: f"{a} >= {b}",
}

#: The value a load reads from address ``a`` of memory ``m``, as it enters rd.
_LOAD_SOURCE = {
    Opcode.LW: "u32(m, a)[0]",
    Opcode.LHU: "u16(m, a)[0]",
    Opcode.LH: "((u16(m, a)[0] ^ 32768) - 32768) & 4294967295",
    Opcode.LBU: "m[a]",
    Opcode.LB: "((m[a] ^ 128) - 128) & 4294967295",
}

#: A store's write of ``v`` to address ``a``, and the mask ``v`` takes.
_STORE_SOURCE = {
    Opcode.SW: ("p32(m, a, v)", ""),
    Opcode.SH: ("p16(m, a, v)", " & 65535"),
    Opcode.SB: ("m[a] = v", " & 255"),
}

_ENDS_BLOCK = frozenset(BRANCH_OPCODES | {Opcode.JAL, Opcode.JALR, Opcode.HALT})

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class _Translator:
    """One run's block table, the trace rows it filled, and the captured streams.

    ``blocks`` maps a PC to ``(function, length)``.  The row tables
    ``pcs``, ``words``, ``starts`` (the row of the block's first
    instruction), ``sizes`` (0 for no access) and ``kinds`` grow by one row
    per translated instruction and outlive a cleared block table.
    ``exits`` holds the row of the last retired instruction of every block
    execution, in order; ``addresses`` and ``values`` the address and
    payload of every load and store.
    """

    def __init__(self, cpu: "CPU") -> None:
        self.cpu = cpu
        self.blocks: dict[int, tuple] = {}
        self.code: set[int] = set()  # word index (address >> 2) of every translated word
        self.pcs: list[int] = []
        self.words: list[int] = []
        self.starts: list[int] = []
        self.sizes: list[int] = []
        self.kinds: list[int] = []
        self.exits: list[int] = []
        self.addresses: list[int] = []
        self.values: list[int] = []
        self.namespace = {
            "r": cpu.registers,
            "m": cpu.memory,
            "u16": _U16.unpack_from,
            "u32": _U32.unpack_from,
            "p16": _U16.pack_into,
            "p32": _U32.pack_into,
            "div": _div,
            "rem": _rem,
            "code": self.code,
            "x": self.exits.append,
            "da": self.addresses.append,
            "dv": self.values.append,
            "fault": cpu._fault,
        }

    def invalidate(self) -> None:
        """Forget every translated block: a store rewrote translated code."""
        self.blocks.clear()
        self.code.clear()

    def translate(self, pc: int, budget: int) -> tuple:
        """The block at ``pc`` as ``(function, length)``, of at most ``budget`` steps.

        The block is kept in :attr:`blocks` unless the budget cut it short.
        An undecodable first word raises :func:`decode`'s ``ValueError``.
        """
        memory, memory_size = self.cpu.memory, self.cpu.memory_size
        block: list[tuple[int, int, Instruction]] = []
        cut = False
        while True:
            word = int.from_bytes(memory[pc : pc + 4], "little")
            try:
                instruction = decode(word)
            except ValueError:
                if not block:
                    raise
                break  # the next dispatch raises, if the word still executes
            block.append((pc, word, instruction))
            pc += 4
            if instruction.opcode in _ENDS_BLOCK or pc >= memory_size:
                break
            if len(block) == budget:
                cut = True
                break

        function = self._compile(block)
        entry = (function, len(block))
        if not cut:
            self.blocks[block[0][0]] = entry
        return entry

    def _compile(self, block: list) -> object:
        """One function for ``block``; its instructions take the next rows."""
        start = len(self.pcs)
        end = start + len(block) - 1
        lines = ["def block():"]
        for row, (pc, word, instruction) in enumerate(block, start):
            lines += self._source(instruction, pc, row, end)
            op = instruction.opcode
            self.code.add(pc >> 2)
            self.pcs.append(pc)
            self.words.append(word)
            self.starts.append(start)
            self.sizes.append(LOAD_OPCODES.get(op) or STORE_OPCODES.get(op, 0))
            self.kinds.append(KIND_WRITE if op in STORE_OPCODES else KIND_READ)
        if block[-1][2].opcode not in _ENDS_BLOCK:
            lines += [f"x({end})", f"return {block[-1][0] + 4}"]
        namespace = self.namespace
        exec(compile("\n    ".join(lines), f"<block {block[0][0]:#x}>", "exec"), namespace)
        return namespace.pop("block")

    def _source(self, ins: Instruction, pc: int, row: int, end: int) -> list[str]:
        """Source lines of the instruction at ``pc``, in the block whose last row is ``end``."""
        op = ins.opcode
        rd = f"r[{ins.rd}] = " if ins.rd else ""  # a write to r0 is dropped
        if op is Opcode.RTYPE:
            source = _RTYPE_SOURCE[ins.funct](_register(ins.rs1), _register(ins.rs2))
            return [rd + source] if rd else []
        if op in _IMMEDIATE_SOURCE:
            return [rd + _IMMEDIATE_SOURCE[op](_register(ins.rs1), ins.imm)] if rd else []
        if op in LOAD_OPCODES or op in STORE_OPCODES:
            size = LOAD_OPCODES.get(op) or STORE_OPCODES[op]
            misaligned = f" or a & {size - 1}" if size > 1 else ""
            lines = [
                f"a = {_plus(_register(ins.rs1), ins.imm)}",
                f"if a > {self.cpu.memory_size - size}{misaligned}: fault({pc}, a, {size})",
            ]
            values = self.cpu.trace_values
            if op in LOAD_OPCODES:
                if rd or values:
                    lines.append(rd + ("v = " if values else "") + _LOAD_SOURCE[op])
                lines.append("da(a)")
                return lines + (["dv(v)"] if values else [])
            write, mask = _STORE_SOURCE[op]
            lines += [f"v = {_register(ins.rd)}{mask}", write, "da(a)"]
            if values:
                lines.append("dv(v)")
            # A store into translated code leaves the block right after it.
            lines += ["if a >> 2 in code:", f"    x({row})", f"    return {pc + 4}, {end - row}"]
            return lines
        if op in _BRANCH_SOURCE:
            condition = _BRANCH_SOURCE[op](_register(ins.rd), _register(ins.rs1))
            return [f"x({row})", f"return {pc + 4 + 4 * ins.imm} if {condition} else {pc + 4}"]
        link = [f"{rd}{(pc + 4) & _WORD_MASK}"] if rd else []
        if op is Opcode.JAL:
            return link + [f"x({row})", f"return {pc + 4 + 4 * ins.imm}"]
        if op is Opcode.JALR:
            # The target reads rs1 before the link may overwrite it.
            return [f"t = {_plus(_register(ins.rs1), ins.imm)}"] + link + [f"x({row})", "return t"]
        if op is Opcode.HALT:
            return [f"x({row})", "return None"]
        raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover

    def traces(self, name: str, steps: int) -> tuple[Trace, Trace]:
        """The run's data and instruction traces, gathered from the exits' rows."""
        ends = np.array(self.exits, dtype=np.int64)
        starts = np.array(self.starts, dtype=np.int64)[ends]
        lengths = ends - starts + 1
        # Row of every retired instruction: each exit's rows start..end in turn.
        rows = np.arange(steps) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        sizes = np.array(self.sizes, dtype=np.int64)[rows]
        times = np.flatnonzero(sizes)
        carried = self.cpu.trace_values and len(times) > 0
        data = Trace(
            self.addresses,
            times,
            np.array(self.kinds, dtype=np.uint8)[rows[times]],
            sizes[times],
            values=self.values if carried else None,
            value_mask=np.ones(len(times), dtype=bool) if carried else None,
            name=f"{name}.data",
        )
        instructions = Trace(
            np.array(self.pcs, dtype=np.int64)[rows],
            np.arange(steps),
            np.full(steps, KIND_READ),
            np.full(steps, 4),
            spaces=np.full(steps, SPACE_INSTRUCTION),
            values=np.array(self.words, dtype=np.int64)[rows],
            value_mask=np.ones(steps, dtype=bool),
            name=f"{name}.instr",
        )
        return data, instructions


class CPU:
    """Functional simulator for assembled programs.

    Parameters
    ----------
    memory_size:
        Size of the flat byte-addressable memory, from 16 bytes to 4 GiB.
        Text and data segments are loaded at their program bases; the stack
        pointer starts 16 bytes below the top.
    trace_values:
        When set (default), data events carry store/load payloads so the
        compression experiments can reconstruct line contents.
    """

    def __init__(self, memory_size: int = 1 << 20, trace_values: bool = True) -> None:
        if not 16 <= memory_size <= 1 << 32:
            raise ValueError(f"memory_size must be between 16 and 2**32 bytes, got {memory_size}")
        self.memory_size = memory_size
        self.trace_values = trace_values
        self.memory = bytearray(memory_size)
        self.registers = [0] * 32
        self.pc = 0

    # -- loading ------------------------------------------------------------------

    def load(self, program: Program) -> None:
        """Load a program's segments and reset architectural state."""
        text_end = program.text_base + program.text_size
        data_end = program.data_base + program.data_size
        if text_end > self.memory_size or data_end > self.memory_size:
            raise ExecutionError("program does not fit in memory")
        if program.text_base < data_end and program.data_base < text_end:
            if program.text_size and program.data_size:
                raise ExecutionError("text and data segments overlap")
        self.memory = bytearray(self.memory_size)
        for index, word in enumerate(program.text_words):
            self.memory[program.text_base + 4 * index : program.text_base + 4 * index + 4] = (
                word.to_bytes(4, "little")
            )
        self.memory[program.data_base : program.data_base + program.data_size] = program.data_bytes
        self.registers = [0] * 32
        self.registers[register_number("sp")] = self.memory_size - 16
        self.pc = program.entry

    # -- memory helpers -------------------------------------------------------------

    def _check_range(self, address: int, size: int) -> None:
        if address < 0 or address + size > self.memory_size:
            raise ExecutionError(f"memory access out of range: {address:#x}+{size}")
        if address % size:
            raise ExecutionError(f"unaligned {size}-byte access at {address:#x}")

    def _fault(self, pc: int, address: int, size: int) -> None:
        # A translated load or store at ``pc`` failed its inline check.
        self.pc = pc
        self._check_range(address, size)

    def read_memory(self, address: int, size: int) -> int:
        """Read ``size`` bytes little-endian (range- and alignment-checked)."""
        self._check_range(address, size)
        return int.from_bytes(self.memory[address : address + size], "little")

    def write_memory(self, address: int, value: int, size: int) -> None:
        """Write ``size`` bytes little-endian (range- and alignment-checked)."""
        self._check_range(address, size)
        self.memory[address : address + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    # -- execution ------------------------------------------------------------------

    def run(self, program: Program, max_steps: int = 2_000_000) -> ExecutionResult:
        """Load and run ``program``; return traces and final state.

        Raises :class:`ExecutionError` when ``max_steps`` is exhausted before
        ``halt`` — runaway loops are bugs in the kernel, not data — and on a
        bad PC or an out-of-range or unaligned access; an undecodable word
        raises :func:`decode`'s ``ValueError``.  After a fault :attr:`pc`
        names the faulting instruction.
        """
        self.load(program)
        translator = _Translator(self)
        lookup = translator.blocks.get
        budget = max_steps
        pc = self.pc
        while True:
            block = lookup(pc)
            if block is None or block[1] > budget:
                # A halt, a store into translated code, the first dispatch to
                # ``pc`` since the table was last cleared, or a block the
                # budget cuts short.
                if pc is None:
                    break
                if pc.__class__ is tuple:
                    # The store's block retired up to the store, ``unretired``
                    # steps short of the length charged for it.
                    pc, unretired = pc
                    budget += unretired
                    translator.invalidate()
                self.pc = pc
                if budget <= 0:
                    raise ExecutionError(f"program did not halt within {max_steps} steps")
                if pc % 4 or not 0 <= pc < self.memory_size:
                    raise ExecutionError(f"bad PC {pc:#x}")
                block = translator.translate(pc, budget)
            function, length = block
            budget -= length
            pc = function()

        steps = max_steps - budget
        self.pc = translator.pcs[translator.exits[-1]]
        data_trace, instruction_trace = translator.traces(program.name, steps)
        return ExecutionResult(
            program=program,
            instructions_executed=steps,
            data_trace=data_trace,
            instruction_trace=instruction_trace,
            registers=list(self.registers),
            halted=True,
        )
