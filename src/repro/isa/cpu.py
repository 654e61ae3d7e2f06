"""CPU: executes assembled programs and captures memory traces.

The CPU is a functional (not cycle-accurate) interpreter: one instruction per
logical time step.  That is exactly the fidelity the reproduced experiments
need — they consume the *address and value streams*, not pipeline timing.

Captured streams:

* **instruction trace** — one event per fetch, carrying the PC and the raw
  32-bit instruction word (the payload of the bus-encoding experiment E3);
* **data trace** — one event per load/store, carrying address, width, and the
  stored/loaded value (the payload of partitioning/clustering/compression
  experiments E1/E2).

Each run decodes every distinct instruction word once, on its first fetch,
into a flat entry (op kind, register indices, operand, access size, masks,
and the ALU or branch callable the step applies).  The table is keyed by
the fetched word, not the PC, so a store that rewrites the text segment is
decoded afresh when the new word is fetched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..trace.trace import KIND_READ, KIND_WRITE, SPACE_INSTRUCTION, Trace
from .assembler import Program
from .instructions import (
    LOAD_OPCODES,
    STORE_OPCODES,
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


# -- ALU and branch semantics -----------------------------------------------------
#
# Each callable takes the two source operands and returns the raw result; the
# step loop masks it to 32 bits on the register write.  The comparisons serve
# both the set-less-than ALU ops (``True & mask == 1``) and the branches.


def _sll(a: int, b: int) -> int:
    return a << (b & 31)


def _srl(a: int, b: int) -> int:
    return (a & _WORD_MASK) >> (b & 31)


def _sra(a: int, b: int) -> int:
    return _to_signed(a) >> (b & 31)


def _mul(a: int, b: int) -> int:
    return _to_signed(a) * _to_signed(b)


def _div(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return _WORD_MASK  # division by zero: all-ones, RISC-V style
    return int(sa / sb)  # truncate toward zero


def _rem(a: int, b: int) -> int:
    sa, sb = _to_signed(a), _to_signed(b)
    if sb == 0:
        return a
    return sa - int(sa / sb) * sb


def _operand(a: int, b: int) -> int:
    return b


def _lt(a: int, b: int) -> bool:
    return _to_signed(a) < _to_signed(b)


def _ge(a: int, b: int) -> bool:
    return _to_signed(a) >= _to_signed(b)


def _ltu(a: int, b: int) -> bool:
    return (a & _WORD_MASK) < (b & _WORD_MASK)


def _geu(a: int, b: int) -> bool:
    return (a & _WORD_MASK) >= (b & _WORD_MASK)


_RTYPE_OPS = {
    RFunct.ADD: operator.add,
    RFunct.SUB: operator.sub,
    RFunct.AND: operator.and_,
    RFunct.OR: operator.or_,
    RFunct.XOR: operator.xor,
    RFunct.SLL: _sll,
    RFunct.SRL: _srl,
    RFunct.SRA: _sra,
    RFunct.SLT: _lt,
    RFunct.SLTU: _ltu,
    RFunct.MUL: _mul,
    RFunct.DIV: _div,
    RFunct.REM: _rem,
}

#: Immediate ALU opcodes: (callable, zero-extend the immediate).
_IMMEDIATE_OPS = {
    Opcode.ADDI: (operator.add, False),
    Opcode.ANDI: (operator.and_, True),
    Opcode.ORI: (operator.or_, True),
    Opcode.XORI: (operator.xor, True),
    Opcode.SLTI: (_lt, False),
    Opcode.SLLI: (_sll, False),
    Opcode.SRLI: (_srl, False),
    Opcode.SRAI: (_sra, False),
}

_BRANCH_OPS = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: _lt,
    Opcode.BGE: _ge,
    Opcode.BLTU: _ltu,
    Opcode.BGEU: _geu,
}

# -- predecoding ------------------------------------------------------------------

#: Op kinds of a predecoded entry, in the order the step loop tests them
#: (most frequent first on the bundled kernels).
_IMM, _RTYPE, _LOAD, _BRANCH, _STORE, _JAL, _JALR, _HALT = range(8)

#: Sign bit of the value a sign-extending load reads (0: zero-extend).
_LOAD_SIGN_BITS = {Opcode.LH: 0x8000, Opcode.LB: 0x80}


def _predecode(word: int) -> tuple:
    """Decode ``word`` into the entry the step loop dispatches on.

    The entry is ``(kind, rd, rs1, rs2, operand, size, mask, fn)``:
    ``operand`` is the immediate as the step uses it (zero-extended for the
    logical immediates, the loaded constant for ``lui``, the byte offset
    from the PC for taken branches and ``jal``); ``size`` is the access
    width of a load or store; ``mask`` is a store's value mask or a signed
    load's sign bit; ``fn`` is the ALU or branch callable.  Unknown opcodes
    and functs raise :func:`decode`'s ``ValueError``.
    """
    ins = decode(word)
    op = ins.opcode
    if op is Opcode.RTYPE:
        return (_RTYPE, ins.rd, ins.rs1, ins.rs2, 0, 0, 0, _RTYPE_OPS[ins.funct])
    if op in _IMMEDIATE_OPS:
        fn, zero_extend = _IMMEDIATE_OPS[op]
        operand = ins.imm & 0xFFFF if zero_extend else ins.imm
        return (_IMM, ins.rd, ins.rs1, 0, operand, 0, 0, fn)
    if op is Opcode.LUI:
        return (_IMM, ins.rd, ins.rs1, 0, (ins.imm & 0xFFFF) << 16, 0, 0, _operand)
    if op in LOAD_OPCODES:
        size = LOAD_OPCODES[op]
        return (_LOAD, ins.rd, ins.rs1, 0, ins.imm, size, _LOAD_SIGN_BITS.get(op, 0), None)
    if op in STORE_OPCODES:
        size = STORE_OPCODES[op]
        return (_STORE, ins.rd, ins.rs1, 0, ins.imm, size, (1 << (8 * size)) - 1, None)
    if op in _BRANCH_OPS:
        return (_BRANCH, ins.rd, ins.rs1, 0, 4 + 4 * ins.imm, 0, 0, _BRANCH_OPS[op])
    if op is Opcode.JAL:
        return (_JAL, ins.rd, 0, 0, 4 + 4 * ins.imm, 0, 0, None)
    if op is Opcode.JALR:
        return (_JALR, ins.rd, ins.rs1, 0, ins.imm, 0, 0, None)
    if op is Opcode.HALT:
        return (_HALT, 0, 0, 0, 0, 0, 0, None)
    raise ExecutionError(f"unimplemented opcode {op!r}")  # pragma: no cover


class CPU:
    """Functional interpreter for assembled programs.

    Parameters
    ----------
    memory_size:
        Size of the flat byte-addressable memory.  Text and data segments are
        loaded at their program bases; the stack pointer starts at the top.
    trace_values:
        When set (default), data events carry store/load payloads so the
        compression experiments can reconstruct line contents.
    """

    def __init__(self, memory_size: int = 1 << 20, trace_values: bool = True) -> None:
        if memory_size <= 0:
            raise ValueError(f"memory_size must be positive, got {memory_size}")
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
        # Per-stream columns: fetch PCs and words; data times, addresses,
        # sizes, kind codes and payloads.
        pcs: list[int] = []
        words: list[int] = []
        data: tuple[list[int], ...] = ([], [], [], [], [])
        fetched_pc, fetched_word = pcs.append, words.append
        times, addresses, sizes, kinds, values = (column.append for column in data)
        from_bytes = int.from_bytes
        check_range = self._check_range
        memory = self.memory
        memory_size = self.memory_size
        regs = self.registers
        entries: dict[int, tuple] = {}
        lookup = entries.get
        pc = self.pc
        steps = 0
        halted = False

        try:
            while steps < max_steps:
                if pc % 4 or not 0 <= pc < memory_size:
                    raise ExecutionError(f"bad PC {pc:#x}")
                word = from_bytes(memory[pc : pc + 4], "little")
                fetched_pc(pc)
                fetched_word(word)
                entry = lookup(word)
                if entry is None:
                    entry = entries[word] = _predecode(word)
                kind, rd, rs1, rs2, operand, size, mask, fn = entry
                if kind == _IMM:
                    if rd:
                        regs[rd] = fn(regs[rs1], operand) & _WORD_MASK
                    pc += 4
                elif kind == _RTYPE:
                    if rd:
                        regs[rd] = fn(regs[rs1], regs[rs2]) & _WORD_MASK
                    pc += 4
                elif kind == _LOAD:
                    address = (regs[rs1] + operand) & _WORD_MASK
                    check_range(address, size)
                    value = from_bytes(memory[address : address + size], "little")
                    if value & mask:
                        value = (value - (mask << 1)) & _WORD_MASK
                    if rd:
                        regs[rd] = value
                    times(steps)
                    addresses(address)
                    sizes(size)
                    kinds(KIND_READ)
                    values(value)
                    pc += 4
                elif kind == _BRANCH:
                    pc += operand if fn(regs[rd], regs[rs1]) else 4
                elif kind == _STORE:
                    address = (regs[rs1] + operand) & _WORD_MASK
                    value = regs[rd] & mask
                    check_range(address, size)
                    memory[address : address + size] = value.to_bytes(size, "little")
                    times(steps)
                    addresses(address)
                    sizes(size)
                    kinds(KIND_WRITE)
                    values(value)
                    pc += 4
                elif kind == _JAL:
                    if rd:
                        regs[rd] = (pc + 4) & _WORD_MASK
                    pc += operand
                elif kind == _JALR:
                    target = (regs[rs1] + operand) & _WORD_MASK
                    if rd:
                        regs[rd] = (pc + 4) & _WORD_MASK
                    pc = target
                else:  # _HALT
                    steps += 1
                    halted = True
                    break
                steps += 1
        finally:
            self.pc = pc

        if not halted:
            raise ExecutionError(f"program did not halt within {max_steps} steps")

        data_times, data_addresses, data_sizes, data_kinds, data_values = data
        carried = self.trace_values and len(data_times) > 0
        return ExecutionResult(
            program=program,
            instructions_executed=steps,
            data_trace=Trace(
                data_addresses,
                data_times,
                data_kinds,
                data_sizes,
                values=data_values if carried else None,
                value_mask=np.ones(len(data_times), dtype=bool) if carried else None,
                name=f"{program.name}.data",
            ),
            instruction_trace=Trace(
                pcs,
                np.arange(steps),
                np.full(steps, KIND_READ),
                np.full(steps, 4),
                spaces=np.full(steps, SPACE_INSTRUCTION),
                values=words,
                value_mask=np.ones(steps, dtype=bool),
                name=f"{program.name}.instr",
            ),
            registers=list(regs),
            halted=halted,
        )
