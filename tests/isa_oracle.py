"""Reference interpreter for the ISS differential tests.

:class:`OracleCPU` is the plain per-step interpreter: every fetched word goes
through :func:`repro.isa.decode` into an :class:`~repro.isa.Instruction`,
which is dispatched on its opcode, and every register write goes through one
masking helper.  It fetches and checks every step, so it has no blocks, no
translated source and nothing to invalidate when a store rewrites code.  It
shares program loading and the range- and alignment-checked memory helpers
with :class:`~repro.isa.CPU` and nothing else, so a disagreement between the
two points at the ISS's block translator: the generated source of a block,
where a block ends, the invalidation of translated code, or the gathering of
the trace columns.  Slow by design: use it on test-sized programs only.
"""

from __future__ import annotations

from repro.isa import CPU, ExecutionError, Instruction, Opcode, RFunct, decode
from repro.isa.cpu import ExecutionResult
from repro.trace import AccessKind, AddressSpace, MemoryAccess, Trace

__all__ = ["OracleCPU"]

_WORD_MASK = 0xFFFFFFFF


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 32) if value & (1 << 31) else value


def _to_signed_width(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


class OracleCPU(CPU):
    """Decode-every-step reference for :meth:`CPU.run`."""

    def run(self, program, max_steps: int = 2_000_000) -> ExecutionResult:
        """Load and run ``program`` one decoded instruction at a time."""
        self.load(program)
        data_events: list[MemoryAccess] = []
        instruction_events: list[MemoryAccess] = []
        steps = 0
        halted = False

        while steps < max_steps:
            if self.pc % 4 or not 0 <= self.pc < self.memory_size:
                raise ExecutionError(f"bad PC {self.pc:#x}")
            word = int.from_bytes(self.memory[self.pc : self.pc + 4], "little")
            instruction_events.append(
                MemoryAccess(
                    time=steps,
                    address=self.pc,
                    size=4,
                    kind=AccessKind.READ,
                    space=AddressSpace.INSTRUCTION,
                    value=word,
                )
            )
            instruction = decode(word)
            if instruction.opcode is Opcode.HALT:
                steps += 1
                halted = True
                break
            self._execute(instruction, steps, data_events)
            steps += 1

        if not halted:
            raise ExecutionError(f"program did not halt within {max_steps} steps")

        return ExecutionResult(
            program=program,
            instructions_executed=steps,
            data_trace=Trace.from_events(data_events, name=f"{program.name}.data"),
            instruction_trace=Trace.from_events(instruction_events, name=f"{program.name}.instr"),
            registers=list(self.registers),
            halted=halted,
        )

    def _set_register(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = value & _WORD_MASK

    def _execute(self, ins: Instruction, time: int, data_events: list[MemoryAccess]) -> None:
        regs = self.registers
        next_pc = self.pc + 4
        op = ins.opcode

        if op is Opcode.RTYPE:
            a, b = regs[ins.rs1], regs[ins.rs2]
            self._set_register(ins.rd, self._alu(ins.funct, a, b))
        elif op in (
            Opcode.ADDI,
            Opcode.ANDI,
            Opcode.ORI,
            Opcode.XORI,
            Opcode.SLTI,
            Opcode.SLLI,
            Opcode.SRLI,
            Opcode.SRAI,
        ):
            self._set_register(ins.rd, self._alu_imm(op, regs[ins.rs1], ins.imm))
        elif op is Opcode.LUI:
            self._set_register(ins.rd, (ins.imm & 0xFFFF) << 16)
        elif ins.is_load:
            address = (regs[ins.rs1] + ins.imm) & _WORD_MASK
            size = ins.access_size
            raw = self.read_memory(address, size)
            if op is Opcode.LH:
                raw = _to_signed_width(raw, 16)
            elif op is Opcode.LB:
                raw = _to_signed_width(raw, 8)
            self._set_register(ins.rd, raw & _WORD_MASK)
            data_events.append(
                MemoryAccess(
                    time=time,
                    address=address,
                    size=size,
                    kind=AccessKind.READ,
                    value=(raw & _WORD_MASK) if self.trace_values else None,
                )
            )
        elif ins.is_store:
            address = (regs[ins.rs1] + ins.imm) & _WORD_MASK
            size = ins.access_size
            value = regs[ins.rd] & ((1 << (8 * size)) - 1)
            self.write_memory(address, value, size)
            data_events.append(
                MemoryAccess(
                    time=time,
                    address=address,
                    size=size,
                    kind=AccessKind.WRITE,
                    value=value if self.trace_values else None,
                )
            )
        elif ins.is_branch:
            if self._branch_taken(op, regs[ins.rd], regs[ins.rs1]):
                next_pc = self.pc + 4 + 4 * ins.imm
        elif op is Opcode.JAL:
            self._set_register(ins.rd, self.pc + 4)
            next_pc = self.pc + 4 + 4 * ins.imm
        elif op is Opcode.JALR:
            target = (regs[ins.rs1] + ins.imm) & _WORD_MASK
            self._set_register(ins.rd, self.pc + 4)
            next_pc = target
        else:
            raise ExecutionError(f"unimplemented opcode {op!r}")

        self.pc = next_pc

    @staticmethod
    def _alu(funct: RFunct, a: int, b: int) -> int:
        sa, sb = _to_signed(a), _to_signed(b)
        if funct is RFunct.ADD:
            return a + b
        if funct is RFunct.SUB:
            return a - b
        if funct is RFunct.AND:
            return a & b
        if funct is RFunct.OR:
            return a | b
        if funct is RFunct.XOR:
            return a ^ b
        if funct is RFunct.SLL:
            return a << (b & 31)
        if funct is RFunct.SRL:
            return (a & _WORD_MASK) >> (b & 31)
        if funct is RFunct.SRA:
            return sa >> (b & 31)
        if funct is RFunct.SLT:
            return 1 if sa < sb else 0
        if funct is RFunct.SLTU:
            return 1 if (a & _WORD_MASK) < (b & _WORD_MASK) else 0
        if funct is RFunct.MUL:
            return sa * sb
        if funct is RFunct.DIV:
            if sb == 0:
                return _WORD_MASK  # division by zero: all-ones, RISC-V style
            return int(sa / sb)  # truncate toward zero
        if funct is RFunct.REM:
            if sb == 0:
                return a
            return sa - int(sa / sb) * sb
        raise ExecutionError(f"unimplemented funct {funct!r}")

    @staticmethod
    def _alu_imm(op: Opcode, a: int, imm: int) -> int:
        sa = _to_signed(a)
        unsigned_imm = imm & 0xFFFF
        if op is Opcode.ADDI:
            return a + imm
        if op is Opcode.ANDI:
            return a & unsigned_imm
        if op is Opcode.ORI:
            return a | unsigned_imm
        if op is Opcode.XORI:
            return a ^ unsigned_imm
        if op is Opcode.SLTI:
            return 1 if sa < imm else 0
        if op is Opcode.SLLI:
            return a << (imm & 31)
        if op is Opcode.SRLI:
            return (a & _WORD_MASK) >> (imm & 31)
        if op is Opcode.SRAI:
            return sa >> (imm & 31)
        raise ExecutionError(f"unimplemented immediate opcode {op!r}")

    @staticmethod
    def _branch_taken(op: Opcode, a: int, b: int) -> bool:
        sa, sb = _to_signed(a), _to_signed(b)
        if op is Opcode.BEQ:
            return a == b
        if op is Opcode.BNE:
            return a != b
        if op is Opcode.BLT:
            return sa < sb
        if op is Opcode.BGE:
            return sa >= sb
        if op is Opcode.BLTU:
            return (a & _WORD_MASK) < (b & _WORD_MASK)
        if op is Opcode.BGEU:
            return (a & _WORD_MASK) >= (b & _WORD_MASK)
        raise ExecutionError(f"not a branch: {op!r}")
