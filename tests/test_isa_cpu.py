"""Unit tests for the ISS's CPU."""

import gc

import pytest

from repro.isa import CPU, ExecutionError, Instruction, Opcode, Program, RFunct, assemble, encode
from repro.trace import AddressSpace


def run(source, **kwargs):
    return CPU(**kwargs).run(assemble(source))


class TestArithmetic:
    def test_add_sub(self):
        result = run(".text\nli r1, 10\nli r2, 3\nadd r3, r1, r2\nsub r4, r1, r2\nhalt\n")
        assert result.registers[3] == 13
        assert result.registers[4] == 7

    def test_negative_results_wrap_to_u32(self):
        result = run(".text\nli r1, 3\nli r2, 10\nsub r3, r1, r2\nhalt\n")
        assert result.registers[3] == (3 - 10) % 2**32

    def test_logic_ops(self):
        result = run(
            ".text\nli r1, 0xF0\nli r2, 0x3C\nand r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2\nhalt\n"
        )
        assert result.registers[3] == 0x30
        assert result.registers[4] == 0xFC
        assert result.registers[5] == 0xCC

    def test_shifts(self):
        result = run(
            ".text\nli r1, -8\nsrai r2, r1, 1\nsrli r3, r1, 1\nslli r4, r1, 1\nhalt\n"
        )
        assert result.registers[2] == (-4) % 2**32
        assert result.registers[3] == ((-8) % 2**32) >> 1
        assert result.registers[4] == ((-8) % 2**32 << 1) % 2**32

    def test_mul_div_rem(self):
        result = run(
            ".text\nli r1, -7\nli r2, 2\nmul r3, r1, r2\ndiv r4, r1, r2\nrem r5, r1, r2\nhalt\n"
        )
        assert result.registers[3] == (-14) % 2**32
        assert result.registers[4] == (-3) % 2**32  # truncation toward zero
        assert result.registers[5] == (-1) % 2**32

    def test_div_by_zero_is_all_ones(self):
        result = run(".text\nli r1, 5\ndiv r2, r1, r0\nhalt\n")
        assert result.registers[2] == 0xFFFFFFFF

    def test_slt_family(self):
        result = run(
            ".text\nli r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\nslti r5, r1, 0\nhalt\n"
        )
        assert result.registers[3] == 1  # -1 < 1 signed
        assert result.registers[4] == 0  # 0xFFFFFFFF > 1 unsigned
        assert result.registers[5] == 1

    def test_r0_is_hardwired_zero(self):
        result = run(".text\nli r0, 99\naddi r0, r0, 5\nhalt\n")
        assert result.registers[0] == 0

    def test_lui_ori(self):
        result = run(".text\nlui r1, 0xDEAD\nori r1, r1, 0xBEEF\nhalt\n")
        assert result.registers[1] == 0xDEADBEEF


class TestMemory:
    def test_word_store_load(self):
        result = run(
            ".data\nbuf: .space 16\n.text\nla r1, buf\nli r2, 0x12345678\nsw r2, 4(r1)\nlw r3, 4(r1)\nhalt\n"
        )
        assert result.registers[3] == 0x12345678

    def test_signed_byte_load(self):
        result = run(
            ".data\nb: .byte 0xFF\n.text\nla r1, b\nlb r2, 0(r1)\nlbu r3, 0(r1)\nhalt\n"
        )
        assert result.registers[2] == 0xFFFFFFFF
        assert result.registers[3] == 0xFF

    def test_signed_half_load(self):
        result = run(
            ".data\nh: .half 0x8000\n.text\nla r1, h\nlh r2, 0(r1)\nlhu r3, 0(r1)\nhalt\n"
        )
        assert result.registers[2] == 0xFFFF8000
        assert result.registers[3] == 0x8000

    def test_unaligned_access_raises(self):
        with pytest.raises(ExecutionError, match="unaligned"):
            run(".text\nli r1, 1\nlw r2, 0(r1)\nhalt\n")

    def test_out_of_range_access_raises(self):
        with pytest.raises(ExecutionError, match="out of range"):
            run(".text\nli r1, -4\nsw r1, 0(r1)\nhalt\n", memory_size=1 << 16)


class TestControlFlow:
    def test_loop_counts(self):
        result = run(
            """
            .text
main:   li   r1, 0
        li   r2, 10
loop:   addi r1, r1, 1
        bne  r1, r2, loop
        halt
"""
        )
        assert result.registers[1] == 10

    def test_call_and_return(self):
        result = run(
            """
            .text
main:   li   r1, 5
        jal  double
        halt
double: add  r2, r1, r1
        ret
"""
        )
        assert result.registers[2] == 10

    def test_jalr_computed_target(self):
        result = run(
            """
            .text
main:   la   r5, target
        jalr r6, r5, 0
        halt
target: li   r7, 42
        halt
"""
        )
        assert result.registers[7] == 42

    def test_runaway_loop_raises(self):
        with pytest.raises(ExecutionError, match="did not halt"):
            run(".text\nx: j x\n", memory_size=1 << 16)

    def test_bad_pc_raises(self):
        with pytest.raises(ExecutionError):
            run(".text\nli r1, 3\njalr r0, r1, 0\n", memory_size=1 << 16)


class TestTraces:
    def test_instruction_trace_covers_every_step(self):
        result = run(".text\nnop\nnop\nhalt\n")
        assert result.instructions_executed == 3
        assert len(result.instruction_trace) == 3
        assert all(e.space is AddressSpace.INSTRUCTION for e in result.instruction_trace)

    def test_instruction_trace_carries_encodings(self):
        result = run(".text\nhalt\n")
        word = result.instruction_trace.values[0]
        assert word is not None and (word >> 26) == 0x3F

    def test_data_trace_records_loads_and_stores(self):
        result = run(
            ".data\nx: .word 7\n.text\nla r1, x\nlw r2, 0(r1)\nsw r2, 0(r1)\nhalt\n"
        )
        assert len(result.data_trace) == 2
        load, store = result.data_trace
        assert load.is_read and store.is_write
        assert load.value == 7 and store.value == 7
        assert load.address == store.address

    def test_value_tracing_can_be_disabled(self):
        program = assemble(".data\nx: .word 7\n.text\nla r1, x\nlw r2, 0(r1)\nhalt\n")
        result = CPU(trace_values=False).run(program)
        assert [event.value for event in result.data_trace] == [None]

    def test_stack_pointer_initialized_at_top(self):
        result = run(".text\nhalt\n", memory_size=1 << 16)
        assert result.registers[29] == (1 << 16) - 16

    def test_a_run_leaves_no_reference_cycles(self):
        # The translated blocks, their rows and the memory image they read
        # must be freed when ``run`` returns, not at the next collection.
        source = ".text\nli r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n"
        gc.collect()
        gc.disable()
        try:
            run(source)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMemorySize:
    @pytest.mark.parametrize("size", [-16, 0, 8, 15, (1 << 32) + 1, 1 << 33])
    def test_rejects_a_size_whose_stack_pointer_no_register_holds(self, size):
        # Checked before the memory is allocated: no 8 GiB bytearray here.
        with pytest.raises(ValueError, match=f"got {size}$"):
            CPU(memory_size=size)

    def test_smallest_memory_starts_sp_at_zero(self):
        copy_sp = encode(Instruction(Opcode.RTYPE, rd=1, rs1=29, rs2=0, funct=RFunct.ADD))
        program = Program(
            name="tiny",
            text_words=[copy_sp, encode(Instruction(Opcode.HALT))],
            data_bytes=b"",
            symbols={},
            data_base=8,
        )
        result = CPU(memory_size=16).run(program)
        assert result.registers[29] == 0
        assert result.registers[1] == result.registers[29]
