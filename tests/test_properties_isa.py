"""Property-based tests for the ISA: encoder, CPU ALU, disassembler, ISS.

The CPU's ALU and branches are checked against an independent Python
reference over random operands — the strongest cheap oracle available for an
ISS.
The whole ISS is checked against :class:`tests.isa_oracle.OracleCPU`, a
decode-every-step interpreter: registers, final memory, the retired count and
both traces must agree exactly on every bundled kernel, on generated
programs, on self-modifying code and on every fault.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa import (
    CPU,
    ExecutionError,
    Instruction,
    Opcode,
    Program,
    RFunct,
    assemble,
    decode,
    disassemble_word,
    encode,
    kernel_names,
    load_kernel,
)

from repro.isa.instructions import BRANCH_OPCODES, LOAD_OPCODES, STORE_OPCODES

from .isa_oracle import OracleCPU

_WORD = 0xFFFFFFFF

registers = st.integers(min_value=0, max_value=31)
imm16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)
imm21 = st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)


# ---------------------------------------------------------------------------
# encode/decode round trip over the full instruction space
# ---------------------------------------------------------------------------


@given(rd=registers, rs1=registers, rs2=registers, funct=st.sampled_from(list(RFunct)))
@settings(max_examples=80, deadline=None)
def test_rtype_roundtrip(rd, rs1, rs2, funct):
    instruction = Instruction(Opcode.RTYPE, rd=rd, rs1=rs1, rs2=rs2, funct=funct)
    assert decode(encode(instruction)) == instruction


_I_OPCODES = [
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI,
    Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.LUI,
    Opcode.LW, Opcode.LH, Opcode.LB, Opcode.LHU, Opcode.LBU,
    Opcode.SW, Opcode.SH, Opcode.SB,
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU,
    Opcode.JALR,
]


@given(opcode=st.sampled_from(_I_OPCODES), rd=registers, rs1=registers, imm=imm16)
@settings(max_examples=120, deadline=None)
def test_itype_roundtrip(opcode, rd, rs1, imm):
    instruction = Instruction(opcode, rd=rd, rs1=rs1, imm=imm)
    assert decode(encode(instruction)) == instruction


@given(rd=registers, imm=imm21)
@settings(max_examples=80, deadline=None)
def test_jal_roundtrip(rd, imm):
    instruction = Instruction(Opcode.JAL, rd=rd, imm=imm)
    assert decode(encode(instruction)) == instruction


# ---------------------------------------------------------------------------
# disassemble -> reassemble fixpoint (straight-line instructions)
# ---------------------------------------------------------------------------


@given(
    rd=registers, rs1=registers, rs2=registers,
    funct=st.sampled_from(list(RFunct)),
)
@settings(max_examples=60, deadline=None)
def test_disassembly_reassembles_identically(rd, rs1, rs2, funct):
    word = encode(Instruction(Opcode.RTYPE, rd=rd, rs1=rs1, rs2=rs2, funct=funct))
    text = f".text\n{disassemble_word(word)}\nhalt\n"
    program = assemble(text)
    assert program.text_words[0] == word


# ---------------------------------------------------------------------------
# CPU ALU vs independent Python reference
# ---------------------------------------------------------------------------


def _signed(value):
    value &= _WORD
    return value - (1 << 32) if value & (1 << 31) else value


def _reference_alu(funct, a, b):
    sa, sb = _signed(a), _signed(b)
    if funct is RFunct.ADD:
        return (a + b) & _WORD
    if funct is RFunct.SUB:
        return (a - b) & _WORD
    if funct is RFunct.AND:
        return a & b
    if funct is RFunct.OR:
        return a | b
    if funct is RFunct.XOR:
        return a ^ b
    if funct is RFunct.SLL:
        return (a << (b & 31)) & _WORD
    if funct is RFunct.SRL:
        return (a & _WORD) >> (b & 31)
    if funct is RFunct.SRA:
        return (sa >> (b & 31)) & _WORD
    if funct is RFunct.SLT:
        return 1 if sa < sb else 0
    if funct is RFunct.SLTU:
        return 1 if (a & _WORD) < (b & _WORD) else 0
    if funct is RFunct.MUL:
        return (sa * sb) & _WORD
    if funct is RFunct.DIV:
        if sb == 0:
            return _WORD
        return int(sa / sb) & _WORD
    if funct is RFunct.REM:
        if sb == 0:
            return a & _WORD
        return (sa - int(sa / sb) * sb) & _WORD
    raise AssertionError(funct)


@given(
    a=st.integers(min_value=0, max_value=_WORD),
    b=st.integers(min_value=0, max_value=_WORD),
    funct=st.sampled_from(list(RFunct)),
)
@settings(max_examples=150, deadline=None)
def test_alu_matches_reference(a, b, funct):
    # Materialize a and b via lui/ori, apply the op, halt.
    source = f"""
        .text
main:   lui  r1, {(a >> 16) & 0xFFFF}
        ori  r1, r1, {a & 0xFFFF}
        lui  r2, {(b >> 16) & 0xFFFF}
        ori  r2, r2, {b & 0xFFFF}
        {funct.name.lower()} r3, r1, r2
        halt
"""
    result = CPU().run(assemble(source))
    assert result.registers[3] == _reference_alu(funct, a, b)


_BRANCH_REFERENCE = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: _signed(a) < _signed(b),
    Opcode.BGE: lambda a, b: _signed(a) >= _signed(b),
    Opcode.BLTU: lambda a, b: a < b,
    Opcode.BGEU: lambda a, b: a >= b,
}


@given(
    # Signed draws, so about half the operands have the sign bit set.
    a=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    b=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    op=st.sampled_from(sorted(_BRANCH_REFERENCE)),
)
@settings(max_examples=100, deadline=None)
def test_branches_match_reference(a, b, op):
    a, b = a & _WORD, b & _WORD
    source = f"""
        .text
main:   lui  r1, {(a >> 16) & 0xFFFF}
        ori  r1, r1, {a & 0xFFFF}
        lui  r2, {(b >> 16) & 0xFFFF}
        ori  r2, r2, {b & 0xFFFF}
        {op.name.lower()} r1, r2, taken
        halt
taken:  li   r3, 1
        halt
"""
    result = CPU().run(assemble(source))
    assert result.registers[3] == int(_BRANCH_REFERENCE[op](a, b))


@given(
    value=st.integers(min_value=0, max_value=_WORD),
    shift=st.integers(min_value=0, max_value=31),
    op=st.sampled_from(["slli", "srli", "srai"]),
)
@settings(max_examples=100, deadline=None)
def test_shift_immediates_match_reference(value, shift, op):
    source = f"""
        .text
main:   lui  r1, {(value >> 16) & 0xFFFF}
        ori  r1, r1, {value & 0xFFFF}
        {op} r2, r1, {shift}
        halt
"""
    result = CPU().run(assemble(source))
    if op == "slli":
        expected = (value << shift) & _WORD
    elif op == "srli":
        expected = value >> shift
    else:
        expected = (_signed(value) >> shift) & _WORD
    assert result.registers[2] == expected


@given(
    value=st.integers(min_value=0, max_value=_WORD),
    address_word=st.integers(min_value=0, max_value=63),
    size=st.sampled_from(["w", "h", "b"]),
)
@settings(max_examples=100, deadline=None)
def test_store_load_roundtrip_unsigned(value, address_word, size):
    bits = {"w": 32, "h": 16, "b": 8}[size]
    load = {"w": "lw", "h": "lhu", "b": "lbu"}[size]
    source = f"""
        .data
buf:    .space 256
        .text
main:   la   r1, buf
        lui  r2, {(value >> 16) & 0xFFFF}
        ori  r2, r2, {value & 0xFFFF}
        s{size}   r2, {address_word * 4}(r1)
        {load}  r3, {address_word * 4}(r1)
        halt
"""
    result = CPU().run(assemble(source))
    assert result.registers[3] == value & ((1 << bits) - 1)


# ---------------------------------------------------------------------------
# The ISS vs the decode-every-step oracle
# ---------------------------------------------------------------------------


def _run(cpu, program, max_steps):
    try:
        return cpu.run(program, max_steps=max_steps)
    except (ExecutionError, ValueError) as error:
        return error


def assert_matches_oracle(program, max_steps=2_000_000, **cpu_options):
    """Run ``program`` on the ISS and the oracle; require identical outcomes.

    Returns the ISS's result, or the exception it raised.
    """
    cpu, oracle = CPU(**cpu_options), OracleCPU(**cpu_options)
    got, want = _run(cpu, program, max_steps), _run(oracle, program, max_steps)
    assert type(got) is type(want), (got, want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
    else:
        assert got.instructions_executed == want.instructions_executed
        assert got.halted == want.halted
        assert got.registers == want.registers
        for stream in ("instruction_trace", "data_trace"):
            ours, theirs = getattr(got, stream), getattr(want, stream)
            assert ours.name == theirs.name
            assert len(ours) == len(theirs), stream
            for index, (event, expected) in enumerate(zip(ours, theirs)):
                assert event == expected, f"{stream}[{index}]"
    # After a fault the PC still names the faulting instruction.
    assert cpu.pc == oracle.pc
    assert cpu.registers == oracle.registers
    # A bare ``assert ==`` on two memories would make pytest diff every byte.
    if cpu.memory != oracle.memory:
        first = _first_difference(cpu.memory, oracle.memory)
        pytest.fail(f"final memory differs first at {first:#x}")
    return got


def _first_difference(ours, theirs):
    return next(index for index, (a, b) in enumerate(zip(ours, theirs)) if a != b)


@pytest.mark.parametrize("name", kernel_names())
def test_every_kernel_matches_oracle(name):
    result = assert_matches_oracle(load_kernel(name))
    assert result.halted


def test_value_free_traces_match_oracle():
    assert_matches_oracle(load_kernel("histogram"), trace_values=False)


_WINDOW = 64  # bytes of .data the generated programs load from and store to
_BASE = 1  # register holding the window's address; never written
_WRITABLE = st.integers(min_value=2, max_value=9)
_READABLE = st.integers(min_value=0, max_value=9)
_IMMEDIATE_ALU = [
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI,
    Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.LUI,
]
_BRANCHES = sorted(BRANCH_OPCODES)


def _as_imm16(value):
    return value - (1 << 16) if value & 0x8000 else value


@st.composite
def _memory_op(draw):
    op = draw(st.sampled_from(sorted(LOAD_OPCODES.keys() | STORE_OPCODES.keys())))
    size = LOAD_OPCODES.get(op) or STORE_OPCODES[op]
    offset = size * draw(st.integers(min_value=0, max_value=_WINDOW // size - 1))
    value_register = _WRITABLE if op in LOAD_OPCODES else _READABLE
    return Instruction(op, rd=draw(value_register), rs1=_BASE, imm=offset)


_body_instruction = st.one_of(
    st.builds(
        lambda funct, rd, rs1, rs2: Instruction(
            Opcode.RTYPE, rd=rd, rs1=rs1, rs2=rs2, funct=funct
        ),
        st.sampled_from(list(RFunct)), _WRITABLE, _READABLE, _READABLE,
    ),
    st.builds(
        lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1, imm=imm),
        st.sampled_from(_IMMEDIATE_ALU), _WRITABLE, _READABLE, imm16,
    ),
    _memory_op(),
    st.builds(
        lambda op, a, b, offset: Instruction(op, rd=a, rs1=b, imm=offset),
        st.sampled_from(_BRANCHES), _READABLE, _READABLE,
        st.integers(min_value=-3, max_value=3),
    ),
)


@st.composite
def generated_programs(draw):
    """Seeded registers, then a random ALU/immediate/load/store/branch mix, then ``halt``.

    Forward branches land at most on the ``halt``; backward ones may loop
    until the step limit, which both interpreters must report alike.  A
    drawn share of the stores write a text word within four words of their
    own (base ``r0``: the text starts at address 0) instead of ``.data``.
    That makes random self-modifying code, which rewrites the loop it runs
    in, words of blocks already translated and words not yet run, and may
    turn them into faults.
    """
    words = [encode(Instruction(Opcode.ADDI, rd=_BASE, imm=0x4000))]
    for register in range(2, 10):
        # Signed draws, so about half the seeded values have the sign bit set.
        value = draw(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)) & _WORD
        high, low = _as_imm16(value >> 16), _as_imm16(value & 0xFFFF)
        words.append(encode(Instruction(Opcode.LUI, rd=register, imm=high)))
        words.append(encode(Instruction(Opcode.ORI, rd=register, rs1=register, imm=low)))
    body = draw(st.lists(_body_instruction, min_size=8, max_size=40))
    last_word = len(words) + len(body)
    code_quarters = draw(st.integers(min_value=0, max_value=4), label="code store quarters")
    for index, instruction in enumerate(body):
        if instruction.opcode in _BRANCHES:
            offset = min(instruction.imm, len(body) - index - 1)
            instruction = Instruction(
                instruction.opcode, rd=instruction.rd, rs1=instruction.rs1, imm=offset
            )
        elif instruction.opcode in STORE_OPCODES and draw(st.integers(0, 3)) < code_quarters:
            size = STORE_OPCODES[instruction.opcode]
            word = min(max(len(words) + draw(st.integers(min_value=-4, max_value=4)), 0), last_word)
            offset = 4 * word + size * draw(st.integers(min_value=0, max_value=4 // size - 1))
            instruction = Instruction(instruction.opcode, rd=instruction.rd, imm=offset)
        words.append(encode(instruction))
    words.append(encode(Instruction(Opcode.HALT)))
    data = draw(st.binary(min_size=_WINDOW, max_size=_WINDOW))
    return Program(name="generated", text_words=words, data_bytes=data, symbols={})


@given(program=generated_programs())
@settings(max_examples=150, deadline=None)
def test_generated_programs_match_oracle(program):
    assert_matches_oracle(program, max_steps=400, memory_size=1 << 16)


_LIMITED = load_kernel("dot_product")
_LIMITED_STEPS = CPU().run(_LIMITED).instructions_executed


@given(limit=st.integers(min_value=1, max_value=_LIMITED_STEPS))
@example(limit=_LIMITED_STEPS)
@example(limit=_LIMITED_STEPS - 1)
@example(limit=1)
@settings(max_examples=40, deadline=None)
def test_step_limit_boundary_matches_oracle(limit):
    # The limit lands anywhere in the run: at 1, mid-block on a block run
    # before, on a block's last instruction, and on the halt.
    result = assert_matches_oracle(_LIMITED, max_steps=limit)
    if limit == _LIMITED_STEPS:
        assert result.halted
    else:
        assert isinstance(result, ExecutionError)


# -- self-modifying code --------------------------------------------------------


def test_store_over_later_text_word_executes_the_new_word():
    patched = encode(Instruction(Opcode.ADDI, rd=3, imm=7))
    source = f"""
        .text
main:   la   r1, patch
        li   r2, {patched}
        sw   r2, 0(r1)
patch:  addi r3, r0, 1
        halt
"""
    result = assert_matches_oracle(assemble(source))
    assert result.registers[3] == 7


def test_one_pc_runs_its_old_word_then_its_new_word():
    # The same PC retires two different words; a decode memo keyed by PC
    # would replay the first.
    patched = encode(Instruction(Opcode.ADDI, rd=3, rs1=3, imm=100))
    source = f"""
        .text
main:   li   r4, 0
        li   r5, 2
        la   r1, patch
        li   r2, {patched}
patch:  addi r3, r3, 1
        addi r4, r4, 1
        sw   r2, 0(r1)
        bne  r4, r5, patch
        halt
"""
    result = assert_matches_oracle(assemble(source))
    assert result.registers[3] == 101


def test_subroutine_rewrites_a_loop_body_run_before():
    # The first pass runs the loop body as a block of its own; the second
    # calls the patch; the third must run the new word, not that block.
    patched = encode(Instruction(Opcode.ADDI, rd=3, rs1=3, imm=100))
    source = f"""
        .text
main:   li   r4, 0
        li   r5, 3
        li   r6, 2
loop:   addi r3, r3, 1
        addi r4, r4, 1
        bne  r4, r6, next
        jal  patch
next:   bne  r4, r5, loop
        halt
patch:  la   r1, loop
        li   r2, {patched}
        sw   r2, 0(r1)
        ret
"""
    result = assert_matches_oracle(assemble(source))
    assert result.registers[3] == 102


def test_jalr_into_the_middle_of_a_block_run_before():
    source = """
        .text
main:   li   r4, 0
        li   r5, 2
        la   r6, middle
        addi r3, r3, 1
middle: addi r3, r3, 10
        addi r4, r4, 1
        beq  r4, r5, done
        jalr r0, r6, 0
done:   halt
"""
    result = assert_matches_oracle(assemble(source))
    assert result.registers[3] == 21


@pytest.mark.parametrize(
    "memory_size, error, message",
    [
        (64, ExecutionError, "bad PC 0x40"),
        # A partial last word: its two bytes read as 0, which does not decode.
        (66, ValueError, "unknown funct 0x0 in word 0x00000000"),
    ],
)
def test_straight_line_code_runs_off_the_end_of_memory(memory_size, error, message):
    words = [encode(Instruction(Opcode.ADDI, rd=3, rs1=3, imm=1))] * 16
    program = Program(name="runoff", text_words=words, data_bytes=b"", symbols={}, data_base=64)
    raised = assert_matches_oracle(program, memory_size=memory_size)
    assert type(raised) is error
    assert str(raised) == message
    cpu = CPU(memory_size=memory_size)
    with pytest.raises(error):
        cpu.run(program)
    assert cpu.pc == 64
    assert cpu.registers[3] == 16  # every instruction before the fault retired


# -- fault parity ---------------------------------------------------------------

_UNKNOWN_OPCODE = 0x3E << 26
_UNKNOWN_FUNCT = 0x7FF


def _patch_then_fault(word):
    return f"""
        .text
main:   la   r1, fault
        li   r2, {word}
        sw   r2, 0(r1)
fault:  nop
        halt
"""


@pytest.mark.parametrize(
    "source, max_steps, error, message, fault_pc",
    [
        (".text\nli r1, 3\njalr r0, r1, 0\n", 100, ExecutionError, "bad PC 0x3", 3),
        (".text\nlui r1, 1\njalr r0, r1, 0\n", 100, ExecutionError, "bad PC 0x10000", 0x10000),
        (".text\nli r1, 1\nfault: lw r2, 0(r1)\nhalt\n", 100, ExecutionError,
         "unaligned 4-byte access at 0x1", "fault"),
        (".text\nli r1, 2\nfault: sw r1, 0(r1)\nhalt\n", 100, ExecutionError,
         "unaligned 4-byte access at 0x2", "fault"),
        (".text\nli r1, -4\nfault: sw r1, 0(r1)\nhalt\n", 100, ExecutionError,
         "memory access out of range: 0xfffffffc+4", "fault"),
        (".text\nlui r1, 1\nfault: lbu r2, 0(r1)\nhalt\n", 100, ExecutionError,
         "memory access out of range: 0x10000+1", "fault"),
        (".text\nfault: j fault\n", 50, ExecutionError,
         "program did not halt within 50 steps", "fault"),
        (_patch_then_fault(_UNKNOWN_OPCODE), 100, ValueError,
         "unknown opcode 0x3e in word 0xf8000000", "fault"),
        (_patch_then_fault(_UNKNOWN_FUNCT), 100, ValueError,
         "unknown funct 0x7ff in word 0x000007ff", "fault"),
    ],
    ids=[
        "misaligned-pc", "pc-out-of-range", "unaligned-load", "unaligned-store",
        "store-out-of-range", "load-out-of-range", "step-overrun", "unknown-opcode",
        "unknown-funct",
    ],
)
def test_faults_match_oracle(source, max_steps, error, message, fault_pc):
    program = assemble(source)
    raised = assert_matches_oracle(program, max_steps=max_steps, memory_size=1 << 16)
    assert type(raised) is error
    assert str(raised) == message
    cpu = CPU(memory_size=1 << 16)
    with pytest.raises(error):
        cpu.run(program, max_steps=max_steps)
    assert cpu.pc == (program.symbols[fault_pc] if isinstance(fault_pc, str) else fault_pc)
