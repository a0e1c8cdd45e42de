"""Differential tests for the basic-block compiler behind both
tracers: after every compiled block -- with the data-speculation tail
or the control-flow tail -- the register file and memory must equal
the reference :class:`~repro.cpu.machine.Machine` stepping the same
instructions."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataspec import DataSpeculationAnalyzer
from repro.cpu import Machine, STACK_TOP, pack_program, trace_full
from repro.cpu.blocks import BlockCompiler
from repro.cpu.machine import C_LI
from repro.cpu.tracer import ChunkedFullTracer
from repro.isa import InstrKind, Instruction, Opcode, Program, assemble
from repro.isa.registers import NUM_REGISTERS, REG_SP

HALT = int(InstrKind.HALT)
BRANCH = int(InstrKind.BRANCH)


def run_blocks_against_machine(program, budget=20_000):
    """Run *program* block by block (cutting the last block at
    *budget*), checking state and the emitted transfer after each."""
    packed = pack_program(program)
    regs = [0] * NUM_REGISTERS
    regs[REG_SP] = STACK_TOP
    mem = dict(program.data.initial)
    emitted = []
    compiler = BlockCompiler(packed, regs, mem, emitted.append)
    machine = Machine(program)
    pc = program.entry
    seq = 0
    while seq < budget:
        block, length, kind = compiler.compile(pc)
        if seq + length > budget:
            block, length, kind = compiler.compile(pc, budget - seq)
            assert kind == 0
        before = len(emitted)
        pc = block(seq)
        assert len(emitted) == before + 1
        last_pc = machine.pc
        for _ in range(length):
            last_pc = machine.pc
            machine.step()
        seq += length
        assert regs == machine.regs
        assert mem == machine.memory.cells
        assert emitted[-1][:3] == (seq - 1, last_pc, kind)
        if kind == HALT:
            assert machine.halted
            break
        assert pc == machine.pc


def run_flow_blocks_against_machine(program, budget=20_000):
    """Run *program* block by block through the control-flow tail
    (cutting the last block at *budget*), checking state, the next pc
    and the appended record after each."""
    packed = pack_program(program)
    regs = [0] * NUM_REGISTERS
    regs[REG_SP] = STACK_TOP
    mem = dict(program.data.initial)
    columns = tuple(array(code) for code in "qqbbq")
    compiler = BlockCompiler(packed, regs, mem,
                             columns=[col.append for col in columns])
    machine = Machine(program)
    pc = program.entry
    seq = 0
    while seq < budget:
        block, length, kind = compiler.compile(pc)
        if seq + length > budget:
            block, length, kind = compiler.compile(pc, budget - seq)
            assert kind == 0
        before = len(columns[0])
        pc = block(seq)
        for _ in range(length):
            last_pc = machine.pc
            instr = machine.step()
        seq += length
        assert regs == machine.regs
        assert mem == machine.memory.cells
        if kind == 0:
            assert all(len(col) == before for col in columns)
            assert pc == machine.pc
            continue
        assert all(len(col) == before + 1 for col in columns)
        assert kind == int(instr.kind)
        if kind == HALT:
            expected = (HALT, 0, -1)
        elif kind == BRANCH:
            expected = (BRANCH, int(machine.pc != last_pc + 1),
                        instr.target)
        else:
            expected = (kind, 1, machine.pc)
        assert tuple(col[-1] for col in columns) \
            == (seq - 1, last_pc) + expected
        if kind == HALT:
            assert machine.halted
            assert pc == -1
            break
        assert pc == machine.pc


# ---------------------------------------------------------------------------
# Hand-written corner cases.
# ---------------------------------------------------------------------------

CORNER_CASES = {
    "add-sub-wrap": """
        li t0, 9223372036854775807
        addi t1, t0, 1
        add t2, t0, t0
        li t3, -9223372036854775808
        subi t4, t3, 1
        sub t5, t3, t0
        sub t6, t0, t3
        halt
    """,
    "mul-sll-wrap": """
        li t0, 3037000500
        mul t1, t0, t0
        muli t2, t0, -3037000500
        li t3, 1
        slli t4, t3, 63
        slli t5, t3, 64
        li t6, 5
        sll t7, t0, t6
        li t8, -9223372036854775808
        muli t9, t8, -1
        halt
    """,
    "div-rem": """
        li t0, -7
        li t1, 2
        li t2, 0
        div t3, t0, t1
        rem t4, t0, t1
        div t5, t0, t2
        rem t6, t0, t2
        divi t7, t0, -2
        remi t8, t0, -2
        li t9, -9223372036854775808
        divi s0, t9, -1
        remi s1, t9, -1
        div s2, t1, t0
        rem s3, t1, t0
        li s4, -3
        div s5, t0, s4
        rem s6, t0, s4
        div s7, t9, t3
        halt
    """,
    "shifts-64-and-up": """
        li t0, -12345
        li t1, 64
        li t2, 65
        li t3, -1
        sll t4, t0, t1
        srl t5, t0, t2
        sra t6, t0, t3
        srli t7, t0, 64
        srai t8, t0, 127
        slli t9, t0, 200
        srl s0, t0, t3
        halt
    """,
    "writes-to-r0": """
        .data buf 2 = 11 22
        li zero, 5
        addi zero, zero, 7
        li t0, 65536
        ld zero, 0(t0)
        mv zero, t0
        add t1, zero, zero
        st zero, 1(t0)
        ld t2, 1(t0)
        beq zero, t2, done
        li t3, 99
    done:
        halt
    """,
    "jr-ret-dynamic": """
        li t0, 0
    loop:
        call sub
        li t1, 5
        jr t1
        nop
        nop
        addi t0, t0, 1
        li t2, 3
        blt t0, t2, loop
        halt
    sub:
        addi t3, t3, 1
        mv s0, ra
        ret
    """,
    "store-then-load": """
        .data buf 4 = 1 2 3 4
        li t0, 65536
        li t1, 2
        li t2, 0
    loop:
        st t2, 1(t0)
        ld t3, 1(t0)
        mv t5, t0
        ld t6, 1(t5)
        ld t2, 0(t0)
        addi t0, t0, 1
        ld t4, 0(t0)
        subi t1, t1, 1
        bgt t1, zero, loop
        halt
    """,
    "loads-never-stored": """
        li t0, 70000
        ld t1, 0(t0)
        ld t2, -5(t0)
        ld zero, 3(t0)
        add t3, t1, t2
        st t3, 1(t0)
        ld t4, 1(t0)
        ld t5, 2(t0)
        halt
    """,
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_case_matches_machine(name):
    program = assemble(CORNER_CASES[name], name)
    run_blocks_against_machine(program)


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_case_cut_at_every_budget(name):
    program = assemble(CORNER_CASES[name], name)
    total = trace_full(program).total_instructions
    for budget in range(1, total + 1):
        run_blocks_against_machine(program, budget)


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_flow_corner_case_matches_machine(name):
    program = assemble(CORNER_CASES[name], name)
    run_flow_blocks_against_machine(program)


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_flow_corner_case_cut_at_every_budget(name):
    program = assemble(CORNER_CASES[name], name)
    total = trace_full(program).total_instructions
    for budget in range(1, total + 1):
        run_flow_blocks_against_machine(program, budget)


def test_flow_halt_block_returns_minus_one():
    program = assemble("main:\n  li t0, 4\n  halt\n")
    columns = tuple(array(code) for code in "qqbbq")
    compiler = BlockCompiler(pack_program(program), [0] * NUM_REGISTERS,
                             {}, columns=[col.append for col in columns])
    block, length, kind = compiler.compile(0)
    assert (length, kind) == (2, HALT)
    assert block(10) == -1
    assert [col.tolist() for col in columns] \
        == [[11], [1], [HALT], [0], [-1]]


def test_load_candidates_skip_addresses_stored_in_the_block():
    program = assemble(CORNER_CASES["store-then-load"])
    emitted = [block for chunk in ChunkedFullTracer(program).batches()
               for block in chunk]
    # The loop block (pcs 3-11) opens with ``st t2, 1(t0)``.  Of its
    # four loads only ``ld t2, 0(t0)`` (pc 7) reads an address the block
    # has not stored to: pcs 4, 6 and 9 read the stored slot through
    # the same, a copied and an incremented base; the check must count
    # the block's first instruction as inside the block.
    loop = emitted[1]
    assert loop[1] == 11
    assert [load[0] for load in loop[6]] == [7]


@pytest.mark.parametrize("tail", ["emit", "columns"])
def test_non_integer_operands_are_never_interpolated(tail):
    sinks = {"emit": [].append, "columns": [[].append] * 5}
    for bad in ("1\nimport os", 1.5, True, None):
        packed = [(C_LI, 10, 0, 0, bad, None)]
        compiler = BlockCompiler(packed, [0] * NUM_REGISTERS, {},
                                 **{tail: sinks[tail]})
        with pytest.raises(TypeError):
            compiler.compile(0, 1)


# ---------------------------------------------------------------------------
# Random programs.
# ---------------------------------------------------------------------------

_ALU_OPS = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
            Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL,
            Opcode.SRA, Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
            Opcode.MIN, Opcode.MAX]
_IMM_OPS = [Opcode.ADDI, Opcode.SUBI, Opcode.MULI, Opcode.DIVI,
            Opcode.REMI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
            Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.SLTI]

_EXTREMES = [0, 1, -1, 2, -7, 63, 64, 65, 127, 200, 3037000500,
             (1 << 62), (1 << 63) - 1, -(1 << 63), -(1 << 63) + 1]
_value = st.one_of(st.sampled_from(_EXTREMES),
                   st.integers(min_value=-(1 << 63),
                               max_value=(1 << 63) - 1))
_BASE = 14                          # holds the data buffer's address
_dst = st.sampled_from([0, 10, 11, 12, 13])
_src = st.sampled_from([0, 1, 10, 11, 12, 13, _BASE])
_offset = st.integers(min_value=0, max_value=3)

_instr = st.one_of(
    st.builds(lambda op, rd, a, b: Instruction(op, rd=rd, rs1=a, rs2=b),
              st.sampled_from(_ALU_OPS), _dst, _src, _src),
    st.builds(lambda op, rd, a, imm: Instruction(op, rd=rd, rs1=a,
                                                 imm=imm),
              st.sampled_from(_IMM_OPS), _dst, _src, _value),
    st.builds(lambda rd, imm: Instruction(Opcode.LI, rd=rd, imm=imm),
              _dst, _value),
    st.builds(lambda rd, a: Instruction(Opcode.MV, rd=rd, rs1=a),
              _dst, _src),
    st.builds(lambda rd, base, off: Instruction(Opcode.LD, rd=rd,
                                                rs1=base, imm=off),
              _dst, st.sampled_from([_BASE, _BASE, 10, 0]), _offset),
    st.builds(lambda v, base, off: Instruction(Opcode.ST, rs2=v,
                                               rs1=base, imm=off),
              _src, st.sampled_from([_BASE, _BASE, 10]), _offset),
    st.just(Instruction(Opcode.NOP)),
)
_body = st.lists(_instr, max_size=12)


@st.composite
def memory_programs(draw):
    """A counted loop of random ALU/memory bodies around a call (so
    ``ret`` goes to a dynamic target) and a computed ``jr``."""
    program = Program(name="blocks")
    buf = program.data.allocate("buf", 4, draw(st.lists(
        _value, min_size=4, max_size=4)))
    program.label("main")
    program.emit(Instruction(Opcode.LI, rd=_BASE, imm=buf))
    program.emit(Instruction(Opcode.LI, rd=20, imm=0))
    for reg in (10, 11, 12, 13):
        program.emit(Instruction(Opcode.LI, rd=reg, imm=draw(_value)))
    program.label("loop")
    for instr in draw(_body):
        program.emit(instr)
    program.emit(Instruction(Opcode.CALL, label="sub"))
    for instr in draw(_body):
        program.emit(instr)
    after = len(program) + 2
    program.emit(Instruction(Opcode.LI, rd=22, imm=after))
    program.emit(Instruction(Opcode.JR, rs1=22))
    for instr in draw(_body):
        program.emit(instr)
    program.emit(Instruction(Opcode.CALL, label="sub"))
    program.emit(Instruction(Opcode.ADDI, rd=20, rs1=20, imm=1))
    program.emit(Instruction(Opcode.LI, rd=21,
                             imm=draw(st.integers(1, 4))))
    program.emit(Instruction(Opcode.BLT, rs1=20, rs2=21, label="loop"))
    program.emit(Instruction(Opcode.HALT))
    program.label("sub")
    for instr in draw(_body):
        program.emit(instr)
    program.emit(Instruction(Opcode.RET))
    program.finalize()
    return program


@settings(max_examples=80, deadline=None)
@given(memory_programs(), st.integers(min_value=1, max_value=300))
def test_random_blocks_match_machine(program, budget):
    run_blocks_against_machine(program, budget)


@settings(max_examples=80, deadline=None)
@given(memory_programs(), st.integers(min_value=1, max_value=300))
def test_random_flow_blocks_match_machine(program, budget):
    run_flow_blocks_against_machine(program, budget)


@settings(max_examples=40, deadline=None)
@given(memory_programs(), st.integers(min_value=1, max_value=300),
       st.sampled_from([2, 16]), st.sampled_from([1, 5]))
def test_random_dataspec_matches_reference(program, budget, cls_capacity,
                                           chunk_size):
    analyzer = DataSpeculationAnalyzer(cls_capacity=cls_capacity)
    ref = analyzer.analyze(trace_full(program, budget), "w")
    tracer = ChunkedFullTracer(program, budget, chunk_size=chunk_size)
    got = analyzer.analyze_batches(tracer.batches(), "w")
    assert got.state() == ref.state()
