"""Tests for the fast tracing interpreters, including differential tests
against the readable reference machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import ChunkedCFTracer, Machine, trace_control_flow, \
    trace_full
from repro.cpu.tracer import TraceBudgetExceeded
from repro.isa import InstrKind, Instruction, Opcode, Program, assemble
from repro.search.corpus import frontier_names
from repro.trace import CFRecord
from repro.workloads import SUITE_ORDER, get as get_workload

LOOP_SRC = """
.data table 8 = 3 1 4 1 5 9 2 6
main:
    li t0, 0
    li t1, 0
loop:
    ld t2, 65536(t0)
    add t1, t1, t2
    addi t0, t0, 1
    li t3, 8
    blt t0, t3, loop
    halt
"""


def machine_cf_records(program, budget=100000):
    """Step the reference machine, reconstructing CF records; returns
    ``(records, instructions, halted)``."""
    machine = Machine(program)
    records = []
    seq = 0
    while not machine.halted and seq < budget:
        pc_before = machine.pc
        instr = machine.step()
        if instr.is_control:
            if instr.kind is InstrKind.BRANCH:
                taken = machine.pc != pc_before + 1
                records.append(CFRecord(seq, pc_before,
                                        int(instr.kind), taken,
                                        instr.target))
            elif instr.kind is InstrKind.HALT:
                records.append(CFRecord(seq, pc_before, int(instr.kind),
                                        False, None))
            else:
                records.append(CFRecord(seq, pc_before, int(instr.kind),
                                        True, machine.pc))
        seq += 1
    return records, seq, machine.halted


class TestControlFlowTrace:
    def test_matches_reference_machine(self):
        program = assemble(LOOP_SRC)
        expected, count, _ = machine_cf_records(program)
        trace = trace_control_flow(program)
        assert trace.records == expected
        assert trace.total_instructions == count
        assert trace.halted

    def test_trace_validates(self):
        trace = trace_control_flow(assemble(LOOP_SRC))
        assert trace.validate()

    def test_truncation_flag(self):
        program = assemble("main:\n  jmp main\n  halt\n")
        trace = trace_control_flow(program, max_instructions=50)
        assert not trace.halted
        assert trace.total_instructions == 50

    def test_truncation_can_raise(self):
        program = assemble("main:\n  jmp main\n  halt\n")
        with pytest.raises(TraceBudgetExceeded):
            trace_control_flow(program, max_instructions=50,
                               allow_truncation=False)

    def test_backward_records_iterator(self):
        trace = trace_control_flow(assemble(LOOP_SRC))
        backwards = list(trace.backward_records())
        # 8 executions of the closing branch (7 taken + 1 not taken).
        assert len(backwards) == 8
        assert sum(1 for r in backwards if r.taken) == 7


class TestFullTrace:
    def test_every_instruction_recorded(self):
        program = assemble(LOOP_SRC)
        cf = trace_control_flow(program)
        full = trace_full(program)
        assert len(full.records) == full.total_instructions \
            == cf.total_instructions

    def test_projection_matches_cf_trace(self):
        program = assemble(LOOP_SRC)
        assert trace_full(program).control_flow().records \
            == trace_control_flow(program).records

    def test_final_register_state_matches_machine(self):
        program = assemble(LOOP_SRC)
        machine = Machine(program)
        machine.run()
        final = {}
        for rec in trace_full(program):
            for reg, value in rec.reg_writes:
                if reg:
                    final[reg] = value
        for reg, value in final.items():
            assert machine.regs[reg] == value

    def test_memory_writes_recorded(self):
        program = assemble(
            "main:\n  li t0, 500\n  li t1, 9\n  st t1, 2(t0)\n  halt\n")
        writes = [w for rec in trace_full(program) for w in rec.mem_writes]
        assert writes == [(502, 9)]


_SAFE_ALU = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
             Opcode.XOR, Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
             Opcode.MIN, Opcode.MAX, Opcode.DIV, Opcode.REM]
_SAFE_IMM = [Opcode.ADDI, Opcode.SUBI, Opcode.MULI, Opcode.ANDI, Opcode.ORI,
             Opcode.XORI, Opcode.SLTI, Opcode.DIVI, Opcode.REMI]

_reg = st.integers(min_value=10, max_value=19)
_imm = st.integers(min_value=-1000, max_value=1000)

_alu_instr = st.one_of(
    st.builds(lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1,
                                                   rs2=rs2),
              st.sampled_from(_SAFE_ALU), _reg, _reg, _reg),
    st.builds(lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1,
                                                   imm=imm),
              st.sampled_from(_SAFE_IMM), _reg, _reg, _imm),
)


@st.composite
def looped_programs(draw):
    """A random straight-line ALU body inside a counted loop."""
    body = draw(st.lists(_alu_instr, min_size=1, max_size=20))
    iterations = draw(st.integers(min_value=1, max_value=5))
    program = Program(name="random")
    program.label("main")
    program.emit(Instruction(Opcode.LI, rd=20, imm=0))
    program.label("loop")
    for instr in body:
        program.emit(instr)
    program.emit(Instruction(Opcode.ADDI, rd=20, rs1=20, imm=1))
    program.emit(Instruction(Opcode.LI, rd=21, imm=iterations))
    program.emit(Instruction(Opcode.BLT, rs1=20, rs2=21, label="loop"))
    program.emit(Instruction(Opcode.HALT))
    return program


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(looped_programs())
    def test_tracer_agrees_with_reference_machine(self, program):
        machine = Machine(program)
        machine.run(max_instructions=100000)
        trace = trace_full(program, max_instructions=100000)
        assert trace.total_instructions == machine.instruction_count
        final = {}
        for rec in trace:
            for reg, value in rec.reg_writes:
                if reg:
                    final[reg] = value
        for reg, value in final.items():
            assert machine.regs[reg] == value

    @settings(max_examples=60, deadline=None)
    @given(looped_programs())
    def test_cf_and_full_traces_consistent(self, program):
        cf = trace_control_flow(program, max_instructions=100000)
        full = trace_full(program, max_instructions=100000)
        assert full.control_flow().records == cf.records
        cf.validate()


def _pin_batches_to_machine(program, budget, chunk_size):
    """``ChunkedCFTracer.batches()`` -- the one control-flow
    interpretation loop -- must reproduce the reference machine's
    control-flow records, instruction count and halt flag exactly."""
    expected, count, halted = machine_cf_records(program, budget)
    tracer = ChunkedCFTracer(program, budget, chunk_size=chunk_size)
    records = []
    for batch in tracer.batches():
        assert 0 < len(batch) <= chunk_size
        records.extend(batch.iter_records())
    assert records == expected
    assert tracer.total_instructions == count
    assert tracer.halted == halted
    assert tracer.program_name == program.name


class TestBatchesAgainstMachine:
    """Pins the chunked tracer's batch emission directly against the
    reference machine, not through any collector built on it."""

    @settings(max_examples=60, deadline=None)
    @given(looped_programs(), st.integers(min_value=1, max_value=16))
    def test_random_programs(self, program, chunk_size):
        _pin_batches_to_machine(program, 100000, chunk_size)

    def test_truncated_program(self):
        program = assemble("main:\n  jmp main\n  halt\n")
        _pin_batches_to_machine(program, 50, 8)

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_suite_analog(self, name):
        workload = get_workload(name)
        _pin_batches_to_machine(workload.program(),
                                workload.default_max_instructions, 4096)

    @pytest.mark.parametrize("name", frontier_names())
    def test_frontier_case(self, name):
        workload = get_workload(name)
        _pin_batches_to_machine(workload.program(),
                                workload.default_max_instructions, 512)


def _chunk_fixture():
    """A program with calls, nested loops and irregular branches."""
    from repro.workloads import get
    return get("go").program()


class TestChunkedTracer:
    """Lifecycle of the chunked/streaming tracer's batch generator."""

    def test_metadata_unavailable_before_exhaustion(self):
        from repro.cpu import ChunkedCFTracer
        tracer = ChunkedCFTracer(_chunk_fixture(), 1_000)
        with pytest.raises(RuntimeError):
            tracer.total_instructions
        gen = tracer.batches()
        next(gen)
        with pytest.raises(RuntimeError):
            tracer.halted

    def test_truncation_can_raise(self):
        from repro.cpu import ChunkedCFTracer
        from repro.cpu.tracer import TraceBudgetExceeded
        tracer = ChunkedCFTracer(_chunk_fixture(), 10,
                                 allow_truncation=False)
        with pytest.raises(TraceBudgetExceeded):
            list(tracer.batches())

    def test_bad_chunk_size_rejected(self):
        from repro.cpu import ChunkedCFTracer
        with pytest.raises(ValueError):
            ChunkedCFTracer(_chunk_fixture(), 1_000, chunk_size=0)
