"""High-throughput tracing interpreters.

Loops over the packed program form:

* :meth:`ChunkedCFTracer.batches` records only control-transfer
  instructions as :class:`~repro.trace.batch.RecordBatch` columns --
  the input to loop detection and thread speculation.  It is the only
  control-flow interpretation loop: the trace cache writer streams it
  to disk, and :func:`trace_control_flow` collects it into an
  in-memory :class:`~repro.trace.stream.CFTrace` of
  :class:`~repro.trace.record.CFRecord`.
* :meth:`ChunkedFullTracer.batches` records every instruction's
  register and memory effects as :class:`~repro.trace.batch.FullBatch`
  columns -- the input to the data-speculation study.
  :func:`trace_full` is its reference: it also records the
  register-write and memory-write values that ``FullBatch`` drops, as
  :class:`~repro.trace.record.FullRecord` tuples.

All deliberately duplicate the dispatch of :class:`repro.cpu.machine.
Machine`; the duplication is the price of a usable simulation rate in
pure Python, and equivalence is pinned by differential tests.
"""

from array import array

from repro.isa.errors import ProgramError
from repro.isa.instructions import InstrKind
from repro.isa.registers import NUM_REGISTERS, REG_SP
from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADD, C_ADDI, C_AND, C_ANDI, C_BEQ, C_BGE, C_BGT, C_BLE, C_BLT, C_BNE,
    C_CALL, C_DIV, C_DIVI, C_HALT, C_JMP, C_JR, C_LD, C_LI, C_MAX, C_MIN,
    C_MV, C_MUL, C_MULI, C_NOP, C_OR, C_ORI, C_REM, C_REMI, C_RET, C_SEQ,
    C_SLE, C_SLL, C_SLLI, C_SLT, C_SLTI, C_SNE, C_SRA, C_SRAI, C_SRL,
    C_SRLI, C_ST, C_SUB, C_SUBI, C_XOR, C_XORI,
    STACK_TOP,
    _ALU, _BRANCH, _IMM_TO_REG,
    pack_program, wrap64,
)
from repro.trace.batch import NO_TARGET, FullBatch, RecordBatch
from repro.trace.record import FullRecord
from repro.trace.stream import CFTrace, FullTrace

_K_BRANCH = int(InstrKind.BRANCH)
_K_JUMP = int(InstrKind.JUMP)
_K_IJUMP = int(InstrKind.IJUMP)
_K_CALL = int(InstrKind.CALL)
_K_RET = int(InstrKind.RET)
_K_HALT = int(InstrKind.HALT)

_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


class TraceBudgetExceeded(ProgramError):
    """Raised when a program does not halt within the instruction budget
    and ``allow_truncation`` is False."""


def trace_control_flow(program, max_instructions=5_000_000,
                       allow_truncation=True):
    """Run *program* and return its control-flow trace.

    A collector over :class:`ChunkedCFTracer`: the batches are decoded
    into one in-memory :class:`CFTrace`.  When the budget is exhausted
    before ``halt`` the trace is returned truncated (``trace.halted``
    is False) unless *allow_truncation* is False, in which case
    :class:`TraceBudgetExceeded` is raised.
    """
    tracer = ChunkedCFTracer(program, max_instructions, allow_truncation)
    records = [rec for batch in tracer.batches()
               for rec in batch.iter_records()]
    return CFTrace(records=records,
                   total_instructions=tracer.total_instructions,
                   halted=tracer.halted, program_name=program.name)


class ChunkedCFTracer:
    """Control-flow tracing with bounded-memory chunked emission.

    The one control-flow interpretation loop: :meth:`batches` hands out
    columns of at most ``chunk_size`` records, so a consumer -- the
    on-disk trace cache writer, or a
    :class:`~repro.core.detector.LoopDetector` fed batch by batch --
    never holds the whole trace.  :func:`trace_control_flow` collects
    the batches into an in-memory trace.

    ``total_instructions`` and ``halted`` are only valid once the
    generator is exhausted; reading them earlier raises
    :class:`RuntimeError`.
    """

    DEFAULT_CHUNK = 65536

    def __init__(self, program, max_instructions=5_000_000,
                 allow_truncation=True, chunk_size=DEFAULT_CHUNK):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.program = program
        self.program_name = program.name
        self.max_instructions = max_instructions
        self.allow_truncation = allow_truncation
        self.chunk_size = chunk_size
        self._finished = False
        self._total = None
        self._halted = None

    @property
    def total_instructions(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._total

    @property
    def halted(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._halted

    def batches(self):
        """Generate :class:`~repro.trace.batch.RecordBatch` columns of
        at most ``chunk_size`` records, in execution order.

        The interpretation loop appends directly to the batch columns,
        so no :class:`~repro.trace.record.CFRecord` is ever constructed
        between the machine and a batch consumer (the v3 cache writer,
        the loop detector's ``feed_batch``).
        """
        program = self.program
        chunk = self.chunk_size
        max_instructions = self.max_instructions
        packed = pack_program(program)
        regs = [0] * NUM_REGISTERS
        regs[REG_SP] = STACK_TOP
        mem = dict(program.data.initial)
        mem_get = mem.get
        c_seq = array("q")
        c_pc = array("q")
        c_kind = array("b")
        c_taken = array("b")
        c_target = array("q")
        sq_a = c_seq.append
        pc_a = c_pc.append
        kd_a = c_kind.append
        tk_a = c_taken.append
        tg_a = c_target.append
        pc = program.entry
        seq = 0
        halted = False
        alu = _ALU
        branch = _BRANCH

        while seq < max_instructions:
            if len(c_seq) >= chunk:
                yield RecordBatch(c_seq, c_pc, c_kind, c_taken, c_target)
                c_seq = array("q")
                c_pc = array("q")
                c_kind = array("b")
                c_taken = array("b")
                c_target = array("q")
                sq_a = c_seq.append
                pc_a = c_pc.append
                kd_a = c_kind.append
                tk_a = c_taken.append
                tg_a = c_target.append
            code, rd, rs1, rs2, imm, target = packed[pc]
            if code == C_ADDI:
                v = regs[rs1] + imm
                if v > _I64_MAX or v < _I64_MIN:
                    v = wrap64(v)
                if rd:
                    regs[rd] = v
                pc += 1
            elif code == C_LD:
                if rd:
                    regs[rd] = mem_get(regs[rs1] + imm, 0)
                pc += 1
            elif code == C_ST:
                mem[regs[rs1] + imm] = regs[rs2]
                pc += 1
            elif code in BRANCH_CODES:
                taken = branch[code](regs[rs1], regs[rs2])
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_BRANCH)
                tk_a(1 if taken else 0)
                tg_a(target)
                pc = target if taken else pc + 1
            elif code == C_ADD:
                v = regs[rs1] + regs[rs2]
                if v > _I64_MAX or v < _I64_MIN:
                    v = wrap64(v)
                if rd:
                    regs[rd] = v
                pc += 1
            elif code == C_LI:
                if rd:
                    regs[rd] = imm
                pc += 1
            elif code == C_MV:
                if rd:
                    regs[rd] = regs[rs1]
                pc += 1
            elif code == C_SUB:
                v = regs[rs1] - regs[rs2]
                if v > _I64_MAX or v < _I64_MIN:
                    v = wrap64(v)
                if rd:
                    regs[rd] = v
                pc += 1
            elif code == C_MUL:
                v = regs[rs1] * regs[rs2]
                if v > _I64_MAX or v < _I64_MIN:
                    v = wrap64(v)
                if rd:
                    regs[rd] = v
                pc += 1
            elif code == C_MULI:
                v = regs[rs1] * imm
                if v > _I64_MAX or v < _I64_MIN:
                    v = wrap64(v)
                if rd:
                    regs[rd] = v
                pc += 1
            elif code == C_JMP:
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_JUMP)
                tk_a(1)
                tg_a(target)
                pc = target
            elif code == C_CALL:
                regs[1] = pc + 1
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_CALL)
                tk_a(1)
                tg_a(target)
                pc = target
            elif code == C_RET:
                nxt = regs[1]
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_RET)
                tk_a(1)
                tg_a(nxt)
                pc = nxt
            elif code == C_JR:
                nxt = regs[rs1]
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_IJUMP)
                tk_a(1)
                tg_a(nxt)
                pc = nxt
            elif code == C_HALT:
                sq_a(seq)
                pc_a(pc)
                kd_a(_K_HALT)
                tk_a(0)
                tg_a(NO_TARGET)
                seq += 1
                halted = True
                break
            elif code == C_NOP:
                pc += 1
            else:
                # Remaining ALU forms (immediate and register) via the
                # tables.
                if code in _IMM_TO_REG:
                    v = alu[_IMM_TO_REG[code]](regs[rs1], imm)
                else:
                    v = alu[code](regs[rs1], regs[rs2])
                if rd:
                    regs[rd] = v
                pc += 1
            seq += 1

        if not halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, max_instructions))
        if len(c_seq):
            yield RecordBatch(c_seq, c_pc, c_kind, c_taken, c_target)
        self._total = seq
        self._halted = halted
        self._finished = True


def trace_full(program, max_instructions=1_000_000, allow_truncation=True):
    """Run *program* recording every instruction's architectural effects."""
    packed = pack_program(program)
    regs = [0] * NUM_REGISTERS
    regs[REG_SP] = STACK_TOP
    mem = dict(program.data.initial)
    mem_get = mem.get
    records = []
    append = records.append
    pc = program.entry
    seq = 0
    halted = False
    alu = _ALU
    branch = _BRANCH
    empty = ()
    k_other = int(InstrKind.OTHER)

    while seq < max_instructions:
        code, rd, rs1, rs2, imm, target = packed[pc]
        if code <= C_MAX:  # three-register ALU block
            a = regs[rs1]
            b = regs[rs2]
            v = alu[code](a, b)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a), (rs2, b)), ((rd, v),), empty,
                              empty))
            pc += 1
        elif code <= C_SLTI:  # immediate ALU block
            a = regs[rs1]
            v = alu[_IMM_TO_REG[code]](a, imm)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a),), ((rd, v),), empty, empty))
            pc += 1
        elif code == C_LI:
            if rd:
                regs[rd] = imm
            append(FullRecord(seq, pc, k_other, False, None,
                              empty, ((rd, imm),), empty, empty))
            pc += 1
        elif code == C_MV:
            a = regs[rs1]
            if rd:
                regs[rd] = a
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a),), ((rd, a),), empty, empty))
            pc += 1
        elif code == C_LD:
            base = regs[rs1]
            addr = base + imm
            v = mem_get(addr, 0)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, base),), ((rd, v),), ((addr, v),),
                              empty))
            pc += 1
        elif code == C_ST:
            base = regs[rs1]
            addr = base + imm
            v = regs[rs2]
            mem[addr] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, base), (rs2, v)), empty, empty,
                              ((addr, v),)))
            pc += 1
        elif code in BRANCH_CODES:
            a = regs[rs1]
            b = regs[rs2]
            taken = branch[code](a, b)
            append(FullRecord(seq, pc, _K_BRANCH, taken, target,
                              ((rs1, a), (rs2, b)), empty, empty, empty))
            pc = target if taken else pc + 1
        elif code == C_JMP:
            append(FullRecord(seq, pc, _K_JUMP, True, target,
                              empty, empty, empty, empty))
            pc = target
        elif code == C_CALL:
            regs[1] = pc + 1
            append(FullRecord(seq, pc, _K_CALL, True, target,
                              empty, ((1, pc + 1),), empty, empty))
            pc = target
        elif code == C_RET:
            nxt = regs[1]
            append(FullRecord(seq, pc, _K_RET, True, nxt,
                              ((1, nxt),), empty, empty, empty))
            pc = nxt
        elif code == C_JR:
            nxt = regs[rs1]
            append(FullRecord(seq, pc, _K_IJUMP, True, nxt,
                              ((rs1, nxt),), empty, empty, empty))
            pc = nxt
        elif code == C_HALT:
            append(FullRecord(seq, pc, _K_HALT, False, None,
                              empty, empty, empty, empty))
            seq += 1
            halted = True
            break
        else:  # NOP
            append(FullRecord(seq, pc, k_other, False, None,
                              empty, empty, empty, empty))
            pc += 1
        seq += 1

    if not halted and not allow_truncation:
        raise TraceBudgetExceeded(
            "program %r did not halt within %d instructions"
            % (program.name, max_instructions))
    return FullTrace(records=records, total_instructions=seq, halted=halted,
                     program_name=program.name)


class ChunkedFullTracer:
    """Full-effects tracing with bounded-memory columnar emission.

    The dispatch of :func:`trace_full`, emitting
    :class:`~repro.trace.batch.FullBatch` columns instead of
    :class:`~repro.trace.record.FullRecord` tuples: per instruction the
    loop appends to the fixed effect slots (two register reads, one
    register write, one memory access -- see :class:`FullBatch`), so
    the data-speculation study streams a workload's architectural
    effects without materializing millions of nested tuples.
    Equivalence with :func:`trace_full` is pinned by tests.

    Reads of (and writes to) register 0 are not emitted -- the zero
    register is never a live-in and its writes are discarded.

    ``total_instructions`` and ``halted`` are only valid once
    :meth:`batches` is exhausted, as for :class:`ChunkedCFTracer`.
    """

    DEFAULT_CHUNK = 32768

    def __init__(self, program, max_instructions=1_000_000,
                 allow_truncation=True, chunk_size=DEFAULT_CHUNK):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.program = program
        self.program_name = program.name
        self.max_instructions = max_instructions
        self.allow_truncation = allow_truncation
        self.chunk_size = chunk_size
        self._finished = False
        self._total = None
        self._halted = None

    @property
    def total_instructions(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._total

    @property
    def halted(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._halted

    def batches(self):
        """Generate :class:`FullBatch` columns of at most ``chunk_size``
        instructions, in execution order."""
        program = self.program
        chunk = self.chunk_size
        max_instructions = self.max_instructions
        packed = pack_program(program)
        regs = [0] * NUM_REGISTERS
        regs[REG_SP] = STACK_TOP
        mem = dict(program.data.initial)
        mem_get = mem.get
        pc = program.entry
        seq = 0
        start_seq = 0
        halted = False
        alu = _ALU
        branch = _BRANCH
        k_other = int(InstrKind.OTHER)

        def fresh():
            return ([], [], [], [], [], [], [], [], [], [], [], [])

        (pcs, kinds, takens, targets, rr1, rv1, rr2, rv2, wr, mra, mrv,
         mwa) = fresh()

        while seq < max_instructions:
            if len(pcs) >= chunk:
                yield FullBatch(start_seq, pcs, kinds, takens, targets,
                                rr1, rv1, rr2, rv2, wr, mra, mrv, mwa)
                start_seq = seq
                (pcs, kinds, takens, targets, rr1, rv1, rr2, rv2, wr,
                 mra, mrv, mwa) = fresh()
            code, rd, rs1, rs2, imm, target = packed[pc]
            if code <= C_MAX:  # three-register ALU block
                a = regs[rs1]
                b = regs[rs2]
                v = alu[code](a, b)
                if rd:
                    regs[rd] = v
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(a)
                rr2.append(rs2 if rs2 else -1)
                rv2.append(b)
                wr.append(rd if rd else -1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            elif code <= C_SLTI:  # immediate ALU block
                a = regs[rs1]
                v = alu[_IMM_TO_REG[code]](a, imm)
                if rd:
                    regs[rd] = v
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(a)
                rr2.append(-1)
                rv2.append(0)
                wr.append(rd if rd else -1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            elif code == C_LI:
                if rd:
                    regs[rd] = imm
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(-1)
                rv1.append(0)
                rr2.append(-1)
                rv2.append(0)
                wr.append(rd if rd else -1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            elif code == C_MV:
                a = regs[rs1]
                if rd:
                    regs[rd] = a
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(a)
                rr2.append(-1)
                rv2.append(0)
                wr.append(rd if rd else -1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            elif code == C_LD:
                base = regs[rs1]
                addr = base + imm
                v = mem_get(addr, 0)
                if rd:
                    regs[rd] = v
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(base)
                rr2.append(-1)
                rv2.append(0)
                wr.append(rd if rd else -1)
                mra.append(addr)
                mrv.append(v)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            elif code == C_ST:
                base = regs[rs1]
                addr = base + imm
                v = regs[rs2]
                mem[addr] = v
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(base)
                rr2.append(rs2 if rs2 else -1)
                rv2.append(v)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(addr)
                pcs.append(pc)
                pc += 1
            elif code in BRANCH_CODES:
                a = regs[rs1]
                b = regs[rs2]
                taken = branch[code](a, b)
                kinds.append(_K_BRANCH)
                takens.append(1 if taken else 0)
                targets.append(target)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(a)
                rr2.append(rs2 if rs2 else -1)
                rv2.append(b)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc = target if taken else pc + 1
            elif code == C_JMP:
                kinds.append(_K_JUMP)
                takens.append(1)
                targets.append(target)
                rr1.append(-1)
                rv1.append(0)
                rr2.append(-1)
                rv2.append(0)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc = target
            elif code == C_CALL:
                regs[1] = pc + 1
                kinds.append(_K_CALL)
                takens.append(1)
                targets.append(target)
                rr1.append(-1)
                rv1.append(0)
                rr2.append(-1)
                rv2.append(0)
                wr.append(1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc = target
            elif code == C_RET:
                nxt = regs[1]
                kinds.append(_K_RET)
                takens.append(1)
                targets.append(nxt)
                rr1.append(1)
                rv1.append(nxt)
                rr2.append(-1)
                rv2.append(0)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc = nxt
            elif code == C_JR:
                nxt = regs[rs1]
                kinds.append(_K_IJUMP)
                takens.append(1)
                targets.append(nxt)
                rr1.append(rs1 if rs1 else -1)
                rv1.append(nxt)
                rr2.append(-1)
                rv2.append(0)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc = nxt
            elif code == C_HALT:
                kinds.append(_K_HALT)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(-1)
                rv1.append(0)
                rr2.append(-1)
                rv2.append(0)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                seq += 1
                halted = True
                break
            else:  # NOP
                kinds.append(k_other)
                takens.append(0)
                targets.append(NO_TARGET)
                rr1.append(-1)
                rv1.append(0)
                rr2.append(-1)
                rv2.append(0)
                wr.append(-1)
                mra.append(None)
                mrv.append(None)
                mwa.append(None)
                pcs.append(pc)
                pc += 1
            seq += 1

        if not halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, max_instructions))
        if pcs:
            yield FullBatch(start_seq, pcs, kinds, takens, targets,
                            rr1, rv1, rr2, rv2, wr, mra, mrv, mwa)
        self._total = seq
        self._halted = halted
        self._finished = True
