"""High-throughput tracing interpreters.

Loops over the packed program form:

* :meth:`ChunkedCFTracer.batches` records only control-transfer
  instructions as :class:`~repro.trace.batch.RecordBatch` columns --
  the input to loop detection and thread speculation.  It is the only
  control-flow interpretation loop: the trace cache writer streams it
  to disk, and :func:`trace_control_flow` collects it into an
  in-memory :class:`~repro.trace.stream.CFTrace` of
  :class:`~repro.trace.record.CFRecord`.  It runs one basic block at a
  time in two tiers: cold blocks are interpreted instruction by
  instruction, hot ones run as functions compiled by
  :mod:`repro.cpu.blocks`.
* :meth:`ChunkedFullTracer.batches` runs compiled basic blocks (see
  :mod:`repro.cpu.blocks`) and emits, per block, its closing transfer
  and live-in candidates -- the input to the data-speculation study.
  :func:`trace_full` is its reference: it records every instruction's
  register and memory effects as :class:`~repro.trace.record.FullRecord`
  tuples.

All deliberately duplicate the semantics of :class:`repro.cpu.machine.
Machine`; the duplication is the price of a usable simulation rate in
pure Python, and equivalence is pinned by differential tests.
"""

from array import array

from repro.isa.errors import ProgramError
from repro.isa.instructions import InstrKind
from repro.isa.registers import NUM_REGISTERS, REG_SP
from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADD, C_ADDI, C_CALL, C_HALT, C_JMP, C_JR, C_LD, C_LI, C_MAX, C_MUL,
    C_MULI, C_MV, C_NOP, C_RET, C_SLTI, C_ST, C_SUB,
    STACK_TOP,
    _ALU, _BRANCH, _IMM_TO_REG,
    pack_program, wrap64,
)
from repro.cpu.blocks import BlockCompiler
from repro.trace.batch import NO_TARGET, RecordBatch
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

    Blocks are tiered by hotness: a basic block is interpreted until
    its entry pc has been entered :attr:`HOT_ENTRIES` times, then
    compiled into one function (the control-flow tail of
    :class:`~repro.cpu.blocks.BlockCompiler`).  Compiling costs about
    as much as interpreting a block a few dozen times, so only blocks
    that run often enough to repay it are compiled; the records, and
    the batch boundaries, are the same in either tier.

    ``total_instructions`` and ``halted`` are only valid once the
    generator is exhausted; reading them earlier raises
    :class:`RuntimeError`.
    """

    DEFAULT_CHUNK = 65536

    #: A block is compiled on this entry of its entry pc; earlier entries
    #: are interpreted.  Chosen by a threshold sweep (docs/PERFORMANCE.md).
    HOT_ENTRIES = 64

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

        Runs one basic block at a time in one of two tiers.  A block
        whose entry pc has been entered fewer than :attr:`HOT_ENTRIES`
        times is interpreted instruction by instruction up to its
        closing transfer; on its :attr:`HOT_ENTRIES`-th entry it is
        compiled by a :class:`~repro.cpu.blocks.BlockCompiler` and from
        then on runs as one function.  A compiled block that would
        cross the instruction budget is interpreted instead, so the
        budget cuts at the same instruction either way.  Compiled
        blocks and entry counts live for this call only.

        Both tiers append to the same five columns, so no
        :class:`~repro.trace.record.CFRecord` is ever constructed
        between the machine and a batch consumer (the v3 cache writer,
        the loop detector's ``feed_batch``); each yielded batch holds
        copies of the columns.
        """
        program = self.program
        chunk = self.chunk_size
        budget = self.max_instructions
        hot = self.HOT_ENTRIES
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
        compile_block = BlockCompiler(
            packed, regs, mem,
            columns=(sq_a, pc_a, kd_a, tk_a, tg_a)).compile
        compiled = {}                 # entry pc -> (block, length, kind)
        lookup = compiled.get
        entries = {}                  # entry pc -> entries while cold
        entries_get = entries.get
        pc = program.entry
        seq = 0
        halted = False
        alu = _ALU
        branch = _BRANCH

        while seq < budget:
            if len(c_seq) >= chunk:
                yield RecordBatch(c_seq[:], c_pc[:], c_kind[:],
                                  c_taken[:], c_target[:])
                del c_seq[:], c_pc[:], c_kind[:], c_taken[:], c_target[:]
            entry = lookup(pc)
            if entry is None:
                count = entries_get(pc, 0) + 1
                if count < hot:
                    entries[pc] = count
                else:
                    entry = compiled[pc] = compile_block(pc)
            if entry is not None:
                block, length, kind = entry
                if seq + length <= budget:
                    pc = block(seq)
                    seq += length
                    if kind == _K_HALT:
                        halted = True
                        break
                    continue
            # Interpret the block up to its closing transfer.
            while seq < budget:
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
                    seq += 1
                    break
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
                    seq += 1
                    break
                elif code == C_CALL:
                    regs[1] = pc + 1
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(_K_CALL)
                    tk_a(1)
                    tg_a(target)
                    pc = target
                    seq += 1
                    break
                elif code == C_RET:
                    nxt = regs[1]
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(_K_RET)
                    tk_a(1)
                    tg_a(nxt)
                    pc = nxt
                    seq += 1
                    break
                elif code == C_JR:
                    nxt = regs[rs1]
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(_K_IJUMP)
                    tk_a(1)
                    tg_a(nxt)
                    pc = nxt
                    seq += 1
                    break
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
                    # Remaining ALU forms (immediate and register) via
                    # the tables.
                    if code in _IMM_TO_REG:
                        v = alu[_IMM_TO_REG[code]](regs[rs1], imm)
                    else:
                        v = alu[code](regs[rs1], regs[rs2])
                    if rd:
                        regs[rd] = v
                    pc += 1
                seq += 1
            if halted:
                break

        if not halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, budget))
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
    """Full-effects tracing as a stream of compiled basic blocks.

    The input to the data-speculation study.  :meth:`batches` runs the
    program one basic block at a time, each compiled on first entry by
    a :class:`~repro.cpu.blocks.BlockCompiler` with its
    data-speculation tail, and emits per block
    only what the live-in study can use: the closing transfer plus the
    block's register and load live-in candidates (see
    :mod:`repro.cpu.blocks`).  :func:`trace_full` is the reference:
    :meth:`~repro.core.dataspec.stats.DataSpeculationAnalyzer.
    analyze_batches` over this stream equals
    :meth:`~repro.core.dataspec.stats.DataSpeculationAnalyzer.analyze`
    over :func:`trace_full`, pinned by tests.

    ``total_instructions`` and ``halted`` are only valid once
    :meth:`batches` is exhausted, as for :class:`ChunkedCFTracer`.
    """

    #: Blocks per yielded list.  Small lists let each block's tuples die
    #: young, which keeps the garbage collector's old generations small.
    DEFAULT_CHUNK = 64

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
        """Generate lists of at most ``chunk_size`` blocks, in execution
        order.  Each block is a ``(seq, pc, kind, taken, target,
        reg_candidates, load_candidates)`` tuple (``target`` is
        :data:`~repro.trace.batch.NO_TARGET` for halt); a budget that
        ends inside a block yields that block's prefix with kind 0.

        Blocks are compiled on first entry and cached for this call
        only.
        """
        program = self.program
        chunk = self.chunk_size
        budget = self.max_instructions
        regs = [0] * NUM_REGISTERS
        regs[REG_SP] = STACK_TOP
        out = []
        compile_block = BlockCompiler(pack_program(program), regs,
                                      dict(program.data.initial),
                                      out.append).compile
        compiled = {}                 # entry pc -> (block, length, kind)
        lookup = compiled.get
        pc = program.entry
        seq = 0
        halted = False

        while seq < budget:
            entry = lookup(pc)
            if entry is None:
                entry = compiled[pc] = compile_block(pc)
            block, length, kind = entry
            if seq + length > budget:
                compile_block(pc, budget - seq)[0](seq)
                seq = budget
                break
            pc = block(seq)
            seq += length
            if kind == _K_HALT:
                halted = True
                break
            if len(out) >= chunk:
                blocks = out[:]
                del out[:]
                yield blocks

        if not halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, budget))
        if out:
            yield out
        self._total = seq
        self._halted = halted
        self._finished = True
