"""Basic-block compiler shared by the two tracers.

A basic block here is a straight run of packed instructions ending at
the first control transfer (branch, jump, call, return, indirect jump
or halt).  :class:`BlockCompiler` turns each block into one Python
function that runs the block's register and memory effects on locals
and returns the next pc.  One translation of instructions to source
serves both tracers; only the block's *tail* -- what it hands its
consumer -- differs:

* the **control-flow tail** (:class:`~repro.cpu.tracer.ChunkedCFTracer`
  hot blocks) appends the closing transfer ``(seq, pc, kind, taken,
  target)`` to the tracer's five record columns, and nothing else;
* the **data-speculation tail**
  (:class:`~repro.cpu.tracer.ChunkedFullTracer`) emits the closing
  transfer together with

  - register candidates ``(reg, last_write_seq, value)`` for every
    register the block reads before writing it -- a static set, read
    at block entry;
  - load candidates ``(pc, addr, value, last_store_seq)`` for every
    load whose address the block has not stored to earlier -- the one
    dynamic check.

  Loop events fire only at transfers, so every instruction of a block
  belongs to the same in-flight iterations; the analyzer applies the
  ``last write <= iteration start`` rule per candidate instead of per
  instruction.

Only integers taken from the packed program (register numbers,
immediates, targets, pcs) and offsets the compiler counts itself are
ever interpolated into generated source, checked by :func:`_int`.  The
semantics follow :class:`repro.cpu.machine.Machine`; equivalence is
pinned by differential tests.
"""

from repro.isa.instructions import InstrKind
from repro.isa.registers import NUM_REGISTERS, REG_RA
from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADD, C_AND, C_BEQ, C_BGE, C_BGT, C_BLE, C_BLT, C_BNE, C_CALL, C_DIV,
    C_HALT, C_JMP, C_JR, C_LD, C_LI, C_MAX, C_MIN, C_MUL, C_MV, C_NOP, C_OR,
    C_REM, C_RET, C_SEQ, C_SLE, C_SLL, C_SLT, C_SLTI, C_SNE, C_SRA, C_SRL,
    C_ST, C_SUB, C_XOR,
    _IMM_TO_REG, _div, _rem, wrap64,
)

_K_BRANCH = int(InstrKind.BRANCH)
_K_JUMP = int(InstrKind.JUMP)
_K_IJUMP = int(InstrKind.IJUMP)
_K_CALL = int(InstrKind.CALL)
_K_RET = int(InstrKind.RET)
_K_HALT = int(InstrKind.HALT)

#: Register-form ALU code -> ``(expression template, wraps to 64 bits)``.
_ALU_SOURCE = {
    C_ADD: ("{a} + {b}", True),
    C_SUB: ("{a} - {b}", True),
    C_MUL: ("{a} * {b}", True),
    C_DIV: ("D({a}, {b})", False),
    C_REM: ("R({a}, {b})", False),
    C_AND: ("{a} & {b}", False),
    C_OR: ("{a} | {b}", False),
    C_XOR: ("{a} ^ {b}", False),
    C_SLL: ("{a} << ({b} & 63)", True),
    C_SRL: ("({a} & 18446744073709551615) >> ({b} & 63)", False),
    C_SRA: ("{a} >> ({b} & 63)", False),
    C_SLT: ("1 if {a} < {b} else 0", False),
    C_SLE: ("1 if {a} <= {b} else 0", False),
    C_SEQ: ("1 if {a} == {b} else 0", False),
    C_SNE: ("1 if {a} != {b} else 0", False),
    C_MIN: ("{a} if {a} <= {b} else {b}", False),
    C_MAX: ("{a} if {a} >= {b} else {b}", False),
}

_BRANCH_SOURCE = {
    C_BEQ: "==", C_BNE: "!=", C_BLT: "<", C_BGE: ">=", C_BLE: "<=",
    C_BGT: ">",
}

_WRAP = ("if {x} > 9223372036854775807 or {x} < -9223372036854775808: "
         "{x} = W({x})")


def _int(value):
    """*value* as source text; anything but a plain int is refused, so
    generated code never contains text that did not come from
    ``repr(int)``."""
    if type(value) is not int:
        raise TypeError("refusing to compile non-integer %r" % (value,))
    return repr(value)


class _Block:
    """Source of one block under construction: a register is a local
    ``x<n>`` from its first read or write on; register 0 is the
    literal ``0``.  Subclasses are the emission tails."""

    #: Parameters of the generated factory, bound once per compiler.
    PARAMS = None

    def __init__(self):
        self.lines = []
        self.live_in = []       # registers read before written, in order
        self.written = {}       # register -> offset of its last write

    def read(self, reg):
        if reg == 0:
            return "0"
        if reg not in self.written and reg not in self.live_in:
            self.live_in.append(reg)
        return "x" + _int(reg)

    def write(self, reg, offset):
        """The local to assign, or None when the write is discarded."""
        if reg == 0:
            return None
        self.written[reg] = offset
        return "x" + _int(reg)

    def _factory(self, head, back, tail):
        """The factory source: *head*, the body, *back*, *tail*."""
        body = head + self.lines + back + tail
        return ("def factory(%s):\n"
                "    def block(s):\n" % self.PARAMS
                + "".join("        %s\n" % line for line in body)
                + "    return block\n")


class _FlowBlock(_Block):
    """The control-flow tail: one record appended to the five columns
    ``sq``/``pa``/``ka``/``ta``/``ga`` per block."""

    PARAMS = "r, m, mg, sq, pa, ka, ta, ga, W, D, R"

    def load(self, dst, addr, pc):
        if dst is not None:
            self.lines.append("%s = mg(%s, 0)" % (dst, addr))

    def store(self, addr, value, offset):
        self.lines.append("m[%s] = %s" % (addr, value))

    def record(self, offset, pc, kind, taken, target):
        return "sq(s + %s); pa(%s); ka(%s); ta(%s); ga(%s)" % (
            _int(offset), _int(pc), _int(kind), _int(taken), target)

    def cut(self, offset, pc):
        """A cut block closes no transfer, so it records nothing."""
        return []

    def source(self, tail):
        head = ["x%s = r[%s]" % (_int(r), _int(r)) for r in self.live_in]
        back = ["r[%s] = x%s" % (_int(r), _int(r)) for r in self.written]
        return self._factory(head, back, tail)


class _SpecBlock(_Block):
    """The data-speculation tail: one ``(seq, pc, kind, taken, target,
    reg_candidates, load_candidates)`` tuple emitted per block."""

    PARAMS = "r, w, m, mg, ls, lsg, emit, W, D, R"

    def __init__(self):
        super().__init__()
        self.has_loads = False

    def load(self, dst, addr, pc):
        self.has_loads = True
        dst = dst or "v"
        self.lines += [
            "a = " + addr,
            dst + " = mg(a, 0)",
            # The one dynamic check: was *a* stored in this block?
            "l = lsg(a, -1)",
            "if l < s: lc.append((%s, a, %s, l))" % (_int(pc), dst),
        ]

    def store(self, addr, value, offset):
        self.lines += ["a = " + addr, "m[a] = " + value,
                       "ls[a] = s + " + _int(offset)]

    def record(self, offset, pc, kind, taken, target):
        return "emit((s + %s, %s, %s, %s, %s, rc, %s))" % (
            _int(offset), _int(pc), _int(kind), _int(taken), target,
            "lc" if self.has_loads else "()")

    def cut(self, offset, pc):
        """A kind-0 record for the block's last executed instruction."""
        return [self.record(offset, pc, 0, 0, "-1")]

    def source(self, tail):
        regs = self.live_in
        head = ["x%s = r[%s]" % (_int(r), _int(r)) for r in regs]
        head.append("rc = (%s)" % "".join(
            "(%s, w[%s], x%s), " % (_int(r), _int(r), _int(r))
            for r in regs))
        if self.has_loads:
            head.append("lc = []")
        back = []
        for reg, offset in self.written.items():
            back.append("r[%s] = x%s" % (_int(reg), _int(reg)))
            back.append("w[%s] = s + %s" % (_int(reg), _int(offset)))
        return self._factory(head, back, tail)


class BlockCompiler:
    """Compiles the blocks of one packed program over one machine state.

    ``regs`` (a register list) and ``mem`` (an address -> value dict)
    are updated in place by every compiled block.  The tail is chosen
    by which of ``columns`` and ``emit`` is given:

    * ``columns=(seq_append, pc_append, kind_append, taken_append,
      target_append)`` -- the control-flow tail.  Each block appends
      its closing transfer to the five columns (``target`` is ``-1``
      for halt); a block cut by a *limit* appends nothing.
    * ``emit`` -- the data-speculation tail.  The compiler also keeps
      ``last_write`` (register -> sequence number of its latest write,
      ``-1`` if never) and ``last_store`` (address -> sequence number
      of its latest store).  Each block calls ``emit`` once with its
      ``(seq, pc, kind, taken, target, reg_candidates,
      load_candidates)`` tuple; ``kind`` is 0 when a *limit* cut the
      block before its transfer, and ``seq`` is then the last executed
      instruction's.

    Keeps no cache: the caller decides how long compiled blocks live.
    """

    def __init__(self, packed, regs, mem, emit=None, columns=None):
        self.packed = packed
        if columns is not None:
            self._block = _FlowBlock
            self._env = (regs, mem, mem.get) + tuple(columns) + (
                wrap64, _div, _rem)
        else:
            self._block = _SpecBlock
            self.last_write = [-1] * NUM_REGISTERS
            self.last_store = {}
            self._env = (regs, self.last_write, mem, mem.get,
                         self.last_store, self.last_store.get, emit,
                         wrap64, _div, _rem)

    def compile(self, pc, limit=None):
        """Compile the block entered at *pc*, or only its first *limit*
        (>= 1) instructions when that is fewer.

        Returns ``(block, length, kind)``: ``block(seq)`` executes the
        ``length`` instructions as sequence numbers ``seq``,
        ``seq + 1``, ... and returns the next pc (``-1`` after halt);
        ``kind`` is the closing transfer's
        :class:`~repro.isa.instructions.InstrKind` value (0 for a cut
        block).
        """
        packed = self.packed
        blk = self._block()
        lines = blk.lines
        start = pc
        offset = 0
        while limit is None or offset < limit:
            code, rd, rs1, rs2, imm, target = packed[pc]
            if code <= C_SLTI:
                if code <= C_MAX:
                    a, b = blk.read(rs1), blk.read(rs2)
                else:
                    a, b = blk.read(rs1), _int(imm)
                    code = _IMM_TO_REG[code]
                dst = blk.write(rd, offset)
                if dst is not None:
                    template, wraps = _ALU_SOURCE[code]
                    lines.append(dst + " = " + template.format(a=a, b=b))
                    if wraps:
                        lines.append(_WRAP.format(x=dst))
            elif code == C_LI:
                dst = blk.write(rd, offset)
                if dst is not None:
                    lines.append("%s = %s" % (dst, _int(imm)))
            elif code == C_MV:
                a = blk.read(rs1)
                dst = blk.write(rd, offset)
                if dst is not None:
                    lines.append("%s = %s" % (dst, a))
            elif code == C_LD:
                addr = "%s + %s" % (blk.read(rs1), _int(imm))
                blk.load(blk.write(rd, offset), addr, pc)
            elif code == C_ST:
                addr = "%s + %s" % (blk.read(rs1), _int(imm))
                blk.store(addr, blk.read(rs2), offset)
            elif code != C_NOP:
                kind, tail = self._transfer(blk, code, rs1, rs2, target,
                                            pc, offset)
                length = offset + 1
                break
            pc += 1
            offset += 1
        else:
            # Cut by *limit* before the transfer.
            kind = 0
            tail = blk.cut(offset - 1, pc - 1) + ["return " + _int(pc)]
            length = offset
        namespace = {}
        exec(compile(blk.source(tail), "<block %d>" % start, "exec"),
             namespace)
        return namespace["factory"](*self._env), length, kind

    @staticmethod
    def _transfer(blk, code, rs1, rs2, target, pc, offset):
        """``(kind, tail lines)`` for the control transfer closing
        *blk*: record the transfer and return the next pc."""
        if code in BRANCH_CODES:
            cond = "%s %s %s" % (blk.read(rs1), _BRANCH_SOURCE[code],
                                 blk.read(rs2))
            to = _int(target)
            return _K_BRANCH, [
                "if %s:" % cond,
                "    " + blk.record(offset, pc, _K_BRANCH, 1, to),
                "    return " + to,
                blk.record(offset, pc, _K_BRANCH, 0, to),
                "return " + _int(pc + 1)]
        if code == C_JMP or code == C_CALL:
            kind = _K_JUMP
            if code == C_CALL:
                kind = _K_CALL
                blk.lines.append("%s = %s" % (blk.write(REG_RA, offset),
                                              _int(pc + 1)))
            to = _int(target)
        elif code == C_RET or code == C_JR:
            kind = _K_RET if code == C_RET else _K_IJUMP
            to = blk.read(REG_RA if code == C_RET else rs1)
        elif code == C_HALT:
            return _K_HALT, [blk.record(offset, pc, _K_HALT, 0, "-1"),
                             "return -1"]
        else:
            raise ValueError("unknown packed opcode %r" % (code,))
        return kind, [blk.record(offset, pc, kind, 1, to),
                      "return " + to]
