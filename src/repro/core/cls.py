"""The Current Loop Stack (paper section 2.2).

The CLS tracks every loop currently executing.  Each entry carries the
loop target address ``T`` (its identifier) and ``B``, the highest address
observed so far of a backward branch/jump to ``T``.  The stack is updated
on branches, jumps and returns exactly as the paper specifies:

* a taken backward transfer to an unknown ``T`` *pushes* a new loop
  (its first iteration just finished -- detection is retroactive);
* a taken backward transfer to a stacked ``T`` closes an iteration,
  popping everything above that entry (their executions ended);
* a not-taken closing branch at ``B`` ends both the iteration and the
  execution;
* any taken branch/jump whose source lies inside a stacked loop's body
  but whose target lies outside ends that loop's execution (break/goto);
* a return ends every stacked loop whose body contains it;
* on overflow the deepest (outermost) entry is dropped, penalizing the
  least common loops.

The stack also remembers its state the first time each depth is
reached (:attr:`CurrentLoopStack.first_reach`; at most ``capacity``
snapshots per trace, one int compare per push).  A smaller stack
behaves exactly like this one until this one first pushes past the
smaller capacity -- before that push neither could overflow -- so
:meth:`CurrentLoopStack.fork` can build that smaller stack's exact
state at that push, and a capacity sweep only walks what follows it
(Mattson et al.'s stack-inclusion idea, IBM Systems Journal 1970).

The CLS emits :mod:`repro.core.events` objects; callers (detector,
speculation engine, statistics collectors) consume those rather than
re-deriving loop structure.
"""

from repro.isa.instructions import InstrKind
from repro.core.events import (
    EndReason,
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
)

_K_BRANCH = int(InstrKind.BRANCH)
_K_JUMP = int(InstrKind.JUMP)
_K_IJUMP = int(InstrKind.IJUMP)
_K_CALL = int(InstrKind.CALL)
_K_RET = int(InstrKind.RET)

#: Default capacity; the paper uses 16 entries and shows (Table 1) that
#: SPEC95 nesting never exceeds it.
DEFAULT_CAPACITY = 16


class CLSEntry:
    """One stacked loop: identifier ``t``, body upper bound ``b``, and
    bookkeeping for the current execution."""

    __slots__ = ("t", "b", "exec_id", "iteration", "iter_start_seq",
                 "exec_start_seq", "depth")

    def __init__(self, t, b, exec_id, seq, depth):
        self.t = t
        self.b = b
        self.exec_id = exec_id
        self.iteration = 2          # detection == second iteration starting
        self.iter_start_seq = seq
        self.exec_start_seq = seq
        self.depth = depth

    def contains(self, pc):
        return self.t <= pc <= self.b

    def clone(self):
        entry = CLSEntry.__new__(CLSEntry)
        entry.t = self.t
        entry.b = self.b
        entry.exec_id = self.exec_id
        entry.iteration = self.iteration
        entry.iter_start_seq = self.iter_start_seq
        entry.exec_start_seq = self.exec_start_seq
        entry.depth = self.depth
        return entry

    def __repr__(self):
        return "CLSEntry(T=%d, B=%d, exec=%d, iter=%d)" % (
            self.t, self.b, self.exec_id, self.iteration)


class CurrentLoopStack:
    """The CLS plus event generation.

    Feed control-transfer records through :meth:`process`; it returns the
    (possibly empty) list of loop events the transfer caused.  Call
    :meth:`flush` once the trace ends.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("CLS capacity must be >= 1")
        self.capacity = capacity
        self.entries = []           # index 0 = outermost, -1 = innermost
        self.next_exec_id = 0
        self.overflow_count = 0
        #: ``first_reach[d - 1]`` is ``(seq, next_exec_id, entries)``
        #: right after the first push to depth ``d``; ``entries`` are
        #: copies, never mutated.
        self.first_reach = []
        self.max_depth = 0          # == len(first_reach)

    # -- introspection ---------------------------------------------------

    def __len__(self):
        return len(self.entries)

    @property
    def top(self):
        return self.entries[-1] if self.entries else None

    def depth_of(self, loop):
        """1-based stack depth of *loop*, or None."""
        for index, entry in enumerate(self.entries):
            if entry.t == loop:
                return index + 1
        return None

    def current_loops(self):
        return [entry.t for entry in self.entries]

    def fork(self, capacity):
        """The stack a capacity-*capacity* CLS fed the same records
        holds right after this one first pushed to depth
        ``capacity + 1``, as ``(seq, stack)`` with *seq* that push's
        record; None if this stack never got that deep.

        Until that push both stacks held the same entries and neither
        overflowed; the push makes the smaller one drop its outermost
        entry and stack the new loop one level shallower.  Only exact
        for ``capacity < self.capacity``.
        """
        if not 1 <= capacity < self.capacity:
            raise ValueError("can only fork a capacity in [1, %d)"
                             % self.capacity)
        if capacity >= self.max_depth:
            return None
        seq, next_exec_id, entries = self.first_reach[capacity]
        stack = CurrentLoopStack(capacity)
        stack.entries = [entry.clone() for entry in entries[1:]]
        stack.entries[-1].depth = capacity
        stack.next_exec_id = next_exec_id
        stack.overflow_count = 1
        stack.first_reach = self.first_reach[:capacity]
        stack.max_depth = capacity
        return seq, stack

    # -- main update rules -------------------------------------------------

    def process(self, seq, pc, kind, taken, target):
        """Apply one control transfer; returns the loop events it caused."""
        if kind == _K_CALL:
            # Subroutine activations belong to the enclosing loop
            # execution; calls never update the CLS.
            return ()
        if kind == _K_RET:
            return self._process_return(seq, pc)
        if kind == _K_BRANCH and not taken:
            return self._process_not_taken(seq, pc, target)
        if kind in (_K_BRANCH, _K_JUMP, _K_IJUMP) and taken \
                and target is not None:
            return self._process_taken(seq, pc, target)
        return ()

    def process_batch(self, batch, events=None):
        """Apply one :class:`~repro.trace.batch.RecordBatch` of control
        transfers; returns the (possibly shared) list the batch's loop
        events were appended to, in stream order.

        Behaviourally identical to calling :meth:`process` per record
        (pinned by tests): one fused scalar loop reads the columns
        directly and skips the common no-event cases -- calls, forward
        or missing targets with nothing stacked -- without touching
        the per-rule methods.  The loop is deliberately scalar: the
        stack state makes per-record verdicts sequential, and a
        vectorized candidate walk measured ~3x slower than this loop
        (only ~10% of transfers are skippable, and exit-rule verdicts
        go stale on every push, pop and B update).  A ``target`` of
        ``-1`` encodes ``None``.
        """
        if events is None:
            events = []
        extend = events.extend
        k_branch = _K_BRANCH
        k_jump = _K_JUMP
        k_ijump = _K_IJUMP
        k_ret = _K_RET
        for seq, pc, kind, taken, target in zip(
                batch.seqs, batch.pcs, batch.kinds, batch.takens,
                batch.targets):
            if kind == k_branch:
                if taken:
                    if target < 0:
                        continue
                    if target > pc and not self.entries:
                        continue
                    evs = self._process_taken(seq, pc, target)
                else:
                    if target < 0 or target > pc:
                        continue
                    evs = self._process_not_taken(seq, pc, target)
            elif kind == k_jump or kind == k_ijump:
                if not taken or target < 0:
                    continue
                if target > pc and not self.entries:
                    continue
                evs = self._process_taken(seq, pc, target)
            elif kind == k_ret:
                if not self.entries:
                    continue
                evs = self._process_return(seq, pc)
            else:
                continue        # calls, halt, and unknown kinds
            if evs:
                extend(evs)
        return events

    def flush(self, seq):
        """End of trace: terminate every stacked execution."""
        events = []
        while self.entries:
            entry = self.entries.pop()
            events.append(self._end_event(seq, entry, EndReason.FLUSH))
        return events

    # -- rule implementations ---------------------------------------------

    def _process_taken(self, seq, pc, target):
        entries = self.entries
        if target <= pc:
            # Backward transfer: the loop-closing case.
            index = self._find(target)
            if index is not None:
                events = []
                # Everything nested above the iterating loop terminates.
                while len(entries) - 1 > index:
                    inner = entries.pop()
                    events.append(self._end_event(seq, inner,
                                                  EndReason.OUTER))
                entry = entries[index]
                if pc > entry.b:
                    entry.b = pc
                entry.iteration += 1
                entry.iter_start_seq = seq
                events.append(IterationStart(seq, entry.t, entry.exec_id,
                                             entry.iteration))
                # The exit rule still applies to the loops that remain
                # stacked below: an overlapped loop whose body contains
                # this branch but not its target terminates (definition
                # rule ii; see Figure 2d's interleaved executions).
                events.extend(self._apply_exit_rule(seq, pc, target,
                                                    skip=entry))
                return events
            # New loop: first apply the exit rule (this transfer may
            # leave other loops' bodies), then push.
            events = self._apply_exit_rule(seq, pc, target)
            events.extend(self._push(seq, target, pc))
            return events
        # Forward taken transfer: only the exit rule applies.
        return self._apply_exit_rule(seq, pc, target)

    def _process_not_taken(self, seq, pc, target):
        if target is None or target > pc:
            return ()
        index = self._find(target)
        if index is None:
            # A complete one-iteration execution of a loop that never
            # reached the CLS.
            exec_id = self.next_exec_id
            self.next_exec_id += 1
            return (SingleIteration(seq, target, exec_id,
                                    len(self.entries) + 1),)
        entry = self.entries[index]
        if entry.b > pc:
            # A backward branch inside the body but not at B; the loop
            # goes on.
            return ()
        events = []
        while len(self.entries) - 1 > index:
            inner = self.entries.pop()
            events.append(self._end_event(seq, inner, EndReason.OUTER))
        self.entries.pop()
        events.append(self._end_event(seq, entry, EndReason.NOT_TAKEN))
        return events

    def _process_return(self, seq, pc):
        kept = []
        events = []
        # Selective removal, innermost first in the emitted events.
        removed = []
        for entry in self.entries:
            if entry.contains(pc):
                removed.append(entry)
            else:
                kept.append(entry)
        if not removed:
            return ()
        self.entries = kept
        for entry in reversed(removed):
            events.append(self._end_event(seq, entry, EndReason.RETURN))
        return events

    def _apply_exit_rule(self, seq, pc, target, skip=None):
        """Terminate loops whose body contains *pc* but not *target*."""
        kept = []
        removed = []
        for entry in self.entries:
            if entry is not skip and entry.contains(pc) \
                    and not entry.contains(target):
                removed.append(entry)
            else:
                kept.append(entry)
        if not removed:
            return []
        self.entries = kept
        return [self._end_event(seq, entry, EndReason.EXIT)
                for entry in reversed(removed)]

    def _push(self, seq, target, pc):
        events = []
        if len(self.entries) >= self.capacity:
            deepest = self.entries.pop(0)
            self.overflow_count += 1
            events.append(self._end_event(seq, deepest, EndReason.OVERFLOW))
        exec_id = self.next_exec_id
        self.next_exec_id += 1
        depth = len(self.entries) + 1
        entry = CLSEntry(target, pc, exec_id, seq, depth)
        self.entries.append(entry)
        if depth > self.max_depth:
            self.max_depth = depth
            self.first_reach.append(
                (seq, self.next_exec_id,
                 tuple(e.clone() for e in self.entries)))
        events.append(ExecutionStart(seq, target, exec_id, depth))
        events.append(IterationStart(seq, target, exec_id, 2))
        return events

    # -- helpers -----------------------------------------------------------

    def _find(self, target):
        """Innermost entry index with identifier *target*, or None."""
        for index in range(len(self.entries) - 1, -1, -1):
            if self.entries[index].t == target:
                return index
        return None

    @staticmethod
    def _end_event(seq, entry, reason):
        return ExecutionEnd(seq, entry.t, entry.exec_id, entry.iteration,
                            reason)
