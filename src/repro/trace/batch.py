"""Columnar record batches: the native currency of the trace pipeline.

A :class:`RecordBatch` holds a run of control-flow records as five
parallel columns (``seqs``/``pcs``/``kinds``/``takens``/``targets``)
instead of a list of :class:`~repro.trace.record.CFRecord` tuples.
Everything between the tracer and the analysis layer moves batches:

* :class:`repro.cpu.tracer.ChunkedCFTracer` emits them directly from
  the interpretation loop;
* the binary v3 trace format (:mod:`repro.trace.io`) writes and reads
  them as struct-packed column chunks, so the on-disk cache round-trip
  is ``tobytes``/``frombytes`` rather than text formatting and parsing;
* :meth:`repro.core.detector.LoopDetector.feed_batch` and the analysis
  ``feed_batch`` protocol consume columns with one tight loop per
  batch, dropping to per-record work only where a record actually
  causes a loop event.

Columns are ``array('q')`` (seq, pc, target) and ``array('b')`` (kind,
taken); a ``target`` of :data:`NO_TARGET` encodes ``None`` (the halt
record -- program addresses are non-negative by construction).
Slicing is **zero-copy**: :meth:`RecordBatch.slice` and
:meth:`RecordBatch.prefix` return batches whose columns are
memoryviews into the parent's storage.

The data-speculation study has no columnar form here: it streams
per-basic-block live-in candidates straight from
:class:`repro.cpu.tracer.ChunkedFullTracer` (see
:mod:`repro.cpu.blocks`).
"""

from array import array
from bisect import bisect_left

from repro.trace.record import CFRecord

#: ``target`` column sentinel encoding ``None`` (halt has no target).
NO_TARGET = -1

#: Default records per batch for the adapters below.
DEFAULT_BATCH_RECORDS = 8192


class RecordBatch:
    """A run of control-flow records as five parallel columns.

    Columns are positionally aligned sequences (arrays, or memoryviews
    for zero-copy slices): ``seqs``/``pcs``/``targets`` hold signed
    64-bit values, ``kinds``/``takens`` signed bytes.  ``seqs`` is
    strictly increasing within a batch (execution order), which
    :meth:`prefix` exploits.  Batches are immutable once built.
    """

    __slots__ = ("seqs", "pcs", "kinds", "takens", "targets")

    def __init__(self, seqs, pcs, kinds, takens, targets):
        n = len(seqs)
        if not (len(pcs) == len(kinds) == len(takens)
                == len(targets) == n):
            raise ValueError("record batch columns disagree on length")
        self.seqs = seqs
        self.pcs = pcs
        self.kinds = kinds
        self.takens = takens
        self.targets = targets

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls(array("q"), array("q"), array("b"), array("b"),
                   array("q"))

    @classmethod
    def from_records(cls, records):
        """Build a batch from an iterable of :class:`CFRecord`."""
        seqs = array("q")
        pcs = array("q")
        kinds = array("b")
        takens = array("b")
        targets = array("q")
        for rec in records:
            seqs.append(rec.seq)
            pcs.append(rec.pc)
            kinds.append(rec.kind)
            takens.append(1 if rec.taken else 0)
            targets.append(NO_TARGET if rec.target is None else rec.target)
        return cls(seqs, pcs, kinds, takens, targets)

    # -- container protocol --------------------------------------------------

    def __len__(self):
        return len(self.seqs)

    def __iter__(self):
        return self.iter_records()

    @property
    def columns(self):
        """``(seqs, pcs, kinds, takens, targets)``."""
        return (self.seqs, self.pcs, self.kinds, self.takens,
                self.targets)

    def record(self, i):
        """The *i*-th record, decoded to a :class:`CFRecord`."""
        target = self.targets[i]
        return CFRecord(self.seqs[i], self.pcs[i], self.kinds[i],
                        bool(self.takens[i]),
                        None if target < 0 else target)

    def iter_records(self):
        """Decode every row to a :class:`CFRecord`, in order."""
        for seq, pc, kind, taken, target in zip(
                self.seqs, self.pcs, self.kinds, self.takens,
                self.targets):
            yield CFRecord(seq, pc, kind, bool(taken),
                           None if target < 0 else target)

    # -- zero-copy slicing ---------------------------------------------------

    def slice(self, start, stop):
        """Rows ``[start, stop)`` as a batch sharing this one's storage."""
        return RecordBatch(memoryview(self.seqs)[start:stop],
                           memoryview(self.pcs)[start:stop],
                           memoryview(self.kinds)[start:stop],
                           memoryview(self.takens)[start:stop],
                           memoryview(self.targets)[start:stop])

    def prefix(self, seq_limit):
        """The (zero-copy) prefix of records with ``seq < seq_limit``.

        Relies on ``seqs`` being sorted; returns ``self`` unchanged when
        every record qualifies.
        """
        n = len(self.seqs)
        if n == 0 or self.seqs[n - 1] < seq_limit:
            return self
        return self.slice(0, bisect_left(self.seqs, seq_limit))

    def __repr__(self):
        if len(self):
            span = " seq %d..%d" % (self.seqs[0], self.seqs[-1])
        else:
            span = ""
        return "RecordBatch(%d records%s)" % (len(self), span)


def iter_batches(records, batch_records=DEFAULT_BATCH_RECORDS):
    """Adapt an iterable of :class:`CFRecord` to a batch stream.

    The bridge from the legacy per-record world (an in-memory
    :class:`~repro.trace.stream.CFTrace`, the v1/v2 text readers) into
    batch consumers; emits no empty batches.
    """
    if batch_records < 1:
        raise ValueError("batch_records must be >= 1")
    seqs = array("q")
    pcs = array("q")
    kinds = array("b")
    takens = array("b")
    targets = array("q")
    count = 0
    for rec in records:
        seqs.append(rec.seq)
        pcs.append(rec.pc)
        kinds.append(rec.kind)
        takens.append(1 if rec.taken else 0)
        targets.append(NO_TARGET if rec.target is None else rec.target)
        count += 1
        if count >= batch_records:
            yield RecordBatch(seqs, pcs, kinds, takens, targets)
            seqs = array("q")
            pcs = array("q")
            kinds = array("b")
            takens = array("b")
            targets = array("q")
            count = 0
    if count:
        yield RecordBatch(seqs, pcs, kinds, takens, targets)
