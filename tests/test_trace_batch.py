"""Tests for the columnar record-batch IR and the binary v3 format.

Covers the RecordBatch container (round trips, zero-copy slicing),
v3 serialization (property round trips, the corruption suite, the
streaming writer), the committed v1/v2/v3 fixture matrix, and
batch-vs-record equivalence for every batch consumer: the CLS/loop
detector, the analysis feed protocol, timing models, branch
prediction, and the data-speculation study.
"""

import io
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import InstrKind, assemble
from repro.cpu import trace_control_flow
from repro.cpu.tracer import ChunkedCFTracer, ChunkedFullTracer, trace_full
from repro.core.cls import CurrentLoopStack
from repro.core.dataspec import DataSpeculationAnalyzer
from repro.core.detector import LoopDetector
from repro.search.corpus import frontier_names
from repro.trace import (
    BatchTraceWriter,
    CFRecord,
    CFTrace,
    NO_TARGET,
    RecordBatch,
    dump_cf_trace,
    dumps_cf_trace,
    iter_batches,
    load_cf_trace,
    loads_cf_trace,
    open_cf_batches,
    open_cf_records,
    read_cf_header,
)
from repro.workloads import SUITE_ORDER

from test_tracer import looped_programs

BR = int(InstrKind.BRANCH)
JMP = int(InstrKind.JUMP)
RET = int(InstrKind.RET)
CALL = int(InstrKind.CALL)
HALT = int(InstrKind.HALT)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

LOOP_SRC = """
main:
    li t0, 0
outer:
    li t1, 0
inner:
    addi t1, t1, 1
    li t2, 5
    blt t1, t2, inner
    addi t0, t0, 1
    li t2, 4
    blt t0, t2, outer
    halt
"""


@pytest.fixture()
def loop_trace():
    return trace_control_flow(assemble(LOOP_SRC))


def random_records(draw_kinds=True):
    """Strategy: lists of structurally valid CF records (monotonic seq,
    non-negative pcs/targets, None targets allowed on any kind)."""
    record = st.tuples(
        st.integers(0, 500),                    # pc
        st.sampled_from([BR, JMP, RET, CALL, HALT])
        if draw_kinds else st.just(BR),         # kind
        st.booleans(),                          # taken
        st.one_of(st.none(), st.integers(0, 500)))   # target
    return st.lists(record, max_size=60).map(
        lambda raw: [CFRecord(seq * 2, pc, kind, taken, target)
                     for seq, (pc, kind, taken, target) in enumerate(raw)])


# ---------------------------------------------------------------------------
# RecordBatch container.
# ---------------------------------------------------------------------------

class TestRecordBatch:
    @settings(max_examples=30)
    @given(random_records())
    def test_from_records_round_trips(self, records):
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert list(batch.iter_records()) == records
        assert list(batch) == records
        for i, rec in enumerate(records):
            assert batch.record(i) == rec

    def test_column_length_mismatch_rejected(self):
        good = RecordBatch.from_records(
            [CFRecord(0, 1, BR, True, 0), CFRecord(2, 3, BR, False, 1)])
        with pytest.raises(ValueError, match="columns"):
            RecordBatch(good.seqs, good.pcs, good.kinds, good.takens,
                        good.targets[:1])

    def test_slice_is_zero_copy(self, loop_trace):
        batch = RecordBatch.from_records(loop_trace.records)
        part = batch.slice(3, 9)
        assert list(part.iter_records()) == loop_trace.records[3:9]
        assert isinstance(part.seqs, memoryview)
        assert part.seqs.obj is batch.seqs       # shares storage

    def test_prefix_splits_on_seq(self, loop_trace):
        batch = RecordBatch.from_records(loop_trace.records)
        limit = loop_trace.records[7].seq
        prefix = batch.prefix(limit)
        assert list(prefix.iter_records()) \
            == [r for r in loop_trace.records if r.seq < limit]
        # Everything qualifies: same object, no copy at all.
        assert batch.prefix(10 ** 9) is batch

    def test_iter_batches_partitions_without_empties(self, loop_trace):
        batches = list(iter_batches(loop_trace.records, 4))
        assert all(1 <= len(b) <= 4 for b in batches)
        assert [r for b in batches for r in b.iter_records()] \
            == loop_trace.records
        assert list(iter_batches([], 4)) == []
        with pytest.raises(ValueError):
            list(iter_batches(loop_trace.records, 0))


# ---------------------------------------------------------------------------
# v3 serialization.
# ---------------------------------------------------------------------------

class TestSerializationV3:
    def test_default_format_is_binary_v3(self, loop_trace):
        data = dumps_cf_trace(loop_trace)
        assert isinstance(data, bytes)
        assert data.startswith(b"CFT3")

    @settings(max_examples=30)
    @given(random_records())
    def test_round_trip_random_records(self, records):
        trace = CFTrace(records, 2 * len(records) + 5, False, "rand")
        clone = loads_cf_trace(dumps_cf_trace(trace, version=3))
        assert clone.records == trace.records
        assert clone.total_instructions == trace.total_instructions
        assert clone.halted == trace.halted
        assert clone.program_name == trace.program_name

    def test_round_trip_i64_extremes(self):
        records = [CFRecord(0, 2 ** 63 - 1, BR, True, 0),
                   CFRecord(2 ** 62, 3, HALT, False, None)]
        trace = CFTrace(records, 2 ** 62 + 1, True, "extremes")
        assert loads_cf_trace(dumps_cf_trace(trace)).records == records

    def test_empty_trace_round_trips(self):
        trace = CFTrace([], 0, False, "empty")
        clone = loads_cf_trace(dumps_cf_trace(trace))
        assert clone.records == []
        assert clone.total_instructions == 0

    def test_header_read(self, loop_trace):
        data = dumps_cf_trace(loop_trace, version=3)
        header = read_cf_header(io.BytesIO(data))
        assert header.version == 3
        assert header.records == len(loop_trace.records)
        assert header.total_instructions == loop_trace.total_instructions
        assert header.program_name == loop_trace.program_name

    def test_file_round_trip_and_open_batches(self, loop_trace,
                                              tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)            # default: v3
        assert load_cf_trace(path).records == loop_trace.records
        header, batches = open_cf_batches(path)
        assert header.version == 3
        assert [r for b in batches for r in b.iter_records()] \
            == loop_trace.records

    def test_streaming_writer_backpatches_header(self, loop_trace,
                                                 tmp_path):
        path = str(tmp_path / "s.cft")
        with open(path, "wb") as fh:
            writer = BatchTraceWriter(fh, loop_trace.program_name)
            for rec in loop_trace.records:          # one at a time
                writer.write([rec])
            assert writer.records_written == len(loop_trace.records)
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        clone = load_cf_trace(path)
        assert clone.records == loop_trace.records
        assert clone.total_instructions == loop_trace.total_instructions
        assert clone.halted == loop_trace.halted

    def test_unclosed_streaming_writer_rejected(self, loop_trace,
                                                tmp_path):
        path = str(tmp_path / "u.cft")
        with open(path, "wb") as fh:
            writer = BatchTraceWriter(fh, "unfinished")
            writer.write(loop_trace.records)
            # no close(): header still holds the -1 placeholders
        with pytest.raises(ValueError, match="never finalized"):
            load_cf_trace(path)


class TestCorruptV3Files:
    """A v3 file is either bit-exact or rejected."""

    def _data(self, loop_trace):
        return dumps_cf_trace(loop_trace, version=3)

    def test_bad_magic_rejected(self, loop_trace):
        data = b"XXT3" + self._data(loop_trace)[4:]
        with pytest.raises(ValueError, match="magic"):
            loads_cf_trace(data)

    def test_truncated_chunk_rejected(self, loop_trace):
        data = self._data(loop_trace)
        with pytest.raises(ValueError,
                           match="truncated|tampered|corrupt"):
            loads_cf_trace(data[:len(data) - 9])

    def test_truncated_header_rejected(self, loop_trace):
        with pytest.raises(ValueError, match="short read"):
            loads_cf_trace(self._data(loop_trace)[:10])

    def test_record_count_mismatch_rejected(self, loop_trace):
        data = bytearray(self._data(loop_trace))
        # Patch the declared record count at its fixed header offset.
        name_len = struct.unpack_from("<H", data, 4)[0]
        offset = 4 + 2 + name_len + 8 + 1
        declared = struct.unpack_from("<q", data, offset)[0]
        assert declared == len(loop_trace.records)
        struct.pack_into("<q", data, offset, declared + 1)
        with pytest.raises(ValueError, match="declares"):
            loads_cf_trace(bytes(data))

    def test_trailing_garbage_rejected(self, loop_trace):
        with pytest.raises(ValueError, match="trailing garbage"):
            loads_cf_trace(self._data(loop_trace) + b"\x00")

    def test_corrupt_payload_rejected(self, loop_trace):
        data = bytearray(self._data(loop_trace))
        data[-20] ^= 0xFF                # inside the zlib payload
        with pytest.raises(ValueError,
                           match="corrupt|declares|truncated"):
            loads_cf_trace(bytes(data))

    def test_decompression_bomb_rejected_without_inflating(self):
        """A tampered chunk that inflates far past its declared record
        count must be rejected by the bounded decoder, not decompressed
        into memory."""
        import zlib

        trace = CFTrace([CFRecord(0, 5, HALT, False, None)], 1, True,
                        "bomb")
        data = bytearray(dumps_cf_trace(trace, version=3))
        name_len = struct.unpack_from("<H", data, 4)[0]
        chunk_off = 4 + 2 + name_len + 17
        bomb = zlib.compress(b"\x00" * 1_000_000)
        assert len(bomb) < 26 + 1024     # passes the size pre-check
        patched = (bytes(data[:chunk_off]) + struct.pack("<II", 1,
                                                         len(bomb))
                   + bomb + struct.pack("<I", 0xFFFFFFFF))
        with pytest.raises(ValueError, match="declares"):
            loads_cf_trace(patched)

    def test_oversized_payload_length_rejected(self, loop_trace):
        data = bytearray(dumps_cf_trace(loop_trace, version=3))
        name_len = struct.unpack_from("<H", data, 4)[0]
        chunk_off = 4 + 2 + name_len + 17
        # Keep the record count, declare an absurd payload length.
        struct.pack_into("<I", data, chunk_off + 4, 0xF0000000)
        with pytest.raises(ValueError, match="payload length"):
            loads_cf_trace(bytes(data))

    def test_streaming_reader_raises_mid_stream(self, loop_trace,
                                                tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path, version=3)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) - 6])
        _header, batches = open_cf_batches(path)
        with pytest.raises(ValueError):
            list(batches)


# ---------------------------------------------------------------------------
# The committed read matrix: v1 and v2 stay loadable forever.
# ---------------------------------------------------------------------------

class TestFixtureMatrix:
    EXPECTED_RECORDS = 25
    EXPECTED_TOTAL = 78

    def _load(self, version):
        return load_cf_trace(os.path.join(FIXTURES,
                                          "loop_v%d.cft" % version))

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_fixture_loads(self, version):
        trace = self._load(version)
        assert len(trace.records) == self.EXPECTED_RECORDS
        assert trace.total_instructions == self.EXPECTED_TOTAL
        assert trace.halted
        assert trace.program_name == "fixture-loop"

    @pytest.mark.parametrize("version", [2, 3])
    def test_all_versions_decode_identically(self, version):
        assert self._load(version).records == self._load(1).records

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_headers_agree(self, version):
        header = read_cf_header(os.path.join(FIXTURES,
                                             "loop_v%d.cft" % version))
        assert header.version == version
        assert header.total_instructions == self.EXPECTED_TOTAL

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_streaming_matches_fixture(self, version):
        path = os.path.join(FIXTURES, "loop_v%d.cft" % version)
        header, records = open_cf_records(path)
        assert list(records) == self._load(version).records

    def test_nothing_writes_v1_by_default(self, loop_trace, tmp_path):
        """The legacy format (no truncation detection on old readers)
        must be opt-in everywhere: the module default, the cache, and
        the pool worker all produce v3."""
        from repro.pipeline.cache import TraceCache, program_fingerprint
        from repro.pipeline import worker

        path = str(tmp_path / "default.cft")
        dump_cf_trace(loop_trace, path)
        assert open(path, "rb").read(4) == b"CFT3"
        assert isinstance(dumps_cf_trace(loop_trace), bytes)

        cache = TraceCache(str(tmp_path / "cache"))
        program = assemble(LOOP_SRC)
        fp = program_fingerprint(program)
        stored = cache.store(loop_trace, "fixture", 1, 1000, fp)
        assert open(stored, "rb").read(4) == b"CFT3"

        _, payload = worker.trace_workload("swim", 1, 5000, None)
        assert isinstance(payload, bytes) and payload[:4] == b"CFT3"


# ---------------------------------------------------------------------------
# Batch-vs-record equivalence: detector and CLS.
# ---------------------------------------------------------------------------

def event_reprs(events):
    return [repr(e) for e in events]


def index_shape(index):
    return sorted((r.exec_id, r.loop, r.start_seq, tuple(r.iter_seqs),
                   r.end_seq, r.iterations, r.reason, r.depth)
                  for r in index.executions.values())


class TestDetectorBatchEquivalence:
    @settings(max_examples=40)
    @given(random_records())
    def test_cls_process_batch_matches_process(self, records):
        a = CurrentLoopStack(capacity=4)
        b = CurrentLoopStack(capacity=4)
        expected = []
        for rec in records:
            expected.extend(a.process(rec.seq, rec.pc, rec.kind,
                                      rec.taken, rec.target))
        got = b.process_batch(RecordBatch.from_records(records))
        assert event_reprs(got) == event_reprs(expected)
        assert a.current_loops() == b.current_loops()
        assert a.overflow_count == b.overflow_count
        assert a.next_exec_id == b.next_exec_id
        assert event_reprs(a.flush(999)) == event_reprs(b.flush(999))

    @settings(max_examples=15)
    @given(random_records(), st.integers(1, 7))
    def test_detector_feed_batch_matches_feed(self, records, size):
        total = 2 * len(records) + 1
        d1 = LoopDetector(cls_capacity=4)
        idx1 = d1.run(records, total)
        d2 = LoopDetector(cls_capacity=4)
        idx2 = d2.run_batches(iter_batches(records, size), total)
        assert event_reprs(d1.events) == event_reprs(d2.events)
        assert index_shape(idx1) == index_shape(idx2)

    def test_detector_listeners_see_batched_events(self, loop_trace):
        seen = []

        class Listener:
            def on_event(self, event):
                seen.append(repr(event))

        d = LoopDetector()
        d.add_listener(Listener())
        d.run_batches(iter_batches(loop_trace.records, 3),
                      loop_trace.total_instructions)
        assert seen == event_reprs(d.events)

    def test_real_workload_equivalence(self):
        from repro.workloads import get
        trace = get("go").cf_trace(1, max_instructions=30_000)
        d1 = LoopDetector()
        idx1 = d1.run(trace)
        d2 = LoopDetector()
        idx2 = d2.run_batches(iter_batches(trace.records, 4096),
                              trace.total_instructions)
        assert event_reprs(d1.events) == event_reprs(d2.events)
        assert index_shape(idx1) == index_shape(idx2)


# ---------------------------------------------------------------------------
# Batch-vs-record equivalence: the analysis feed protocol.
# ---------------------------------------------------------------------------

class TestAnalysisFeedBatch:
    def test_default_feed_batch_falls_back_to_feed_record(self,
                                                          loop_trace):
        from repro.analysis import Analysis

        class Recorder(Analysis):
            wants_records = True

            def __init__(self):
                self.seen = []

            def feed_record(self, record):
                self.seen.append(record)

            def result(self):
                return self.seen

        third_party = Recorder()
        for batch in iter_batches(loop_trace.records, 6):
            third_party.feed_batch(batch)
        assert third_party.seen == loop_trace.records

    def test_suite_fans_batches_to_record_consumers_only(self,
                                                         loop_trace):
        from repro.analysis import Analysis, AnalysisSuite

        calls = []

        class Wants(Analysis):
            wants_records = True

            def feed_batch(self, batch):
                calls.append(("wants", len(batch)))

            def result(self):
                return None

        class Ignores(Analysis):
            def feed_batch(self, batch):    # must never be called
                calls.append(("ignores", len(batch)))

            def result(self):
                return None

        from repro.analysis.base import WorkloadContext
        suite = AnalysisSuite([Wants(), Ignores()])
        suite.begin(WorkloadContext("w", loop_trace.total_instructions))
        for batch in iter_batches(loop_trace.records, 9):
            suite.feed_batch(batch)
        assert calls and all(name == "wants" for name, _ in calls)
        assert sum(n for _, n in calls) == len(loop_trace.records)

    def test_branch_prediction_stream_equivalence(self, loop_trace):
        from repro.core.branchpred import (
            BimodalPredictor,
            BranchPredictionStream,
            GSharePredictor,
        )

        per_record = BranchPredictionStream(
            [BimodalPredictor(), GSharePredictor()])
        for rec in loop_trace.records:
            per_record.feed(rec)
        batched = BranchPredictionStream(
            [BimodalPredictor(), GSharePredictor()])
        for batch in iter_batches(loop_trace.records, 5):
            batched.feed_batch(batch)
        for a, b in zip(per_record.reports("w"), batched.reports("w")):
            assert (a.closing_correct, a.closing_total, a.other_correct,
                    a.other_total) \
                == (b.closing_correct, b.closing_total, b.other_correct,
                    b.other_total)

    def test_classcost_timing_equivalence(self, loop_trace):
        from repro.timing import make_timing

        per_record = make_timing("classcost:branch=3,other=2")
        for rec in loop_trace.records:
            per_record.feed_record(rec)
        batched = make_timing("classcost:branch=3,other=2")
        for batch in iter_batches(loop_trace.records, 5):
            batched.feed_batch(batch)
        total = loop_trace.total_instructions
        for pos in range(0, total, 7):
            assert per_record.cycles(pos, total - pos) \
                == batched.cycles(pos, total - pos)


# ---------------------------------------------------------------------------
# The data-speculation study: streamed tracer vs the reference analyze().
# ---------------------------------------------------------------------------

_FULL_CHUNK = ChunkedFullTracer.DEFAULT_CHUNK

#: ``(workload, budget, cls capacity, chunk size, budget ends mid-block)``:
#: every analog, every frontier case, both CLS capacities and chunk
#: sizes, and budgets that stop inside a basic block.
DATASPEC_CASES = (
    [(name, 30_000, 16, _FULL_CHUNK, False) for name in SUITE_ORDER]
    + [(name, 30_000, 2, 1, False) for name in frontier_names()]
    + [("go", 20_011, 2, 1, True), ("compress", 25_013, 16, 7, True),
       ("li", 9_999, 2, _FULL_CHUNK, True), ("swim", 30_001, 16, 1, True),
       ("gcc", 12_345, 2, 3, True), ("perl", 7_777, 16, 2, True)])


def _assert_dataspec_matches(program, limit, cls_capacity, chunk_size):
    analyzer = DataSpeculationAnalyzer(cls_capacity=cls_capacity)
    full = trace_full(program, max_instructions=limit)
    ref = analyzer.analyze(full, "w")
    tracer = ChunkedFullTracer(program, limit, chunk_size=chunk_size)
    got = analyzer.analyze_batches(tracer.batches(), "w")
    assert got.state() == ref.state()
    assert tracer.total_instructions == full.total_instructions
    assert tracer.halted == full.halted
    return full


def _project_blocks(records):
    """The block stream :class:`ChunkedFullTracer` must emit, projected
    from :func:`trace_full` records: per basic block, its closing
    transfer plus the registers it reads before writing (with their
    last write before the block and entry value) and the loads of
    addresses it has not stored to (with their last store).  Register 0
    is never a candidate; a trailing partial block has kind 0."""
    blocks = []
    last_write, last_store = {}, {}
    regs, loads, written, stored = [], [], set(), set()
    pending = False
    for rec in records:
        for reg, value in rec.reg_reads:
            if reg and reg not in written \
                    and all(reg != r for r, _, _ in regs):
                regs.append((reg, last_write.get(reg, -1), value))
        for addr, value in rec.mem_reads:
            if addr not in stored:
                loads.append((rec.pc, addr, value,
                               last_store.get(addr, -1)))
        for reg, _ in rec.reg_writes:
            if reg:
                written.add(reg)
                last_write[reg] = rec.seq
        for addr, _ in rec.mem_writes:
            stored.add(addr)
            last_store[addr] = rec.seq
        pending = not rec.kind
        if rec.kind:
            target = NO_TARGET if rec.target is None else rec.target
            blocks.append((rec.seq, rec.pc, rec.kind, int(rec.taken),
                           target, tuple(regs), tuple(loads)))
            regs, loads, written, stored = [], [], set(), set()
    if pending:
        blocks.append((rec.seq, rec.pc, 0, 0, NO_TARGET, tuple(regs),
                       tuple(loads)))
    return blocks


class TestDataSpecBatches:
    """``analyze_batches`` over :class:`ChunkedFullTracer` must equal
    the reference ``analyze`` over :func:`trace_full`, counter for
    counter."""

    @pytest.mark.parametrize(
        "name,limit,cls_capacity,chunk_size,mid_block", DATASPEC_CASES,
        ids=["%s-%d-c%d-k%d" % case[:4] for case in DATASPEC_CASES])
    def test_dataspec_batches_match_full_trace(self, name, limit,
                                               cls_capacity, chunk_size,
                                               mid_block):
        from repro.workloads import get

        full = _assert_dataspec_matches(get(name).program(1), limit,
                                        cls_capacity, chunk_size)
        if mid_block:
            assert not full.halted and full.records[-1].kind == 0

    @pytest.mark.parametrize("name,limit,chunk_size", [
        ("li", 20_000, 999), ("go", 20_011, 1), ("fpppp", 30_001, 7),
        ("compress", 25_013, _FULL_CHUNK)])
    def test_block_stream_matches_trace_full_projection(self, name, limit,
                                                        chunk_size):
        from repro.workloads import get

        program = get(name).program(1)
        full = trace_full(program, max_instructions=limit)
        tracer = ChunkedFullTracer(program, limit, chunk_size=chunk_size)
        blocks = []
        for chunk in tracer.batches():
            assert 0 < len(chunk) <= chunk_size
            blocks.extend(block[:5] + (tuple(block[5]), tuple(block[6]))
                          for block in chunk)
        assert blocks == _project_blocks(full.records)
        assert tracer.total_instructions == full.total_instructions

    @settings(max_examples=60, deadline=None)
    @given(looped_programs(), st.integers(min_value=1, max_value=400),
           st.sampled_from([2, 16]), st.sampled_from([1, _FULL_CHUNK]))
    def test_random_programs(self, program, limit, cls_capacity,
                             chunk_size):
        _assert_dataspec_matches(program, limit, cls_capacity, chunk_size)


# ---------------------------------------------------------------------------
# Tracer batch emission.
# ---------------------------------------------------------------------------

class TestTracerBatches:
    def test_batches_match_trace_control_flow(self, loop_trace):
        tracer = ChunkedCFTracer(assemble(LOOP_SRC), chunk_size=4)
        records = [r for b in tracer.batches() for r in b.iter_records()]
        assert records == loop_trace.records
        assert tracer.total_instructions == loop_trace.total_instructions
        assert tracer.halted == loop_trace.halted

    def test_results_not_ready_before_exhaustion(self):
        tracer = ChunkedCFTracer(assemble(LOOP_SRC))
        with pytest.raises(RuntimeError):
            tracer.total_instructions
        full = ChunkedFullTracer(assemble(LOOP_SRC))
        with pytest.raises(RuntimeError):
            full.halted


# ---------------------------------------------------------------------------
# CFRecord.is_backward (regression: the old `taken is not None` guard
# was dead -- `taken` is always a bool -- and direction must not depend
# on it).
# ---------------------------------------------------------------------------

class TestIsBackwardRegression:
    def test_taken_direction(self):
        assert CFRecord(0, 10, BR, True, 3).is_backward
        assert CFRecord(0, 10, BR, True, 10).is_backward     # self-loop
        assert not CFRecord(0, 10, BR, True, 30).is_backward

    def test_not_taken_backward_branch_is_still_backward(self):
        assert CFRecord(0, 10, BR, False, 3).is_backward
        assert not CFRecord(0, 10, BR, False, 11).is_backward

    def test_no_target_is_never_backward(self):
        assert not CFRecord(0, 10, HALT, False, None).is_backward

    def test_agrees_with_stream_backward_records(self, loop_trace):
        backward = [rec for rec in loop_trace.records if rec.is_backward]
        assert backward == list(loop_trace.backward_records())
        assert backward        # the loop fixture has closing branches


# ---------------------------------------------------------------------------
# tools/trace_cache.py.
# ---------------------------------------------------------------------------

class TestTraceCacheTool:
    def _tool(self):
        import importlib.util
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "trace_cache.py")
        spec = importlib.util.spec_from_file_location("trace_cache_tool",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _populate(self, root, loop_trace):
        os.makedirs(root, exist_ok=True)
        dump_cf_trace(loop_trace, os.path.join(root, "a-v3-x.cft"),
                      version=3)
        dump_cf_trace(loop_trace, os.path.join(root, "b-v2-x.cft"),
                      version=2)
        with open(os.path.join(root, "c-v3-x.cft"), "wb") as fh:
            fh.write(b"CFT3 garbage")

    def test_ls_reports_format_and_counts(self, tmp_path, loop_trace,
                                          capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["ls", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "a-v3-x.cft" in out and "v3" in out
        assert "v2" in out and "stale" in out
        assert "corrupt" in out
        assert "3 entries" in out

    def test_prune_drops_stale_and_corrupt_then_bounds(self, tmp_path,
                                                       loop_trace,
                                                       capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["prune", "--cache-dir", root]) == 0
        left = sorted(os.listdir(root))
        assert left == ["a-v3-x.cft"]
        assert tool.main(["prune", "--cache-dir", root,
                          "--max-bytes", "0"]) == 0
        assert os.listdir(root) == []

    def test_clear_and_dry_run(self, tmp_path, loop_trace, capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["clear", "--cache-dir", root,
                          "--dry-run"]) == 0
        assert len(os.listdir(root)) == 3      # nothing deleted
        assert tool.main(["clear", "--cache-dir", root]) == 0
        assert os.listdir(root) == []

    def test_max_bytes_rejected_outside_prune(self, tmp_path):
        tool = self._tool()
        with pytest.raises(SystemExit):
            tool.main(["ls", "--cache-dir", str(tmp_path),
                       "--max-bytes", "5"])
