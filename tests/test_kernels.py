"""Kernel-layer tests.

The single stdlib kernel implementation (numpy is never imported),
batch fast-path boundary cases (empty/single-record batches, loop
boundaries mid-batch, loops spanning chunk seams), the derived-results
store, result-state round trips, idempotent table replay, the mmap'd
zero-copy v3 reader, and shared-memory trace payloads from pool
workers.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.isa import assemble
from repro.cpu import trace_control_flow
from repro.core.branchpred import BimodalPredictor, \
    BranchPredictionStream, GSharePredictor
from repro.core.cls import CurrentLoopStack
from repro.core.detector import LoopDetector
from repro.core.tables import TableHitRatioSimulator
from repro.trace import RecordBatch, dump_cf_trace, dumps_cf_trace, \
    iter_batches, kernels, loads_cf_trace, open_cf_batches

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


def event_reprs(events):
    return [repr(e) for e in events]


def index_shape(index):
    return sorted((r.exec_id, r.loop, r.start_seq, tuple(r.iter_seqs),
                   r.end_seq, r.iterations, r.reason, r.depth)
                  for r in index.executions.values())


# ---------------------------------------------------------------------------
# One stdlib kernel implementation.
# ---------------------------------------------------------------------------

NUMPY_PROBE = textwrap.dedent("""
    import sys
    from repro.experiments.runner import main
    from repro.timing import make_timing
    from repro.trace import iter_batches
    from repro.workloads import get

    assert main(["table1", "baselines", "--workloads", "swim",
                 "--no-cache"]) == 0
    timing = make_timing("classcost:branch=3,other=2")
    trace = get("swim").cf_trace(1, max_instructions=20_000)
    for batch in iter_batches(trace.records):
        timing.feed_batch(batch)
    print("numpy imported: %s" % ("numpy" in sys.modules))
""")


class TestStdlibKernels:
    def test_backend_is_stdlib(self):
        assert kernels.backend() == "stdlib"

    def test_numpy_is_never_imported(self):
        """The branch-prediction baselines and a ``classcost`` feed --
        the consumers of the column loops -- run without numpy."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "numpy imported: False"


# ---------------------------------------------------------------------------
# Batch fast-path boundary cases.
# ---------------------------------------------------------------------------

class TestBatchBoundaries:
    def test_empty_batch_is_inert(self):
        empty = RecordBatch.empty()
        detector = LoopDetector()
        assert detector.feed_batch(empty) == []
        cls = CurrentLoopStack()
        assert cls.process_batch(empty) == []
        assert cls.current_loops() == []
        stream = BranchPredictionStream(
            [BimodalPredictor(), GSharePredictor()])
        stream.feed_batch(empty)
        assert all(r.closing_total == 0 and r.other_total == 0
                   for r in stream.reports("w"))

    def test_single_record_batches_match_one_batch(self, loop_trace):
        one = LoopDetector()
        idx_one = one.run_batches(iter_batches(loop_trace.records),
                                  loop_trace.total_instructions)
        single = LoopDetector()
        idx_single = single.run_batches(
            iter_batches(loop_trace.records, 1),
            loop_trace.total_instructions)
        assert event_reprs(one.events) == event_reprs(single.events)
        assert index_shape(idx_one) == index_shape(idx_single)

    def test_loop_boundary_at_every_batch_seam(self, loop_trace):
        """Splitting the stream at any position -- including mid-loop
        and exactly on a closing back-edge -- must not change events."""
        records = loop_trace.records
        total = loop_trace.total_instructions
        reference = LoopDetector()
        ref_index = reference.run(records, total)
        full = RecordBatch.from_records(records)
        for split in range(len(records) + 1):
            d = LoopDetector()
            idx = d.run_batches(
                (b for b in (full.slice(0, split),
                             full.slice(split, len(records)))
                 if len(b)), total)
            assert event_reprs(d.events) == event_reprs(reference.events)
            assert index_shape(idx) == index_shape(ref_index)

    def test_loop_spanning_v3_chunk_seam(self, loop_trace, tmp_path):
        """A cached v3 trace whose chunks split a loop execution must
        replay to the identical index (chunk boundaries are batch
        boundaries on the warm path)."""
        from repro.trace.io import BatchTraceWriter

        path = str(tmp_path / "seam.cft")
        with open(path, "w+b") as fh:
            writer = BatchTraceWriter(fh, loop_trace.program_name)
            # 7 records per chunk: every chunk seam lands mid-loop.
            writer.write(iter(loop_trace.records))
            for batch in ():
                writer.write_batch(batch)
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        # Rewrite with tiny chunks via explicit batches.
        with open(path, "w+b") as fh:
            writer = BatchTraceWriter(fh, loop_trace.program_name)
            for batch in iter_batches(loop_trace.records, 7):
                writer.write_batch(batch)
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        header, batches = open_cf_batches(path)
        streamed = LoopDetector()
        idx_streamed = streamed.run_batches(
            batches, header.total_instructions)
        reference = LoopDetector()
        idx_ref = reference.run(loop_trace)
        assert event_reprs(streamed.events) \
            == event_reprs(reference.events)
        assert index_shape(idx_streamed) == index_shape(idx_ref)


# ---------------------------------------------------------------------------
# Derived-results store.
# ---------------------------------------------------------------------------

class TestDerivedStore:
    def _store(self, tmp_path):
        from repro.pipeline.derived import DerivedCache
        return DerivedCache(str(tmp_path)).store("w-s1-m100-v3-abc")

    def test_put_get_flush_reload(self, tmp_path):
        store = self._store(tmp_path)
        assert store.get("simulate/4/str/c16") is None
        store.put("simulate/4/str/c16", {"tpc": 3})
        assert store.get("simulate/4/str/c16") == {"tpc": 3}
        store.flush()
        again = self._store(tmp_path)
        assert again.get("simulate/4/str/c16") == {"tpc": 3}

    def test_unflushed_values_do_not_persist(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        assert self._store(tmp_path).get("k") is None

    def test_corrupt_file_reads_as_empty(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        (path,) = [os.path.join(str(tmp_path), "derived", name)
                   for name in os.listdir(
                       os.path.join(str(tmp_path), "derived"))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert self._store(tmp_path).get("k") is None

    def test_schema_version_mismatch_reads_as_empty(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        root = os.path.join(str(tmp_path), "derived")
        (path,) = [os.path.join(root, n) for n in os.listdir(root)]
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["version"] = -1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert self._store(tmp_path).get("k") is None

    def test_derived_key_joins_parts(self):
        from repro.pipeline.derived import derived_key
        assert derived_key("simulate", 4, "str") == "simulate/4/str"


# ---------------------------------------------------------------------------
# Result-state round trips.
# ---------------------------------------------------------------------------

class TestStateRoundTrips:
    def test_speculation_result_round_trips(self, loop_trace):
        from repro.core.speculation import simulate
        from repro.core.speculation.metrics import SpeculationResult

        index = LoopDetector().run(loop_trace)
        result = simulate(index, num_tus=4, policy="str", name="w")
        restored = SpeculationResult.from_state(
            json.loads(json.dumps(result.state())))
        assert restored.as_dict() == result.as_dict()
        assert restored.tpc == result.tpc

    def test_speculation_result_rejects_malformed(self):
        from repro.core.speculation.metrics import SpeculationResult

        good = SpeculationResult("w", 4, "str").state()
        with pytest.raises(KeyError):
            SpeculationResult.from_state(
                {k: v for k, v in good.items() if k != "promoted"})
        bad = dict(good)
        bad["promoted"] = "7"
        with pytest.raises(TypeError):
            SpeculationResult.from_state(bad)

    def test_dataspec_stats_round_trips(self):
        from repro.core.dataspec.stats import DataSpecStats

        stats = DataSpecStats("w")
        for i, field in enumerate(DataSpecStats.COUNTER_FIELDS):
            setattr(stats, field, i + 1)
        restored = DataSpecStats.from_state(
            json.loads(json.dumps(stats.state())))
        assert restored.state() == stats.state()
        bad = stats.state()
        bad[DataSpecStats.COUNTER_FIELDS[0]] = None
        with pytest.raises(TypeError):
            DataSpecStats.from_state(bad)


# ---------------------------------------------------------------------------
# Idempotent table replay.
# ---------------------------------------------------------------------------

class TestEnsureReplayed:
    def test_replays_once_and_matches_event_replay(self, loop_trace):
        index = LoopDetector().run(loop_trace)
        columnar = TableHitRatioSimulator(4, 4)
        assert columnar.ensure_replayed(index) is columnar
        counters = (columnar.let_hits, columnar.let_accesses,
                    columnar.lit_hits, columnar.lit_accesses)
        columnar.ensure_replayed(index)     # second call is free
        assert counters == (columnar.let_hits, columnar.let_accesses,
                            columnar.lit_hits, columnar.lit_accesses)
        eventful = TableHitRatioSimulator(4, 4)
        eventful.replay(index.events)
        assert counters == (eventful.let_hits, eventful.let_accesses,
                            eventful.lit_hits, eventful.lit_accesses)


# ---------------------------------------------------------------------------
# mmap'd zero-copy v3 reads.
# ---------------------------------------------------------------------------

class TestMappedReads:
    def test_path_reads_match_records(self, loop_trace, tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        header, batches = open_cf_batches(path)
        records = [rec for batch in batches
                   for rec in batch.iter_records()]
        assert records == loop_trace.records
        assert header.records == len(records)

    def test_loads_accepts_memoryview(self, loop_trace):
        payload = dumps_cf_trace(loop_trace)
        a = loads_cf_trace(payload)
        b = loads_cf_trace(memoryview(payload))
        assert a.records == b.records
        assert a.total_instructions == b.total_instructions

    def test_truncated_mapped_file_raises(self, loop_trace, tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
        header, batches = open_cf_batches(path)
        with pytest.raises(ValueError):
            list(batches)

    def test_trailing_garbage_in_mapped_file_raises(self, loop_trace,
                                                    tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        header, batches = open_cf_batches(path)
        with pytest.raises(ValueError, match="trailing"):
            list(batches)


# ---------------------------------------------------------------------------
# Shared-memory pool payloads.
# ---------------------------------------------------------------------------

class TestSharedMemoryPayload:
    def test_shared_payload_round_trips_and_unlinks(self):
        from repro.pipeline import worker

        name, payload = worker.trace_workload("swim", 1, 5_000, None,
                                              shared=True)
        assert name == "swim"
        if not isinstance(payload, worker.SharedTracePayload):
            pytest.skip("shared memory unavailable on this platform")
        via_shm = worker.load_trace_payload(payload)
        _, data = worker.trace_workload("swim", 1, 5_000, None)
        assert isinstance(data, bytes)
        via_bytes = worker.load_trace_payload(data)
        assert via_shm.records == via_bytes.records
        assert via_shm.total_instructions == via_bytes.total_instructions
        # The parent unlinked the segment after reading it.
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=payload.segment)
