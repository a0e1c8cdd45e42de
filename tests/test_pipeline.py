"""Tests for the parallel simulation pipeline: process-pool tracing,
the on-disk trace cache, and streaming loop detection.

Kept fast with a two-workload subset and a small instruction budget;
the parallel paths still exercise a real ``ProcessPoolExecutor``.
"""

import os

import pytest

from repro.pipeline import (
    PipelineConfig,
    SimulationSession,
    TraceCache,
    default_cache_dir,
)
from repro.pipeline import worker
from repro.trace.io import TRACE_FORMAT_VERSION, dumps_cf_trace

WORKLOADS = ("swim", "go")
LIMIT = 40_000


def config(**kwargs):
    kwargs.setdefault("workloads", WORKLOADS)
    kwargs.setdefault("max_instructions", LIMIT)
    return PipelineConfig(**kwargs)


def trace_bytes(session):
    return {name: dumps_cf_trace(session.trace(name), version=2)
            for name in WORKLOADS}


def index_shape(index):
    return (len(index), len(index.events), index.total_instructions,
            sorted((r.exec_id, r.loop, r.start_seq, r.end_seq,
                    r.iterations, tuple(r.iter_seqs))
                   for r in index.executions.values()))


class TestConfig:
    def test_frozen_and_hashable(self):
        cfg = config()
        with pytest.raises(AttributeError):
            cfg.scale = 2
        hash(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale=0)
        with pytest.raises(ValueError):
            PipelineConfig(jobs=0)
        with pytest.raises(ValueError):
            PipelineConfig(max_instructions=0)

    def test_workload_objects_normalized_to_names(self):
        from repro.workloads import get
        cfg = PipelineConfig(workloads=(get("swim"), "go"))
        assert cfg.workloads == ("swim", "go")

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"


class TestSessionBasics:
    def test_trace_and_index_memoized(self):
        session = SimulationSession(config())
        assert session.trace("swim") is session.trace("swim")
        assert session.index("go") is session.index("go")

    def test_unknown_workload(self):
        session = SimulationSession(config())
        with pytest.raises(KeyError):
            session.trace("spice")
        with pytest.raises(KeyError):
            session.index("spice")

    def test_indexes_in_configured_order(self):
        session = SimulationSession(config(workloads=("go", "swim")))
        assert [name for name, _ in session.indexes()] == ["go", "swim"]

    def test_kwargs_construction(self):
        session = SimulationSession(workloads=WORKLOADS,
                                    max_instructions=LIMIT)
        assert session.max_instructions == LIMIT
        with pytest.raises(TypeError):
            SimulationSession(config(), scale=2)


class TestParallelEqualsSequential:
    def test_traces_byte_identical_and_indexes_match(self, tmp_path):
        seq = SimulationSession(config(jobs=1))
        par = SimulationSession(config(
            jobs=4, cache_dir=str(tmp_path / "cache")))
        seq_idx = dict(seq.indexes())
        par_idx = dict(par.indexes())
        assert trace_bytes(seq) == trace_bytes(par)
        for name in WORKLOADS:
            assert index_shape(seq_idx[name]) == index_shape(par_idx[name])

    def test_parallel_without_cache(self):
        par = SimulationSession(config(jobs=2))
        seq = SimulationSession(config(jobs=1))
        assert trace_bytes(par) == trace_bytes(seq)


class TestCache:
    def test_cache_hit_skips_tracing(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        warm = SimulationSession(config(cache_dir=cache_dir))
        warm.indexes()
        assert warm.stats.traced == 2
        assert warm.stats.cache_hits == 0

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not re-trace")

        monkeypatch.setattr(worker, "trace_workload", boom)
        hot = SimulationSession(config(cache_dir=cache_dir))
        hot_idx = dict(hot.indexes())
        assert hot.stats.traced == 0
        assert hot.stats.cache_hits == 2
        assert trace_bytes(hot) == trace_bytes(warm)
        warm_idx = dict(warm.indexes())
        for name in WORKLOADS:
            assert index_shape(hot_idx[name]) == index_shape(warm_idx[name])

    def test_cache_key_invalidates_on_scale_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        rescaled = SimulationSession(config(cache_dir=cache_dir, scale=2))
        rescaled.indexes()
        assert rescaled.stats.traced == 2
        assert rescaled.stats.cache_hits == 0

    def test_cache_key_invalidates_on_budget_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        rebudgeted = SimulationSession(config(
            cache_dir=cache_dir, max_instructions=LIMIT // 2))
        rebudgeted.indexes()
        assert rebudgeted.stats.traced == 2

    def test_key_embeds_format_version_and_fingerprint(self):
        key = TraceCache.key("swim", 1, LIMIT, "aaaa")
        assert "-v%d-" % TRACE_FORMAT_VERSION in key
        assert key != TraceCache.key("swim", 2, LIMIT, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT + 1, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT, "bbbb")

    def test_program_fingerprint_tracks_content(self):
        from repro.isa import assemble
        from repro.pipeline.cache import program_fingerprint
        src_a = "main:\n    li t0, 1\n    halt\n"
        src_b = "main:\n    li t0, 2\n    halt\n"
        fp_a = program_fingerprint(assemble(src_a))
        fp_b = program_fingerprint(assemble(src_b))
        assert fp_a == program_fingerprint(assemble(src_a))   # stable
        assert fp_a != fp_b                       # content-sensitive

    def test_stale_entry_ignored_after_program_change(self, tmp_path,
                                                      monkeypatch):
        # Same name/scale/budget but different program content must not
        # hit: fake a changed program by perturbing the fingerprint
        # wherever a cache key is computed (session and tracer worker).
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        old_entries = sorted(os.listdir(cache_dir))
        from repro.pipeline import cache as cache_mod
        from repro.pipeline import session as session_mod
        real = cache_mod.program_fingerprint
        for module in (session_mod, worker):
            monkeypatch.setattr(module, "program_fingerprint",
                                lambda program: real(program)[::-1])
        changed = SimulationSession(config(cache_dir=cache_dir))
        changed.indexes()
        assert changed.stats.traced == 2
        assert changed.stats.cache_hits == 0
        entries = sorted(os.listdir(cache_dir))
        assert len(entries) == 2 * len(old_entries)
        assert set(old_entries) < set(entries)

    def test_corrupt_entry_is_a_miss_and_retraced(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SimulationSession(config(cache_dir=cache_dir))
        first.indexes()
        # Truncate every cache entry mid-file.
        for entry in os.listdir(cache_dir):
            path = os.path.join(cache_dir, entry)
            data = open(path, "rb").read()
            open(path, "wb").write(data[:len(data) // 2])
        second = SimulationSession(config(cache_dir=cache_dir))
        second_idx = dict(second.indexes())
        assert second.stats.traced == 2
        assert trace_bytes(second) == trace_bytes(first)
        first_idx = dict(first.indexes())
        for name in WORKLOADS:
            assert index_shape(second_idx[name]) \
                == index_shape(first_idx[name])


def cache_entries(cache_dir):
    entries = {}
    for entry in sorted(os.listdir(cache_dir)):
        with open(os.path.join(cache_dir, entry), "rb") as fh:
            entries[entry] = fh.read()
    return entries


def table1_rows(session):
    from repro.experiments import build_suite
    suite, by_name = build_suite(["table1"])
    session.analyze(suite)
    return by_name["table1"].result().rows


class TestInlineTracingStreamsToCache:
    """A cold ``jobs=1`` session traces into the cache and replays from
    the v3 entry, exactly as after a pooled trace."""

    def test_inline_and_pooled_write_identical_entries(self, tmp_path):
        inline_dir = str(tmp_path / "inline")
        pooled_dir = str(tmp_path / "pooled")
        SimulationSession(config(jobs=1, cache_dir=inline_dir)) \
            .ensure_traced()
        SimulationSession(config(jobs=2, cache_dir=pooled_dir)) \
            .ensure_traced()
        inline = cache_entries(inline_dir)
        assert len(inline) == len(WORKLOADS)
        assert inline == cache_entries(pooled_dir)

    def test_cold_analyze_replays_from_cache(self, tmp_path):
        session = SimulationSession(config(
            jobs=1, cache_dir=str(tmp_path / "cache")))
        rows = table1_rows(session)
        assert session._traces == {}
        assert (session.stats.traced, session.stats.cache_hits,
                session.stats.replays) == (2, 0, 2)
        assert rows == table1_rows(SimulationSession(config()))

    def test_truncated_entry_retraced_inline(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).ensure_traced()
        pristine = cache_entries(cache_dir)
        for entry, data in pristine.items():
            with open(os.path.join(cache_dir, entry), "wb") as fh:
                fh.write(data[:len(data) * 3 // 4])
        session = SimulationSession(config(jobs=1, cache_dir=cache_dir))
        rows = table1_rows(session)
        # Per workload: one replay aborted mid-stream, one from the
        # re-traced entry.
        assert (session.stats.traced, session.stats.cache_hits,
                session.stats.replays) == (2, 0, 4)
        assert session._traces == {}
        assert cache_entries(cache_dir) == pristine
        assert rows == table1_rows(SimulationSession(config()))


class TestStreamingDetection:
    def test_streamed_index_matches_in_memory(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        streamed = SimulationSession(config(cache_dir=cache_dir))
        # index() before trace() streams records from the cache ...
        streamed_idx = {name: streamed.index(name) for name in WORKLOADS}
        assert not streamed._traces, "streaming must not materialize"
        inmem = SimulationSession(config())
        for name in WORKLOADS:
            assert index_shape(streamed_idx[name]) \
                == index_shape(inmem.index(name))


class TestWorker:
    def test_worker_payload_roundtrip(self):
        from repro.trace.io import loads_cf_trace
        name, payload = worker.trace_workload("go", 1, LIMIT, None)
        assert name == "go"
        trace = loads_cf_trace(payload)
        assert trace.total_instructions == LIMIT or trace.halted

    def test_worker_writes_cache_entry(self, tmp_path):
        from repro.pipeline.cache import program_fingerprint
        from repro.workloads import get
        cache_dir = str(tmp_path / "cache")
        _, payload = worker.trace_workload("go", 1, LIMIT, cache_dir)
        assert payload is None
        cache = TraceCache(cache_dir)
        fp = program_fingerprint(get("go").program(1))
        assert cache.has("go", 1, LIMIT, fp)
        header, records = cache.open_records("go", 1, LIMIT, fp)
        count = sum(1 for _ in records)
        assert count == header.records


class TestUnregisteredWorkloads:
    def test_session_accepts_unregistered_workload_objects(self):
        from repro.workloads import get
        from repro.workloads.base import Workload
        swim = get("swim")
        clone = Workload("swim-variant", swim.builder, "unregistered",
                         swim.category, default_max_instructions=LIMIT)
        runner = SimulationSession(PipelineConfig(cache_dir=None),
                                   workload_objects=[clone])
        assert runner.trace("swim-variant").total_instructions > 0
        assert len(runner.index("swim-variant")) > 0

    def test_session_traces_unregistered_inline_with_jobs(self, tmp_path):
        from repro.workloads import get
        from repro.workloads.base import Workload
        swim = get("swim")
        clone = Workload("swim-variant", swim.builder, "unregistered",
                         swim.category, default_max_instructions=LIMIT)
        session = SimulationSession(
            PipelineConfig(jobs=4, max_instructions=LIMIT,
                           cache_dir=str(tmp_path / "cache")),
            workload_objects=[clone, get("go")])
        names = [name for name, _ in session.indexes()]
        assert names == ["swim-variant", "go"]
        assert session.stats.traced == 2
