"""The simulation session: parallel, cache-backed streaming analysis.

:class:`SimulationSession` is the one way experiments obtain results,
traces, and loop indexes.  Its primary entrypoint is :meth:`~
SimulationSession.analyze`: one :class:`~repro.analysis.suite.
AnalysisSuite` of streaming passes, fed from exactly one record-stream
replay per workload (see ``docs/ANALYSIS.md``).  Underneath, the
pipeline

1. fans workload tracing out across a ``ProcessPoolExecutor`` when
   ``config.jobs > 1``, absorbing results in the configured workload
   order so output is deterministic regardless of completion order;
2. persists traces through the content-keyed on-disk
   :class:`~repro.pipeline.cache.TraceCache`, so a warm session skips
   interpretation entirely; and
3. streams cached :class:`~repro.trace.batch.RecordBatch` columns
   straight into :meth:`LoopDetector.feed_batch` — neither detection
   nor analysis requires the full record list in memory, and no
   record object is constructed between disk and the column loops.

The legacy per-experiment surface (:meth:`trace`, :meth:`index`,
:meth:`indexes`) remains for interactive use; the old sequential
``SuiteRunner`` shim is gone (construct a session with
``cache_dir=None`` for its behaviour).
"""

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

from repro.core.detector import LoopDetector
from repro.obs import collector as obs
from repro.pipeline import worker
from repro.pipeline.cache import TraceCache, program_fingerprint
from repro.pipeline.derived import DerivedCache
from repro.pipeline.config import PipelineConfig
from repro.trace.batch import iter_batches
from repro.workloads import get, suite


class SessionStats:
    """Counters for what a session actually did (test/bench hooks)."""

    __slots__ = ("traced", "cache_hits", "replays")

    def __init__(self):
        self.traced = 0        #: workloads interpreted by this session
        self.cache_hits = 0    #: workloads served from the on-disk cache
        self.replays = 0       #: full record-stream replays performed

    def __repr__(self):
        return ("SessionStats(traced=%d, cache_hits=%d, replays=%d)"
                % (self.traced, self.cache_hits, self.replays))


class _CorruptStream(Exception):
    """A cached batch stream raised ValueError mid-iteration."""


def _guard_stream(batches):
    """Re-raise the *iterator's* ValueError as :class:`_CorruptStream`
    so truncation is distinguishable from an analysis pass raising
    ValueError of its own."""
    iterator = iter(batches)
    while True:
        try:
            batch = next(iterator)
        except StopIteration:
            return
        except ValueError as exc:
            raise _CorruptStream() from exc
        yield batch


class SimulationSession:
    """Cache-backed, optionally parallel analysis session.

    Construct from a frozen :class:`~repro.pipeline.config.
    PipelineConfig` (or its keyword arguments).  :meth:`analyze` is the
    primary entrypoint; :meth:`trace`, :meth:`index`, :meth:`indexes`
    (plus ``scale``/``cls_capacity``/``max_instructions``/``workloads``
    attributes) remain for direct access.
    """

    def __init__(self, config=None, workload_objects=None, **kwargs):
        if config is None:
            config = PipelineConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a PipelineConfig or keyword "
                            "arguments, not both")
        self.stats = SessionStats()
        if workload_objects is not None:
            # Explicit objects (possibly unregistered) take precedence
            # over registry lookup by name.
            self._workloads = list(workload_objects)
            names = tuple(w.name for w in self._workloads)
            if config.workloads is None:
                config = dataclasses.replace(config, workloads=names)
            elif config.workloads != names:
                raise ValueError("workload_objects disagree with "
                                 "config.workloads")
        elif config.workloads is None:
            self._workloads = suite()
        else:
            self._workloads = [get(name) for name in config.workloads]
        self.config = config
        self._by_name = {w.name: w for w in self._workloads}
        self._fingerprints = {}
        self._cache = (TraceCache(config.cache_dir)
                       if config.cache_dir is not None else None)
        self._derived = (DerivedCache(config.cache_dir)
                         if config.cache_dir is not None else None)
        self._traces = {}
        self._indexes = {}
        self._sources = {}   # name -> "cache" | "traced", first touch

    # -- direct trace/index surface ------------------------------------------

    @property
    def scale(self):
        return self.config.scale

    @property
    def cls_capacity(self):
        return self.config.cls_capacity

    @property
    def max_instructions(self):
        return self.config.max_instructions

    @property
    def workloads(self):
        return list(self._workloads)

    def trace(self, name):
        """The control-flow trace of *name*, materialized and memoized."""
        if name not in self._traces:
            limit = self.config.limit_for(self._get(name))
            trace = self._from_cache(name, limit)
            if trace is None:
                self._trace_now(name, limit)
                # Cacheless, _trace_now memoized the trace; otherwise
                # it streamed into the cache.
                trace = self._traces.get(name)
                if trace is None:
                    trace = self._from_cache(name, limit)
            self._traces[name] = trace
        return self._traces[name]

    def index(self, name):
        """The loop index of *name*, memoized.

        When the trace lives only in the cache, batches are streamed
        into the detector without materializing the trace.
        """
        if name not in self._indexes:
            workload = self._get(name)
            self.ensure_traced([name])
            limit = self.config.limit_for(workload)
            batches, total = self._open(name, limit)
            try:
                index = LoopDetector(
                    cls_capacity=self.config.cls_capacity).run_batches(
                        batches, total)
            except _CorruptStream:
                # Entry truncated past its (valid) header: re-trace and
                # build the index afresh.
                batches, total = self._open(name, limit, retrace=True)
                index = LoopDetector(
                    cls_capacity=self.config.cls_capacity).run_batches(
                        batches, total)
            self._indexes[name] = index
        return self._indexes[name]

    def indexes(self):
        """``(name, index)`` for every workload, in configured order."""
        self.ensure_traced()
        return [(w.name, self.index(w.name)) for w in self._workloads]

    # -- streaming analysis --------------------------------------------------

    def analyze(self, suite):
        """Stream every workload once through *suite*.

        The single analysis entrypoint: per workload, the cache
        entry's batches (the in-memory trace in a cacheless session,
        or after an explicit :meth:`trace`) are replayed exactly once
        through the canonical
        :class:`LoopDetector`; the suite receives every record and loop
        event as it happens and each pass's ``finish`` sees the
        completed index.  ``stats.replays`` counts the replays — one
        per workload, however many passes are registered.

        Returns ``suite.results()``.
        """
        self.ensure_traced()
        for workload in self._workloads:
            self._analyze_one(workload, suite)
        return suite.results()

    def _analyze_one(self, workload, suite):
        name = workload.name
        limit = self.config.limit_for(workload)
        source = "memory" if name in self._traces else "cache"
        batches, total = self._open(name, limit)
        try:
            index = self._replay(workload, suite, batches, total,
                                 source=source)
        except _CorruptStream:
            # The cache entry was truncated past its (valid) header:
            # drop the partially fed state and replay from a fresh
            # trace.  Exceptions raised by analysis passes themselves
            # are NOT retried -- only the stream's own ValueError is
            # wrapped.
            suite.abort(self._context(workload, total))
            batches, total = self._open(name, limit, retrace=True)
            index = self._replay(workload, suite, batches, total,
                                 source="retraced")
        self._indexes.setdefault(name, index)

    def _context(self, workload, total, detector=None):
        from repro.analysis.base import WorkloadContext
        from repro.timing import make_timing

        # One timing-model instance per workload replay: record-fed
        # models accumulate per-workload state, so they must never be
        # shared across workloads (or survive an abort/retry).
        timing = (make_timing(self.config.timing)
                  if self.config.timing is not None else None)
        derived = None
        if self._derived is not None:
            derived = self._derived.store(TraceCache.key(
                workload.name, self.scale,
                self.config.limit_for(workload),
                self._fingerprint(workload.name)))
        return WorkloadContext(
            workload.name, total, workload=workload, scale=self.scale,
            cls_capacity=self.config.cls_capacity, detector=detector,
            timing=timing, derived=derived)

    def _replay(self, workload, suite, batches, total, source="memory"):
        """One full batched record-stream replay into *suite*; returns
        the loop index built by the canonical detector along the way.

        *batches* is an iterable of :class:`~repro.trace.batch.
        RecordBatch` (a cached v3 stream, or an in-memory trace through
        :func:`~repro.trace.batch.iter_batches`).  Per batch, the
        detector's columnar fast path turns the records into loop
        events first (the CLS-capacity sweep reads the canonical
        stack's fork points), then the records fan out to the suite's
        record consumers and the timing model, then the events fan out
        -- event order is identical to the per-record replay.
        """
        detector = LoopDetector(cls_capacity=self.config.cls_capacity)
        ctx = self._context(workload, total, detector)
        suite.begin(ctx)
        self.stats.replays += 1
        wants_records = suite.wants_records
        timing = ctx.timing
        timing_feed = (timing.feed_batch
                       if timing is not None and timing.wants_records
                       else None)
        feed_batch = suite.feed_batch
        detect_batch = detector.feed_batch
        # Loop events only fan out when some pass actually overrides
        # feed(); with every stock pass record-fed or finish-time, the
        # event stream has no takers and the replay is record-only.
        feed_events = None
        if getattr(suite, "has_event_consumers", True):
            feed_events = getattr(suite, "feed_events", None)
            if feed_events is None:       # suite-shaped duck type
                suite_feed = suite.feed

                def feed_events(events):
                    for event in events:
                        suite_feed(event)
        collector = obs.active()
        n_batches = n_records = 0
        with obs.span("replay", workload=workload.name, source=source):
            for batch in batches:
                if collector is not None:
                    n_batches += 1
                    n_records += len(batch)
                events = detect_batch(batch)
                if wants_records:
                    feed_batch(batch)
                if timing_feed is not None:
                    timing_feed(batch)
                if events and feed_events is not None:
                    feed_events(events)
            events = detector.finish(total)
            if events and feed_events is not None:
                feed_events(events)
            ctx.index = detector.index(total)
            with obs.span("finish", workload=workload.name):
                suite.finish(ctx)
        if collector is not None:
            collector.add("replay.batches", n_batches)
            collector.add("replay.records", n_records)
        if ctx.derived is not None:
            ctx.derived.flush()
        return ctx.index

    # -- pipeline ------------------------------------------------------------

    def ensure_traced(self, names=None):
        """Trace every listed workload (default: all) that is neither in
        memory nor in the cache, fanning out across ``config.jobs``
        processes."""
        if names is None:
            names = [w.name for w in self._workloads]
        else:
            names = [self._get(n).name for n in names]
        missing = []
        for name in names:
            if name in self._traces:
                continue
            limit = self.config.limit_for(self._by_name[name])
            if self._cache is not None and self._cache.has(
                    name, self.scale, limit, self._fingerprint(name)):
                self._mark(name, cached=True)
                continue
            missing.append((name, limit))
        if not missing:
            return
        # Unregistered workload objects cannot be resolved by name in a
        # child process; those trace inline below.
        pooled = [(n, l) for n, l in missing if self._poolable(n)]
        if self.config.jobs == 1 or len(pooled) <= 1:
            pooled = []
        results = {}
        if pooled:
            cache_dir = self.config.cache_dir
            collector = obs.active()
            observe = collector is not None
            with ProcessPoolExecutor(
                    max_workers=min(self.config.jobs,
                                    len(pooled))) as pool:
                futures = [
                    pool.submit(worker.trace_workload, name, self.scale,
                                limit, cache_dir, shared=True,
                                observe=observe)
                    for name, limit in pooled]
                # Futures are drained in submission order (the
                # configured workload order), so worker obs events
                # merge deterministically however tracing interleaved.
                for future in futures:
                    name, payload, *events = future.result()
                    results[name] = payload
                    if events and events[0] and collector is not None:
                        collector.absorb(events[0], workload=name)
        # Absorb in configured order so memoization and any downstream
        # iteration see a deterministic sequence.
        for name, limit in missing:
            if name not in results:
                self._trace_now(name, limit)
                continue
            self._mark(name, cached=False)
            payload = results[name]
            if payload is not None:
                # Cacheless pool results arrive through a shared-memory
                # segment (or raw v3 bytes as the fallback).
                self._traces[name] = worker.load_trace_payload(payload)
            # else: the worker streamed it into the cache; replays and
            # index() read it straight off disk.

    # -- internals -----------------------------------------------------------

    def _get(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError("workload %r not in this session" % name) \
                from None

    def _mark(self, name, cached):
        kind = "cache" if cached else "traced"
        prev = self._sources.get(name)
        if prev == kind or prev == "traced":
            return
        self._sources[name] = kind
        if cached:
            self.stats.cache_hits += 1
        else:
            if prev == "cache":
                # The cache entry turned out corrupt mid-stream and we
                # re-traced; it was never a usable hit.
                self.stats.cache_hits -= 1
            self.stats.traced += 1

    def _fingerprint(self, name):
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = program_fingerprint(
                self._by_name[name].program(self.scale))
            self._fingerprints[name] = fingerprint
        return fingerprint

    def _poolable(self, name):
        """A child process resolves names through the registry; only
        workloads whose name maps back to the same object can be
        traced in the pool."""
        try:
            return get(name) is self._by_name[name]
        except KeyError:
            return False

    def _from_cache(self, name, limit):
        if self._cache is None:
            return None
        trace = self._cache.load(name, self.scale, limit,
                                 self._fingerprint(name))
        if trace is not None:
            self._mark(name, cached=True)
        return trace

    def _trace_now(self, name, limit):
        """Trace inline through the shared worker entry point.

        With a cache the trace streams into it, and replays read the v3
        entry exactly as after a pooled trace; cacheless, the trace is
        memoized in memory."""
        self._mark(name, cached=False)
        with obs.span("trace", workload=name, mode="inline"):
            _, payload = worker.trace_workload(
                self._by_name[name], self.scale, limit,
                self.config.cache_dir)
        if payload is not None:
            self._traces[name] = worker.load_trace_payload(payload)

    def _open(self, name, limit, retrace=False):
        """``(batches, total_instructions)`` for one replay of *name*:
        the memoized trace, else the cache entry's v3 batch stream,
        which raises :class:`_CorruptStream` if the file turns out
        truncated mid-stream.  With *retrace* (or when the entry cannot
        be opened) *name* is traced afresh first, overwriting the
        entry."""
        if retrace:
            self._trace_now(name, limit)
        trace = self._traces.get(name)
        if trace is not None:
            return iter_batches(trace.records), trace.total_instructions
        fingerprint = self._fingerprint(name)
        stream = self._cache.open_batches(name, self.scale, limit,
                                          fingerprint)
        if stream is None:
            if retrace:
                raise OSError("trace cache entry for %r unreadable "
                              "right after writing it" % name)
            return self._open(name, limit, retrace=True)
        self._mark(name, cached=True)
        if obs.active() is not None:
            try:
                obs.add("cache.bytes_read", os.path.getsize(
                    self._cache.path(name, self.scale, limit,
                                     fingerprint)))
            except OSError:
                pass
        header, batches = stream
        return _guard_stream(batches), header.total_instructions
