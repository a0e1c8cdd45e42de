"""The per-layer split, measured from outside the program.

:class:`LayerClock` keeps a stack of timed frames.  :func:`install`
replaces public functions and methods of ``repro`` with wrappers that
open a frame named after the layer they belong to, so nested calls
split cleanly: a frame's *self* time is its wall time minus the wall
time of the frames opened inside it.  The self times of all layers
plus the time outside every frame add up to the wall time of the job;
``pipeline.session.self_s`` is that outside remainder.

Wrapping happens in the benchmark process only and nothing under
``src/`` changes.  Functions that other modules bound by name at
import time (``from repro.core.speculation import simulate``) are
replaced in every loaded ``repro`` module that holds them, so no call
site keeps the bare function.
"""

import os
import sys
import time

CLOCK = time.perf_counter

#: Layers whose self time is reported as ``<layer>_s``, in report order.
TIMED_LAYERS = (
    "cpu.trace",
    "cpu.trace_full",
    "core.dataspec",
    "trace.read",
    "core.detect",
    "core.tables",
    "core.speculation.grid",
    "core.speculation.simulate",
    "pipeline.derived.get",
    "pipeline.derived.put",
    "sweep.store.put",
    "sweep.store.get",
    "workloads.synthetic.generate",
    "lang.compile",
    "search.evaluate",
)

#: The ten paper experiments, whose ``finish`` self time is reported.
EXPERIMENTS = ("table1", "figure4", "figure5", "figure6", "figure7",
               "table2", "figure8", "ablations", "baselines",
               "extensions")

#: The record-fed experiments, whose ``feed`` self time is reported.
FED_EXPERIMENTS = ("figure5", "ablations", "baselines")

#: Counts that repeat exactly from run to run of the same code.
EXACT_COUNTS = (
    "cpu.trace_minstr",
    "cpu.trace_full_minstr",
    "core.detect_records",
    "core.detect_events",
    "core.speculation.grid_cells",
    "core.speculation.fused_cells",
    "core.speculation.simulate_calls",
    "pipeline.derived.hits",
    "pipeline.derived.misses",
    "sweep.store.put_rows",
)

#: A wrapped total and the program's own span total for the same calls
#: may differ by this much (seconds, plus a share of the larger one)
#: before the wrappers count as having missed a call site.
XCHECK_ABS_S = 0.02
XCHECK_REL = 0.05

MB = 1024.0 * 1024.0


class LayerClock:
    """Self and inclusive time per layer, plus work counters."""

    def __init__(self):
        self.self_s = {}
        self.total_s = {}      # outermost frames of each layer only
        self.counts = {}
        self._stack = []       # [layer, seconds of child frames]
        self._depth = {}       # layer -> open frames of that layer

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def parent(self):
        """The layer of the innermost open frame, or ``None``."""
        return self._stack[-1][0] if self._stack else None

    def depth(self, layer):
        return self._depth.get(layer, 0)

    def call(self, layer, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside one frame of *layer*."""
        frame = [layer, 0.0]
        self._stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = CLOCK() - start
            self._stack.pop()
            depth = self._depth[layer] - 1
            self._depth[layer] = depth
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + elapsed - frame[1])
            if depth == 0:
                self.total_s[layer] = (self.total_s.get(layer, 0.0)
                                       + elapsed)
            if self._stack:
                self._stack[-1][1] += elapsed

    def iterate(self, layer, iterable):
        """Yield from *iterable*, timing each step as a frame of
        *layer* (the consumer's own work stays outside the frame)."""
        iterator = iter(iterable)
        try:
            while True:
                try:
                    item = self.call(layer, next, iterator)
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def _file_mb(path):
    try:
        return os.path.getsize(path) / MB
    except (OSError, TypeError):
        return 0.0


def _rebind(original, wrapper):
    """Replace *original* by *wrapper* in every loaded ``repro``
    module that holds it as a module attribute."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(clock, original, layer, after=None):
    def wrapper(*args, **kwargs):
        result = clock.call(layer, original, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    _rebind(original, wrapper)
    return wrapper


def _wrap_method(clock, cls, name, layer, after=None):
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        result = clock.call(layer, original, self, *args, **kwargs)
        if after is not None:
            after(self, args, kwargs, result)
        return result
    setattr(cls, name, wrapper)


def install(clock):
    """Wrap every measured public call of ``repro``; once per process
    (each traced repetition runs in a fresh one)."""
    from repro.core.dataspec.stats import DataSpeculationAnalyzer
    from repro.core.detector import LoopDetector
    from repro.core.speculation import engine, grid
    from repro.core.tables import TableHitRatioSimulator
    from repro.cpu.tracer import ChunkedFullTracer
    from repro.lang import compiler
    from repro.pipeline import worker
    from repro.pipeline.cache import TraceCache
    from repro.pipeline.derived import DerivedStore
    from repro.search import evaluate
    from repro.sweep.store import SweepStore
    from repro.workloads.synthetic import generator

    # -- cpu: CF tracing (interpretation plus the cache write) ------------
    _wrap_function(clock, worker.trace_workload, "cpu.trace")

    def stored(self, args, kwargs, path):
        traced = args[0]    # a CFTrace, or a drained ChunkedCFTracer
        clock.add("cpu.trace_instructions", traced.total_instructions)
        clock.add("trace.write_mb", _file_mb(path))

    _wrap_method(clock, TraceCache, "store", "cpu.trace", stored)
    _wrap_method(clock, TraceCache, "store_stream", "cpu.trace", stored)

    full_batches = ChunkedFullTracer.batches

    def batches(self):
        yield from clock.iterate("cpu.trace_full", full_batches(self))
        clock.add("cpu.trace_full_instructions", self.total_instructions)
    ChunkedFullTracer.batches = batches

    _wrap_method(clock, DataSpeculationAnalyzer, "analyze_batches",
                 "core.dataspec")

    # -- trace: v3 reads ---------------------------------------------------
    open_batches = TraceCache.open_batches

    def opened(self, *args):
        stream = clock.call("trace.read", open_batches, self, *args)
        if stream is None:
            return None
        clock.add("trace.read_mb", _file_mb(self.path(*args)))
        header, iterator = stream
        return header, clock.iterate("trace.read", iterator)
    TraceCache.open_batches = opened

    def loaded(self, args, kwargs, trace):
        if trace is not None:
            clock.add("trace.read_mb", _file_mb(self.path(*args)))
    _wrap_method(clock, TraceCache, "load", "trace.read", loaded)
    _wrap_method(clock, TraceCache, "has", "trace.read")

    # -- core: CLS loop detection ------------------------------------------
    for name in ("feed_batch", "finish", "run", "run_batches"):
        _wrap_detector(clock, LoopDetector, name)

    _wrap_method(clock, TableHitRatioSimulator, "ensure_replayed",
                 "core.tables")

    # -- core.speculation: the fused grid and the per-config engine --------
    def grid_cells(args, kwargs, results):
        clock.add("core.speculation.grid_cells", len(results))
    _wrap_function(clock, grid.simulate_grid, "core.speculation.grid",
                   grid_cells)
    for original in (engine.simulate, engine.simulate_infinite):
        _wrap_simulate(clock, original)

    # -- pipeline: the derived-results store ---------------------------------
    def got(self, args, kwargs, value):
        clock.add("pipeline.derived.hits" if value is not None
                  else "pipeline.derived.misses")
    _wrap_method(clock, DerivedStore, "get", "pipeline.derived.get", got)
    _wrap_method(clock, DerivedStore, "put", "pipeline.derived.put")
    _wrap_method(clock, DerivedStore, "put_cells", "pipeline.derived.put")
    flush = DerivedStore.flush

    def flushed(self):
        dirty = self._dirty
        clock.call("pipeline.derived.put", flush, self)
        if dirty:
            clock.add("pipeline.derived.write_mb", _file_mb(self.path))
    DerivedStore.flush = flushed

    # -- sweep: the sqlite result store --------------------------------------
    def put_rows(self, args, kwargs, result):
        clock.add("sweep.store.put_rows", len(args[0]))
    _wrap_method(clock, SweepStore, "put_cells", "sweep.store.put",
                 put_rows)
    _wrap_method(clock, SweepStore, "record_sweep", "sweep.store.put")

    def get_rows(self, args, kwargs, rows):
        clock.add("sweep.store.get_rows", len(rows))
    _wrap_method(clock, SweepStore, "get_cells", "sweep.store.get",
                 get_rows)
    _wrap_method(clock, SweepStore, "done_keys", "sweep.store.get",
                 get_rows)

    # -- search, synthetic generation, compilation --------------------------
    _wrap_function(clock, generator.generate_module,
                   "workloads.synthetic.generate")
    _wrap_function(clock, compiler.compile_module, "lang.compile")
    _wrap_function(clock, evaluate.evaluate_candidate, "search.evaluate")


def _wrap_detector(clock, cls, name):
    """Detector entry points: time, plus records fed and loop events
    emitted (counted once, at the outermost detector frame)."""
    original = getattr(cls, name)

    def wrapper(self, *args):
        outermost = clock.depth("core.detect") == 0
        before = len(self.events)
        result = clock.call("core.detect", original, self, *args)
        if name == "feed_batch":
            clock.add("core.detect_records", len(args[0]))
        elif name == "run":
            records = getattr(args[0], "records", args[0])
            if hasattr(records, "__len__"):
                clock.add("core.detect_records", len(records))
        if outermost:
            clock.add("core.detect_events", len(self.events) - before)
        return result
    setattr(cls, name, wrapper)


def _wrap_simulate(clock, original):
    """A per-config engine entry point; a call made from inside the
    fused grid is one of its fallback cells."""
    def wrapper(*args, **kwargs):
        if clock.parent() == "core.speculation.grid":
            clock.add("core.speculation.fallback_cells")
        clock.add("core.speculation.simulate_calls")
        return clock.call("core.speculation.simulate", original,
                          *args, **kwargs)
    _rebind(original, wrapper)


def wrap_suite(clock, suite):
    """Time each registered analysis pass's ``feed``/``feed_batch``
    and ``finish`` under ``analysis.<name>.feed`` / ``.finish``."""
    for name, analysis in zip(suite.names, suite.analyses):
        for method, phase in (("feed_batch", "feed"), ("feed", "feed"),
                              ("finish", "finish")):
            bound = getattr(analysis, method)
            layer = "analysis.%s.%s" % (name, phase)

            def wrapper(*args, _bound=bound, _layer=layer):
                return clock.call(_layer, _bound, *args)
            setattr(analysis, method, wrapper)


def split(clock, run_s):
    """The per-layer metrics of one traced job of *run_s* seconds."""
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[layer + "_s"] = clock.self_s.get(layer, 0.0)
    counts = clock.counts
    metrics["cpu.trace_minstr"] = \
        counts.get("cpu.trace_instructions", 0) / 1e6
    metrics["cpu.trace_full_minstr"] = \
        counts.get("cpu.trace_full_instructions", 0) / 1e6
    for name in ("trace.read_mb", "trace.write_mb",
                 "pipeline.derived.write_mb"):
        metrics[name] = counts.get(name, 0.0)
    for name in ("core.detect_records", "core.detect_events",
                 "core.speculation.grid_cells",
                 "core.speculation.simulate_calls",
                 "pipeline.derived.hits", "pipeline.derived.misses",
                 "sweep.store.put_rows", "sweep.store.get_rows"):
        metrics[name] = counts.get(name, 0)
    fallback = counts.get("core.speculation.fallback_cells", 0)
    fused = counts.get("core.speculation.grid_cells", 0) - fallback
    direct = counts.get("core.speculation.simulate_calls", 0) - fallback
    priced = fused + fallback + direct
    metrics["core.speculation.fused_cells"] = fused
    metrics["core.speculation.fused_share"] = \
        fused / priced if priced else 0.0
    for name in FED_EXPERIMENTS:
        metrics["analysis.%s.feed_s" % name] = \
            clock.self_s.get("analysis.%s.feed" % name, 0.0)
    for name in EXPERIMENTS:
        metrics["analysis.%s.finish_s" % name] = \
            clock.self_s.get("analysis.%s.finish" % name, 0.0)
    # Host-speed sampling bursts taken during the job (see job.py).
    metrics["bench.host_samples_s"] = clock.self_s.get(
        "bench.host_samples", 0.0)
    # Everything no listed layer claimed: the session, orchestrator and
    # search-loop glue, result rendering, and the feed of any pass
    # beyond FED_EXPERIMENTS.
    metrics["pipeline.session.self_s"] = run_s - sum(
        value for key, value in metrics.items() if key.endswith("_s"))
    return metrics
