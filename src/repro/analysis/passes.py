"""Reusable building-block passes.

These are the generic measurements the experiment modules (and the
example scripts) compose: per-workload loop statistics, speculation
simulations, and the shared full-trace data-speculation study.
"""

from repro.core.events import ExecutionEnd, SingleIteration
from repro.core.loopstats import LoopStatistics
from repro.core.speculation import simulate, simulate_grid, \
    simulate_infinite
from repro.core.dataspec import DataSpeculationAnalyzer
from repro.core.dataspec.stats import DataSpecStats
from repro.core.tables import POLICY_LRU, TableHitRatioSimulator
from repro.pipeline.derived import derived_key
from repro.timing import make_timing

from repro.analysis.base import Analysis


def effective_timing(ctx, timing=None):
    """Resolve the timing model a speculation pass should use.

    An explicit *timing* (model instance or spec string) wins;
    otherwise the session-wide default ``ctx.timing`` applies.  Spec
    strings resolve once per workload through ``ctx.shared`` so passes
    naming the same spec share one instance; record-fed specs are
    rejected here -- by the time a pass runs, the record stream has
    gone by, so such models can only be configured session-wide
    (``--timing`` / ``PipelineConfig.timing``), which feeds them
    during the replay.  The ideal model canonicalizes to ``None`` --
    the engine's default -- so explicitly requesting ``"ideal"``
    shares simulations (and memo keys) with passes that never mention
    timing at all.
    """
    if timing is None:
        timing = ctx.timing
    if isinstance(timing, str):
        key = ("timing-model", timing)
        model = ctx.shared.get(key)
        if model is None:
            model = make_timing(timing)
            if model.wants_records:
                raise ValueError(
                    "timing model %r needs the record stream and "
                    "cannot be created inside a pass; configure it "
                    "session-wide (--timing / PipelineConfig.timing) "
                    "so the replay feeds it" % timing)
            ctx.shared[key] = model
        timing = model
    if timing is not None and timing.key() == ("ideal",):
        return None
    return timing


class LoopStatisticsPass(Analysis):
    """Table-1 statistics, one :class:`LoopStatistics` per workload.

    Every execution record is complete by the time its
    :class:`~repro.core.events.ExecutionEnd` (or
    :class:`~repro.core.events.SingleIteration`) event exists -- the
    CLS guarantees exactly one terminating event per execution, end of
    trace included.  The pass therefore consumes no per-event stream at
    all: at ``finish`` it walks the terminating positions of the
    index's event columns and observes each execution in event order.
    """

    def __init__(self):
        self.by_name = {}
        self._stats = None

    def begin(self, ctx):
        self._stats = LoopStatistics(ctx.name)
        self._stats.total_instructions = ctx.total_instructions

    def abort(self, ctx):
        self._stats = None

    def finish(self, ctx):
        from repro.core.detector import EV_EXEC_END, EV_SINGLE

        stats = self._stats
        index = ctx.index
        columns = getattr(index, "columns", None)
        if columns is not None:
            cols = columns()
            etypes = cols.etypes
            exec_ids = cols.exec_ids
            executions = index.executions
            observe = stats.observe
            for i in range(len(etypes)):
                etype = etypes[i]
                if etype == EV_EXEC_END or etype == EV_SINGLE:
                    observe(executions[exec_ids[i]])
        else:
            for event in index.events:
                etype = type(event)
                if etype is ExecutionEnd or etype is SingleIteration:
                    stats.observe(ctx.execution(event.exec_id))
        self.by_name[ctx.name] = stats.finalize()
        self._stats = None

    def result(self):
        return self.by_name


class SpeculationPass(Analysis):
    """Thread-control speculation per workload.

    The engine is an *oracle*: at spawn time it reads the speculated
    iterations' future boundary sequence numbers from the loop index,
    so it runs in ``finish`` against the completed ``ctx.index`` --
    still one trace replay, with the event list shared by every pass.
    ``num_tus=None`` selects the idealized infinite-TU study.
    """

    def __init__(self, num_tus=4, policy="str", timing=None, **kwargs):
        self.num_tus = num_tus
        self.policy = policy
        self.timing = timing
        self.kwargs = kwargs
        self.by_name = {}

    def finish(self, ctx):
        if self.num_tus is None:
            result = simulate_infinite(
                ctx.index, name=ctx.name,
                timing=effective_timing(ctx, self.timing))
        elif not self.kwargs:
            # Default-configuration cells go through the shared memo,
            # so several SpeculationPass instances in one suite batch
            # with the experiments sweeping the same cells (and share
            # the derived store both ways).
            result = shared_simulate(ctx, self.num_tus, self.policy,
                                     timing=self.timing)
        else:
            result = simulate(ctx.index, num_tus=self.num_tus,
                              policy=self.policy, name=ctx.name,
                              timing=effective_timing(ctx, self.timing),
                              **self.kwargs)
        self.by_name[ctx.name] = result

    def result(self):
        return self.by_name


#: ``ctx.shared`` key prefix for shared LET/LIT hit-ratio simulators.
_TABLE_SIM_KEY = "table-sim"


def shared_table_sim(ctx, let_entries, lit_entries, policy=POLICY_LRU):
    """A :class:`TableHitRatioSimulator` shared across passes for this
    replay; returns ``(sim, owned)``.

    Several experiments sweep the same table configuration (figure4's
    size-2/4 LRU pairs reappear in the replacement-policy ablation).
    The simulator is *not* fed during the replay: every consumer calls
    :meth:`~repro.core.tables.TableHitRatioSimulator.ensure_replayed`
    on the finished ``ctx.index`` at ``finish`` and then reads the
    counters -- the first call performs the (columnar) walk, the rest
    are free.  ``owned`` reports whether this call created the
    simulator, for passes that care about setup (listeners etc.).
    """
    key = (_TABLE_SIM_KEY, let_entries, lit_entries, policy)
    sim = ctx.shared.get(key)
    if sim is not None:
        return sim, False
    sim = TableHitRatioSimulator(let_entries, lit_entries, policy)
    ctx.shared[key] = sim
    return sim, True


#: ``ctx.shared`` key prefix for memoized speculation simulations.
_SIMULATE_KEY = "simulate"


def shared_simulate(ctx, num_tus, policy, timing=None):
    """A default-configuration speculation simulation, computed at most
    once per replay no matter how many passes ask.

    Several experiments request the exact same deterministic run
    (figure6's STR sweep reappears inside figure7; table2's STR(3) with
    4 TUs too), so the single-pass suite runs each distinct
    ``(num_tus, policy, timing)`` once and shares the result.  *timing*
    (a model instance or spec string; default: the session-wide
    ``ctx.timing``) keys the memo through the model's canonical
    :meth:`~repro.timing.base.TimingModel.key`, with the ideal model
    collapsing onto the timing-free key.  The returned
    :class:`SpeculationResult` is shared — treat it as read-only.
    Non-default configurations (disable tables, bounded LETs,
    ``count_waiting=False``) mutate or change the run; call
    :func:`repro.core.speculation.simulate` directly for those.
    """
    timing = effective_timing(ctx, timing)
    if timing is None:
        key = (_SIMULATE_KEY, num_tus, policy)
    else:
        key = (_SIMULATE_KEY, num_tus, policy, timing.key())
    result = ctx.shared.get(key)
    if result is None:
        dkey = derived_key(*key) + "/c%d" % ctx.cls_capacity
        result = _restore_result(ctx.derived, dkey)
        if result is None:
            result = simulate(ctx.index, num_tus=num_tus, policy=policy,
                              name=ctx.name, timing=timing)
            if ctx.derived is not None:
                ctx.derived.put(dkey, result.state())
        ctx.shared[key] = result
    return result


def shared_simulate_many(ctx, specs):
    """Batch form of :func:`shared_simulate`: every ``(num_tus,
    policy, timing)`` in *specs*, resolved through one fused
    :func:`~repro.core.speculation.grid.simulate_grid` call.

    Memo keys, derived-store cell keys, and results are identical to
    calling :func:`shared_simulate` once per spec -- this is purely the
    fast path for experiments that sweep whole per-workload config
    grids (sensitivity, figure6/figure7, table2).  Returns the results
    in spec order; duplicate specs are welcome and share one cell.
    """
    results = []
    missing = []        # (memo key, dkey, config) of cells to compute
    pending = {}        # memo key -> slots awaiting the grid result
    for num_tus, policy, timing in specs:
        timing = effective_timing(ctx, timing)
        if timing is None:
            key = (_SIMULATE_KEY, num_tus, policy)
        else:
            key = (_SIMULATE_KEY, num_tus, policy, timing.key())
        result = ctx.shared.get(key)
        if result is None and key not in pending:
            dkey = derived_key(*key) + "/c%d" % ctx.cls_capacity
            result = _restore_result(ctx.derived, dkey)
            if result is None:
                missing.append((key, dkey, (num_tus, policy, timing)))
                pending[key] = []
            else:
                ctx.shared[key] = result
        if result is None:
            pending[key].append(len(results))
            results.append(None)
        else:
            results.append(result)
    if missing:
        computed = simulate_grid(ctx.index,
                                 [config for _, _, config in missing],
                                 name=ctx.name)
        if ctx.derived is not None:
            ctx.derived.put_cells(
                (dkey, result.state())
                for (_, dkey, _), result in zip(missing, computed))
        for (key, _, _), result in zip(missing, computed):
            ctx.shared[key] = result
            for slot in pending[key]:
                results[slot] = result
    return results


def _restore_result(derived, dkey):
    """A :class:`SpeculationResult` from the derived store, or ``None``
    on miss/malformed payload."""
    if derived is None:
        return None
    state = derived.get(dkey)
    if state is None:
        return None
    from repro.core.speculation.metrics import SpeculationResult

    try:
        return SpeculationResult.from_state(state)
    except (KeyError, TypeError):
        return None


#: ``ctx.shared`` key prefix for memoized data-speculation statistics.
_DATASPEC_KEY = "dataspec-stats"


def shared_dataspec_stats(ctx, max_instructions):
    """The full-trace data-speculation statistics for this workload,
    computed at most once per replay no matter how many passes ask
    (figure8 and the extensions study share one full-effects stream
    and one analysis).

    The stream is per basic block: a
    :class:`~repro.cpu.tracer.ChunkedFullTracer` runs compiled blocks
    and feeds each block's closing transfer and live-in candidates
    straight into :meth:`~repro.core.dataspec.stats.
    DataSpeculationAnalyzer.analyze_batches`, so no per-instruction
    trace is ever materialized.
    """
    key = (_DATASPEC_KEY, max_instructions)
    stats = ctx.shared.get(key)
    if stats is None:
        dkey = derived_key(_DATASPEC_KEY, max_instructions) \
            + "/c%d" % ctx.cls_capacity
        if ctx.derived is not None:
            state = ctx.derived.get(dkey)
            if state is not None:
                try:
                    stats = DataSpecStats.from_state(state)
                except (KeyError, TypeError):
                    stats = None
        if stats is None:
            from repro.cpu.tracer import ChunkedFullTracer

            tracer = ChunkedFullTracer(ctx.workload.program(ctx.scale),
                                       max_instructions)
            analyzer = DataSpeculationAnalyzer(
                cls_capacity=ctx.cls_capacity)
            stats = analyzer.analyze_batches(tracer.batches(), ctx.name)
            if ctx.derived is not None:
                ctx.derived.put(dkey, stats.state())
        ctx.shared[key] = stats
    return stats


class DataSpecPass(Analysis):
    """Per-workload section-4 data-speculation statistics (full trace,
    bounded to *max_instructions*), shared through ``ctx.shared``."""

    def __init__(self, max_instructions):
        self.max_instructions = max_instructions
        self.by_name = {}

    def finish(self, ctx):
        self.by_name[ctx.name] = shared_dataspec_stats(
            ctx, self.max_instructions)

    def result(self):
        return self.by_name
