"""The ablations CLS-capacity sweep against independent stacks.

``AblationsAnalysis`` reports, per CLS capacity, how many live loops
the stack dropped on overflow and how many executions it started.
Whatever the sweep does to save work, every ``(overflow_count,
executions)`` pair must equal what a fresh ``CurrentLoopStack`` of
that capacity reports when it walks the whole trace record by record.
The cases cover the 18 analogs, the frontier corpus, hypothesis
programs, a nest deeper than any capacity, three batch sizes, three
canonical capacities, and derived-store runs with part of the sweep
cached.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import driver
from repro.analysis.driver import analyze_trace
from repro.core.cls import CurrentLoopStack
from repro.core.events import ExecutionStart, SingleIteration
from repro.cpu import trace_control_flow
from repro.experiments.ablations import AblationsAnalysis
from repro.isa import assemble
from repro.obs import collector as obs
from repro.obs.collector import Collector
from repro.search.corpus import frontier_names
from repro.trace.batch import iter_batches
from repro.workloads import SUITE_ORDER, get

from test_tracer import looped_programs

SWEEP = (2, 4, 8, 16)
BATCH_SIZES = (1, 7, 65_536)
CANONICAL_CAPACITIES = (2, 4, 16)


def reference_counts(records, capacity):
    """``(overflow_count, executions)`` of an independent stack walked
    record by record; executions are the started ones, counted from
    the event stream."""
    stack = CurrentLoopStack(capacity=capacity)
    executions = 0
    for rec in records:
        for event in stack.process(rec.seq, rec.pc, rec.kind, rec.taken,
                                   rec.target):
            if type(event) is ExecutionStart \
                    or type(event) is SingleIteration:
                executions += 1
    return stack.overflow_count, executions


def sweep_counts(trace, cls_capacity, capacities, batch_records,
                 monkeypatch):
    """The sweep's per-capacity counts after one ``analyze_trace`` pass
    whose replay cuts *trace* into *batch_records*-record batches."""
    monkeypatch.setattr(driver, "iter_batches", functools.partial(
        iter_batches, batch_records=batch_records))
    analysis = AblationsAnalysis(capacities=capacities, parts=("cls",))
    analyze_trace([analysis], trace, cls_capacity=cls_capacity)
    return {capacity: tuple(analysis._cls[capacity])
            for capacity in capacities}


def deep_nest_source(depth=18, repeats=3):
    """Assembly for ``depth + 1`` nested loops, run *repeats* times.

    Each of the ``depth - 1`` middle loops skips its inner loop on its
    first iteration, so it is detected after a short first iteration
    and enters the inner loop on its second: the stack reaches its
    full depth in time linear in the nest, and every capacity below
    ``depth + 1`` overflows.
    """
    counters = ["t%d" % i for i in range(10)] \
        + ["s%d" % i for i in range(10)]
    assert depth - 1 <= len(counters)
    lines = ["main:", "    li a1, 0", "drive:"]
    for level in range(depth - 1):
        reg = counters[level]
        lines += ["    li %s, 0" % reg,
                  "L%d:" % level,
                  "    beq %s, zero, S%d" % (reg, level)]
    lines += ["    li a2, 0",
              "inner:",
              "    addi a2, a2, 1",
              "    li x0, 5",
              "    blt a2, x0, inner"]
    for level in reversed(range(depth - 1)):
        reg = counters[level]
        lines += ["S%d:" % level,
                  "    addi %s, %s, 1" % (reg, reg),
                  "    li x0, 2",
                  "    blt %s, x0, L%d" % (reg, level)]
    lines += ["    addi a1, a1, 1",
              "    li x0, %d" % repeats,
              "    blt a1, x0, drive",
              "    halt"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _trace(name):
    if name == "deep-nest":
        return trace_control_flow(assemble(deep_nest_source(), name),
                                  max_instructions=1_000_000)
    return get(name).cf_trace()


@functools.lru_cache(maxsize=None)
def _reference(name, capacity):
    return reference_counts(_trace(name).records, capacity)


#: Every analog and every frontier case.
PROGRAMS = list(SUITE_ORDER) + frontier_names()


@pytest.mark.parametrize("cls_capacity", CANONICAL_CAPACITIES)
@pytest.mark.parametrize("batch_records", BATCH_SIZES)
@pytest.mark.parametrize("name", PROGRAMS)
def test_sweep_matches_independent_stacks(name, batch_records,
                                          cls_capacity, monkeypatch):
    got = sweep_counts(_trace(name), cls_capacity, SWEEP, batch_records,
                       monkeypatch)
    assert got == {capacity: _reference(name, capacity)
                   for capacity in SWEEP}


def test_deep_nest_reaches_past_every_capacity():
    """The synthetic nest is 19 loops deep, so every capacity from 1
    to 16 drops live loops."""
    for capacity in range(1, 17):
        assert _reference("deep-nest", capacity)[0] > 0, capacity
    assert _reference("deep-nest", 19)[0] == 0


@pytest.mark.parametrize("cls_capacity", CANONICAL_CAPACITIES)
@pytest.mark.parametrize("batch_records", BATCH_SIZES)
def test_deep_nest_every_capacity(batch_records, cls_capacity,
                                  monkeypatch):
    capacities = tuple(range(1, 17))
    got = sweep_counts(_trace("deep-nest"), cls_capacity, capacities,
                       batch_records, monkeypatch)
    assert got == {capacity: _reference("deep-nest", capacity)
                   for capacity in capacities}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(looped_programs())
def test_hypothesis_programs(monkeypatch, program):
    trace = trace_control_flow(program, max_instructions=100_000)
    expected = {capacity: reference_counts(trace.records, capacity)
                for capacity in SWEEP}
    for batch_records in BATCH_SIZES:
        for cls_capacity in CANONICAL_CAPACITIES:
            assert sweep_counts(trace, cls_capacity, SWEEP, batch_records,
                                monkeypatch) == expected


#: Analogs where some sweep capacity below 16 overflows, plus one where
#: none does.
STORE_WORKLOADS = ("go", "applu", "li", "swim")


@pytest.mark.parametrize("cls_capacity", (4, 16))
def test_derived_store_partly_cached(tmp_path, cls_capacity):
    """A first run caches some capacities; the second sweeps the rest
    and reads the cached ones back.  Both must match the independent
    stacks, workload by workload."""
    from repro.analysis import AnalysisSuite
    from repro.pipeline import SimulationSession

    def run(capacities):
        session = SimulationSession(workloads=STORE_WORKLOADS,
                                    cache_dir=str(tmp_path),
                                    cls_capacity=cls_capacity)
        per_workload = {}

        class PerWorkload(AblationsAnalysis):
            def finish(self, ctx):
                before = {c: tuple(self._cls[c]) for c in self.capacities}
                super().finish(ctx)
                per_workload[ctx.name] = {
                    c: (self._cls[c][0] - before[c][0],
                        self._cls[c][1] - before[c][1])
                    for c in self.capacities}

        session.analyze(AnalysisSuite([PerWorkload(capacities=capacities,
                                                   parts=("cls",))]))
        return per_workload

    first = run((2, 8))
    second = run(SWEEP)
    for name in STORE_WORKLOADS:
        assert first[name] == {c: _reference(name, c) for c in (2, 8)}
        assert second[name] == {c: _reference(name, c) for c in SWEEP}


# ---------------------------------------------------------------------------
# CurrentLoopStack.fork: the forked stack is the independent one.
# ---------------------------------------------------------------------------

ENTRY_FIELDS = ("t", "b", "exec_id", "iteration", "iter_start_seq",
                "exec_start_seq", "depth")


def stack_state(stack):
    return ([tuple(getattr(entry, field) for field in ENTRY_FIELDS)
             for entry in stack.entries],
            stack.next_exec_id, stack.overflow_count, stack.max_depth,
            [(seq, next_id, [tuple(getattr(entry, field)
                                   for field in ENTRY_FIELDS)
                             for entry in entries])
             for seq, next_id, entries in stack.first_reach])


def walk(stack, records):
    """Feed *records* one at a time; the reprs of every event, in
    order (events carry no ``__eq__``)."""
    return [repr(event) for rec in records
            for event in stack.process(rec.seq, rec.pc, rec.kind,
                                       rec.taken, rec.target)]


#: The analogs whose nests outgrow capacity 4 (so some capacity forks
#: mid-trace), plus the synthetic nest that outgrows every capacity.
FORKING_PROGRAMS = ("applu", "fpppp", "go", "ijpeg", "li", "turb3d",
                    "deep-nest")


@pytest.mark.parametrize("name", FORKING_PROGRAMS)
def test_fork_state_is_exact(name):
    records = _trace(name).records
    canonical = CurrentLoopStack(capacity=16)
    walk(canonical, records)
    seqs = [rec.seq for rec in records]
    forked = 0
    for capacity in range(1, 16):
        # Capacities that never fork are the canonical counts, pinned
        # by the sweep tests above.
        reached = canonical.fork(capacity)
        if reached is None:
            continue
        forked += 1
        seq, fork = reached
        independent = CurrentLoopStack(capacity=capacity)
        position = seqs.index(seq)
        walk(independent, records[:position + 1])
        assert stack_state(fork) == stack_state(independent), capacity
        assert fork.overflow_count == 1
        rest = records[position + 1:]
        assert walk(fork, rest) == walk(independent, rest), capacity
        total = seqs[-1] + 1
        assert [repr(e) for e in fork.flush(total)] \
            == [repr(e) for e in independent.flush(total)]
        assert stack_state(fork) == stack_state(independent)
    assert forked >= 2
    if name == "deep-nest":
        assert forked == 15


def test_fork_bounds():
    stack = CurrentLoopStack(capacity=4)
    for bad in (0, 4, 5):
        with pytest.raises(ValueError):
            stack.fork(bad)
    assert stack.fork(1) is None          # never got two deep
    stack.process(0, 100, 1, True, 90)    # push loop 90 at depth 1
    assert stack.fork(1) is None
    stack.process(1, 80, 1, True, 70)     # depth 2: capacity 1 forks
    seq, fork = stack.fork(1)
    assert seq == 1
    assert [(e.t, e.depth) for e in fork.entries] == [(70, 1)]
    assert (fork.next_exec_id, fork.overflow_count) == (2, 1)
    # The snapshot is a copy: later pushes leave the fork point alone.
    stack.process(2, 60, 1, True, 50)
    assert stack.fork(1)[1].entries[0].b == 80


@pytest.mark.parametrize("cls_capacity", (4, 16))
def test_obs_counts_forks_and_walked_records(cls_capacity, monkeypatch):
    """Forked capacities walk only the records after their fork point;
    capacities above the canonical one walk every record."""
    records = _trace("deep-nest").records
    collector = obs.activate(Collector())
    try:
        sweep_counts(_trace("deep-nest"), cls_capacity, SWEEP, 65_536,
                     monkeypatch)
    finally:
        obs.deactivate()
    canonical = CurrentLoopStack(capacity=cls_capacity)
    walk(canonical, records)
    seqs = [rec.seq for rec in records]
    forked = [c for c in SWEEP if c < cls_capacity]
    walked = sum(len(seqs) - 1 - seqs.index(canonical.fork(c)[0])
                 for c in forked)
    walked += len(records) * sum(1 for c in SWEEP if c > cls_capacity)
    counters = collector.counters
    assert counters["analysis.cls_sweep.forks"] == len(forked)
    assert counters["analysis.cls_sweep.walked_records"] == walked


def test_sweep_refuses_a_lagging_detector():
    """The fork points are read after each batch, so a detector fed
    after the sweep would go unnoticed; the sweep says so instead of
    miscounting."""
    from repro.analysis.base import WorkloadContext
    from repro.core.detector import LoopDetector

    trace = _trace("deep-nest")
    detector = LoopDetector(cls_capacity=16)
    analysis = AblationsAnalysis(parts=("cls",))
    analysis.begin(WorkloadContext("deep-nest", trace.total_instructions,
                                   detector=detector))
    with pytest.raises(RuntimeError, match="canonical detector"):
        for batch in iter_batches(trace.records, 7):
            analysis.feed_batch(batch)
            detector.feed_batch(batch)
