"""Ablations for the design choices the paper discusses in passing.

1. **Replacement policy** (section 2.3.2): LRU vs the nesting-aware
   insertion inhibit.  The paper found the improvement negligible.
2. **TPC accounting**: counting a correct thread's waiting-for-
   confirmation cycles vs only its executing cycles (see the
   modelling notes in docs/ARCHITECTURE.md).
3. **CLS capacity** (section 2.2): how small a CLS starts dropping
   live loops (the paper argues 16 entries never overflow on SPEC95).

All three ride the shared replay: the replacement sweep replays one
table-simulator pair per (size, policy) over the finished loop index
(a columnar walk, shared with figure4), and the CLS sweep reads the
canonical detector -- no per-ablation trace re-replays.

A capacity ``k`` below the canonical one behaves exactly like the
canonical stack until that stack first pushes to depth ``k + 1``; the
sweep then forks ``k``'s exact state off the canonical stack
(:meth:`~repro.core.cls.CurrentLoopStack.fork`) and walks only the
records after that push.  A capacity the canonical stack never
outgrows is the canonical stack's own count.  Capacities above the
canonical one walk the whole trace on stacks of their own.  The fork
points are read after each batch, so the canonical detector must see
a batch before the sweep does (the session and ``analyze_trace``
feed it first).
"""

from bisect import bisect_right

from repro.analysis import Analysis, register_analysis, \
    shared_simulate, shared_table_sim
from repro.core.cls import CurrentLoopStack
from repro.core.tables import POLICY_LRU, POLICY_NESTING_AWARE
from repro.experiments.report import ExperimentResult, TimingMeta
from repro.obs import collector as obs
from repro.trace.batch import RecordBatch

REPLACEMENT_SIZES = (2, 4)
REPLACEMENT_POLICIES = (POLICY_LRU, POLICY_NESTING_AWARE)
CLS_CAPACITIES = (2, 4, 8, 16)
WAITING_NUM_TUS = 4


ALL_PARTS = ("replacement", "waiting", "cls")


@register_analysis("ablations")
class AblationsAnalysis(Analysis):
    def __init__(self, sizes=REPLACEMENT_SIZES,
                 capacities=CLS_CAPACITIES, num_tus=WAITING_NUM_TUS,
                 parts=ALL_PARTS):
        unknown = set(parts) - set(ALL_PARTS)
        if unknown:
            raise ValueError("unknown ablation parts: %s"
                             % ", ".join(sorted(unknown)))
        self.parts = tuple(parts)
        self.sizes = sizes
        self.capacities = capacities
        self.num_tus = num_tus
        # Records are only needed for the CLS capacity sweep.
        self.wants_records = "cls" in self.parts
        # replacement sweep: (size, policy) -> [let_h, let_a, lit_h, lit_a]
        self._replacement = {(size, policy): [0, 0, 0, 0]
                             for size in sizes
                             for policy in REPLACEMENT_POLICIES}
        self._waiting_rows = []
        self._waiting_timing = TimingMeta()
        # CLS sweep: capacity -> [overflow drops, executions]
        self._cls = {capacity: [0, 0] for capacity in capacities}
        self._sims = None
        self._reset_sweep()

    def _reset_sweep(self):
        self._canonical = None
        self._cls_cached = {}
        self._walking = {}          # capacity -> its own stack
        self._following = []        # capacities still equal to canonical
        self._walked = 0            # records walked by sweep stacks
        self._forks = 0

    def begin(self, ctx):
        if "replacement" in self.parts:
            # Table simulators are shared per configuration across the
            # suite (figure4 sweeps the same LRU sizes); each replays
            # the finished index once, at the first consumer's finish.
            self._sims = {}
            for size, policy in self._replacement:
                sim, _ = shared_table_sim(ctx, size, size, policy)
                self._sims[(size, policy)] = sim
        if "cls" in self.parts:
            # The sweep only asks how often each CLS size drops a live
            # loop and how many executions it starts, so it runs bare
            # CurrentLoopStacks (no event consumers).  Counts already
            # in the derived store skip their stack entirely.
            self._reset_sweep()
            canonical = self._canonical = ctx.detector.cls
            for capacity in sorted(set(self.capacities)):
                if capacity == canonical.capacity:
                    continue
                counts = (ctx.derived.get(self._cls_key(capacity))
                          if ctx.derived is not None else None)
                if (isinstance(counts, list) and len(counts) == 2
                        and all(isinstance(c, int) for c in counts)):
                    self._cls_cached[capacity] = counts
                elif capacity > canonical.capacity:
                    self._walking[capacity] = CurrentLoopStack(capacity)
                elif capacity < 1:
                    raise ValueError("CLS capacity must be >= 1")
                else:
                    self._following.append(capacity)

    @staticmethod
    def _cls_key(capacity):
        return "cls-sweep/cap%d" % capacity

    def feed_record(self, record):
        self.feed_batch(RecordBatch.from_records((record,)))

    def feed_batch(self, batch):
        for stack in self._walking.values():
            stack.process_batch(batch)
        self._walked += len(batch) * len(self._walking)
        following = self._following
        if following and self._canonical.max_depth > following[0]:
            self._fork(batch)

    def _fork(self, batch):
        """Fork every capacity the canonical stack outgrew in *batch*
        and walk each fork over the rest of the batch."""
        canonical = self._canonical
        following = self._following
        seqs = batch.seqs
        while following and canonical.max_depth > following[0]:
            capacity = following.pop(0)
            seq, stack = canonical.fork(capacity)
            start = bisect_right(seqs, seq)
            if start == 0 or seqs[start - 1] != seq:
                raise RuntimeError(
                    "CLS sweep: the canonical detector must be fed each "
                    "record batch before the sweep")
            rest = batch.slice(start, len(batch))
            stack.process_batch(rest)
            self._walked += len(rest)
            self._walking[capacity] = stack
            self._forks += 1

    def abort(self, ctx):
        self._sims = None
        self._reset_sweep()

    def finish(self, ctx):
        if "replacement" in self.parts:
            for key, sim in self._sims.items():
                sim.ensure_replayed(ctx.index)
                totals = self._replacement[key]
                totals[0] += sim.let_hits
                totals[1] += sim.let_accesses
                totals[2] += sim.lit_hits
                totals[3] += sim.lit_accesses
        if "waiting" in self.parts:
            # One run answers both accountings: with count_waiting=False
            # the engine reports tpc == tpc_executing of the same run.
            incl = self._waiting_timing.fold(
                shared_simulate(ctx, self.num_tus, "str"))
            self._waiting_rows.append((ctx.name, round(incl.tpc, 2),
                                       round(incl.tpc_executing, 2)))
        if "cls" in self.parts:
            canonical = self._canonical
            if self._following \
                    and canonical.max_depth > self._following[0]:
                raise RuntimeError(
                    "CLS sweep: the canonical detector outgrew a "
                    "capacity after the sweep's last batch")
            for capacity in self.capacities:
                counts = self._cls_cached.get(capacity)
                if counts is None:
                    # An unforked capacity never diverged from the
                    # canonical stack.  Execution ids count every
                    # ExecutionStart and SingleIteration.
                    stack = self._walking.get(capacity, canonical)
                    counts = (stack.overflow_count, stack.next_exec_id)
                    if ctx.derived is not None \
                            and capacity != canonical.capacity:
                        ctx.derived.put(self._cls_key(capacity),
                                        list(counts))
                totals = self._cls[capacity]
                totals[0] += counts[0]
                totals[1] += counts[1]
            collector = obs.active()
            if collector is not None:
                collector.add("analysis.cls_sweep.walked_records",
                              self._walked)
                collector.add("analysis.cls_sweep.forks", self._forks)
        self._sims = None
        self._reset_sweep()

    # -- the three tables ---------------------------------------------------

    def replacement_result(self):
        rows = []
        for size in self.sizes:
            ratios = {}
            for policy in REPLACEMENT_POLICIES:
                let_h, let_a, lit_h, lit_a = \
                    self._replacement[(size, policy)]
                ratios[policy] = (let_h / let_a if let_a else 0.0,
                                  lit_h / lit_a if lit_a else 0.0)
            lru = ratios[POLICY_LRU]
            aware = ratios[POLICY_NESTING_AWARE]
            rows.append((size, round(100 * lru[0], 2),
                         round(100 * aware[0], 2),
                         round(100 * lru[1], 2),
                         round(100 * aware[1], 2)))
        return ExperimentResult(
            "Ablation: LRU vs nesting-aware replacement",
            ("#entries", "LET lru %", "LET aware %", "LIT lru %",
             "LIT aware %"),
            rows,
            notes=["paper section 2.3.2: improvement is negligible"],
        )

    def waiting_result(self):
        rows = list(self._waiting_rows)
        avg_incl = sum(r[1] for r in rows) / len(rows)
        avg_excl = sum(r[2] for r in rows) / len(rows)
        rows.insert(0, ("AVG", round(avg_incl, 2), round(avg_excl, 2)))
        return ExperimentResult(
            "Ablation: TPC accounting of waiting threads (STR, %d TUs)"
            % self.num_tus,
            ("program", "TPC incl. waiting", "TPC executing only"),
            rows,
            notes=["the model counts waiting cycles (see "
                   "docs/ARCHITECTURE.md); this bounds the effect"],
            meta=self._waiting_timing.as_meta(),
        )

    def cls_capacity_result(self):
        rows = []
        for capacity in self.capacities:
            overflowed, executions = self._cls[capacity]
            rows.append((capacity, overflowed,
                         round(100.0 * overflowed / executions, 3)
                         if executions else 0.0))
        return ExperimentResult(
            "Ablation: CLS capacity vs dropped live loops",
            ("CLS entries", "overflow drops", "% of executions"),
            rows,
            notes=["paper: 16 entries never overflow on SPEC95 (max "
                   "nesting 11)"],
        )

    def result(self):
        tables = {
            "replacement": self.replacement_result,
            "waiting": self.waiting_result,
            "cls": self.cls_capacity_result,
        }
        return [tables[part]() for part in ALL_PARTS
                if part in self.parts]


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("ablations", runner)


# -- single-table conveniences (tests, notebooks) ---------------------------

def _run_one(runner, analysis, picker):
    from repro.analysis import AnalysisSuite
    runner.analyze(AnalysisSuite([analysis]))
    return picker(analysis)


def replacement_policy_ablation(runner, sizes=REPLACEMENT_SIZES):
    return _run_one(runner,
                    AblationsAnalysis(sizes=sizes,
                                      parts=("replacement",)),
                    AblationsAnalysis.replacement_result)


def waiting_accounting_ablation(runner, num_tus=WAITING_NUM_TUS):
    return _run_one(runner,
                    AblationsAnalysis(num_tus=num_tus,
                                      parts=("waiting",)),
                    AblationsAnalysis.waiting_result)


def cls_capacity_ablation(runner, capacities=CLS_CAPACITIES):
    return _run_one(runner,
                    AblationsAnalysis(capacities=capacities,
                                      parts=("cls",)),
                    AblationsAnalysis.cls_capacity_result)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("ablations"))
