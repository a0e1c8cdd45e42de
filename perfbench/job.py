"""One repetition of a benchmark workload, in a fresh interpreter.

``perfbench/run.py`` starts this script once per repetition and reads
the JSON object it prints as its last stdout line.  Usage::

    python3 perfbench/job.py --root . --workload paper-warm \\
        --seed 3 --cache DIR --store DIR [--mode run|setup|prime] \\
        [--traced]

``setup_s`` runs from the first line of this file to the end of the
workload's set-up (import ``repro``, build the session, suite, spec
and store); ``run_s`` is the job itself, result rendering included.
Both are host-normalised (:class:`HostSpeed`); ``setup_wall_s`` and
``run_wall_s`` are the plain wall times.  With ``--traced`` the
per-layer wrappers (``layers.py``) and an obs collector are installed
after set-up, and the result carries the layer split, the exact counts
only the wrappers can see, and the cross-check of the wrappers against
the program's own spans.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: The searches a ``search-cold`` repetition runs (CLI defaults apart
#: from the budget): ``runner search --objective tpc-inversion --budget
#: 40 --seed <s>`` for each trajectory seed ``s`` of one panel, each
#: from its own empty cache and store.  ``--seed`` picks the
#: panel (seed mod 8).  Search cost differs from seed to seed by up to
#: 2.5x, so the 32 seeds are split into panels whose measured time,
#: cells, simulated instructions and memory growth (single-search peak
#: RSS minus 40 MB; it adds up across a panel's searches) agree within
#: 4%: every seed gives other searches, but about the same work.
SEARCH_OBJECTIVE = "tpc-inversion"
SEARCH_BUDGET = 40
SEARCH_TIMING = "overhead:spawn=8,squash=0,promote=0"
SEARCH_PANELS = (
    (0, 3, 24, 28),
    (1, 12, 20, 23),
    (2, 8, 19, 30),
    (4, 9, 10, 11),
    (5, 6, 7, 22),
    (13, 18, 25, 31),
    (14, 15, 16, 26),
    (17, 21, 27, 29),
)

#: Host speed sampling (:class:`HostSpeed`): loop steps and scattered
#: memory bytes per burst, seconds between bursts, and the burst time
#: of the reference host that normalised times are expressed on.
BURST_STEPS = 4000
BURST_MEMORY = 1 << 22
SAMPLE_INTERVAL_S = 0.05
REFERENCE_BURST_S = 0.0025
EDGE_BURSTS = 3

#: When the host slows a burst by a factor x, the jobs slow by about
#: x ** 1.1: fitted by least squares over about 150 repetitions
#: of paper-warm, sweep-grid and search-cold on a 2-core host (1.03 to
#: 1.16 per workload).
SLOWDOWN_EXPONENT = 1.1


def calibrate(steps, memory):
    """Seconds for *steps* of a fixed pure-Python loop of interpreter
    work: dict, integer and scattered operations on *memory* (a
    power-of-two sized bytearray), like the simulator's inner loops."""
    mask = len(memory) - 1
    start = time.perf_counter()
    table = {}
    acc = pos = 0
    for i in range(steps):
        pos = (pos * 1103515245 + 12345) & mask
        acc = (acc + memory[pos] + table.get(i & 1023, i) * 3) & 0xFFFF
        memory[pos] = acc & 0xFF
        table[i & 1023] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Samples how fast the host runs this process, all through it.

    Every :data:`SAMPLE_INTERVAL_S` a ``SIGALRM`` handler times one
    :func:`calibrate` burst, and :meth:`bracket` adds a few at the
    edges of a window.  On a shared host the speed of the same code
    swings by half within a second, so a window's time is reported
    *host-normalised*: its own time (bursts excluded) divided by the
    slowdown of the mean burst around it against
    :data:`REFERENCE_BURST_S`, raised to :data:`SLOWDOWN_EXPONENT`.
    """

    def __init__(self):
        self.clock = None           # a layers.LayerClock while traced
        self.memory = bytearray(BURST_MEMORY)
        calibrate(BURST_STEPS, self.memory)     # warm-up, not a sample
        self.bursts = []            # (start, seconds)
        self.bracket()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        if self.clock is None:
            seconds = calibrate(BURST_STEPS, self.memory)
        else:
            # Its own frame, so no layer's self time includes it.
            seconds = self.clock.call("bench.host_samples", calibrate,
                                      BURST_STEPS, self.memory)
        self.bursts.append((start, seconds))

    def bracket(self):
        """Take :data:`EDGE_BURSTS` samples now."""
        for _ in range(EDGE_BURSTS):
            self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start, end, before=None, after=None):
        """``(wall_s, own_s, normalised_s, samples)`` of the window
        ``[start, end)``; bursts in ``[before, start)`` and ``[end,
        after)`` (the brackets) count as samples, not as time."""
        before = start if before is None else before
        after = end if after is None else after
        inside = [seconds for at, seconds in self.bursts
                  if start <= at < end]
        samples = [seconds for at, seconds in self.bursts
                   if before <= at < after]
        wall = end - start
        own = wall - sum(inside)
        slowdown = statistics.mean(samples) / REFERENCE_BURST_S
        return wall, own, own / slowdown ** SLOWDOWN_EXPONENT, \
            len(samples)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trace_instructions(cache_dir):
    """Total instructions of every trace in *cache_dir* (headers only)."""
    from repro.trace.io import read_cf_header

    total = 0
    for entry in sorted(os.listdir(cache_dir)):
        if entry.endswith(".cft"):
            total += read_cf_header(
                os.path.join(cache_dir, entry)).total_instructions
    return total


class Paper:
    """All ten ``runner all`` experiments over the 18 analogs."""

    def __init__(self, args):
        from repro.experiments.runner import EXPERIMENT_ORDER, \
            build_suite
        from repro.pipeline import PipelineConfig, SimulationSession

        self.experiments = EXPERIMENT_ORDER
        self.session = SimulationSession(PipelineConfig(
            cache_dir=args.cache, jobs=1))
        self.suite, _ = build_suite(list(EXPERIMENT_ORDER))

    def run(self):
        tables = []
        results = self.session.analyze(self.suite)
        for name, result in zip(self.experiments, results):
            for table in result if isinstance(result, list) else [result]:
                tables.append((name, table.render()))
        return tables

    def outcome(self, tables):
        session = self.session
        indexes = [session.index(w.name) for w in session.workloads]
        return tables, {
            "counts": {
                "instructions": sum(i.total_instructions
                                    for i in indexes),
                "loop_events": sum(len(i.events) for i in indexes),
                "replays": session.stats.replays,
                "traced": session.stats.traced,
            },
            "programs": len(indexes),
        }


class SweepGrid:
    """``runner sweep sensitivity`` (default grid), then the ``runner
    query --report`` rebuild from the store."""

    def __init__(self, args):
        from repro.experiments import sensitivity
        from repro.sweep.spec import SweepSpec
        from repro.sweep.store import SweepStore
        from repro.workloads import SUITE_ORDER

        self.cache = args.cache
        self.spec = SweepSpec(experiment="sensitivity",
                              workloads=tuple(SUITE_ORDER),
                              policies=sensitivity.POLICIES)
        self.store = SweepStore(args.store)

    def run(self):
        from repro.sweep.orchestrator import run_sweep
        from repro.sweep.query import sweep_report

        stats = run_sweep(self.spec, self.store, jobs=1,
                          cache_dir=self.cache)
        spec = self.store.spec_for(self.store.latest_sweep_id())
        report = [(spec.experiment, table.render()) for table in
                  sweep_report(self.store, spec)]
        return stats, report

    def outcome(self, result):
        stats, report = result
        rows, done, failed = self.store.counts(stats.sweep_id)
        self.store.close()
        return report, {
            "counts": {
                "instructions": trace_instructions(self.cache),
                "cells_executed": stats.executed,
                "cells_failed": stats.failed,
                "sweep_rows": rows,
                "sweep_rows_done": done,
                "checkpoints": stats.checkpoints,
            },
            "cells": stats.planned,
            "failed_cells": stats.failed + failed,
            "programs": len(self.spec.workloads),
        }


class SearchCold:
    """``runner search --objective tpc-inversion --budget 40``, once
    per trajectory seed of one :data:`SEARCH_PANELS` panel."""

    def __init__(self, args):
        from repro.search.cli import _winner_table
        from repro.search.objectives import EvalSettings
        from repro.search.spec import SearchSpec
        from repro.sweep.store import SweepStore

        self.panel = args.seed % len(SEARCH_PANELS)
        self.searches = []
        for seed in SEARCH_PANELS[self.panel]:
            spec = SearchSpec(
                objective=SEARCH_OBJECTIVE, budget=SEARCH_BUDGET,
                seed=seed, settings=EvalSettings(timing=SEARCH_TIMING))
            self.searches.append((
                spec, SweepStore(os.path.join(args.store, str(seed))),
                os.path.join(args.cache, str(seed))))
        self.winner_table = _winner_table

    def run(self):
        from repro.search.loop import run_search

        done = []
        for spec, store, cache in self.searches:
            winners, stats = run_search(spec, store=store,
                                        cache_dir=cache)
            done.append((stats, self.winner_table(spec, winners,
                                                  stats).render()))
        return done

    def outcome(self, done):
        counts = dict.fromkeys(("instructions", "evaluated", "memo_hits",
                                "cells", "failures"), 0)
        tables = []
        for (spec, store, cache), (stats, table) in zip(self.searches,
                                                         done):
            store.close()
            tables.append(("search-%d" % spec.seed, table))
            counts["instructions"] += trace_instructions(cache)
            counts["evaluated"] += stats.evaluated
            counts["memo_hits"] += stats.memo_hits
            counts["cells"] += stats.executed_cells \
                + stats.restored_cells
            counts["failures"] += stats.failures
        return tables, {
            "search_panel": self.panel,
            "counts": counts,
            "cells": counts["cells"],
            "failed_candidates": counts["failures"],
            "programs": counts["evaluated"] + counts["memo_hits"],
        }


JOBS = {
    "paper-cold": Paper,
    "paper-warm": Paper,
    "sweep-grid": SweepGrid,
    "search-cold": SearchCold,
}


def prime(args):
    """Untimed preparation of a cache dir the repetitions copy: the
    whole paper job for ``paper-warm``, the 18 analog traces for
    ``sweep-grid``."""
    if args.workload == "paper-warm":
        job = Paper(args)
        job.run()
        return
    from repro.pipeline import PipelineConfig, SimulationSession
    SimulationSession(PipelineConfig(cache_dir=args.cache,
                                     jobs=1)).ensure_traced()


def span_totals(collector):
    totals = {}
    for span in collector.spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) \
            + span["seconds"]
    return totals


def cross_check(clock, collector):
    """Wrapped totals against the program's own span totals: a wrapper
    that misses a call site shows as a gap."""
    import layers

    spans = span_totals(collector)
    finish = sum(seconds for layer, seconds in clock.total_s.items()
                 if layer.startswith("analysis.")
                 and layer.endswith(".finish"))
    pairs = {
        "trace": (clock.total_s.get("cpu.trace", 0.0),
                  spans.get("trace", 0.0)),
        "grid": (clock.total_s.get("core.speculation.grid", 0.0),
                 spans.get("engine.simulate_grid", 0.0)),
        "finish": (finish, spans.get("finish", 0.0)),
    }
    gaps = {}
    ok = True
    for name, (wrapped, spanned) in pairs.items():
        gap = abs(wrapped - spanned)
        gaps["xcheck.%s_gap_s" % name] = gap
        if gap > layers.XCHECK_ABS_S + layers.XCHECK_REL \
                * max(wrapped, spanned):
            ok = False
    return gaps, ok


def main(argv=None):
    speed = HostSpeed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--mode", choices=("run", "setup", "prime"),
                        default="run")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--outputs", default=None, metavar="PATH",
                        help="also write the rendered tables to PATH "
                             "as JSON (perfbench/record.py uses it)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    if args.mode == "prime":
        speed.stop()
        prime(args)
        return 0

    job = JOBS[args.workload](args)
    setup_end = time.perf_counter()
    speed.bracket()
    from repro.trace import kernels
    wall, _, normalised, _ = speed.window(START, setup_end,
                                          after=time.perf_counter())
    result = {"setup_s": normalised, "setup_wall_s": wall,
              "backend": kernels.backend()}
    if args.mode == "setup":
        speed.stop()
        print(json.dumps(result))
        return 0

    clock = collector = None
    if args.traced:
        import layers
        from repro.obs import collector as obs

        clock = layers.LayerClock()
        layers.install(clock)
        if isinstance(job, Paper):
            layers.wrap_suite(clock, job.suite)
        collector = obs.activate(obs.Collector())

    before = time.perf_counter()
    speed.bracket()
    speed.clock = clock
    start = time.perf_counter()
    output = job.run()
    end = time.perf_counter()
    speed.clock = None
    speed.bracket()
    speed.stop()
    wall, own, normalised, samples = speed.window(
        start, end, before=before, after=time.perf_counter())
    result.update(run_s=normalised, run_wall_s=wall, run_own_s=own,
                  host_samples=samples)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.traced:
        from repro.obs import collector as obs

        obs.deactivate()
        result["layers"] = layers.split(clock, wall)
        gaps, ok = cross_check(clock, collector)
        result["layers"].update(gaps)
        result["xcheck_ok"] = ok
        result["traced_counts"] = {
            name: result["layers"][name] for name in layers.EXACT_COUNTS}
    tables, facts = job.outcome(output)
    result.update(facts)
    result["outputs"] = [[name, digest(text)] for name, text in tables]
    if args.outputs is not None:
        with open(args.outputs, "w", encoding="utf-8") as fh:
            json.dump(tables, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
