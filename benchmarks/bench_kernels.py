"""Batch-consumer microbenchmarks and the warm/cold headline.

Measures the batch-native consumers of the record stream on real
workload batches, plus the warm/cold ``runner all`` headline numbers.
The column loops are stdlib code inside their consumers (the kernel
backend is always ``"stdlib"``; results are keyed by it so
``tools/bench_check.py`` can look them up by a manifest's
``kernel_backend``).  Written to ``BENCH_kernels.json`` at the
repository root:

* **Per-consumer microbenchmarks**:

  - ``cls_batch``: a bare :class:`~repro.core.cls.CurrentLoopStack`
    consuming every batch via ``process_batch`` (the ablation-sweep
    shape);
  - ``detector_batch``: a fresh :class:`~repro.core.detector.
    LoopDetector` per workload consuming the batch stream;
  - ``predictor_batch``: the fused bimodal+gshare
    :class:`~repro.core.branchpred.BranchPredictionStream` consuming
    every batch;
  - ``cf_trace``: the batches' producer, the tiered
    :class:`~repro.cpu.tracer.ChunkedCFTracer`, in simulated Minstr/s
    per workload.

* **Warm/cold `runner all` headline** -- the full ten-experiment
  single-pass suite: cold (fresh trace cache: interpretation + derived
  population) and warm (trace cache + derived-results cache hot),
  compared against the pre-kernel warm baseline recorded in
  ``BENCH_io.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --workloads swim,go --max-instructions 200000 --rounds 1 \
        --skip-headline
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if SRC_ROOT not in sys.path:
    sys.path.insert(0, SRC_ROOT)

#: Workloads whose batches the microbenchmarks consume.
MICRO_WORKLOADS = ("compress", "gcc", "swim")
MICRO_LIMIT = 400_000


def best(rounds, fn):
    result = None
    for _ in range(rounds):
        elapsed = fn()
        if result is None or elapsed < result:
            result = elapsed
    return result


def _timed(records, seconds):
    return {
        "seconds": round(seconds, 4),
        "records_per_second": int(records / seconds) if seconds else None,
    }


# -- micro -------------------------------------------------------------------

def bench_micro(workload_names, limit, rounds):
    from repro.core.branchpred import BimodalPredictor, \
        BranchPredictionStream, GSharePredictor
    from repro.core.cls import CurrentLoopStack
    from repro.core.detector import LoopDetector
    from repro.trace import kernels
    from repro.trace.batch import iter_batches
    from repro.workloads import get

    batch_sets = []
    for name in workload_names:
        trace = get(name).cf_trace(1, max_instructions=limit)
        batch_sets.append(list(iter_batches(trace.records)))
    records = sum(len(b) for batches in batch_sets for b in batches)

    def cls_batch():
        start = time.perf_counter()
        for batches in batch_sets:
            stack = CurrentLoopStack()
            for b in batches:
                stack.process_batch(b)
        return time.perf_counter() - start

    def detector_batch():
        start = time.perf_counter()
        for batches in batch_sets:
            detector = LoopDetector()
            for b in batches:
                detector.feed_batch(b)
        return time.perf_counter() - start

    def predictor_batch():
        start = time.perf_counter()
        for batches in batch_sets:
            stream = BranchPredictionStream(
                [BimodalPredictor(), GSharePredictor()])
            for b in batches:
                stream.feed_batch(b)
        return time.perf_counter() - start

    return {
        "backend": kernels.backend(),
        "workloads": list(workload_names),
        "max_instructions": limit,
        "records": records,
        "cls_batch": _timed(records, best(rounds, cls_batch)),
        "detector_batch": _timed(records, best(rounds, detector_batch)),
        "predictor_batch": _timed(records, best(rounds, predictor_batch)),
        "cf_trace": bench_cf_trace(workload_names, limit, rounds),
    }


def bench_cf_trace(workload_names, limit, rounds):
    """Tracing speed of :class:`~repro.cpu.tracer.ChunkedCFTracer` per
    workload, with both of its tiers as a cold trace runs them."""
    from repro.cpu.tracer import ChunkedCFTracer
    from repro.workloads import get

    row = {}
    for name in workload_names:
        program = get(name).program(1)
        done = []

        def trace():
            tracer = ChunkedCFTracer(program, limit)
            start = time.perf_counter()
            for _ in tracer.batches():
                pass
            elapsed = time.perf_counter() - start
            done.append(tracer.total_instructions)
            return elapsed

        seconds = best(rounds, trace)
        row[name] = {
            "seconds": round(seconds, 4),
            "instructions": done[0],
            "minstr_per_second": round(done[0] / seconds / 1e6, 3),
        }
    return row


# -- headline ----------------------------------------------------------------

def _run_single_pass(cache_dir, workloads, max_instructions):
    """All experiments in one suite: one replay per workload (the shape
    ``runner all`` takes)."""
    from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
    from repro.pipeline import PipelineConfig, SimulationSession

    session = SimulationSession(PipelineConfig(
        workloads=workloads, max_instructions=max_instructions,
        cache_dir=cache_dir))
    suite, _ = build_suite(list(EXPERIMENT_ORDER))
    start = time.perf_counter()
    session.analyze(suite)
    return time.perf_counter() - start


def bench_headline(workloads, max_instructions, rounds):
    from repro.trace import kernels

    cache_dir = tempfile.mkdtemp(prefix="bench-kernels-cache-")
    try:
        cold = _run_single_pass(cache_dir, workloads, max_instructions)
        warm = best(rounds, lambda: _run_single_pass(
            cache_dir, workloads, max_instructions))
        return {
            "backend": kernels.backend(),
            "workloads": list(workloads) if workloads else "full suite",
            "max_instructions": max_instructions,
            "rounds": rounds,
            "cold_seconds": round(cold, 3),
            "warm_seconds": round(warm, 3),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- orchestration -----------------------------------------------------------

def load_baseline():
    """The pre-kernel warm ``runner all`` wall time from BENCH_io.json
    (full suite, default budgets), if present."""
    path = os.path.join(REPO_ROOT, "BENCH_io.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return data["warm_runner_all"]["seconds"]
    except (OSError, KeyError, ValueError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the batch consumers and the warm/cold "
                    "runner all headline.")
    parser.add_argument("--workloads", default=None, metavar="A,B,...",
                        help="workload subset (default: "
                             "%s for the microbenchmarks, full suite "
                             "for the headline)"
                             % ",".join(MICRO_WORKLOADS))
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="headline per-workload budget override")
    parser.add_argument("--micro-limit", type=int, default=MICRO_LIMIT,
                        help="microbenchmark instruction budget "
                             "(default %(default)s)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds per measurement; best is kept "
                             "(default %(default)s)")
    parser.add_argument("--skip-headline", action="store_true",
                        help="microbenchmarks only (CI smoke)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_kernels.json"),
                        help="result file (default %(default)s)")
    args = parser.parse_args(argv)
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)

    micro = bench_micro(workloads or MICRO_WORKLOADS, args.micro_limit,
                        args.rounds)
    backend = micro["backend"]
    results = {
        "benchmark": "batch consumers + warm/cold headline",
        "micro": {backend: micro},
    }

    if not args.skip_headline:
        entry = bench_headline(workloads, args.max_instructions,
                               args.rounds)
        baseline = load_baseline() if workloads is None \
            and args.max_instructions is None else None
        warm = entry["warm_seconds"]
        results["headline_runner_all"] = {
            backend: entry,
            "baseline_warm_seconds": baseline,
            "warm_speedup_vs_baseline":
                round(baseline / warm, 2) if baseline and warm else None,
        }

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
