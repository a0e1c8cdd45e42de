"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-warm --seed 1 \\
        --seconds 20 --trace 0

Workloads are described in ``perfbench/README.md``.  Each repetition
runs ``perfbench/job.py`` in a fresh interpreter with fresh cache and
store directories under ``.perfbench_tmp/`` (``REPRO_TRACE_CACHE`` and
``REPRO_SWEEP_STORE`` point there too), and repetitions continue until
the next one would overrun ``--seconds``.  Every output table and
exact count is checked against ``perfbench/expected.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the repetitions); with ``--trace 1`` untraced and traced
repetitions alternate and it carries the per-layer split of the traced
ones, their overhead against the untraced ones, and the cross-check
of the wrappers.  Lines before it record the host (``nproc``, Python,
kernel backend) and every repetition.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
TMP = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("paper-cold", "paper-warm", "sweep-grid", "search-cold")

#: Workloads whose repetitions start from a copy of a primed cache dir.
PRIMED = ("paper-warm", "sweep-grid")

#: setup_s is the median of at least this many fresh-interpreter set-ups.
SETUP_SAMPLES = 11

#: The whole run, children included, ends within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


class Runner:
    """Runs the repetitions of one ``run.py`` invocation."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.tmp = os.path.join(TMP, "run-%d" % os.getpid())
        self.count = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def dirs(self, primed=None):
        """Fresh ``(cache, store)`` dirs, the cache a copy of *primed*."""
        self.count += 1
        base = os.path.join(self.tmp, "rep-%d" % self.count)
        cache = os.path.join(base, "cache")
        if primed is not None:
            shutil.copytree(primed, cache)
        else:
            os.makedirs(cache)
        return cache, os.path.join(base, "store")

    def child(self, cache, store, mode="run", traced=False):
        """One ``job.py`` process; returns its result dict."""
        args = self.args
        cmd = [sys.executable, JOB, "--root", ROOT,
               "--workload", args.workload, "--seed", str(args.seed),
               "--cache", cache, "--store", store, "--mode", mode]
        if traced:
            cmd.append("--traced")
        env = dict(os.environ, REPRO_TRACE_CACHE=cache,
                   REPRO_SWEEP_STORE=store)
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before a %s child" % mode)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a %s child ran out of time" % mode)
        if proc.returncode != 0:
            raise BenchError("job.py --mode %s exited %d:\n%s"
                             % (mode, proc.returncode,
                                proc.stderr[-2000:]))
        if mode == "prime":
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repetition(self, primed, traced=False, mode="run"):
        cache, store = self.dirs(primed)
        try:
            return self.child(cache, store, mode=mode, traced=traced)
        finally:
            shutil.rmtree(os.path.dirname(cache), ignore_errors=True)

    def measure(self):
        """Prime, then repeat until ``--seconds`` is used up; returns
        ``(untraced, traced, setups)`` result lists."""
        args = self.args
        # An untimed set-up first, so every timed one imports from
        # the same bytecode cache state.
        self.repetition(None, mode="setup")
        primed = None
        if args.workload in PRIMED:
            primed, store = self.dirs()
            self.child(primed, store, mode="prime")
            shutil.rmtree(store, ignore_errors=True)
        untraced, traced, cycles = [], [], []
        begin = time.monotonic()
        while True:
            start = time.monotonic()
            untraced.append(self.repetition(primed))
            if args.trace:
                traced.append(self.repetition(primed, traced=True))
            cycles.append(time.monotonic() - start)
            used = time.monotonic() - begin
            if used + statistics.median(cycles) > args.seconds:
                break
        setups = [r["setup_s"] for r in untraced + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.repetition(None, mode="setup")["setup_s"])
        return untraced, traced, setups


def check(workload, results, expected):
    """Compare every repetition with the pinned outputs and counts;
    returns ``(attempted, failed, problems)``."""
    pinned = expected[workload]
    if workload == "search-cold":
        pinned = pinned["panels"][str(results[0]["search_panel"])]
    attempted = failed = 0
    problems = []
    for result in results:
        outputs = result["outputs"]
        want = pinned["outputs"]
        wrong = sum(1 for got, exp in zip(outputs, want) if got != exp) \
            + abs(len(outputs) - len(want))
        if wrong:
            problems.append("%d output table(s) differ" % wrong)
        if workload.startswith("paper"):
            attempted += len(want)
            failed += wrong
        elif workload == "sweep-grid":
            attempted += result["cells"] + len(want)
            failed += result["failed_cells"] + wrong
        else:
            attempted += result["programs"] + len(want)
            failed += result["failed_candidates"] + wrong
        for group in ("counts", "traced_counts"):
            for name, value in result.get(group, {}).items():
                if value != pinned[group].get(name):
                    problems.append("%s %s = %r, pinned %r"
                                    % (group, name, value,
                                       pinned[group].get(name)))
        if result.get("xcheck_ok") is False:
            problems.append("wrapped layer totals disagree with the "
                            "program's own spans")
    backends = {r["backend"] for r in results}
    if len(backends) > 1:
        problems.append("kernel backend changed mid-run: %s"
                        % sorted(backends))
    return attempted, failed, problems


def end_to_end(workload, untraced, setups, attempted, failed, pinned):
    """Every end-to-end metric (medians over the untraced
    repetitions; times host-normalised, see job.HostSpeed)."""
    median = statistics.median
    if workload.startswith("paper"):
        # The speculation results the paper tables consume: priced by
        # the engine when cold, mostly restored from the derived store
        # when warm.
        cells = [pinned["cells"]] * len(untraced)
    else:
        cells = [r["cells"] for r in untraced]
    return {
        "setup_s": median(setups),
        "run_s": median([r["run_s"] for r in untraced]),
        "sim_minstr_per_s": median(
            [r["counts"]["instructions"] / 1e6 / r["run_s"]
             for r in untraced]),
        "cells_per_s": median(
            [c / r["run_s"] for c, r in zip(cells, untraced)]),
        "candidates_per_s": median(
            [r["programs"] / r["run_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "correct_share": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced):
    """The layer split of the median traced repetition (by wall time),
    so the split adds up to its ``bench.traced_wall_s`` exactly, plus
    the tracing overhead: traced against untraced host-normalised
    ``run_s`` medians."""
    rep = sorted(traced, key=lambda r: r["run_wall_s"])[
        (len(traced) - 1) // 2]
    metrics = dict(rep["layers"])
    metrics["bench.traced_wall_s"] = rep["run_wall_s"]
    plain = statistics.median(r["run_s"] for r in untraced)
    metrics["bench.untraced_run_s"] = plain
    metrics["bench.traced_run_s"] = statistics.median(
        r["run_s"] for r in traced)
    metrics["bench.trace_overhead_share"] = \
        metrics["bench.traced_run_s"] / plain - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; the last stdout line "
                    "is the JSON result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro under %s" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    shm_before = _shm()
    runner = Runner(args)
    try:
        untraced, traced, setups = runner.measure()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass

    attempted, failed, problems = check(args.workload,
                                        untraced + traced, expected)
    if _shm() != shm_before:
        problems.append("/dev/shm changed during the run")
    host = {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "backend": untraced[0]["backend"]}
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "problems": problems}))
    for kind, results in (("untraced", untraced), ("traced", traced)):
        for result in results:
            print(json.dumps({kind: {k: v for k, v in result.items()
                                     if k not in ("outputs", "layers")}}))
    if args.trace:
        values = per_layer(untraced, traced)
        listed = bench["per_layer"]
    else:
        values = end_to_end(args.workload, untraced, setups, attempted,
                            failed, expected[args.workload])
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _shm():
    try:
        return sorted(os.listdir("/dev/shm"))
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
