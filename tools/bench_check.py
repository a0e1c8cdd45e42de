#!/usr/bin/env python
"""Compare a fresh run manifest against the committed benchmark file.

::

    runner all --metrics /tmp/run.json
    python tools/bench_check.py --manifest /tmp/run.json
    python tools/bench_check.py --manifest /tmp/run.json --advisory
    python tools/bench_check.py --engine BENCH_engine.json

Reads the manifest a ``runner ... --metrics`` run wrote, picks the
committed ``headline_runner_all`` numbers for the manifest's kernel
backend out of ``BENCH_kernels.json``, and judges the run:

* **warm wall time** must stay within ``--tolerance`` (a fraction;
  default 0.25) of the committed ``warm_seconds``.  The committed
  numbers came from a quiet machine; CI boxes are noisy, hence the
  generous default -- tighten it for local A/B runs;
* **span coverage** must be at least ``--min-coverage`` (default
  0.9): top-level spans that account for less of the wall mean an
  uninstrumented stage crept in.

``--engine`` judges a ``BENCH_engine.json`` written by
``benchmarks/bench_engine.py`` instead of (or in addition to) a
manifest:

* the fused/per-config **result mismatch count must be 0** and the
  parallel/serial **winner tables must be identical** -- correctness,
  never subject to tolerance;
* the **fused speedup** must stay above ``--min-fused-speedup``
  (default 3.0) discounted by ``--tolerance`` (a fresh run on a noisy
  box may dip; the committed file should clear the undiscounted bar);
* with ``jobs >= 2`` the search must have had at least two candidate
  evaluations **in flight at once** (structural concurrency; provable
  even on a 1-core host).  Wall-clock search scaling is reported but
  only judged on multi-core hosts.

Exit status: 0 all checks passed, 1 a threshold was exceeded (``--
advisory`` demotes this to a warning + exit 0 -- CI smoke mode), 2
the manifest or baseline is missing/malformed (never demoted: a
schema break is a bug regardless of machine noise).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.obs.manifest import ManifestError, load_manifest  # noqa: E402

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_kernels.json")


def load_baseline(path):
    """The ``headline_runner_all`` table of *path*; raises
    :class:`ManifestError` when unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError("cannot read baseline %s: %s" % (path, exc))
    except ValueError as exc:
        raise ManifestError("baseline %s: invalid JSON (%s)"
                            % (path, exc))
    headline = data.get("headline_runner_all") \
        if isinstance(data, dict) else None
    if not isinstance(headline, dict):
        raise ManifestError("baseline %s: no headline_runner_all table"
                            % path)
    return headline


def check(manifest, headline, tolerance, min_coverage):
    """Evaluate the thresholds; returns ``(failures, report_lines)``."""
    failures = []
    lines = []
    backend = manifest["meta"].get("kernel_backend", "stdlib")
    wall = manifest["wall_seconds"]
    entry = headline.get(backend)
    if not isinstance(entry, dict) \
            or not isinstance(entry.get("warm_seconds"), (int, float)):
        raise ManifestError("baseline has no warm_seconds for backend "
                            "%r" % backend)
    budget = entry["warm_seconds"] * (1.0 + tolerance)
    verdict = "ok" if wall <= budget else "REGRESSION"
    lines.append("wall: %.3fs vs committed %s warm %.3fs "
                 "(budget %.3fs at +%d%%) -- %s"
                 % (wall, backend, entry["warm_seconds"], budget,
                    round(100 * tolerance), verdict))
    if wall > budget:
        failures.append("wall %.3fs exceeds budget %.3fs"
                        % (wall, budget))

    coverage = manifest.get("span_coverage")
    if isinstance(coverage, (int, float)):
        verdict = "ok" if coverage >= min_coverage else "REGRESSION"
        lines.append("span coverage: %.1f%% (floor %.1f%%) -- %s"
                     % (100 * coverage, 100 * min_coverage, verdict))
        if coverage < min_coverage:
            failures.append("span coverage %.3f below floor %.3f"
                            % (coverage, min_coverage))
    else:
        failures.append("manifest has no span_coverage")

    replays = manifest["counters"].get("pipeline.replays", 0)
    lines.append("pipeline: %d replay(s), %d cache hit(s), "
                 "%d traced" % (replays,
                                manifest["counters"].get(
                                    "pipeline.cache_hits", 0),
                                manifest["counters"].get(
                                    "pipeline.traced", 0)))
    return failures, lines


def load_engine(path):
    """The parsed ``BENCH_engine.json`` of *path*; raises
    :class:`ManifestError` when unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError("cannot read engine bench %s: %s"
                            % (path, exc))
    except ValueError as exc:
        raise ManifestError("engine bench %s: invalid JSON (%s)"
                            % (path, exc))
    if not isinstance(data, dict) \
            or not isinstance(data.get("fused"), dict) \
            or not isinstance(data.get("search"), dict):
        raise ManifestError("engine bench %s: no fused/search tables"
                            % path)
    return data


def check_engine(data, tolerance, min_fused):
    """Judge a ``BENCH_engine.json``; returns
    ``(failures, report_lines)``."""
    failures = []
    lines = []
    fused = data["fused"]
    search = data["search"]
    try:
        mismatches = fused["mismatches"]
        speedup = fused["speedup"]
        identical = search["identical_winners"]
        jobs = search["jobs"]
        parallel = search["parallel"]
        peak = parallel["peak_inflight"]
    except (KeyError, TypeError) as exc:
        raise ManifestError("engine bench: missing field %s" % exc)

    verdict = "ok" if mismatches == 0 else "REGRESSION"
    lines.append("fused equivalence: %d mismatch(es) across %s cells "
                 "-- %s" % (mismatches, fused.get("cells", "?"),
                            verdict))
    if mismatches != 0:
        failures.append("fused grid diverged from per-config simulate "
                        "(%d mismatches)" % mismatches)

    floor = min_fused * (1.0 - tolerance)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    lines.append("fused speedup: %.2fx vs per-config (target %.1fx, "
                 "floor %.2fx at -%d%%) -- %s"
                 % (speedup, min_fused, floor, round(100 * tolerance),
                    verdict))
    if speedup < floor:
        failures.append("fused speedup %.2fx below floor %.2fx"
                        % (speedup, floor))

    verdict = "ok" if identical else "REGRESSION"
    lines.append("parallel search: winners %s serial (jobs=%d) -- %s"
                 % ("identical to" if identical
                    else "DIVERGED from", jobs, verdict))
    if not identical:
        failures.append("parallel search winners diverged from serial")

    if jobs >= 2:
        verdict = "ok" if peak >= 2 else "REGRESSION"
        lines.append("search concurrency: peak %d in-flight, %d "
                     "speculation hit(s), %d pooled submit(s) -- %s"
                     % (peak, parallel.get("speculation_hits", 0),
                        parallel.get("pooled_submits", 0), verdict))
        if peak < 2:
            failures.append("search never had 2 candidates in flight "
                            "(peak %d)" % peak)

    cpus = data.get("cpu_count", 1)
    scale = parallel.get("speedup_vs_serial")
    if isinstance(scale, (int, float)):
        if cpus >= 2:
            verdict = "ok" if scale >= 1.0 else "REGRESSION"
            lines.append("search scaling: %.2fx at jobs=%d on %d "
                         "cpus -- %s" % (scale, jobs, cpus, verdict))
            if scale < 1.0:
                failures.append("parallel search slower than serial "
                                "(%.2fx) on a %d-cpu host"
                                % (scale, cpus))
        else:
            lines.append("search scaling: %.2fx at jobs=%d "
                         "(1-cpu host: not judged)" % (scale, jobs))
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Judge a fresh --metrics manifest against the "
                    "committed benchmark numbers.")
    parser.add_argument("--manifest", default=None,
                        help="manifest written by runner ... --metrics")
    parser.add_argument("--engine", default=None, metavar="PATH",
                        help="BENCH_engine.json written by "
                             "benchmarks/bench_engine.py")
    parser.add_argument("--min-fused-speedup", type=float, default=3.0,
                        metavar="X",
                        help="required fused-vs-per-config speedup "
                             "before the tolerance discount "
                             "(default 3.0)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed benchmark JSON "
                             "(default %(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="allowed fractional slowdown over the "
                             "committed warm seconds (default 0.25)")
    parser.add_argument("--min-coverage", type=float, default=0.9,
                        metavar="FRAC",
                        help="required top-level span coverage of "
                             "wall-clock (default 0.9)")
    parser.add_argument("--advisory", action="store_true",
                        help="report regressions but exit 0 (schema "
                             "errors still exit 2)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    if args.manifest is None and args.engine is None:
        parser.error("give --manifest and/or --engine")

    failures = []
    lines = []
    try:
        if args.manifest is not None:
            manifest = load_manifest(args.manifest)
            headline = load_baseline(args.baseline)
            failures, lines = check(manifest, headline, args.tolerance,
                                    args.min_coverage)
        if args.engine is not None:
            engine_failures, engine_lines = check_engine(
                load_engine(args.engine), args.tolerance,
                args.min_fused_speedup)
            failures.extend(engine_failures)
            lines.extend(engine_lines)
    except ManifestError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print("\n".join(lines))
    if failures:
        for failure in failures:
            print("%s: %s" % ("advisory" if args.advisory
                              else "FAIL", failure),
                  file=sys.stderr)
        return 0 if args.advisory else 1
    print("bench check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
