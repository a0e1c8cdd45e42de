"""Regenerate ``perfbench/expected.json`` from the current code.

Usage (from the root of a checkout; about four minutes)::

    python3 perfbench/record.py

Runs one traced repetition of every workload (every search panel for
``search-cold``) and records its output-table digests and
exact counts.  Before writing anything it checks that the benchmark's
tables are the ones the CLI prints: ``runner all`` for the paper
workloads (``[``-prefixed status lines filtered out), a direct
``runner sensitivity`` run for the sweep report, and ``runner search``
for a few search seeds.  Only re-record when a change is *meant* to
alter outputs or counts, and say so in the change.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".perfbench_tmp", "record")

sys.path.insert(0, HERE)

from job import SEARCH_BUDGET, SEARCH_OBJECTIVE, SEARCH_PANELS, \
    SEARCH_TIMING  # noqa: E402
from layers import EXACT_COUNTS  # noqa: E402

#: The first seed of this many search panels is also checked against
#: the ``runner search`` CLI.
CLI_SEARCH_PANELS = 2


def _env(cache, store):
    return dict(os.environ, REPRO_TRACE_CACHE=cache,
                REPRO_SWEEP_STORE=store)


def job(workload, cache, seed=0, mode="run"):
    """One traced ``job.py`` repetition; returns ``(result, texts)``."""
    store = cache + "-store"
    outputs = cache + "-outputs.json"
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--cache", cache,
           "--store", store, "--mode", mode]
    if mode == "run":
        cmd += ["--traced", "--outputs", outputs]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(cache, store),
                          capture_output=True, text=True, check=True)
    if mode != "run":
        return None, None
    with open(outputs, encoding="utf-8") as fh:
        texts = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), texts


def cli(args, cache):
    """stdout of ``runner <args>`` with status lines filtered out."""
    store = cache + "-store"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner"] + args
        + ["--cache-dir", cache],
        cwd=ROOT, env=dict(_env(cache, store),
                           PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True)
    return "".join(line for line in proc.stdout.splitlines(True)
                   if not line.startswith("["))


def cli_text(texts):
    """What ``runner`` prints for *texts*, status lines filtered out:
    each table plus a blank line, one more blank line per experiment."""
    out = []
    for i, (name, text) in enumerate(texts):
        out.append(text + "\n\n")
        if i + 1 == len(texts) or texts[i + 1][0] != name:
            out.append("\n")
    return "".join(out)


def pin(result):
    return {
        "outputs": result["outputs"],
        "counts": result["counts"],
        "traced_counts": {name: result["layers"][name]
                          for name in EXACT_COUNTS},
    }


def require(ok, what):
    if not ok:
        raise SystemExit("record: %s" % what)
    print("ok: %s" % what)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    path = lambda name: os.path.join(TMP, name)  # noqa: E731
    expected = {}
    try:
        cold, cold_texts = job("paper-cold", path("paper"))
        require(not cold["layers"]["pipeline.derived.hits"],
                "paper-cold starts from an empty cache")
        shutil.copytree(path("paper"), path("warm"))
        warm, warm_texts = job("paper-warm", path("warm"))
        require(warm_texts == cold_texts,
                "paper-warm tables equal paper-cold tables")
        require(cli(["all"], path("cli-paper")) == cli_text(cold_texts),
                "paper tables equal `runner all` output")
        layers = cold["layers"]
        cells = layers["core.speculation.fused_cells"] \
            + layers["core.speculation.simulate_calls"]
        expected["paper-cold"] = dict(pin(cold), cells=cells)
        expected["paper-warm"] = dict(pin(warm), cells=cells)

        job("sweep-grid", path("sweep"), mode="prime")
        shutil.copytree(path("sweep"), path("sweep-cli"))
        sweep, sweep_texts = job("sweep-grid", path("sweep"))
        require(cli(["sensitivity"], path("sweep-cli"))
                == cli_text(sweep_texts),
                "sweep report equals a direct `runner sensitivity` run")
        expected["sweep-grid"] = pin(sweep)

        panels = {}
        for panel in range(len(SEARCH_PANELS)):
            result, texts = job("search-cold", path("search-%d" % panel),
                                seed=panel)
            panels[str(panel)] = pin(result)
            if panel < CLI_SEARCH_PANELS:
                seed = SEARCH_PANELS[panel][0]
                require(cli(["search", "--objective", SEARCH_OBJECTIVE,
                             "--budget", str(SEARCH_BUDGET),
                             "--seed", str(seed),
                             "--timing", SEARCH_TIMING,
                             "--store", path("cli-search-%d" % seed)],
                            path("cli-search-cache-%d" % seed))
                        == texts[0][1] + "\n\n",
                        "search seed %d table equals `runner search`"
                        % seed)
        expected["search-cold"] = {"panels": panels}
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:
            pass
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote perfbench/expected.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
