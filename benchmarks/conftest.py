"""Shared fixtures for the benchmark harness.

The suite runner (workload tracing + loop detection) is built once per
session; each benchmark then measures the analysis it owns and prints
the regenerated table/figure so the output can be compared with the
paper (see the "Reproduced results" section of README.md).
"""

import pytest

from repro.experiments import SimulationSession


@pytest.fixture(scope="session")
def runner():
    session = SimulationSession(scale=1, cache_dir=None)
    # Pre-trace everything so per-benchmark timings measure analysis,
    # not interpretation.
    session.indexes()
    return session


def run_once(benchmark, fn, *args):
    """Run an experiment exactly once under the benchmark clock."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
