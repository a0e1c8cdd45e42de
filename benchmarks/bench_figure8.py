"""Regenerates Figure 8 (data-speculation statistics).

Its paper-shape bands are checked in tier-1, by the figure8 tests of
``tests/test_paper_bands.py``.
"""

from conftest import run_once

from repro.experiments import figure8


def test_figure8(runner, benchmark):
    result = run_once(benchmark, figure8.run, runner)
    print()
    print(result.render())
