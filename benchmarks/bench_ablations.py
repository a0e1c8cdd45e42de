"""Regenerates the ablation tables for the paper's secondary design
discussions.

Their paper-shape bands are checked in tier-1, by the ablation tests of
``tests/test_paper_bands.py``.
"""

from conftest import run_once

from repro.experiments import ablations


def test_replacement_policy(runner, benchmark):
    result = run_once(benchmark, ablations.replacement_policy_ablation,
                      runner)
    print()
    print(result.render())


def test_waiting_accounting(runner, benchmark):
    result = run_once(benchmark, ablations.waiting_accounting_ablation,
                      runner)
    print()
    print(result.render())


def test_cls_capacity(runner, benchmark):
    result = run_once(benchmark, ablations.cls_capacity_ablation, runner)
    print()
    print(result.render())
