"""Benchmarks for the paper's described-but-unevaluated extensions."""

from conftest import run_once

from repro.experiments import extensions


def test_disable_table(runner, benchmark):
    result, _ = run_once(benchmark, extensions.run, runner)
    print()
    print(result.render())
    # The table must never *hurt* the hit ratio, and it must actually
    # install blocks on the poorly-predicted deep nests.
    for row in result.rows[1:]:
        _name, hit, hit_table, _tpc, _tpc_table, _blocked = row
        assert hit_table >= hit - 0.5
    blocked_total = sum(row[5] for row in result.rows[1:])
    assert blocked_total >= 1


def test_sync_free_estimate(runner, benchmark):
    _, result = run_once(benchmark, extensions.run, runner)
    print()
    print(result.render())
    for row in result.rows[1:]:
        name, control_tpc, all_data_pct, sync_free = row
        # The bound is sound: between 1 and the control-only TPC.
        assert 1.0 <= sync_free <= control_tpc + 1e-9, name
    # tomcatv's live-ins are almost fully predictable, so it keeps most
    # of its thread-level parallelism even without synchronization.
    assert result.row_for("tomcatv")[3] > 2.0
