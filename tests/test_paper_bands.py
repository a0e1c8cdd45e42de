"""Paper-fidelity bands: each workload's loop shape must stay within a
tolerance band of its SPEC95 namesake's Table 1 row, and the headline
suite results must stay in the paper's bands.

These tests are the contract behind the "Reproduced results" section
of README.md: if a workload is retuned, they catch shape drift
immediately.
"""

import pytest

from repro.core import compute_loop_statistics
from repro.workloads import get, suite

#: name -> (paper iter/exec, paper avg nesting, paper max nesting)
PAPER_TABLE1 = {
    "applu": (3.50, 5.16, 7),
    "apsi": (10.75, 3.14, 5),
    "compress": (6.27, 2.52, 4),
    "fpppp": (3.05, 6.66, 9),
    "gcc": (5.28, 3.43, 7),
    "go": (3.76, 4.86, 11),
    "hydro2d": (29.37, 3.50, 4),
    "ijpeg": (20.75, 6.37, 9),
    "li": (3.48, 5.15, 10),
    "m88ksim": (9.38, 1.98, 5),
    "mgrid": (28.93, 4.93, 6),
    "perl": (3.11, 1.35, 5),
    "su2cor": (51.23, 3.50, 5),
    "swim": (188.54, 2.99, 3),
    "tomcatv": (57.18, 3.01, 4),
    "turb3d": (4.11, 3.97, 6),
    "vortex": (12.08, 3.06, 6),
    "wave5": (56.15, 3.12, 5),
}


@pytest.fixture(scope="module")
def stats_by_name():
    return {w.name: compute_loop_statistics(w.loop_index(scale=1), w.name)
            for w in suite()}


@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_iterations_per_execution_band(name, stats_by_name):
    paper_value = PAPER_TABLE1[name][0]
    measured = stats_by_name[name].iterations_per_execution
    assert paper_value / 3.0 <= measured <= paper_value * 3.0, \
        "%s: %.2f vs paper %.2f" % (name, measured, paper_value)


@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_nesting_band(name, stats_by_name):
    _, paper_avg, paper_max = PAPER_TABLE1[name]
    measured = stats_by_name[name]
    # Nesting is the hardest property to match with small kernels; a
    # three-deep tolerance still separates applu/go/fpppp from perl/swim.
    assert measured.average_nesting <= paper_avg + 1.5, name
    assert measured.average_nesting >= max(1.0, paper_avg - 3.0), name
    assert measured.max_nesting <= paper_max + 1, name


def test_iteration_count_ranking_preserved(stats_by_name):
    """The paper's high-trip vs low-trip split must survive: every
    'vector' code out-iterates every 'scalar' code."""
    high = ("hydro2d", "mgrid", "su2cor", "swim", "tomcatv", "wave5")
    low = ("applu", "compress", "fpppp", "gcc", "go", "li", "perl",
           "turb3d")
    floor = min(stats_by_name[n].iterations_per_execution for n in high)
    ceiling = max(stats_by_name[n].iterations_per_execution for n in low)
    assert floor > ceiling


def test_headline_tpc_bands():
    """Suite-average TPC must stay in the paper's band per TU count
    (paper: 1.65 / 2.6 / 4 / 6.2; we run consistently ~25% hot because
    the synthetic loops are more regular than real SPEC -- the band
    accepts -40%/+50%)."""
    from repro.core.speculation import simulate
    paper = {2: 1.65, 4: 2.6, 8: 4.0, 16: 6.2}
    indexes = [w.loop_index(scale=1) for w in suite()]
    for tus, target in paper.items():
        avg = sum(simulate(i, num_tus=tus, policy="str").tpc
                  for i in indexes) / len(indexes)
        assert 0.6 * target <= avg <= 1.5 * target, \
            "%d TUs: %.2f vs paper %.2f" % (tus, avg, target)


def test_table2_hit_ratio_band():
    """Paper Table 2 hit ratios run 54.5-100%; ours must stay in a
    comparable band with the same regular-vs-irregular split."""
    from repro.core.speculation import simulate
    hit = {}
    for workload in suite():
        index = workload.loop_index(scale=1)
        hit[workload.name] = simulate(index, num_tus=4,
                                      policy="str(3)").hit_ratio
    assert min(hit.values()) > 0.40
    assert max(hit.values()) > 0.95
    regular = ("swim", "su2cor", "wave5", "compress")
    irregular = ("go", "apsi")
    assert min(hit[n] for n in regular) \
        > max(hit[n] for n in irregular) - 0.05


# ---------------------------------------------------------------------------
# Figure 8: data-speculation statistics.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure8():
    """One full-suite figure8 run.  The data-speculation study runs in
    the pass's ``finish`` over its own full-effects stream and needs no
    control-flow replay, so the pass is driven directly."""
    from repro.analysis.base import WorkloadContext
    from repro.experiments.figure8 import Figure8Analysis

    analysis = Figure8Analysis()
    for workload in suite():
        analysis.finish(WorkloadContext(workload.name, 0,
                                        workload=workload, scale=1))
    return analysis.result()


def test_figure8_most_frequent_path_band(figure8):
    """The most frequent path covers the majority of all iterations
    (~85% in the paper)."""
    assert figure8.extra["suite"].same_path > 0.6


def test_figure8_live_in_registers_beat_memory(figure8):
    suite_stats = figure8.extra["suite"]
    assert suite_stats.lr_pred > suite_stats.lm_pred
    assert suite_stats.lr_pred > 0.85


def test_figure8_all_correct_ordering(figure8):
    """all lr >= all lm >= all data, as in the paper."""
    suite_stats = figure8.extra["suite"]
    assert suite_stats.all_lr >= suite_stats.all_lm \
        >= suite_stats.all_data - 1e-12


def test_figure8_regular_codes_have_single_path_loops(figure8):
    per_bench = figure8.extra["per_bench"]
    assert per_bench["swim"].same_path > 0.9
    assert per_bench["tomcatv"].same_path > 0.9
    assert per_bench["go"].same_path < per_bench["swim"].same_path
