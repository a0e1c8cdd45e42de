"""Integration tests for the experiment harness: every table/figure of
the paper regenerates and keeps its qualitative shape.

These run on a reduced two-workload runner where possible, plus one
full-suite smoke of the cheap experiments; heavyweight full-suite runs
live in benchmarks/.
"""

import os

import pytest

from repro.experiments import SimulationSession, available_experiments
from repro.experiments import (
    ablations,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table1,
    table2,
)


@pytest.fixture(scope="module")
def small_runner():
    """Two contrasting workloads: one regular, one branchy."""
    return SimulationSession(workloads=("swim", "go"), cache_dir=None)


@pytest.fixture(scope="module")
def full_runner():
    return SimulationSession(cache_dir=None)


class TestRunnerInfrastructure:
    def test_trace_cached(self, small_runner):
        assert small_runner.trace("swim") is small_runner.trace("swim")

    def test_index_cached(self, small_runner):
        assert small_runner.index("go") is small_runner.index("go")

    def test_unknown_workload(self, small_runner):
        with pytest.raises(KeyError):
            small_runner.trace("spice")

    def test_available_experiments_complete(self):
        names = set(available_experiments())
        assert names == {"table1", "figure4", "figure5", "figure6",
                         "figure7", "table2", "figure8", "ablations",
                         "baselines", "extensions"}

    def test_cli_list(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out


class TestTable1:
    def test_rows_and_render(self, small_runner):
        result = table1.run(small_runner)
        assert len(result.rows) == 2
        assert "Table 1" in result.render()
        swim_row = result.row_for("swim")
        go_row = result.row_for("go")
        # swim: long regular loops; go: short irregular ones.
        assert swim_row[3] > 10 * go_row[3]


class TestFigure4:
    def test_hit_ratio_monotone_in_size(self, small_runner):
        result = figure4.run(small_runner)
        per_size = result.extra["per_size"]
        lets = [per_size[s]["let"] for s in (2, 4, 8, 16)]
        lits = [per_size[s]["lit"] for s in (2, 4, 8, 16)]
        assert all(a <= b + 1e-9 for a, b in zip(lets, lets[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lits, lits[1:]))

    def test_percentages_in_range(self, small_runner):
        result = figure4.run(small_runner)
        for _size, let_pct, lit_pct in result.rows:
            assert 0 <= let_pct <= 100
            assert 0 <= lit_pct <= 100


class TestFigure5:
    def test_ideal_tpc_exceeds_one(self, small_runner):
        result = figure5.run(small_runner)
        for _name, full_tpc, reduced_tpc in result.rows:
            assert full_tpc >= 1.0
            assert reduced_tpc >= 1.0

    def test_prefix_behaves_like_full_run(self, small_runner):
        result = figure5.run(small_runner)
        for name, full_tpc, reduced_tpc in result.rows:
            ratio = reduced_tpc / full_tpc
            assert 0.25 < ratio < 4.0, name

    def test_regular_code_far_more_ideal_tlp(self, small_runner):
        result = figure5.run(small_runner)
        assert result.row_for("swim")[1] > result.row_for("go")[1]


class TestFigure6:
    def test_tpc_monotone_in_tus(self, small_runner):
        result = figure6.run(small_runner)
        for row in result.rows:
            tpcs = row[1:]
            assert all(a <= b + 1e-9 for a, b in zip(tpcs, tpcs[1:]))

    def test_avg_row_present(self, small_runner):
        result = figure6.run(small_runner)
        assert result.rows[0][0] == "AVG"

    def test_tpc_bounded_by_tus(self, small_runner):
        result = figure6.run(small_runner)
        for row in result.rows[1:]:
            for tus, tpc in zip((2, 4, 8, 16), row[1:]):
                assert 1.0 <= tpc <= tus + 1e-9


class TestFigure7:
    def test_policy_table_shape(self, small_runner):
        result = figure7.run(small_runner)
        assert [row[0] for row in result.rows] \
            == ["IDLE", "STR", "STR(1)", "STR(2)", "STR(3)"]

    def test_str_at_least_str1_on_full_suite(self, full_runner):
        # The paper's key qualitative claim: STR(i) squashes correct
        # speculation, so plain STR wins on average at small TU counts.
        result = figure7.run(full_runner)
        averages = result.extra["averages"]
        for tus in (2, 4, 8):
            assert averages[("str", tus)] >= averages[("str(1)", tus)], tus


class TestTable2:
    def test_row_shape_and_ranges(self, small_runner):
        result = table2.run(small_runner)
        for row in result.rows:
            _name, nspec, tps, hit, instr_verif, tpc = row
            assert nspec > 0
            assert tps >= 1.0
            assert 0 <= hit <= 100
            assert instr_verif > 0
            assert 1.0 <= tpc <= 4.0 + 1e-9

    def test_regular_beats_irregular(self, small_runner):
        result = table2.run(small_runner)
        assert result.row_for("swim")[5] > result.row_for("go")[5]


class TestFigure8:
    def test_suite_row_aggregates(self, small_runner):
        result = figure8.run(small_runner)
        assert result.rows[0][0] == "SUITE"
        assert len(result.rows) == 3

    def test_percentages_valid(self, small_runner):
        result = figure8.run(small_runner)
        for row in result.rows:
            assert all(0.0 <= v <= 100.0 for v in row[1:])

    def test_qualitative_ordering(self, small_runner):
        result = figure8.run(small_runner)
        suite_row = result.row_for("SUITE")
        _, _same, lr, lm, all_lr, all_lm, all_data = suite_row
        assert lr > lm              # registers predict better than memory
        assert all_lr >= all_lm     # and per-iteration all-correct too
        assert all_data <= all_lm + 1e-9

    def test_regular_code_has_stable_paths(self, small_runner):
        result = figure8.run(small_runner)
        assert result.row_for("swim")[1] > result.row_for("go")[1]


class TestAblations:
    def test_all_three_ablations_run(self, small_runner):
        results = ablations.run(small_runner)
        assert len(results) == 3

    def test_nesting_aware_close_to_lru(self, small_runner):
        result = ablations.replacement_policy_ablation(small_runner)
        for _size, let_lru, let_aware, lit_lru, lit_aware in result.rows:
            assert abs(let_lru - let_aware) < 25
            assert abs(lit_lru - lit_aware) < 25

    def test_waiting_tpc_upper_bounds_executing(self, small_runner):
        result = ablations.waiting_accounting_ablation(small_runner)
        for _name, incl, excl in result.rows:
            assert excl <= incl + 1e-9

    def test_cls_overflow_decreases_with_capacity(self, small_runner):
        result = ablations.cls_capacity_ablation(small_runner)
        drops = [row[1] for row in result.rows]
        assert all(a >= b for a, b in zip(drops, drops[1:]))
        assert drops[-1] == 0        # 16 entries never overflow


class TestReportRendering:
    def test_render_contains_headers(self, small_runner):
        result = table1.run(small_runner)
        text = result.render()
        for header in result.headers:
            assert str(header) in text

    def test_row_for_missing_key(self, small_runner):
        result = table1.run(small_runner)
        with pytest.raises(KeyError):
            result.row_for("spice")

    def test_column_accessor(self, small_runner):
        result = table1.run(small_runner)
        assert result.column("program") == ["swim", "go"]


class TestExperimentSelection:
    """'all' composes with explicit names; duplicates run once."""

    def test_all_alone_expands(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        assert select_experiments(["all"], experiments) \
            == list(experiments)

    def test_all_composes_with_names(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        selected = select_experiments(["table2", "all"], experiments)
        assert selected[0] == "table2"
        assert selected.count("table2") == 1
        assert set(selected) == set(experiments)

    def test_duplicates_deduplicated(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        assert select_experiments(["table1", "table1", "figure4"],
                                  experiments) == ["table1", "figure4"]

    def test_unknown_name_rejected(self):
        from repro.experiments.runner import select_experiments
        with pytest.raises(ValueError, match="spice"):
            select_experiments(["table1", "spice"],
                               available_experiments())

    def test_cli_list_includes_workloads(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "swim" in out and "go" in out

    def test_module_entry_point_stderr_clean(self):
        """``python -m repro.experiments.runner`` must not trip runpy's
        found-in-sys.modules warning: importing the package must not
        import the runner module."""
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--list"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0
        assert result.stderr == ""
        assert "table1" in result.stdout

    def test_cli_rejects_unknown_workload(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--workloads", "spice"])

    def test_cli_csv_format(self, capsys):
        from repro.experiments.runner import main
        assert main(["table1", "--workloads", "mgrid",
                     "--no-cache", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("program,")
        assert "mgrid" in out

    def test_cli_json_format_output_dir(self, tmp_path, capsys):
        import json
        from repro.experiments.runner import main
        out_dir = str(tmp_path / "results")
        assert main(["table1", "ablations", "--workloads", "mgrid",
                     "--no-cache", "--format", "json",
                     "--output-dir", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["ablations-1.json", "ablations-2.json",
                         "ablations-3.json", "table1.json"]
        data = json.loads((tmp_path / "results" / "table1.json")
                          .read_text())
        assert data["headers"][0] == "program"
        assert data["rows"][0][0] == "mgrid"
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_cli_text_output_dir(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out_dir = str(tmp_path / "results")
        assert main(["table1", "--workloads", "mgrid", "--no-cache",
                     "--output-dir", out_dir]) == 0
        text = (tmp_path / "results" / "table1.txt").read_text()
        assert "Table 1" in text
        assert "mgrid" in text

    def test_suite_runner_removed(self):
        with pytest.raises(ImportError, match="SimulationSession"):
            from repro.experiments import SuiteRunner  # noqa: F401
        with pytest.raises(ImportError, match="SimulationSession"):
            from repro.experiments.runner import SuiteRunner  # noqa: F401,F811
