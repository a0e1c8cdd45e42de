"""One module per table/figure of the paper, plus ablations.

Every experiment is a registered streaming
:class:`~repro.analysis.base.Analysis` pass (see ``docs/ANALYSIS.md``);
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` feeds any number of
them from one event-stream replay per workload.  Each module also keeps
a ``run(session)`` convenience returning its
:class:`~repro.experiments.report.ExperimentResult` object(s).  The
command line entry point is ``python -m repro.experiments.runner``;
each module is also runnable directly, e.g. ``python -m
repro.experiments.table1 --jobs 4``.
"""

from repro.analysis import AnalysisSuite
from repro.experiments.report import ExperimentResult
from repro.pipeline import PipelineConfig, SimulationSession

#: Re-exported from :mod:`repro.experiments.runner` on first access, so
#: importing the package does not import the module that ``python -m
#: repro.experiments.runner`` is about to execute as ``__main__``.
_RUNNER_EXPORTS = frozenset({
    "available_experiments",
    "build_suite",
    "extra_experiments",
    "run_experiment",
    "select_experiments",
})

__all__ = [
    "AnalysisSuite",
    "ExperimentResult",
    "PipelineConfig",
    "SimulationSession",
    *sorted(_RUNNER_EXPORTS),
]


def __getattr__(name):
    if name in _RUNNER_EXPORTS:
        from repro.experiments import runner
        return getattr(runner, name)
    if name == "SuiteRunner":
        from repro.experiments.runner import _removed
        _removed("repro.experiments.SuiteRunner")
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))
