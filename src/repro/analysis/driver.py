"""Standalone single-pass driver for in-memory traces.

:func:`analyze_trace` runs the same replay loop the session uses, but
over a trace you already hold -- the path for custom programs that are
not registered workloads (see ``examples/quickstart.py``).
"""

from repro.core.cls import DEFAULT_CAPACITY
from repro.core.detector import LoopDetector
from repro.trace.batch import iter_batches

from repro.analysis.base import WorkloadContext
from repro.analysis.suite import AnalysisSuite


def analyze_trace(analyses, trace, name="program", workload=None,
                  scale=1, cls_capacity=DEFAULT_CAPACITY, timing=None):
    """Replay *trace* once, feeding every pass in *analyses*.

    *analyses* is an :class:`AnalysisSuite` or an iterable of passes;
    *trace* is a :class:`~repro.trace.stream.CFTrace`.  *timing* is the
    default timing model for speculation passes (a spec string or
    :class:`~repro.timing.base.TimingModel` instance; record-fed models
    receive the trace's CF records).  Returns the list of each pass's
    :meth:`result`, in order (or the suite's results).

    The replay is batched: records stream through the detector and the
    suite as :class:`~repro.trace.batch.RecordBatch` columns, exactly
    like the session's cache-backed replay.
    """
    from repro.timing import make_timing

    suite = analyses if isinstance(analyses, AnalysisSuite) \
        else AnalysisSuite(analyses)
    detector = LoopDetector(cls_capacity=cls_capacity)
    timing = make_timing(timing) if timing is not None else None
    ctx = WorkloadContext(name, trace.total_instructions,
                          workload=workload, scale=scale,
                          cls_capacity=cls_capacity, detector=detector,
                          timing=timing)
    suite.begin(ctx)
    wants_records = suite.wants_records
    timing_feed = (timing.feed_batch
                   if timing is not None and timing.wants_records
                   else None)
    feed = suite.feed
    feed_batch = suite.feed_batch
    detect_batch = detector.feed_batch
    for batch in iter_batches(trace.records):
        # The detector sees each batch first: the CLS-capacity sweep
        # reads its fork points.
        events = detect_batch(batch)
        if wants_records:
            feed_batch(batch)
        if timing_feed is not None:
            timing_feed(batch)
        for event in events:
            feed(event)
    for event in detector.finish(trace.total_instructions):
        feed(event)
    ctx.index = detector.index(trace.total_instructions)
    suite.finish(ctx)
    return suite.results()
