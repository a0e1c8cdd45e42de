"""The kernel backend tag.

Stateless column loops over :class:`~repro.trace.batch.RecordBatch`
columns live in their single consumers -- the fused bimodal+gshare
loop in :class:`~repro.core.branchpred.BranchPredictionStream` and the
prefix-sum loop in :class:`~repro.timing.models.ClassCostTiming`.
There is one implementation, in the standard library.

:func:`backend` names it for run manifests (``meta.kernel_backend``)
and the ``kernels.backend`` gauge.
"""


def backend():
    """The kernel implementation in use: always ``"stdlib"``."""
    return "stdlib"
