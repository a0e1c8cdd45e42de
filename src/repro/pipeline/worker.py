"""Process-pool worker for parallel workload tracing.

:func:`trace_workload` is the single tracing entry point for both the
inline (``jobs=1``) and pooled paths of
:class:`~repro.pipeline.session.SimulationSession`, so tests can count
or stub interpretation in one place.  It must stay importable at module
top level (the pool pickles it by reference) and must not depend on any
parent-process state beyond its arguments: under the ``spawn`` start
method a fresh interpreter imports this module and nothing else.

Inline callers pass the Workload object itself (which also supports
unregistered workloads); pooled callers pass the workload *name*,
resolved through the registry in the child.  Either way the
:class:`~repro.cpu.tracer.ChunkedCFTracer` batches stream to the cache
as columnar v3 chunks, nothing shipped back -- or, without a cache,
into serialized v3 bytes.  With ``shared=True`` those bytes travel
through a :mod:`multiprocessing.shared_memory` segment instead of being
pickled over the pipe: the child ships only a tiny
:class:`SharedTracePayload` descriptor, and the parent attaches, parses
the segment zero-copy, and unlinks it (see :func:`load_trace_payload`).
"""

import io
from typing import NamedTuple

from repro.cpu.tracer import ChunkedCFTracer
from repro.obs import collector as obs
from repro.pipeline.cache import TraceCache, program_fingerprint
from repro.trace.io import loads_cf_trace, write_cf_batches


class SharedTracePayload(NamedTuple):
    """Descriptor for a trace shipped via a shared-memory segment.

    The child serializes the trace (v3 bytes) into the segment and
    detaches; only this descriptor crosses the result pipe.  The
    **parent owns the segment's lifetime** from that point: it must
    attach, read, close, and unlink (all of which
    :func:`load_trace_payload` does).
    """

    segment: str    #: ``SharedMemory`` name to attach to
    size: int       #: serialized trace length (segments round up)


def trace_workload(workload, scale=1, max_instructions=None,
                   cache_dir=None, shared=False, observe=False):
    """Trace one workload (a registered name or a Workload object).

    Returns ``(name, payload)`` where *payload* is:

    * ``None`` when the trace was written to the cache;
    * with ``shared=True``, a :class:`SharedTracePayload` descriptor
      for a shared-memory segment holding the serialized v3 trace
      (falling back to plain bytes when no segment can be created);
    * otherwise the serialized v3 trace bytes.

    With ``observe=True`` (pooled callers whose parent session has an
    active obs collector) the work runs under a worker-local
    :class:`~repro.obs.collector.Collector` and the return value grows
    a third element -- its :meth:`~repro.obs.collector.Collector.
    export` -- which rides the existing result pipe alongside the
    payload for the parent to :meth:`~repro.obs.collector.Collector.
    absorb`.

    ``max_instructions=None`` uses the workload's default budget,
    mirroring the cache key computation in the session.
    """
    if observe:
        label = workload if isinstance(workload, str) else workload.name
        # Under the fork start method the child inherits the parent's
        # active collector; it is a dead copy here -- drop it so the
        # worker-local one can activate.
        obs.deactivate()
        collector = obs.activate(obs.Collector())
        try:
            with obs.span("trace", workload=label, mode="pool"):
                name, payload = trace_workload(
                    workload, scale, max_instructions, cache_dir,
                    shared=shared)
        finally:
            obs.deactivate()
        return name, payload, collector.export()
    if isinstance(workload, str):
        import repro.workloads.suite  # noqa: F401  (registers the suite)
        from repro.workloads.base import get
        workload = get(workload)
    name = workload.name
    limit = max_instructions or workload.default_max_instructions

    program = workload.program(scale)
    tracer = ChunkedCFTracer(program, limit)
    if cache_dir is not None:
        TraceCache(cache_dir).store_stream(
            tracer, name, scale, limit, program_fingerprint(program))
        return name, None

    buf = io.BytesIO()
    write_cf_batches(tracer, buf)
    data = buf.getvalue()
    if shared:
        descriptor = _ship_shared(data)
        if descriptor is not None:
            return name, descriptor
    return name, data


def _ship_shared(data):
    """Move *data* into a fresh shared-memory segment and return its
    :class:`SharedTracePayload`, or ``None`` when shared memory is
    unavailable (no ``/dev/shm``, permissions) -- the caller then ships
    plain bytes."""
    try:
        from multiprocessing import resource_tracker, shared_memory
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, len(data)))
    except (ImportError, OSError):
        return None
    try:
        segment.buf[:len(data)] = data
        descriptor = SharedTracePayload(segment.name, len(data))
    except BaseException:
        segment.close()
        try:
            segment.unlink()
        except OSError:
            pass
        raise
    # Ownership transfers to the parent with the descriptor: stop this
    # process's resource tracker from "cleaning up" (unlinking, with a
    # leak warning at exit) a segment that is deliberately left for
    # the parent to unlink.
    try:
        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory")
    except Exception:
        pass
    segment.close()
    return descriptor


def load_trace_payload(payload):
    """Decode a cacheless worker *payload* into a :class:`CFTrace`.

    Serialized bytes parse directly; a :class:`SharedTracePayload` is
    attached, parsed zero-copy out of the segment, and the segment is
    closed and unlinked here -- exactly once, in the parent.
    """
    if isinstance(payload, SharedTracePayload):
        from multiprocessing import shared_memory
        obs.add("shm.bytes", payload.size)
        segment = shared_memory.SharedMemory(name=payload.segment)
        try:
            return loads_cf_trace(segment.buf[:payload.size])
        finally:
            try:
                segment.close()
            except BufferError:
                pass    # a live view pins the mapping; GC closes it
            try:
                segment.unlink()
            except OSError:
                pass
    return loads_cf_trace(payload)
