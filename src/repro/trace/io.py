"""Trace (de)serialization.

Control-flow traces are persisted so experiment pipelines can cache the
expensive interpretation step (the on-disk trace cache in
:mod:`repro.pipeline.cache` builds on this module).  Three format
versions are readable; **v3 is the only format written by default**:

* **v1** (legacy text, read-only)::

      #cftrace v1 name=<program> total=<n> halted=<0|1> records=<n>
      <seq> <pc> <kind> <taken> <target|->

  Older v1 files lack the ``records=`` field; they still load, but
  without truncation detection.  v1 is never written by default
  anymore (pass ``version=1`` explicitly to produce fixtures).

* **v2** (text, chunked): same line layout as v1, but written and read
  in bounded chunks, with a back-patchable header
  (:class:`CFTraceWriter`) so a trace can stream to disk while it is
  generated.

* **v3** (binary, columnar -- the cache format): a struct-packed
  header followed by column chunks that map one-to-one onto
  :class:`~repro.trace.batch.RecordBatch`.  Layout, all little-endian::

      magic  b"CFT3"
      header <H name_len> <name bytes> <q total> <B halted> <q records>
      chunk  <I count> <I payload_len> zlib(seqs[count]x q
             | pcs[count]x q | kinds[count]x b | takens[count]x b
             | targets[count]x q)
      end    <I 0xFFFFFFFF>

  Each chunk's concatenated column bytes are zlib-compressed (the
  64-bit columns are mostly zero bytes, so the cache shrinks well
  below the old text format while decoding stays a C-speed
  ``decompress`` straight into zero-copy column views; files opened
  by path are additionally memory-mapped so the compressed payloads
  are never copied out of the page cache).  ``records`` in the
  header is the
  declared total; the end marker must be followed by end-of-file.
  Readers raise :class:`ValueError` on a bad magic, a truncated or
  undecodable chunk, a record-count mismatch, or trailing garbage --
  a v3 file is either bit-exact or rejected.

All loaders validate the declared record count and raise
:class:`ValueError` on truncated, padded, or malformed files.

Full traces are not serialized (they are cheap to regenerate at the
scales the data-speculation study uses, and enormous on disk).
"""

import contextlib
import io
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import NamedTuple, Optional

from repro.trace.batch import NO_TARGET, RecordBatch, iter_batches
from repro.trace.record import CFRecord
from repro.trace.stream import CFTrace

_HEADER_V1 = "#cftrace v1 "
_HEADER_V2 = "#cftrace v2 "

#: v3 file magic.  The leading byte differs from ``#`` so text and
#: binary traces are distinguishable from their first byte.
MAGIC_V3 = b"CFT3"

#: Bump when the on-disk record layout changes; cache keys include it.
TRACE_FORMAT_VERSION = 3

#: Records per chunk for the batched v2/v3 writers.
CHUNK_RECORDS = 8192

#: Room reserved in a back-patched v2 header for the numeric fields.
_BACKPATCH_SLACK = 64

#: v3 end-of-chunks marker (an impossible chunk record count).
_END_MARKER = 0xFFFFFFFF

#: Upper bound on a single v3 chunk's declared record count; anything
#: larger is treated as corruption rather than attempted as an
#: allocation.
_MAX_CHUNK_RECORDS = 1 << 28

_NAME_STRUCT = struct.Struct("<H")
_META_STRUCT = struct.Struct("<qBq")      # total, halted, records
_COUNT_STRUCT = struct.Struct("<I")

_BIG_ENDIAN = sys.byteorder == "big"


class TraceHeader(NamedTuple):
    """Parsed trace-file header."""

    version: int
    program_name: str
    total_instructions: int
    halted: bool
    records: Optional[int]    #: declared record count (None: legacy v1)


def _format_record(rec):
    return "%d %d %d %d %s" % (
        rec.seq, rec.pc, rec.kind, 1 if rec.taken else 0,
        "-" if rec.target is None else str(rec.target))


def _parse_record(line, lineno):
    parts = line.split()
    if len(parts) != 5:
        raise ValueError("malformed record on line %d: %r" % (lineno, line))
    seq, pc, kind, taken, target = parts
    if taken not in ("0", "1"):
        raise ValueError("malformed taken flag on line %d: %r"
                         % (lineno, line))
    try:
        return CFRecord(int(seq), int(pc), int(kind), taken == "1",
                        None if target == "-" else int(target))
    except ValueError:
        raise ValueError("malformed record on line %d: %r"
                         % (lineno, line)) from None


def _parse_header(line):
    if line.startswith(_HEADER_V1):
        version, body = 1, line[len(_HEADER_V1):]
    elif line.startswith(_HEADER_V2):
        version, body = 2, line[len(_HEADER_V2):]
    else:
        raise ValueError("not a cftrace file (bad header %r)" % line[:40])
    fields = {}
    for part in body.split():
        if "=" not in part:
            raise ValueError("malformed header field %r" % part)
        key, value = part.split("=", 1)
        fields[key] = value
    try:
        total = int(fields["total"])
        halted = fields["halted"] == "1"
        records = int(fields["records"]) if "records" in fields else None
    except (KeyError, ValueError):
        raise ValueError("malformed header %r" % line.strip()) from None
    if version == 2 and records is None:
        raise ValueError("v2 header missing records= field")
    return TraceHeader(version, fields.get("name", "program"), total,
                       halted, records)


# -- binary v3 primitives ----------------------------------------------------

class _BufferReader:
    """Minimal binary file facade over a bytes-like buffer (an mmap'd
    trace file, a shared-memory segment, plain ``bytes``).

    ``read`` returns **zero-copy** :class:`memoryview` slices, so the
    v3 reader's framing fields and compressed chunk payloads are never
    copied out of the underlying buffer; ``close`` releases the view
    and any owned backing resources (mapping, file handle).  Only the
    surface the v3 reader uses is implemented.
    """

    __slots__ = ("_view", "_pos", "_mm", "_fh")

    def __init__(self, buf, mm=None, fh=None):
        self._view = memoryview(buf)
        self._pos = 0
        self._mm = mm
        self._fh = fh

    def read(self, n):
        view = self._view
        if view is None:
            return b""
        data = view[self._pos:self._pos + n]
        self._pos += len(data)
        return data

    def close(self):
        view, self._view = self._view, None
        if view is not None:
            view.release()
        mm, self._mm = self._mm, None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                # A still-referenced slice pins the mapping; it closes
                # with the last view.
                pass
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


def _mmap_reader(fh):
    """A zero-copy :class:`_BufferReader` over *fh*'s mapped contents,
    or ``None`` when the file cannot be mapped (empty file, pipe,
    exotic filesystem) -- callers fall back to plain reads."""
    try:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError, io.UnsupportedOperation):
        return None
    return _BufferReader(mm, mm=mm, fh=fh)


def _exactly(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated or tampered v3 trace: short read in %s"
                         % what)
    return data


def _read_header_v3(fh):
    magic = fh.read(len(MAGIC_V3))
    if magic != MAGIC_V3:
        raise ValueError("not a v3 cftrace file (bad magic %r)"
                         % bytes(magic))
    (name_len,) = _NAME_STRUCT.unpack(_exactly(fh, _NAME_STRUCT.size,
                                               "header"))
    name = bytes(_exactly(fh, name_len, "header")).decode(
        "utf-8", errors="replace")
    total, halted, records = _META_STRUCT.unpack(
        _exactly(fh, _META_STRUCT.size, "header"))
    if records < 0 or total < 0:
        raise ValueError("v3 trace header was never finalized "
                         "(writer did not close?)")
    return TraceHeader(3, name, total, bool(halted), records)


def _column_array(typecode, data):
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN and column.itemsize > 1:
        column.byteswap()
    return column


def _column_bytes(column):
    if _BIG_ENDIAN and column.itemsize > 1:
        typecode = getattr(column, "typecode", None) or column.format
        swapped = array(typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return column.tobytes()


def _read_chunk_v3(fh, count):
    (payload_len,) = _COUNT_STRUCT.unpack(
        _exactly(fh, _COUNT_STRUCT.size, "chunk"))
    raw = count * 26
    # zlib never usefully expands input beyond a few header bytes per
    # block, so a payload larger than the raw column bytes (plus
    # slack) is corruption -- reject before allocating anything.
    if payload_len > raw + 1024:
        raise ValueError("malformed v3 chunk payload length %d for %d "
                         "records" % (payload_len, count))
    try:
        decomp = zlib.decompressobj()
        # Bounded decode: a tampered payload (zlib bomb) may inflate
        # far past the declared record count; cap the output at one
        # byte over the expected size so oversized streams fail the
        # length check below instead of exhausting memory.
        payload = decomp.decompress(_exactly(fh, payload_len, "chunk"),
                                    raw + 1)
    except zlib.error:
        raise ValueError("corrupt v3 chunk (zlib decode failed)") \
            from None
    if len(payload) != raw or not decomp.eof or decomp.unused_data:
        raise ValueError(
            "v3 chunk declares %d records but decodes to %d bytes "
            "(truncated or tampered?)" % (count, len(payload)))
    view = memoryview(payload)
    q = count * 8
    if not _BIG_ENDIAN:
        # Zero-copy decode: the columns are typed views straight over
        # the decompressed payload -- no per-column copies.  Batches
        # are immutable, so the read-only views are fully equivalent
        # to the arrays the copying path builds.
        return RecordBatch(
            view[:q].cast("q"),
            view[q:2 * q].cast("q"),
            view[2 * q:2 * q + count].cast("b"),
            view[2 * q + count:2 * q + 2 * count].cast("b"),
            view[2 * q + 2 * count:].cast("q"))
    seqs = _column_array("q", view[:q])
    pcs = _column_array("q", view[q:2 * q])
    kinds = _column_array("b", view[2 * q:2 * q + count])
    takens = _column_array("b", view[2 * q + count:2 * q + 2 * count])
    targets = _column_array("q", view[2 * q + 2 * count:])
    return RecordBatch(seqs, pcs, kinds, takens, targets)


def _batches_v3(fh, header):
    """Generate the file's batches, enforcing count/end/EOF invariants;
    closes *fh* when exhausted or garbage-collected."""
    try:
        seen = 0
        while True:
            (count,) = _COUNT_STRUCT.unpack(
                _exactly(fh, _COUNT_STRUCT.size, "chunk count"))
            if count == _END_MARKER:
                break
            if count == 0 or count > _MAX_CHUNK_RECORDS:
                raise ValueError("malformed v3 chunk record count %d"
                                 % count)
            yield _read_chunk_v3(fh, count)
            seen += count
            if seen > header.records:
                break    # fail the count check below with the real total
        if seen != header.records:
            raise ValueError(
                "trace declares %d records but file contains %d "
                "(truncated or tampered?)" % (header.records, seen))
        if fh.read(1):
            raise ValueError("trailing garbage after v3 end marker")
    finally:
        fh.close()


def _write_chunk_v3(fh, batch):
    payload = zlib.compress(
        _column_bytes(batch.seqs) + _column_bytes(batch.pcs)
        + _column_bytes(batch.kinds) + _column_bytes(batch.takens)
        + _column_bytes(batch.targets))
    fh.write(_COUNT_STRUCT.pack(len(batch)))
    fh.write(_COUNT_STRUCT.pack(len(payload)))
    fh.write(payload)


# -- writing -----------------------------------------------------------------

@contextlib.contextmanager
def atomic_writer(path, binary=False):
    """A file handle that atomically replaces *path* on success and
    leaves no temp file behind on error."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="ascii")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_cf_trace(trace, path_or_file, version=TRACE_FORMAT_VERSION):
    """Write *trace* to a path (atomically) or file object.

    The default is the current format (binary v3).  ``version=2``
    writes the chunked text format; ``version=1`` exists only to
    produce legacy fixtures and should not be used for new files (it
    has no truncation detection on old readers).  File objects must be
    binary for v3 and text for v1/v2.
    """
    if version not in (1, 2, 3):
        raise ValueError("unknown trace format version %r" % (version,))
    if hasattr(path_or_file, "write"):
        _write(trace, path_or_file, version)
        return
    with atomic_writer(path_or_file, binary=(version == 3)) as fh:
        _write(trace, fh, version)


def _write(trace, fh, version):
    if version == 3:
        _write_v3(trace, fh)
        return
    if version == 1:
        fh.write("%sname=%s total=%d halted=%d records=%d\n"
                 % (_HEADER_V1, trace.program_name,
                    trace.total_instructions, 1 if trace.halted else 0,
                    len(trace.records)))
        for rec in trace.records:
            fh.write(_format_record(rec))
            fh.write("\n")
    elif version == 2:
        fh.write("%sname=%s total=%d halted=%d records=%d\n"
                 % (_HEADER_V2, trace.program_name,
                    trace.total_instructions, 1 if trace.halted else 0,
                    len(trace.records)))
        _write_record_chunks(trace.records, fh)
    else:
        raise ValueError("unknown trace format version %r" % (version,))


def _write_v3(trace, fh):
    try:
        fh.write(MAGIC_V3)
    except TypeError:
        raise TypeError("v3 traces are binary; pass a binary-mode file "
                        "object (or a path)") from None
    name = trace.program_name.encode("utf-8")
    fh.write(_NAME_STRUCT.pack(len(name)))
    fh.write(name)
    fh.write(_META_STRUCT.pack(trace.total_instructions,
                               1 if trace.halted else 0,
                               len(trace.records)))
    for batch in iter_batches(trace.records, CHUNK_RECORDS):
        _write_chunk_v3(fh, batch)
    fh.write(_COUNT_STRUCT.pack(_END_MARKER))


def _write_record_chunks(records, fh):
    batch = []
    for rec in records:
        batch.append(_format_record(rec))
        if len(batch) >= CHUNK_RECORDS:
            fh.write("\n".join(batch))
            fh.write("\n")
            del batch[:]
    if batch:
        fh.write("\n".join(batch))
        fh.write("\n")


class CFTraceWriter:
    """Streaming *v2 text* writer for traces of unknown final length.

    Kept for producing v2 fixtures and for text-consuming tools; the
    cache writes v3 through :class:`BatchTraceWriter`.  The header
    needs ``total``/``halted``/``records``, which a streaming producer
    only knows at the end, so a fixed-width placeholder header is
    written first and back-patched by :meth:`close`.  The file object
    must therefore be seekable.
    """

    def __init__(self, fh, program_name):
        self._fh = fh
        self._name = program_name
        self._count = 0
        self._batch = []
        self._width = (len(_HEADER_V2) + len("name=%s" % program_name)
                       + _BACKPATCH_SLACK)
        fh.write("#" + " " * (self._width - 1) + "\n")

    def write(self, records):
        """Append an iterable of records."""
        batch = self._batch
        for rec in records:
            batch.append(_format_record(rec))
            self._count += 1
            if len(batch) >= CHUNK_RECORDS:
                self._flush()

    def _flush(self):
        if self._batch:
            self._fh.write("\n".join(self._batch))
            self._fh.write("\n")
            del self._batch[:]

    def close(self, total_instructions, halted):
        """Flush records and back-patch the real header."""
        self._flush()
        header = "%sname=%s total=%d halted=%d records=%d" % (
            _HEADER_V2, self._name, total_instructions,
            1 if halted else 0, self._count)
        if len(header) > self._width:
            raise ValueError("header exceeds reserved width")
        self._fh.seek(0)
        self._fh.write(header.ljust(self._width))

    @property
    def records_written(self):
        return self._count


class BatchTraceWriter:
    """Streaming v3 writer: batches in, columnar chunks out.

    Mirrors :class:`CFTraceWriter` for the binary format: the header's
    ``total``/``halted``/``records`` fields sit at a fixed offset (the
    program name's length is known up front), are written as ``-1``
    placeholders, and are back-patched by :meth:`close` -- so a file
    abandoned mid-write fails validation instead of loading short.
    The file object must be binary and seekable.
    """

    def __init__(self, fh, program_name):
        self._fh = fh
        self._count = 0
        name = program_name.encode("utf-8")
        fh.write(MAGIC_V3)
        fh.write(_NAME_STRUCT.pack(len(name)))
        fh.write(name)
        self._meta_offset = (len(MAGIC_V3) + _NAME_STRUCT.size
                             + len(name))
        fh.write(_META_STRUCT.pack(-1, 0, -1))

    def write_batch(self, batch):
        """Append one :class:`RecordBatch` as a chunk."""
        if len(batch):
            _write_chunk_v3(self._fh, batch)
            self._count += len(batch)

    def write(self, records):
        """Append an iterable of records (convenience adapter)."""
        for batch in iter_batches(records, CHUNK_RECORDS):
            self.write_batch(batch)

    def close(self, total_instructions, halted):
        """Write the end marker and back-patch the real header."""
        fh = self._fh
        fh.write(_COUNT_STRUCT.pack(_END_MARKER))
        fh.seek(self._meta_offset)
        fh.write(_META_STRUCT.pack(total_instructions,
                                   1 if halted else 0, self._count))

    @property
    def records_written(self):
        return self._count


def write_cf_batches(tracer, fh):
    """Write a trace to the binary, seekable *fh* as v3 while it is
    being generated.

    *tracer* follows the :class:`~repro.cpu.tracer.ChunkedCFTracer`
    protocol: a ``batches()`` generator of :class:`RecordBatch` plus
    ``total_instructions``/``halted``/``program_name`` valid after
    exhaustion.  Columns go from the interpretation loop to *fh*
    without a record object in between.
    """
    writer = BatchTraceWriter(fh, tracer.program_name)
    for batch in tracer.batches():
        writer.write_batch(batch)
    writer.close(tracer.total_instructions, tracer.halted)


# -- reading -----------------------------------------------------------------

def _open_sniffed(path):
    """Open *path* and classify it: ``(version_family, file_handle)``
    where family is ``"binary"`` (v3) or ``"text"`` (v1/v2)."""
    fh = open(path, "rb")
    try:
        magic = fh.read(len(MAGIC_V3))
        fh.seek(0)
        if magic == MAGIC_V3:
            return "binary", fh
        return "text", io.TextIOWrapper(fh, encoding="ascii")
    except BaseException:
        fh.close()
        raise


def load_cf_trace(path_or_file):
    """Read a trace written by :func:`dump_cf_trace` (any version).

    Paths are sniffed; file objects must be binary for v3, text for
    v1/v2 (matching how they are written).
    """
    if hasattr(path_or_file, "read"):
        if _is_binary_file(path_or_file):
            return _read_v3(path_or_file)
        return _read(path_or_file)
    family, fh = _open_sniffed(path_or_file)
    with fh:
        if family == "binary":
            return _read_v3(fh)
        return _read(fh)


def _is_binary_file(fh):
    probe = fh.read(0)
    return isinstance(probe, (bytes, bytearray, memoryview))


def _read_v3(fh):
    header = _read_header_v3(fh)
    records = []
    seen = 0
    while True:
        (count,) = _COUNT_STRUCT.unpack(
            _exactly(fh, _COUNT_STRUCT.size, "chunk count"))
        if count == _END_MARKER:
            break
        if count == 0 or count > _MAX_CHUNK_RECORDS:
            raise ValueError("malformed v3 chunk record count %d" % count)
        records.extend(_read_chunk_v3(fh, count).iter_records())
        seen += count
    _check_count(header, seen)
    if fh.read(1):
        raise ValueError("trailing garbage after v3 end marker")
    return CFTrace(records=records,
                   total_instructions=header.total_instructions,
                   halted=header.halted, program_name=header.program_name)


def _read(fh):
    header = _parse_header(fh.readline())
    records = []
    lineno = 1
    for line in fh:
        lineno += 1
        line = line.strip()
        if not line:
            continue
        records.append(_parse_record(line, lineno))
    _check_count(header, len(records))
    return CFTrace(records=records,
                   total_instructions=header.total_instructions,
                   halted=header.halted, program_name=header.program_name)


def _check_count(header, seen):
    if header.records is not None and seen != header.records:
        raise ValueError(
            "trace declares %d records but file contains %d "
            "(truncated or tampered?)" % (header.records, seen))


def read_cf_header(path_or_file):
    """Read only the header of a trace file (any version)."""
    if hasattr(path_or_file, "read"):
        if _is_binary_file(path_or_file):
            return _read_header_v3(path_or_file)
        return _parse_header(path_or_file.readline())
    family, fh = _open_sniffed(path_or_file)
    with fh:
        if family == "binary":
            return _read_header_v3(fh)
        return _parse_header(fh.readline())


def open_cf_batches(path):
    """Open *path* for batch streaming: ``(header, batch_iterator)``.

    The iterator yields :class:`~repro.trace.batch.RecordBatch` without
    holding the whole trace in memory, validates the declared record
    count (raising :class:`ValueError` on truncation mid-stream), and
    closes the file when exhausted or garbage-collected.  v1/v2 text
    files are adapted into batches transparently.

    v3 files are **memory-mapped**: framing fields and compressed
    payloads are read as zero-copy views of the page cache, and each
    chunk decompresses straight into the batch's column views (see
    :func:`_read_chunk_v3`) -- the warm-cache replay path allocates one
    payload buffer per chunk and nothing else.
    """
    family, fh = _open_sniffed(path)
    try:
        if family == "binary":
            mapped = _mmap_reader(fh)
            if mapped is not None:
                fh = mapped
            header = _read_header_v3(fh)
            return header, _batches_v3(fh, header)
        header = _parse_header(fh.readline())
    except BaseException:
        fh.close()
        raise
    return header, iter_batches(_record_stream(fh, header),
                                CHUNK_RECORDS)


def open_cf_records(path):
    """Open *path* for streaming: ``(header, record_iterator)``.

    Like :func:`open_cf_batches` but yielding one :class:`CFRecord` at
    a time (the batch layer decodes them on the fly for v3).
    """
    header, batches = open_cf_batches(path)
    return header, _records_of(batches)


def _records_of(batches):
    for batch in batches:
        yield from batch.iter_records()


def _record_stream(fh, header):
    try:
        seen = 0
        lineno = 1
        for line in fh:
            lineno += 1
            line = line.strip()
            if not line:
                continue
            yield _parse_record(line, lineno)
            seen += 1
        _check_count(header, seen)
    finally:
        fh.close()


# -- string/bytes helpers ----------------------------------------------------

def dumps_cf_trace(trace, version=TRACE_FORMAT_VERSION):
    """Serialize to ``bytes`` (v3) or ``str`` (v1/v2) -- the round-trip
    helper for tests and pool workers."""
    if version == 3:
        buf = io.BytesIO()
    else:
        buf = io.StringIO()
    _write(trace, buf, version)
    return buf.getvalue()


def loads_cf_trace(data):
    """Inverse of :func:`dumps_cf_trace`; accepts ``str`` or any
    bytes-like buffer (``bytes``, ``memoryview``, a shared-memory
    segment's ``buf``).  Binary input is parsed zero-copy -- no view
    of *data* outlives the call."""
    if isinstance(data, str):
        return _read(io.StringIO(data))
    reader = _BufferReader(data)
    try:
        return _read_v3(reader)
    finally:
        reader.close()
