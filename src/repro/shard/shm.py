"""Shared-memory column transport for :class:`~repro.trace.columnar.FlowTable`.

A table's numpy columns are *published* once into a named segment; a
picklable :class:`TableHandle` (segment name + a column table-of-contents)
is all that crosses the pool boundary, and workers *attach* to the columns
by name and offset instead of unpickling tens of megabytes of records.

Three backends, selected by ``REPRO_SHM``:

* ``shm`` — ``multiprocessing.shared_memory`` segments.  Attaching and
  creating both suppress the per-process ``resource_tracker``
  registration (ownership belongs to the publishing run's
  :class:`SegmentScope`, never to whichever worker process happens to
  exit first — the tracker would otherwise unlink a live segment under
  the parent).
* ``file`` — memory-mapped files under ``/dev/shm`` when available
  (tmpfs: same zero-copy behaviour), else the system temp dir.
* ``off`` — no segment at all: the handle carries the records inline and
  "attach" rebuilds a plain table.  The uniform API with none of the
  machinery, for platforms where neither backend works.

``auto`` (the default) picks ``shm`` when importable, else ``file``.

Lifetime rules (the cleanup contract ``docs/architecture.md`` documents):

* Whoever *publishes* registers the segment in the process-local live
  registry; an attach from the same process is a **no-op view** — it
  returns the original table object, which is what makes the serial and
  thread backends zero-cost.
* Cross-process attaches map the segment read-only; each attached table
  holds one reference and a ``weakref.finalize`` drops it, closing the
  mapping when the last table dies.  Unlinking a segment never
  invalidates live mappings (POSIX semantics), so a scope may unlink
  eagerly while attached tables stay valid.
* A :class:`SegmentScope` owns every name it hands out and unlinks them
  all on exit — including the exception path, so a worker crash or
  :class:`~repro.exec.executor.ExecutionError` mid-fan-out never leaks a
  segment (``tests/test_shard.py`` holds it to that under an injected
  ``task_crash`` plan).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import secrets
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trace.columnar import FlowTable, _Columns
from repro.trace.records import FlowRecord

#: Environment variable selecting the transport backend.
ENV_SHM = "REPRO_SHM"

#: Recognised ``REPRO_SHM`` values.
SHM_MODES = ("auto", "shm", "file", "off")

#: Column arrays that travel through a segment, in layout order.  ``hour``
#: is derived from ``t_start`` on attach, exactly as ``_Columns`` builds it.
_FIELDS = (
    "src_ip",
    "dst_ip",
    "num_bytes",
    "t_start",
    "t_end",
    "video_code",
    "resolution_code",
    "video_ids",
    "resolutions",
)

_ALIGN = 16


def _have_shared_memory() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib since 3.8
        return False
    return True


def shm_mode() -> str:
    """The active transport backend (``"shm"``, ``"file"`` or ``"off"``).

    Reads :data:`ENV_SHM` on every call so tests can switch modes.
    ``auto`` resolves to ``shm`` when ``multiprocessing.shared_memory``
    imports, else ``file``.

    Raises:
        ValueError: For an unrecognised mode name.
    """
    value = os.environ.get(ENV_SHM, "auto").strip().lower() or "auto"
    if value not in SHM_MODES:
        raise ValueError(f"unknown {ENV_SHM}={value!r}; expected one of {SHM_MODES}")
    if value == "auto":
        return "shm" if _have_shared_memory() else "file"
    return value


# ------------------------------------------------------------------ handles


@dataclass(frozen=True)
class TableHandle:
    """A picklable reference to one published table's columns.

    Attributes:
        mode: ``"shm"`` or ``"file"``.
        name: Segment name (shm) or file path (file).
        size: Total segment size in bytes.
        toc: Per-column ``(field, dtype_str, length, offset)`` rows, in
            :data:`_FIELDS` order.
        rows: Number of flow records the columns describe.
    """

    mode: str
    name: str
    size: int
    toc: Tuple[Tuple[str, str, int, int], ...]
    rows: int


@dataclass(frozen=True)
class InlineHandle:
    """The ``REPRO_SHM=off`` degradation: records travel by pickle."""

    records: Tuple[FlowRecord, ...]

    @property
    def rows(self) -> int:
        return len(self.records)


# ----------------------------------------------------------- live registry


@dataclass
class _Segment:
    """One segment this process publishes or has mapped."""

    mode: str
    name: str
    owner: bool
    buf: Optional[memoryview] = None
    closer: Optional[object] = None  # SharedMemory or (mmap, file) pair
    table: Optional[FlowTable] = None  # publisher-side original (no-op views)
    refs: int = 0
    unlinked: bool = False


#: Process-local registry of segments published or mapped here.
_LIVE: Dict[str, _Segment] = {}


def live_segments() -> List[str]:
    """Names of segments this process currently holds open or owns.

    The leak regression tests assert this is empty after a study run —
    crashed workers and ``ExecutionError`` paths included.
    """
    return sorted(_LIVE)


_TRACKER_LOCK = threading.Lock()


@contextlib.contextmanager
def _suppressed_tracking():
    """Construct SharedMemory objects without resource-tracker REGISTERs.

    On Python < 3.13 both creating and attaching register the segment
    with the per-process tracker, which unlinks everything it knows at
    process exit — so a pool worker exiting would destroy segments the
    parent still reads.  Ownership lives in :class:`SegmentScope`
    instead.

    Suppressing the REGISTER beats registering and immediately
    unregistering: forked workers share one tracker process whose cache
    is a *set*, so two workers attaching the same segment concurrently
    collapse their REGISTERs into one entry and the second UNREGISTER
    tracebacks inside the tracker (``KeyError: '/repro-...'`` on
    stderr).  With no REGISTER sent, the only tracker traffic left is
    the adjacent re-register/unlink pair at the single owning unlink.
    """
    try:  # pragma: no cover - exercised indirectly via process workers
        from multiprocessing import resource_tracker
    except ImportError:
        yield
        return
    with _TRACKER_LOCK:
        saved = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register = saved


def _retrack_shared_memory(shm) -> None:
    """Register just before unlink so the unlink's UNREGISTER balances.

    Goes through the tracker instance, not the module-level ``register``,
    so it still lands while :func:`_suppressed_tracking` is active.
    """
    try:  # pragma: no cover - exercised indirectly via process workers
        from multiprocessing import resource_tracker

        impl = getattr(resource_tracker, "_resource_tracker", None)
        register = impl.register if impl is not None else resource_tracker.register
        register(shm._name, "shared_memory")
    except Exception:
        pass


def _quiet_shared_memory_cls():
    """A SharedMemory whose ``__del__`` tolerates live array views.

    At interpreter shutdown the attached numpy arrays can outlive the
    SharedMemory object; the stock ``__del__`` then prints an "Exception
    ignored" BufferError.  The OS reclaims the mapping either way.
    """
    from multiprocessing import shared_memory

    class _QuietSharedMemory(shared_memory.SharedMemory):
        def __del__(self):
            try:
                super().__del__()
            except BufferError:  # pragma: no cover - shutdown ordering
                pass

    return _QuietSharedMemory


def _create_segment(mode: str, name: str, size: int) -> _Segment:
    if mode == "shm":
        from multiprocessing import shared_memory

        cls = _quiet_shared_memory_cls()
        with _suppressed_tracking():
            try:
                shm = cls(name=name, create=True, size=size)
            except FileExistsError:
                # A retried task republishes under its deterministic
                # name: drop the half-written leftover and start clean.
                stale = shared_memory.SharedMemory(name=name)
                stale.close()
                _retrack_shared_memory(stale)
                try:
                    stale.unlink()
                except FileNotFoundError:  # pragma: no cover - unlink race
                    pass
                shm = cls(name=name, create=True, size=size)
        return _Segment(mode, name, owner=True, buf=shm.buf, closer=shm)
    handle = open(name, "w+b")
    handle.truncate(size)
    mapped = mmap.mmap(handle.fileno(), size)
    return _Segment(mode, name, owner=True, buf=memoryview(mapped), closer=(mapped, handle))


def _map_segment(handle: TableHandle) -> _Segment:
    if handle.mode == "shm":
        with _suppressed_tracking():
            shm = _quiet_shared_memory_cls()(name=handle.name)
        return _Segment("shm", handle.name, owner=False, buf=shm.buf, closer=shm)
    fh = open(handle.name, "rb")
    mapped = mmap.mmap(fh.fileno(), handle.size, access=mmap.ACCESS_READ)
    return _Segment("file", handle.name, owner=False, buf=memoryview(mapped), closer=(mapped, fh))


def _close_segment(segment: _Segment) -> None:
    if segment.buf is not None:
        try:
            segment.buf.release()
        except BufferError:  # pragma: no cover - arrays still alive
            pass
        segment.buf = None
    closer = segment.closer
    segment.closer = None
    if closer is None:
        return
    try:
        if segment.mode == "shm":
            closer.close()
        else:
            mapped, fh = closer
            mapped.close()
            fh.close()
    except BufferError:
        # Attached numpy arrays still reference the mapping (finalizer
        # ordering at interpreter shutdown); the OS reclaims it at
        # process exit, and the *segment* is unlinked regardless.
        pass


def _unlink_segment(segment: _Segment) -> None:
    if segment.unlinked:
        return
    segment.unlinked = True
    try:
        if segment.mode == "shm":
            from multiprocessing import shared_memory

            if segment.owner and segment.closer is not None:
                # Creation was tracker-suppressed: register just before
                # unlink so its UNREGISTER doesn't hit a tracker
                # KeyError for a name it never knew about.
                _retrack_shared_memory(segment.closer)
                segment.closer.unlink()
            else:
                with _suppressed_tracking():
                    probe = shared_memory.SharedMemory(name=segment.name)
                probe.close()
                _retrack_shared_memory(probe)
                probe.unlink()
        else:
            os.unlink(segment.name)
    except FileNotFoundError:
        pass


def _release(name: str) -> None:
    """Drop one attached-table reference; close and forget at zero."""
    segment = _LIVE.get(name)
    if segment is None:
        return
    segment.refs -= 1
    if segment.refs <= 0 and not segment.owner:
        _close_segment(segment)
        del _LIVE[name]


def _forget_owned(name: str) -> None:
    """Unlink and close a published segment (scope cleanup)."""
    segment = _LIVE.get(name)
    if segment is None:
        return
    _unlink_segment(segment)
    segment.table = None
    if segment.refs <= 0:
        _close_segment(segment)
        del _LIVE[name]
    else:
        # Attached tables still hold references; their finalizers close
        # the mapping.  The name is gone either way.
        segment.owner = False


# ------------------------------------------------------------ publish/attach


def _pack_columns(cols: _Columns) -> Tuple[List[Tuple[str, str, int, int]], int]:
    toc: List[Tuple[str, str, int, int]] = []
    offset = 0
    for name in _FIELDS:
        arr = getattr(cols, name)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        toc.append((name, arr.dtype.str, len(arr), offset))
        offset += arr.nbytes
    return toc, max(offset, 1)


def publish_table(table: FlowTable, name: Optional[str] = None) -> object:
    """Publish a table's columns into a named segment.

    Args:
        table: The table to publish (columns are materialised now).
        name: Segment name / file path, normally minted by a
            :class:`SegmentScope` so cleanup responsibility is explicit.
            ``None`` mints an unscoped name (caller must unlink).

    Returns:
        A picklable handle for :func:`attach_table`.  Under
        ``REPRO_SHM=off`` this is an :class:`InlineHandle` that simply
        carries the records.
    """
    mode = shm_mode()
    if mode == "off":
        return InlineHandle(records=tuple(table.records))
    cols = table.columns()
    toc, size = _pack_columns(cols)
    if name is None:
        name = _mint_name(mode, "adhoc")
    segment = _create_segment(mode, name, size)
    for field_name, _dtype, _length, offset in toc:
        arr = getattr(cols, field_name)
        segment.buf[offset:offset + arr.nbytes] = arr.tobytes()
    segment.table = table
    _LIVE[name] = segment
    return TableHandle(mode=mode, name=name, size=size, toc=tuple(toc), rows=len(table))


def _columns_from_buffer(handle: TableHandle, buf: memoryview) -> _Columns:
    cols = _Columns.__new__(_Columns)
    for field_name, dtype, length, offset in handle.toc:
        itemsize = np.dtype(dtype).itemsize
        arr = np.frombuffer(buf, dtype=dtype, count=length, offset=offset)
        assert arr.nbytes == itemsize * length
        setattr(cols, field_name, arr)
    cols.hour = (cols.t_start // 3600.0).astype(np.int64)
    return cols


def records_from_columns(cols: _Columns, lo: int = 0, hi: Optional[int] = None) -> List[FlowRecord]:
    """Rebuild exact :class:`FlowRecord` objects from column arrays.

    Every column round-trips exactly — int64/float64 preserve the
    original Python values bit for bit and the unique string arrays
    return built-in ``str`` — so the rebuilt records compare equal to
    (and digest identically to) the originals.
    """
    video_ids = cols.video_ids.tolist()
    resolutions = cols.resolutions.tolist()
    return [
        FlowRecord(
            src_ip=src, dst_ip=dst, num_bytes=size, t_start=ts, t_end=te,
            video_id=video_ids[vc], resolution=resolutions[rc],
        )
        for src, dst, size, ts, te, vc, rc in zip(
            cols.src_ip[lo:hi].tolist(),
            cols.dst_ip[lo:hi].tolist(),
            cols.num_bytes[lo:hi].tolist(),
            cols.t_start[lo:hi].tolist(),
            cols.t_end[lo:hi].tolist(),
            cols.video_code[lo:hi].tolist(),
            cols.resolution_code[lo:hi].tolist(),
        )
    ]


#: Captured before :class:`ColumnTable` shadows it with a property.
_RECORDS_SLOT = FlowTable.records


class ColumnTable(FlowTable):
    """A :class:`FlowTable` backed by column arrays, records on demand.

    Kernels that consume columns (the accumulators, grouped sums, the
    session index) run zero-copy over the attached arrays; only paths
    that genuinely need record objects (session flow lists, the python
    kernels) pay to materialise them, once, from the columns.
    """

    __slots__ = ()

    def __init__(self, cols: _Columns):
        self._cols = cols
        self._session_index = None
        self._dst_unique = None
        self._dst_code = None
        from repro.trace.columnar import _register_table

        _register_table(self)

    @property
    def records(self) -> List[FlowRecord]:
        try:
            return _RECORDS_SLOT.__get__(self)
        except AttributeError:
            materialised = records_from_columns(self._cols)
            _RECORDS_SLOT.__set__(self, materialised)
            return materialised

    def __len__(self) -> int:
        return len(self._cols.t_start)

    def columns(self) -> _Columns:
        return self._cols


def attach_table(handle) -> FlowTable:
    """The table behind a handle, sharing memory whenever possible.

    * Same process as the publisher (serial/thread backends, or a forked
      worker that inherited the registry): returns the **original** table
      object — a no-op view.
    * Another process: maps the segment read-only and wraps the column
      views in a :class:`ColumnTable`; repeated attaches of one segment
      share a single mapping via the live registry's refcount.
    * :class:`InlineHandle`: rebuilds a plain table from the records.
    """
    if isinstance(handle, InlineHandle):
        return FlowTable(list(handle.records))
    segment = _LIVE.get(handle.name)
    if segment is not None and segment.table is not None:
        return segment.table
    if segment is None:
        segment = _map_segment(handle)
        _LIVE[handle.name] = segment
    segment.refs += 1
    table = ColumnTable(_columns_from_buffer(handle, segment.buf))
    weakref.finalize(table, _release, handle.name)
    return table


def view_table(table: FlowTable, lo: int, hi: int) -> FlowTable:
    """A zero-copy table over rows ``[lo, hi)`` of ``table``.

    Column arrays are numpy views; the unique string arrays stay whole
    (codes index into them unchanged).  Records materialise lazily from
    the sliced columns if a consumer asks.
    """
    cols = table.columns()
    sliced = _Columns.__new__(_Columns)
    for name in ("src_ip", "dst_ip", "num_bytes", "t_start", "t_end", "hour",
                 "video_code", "resolution_code"):
        setattr(sliced, name, getattr(cols, name)[lo:hi])
    sliced.video_ids = cols.video_ids
    sliced.resolutions = cols.resolutions
    return ColumnTable(sliced)


# ------------------------------------------------------------------- scopes


def _mint_name(mode: str, tag: str, directory: Optional[str] = None) -> str:
    token = secrets.token_hex(4)
    if mode == "shm":
        return f"repro-{tag}-{token}"
    directory = directory or tempfile.gettempdir()
    return os.path.join(directory, f"repro-{tag}-{token}.col")


def _file_dir() -> str:
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir) and os.access(shm_dir, os.W_OK):
        return shm_dir
    return tempfile.gettempdir()


@dataclass
class SegmentScope:
    """Owns every segment name a fan-out hands to its workers.

    The parent mints one name per task *before* dispatch, so it can
    unlink every segment on exit regardless of what the workers did —
    returned normally, crashed after publishing, or never ran.  Exit is
    exception-safe by construction (``with`` / ``try: ... finally:``),
    which is the fix for shared-memory leaks on worker-crash and
    ``ExecutionError`` paths.
    """

    names: List[str] = field(default_factory=list)
    _dir: Optional[str] = None

    def __enter__(self) -> "SegmentScope":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def name_for(self, tag: str) -> str:
        """Mint and record one segment name for task ``tag``."""
        mode = shm_mode()
        if mode == "off":
            name = f"inline-{tag}"
        elif mode == "file":
            if self._dir is None:
                self._dir = tempfile.mkdtemp(prefix="repro-shard-", dir=_file_dir())
            name = _mint_name(mode, _slug(tag), directory=self._dir)
        else:
            name = _mint_name(mode, _slug(tag))
        self.names.append(name)
        return name

    def close(self) -> None:
        """Unlink every owned segment; attached tables stay valid."""
        for name in self.names:
            segment = _LIVE.get(name)
            if segment is not None:
                _forget_owned(name)
            else:
                _unlink_orphan(name)
        self.names.clear()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


def _slug(tag: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in tag)[:40]


def _unlink_orphan(name: str) -> None:
    """Unlink a segment published by a worker that never reported back."""
    mode = shm_mode()
    if mode == "off" or name.startswith("inline-"):
        return
    if os.path.isabs(name):
        try:
            os.unlink(name)
        except FileNotFoundError:
            pass
        return
    try:
        from multiprocessing import shared_memory

        with _suppressed_tracking():
            probe = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, ImportError):
        return
    probe.close()
    _retrack_shared_memory(probe)
    try:
        probe.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        pass
