"""Content-addressed, process-safe artifact store.

Values are pickled stage outputs (simulation results, RTT matrices, metric
rows, rendered reports) addressed by the sha256 keys of
:func:`repro.artifacts.keys.stage_key`.  Writes go through a temp file in
the destination directory followed by an atomic :func:`os.replace`, so any
number of concurrent processes — e.g. the pool workers of
:func:`~repro.exec.executor.fan_out` — can share one cache directory
without locks: a reader sees either the complete artifact or nothing.

Layout, under ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``)::

    objects/<k[:2]>/<k[2:]>.pkl   one artifact per key: sha256 + pickle
    events.jsonl                  append-only hit/miss/put ledger

Each object is the 32-byte sha256 of its pickle followed by the pickle, so
a read verifies the bytes it returns: a flipped bit, a truncation or a
blob of another format fails the check and is quarantined as a miss.

The ledger makes counters durable across processes: every store instance
appends one JSON line per cache event (POSIX ``O_APPEND`` keeps concurrent
small appends intact), and ``repro cache stats`` aggregates them next to
the on-disk object census.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs

#: Environment variable naming the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable switching the default store off (``0``/``off``/
#: ``false``/``no``); anything else — including unset — leaves it on.
ENV_CACHE = "REPRO_CACHE"

#: Default cache location when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = "~/.cache/repro"

_OFF_VALUES = ("0", "off", "false", "no")

#: Bytes of the sha256 that heads every stored object.
_CHECKSUM_BYTES = 32


@dataclass
class CacheStats:
    """Cache event counters: one store's session, or a ledger's tally.

    Attributes:
        hits: Artifacts served from disk.
        misses: Lookups that found nothing (or a corrupt object).
        puts: Artifacts written.
        quarantined: Corrupt objects moved aside for recomputation.
        bytes_read: Total stored bytes served from disk.
        bytes_written: Total stored bytes written.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    _BY_EVENT = {
        "hit": "hits",
        "miss": "misses",
        "put": "puts",
        "quarantine": "quarantined",
    }

    def record(self, event: str, num_bytes: int) -> None:
        """Fold one ledger event into the counters."""
        attr = self._BY_EVENT.get(event)
        if attr is None:
            return
        setattr(self, attr, getattr(self, attr) + 1)
        if event == "hit":
            self.bytes_read += num_bytes
        elif event == "put":
            self.bytes_written += num_bytes

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-ready dict."""
        return asdict(self)


def cache_enabled() -> bool:
    """Whether the default store is enabled (``REPRO_CACHE``)."""
    return os.environ.get(ENV_CACHE, "").strip().lower() not in _OFF_VALUES


def cache_root() -> Path:
    """The configured cache directory (not necessarily existing yet)."""
    return Path(
        os.environ.get(ENV_CACHE_DIR, "").strip() or DEFAULT_CACHE_DIR
    ).expanduser()


class ArtifactStore:
    """A content-addressed pickle store rooted at one directory.

    Args:
        root: Cache directory; defaults to :func:`cache_root` (which reads
            ``REPRO_CACHE_DIR``).  Created lazily on first write.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else cache_root()
        self.stats = CacheStats()

    # ------------------------------------------------------------ addressing

    @property
    def objects_dir(self) -> Path:
        """Directory holding the pickled artifacts."""
        return self.root / "objects"

    @property
    def ledger_path(self) -> Path:
        """The append-only event ledger."""
        return self.root / "events.jsonl"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt objects are moved aside for post-mortems."""
        return self.root / "quarantine"

    def object_path(self, key: str) -> Path:
        """Where the artifact for ``key`` lives (existing or not)."""
        if len(key) < 3:
            raise ValueError(f"implausible cache key {key!r}")
        return self.objects_dir / key[:2] / f"{key[2:]}.pkl"

    # --------------------------------------------------------------- get/put

    def has(self, key: str) -> bool:
        """Whether an artifact exists for ``key`` (no counters touched)."""
        return self.object_path(key).is_file()

    def get(self, key: str, default: Any = None, stage: str = "") -> Any:
        """Load the artifact for ``key``, or ``default`` on a miss.

        An object whose bytes do not match their checksum (a flipped bit
        on disk, a truncation, a blob without the header) or that does
        not unpickle counts as a miss: the object is *quarantined* —
        moved under ``quarantine/`` for post-mortems — so the caller
        recomputes and the next put heals the slot.  An active fault
        plan can inject exactly this failure mode (``artifact_corrupt``):
        the read surfaces a blob with one byte flipped, keyed
        deterministically on the cache key, and flows through the same
        quarantine path.

        Args:
            key: The stage key.
            default: Returned on a miss.
            stage: Stage name for the event ledger.
        """
        start = time.perf_counter()
        with obs.span("cache/get", layer="cache", stage=stage):
            try:
                return self._get(key, default, stage)
            finally:
                obs.observe(
                    "cache.get_seconds", time.perf_counter() - start, stage=stage
                )

    def _get(self, key: str, default: Any, stage: str) -> Any:
        from hashlib import sha256

        path = self.object_path(key)
        try:
            blob = path.read_bytes()
            blob = self._maybe_corrupt(key, blob)
            body = memoryview(blob)[_CHECKSUM_BYTES:]
            if sha256(body).digest() != blob[:_CHECKSUM_BYTES]:
                raise ValueError("checksum mismatch")
            value = _unpickle(body)
        except FileNotFoundError:
            self._record("miss", stage, 0)
            return default
        except Exception:
            # Unreadable artifact: quarantine it so the next put heals
            # the slot and the bad bytes stay inspectable.
            self._quarantine(path, stage)
            self._record("miss", stage, 0)
            return default
        self._record("hit", stage, len(blob))
        try:
            os.utime(path)  # LRU signal for gc()
        except OSError:
            pass
        return value

    @staticmethod
    def _maybe_corrupt(key: str, blob: bytes) -> bytes:
        """Flip one byte of the blob when the ambient fault plan says so.

        The flipped byte is the middle one, so the injected blob always
        fails its checksum and exercises the genuine quarantine path.
        """
        from repro.faults.plan import active_plan

        plan = active_plan()
        if plan is not None and plan.decide(
            plan.artifact_corrupt, "artifacts/corrupt", key
        ):
            middle = len(blob) // 2
            return blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]
        return blob

    def _quarantine(self, path: Path, stage: str) -> None:
        """Move a corrupt object out of ``objects/`` (best-effort)."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"{path.parent.name}{path.name}"
            os.replace(path, target)
        except OSError:
            # A concurrent reader may have quarantined (or a writer
            # healed) it first; either way the slot is no longer ours.
            return
        self._record("quarantine", stage, 0)
        from repro.faults import report as degradation

        degradation.record("artifacts/store", quarantined=1, degraded=1)

    def put(self, key: str, value: Any, stage: str = "") -> int:
        """Atomically write the artifact for ``key``.

        Returns:
            The stored size in bytes (checksum header included).

        Raises:
            pickle.PicklingError: For unpicklable values (nothing is
                written).
        """
        with obs.span("cache/put", layer="cache", stage=stage):
            return self._put(key, value, stage)

    def _put(self, key: str, value: Any, stage: str) -> int:
        from hashlib import sha256

        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = sha256(body).digest()
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(checksum)
                handle.write(body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        size = len(checksum) + len(body)
        self._record("put", stage, size)
        return size

    # -------------------------------------------------------------- counters

    #: Ledger event → observability counter (see ``repro.obs``).
    _OBS_COUNTERS = {
        "hit": "cache.hit",
        "miss": "cache.miss",
        "put": "cache.put",
        "quarantine": "cache.quarantined",
    }

    def _record(self, event: str, stage: str, num_bytes: int) -> None:
        """Append one event to the ledger (best-effort) and count it."""
        self.stats.record(event, num_bytes)
        counter = self._OBS_COUNTERS.get(event)
        if counter is not None:
            obs.inc(counter, stage=stage or "(unlabelled)")
        line = json.dumps(
            {"event": event, "stage": stage, "bytes": num_bytes},
            separators=(",", ":"),
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.ledger_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass  # stats are advisory; never fail the stage over them

    def lifetime_counters(self) -> Dict[str, Any]:
        """Aggregate the event ledger: totals plus a per-stage breakdown."""
        total = CacheStats()
        stages: Dict[str, CacheStats] = {}
        try:
            with open(self.ledger_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    event = entry.get("event", "")
                    stage = entry.get("stage", "") or "(unlabelled)"
                    num_bytes = int(entry.get("bytes", 0))
                    total.record(event, num_bytes)
                    stages.setdefault(stage, CacheStats()).record(event, num_bytes)
        except OSError:
            pass
        return {
            "total": total.as_dict(),
            "stages": {name: c.as_dict() for name, c in sorted(stages.items())},
        }

    # ------------------------------------------------------------ management

    def iter_objects(self) -> Iterator[Tuple[Path, int, float]]:
        """Yield ``(path, size_bytes, mtime)`` for every stored artifact."""
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield path, stat.st_size, stat.st_mtime

    def disk_stats(self) -> Dict[str, int]:
        """Object count and total stored bytes on disk."""
        objects = 0
        total_bytes = 0
        for _, size, _ in self.iter_objects():
            objects += 1
            total_bytes += size
        return {"objects": objects, "total_bytes": total_bytes}

    def stats_summary(self) -> Dict[str, Any]:
        """Everything ``repro cache stats`` reports, as one JSON-ready dict."""
        return {
            "root": str(self.root),
            "disk": self.disk_stats(),
            "session": self.stats.as_dict(),
            "lifetime": self.lifetime_counters(),
        }

    def clear(self) -> int:
        """Delete every artifact, the quarantine and the ledger.

        Returns:
            Objects removed (quarantined ones not counted).
        """
        removed = sum(1 for _ in self.iter_objects())
        shutil.rmtree(self.objects_dir, ignore_errors=True)
        shutil.rmtree(self.quarantine_dir, ignore_errors=True)
        try:
            self.ledger_path.unlink()
        except OSError:
            pass
        return removed

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-used artifacts down to a size budget.

        Hits refresh an artifact's mtime, so eviction order approximates
        LRU across every process that shared the cache.

        Args:
            max_bytes: Target ceiling for the objects' total size.

        Returns:
            ``(objects_removed, bytes_freed)``.

        Raises:
            ValueError: For a negative budget.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries: List[Tuple[Path, int, float]] = list(self.iter_objects())
        total = sum(size for _, size, _ in entries)
        if total <= max_bytes:
            return (0, 0)
        entries.sort(key=lambda entry: entry[2])  # oldest mtime first
        removed = 0
        freed = 0
        for path, size, _ in entries:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return (removed, freed)


def _unpickle(body) -> Any:
    """Unpickle with cyclic GC paused.

    A week unpickles into ~10^5 objects and no reference cycles, so the
    collections its allocations would trigger free nothing; the objects
    are traversed once, by the first collection after the load.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(body)
    finally:
        if enabled:
            gc.enable()


_default: Optional[ArtifactStore] = None
_default_config: Optional[Tuple[bool, str]] = None


def default_store() -> Optional[ArtifactStore]:
    """The process-wide store, or ``None`` when caching is disabled.

    Re-resolved against the environment on every call so tests (and
    subprocesses) can redirect or disable the cache by setting
    ``REPRO_CACHE_DIR`` / ``REPRO_CACHE``; the instance — and its session
    counters — survives as long as the configuration is unchanged.
    """
    global _default, _default_config
    config = (cache_enabled(), str(cache_root()))
    if config != _default_config:
        _default = ArtifactStore(config[1]) if config[0] else None
        _default_config = config
    return _default


def reset_default_store() -> None:
    """Forget the cached default-store instance (tests)."""
    global _default, _default_config
    _default = None
    _default_config = None
