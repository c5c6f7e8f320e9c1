"""Content-addressed result store: finished results, by digest.

Entries come in two kinds: a sweep point's trial values, keyed by
:func:`repro.serve.digest.point_digest`, and a finished job's table
(:class:`repro.serve.jobs.FiledTable`), keyed by
:func:`repro.serve.digest.job_key`.  The store does not tell them
apart: both kinds take the same checks, count towards the same cap and
age by the same LRU, and a reader checks that a value has the shape it
expects.  Each entry is its own file under the cache directory
(``<dir>/<digest[:2]>/<digest>.rpc``), so entries are independently
creatable, evictable and repairable.  The on-disk format is

    b"RPRC1" + 16-byte BLAKE2b checksum of the payload + pickled values

and every read verifies the checksum before unpickling.  **Any**
defect — missing file, short header, checksum mismatch, unpicklable
payload — degrades to a miss: the corrupt file is deleted (counted as
a ``repair``) and the caller recomputes and rewrites it.  Writes go
through a temp file + :func:`os.replace`, so a crash mid-write leaves
either the old entry or none, never a torn one.  Only a write makes
anything on disk: :meth:`put` creates the directory and its shard, so
opening, reading or counting a store never written to creates nothing.

The cap is an LRU over mtimes: reads touch their entry's mtime, and a
store that pushes past either limit — ``cap`` entries, ``cap_bytes``
total payload on disk — evicts the stalest entries until both hold.
``0`` means unbounded on either axis (mirroring the node-side workload
cache).  Every store keeps a running entry count and byte tally
(:meth:`tally`), seeded by one scan of the directory and adjusted by
every store and replacement, so :meth:`stats` reads it without
touching disk, and only a store that pushes it past a cap scans for
the stalest entries.  Evictions and repairs resync it by a scan: a
corrupt entry's size on disk need not be the size that was stored.
The directory and both caps resolve through :mod:`repro.settings`
(argument, else ``$REPRO_CACHE_DIR`` / ``$REPRO_CACHE_CAP`` /
``$REPRO_CACHE_CAP_BYTES``, else the default).
All counters are thread-safe; the store itself is safe for concurrent
readers with one writer (the service's job executor).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path

from repro.settings import resolve

__all__ = ["ResultCache"]

_MAGIC = b"RPRC1"
_CHECKSUM_SIZE = 16
_SUFFIX = ".rpc"


class ResultCache:
    """Digest-keyed pickle store with checksums, repair and LRU cap."""

    def __init__(
        self,
        directory=None,
        cap: int | None = None,
        cap_bytes: int | None = None,
    ) -> None:
        # An empty directory argument means "not given", as ever.
        self.directory = resolve("cache_dir", directory or None)
        self.cap = resolve("cache_cap", cap)
        self.cap_bytes = resolve("cache_cap_bytes", cap_bytes)
        self._lock = threading.Lock()
        # (entries, bytes) on disk, once a scan has seeded it.
        self._tally: tuple[int, int] | None = None
        self._stats = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "repairs": 0,
            "evictions": 0,
            "declined": 0,
        }

    # -- paths ------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}{_SUFFIX}"

    def _entries(self) -> list[Path]:
        return list(self.directory.glob(f"*/*{_SUFFIX}"))

    def entry_count(self) -> int:
        """The number of entries currently on disk."""
        return len(self._entries())

    def total_bytes(self) -> int:
        """The bytes the entries currently occupy on disk."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # -- counters ---------------------------------------------------------

    def _count(self, what: str, n: int = 1) -> None:
        with self._lock:
            self._stats[what] += n

    def _adjust_tally(self, entries: int, size: int) -> None:
        with self._lock:
            if self._tally is not None:
                count, total = self._tally
                self._tally = (count + entries, total + size)

    def tally(self) -> tuple[int, int]:
        """``(entries, bytes)`` on disk, from the running tally; the
        first call on a store that has not yet scanned seeds it."""
        if self._tally is None:
            self._scan()
        return self._tally

    def stats(self) -> dict:
        """A snapshot of the counters plus the tallied entries and
        bytes."""
        entries, size = self.tally()
        with self._lock:
            snapshot = dict(self._stats)
        snapshot["entries"] = entries
        snapshot["cap"] = self.cap
        snapshot["bytes"] = size
        snapshot["cap_bytes"] = self.cap_bytes
        return snapshot

    # -- store ------------------------------------------------------------

    def get(self, digest: str):
        """The values stored under ``digest``, or ``None`` on a miss.

        A defective entry (truncated, corrupted, unpicklable) is
        deleted and reported as a miss — the caller recomputes and the
        next :meth:`put` repairs the entry.  A hit refreshes the
        entry's mtime, making the cap eviction LRU.
        """
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        header = len(_MAGIC) + _CHECKSUM_SIZE
        payload = blob[header:]
        intact = (
            blob.startswith(_MAGIC)
            and len(blob) >= header
            and blob[len(_MAGIC) : header] == _checksum(payload)
        )
        values = None
        if intact:
            try:
                values = pickle.loads(payload)
            except Exception:
                values = None
        if values is None:
            # Corrupt on disk: remove it so the recompute's put()
            # rewrites a clean entry (recompute-and-repair, not crash).
            try:
                path.unlink()
            except OSError:
                pass
            else:
                self._scan()
            self._count("repairs")
            self._count("misses")
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self._count("hits")
        return values

    def put(self, digest: str, values) -> bool:
        """Store ``values`` under ``digest``; returns whether it stored.

        Unpicklable values, and a write the filesystem refuses (say, a
        file where the shard directory goes), are declined (counted,
        not raised): caching is an optimisation and must never fail a
        job that the uncached path would finish.
        """
        try:
            payload = pickle.dumps(values, protocol=4)
        except Exception:
            self._count("declined")
            return False
        path = self._path(digest)
        # The entry this store replaces, if any, for the tally.
        old_size = _size_on_disk(path)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(_checksum(payload))
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self._count("declined")
            return False
        self._count("stores")
        size = len(_MAGIC) + _CHECKSUM_SIZE + len(payload)
        if old_size is None:
            self._adjust_tally(1, size)
        else:
            self._adjust_tally(0, size - old_size)
        tally = self._tally
        if tally is None or self._over_cap(*tally):
            self._evict_over_cap()
        return True

    def _over_cap(self, count: int, total: int) -> bool:
        return bool(
            (self.cap and count > self.cap)
            or (self.cap_bytes and total > self.cap_bytes)
        )

    def _scan(self) -> list[tuple[float, str, Path, int]]:
        """Stat every entry, stalest first, and resync the tally."""
        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
                entries.append((stat.st_mtime, str(path), path, stat.st_size))
            except OSError:
                entries.append((0.0, str(path), path, 0))
        entries.sort(key=lambda e: e[:2])
        with self._lock:
            self._tally = (len(entries), sum(e[3] for e in entries))
        return entries

    def _evict_over_cap(self) -> None:
        """Scan every entry, evict the stalest while over a cap, and
        reset the tally to what the scan left on disk."""
        entries = self._scan()
        count, total = self._tally
        for _, _, path, size in entries:
            if not self._over_cap(count, total):
                break
            try:
                path.unlink()
            except OSError:
                continue
            self._count("evictions")
            count -= 1
            total -= size
        with self._lock:
            self._tally = (count, total)

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, cap={self.cap}, "
            f"cap_bytes={self.cap_bytes}, entries={self.entry_count()})"
        )


def _size_on_disk(path: Path) -> int | None:
    """The size of the entry at ``path``, or ``None`` if there is none."""
    try:
        return path.stat().st_size
    except OSError:
        return None


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()
