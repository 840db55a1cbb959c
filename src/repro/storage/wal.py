"""Append-only mutation log (WAL) for the durable pool catalog.

One log file per pool records its history as length-prefixed,
CRC-checksummed JSON records, one per pool command: ``create`` (the
members), ``cmd`` (one update command: its ``remove`` ids, then its ``add``
and ``set`` rows ``[id, error_rate, requirement]``, each ``set`` row with
its kept values filled in) and ``drop``.  Logs written before ``cmd``
existed hold one ``add``/``remove``/``update`` record per juror mutation;
recovery still reads them, and code that predates ``cmd`` refuses a log
holding one.  The format is deliberately boring:

* **File header** — a 6-byte magic ``RWAL1\\n`` naming the format version.
  A future format bumps the digit; readers refuse magics they don't know.
* **Record** — an 8-byte little-endian header ``(payload_len, crc32)``
  followed by ``payload_len`` bytes of compact JSON.  The payload carries
  the operation, the pool version *after* it (which advances by one per
  juror mutation) and its rows.  Floats round-trip bit-exactly: ``json``
  serialises via ``float.__repr__`` (shortest round-trip form), so a
  replayed error rate is the *same double* the live pool held.

Torn-tail discipline (the crash contract)
-----------------------------------------
A crash can leave a half-written final record, or bit rot can flip bytes
anywhere.  :func:`scan_wal` walks records front to back validating lengths
and checksums and stops at the **first** invalid one: everything before it
is the recovered prefix (``valid_bytes``), everything after is discarded —
a record after a corrupt record cannot be trusted because the log has no
per-record framing resynchronisation (by design: resync heuristics are how
logs silently replay garbage).  The scan never raises for tail damage; it
reports ``truncated`` so the catalog can surface a ``recovered_truncated``
counter, and :class:`WalWriter` re-opens the file truncated to the valid
prefix so new records never follow garbage.

Durability is fsync-batched: :class:`WalWriter` issues ``os.fsync`` every
``fsync_batch`` appended records (1 = every record, the default; 0 = only
on explicit :meth:`WalWriter.flush`/:meth:`WalWriter.close`), which is the
group-commit knob the catalog benchmark sweeps.  A write that comes back
short raises :class:`OSError`, like one that fails: a torn record is never
acknowledged, and the next recovery truncates it.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["MAGIC", "WalScan", "WalWriter", "log_bytes", "scan_wal"]

#: File-format magic; the digit is the WAL format version.
MAGIC = b"RWAL1\n"

#: Per-record header: little-endian (payload_length, crc32-of-payload).
_HEADER = struct.Struct("<II")

#: Refuse absurd record lengths up front — a corrupted length field must
#: not make the scanner attempt a multi-gigabyte read.
_MAX_RECORD = 64 * 1024 * 1024


def _encode(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def log_bytes(records) -> bytes:
    """A whole log file holding ``records``, as :class:`WalWriter` writes it."""
    return MAGIC + b"".join(map(_encode, records))


@dataclass
class WalScan:
    """Result of scanning a WAL file front to back.

    ``records`` is the longest valid prefix of decoded records;
    ``valid_bytes`` is the file offset just past the last valid record
    (i.e. the length a writer should truncate to before appending);
    ``truncated`` is True when bytes beyond the valid prefix were
    discarded, with ``reason`` naming why the scan stopped.
    """

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    truncated: bool = False
    reason: str | None = None


def scan_wal(path: str | Path) -> WalScan:
    """Read the longest valid record prefix of a WAL file.

    Tolerates every form of tail damage — missing file, empty file, torn
    header, torn payload, checksum mismatch, unparseable JSON — by
    reporting what survived instead of raising.  Only the file *header*
    magic is load-bearing: an unknown magic yields an empty scan with
    ``valid_bytes=0`` so the writer rebuilds the file from scratch.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalScan(reason="missing")
    if not data.startswith(MAGIC):
        return WalScan(
            truncated=bool(data), reason="bad-magic" if data else "empty"
        )
    scan = WalScan(valid_bytes=len(MAGIC))
    offset = len(MAGIC)
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            scan.truncated, scan.reason = True, "torn-header"
            return scan
        length, crc = _HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD:
            scan.truncated, scan.reason = True, "bad-length"
            return scan
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            scan.truncated, scan.reason = True, "torn-payload"
            return scan
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.truncated, scan.reason = True, "bad-checksum"
            return scan
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A payload that checksums but doesn't parse means the record
            # was *written* corrupt; treat it as the start of the bad tail.
            scan.truncated, scan.reason = True, "bad-payload"
            return scan
        if not isinstance(record, dict):
            scan.truncated, scan.reason = True, "bad-payload"
            return scan
        scan.records.append(record)
        scan.valid_bytes = end
        offset = end
    return scan


class WalWriter:
    """Appends checksummed records to a pool's WAL with batched fsync.

    Parameters
    ----------
    path:
        The log file.  Created (with the format magic) when absent.
    fsync_batch:
        Records per ``os.fsync``: ``1`` syncs every append (strict
        durability, the default), ``N > 1`` group-commits every N records,
        ``0`` never syncs automatically (OS page cache only — the
        "durability off" end of the benchmark).  :meth:`flush` and
        :meth:`close` sync pending writes, unless an fsync has already
        failed (:attr:`sync_failed`): a failed fsync is not retried.
    valid_bytes:
        Recovered prefix length from a prior :func:`scan_wal`; the file is
        truncated to it before the first append, so fresh records never
        follow a torn tail.  ``None`` appends at the current end of file.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync_batch: int = 1,
        valid_bytes: int | None = None,
    ) -> None:
        if fsync_batch < 0:
            raise ValueError(f"fsync_batch must be >= 0, got {fsync_batch}")
        self.path = Path(path)
        self.fsync_batch = fsync_batch
        self.appends = 0
        self.fsyncs = 0
        #: Whether an ``os.fsync`` of this log failed.  What it held is
        #: then unknown, and a retry could report success falsely.
        self.sync_failed = False
        self._pending = 0
        self._fd = os.open(
            str(self.path), os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            size = os.fstat(self._fd).st_size
            if valid_bytes is not None and valid_bytes < len(MAGIC):
                valid_bytes = 0
            if valid_bytes is not None and valid_bytes < size:
                os.ftruncate(self._fd, valid_bytes)
                size = valid_bytes
            if size < len(MAGIC):
                os.ftruncate(self._fd, 0)
                os.lseek(self._fd, 0, os.SEEK_SET)
                self._write(MAGIC)
            else:
                os.lseek(self._fd, 0, os.SEEK_END)
        except BaseException:
            os.close(self._fd)
            raise
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, record: dict) -> None:
        """Append one record; fsyncs when the batch threshold is reached."""
        if self._closed:
            raise ValueError(f"WAL writer for {self.path} is closed")
        self._write(_encode(record))
        self.appends += 1
        self._pending += 1
        if self.fsync_batch and self._pending >= self.fsync_batch:
            self._sync()

    def flush(self) -> None:
        """Force pending appends to stable storage (one fsync, if needed)."""
        if not self._closed and self._pending and not self.sync_failed:
            self._sync()

    def close(self) -> None:
        """Flush and release the file descriptor.  Idempotent."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            os.close(self._fd)

    def _write(self, data: bytes) -> None:
        written = os.write(self._fd, data)
        if written != len(data):
            raise OSError(
                errno.EIO, f"short write to {self.path}: {written} of {len(data)} bytes"
            )

    def _sync(self) -> None:
        try:
            os.fsync(self._fd)
        except OSError:
            self.sync_failed = True
            raise
        self.fsyncs += 1
        self._pending = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalWriter({str(self.path)!r}, appends={self.appends}, "
            f"fsyncs={self.fsyncs})"
        )
