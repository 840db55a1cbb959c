"""WAL format and torn-tail discipline.

The crash contract under test: a WAL damaged *at the tail* — truncated
final record, bit-flipped checksum, garbage appended — always recovers to
the longest valid record prefix, reported as ``truncated`` with a reason,
and a writer re-opened on that prefix appends cleanly after it.  Damage is
never silently absorbed: a record after the first invalid one is discarded
even if it would checksum, because unframed resync is how logs replay
garbage.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.storage.wal import MAGIC, WalWriter, scan_wal

RECORDS = [
    {"v": 1, "op": "create", "ver": 0, "members": [["a", 0.1, 1.0]]},
    {"v": 1, "op": "add", "ver": 1, "id": "b", "e": 0.25, "r": 2.0},
    {"v": 1, "op": "remove", "ver": 2, "id": "a"},
]


def _write(path: Path, records=RECORDS, fsync_batch=1) -> None:
    writer = WalWriter(path, fsync_batch=fsync_batch)
    for record in records:
        writer.append(record)
    writer.close()


def test_roundtrip(tmp_path):
    path = tmp_path / "wal.log"
    _write(path)
    scan = scan_wal(path)
    assert scan.records == RECORDS
    assert not scan.truncated
    assert scan.valid_bytes == path.stat().st_size


def test_floats_roundtrip_bit_exact(tmp_path):
    """JSON uses repr (shortest round-trip) so doubles survive exactly."""
    path = tmp_path / "wal.log"
    values = [0.1, 1 / 3, 0.30000000000000004, 1e-17, 0.7 + 0.1]
    _write(path, [{"op": "add", "ver": i, "e": v} for i, v in enumerate(values)])
    back = [r["e"] for r in scan_wal(path).records]
    assert all(a == b for a, b in zip(values, back))  # == on floats: bitwise


def test_missing_and_empty_files(tmp_path):
    scan = scan_wal(tmp_path / "absent.log")
    assert scan.records == [] and not scan.truncated
    empty = tmp_path / "empty.log"
    empty.write_bytes(b"")
    scan = scan_wal(empty)
    assert scan.records == [] and not scan.truncated
    assert scan.valid_bytes == 0


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"RWAL9\n" + b"junk")
    scan = scan_wal(path)
    assert scan.records == [] and scan.truncated
    assert scan.reason == "bad-magic"


@pytest.mark.parametrize("cut", range(1, 12))
def test_torn_final_record(tmp_path, cut):
    """Truncation at every byte offset inside the last record recovers the
    first two records — never fewer, never a partial third."""
    path = tmp_path / "wal.log"
    _write(path)
    whole = path.read_bytes()
    two = scan_wal(path)
    keep_two = _prefix_bytes(2)
    path.write_bytes(whole[: keep_two + cut])
    scan = scan_wal(path)
    assert scan.records == RECORDS[:2]
    assert scan.truncated
    assert scan.reason in ("torn-header", "torn-payload")
    assert scan.valid_bytes == keep_two
    assert two.records[:2] == scan.records


def test_bit_flip_in_tail_checksum(tmp_path):
    path = tmp_path / "wal.log"
    _write(path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x40  # flip a payload bit of the final record
    path.write_bytes(bytes(data))
    scan = scan_wal(path)
    assert scan.records == RECORDS[:2]
    assert scan.truncated and scan.reason == "bad-checksum"


def test_corrupt_middle_discards_everything_after(tmp_path):
    """No resync: a valid-looking record after a corrupt one is not trusted."""
    path = tmp_path / "wal.log"
    _write(path)
    data = bytearray(path.read_bytes())
    offset = _prefix_bytes(1) + 8 + 2  # inside record #2's payload
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    scan = scan_wal(path)
    assert scan.records == RECORDS[:1]
    assert scan.truncated


def test_absurd_length_field(tmp_path):
    path = tmp_path / "wal.log"
    payload = json.dumps(RECORDS[0]).encode()
    path.write_bytes(
        MAGIC
        + struct.pack("<II", len(payload), zlib.crc32(payload))
        + payload
        + struct.pack("<II", 2**31, 0)
    )
    scan = scan_wal(path)
    assert len(scan.records) == 1
    assert scan.truncated and scan.reason == "bad-length"


def test_checksummed_garbage_payload(tmp_path):
    """A payload that checksums but is not a JSON object stops the scan."""
    path = tmp_path / "wal.log"
    junk = b"\xff\xfenot json"
    path.write_bytes(MAGIC + struct.pack("<II", len(junk), zlib.crc32(junk)) + junk)
    scan = scan_wal(path)
    assert scan.records == [] and scan.reason == "bad-payload"


def test_writer_resumes_after_torn_tail(tmp_path):
    """Re-opening on the scanned prefix truncates the garbage before appending."""
    path = tmp_path / "wal.log"
    _write(path)
    whole = path.read_bytes()
    path.write_bytes(whole + b"\x03\x00")  # torn header appended
    scan = scan_wal(path)
    writer = WalWriter(path, valid_bytes=scan.valid_bytes)
    writer.append({"op": "add", "ver": 3, "id": "z", "e": 0.5, "r": 0.0})
    writer.close()
    rescan = scan_wal(path)
    assert not rescan.truncated
    assert [r["ver"] for r in rescan.records] == [0, 1, 2, 3]


def test_fsync_batching_counters(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path, fsync_batch=3)
    for i in range(7):
        writer.append({"op": "add", "ver": i})
    assert writer.fsyncs == 2  # at records 3 and 6
    writer.flush()
    assert writer.fsyncs == 3  # the straggler
    writer.flush()
    assert writer.fsyncs == 3  # idempotent with nothing pending
    writer.close()


def test_fsync_batch_zero_only_syncs_explicitly(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path, fsync_batch=0)
    for i in range(5):
        writer.append({"op": "add", "ver": i})
    assert writer.fsyncs == 0
    writer.close()
    assert writer.fsyncs == 1  # close always lands pending appends


def test_reset_shrinks_to_magic(tmp_path):
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append({"op": "add", "ver": 1})
    writer.reset()
    writer.append({"op": "add", "ver": 9})
    writer.close()
    scan = scan_wal(path)
    assert [r["ver"] for r in scan.records] == [9]


def test_closed_writer_refuses_appends(tmp_path):
    writer = WalWriter(tmp_path / "wal.log")
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ValueError):
        writer.append({"op": "add"})


def _prefix_bytes(n: int) -> int:
    """File offset just past record ``n`` of RECORDS."""
    offset = len(MAGIC)
    for record in RECORDS[:n]:
        offset += 8 + len(json.dumps(record, separators=(",", ":")).encode())
    return offset
