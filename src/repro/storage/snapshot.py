"""Columnar pool snapshots: the analytical half of the durable catalog.

A snapshot freezes one pool version as the same struct-of-arrays layout the
plan layer executes over (:class:`repro.plan.pool.CandidatePool`): ``eps.npy``
and ``reqs.npy`` (float64, Lemma 3 order — bit-exact doubles, no text
round-trip) plus the ids, all inside a directory named for the pool
version and described by a ``MANIFEST.json`` carrying the pool
**fingerprint**, the member count and a CRC per blob.

Format ``"v": 2`` (what :func:`write_snapshot` writes) stores the ids as
``ids.npy``, the uint8 bytes of all ids concatenated and encoded as UTF-8
with ``surrogatepass``, and ``id_lengths.npy``, each id's length in code
points — so every ``str`` round-trips, trailing NULs and lone surrogates
included.  Its fingerprint is
:func:`~repro.core.selection.base.columns_fingerprint`.  Format ``"v": 1``
stored ``ids.npy`` as a fixed-width unicode array (which drops trailing
NULs) under the older per-juror ``repr`` fingerprint; :func:`load_snapshot`
still reads it, checks that fingerprint, and reports the current one.

Write protocol (crash-safe without a journal):

1. materialise the blobs in a hidden ``.tmp-*`` sibling directory,
2. fsync every file,
3. ``os.replace`` the temp directory to its final ``snap-<version>`` name
   and fsync the parent directory.

A crash leaves either no snapshot (temp dirs are garbage-collected on the
next open) or a complete one — never a half-visible one.  Readers defend in
depth anyway: :func:`load_snapshot` re-checksums every blob, and the
catalog recomputes the content fingerprint of the decoded members,
refusing (so it falls back to an older snapshot + longer WAL replay)
rather than serving a pool that might not be the one that was saved.

The float columns are loaded with ``np.load(..., mmap_mode="r")`` — the
lazy-loading path that lets a catalog of thousands of pools open far more
state than fits in RAM, paying page-ins only for pools actually queried.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.selection.base import columns_fingerprint
from repro.errors import StorageError

__all__ = [
    "SNAPSHOT_PREFIX",
    "SnapshotData",
    "gc_snapshots",
    "list_snapshot_versions",
    "load_snapshot",
    "snapshot_dir",
    "write_snapshot",
]

SNAPSHOT_PREFIX = "snap-"
_TMP_PREFIX = ".tmp-"
_MANIFEST = "MANIFEST.json"
#: The manifest version :func:`write_snapshot` stamps.
FORMAT = 2
_BLOBS = {
    1: ("eps.npy", "reqs.npy", "ids.npy"),
    2: ("eps.npy", "reqs.npy", "ids.npy", "id_lengths.npy"),
}


@dataclass(frozen=True)
class SnapshotData:
    """A decoded, checksum-verified snapshot.

    ``fingerprint`` is the manifest's, in the current scheme
    (:func:`~repro.core.selection.base.columns_fingerprint`); for a format 1
    snapshot it is recomputed after the old fingerprint checked out.
    """

    version: int
    fingerprint: str
    eps: np.ndarray
    reqs: np.ndarray
    ids: tuple[str, ...]


def snapshot_dir(pool_dir: Path, version: int) -> Path:
    """The on-disk directory of the snapshot at ``version``."""
    return pool_dir / f"{SNAPSHOT_PREFIX}{version:012d}"


def list_snapshot_versions(pool_dir: Path) -> list[int]:
    """Snapshot versions present under ``pool_dir``, newest first."""
    versions: list[int] = []
    try:
        entries = list(pool_dir.iterdir())
    except FileNotFoundError:
        return versions
    for entry in entries:
        name = entry.name
        if name.startswith(SNAPSHOT_PREFIX) and entry.is_dir():
            try:
                versions.append(int(name[len(SNAPSHOT_PREFIX):]))
            except ValueError:
                continue
    versions.sort(reverse=True)
    return versions


def _fsync_file(path: Path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems refusing dir fsync
        pass
    finally:
        os.close(fd)


def write_snapshot(
    pool_dir: Path,
    *,
    version: int,
    fingerprint: str,
    eps: np.ndarray,
    reqs: np.ndarray,
    ids: tuple[str, ...],
) -> Path:
    """Persist one pool version as a columnar snapshot; returns its dir.

    The arrays must already be in Lemma 3 order (they come straight from
    the live pool's cached columns).  Idempotent per version: re-writing an
    existing version replaces it atomically.
    """
    target = snapshot_dir(pool_dir, version)
    tmp = pool_dir / f"{_TMP_PREFIX}{target.name}.{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        arrays = {
            "eps.npy": np.ascontiguousarray(eps, dtype=np.float64),
            "reqs.npy": np.ascontiguousarray(reqs, dtype=np.float64),
            "ids.npy": np.frombuffer(
                "".join(ids).encode("utf-8", "surrogatepass"), dtype=np.uint8
            ),
            "id_lengths.npy": np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)),
        }
        checksums: dict[str, int] = {}
        for blob, array in arrays.items():
            path = tmp / blob
            np.save(path, array, allow_pickle=False)
            checksums[blob] = zlib.crc32(path.read_bytes())
            _fsync_file(path)
        manifest = {
            "v": FORMAT,
            "version": int(version),
            "fingerprint": fingerprint,
            "count": int(arrays["eps.npy"].size),
            "checksums": checksums,
        }
        manifest_path = tmp / _MANIFEST
        manifest_path.write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        _fsync_file(manifest_path)
        if target.exists():
            shutil.rmtree(target)
        os.replace(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(pool_dir)
    return target


def load_snapshot(snap_dir: Path) -> SnapshotData:
    """Load and verify one snapshot directory (format 1 or 2).

    Raises :class:`~repro.errors.StorageError` on any integrity failure —
    missing blob, checksum mismatch, manifest/blob disagreement, and for
    format 1 a fingerprint mismatch.  The caller (the catalog) treats that
    as "this snapshot does not exist" and falls back to the next older one;
    the error is never served to a client as pool state.
    """
    manifest_path = snap_dir / _MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"{snap_dir}: unreadable manifest: {exc}") from exc
    blobs = _BLOBS.get(manifest.get("v"))
    if blobs is None:
        raise StorageError(
            f"{snap_dir}: unknown snapshot format {manifest.get('v')!r}"
        )
    checksums = manifest.get("checksums", {})
    arrays: dict[str, np.ndarray] = {}
    for blob in blobs:
        path = snap_dir / blob
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise StorageError(f"{snap_dir}: missing blob {blob}") from exc
        if zlib.crc32(raw) != checksums.get(blob):
            raise StorageError(f"{snap_dir}: checksum mismatch on {blob}")
        # Float columns re-open memory-mapped: the checksum pass above has
        # already touched the pages once, but the mapping (not the bytes
        # copy) is what outlives this call inside the rebuilt pool view.
        mmap_mode = "r" if blob in ("eps.npy", "reqs.npy") else None
        try:
            arrays[blob] = np.load(
                path, mmap_mode=mmap_mode, allow_pickle=False
            )
        except (OSError, ValueError) as exc:
            raise StorageError(f"{snap_dir}: undecodable blob {blob}") from exc
    eps, reqs = arrays["eps.npy"], arrays["reqs.npy"]
    if manifest["v"] == 1:
        ids = tuple(str(i) for i in arrays["ids.npy"])
    else:
        ids = _decode_ids(snap_dir, arrays["ids.npy"], arrays["id_lengths.npy"])
    count = int(manifest.get("count", -1))
    if not (eps.size == reqs.size == len(ids) == count):
        raise StorageError(
            f"{snap_dir}: column sizes disagree with manifest "
            f"({eps.size}/{reqs.size}/{len(ids)} vs {count})"
        )
    fingerprint = str(manifest["fingerprint"])
    if manifest["v"] == 1:
        if _v1_fingerprint(ids, eps, reqs) != fingerprint:
            raise StorageError(f"{snap_dir}: snapshot fingerprint mismatch")
        fingerprint = columns_fingerprint(ids, eps, reqs)
    return SnapshotData(
        version=int(manifest["version"]),
        fingerprint=fingerprint,
        eps=eps,
        reqs=reqs,
        ids=ids,
    )


def _decode_ids(snap_dir: Path, data: np.ndarray, lengths: np.ndarray) -> tuple[str, ...]:
    """Split the format 2 id bytes back into ids by code-point length."""
    try:
        text = data.tobytes().decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise StorageError(f"{snap_dir}: undecodable ids") from exc
    ends = np.cumsum(lengths, dtype=np.int64)
    if (lengths < 0).any() or (ends[-1] if ends.size else 0) != len(text):
        raise StorageError(f"{snap_dir}: id lengths disagree with the id bytes")
    starts = [0, *ends.tolist()]
    return tuple(text[a:b] for a, b in zip(starts, starts[1:]))


def _v1_fingerprint(ids, eps, reqs) -> str:
    """The format 1 fingerprint: blake2b-128 over per-juror ``repr`` text."""
    digest = hashlib.blake2b(digest_size=16)
    for juror_id, error_rate, requirement in zip(ids, eps.tolist(), reqs.tolist()):
        digest.update(f"{juror_id}\x1f{error_rate!r}\x1f{requirement!r}\x1e".encode())
    return digest.hexdigest()


def gc_snapshots(pool_dir: Path, *, keep: int = 2) -> int:
    """Delete all but the ``keep`` newest snapshots (and any temp debris).

    Returns the number of directories removed.  Older snapshots are pure
    fallback depth: once a newer one has been loaded and verified, anything
    beyond ``keep`` generations is reclaimable.
    """
    removed = 0
    try:
        entries = list(pool_dir.iterdir())
    except FileNotFoundError:
        return removed
    for entry in entries:
        if entry.name.startswith(_TMP_PREFIX):
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
    for version in list_snapshot_versions(pool_dir)[max(keep, 0):]:
        shutil.rmtree(snapshot_dir(pool_dir, version), ignore_errors=True)
        removed += 1
    return removed
