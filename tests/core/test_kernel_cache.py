"""The native kernel cache: who may have written it, and concurrent cold starts.

``ctypes`` runs a library's constructors at load time, before the bitwise
self-check could refuse it, so the cache directory is only loaded from
while nobody else could have written to it.  The refusal tests plant a
library whose constructor creates a marker file at the exact path the
loader would use, and check the marker never appears.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import kernels
from repro.core.kernels import _native

SRC = Path(__file__).resolve().parents[2] / "src"

#: uid/gid of ``nobody`` on Linux: a user that is not the one running tests.
NOBODY = 65534

pytestmark = pytest.mark.skipif(
    _native._find_compiler() is None, reason="no C compiler on PATH"
)

needs_root = pytest.mark.skipif(
    os.geteuid() != 0, reason="handing a file to another user needs root"
)

_PLANTED_C = r"""
#include <stdio.h>
__attribute__((constructor)) static void planted(void) {
    FILE *f = fopen(MARKER, "w");
    if (f) fclose(f);
}
"""


def _plant(cache: Path, marker: Path) -> Path:
    """Build a library that creates ``marker`` when loaded, where the
    loader looks for the kernel library."""
    compiler = _native._find_compiler()
    source = cache.parent / "planted.c"
    source.write_text(_PLANTED_C, encoding="utf-8")
    lib = cache / _native._library_name(_native._read_source(), compiler)
    subprocess.run(
        [compiler, "-shared", "-fPIC", f'-DMARKER="{marker}"', "-o", str(lib), str(source)],
        check=True, capture_output=True, timeout=120,
    )
    return lib


def _loads_in_a_fresh_process(lib: Path) -> None:
    subprocess.run(
        [sys.executable, "-c", "import ctypes, sys; ctypes.CDLL(sys.argv[1])", str(lib)],
        check=True, timeout=60,
    )


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    path = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(path))
    return path


def test_fresh_cache_directory_is_private(cache):
    assert _native._cache_dir() == cache
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700


def test_world_writable_cache_is_refused(cache, tmp_path, monkeypatch):
    marker = tmp_path / "constructor-ran"
    cache.mkdir()
    lib = _plant(cache, marker)
    cache.chmod(0o777)

    with pytest.raises(PermissionError, match="group- or world-writable"):
        _native.load_native_backend()
    assert not marker.exists()

    # Through the registry: native is unavailable with the reason, and the
    # reference serves.
    monkeypatch.setattr(kernels, "_native_backend", kernels._UNPROBED)
    monkeypatch.setattr(kernels, "_native_reason", None)
    assert kernels.ensure_ready() == "numpy"
    assert "world-writable" in kernels.stats_snapshot()["unavailable"]["native"]
    assert kernels.backend_for("sweep").name == "numpy"
    assert not marker.exists()

    _loads_in_a_fresh_process(lib)  # the planted constructor does fire on load
    assert marker.exists()


def test_symlinked_cache_is_refused(cache, tmp_path):
    target = tmp_path / "elsewhere"
    target.mkdir(mode=0o700)
    cache.symlink_to(target, target_is_directory=True)
    with pytest.raises(PermissionError, match="symlink"):
        _native.load_native_backend()


@needs_root
def test_foreign_owned_cache_is_refused(cache, tmp_path):
    marker = tmp_path / "constructor-ran"
    cache.mkdir(mode=0o755)
    _plant(cache, marker)
    os.chown(cache, NOBODY, NOBODY)
    with pytest.raises(PermissionError, match=f"owned by uid {NOBODY}"):
        _native.load_native_backend()
    assert not marker.exists()


@needs_root
def test_foreign_owned_library_is_refused(cache, tmp_path):
    marker = tmp_path / "constructor-ran"
    cache.mkdir(mode=0o700)
    lib = _plant(cache, marker)
    os.chown(lib, NOBODY, NOBODY)
    with pytest.raises(PermissionError, match="not a regular file owned"):
        _native.load_native_backend()
    assert not marker.exists()


_COLD_START = """
import sys, time
from pathlib import Path
from repro.core import kernels
Path(sys.argv[1]).touch()
while not Path(sys.argv[2]).exists():
    time.sleep(0.001)
print(kernels.ensure_ready(), kernels.stats_snapshot()["unavailable"])
"""


def test_simultaneous_cold_starts_all_activate_native(cache, tmp_path):
    """Processes that all find the cache empty each compile their own copy
    of the source; none may read another's half-written file."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH"))))}
    go = tmp_path / "go"
    ready = [tmp_path / f"ready-{i}" for i in range(8)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _COLD_START, str(flag), str(go)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for flag in ready
    ]
    try:
        deadline = time.monotonic() + 60
        while not all(flag.exists() for flag in ready):
            assert time.monotonic() < deadline, "cold-start processes did not start"
            time.sleep(0.01)
        go.touch()
        outputs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for out, err in outputs:
        assert out.startswith("native {}"), (out, err)
    assert [p.name for p in cache.iterdir()] == [
        _native._library_name(_native._read_source(), _native._find_compiler())
    ]
