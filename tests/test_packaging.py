"""Packaging: the native kernel C source must ship with the package.

PR 8 moved the backend's C out of a Python string into
``repro_kernels.c``; an sdist/wheel that forgot to list it as package
data would import fine and pass every test from a source checkout, then
silently lose the compiled backend on an installed tree.  These tests
simulate an installed tree (copy the package out of ``src/``, import from
there) rather than trusting the setup() metadata by inspection alone.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_c_source_is_listed_as_package_data():
    text = (REPO / "setup.py").read_text(encoding="utf-8")
    assert '"repro.core.kernels"' in text and '"*.c"' in text


def test_c_source_exists_next_to_native_module():
    from repro.core.kernels import _native

    assert _native._C_SOURCE_PATH.name == "repro_kernels.c"
    assert _native._C_SOURCE_PATH.is_file()
    source = _native._read_source()
    for symbol in ("k_sweep", "k_pay_scan", "k_bb_search", "pairwise_sum"):
        assert symbol in source


def test_installed_tree_ships_and_uses_the_c_source(tmp_path):
    """Copy the package as an install would lay it out and import from it.

    ``shutil.copytree`` honouring the package_data pattern is simulated by
    copying everything ``setup.py`` would package: all modules plus
    ``*.c``.  The subprocess asserts (a) the source file travelled, and
    (b) ``_read_source`` serves it from the installed location — i.e. the
    backend does not secretly depend on the repo checkout.
    """
    site = tmp_path / "site-packages"
    shutil.copytree(
        REPO / "src" / "repro",
        site / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from pathlib import Path\n"
        "from repro.core.kernels import _native\n"
        "assert Path(_native.__file__).is_relative_to(sys.argv[1]), _native.__file__\n"
        "assert _native._C_SOURCE_PATH.is_relative_to(sys.argv[1])\n"
        "src = _native._read_source()\n"
        "assert 'k_sweep' in src and 'k_pay_scan' in src\n"
        "print('ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(site)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=str(tmp_path),  # not the repo root: no accidental src/ imports
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
