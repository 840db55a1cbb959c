"""Activation refuses a native library whose C helpers are broken.

``k_extend_block`` is a helper of the pay-scan and branch-and-bound
kernels, ``k_convolve`` folds the branch and bound's bound, and
``fold_factor`` is the factor fold under the sweep and ``k_convolve``.
None of them is dispatched on its own, so the self-check must catch their
defects through the kernels that call them (and, for ``k_convolve``,
through the binding kept for the purpose).  Each case compiles the
shipped source with one deliberate defect and asserts that
``verify_backend`` refuses the library.  Skips without a C compiler.
"""

from __future__ import annotations

import ctypes
import subprocess

import pytest

from repro.core.kernels import _native
from repro.core.kernels._native import NativeBackend
from repro.core.kernels._verify import KernelSelfCheckError, verify_backend

#: ``name: (original, mutated)`` — each original occurs once in the source.
MUTANTS = {
    "extend_block-row0-rounding": (
        "row[0] = base[0] * c;",
        "row[0] = base[0] - base[0] * e;",
    ),
    "extend_block-eps-ulp-up": (
        "double e = eps[r];",
        "double e = nextafter(eps[r], 1.0);",
    ),
    "extend_block-split-complement": (
        "double e = eps[r];\n        double c = 1.0 - e;",
        "double e = eps[r];\n        double c = 0.5 + (0.5 - e);",
    ),
    "convolve-reverse-order": (
        "fold_factor(out, top, eps[f]);",
        "fold_factor(out, top, eps[k - 1 - f]);",
    ),
    "convolve-eps-ulp-up": (
        "fold_factor(out, top, eps[f]);",
        "fold_factor(out, top, nextafter(eps[f], 1.0));",
    ),
    "convolve-drop-last-factor": (
        "for (int64_t f = 0; f < k; f++) {",
        "for (int64_t f = 0; f < k - 1; f++) {",
    ),
    "fold_factor-interpolate": (
        "pmf[j] = pmf[j] * c + pmf[j - 1] * e;",
        "pmf[j] = pmf[j] + (pmf[j - 1] - pmf[j]) * e;",
    ),
}


@pytest.fixture(scope="module")
def compiler() -> str:
    found = _native._find_compiler()
    if found is None:
        pytest.skip("no C compiler found (tried cc, gcc, clang)")
    return found


def _backend(compiler: str, source: str, directory) -> NativeBackend:
    """Compile ``source`` as activation does and bind it."""
    src = directory / "repro_kernels.c"
    src.write_text(source, encoding="utf-8")
    lib = directory / "repro_kernels.so"
    subprocess.run(
        [compiler, *_native._CFLAGS, "-o", str(lib), str(src)],
        check=True, capture_output=True, timeout=120,
    )
    return NativeBackend(ctypes.CDLL(str(lib)))


def test_shipped_source_compiled_here_passes(compiler, tmp_path):
    verify_backend(_backend(compiler, _native._read_source(), tmp_path))


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_self_check_refuses_a_broken_helper(compiler, tmp_path, mutant):
    original, mutated = MUTANTS[mutant]
    source = _native._read_source()
    assert source.count(original) == 1, mutant
    backend = _backend(compiler, source.replace(original, mutated), tmp_path)
    with pytest.raises(KernelSelfCheckError):
        verify_backend(backend)
