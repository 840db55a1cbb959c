"""Activation refuses a native library whose C helpers are broken.

``k_extend_block`` is a helper of the pay-scan and branch-and-bound
kernels, ``k_convolve`` folds the branch and bound's bound with
``fold_factor``, and ``fold_into`` is the sweep's two-buffer factor fold.
``k_repr``, the number printer, is held to ``float.__repr__``.  None of them
is dispatched on its own, so the self-check must catch their
defects through the kernels that call them (and, for ``k_convolve``,
through the binding kept for the purpose).  Each case compiles the
shipped source with one deliberate defect and asserts that
``verify_backend`` refuses the library.  The shipped source must pass
under every compiler on PATH, and each vector-ISA clone of ``fold_into``
must pass when compiled alone.  Skips without a C compiler.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
from pathlib import Path

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
    "fold_into-interpolate": (
        "out[j] = in[j] * c + in[j - 1] * e;",
        "out[j] = in[j] + (in[j - 1] - in[j]) * e;",
    ),
    "fold_into-out0-rounding": (
        "out[0] = in[0] * c;",
        "out[0] = in[0] - in[0] * e;",
    ),
    "fold_into-drop-top-entry": (
        "for (int64_t j = 1; j <= top + 1; j++)",
        "for (int64_t j = 1; j <= top; j++)",
    ),
    "fold_into-split-complement": (
        "double c = 1.0 - e;\n    out[0] = in[0] * c;",
        "double c = 0.5 + (0.5 - e);\n    out[0] = in[0] * c;",
    ),
    # What a flush-to-zero mode would do: subnormal results become 0.
    "fold_into-flush-subnormals": (
        "out[j] = in[j] * c + in[j - 1] * e;",
        "{ double v = in[j] * c + in[j - 1] * e; "
        "out[j] = v < 2.2250738585072014e-308 ? 0.0 : v; }",
    ),
    # The printer: an exact halfway tie rounded up, not to the even digit.
    "repr-tie-rounds-up": (
        "if (vr_zeros && last == 5 && vr % 2 == 0)",
        "if (0)",
    ),
    # The printer stops one digit early, dropping a digit the shortest
    # round-trip text needs.
    "repr-drops-a-shortest-digit": (
        "        *digits = vr + (vr == vm || round_up);",
        "        if (vr >= 10) { round_up = vr % 10 >= 5; vr /= 10; vm /= 10; removed++; }\n"
        "        *digits = vr + (vr == vm || round_up);",
    ),
    # The printer switches to the exponent form one decade early (at 1e15).
    "repr-exponent-switch": (
        "if (point > -4 && point <= 16) {",
        "if (point > -4 && point <= 15) {",
    ),
}

#: The sweep fold's multiversioning attribute, as the shipped source has it.
CLONES = 'target_clones("avx512f", "avx2", "default")'


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


@pytest.mark.parametrize("name", ["cc", "gcc", "clang"])
def test_shipped_source_compiled_here_passes(name, tmp_path):
    found = shutil.which(name)
    if found is None:
        pytest.skip(f"{name} is not on PATH")
    verify_backend(_backend(found, _native._read_source(), tmp_path))


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


@pytest.mark.parametrize("isa", ["avx512f", "avx2", "default"])
def test_each_fold_clone_compiled_alone_passes(compiler, tmp_path, isa):
    """The clone the loader picks differs per CPU, so each one is held to
    the reference on its own: the attribute becomes ``target(isa)``, or
    goes for the default build."""
    source = _native._read_source()
    assert source.count(CLONES) == 1
    if isa == "default":
        source = source.replace(f"__attribute__(({CLONES}))", "")
        assert CLONES not in source
    else:
        if isa not in _cpu_flags():
            pytest.skip(f"this CPU has no {isa}")
        source = source.replace(CLONES, f'target("{isa}")')
    verify_backend(_backend(compiler, source, tmp_path))


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_self_check_refuses_a_broken_helper(compiler, tmp_path, mutant):
    original, mutated = MUTANTS[mutant]
    source = _native._read_source()
    assert source.count(original) == 1, mutant
    backend = _backend(compiler, source.replace(original, mutated), tmp_path)
    with pytest.raises(KernelSelfCheckError):
        verify_backend(backend)
