"""Packaging metadata for the jury-selection reproduction.

Kept as a classic ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e . --no-use-pep517`` works in offline environments whose
pip/setuptools lack PEP 660 editable-wheel support.

The ``native`` kernel backend needs only a C compiler at runtime: it
builds ``repro_kernels.c`` on first use and caches the library.  Without a
compiler, every kernel runs on the NumPy reference implementation.
"""

from setuptools import find_packages, setup

setup(
    name="repro-jury-selection",
    version="0.8.0",
    description=(
        "Reproduction of 'Whom to Ask? Jury Selection for Decision Making "
        "Tasks on Micro-blog Services' (PVLDB 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native kernel backend compiles repro_kernels.c at runtime; the
    # source must ship with the package or installed trees (as opposed to
    # source checkouts) would silently lose the backend.
    package_data={"repro.core.kernels": ["*.c"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={
        "console_scripts": ["repro-select=repro.cli:main"],
    },
)
