"""Setuptools entry point.

The only packaging file (there is no ``pyproject.toml``), so ``pip install -e .``
works in fully offline environments (no ``wheel`` package available for PEP 660
editable wheels): pip falls back to the legacy ``setup.py develop`` code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Glasgow Network Functions (GNF) reproduction: roaming edge vNFs on an emulated edge testbed"
    ),
    author="GNF Reproduction Authors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    # numpy is only the equivalence tests' oracle for the fluid solver and
    # the QUIC draw blocks; nothing under src/ imports it.
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "numpy"]},
)
