"""Package metadata for the Piccolo reproduction (``repro``).

Install (legacy editable install; the sandboxed environment has
setuptools but no ``wheel`` package, so PEP 517 builds are unavailable)::

    pip install -e . --no-build-isolation --no-use-pep517

The C kernel source ``repro/core/_fgkernel.c`` ships as package data:
an installed ``repro`` compiles it on first use (docs/CACHE_ENGINES.md).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of Piccolo: Large-Scale Graph Processing with "
        "Fine-Grained in-Memory Scatter-Gather (HPCA 2025)"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.core": ["_fgkernel.c"]},
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
