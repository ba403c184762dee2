"""Package metadata for ``repro``.

Editable install without network access (numpy must already be
installed)::

    pip install -e . --no-build-isolation --no-use-pep517

pip refuses ``--no-use-pep517`` when the ``wheel`` package is missing;
``python setup.py develop --no-deps`` installs the same editable package
without it.

The version is read from ``src/repro/__init__.py`` as text, so building
never imports ``repro`` (or numpy).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'Running a Quantum Circuit at the Speed of Data': "
        "ancilla factories and dataflow simulation of Qalypso vs QLA/CQLA"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=["numpy"],
)
