"""Package metadata for the Strix reproduction (src/ layout).

``pip install -e .`` exposes :mod:`repro` without needing ``PYTHONPATH=src``.
The version is sourced from ``repro.__version__`` by parsing the file rather
than importing it, so installation does not require the dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="strix-repro",
    version=_VERSION,
    description=(
        "Reproduction of Strix (MICRO 2023): an end-to-end streaming FHE "
        "accelerator with two-level ciphertext batching — functional TFHE, "
        "cycle-level simulator, analytical baselines, and a unified runtime"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text()
    if (Path(__file__).parent / "README.md").exists()
    else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],  # np.fft.*(out=) and in-place transforms
    extras_require={"test": ["pytest", "hypothesis"]},
)
