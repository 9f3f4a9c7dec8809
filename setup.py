"""Package metadata for ``pip install -e .``.

Nothing in CI, the docs or the tools needs an install: everything runs
with ``PYTHONPATH=src`` from the repository root.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Fast dynamic updates and dynamic SpGEMM on (simulated) MPI-distributed graphs",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
