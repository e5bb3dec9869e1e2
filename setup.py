"""Setuptools packaging for the ``repro`` package.

This file holds all project metadata (the repository has no
``pyproject.toml``), so ``pip install -e .`` works through the legacy
``setup.py develop`` path on offline machines that lack ``wheel``.  The test
suite and examples need no install: run them with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Sizeless: predicting the optimal size of serverless functions "
        "(Middleware 2021) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
