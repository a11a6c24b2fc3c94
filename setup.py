"""Packaging shim (kept as setup.py so editable installs work without
the ``wheel`` package).

The library itself is stdlib-only.  ``pip install -e .[fast]`` pulls in
numpy, and every trial then runs on :mod:`repro.kernels`' vectorized
layer; without it every trial runs on the pure-python object layer,
with identical results (see the "Vectorized kernels" section of the
README).
"""

from setuptools import find_packages, setup

setup(
    name="repro-podc-balliu",
    version="1.0.0",
    description=(
        "Reproduction of the PODC'20 LCL complexity-landscape paper: "
        "instances, solvers, verifier, and the sharded experiment engine"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        # Vectorized kernels over the CSR core.  Optional: the object
        # layer is the always-available oracle, and the platform runs
        # the vector backend wherever numpy imports.
        "fast": ["numpy>=1.22"],
    },
)
