"""Setup shim.

The package lives under ``src/`` and runs from a checkout with
``PYTHONPATH=src``; this file lets it also be installed with
``python setup.py develop`` in offline environments that lack the ``wheel``
package required for PEP 660 editable installs.
"""

from setuptools import setup

setup(
    # numpy backs the vector replay backend (repro.sim.vector) and the
    # columnar ndarray trace view — a hard runtime dependency, not a
    # transitive assumption.
    install_requires=["numpy>=1.24"],
)
