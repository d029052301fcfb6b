"""Test-session settings, applied before any test module imports numpy.

One BLAS thread per process: the suite forks worker pools (criterion 7
runs 1, 2 and 4 workers), and forked workers that each start a full
OpenBLAS thread pool oversubscribe the cores. An explicit setting in the
environment is kept.

The session header names the ``fescale`` package the session imports.
pyproject.toml puts the ``src`` of the tree pytest starts in ahead of
``PYTHONPATH``, so a ``PYTHONPATH`` entry that holds another ``fescale``
is not tested: the session warns about it, without failing.
"""

import importlib.util
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _tested_package():
    """The directory of the ``fescale`` package the session imports; found without importing it, or numpy."""
    return os.path.dirname(os.path.realpath(importlib.util.find_spec("fescale").origin))


def pytest_configure(config):
    tested = _tested_package()
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        other = os.path.realpath(os.path.join(entry, "fescale"))
        if os.path.isfile(os.path.join(other, "__init__.py")) and other != tested:
            config.issue_config_time_warning(pytest.PytestConfigWarning(
                f"PYTHONPATH entry {entry} holds another fescale package, {other}; "
                f"this session tests {tested}"), stacklevel=2)


def pytest_report_header(config):
    return f"fescale: {_tested_package()}"
