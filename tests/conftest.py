"""Session-wide test settings and fixtures."""

import os
import subprocess
import sys

import pytest

import domlab

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Property tests are bounded differential checks: examples come from a
    # fixed seed, so every run tests the same graphs, and no example is
    # failed for taking long on a slow or busy machine.
    settings.register_profile("domlab", deadline=None, derandomize=True)
    settings.load_profile("domlab")


@pytest.fixture(scope="session")
def verify_run() -> subprocess.CompletedProcess:
    """One `domlab verify` in a child process, its stdout, stderr and exit
    code captured at the file-descriptor level; the tests that read the
    whole report share it."""
    src = os.path.dirname(os.path.dirname(domlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "domlab.cli", "verify"],
                          capture_output=True, text=True, timeout=600, env=env)
