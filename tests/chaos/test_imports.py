"""Each package that sits on the chaos/experiments import cycle, or
that takes its placement from :mod:`repro.cache.partition`, must import
cleanly when it is the first thing a fresh interpreter loads."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("module", [
    "repro.chaos", "repro.chaos.batch", "repro.experiments",
    "repro.balance", "repro.dstore",
])
def test_module_imports_first_in_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
