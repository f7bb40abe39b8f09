"""Each demo runs to exit 0 with RuntimeWarning and DeprecationWarning as errors."""

import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("demo", sorted(Path(__file__).parents[1].glob("demos/*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-W",
                    "error::DeprecationWarning", str(demo)], check=True)
