"""Make the benchmark modules and this checkout's ``odsr`` importable.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

ODSR = run.import_odsr()


@pytest.fixture(scope="session")
def odsr():
    return ODSR
