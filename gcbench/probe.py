"""Set-up time of one workload in a fresh process.

Usage: python3 gcbench/probe.py <workload>

Prints the seconds taken by ``import gcruin`` plus building the workload's
algebras, laws and models (``models.build``).  Interpreter start-up is not
included.  ``run.py`` starts this several times and reports the median.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gcruin  # noqa: E402,F401
import models  # noqa: E402

models.build(sys.argv[1])
print(time.perf_counter() - START)
