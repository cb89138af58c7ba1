"""Start-up probe: ``python -S perfbench/probe.py`` prints the clock reading
at its first statement and after ``import singclass.cli``."""

import os
import sys
import time

STARTED = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import singclass.cli  # noqa: E402,F401

print(STARTED, time.perf_counter())
