"""One set-up probe, run by run.py in a fresh interpreter per probe.

    python3 perfbench/setup_probe.py WORKLOAD

Times ``import convsense`` (numpy and scipy included, as a user's first
import pays them) plus the workload's static set-up, and prints the
seconds as one JSON line: ``{"setup_s": ...}``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import convsense  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].static_setup()
SETUP_S = time.perf_counter() - T0

import json  # noqa: E402

print(json.dumps({"setup_s": SETUP_S}))
