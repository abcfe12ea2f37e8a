"""Child process for the setup_s measurement.

Usage: python3 perfbench/setup_probe.py <src dir> <configs.json>

Imports rmtlab from <src dir>, parses every config in <configs.json>, then
prints one line.  The parent times process start to that line.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import rmtlab  # noqa: E402
from rmtlab import cli  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    for raw in json.load(fh):
        cli.parse_config(raw)
print(f"ready {rmtlab.__file__}", flush=True)
