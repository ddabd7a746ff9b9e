"""Set-up probe: import a workload and build its inputs, then report.

``closed_loop.measure_setup`` spawns this in a fresh interpreter and
times it from spawn to the ``ready`` line, so ``setup_s`` covers
interpreter start, imports, and the library and catalog build.
"""

import importlib
import sys

if __name__ == "__main__":
    importlib.import_module(sys.argv[1]).setup()
    print("ready", flush=True)
