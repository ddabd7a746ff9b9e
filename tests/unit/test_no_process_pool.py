"""The library runs in process: importing it loads no process pool.

Campaigns, the catalog corpus and the daemon's jobs all run in the
importing process, so nothing in the public entry points may pull in
``multiprocessing`` or ``concurrent.futures``' process pool.  A fresh
interpreter is the only clean ``sys.modules`` to check that in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def test_entry_points_import_no_process_pool():
    script = (
        "import json, sys\n"
        "import repro, repro.cli, repro.service\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True,
    ).stdout)
    assert "repro.service" in loaded
    assert [name for name in POOL_MODULES if name in loaded] == []
