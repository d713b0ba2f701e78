"""What the measurement scripts share: the CLI defaults they measure at, and
a run of a script in a fresh process, with BLAS on one thread and a chosen
`src` directory first on the import path, whose last stdout line is JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")  # this checkout's
NET_RADIUS = 0.4  # the CLI's --net-radius default
SEED = 1789  # the CLI's --seed default
# set before the first import of numpy loads BLAS
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(script: str, *args, src: str = SRC):
    """Run ``script`` with ``args`` in a fresh Python process that imports
    from ``src`` first; returns the JSON of its last stdout line."""
    env = dict(os.environ, **ONE_THREAD,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, script, *map(str, args)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])
