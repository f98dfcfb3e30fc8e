"""Python in a fresh interpreter, for tests of what OpenBLAS reads once, when numpy loads it."""

import os
import subprocess
import sys
from pathlib import Path

# The environment variables OpenBLAS takes its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(*args: str, **variables: str) -> subprocess.CompletedProcess:
    """``python *args`` on this checkout's package, with none of ``BLAS_THREAD_VARIABLES`` set but ``variables``."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
