import ctypes
import os
import sys
import threading
from pathlib import Path

# The gains do not depend on the OpenBLAS thread count (a test compares one
# and two in subprocesses).  One thread per process keeps the worker-pool
# tests from oversubscribing the cores, as perfbench does.  OpenBLAS reads
# this once, when numpy loads it.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin OpenBLAS to one thread")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from friscov import SurfaceGeometry, correlation_matrix


def pytest_report_header(config):
    """numpy's version, its dispatched SIMD extensions and OpenBLAS's kernel: the bytes the goldens pin depend on them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)) or "none"
    core = "unknown (no OpenBLAS in numpy's wheel)"
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes, query.restype = [], ctypes.c_char_p
                core = query().decode()
                break
    return f"numpy {np.__version__}, SIMD dispatched: {simd}, OpenBLAS core: {core}"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started running, such as a worker pool never shut down."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(scope="session")
def ref_geom() -> SurfaceGeometry:
    """Reference surface: 12x12 ports over a 2x2-wavelength aperture."""
    return SurfaceGeometry(m_x=12, m_z=12, w_x=2.0, w_z=2.0)


@pytest.fixture(scope="session")
def ref_corr(ref_geom) -> np.ndarray:
    return correlation_matrix(ref_geom, np.arange(ref_geom.num_elements))
