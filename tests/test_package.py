import os
import subprocess
import sys
from pathlib import Path

import friscov

# A block of the three compared surfaces, from the correlation factor on:
# what a sweep runs.  Prints the number of selections yielded and the loaded
# modules of the test-only packages.
_ONE_BLOCK = """
import sys
from friscov import MCConfig, Mode, SurfaceGeometry, simulate_group, surface_factor
geom = SurfaceGeometry(12, 12, 2.0, 2.0)
surface_factor(geom)
run = simulate_group(MCConfig(trials=64, master_seed=1), [(geom, mode, 36) for mode in Mode])
print(sum(len(gains) for start, gains in run))
print(sorted(name for name in sys.modules if name.partition(".")[0] in {"scipy", "mpmath", "hypothesis"}))
"""


def test_every_export_resolves_and_is_listed_once():
    assert len(friscov.__all__) == len(set(friscov.__all__))
    missing = [name for name in friscov.__all__ if not hasattr(friscov, name)]
    assert missing == []


def test_numpy_is_the_only_runtime_dependency():
    # A fresh interpreter, so nothing the test session imported counts.
    src = str(Path(friscov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _ONE_BLOCK], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["3", "[]"]
