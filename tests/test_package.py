import os
import subprocess
import sys
from pathlib import Path

import pytest

import friscov
import friscov.analytics
import friscov.channel
import friscov.config
import friscov.montecarlo
import friscov.surface

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

# The CLI's front end in a fresh interpreter: the exports are listed before
# any loads, and show-config, --help and configuration errors (a missing
# file, a value out of its domain, a sweep's flags, a run's bad trial count)
# exit with their codes without loading numpy.  Prints the exports missing
# from dir(), the exit codes, and whether numpy loaded.
_FRONT_END = """
import sys
import friscov
missing = sorted(set(friscov.__all__) - set(dir(friscov)))
from friscov.cli import main
codes = [main(["show-config"]), main(["show-config", "--config", sys.argv[1] + "/nope.cfg"])]
with open(sys.argv[1] + "/bad.cfg", "w") as cfg:
    cfg.write("scenario.p0 = 1.5\\n")
codes += [main(["sweep", "--config", sys.argv[1] + "/bad.cfg"]), main(["validate", "--trials", "0"]),
          main(["sweep", "--log-y", "--out", sys.argv[1] + "/out"])]
try:
    main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(missing, codes, "numpy" in sys.modules)
"""


def _fresh_env() -> dict:
    src = str(Path(friscov.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_the_front_end_loads_no_numpy(tmp_path):
    run = subprocess.run([sys.executable, "-c", _FRONT_END, str(tmp_path)], env=_fresh_env(), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[] [0, 2, 2, 2, 2, 0] False"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, home", [("ScenarioConfig", "analytics"), ("SurfaceGeometry", "surface"),
                                        ("MCConfig", "montecarlo"), ("Mode", "channel"), ("Mode", "montecarlo")])
def test_config_types_keep_their_old_import_paths(name, home):
    assert getattr(getattr(friscov, home), name) is getattr(friscov.config, name) is getattr(friscov, name)


def test_every_export_resolves_and_is_listed_once():
    assert len(friscov.__all__) == len(set(friscov.__all__))
    missing = [name for name in friscov.__all__ if not hasattr(friscov, name)]
    assert missing == []


def test_numpy_is_the_only_runtime_dependency():
    # A fresh interpreter, so nothing the test session imported counts.
    run = subprocess.run([sys.executable, "-c", _ONE_BLOCK], env=_fresh_env(), capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["3", "[]"]
