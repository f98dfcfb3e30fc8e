"""Per-trial gains of a whole run, for tests that read them trial by trial."""

from typing import NamedTuple

import numpy as np

from friscov import simulate_group


class Gains(NamedTuple):
    g_b: np.ndarray
    g_w: np.ndarray


def whole_gains(mc, geom, selections) -> list[Gains]:
    """Each selection's gains over the whole run: :func:`simulate_group` with a reducer that keeps every block."""
    blocks = simulate_group(mc, geom, selections, lambda start, gains: gains)
    return [Gains(*map(np.concatenate, zip(*parts))) for parts in zip(*blocks)]
