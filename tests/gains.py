"""Per-trial gains of a whole run, for tests that read them trial by trial."""

from typing import NamedTuple

import numpy as np

from friscov import simulate_group


class Gains(NamedTuple):
    g_b: np.ndarray
    g_w: np.ndarray


def run_gains(mc, groups) -> list[list[Gains]]:
    """Each group's gains over the whole run, one :class:`Gains` per selection.

    :func:`simulate_group`'s blocks, every one kept and joined.
    """
    blocks = [gains for _, gains in simulate_group(mc, groups)]
    return [[Gains(*map(np.concatenate, zip(*parts))) for parts in zip(*runs)] for runs in zip(*blocks)]


def whole_gains(mc, geom, selections) -> list[Gains]:
    """Each selection's gains over the whole run on ``geom`` alone."""
    [gains] = run_gains(mc, [(geom, selections)])
    return gains
