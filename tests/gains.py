"""Per-trial gains of a whole run, for tests that read them trial by trial."""

from typing import NamedTuple

import numpy as np

from friscov import simulate_group


class Gains(NamedTuple):
    g_b: np.ndarray
    g_w: np.ndarray


def run_gains(mc, selections) -> list[Gains]:
    """Each ``(surface, mode, m_o)`` selection's gains over the whole run, one :class:`Gains` per entry.

    :func:`simulate_group`'s blocks, every one kept and joined.
    """
    blocks = [gains for _, gains in simulate_group(mc, selections)]
    return [Gains(*map(np.concatenate, zip(*parts))) for parts in zip(*blocks)]


def whole_gains(mc, geom, selections) -> list[Gains]:
    """Each ``(mode, m_o)`` selection's gains over the whole run on ``geom`` alone."""
    return run_gains(mc, [(geom, mode, m_o) for mode, m_o in selections])
