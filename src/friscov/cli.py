"""Scenario configuration, parameter sweeps, and CSV/SVG emission.

The configuration file is flat ``section.key = value`` text (``#``
starts a comment, unknown keys warn rather than fail); every key has a
default, so an empty file or no file at all runs the reference
scenario.  ``_SCHEMA`` lists every key with its default, and
``CSV_COLUMNS`` fixes the CSV column order.

Subcommands: ``sweep`` runs the configured sweep and writes
``<out>/sweep.csv`` (optionally ``<out>/plot.svg``); ``validate`` runs
the closed-form-versus-Monte-Carlo oracle comparisons and reports each
gate; ``show-config`` prints the fully resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics, montecarlo
from .analytics import GammaFit, ScenarioConfig, dbm_to_watt
from .channel import PhaseMode, SelectionMode, ris_grid_geometry
from .errors import ConfigError, DomainError, FriscovError
from .montecarlo import MCConfig, estimate_cop, estimate_op, estimate_success, ks_distance, simulate_group
from .surface import SurfaceGeometry, correlation_matrix, default_fixed_preset, reduce

_SWEEP_VARIABLES = ("p_a_dbm", "mu_factor", "m_o")
_SCALES = ("db", "linear")
_MODES = ("fris", "fixed", "ris")

# key -> (parser, default); None default for ris.m_hat means "match the
# active-port count".
_SCHEMA: dict[str, tuple[str, object]] = {
    "surface.m_x": ("int", 12),
    "surface.m_z": ("int", 12),
    "surface.w_x": ("float", 2.0),
    "surface.w_z": ("float", 2.0),
    "surface.wavelength": ("float", 0.125),
    "scenario.d_af": ("float", 50.0),
    "scenario.d_fb": ("float", 100.0),
    "scenario.d_fw": ("float", 100.0),
    "scenario.alpha": ("float", 2.1),
    "scenario.rho0": ("float", 1.0),
    "scenario.r_b": ("float", 0.1),
    "scenario.sigma2_b_dbm": ("float", -90.0),
    "scenario.sigma2_w_dbm": ("float", -90.0),
    "scenario.p0": ("float", 0.5),
    "scenario.p1": ("float", 0.5),
    "scenario.mu_factor": ("float", 1.0),
    "scenario.p_a_dbm": ("float", 0.0),
    "selection.m_o": ("int", 36),
    "ris.m_hat": ("int", 0),
    "mc.trials": ("int", 100_000),
    "mc.seed": ("int", 1),
    "mc.workers": ("int", 1),
    "sweep.variable": ("choice:variable", "p_a_dbm"),
    "sweep.start": ("float", -60.0),
    "sweep.stop": ("float", -10.0),
    "sweep.points": ("int", 25),
    "sweep.scale": ("choice:scale", "db"),
}

CSV_COLUMNS: tuple[str, ...] = (
    "swept_value",
    "zeta",
    "analytic_pfa",
    "analytic_pmd",
    "analytic_op",
    "analytic_cop",
    "analytic_xi",
    "analytic_psuc",
) + tuple(
    f"{mode}_{metric}{suffix}"
    for mode in _MODES
    for metric in ("op", "cop", "psuc")
    for suffix in ("", "_lo", "_hi")
)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over a scenario variable."""

    variable: str = "p_a_dbm"
    start: float = -60.0
    stop: float = -10.0
    points: int = 25
    scale: str = "db"

    def __post_init__(self):
        if self.variable not in _SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; expected one of {_SWEEP_VARIABLES}",
                              field="sweep.variable")
        if self.scale not in _SCALES:
            raise ConfigError(f"unknown sweep scale {self.scale!r}; expected one of {_SCALES}",
                              field="sweep.scale")
        if not (isinstance(self.points, int) and self.points >= 2):
            raise ConfigError(f"sweep needs at least 2 points, got {self.points!r}", field="sweep.points")
        if not self.start < self.stop:
            raise ConfigError(f"sweep requires start < stop, got {self.start} >= {self.stop}",
                              field="sweep.start")

    def values(self) -> list[float]:
        grid = np.linspace(self.start, self.stop, self.points)
        if self.variable == "m_o":
            return [float(int(round(v))) for v in grid]
        return [float(v) for v in grid]


@dataclass
class SweepResult:
    """Sweep output: one row per sweep point, fixed column schema."""

    variable: str
    rows: list[dict[str, float | None]]


def _parse_value(key: str, raw: str, lineno: int | None):
    kind = _SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected {kind}, got {raw!r}", line=lineno, field=key) from exc
    choices = _SWEEP_VARIABLES if kind.endswith("variable") else _SCALES
    if raw not in choices:
        raise ConfigError(f"expected one of {choices}, got {raw!r}", line=lineno, field=key)
    return raw


def _read_pairs(path) -> dict[str, tuple[str, int]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        if key in pairs:
            raise ConfigError("duplicate key", line=lineno, field=key)
        pairs[key] = (value, lineno)
    return pairs


def _resolve(path=None) -> dict[str, object]:
    resolved = {key: default for key, (_, default) in _SCHEMA.items()}
    if path is not None:
        for key, (raw, lineno) in _read_pairs(path).items():
            if key not in _SCHEMA:
                print(f"warning: ignoring unknown config key '{key}'", file=sys.stderr)
                continue
            resolved[key] = _parse_value(key, raw, lineno)
    return resolved


def load_config(path=None) -> tuple[ScenarioConfig, SurfaceGeometry, MCConfig, SweepSpec]:
    """Load and validate a configuration file, filling defaults.

    ``path=None`` (or an empty file) yields the reference scenario.
    Unknown keys produce a warning on stderr; malformed values and
    constraint violations raise :class:`ConfigError` with line/field
    context.
    """
    return _from_resolved(_resolve(path))


def _from_resolved(resolved) -> tuple[ScenarioConfig, SurfaceGeometry, MCConfig, SweepSpec]:
    if abs(resolved["scenario.p0"] + resolved["scenario.p1"] - 1.0) > 1e-12:
        raise ConfigError(
            f"priors must satisfy p0 + p1 = 1, got {resolved['scenario.p0']} + {resolved['scenario.p1']}",
            field="scenario.p0",
        )
    try:
        geom = SurfaceGeometry(
            m_x=resolved["surface.m_x"],
            m_z=resolved["surface.m_z"],
            w_x=resolved["surface.w_x"],
            w_z=resolved["surface.w_z"],
            wavelength=resolved["surface.wavelength"],
        )
    except DomainError as exc:
        raise ConfigError(str(exc), field="surface") from exc
    m_o = resolved["selection.m_o"]
    if not 1 <= m_o <= geom.num_elements:
        raise ConfigError(
            f"selection.m_o = {m_o} must lie in [1, {geom.num_elements}] "
            f"(the surface has m_x * m_z = {geom.num_elements} ports)",
            field="selection.m_o",
        )
    sigma2_w = dbm_to_watt(resolved["scenario.sigma2_w_dbm"])
    try:
        scenario = ScenarioConfig(
            d_af=resolved["scenario.d_af"],
            d_fb=resolved["scenario.d_fb"],
            d_fw=resolved["scenario.d_fw"],
            alpha=resolved["scenario.alpha"],
            rho0=resolved["scenario.rho0"],
            r_b=resolved["scenario.r_b"],
            sigma2_b=dbm_to_watt(resolved["scenario.sigma2_b_dbm"]),
            sigma2_w=sigma2_w,
            p0=resolved["scenario.p0"],
            p1=resolved["scenario.p1"],
            mu_offset=resolved["scenario.mu_factor"] * sigma2_w,
            p_a=dbm_to_watt(resolved["scenario.p_a_dbm"]),
        )
    except DomainError as exc:
        raise ConfigError(str(exc), field="scenario") from exc
    ris_m_hat = resolved["ris.m_hat"]
    if ris_m_hat < 0 or ris_m_hat > geom.num_elements:
        raise ConfigError(
            f"ris.m_hat = {ris_m_hat} must lie in [0, {geom.num_elements}] (0 follows selection.m_o)",
            field="ris.m_hat",
        )
    try:
        mc = MCConfig(
            trials=resolved["mc.trials"],
            master_seed=resolved["mc.seed"],
            phase_mode=PhaseMode.STATIC,
            selection_mode=SelectionMode.FIXED,
            workers=resolved["mc.workers"],
            m_o=m_o,
        )
    except DomainError as exc:
        raise ConfigError(str(exc), field="mc") from exc
    spec = SweepSpec(
        variable=resolved["sweep.variable"],
        start=resolved["sweep.start"],
        stop=resolved["sweep.stop"],
        points=resolved["sweep.points"],
        scale=resolved["sweep.scale"],
    )
    if spec.variable == "m_o":
        # The rounded grid is non-decreasing, so its ends are its extremes.
        swept = spec.values()
        for field, m in (("sweep.start", swept[0]), ("sweep.stop", swept[-1])):
            if not 1 <= m <= geom.num_elements:
                raise ConfigError(
                    f"swept m_o = {m:g} must lie in [1, {geom.num_elements}] "
                    f"(the surface has m_x * m_z = {geom.num_elements} ports)",
                    field=field,
                )
    return scenario, geom, mc, spec


def _mode_config(
    base: MCConfig, mode: str, geom: SurfaceGeometry, m_o: int, ris_m_hat: int
) -> tuple[MCConfig, SurfaceGeometry]:
    """MC configuration and surface for one empirical mode.

    The baseline grid of ``m_hat`` elements over the same aperture
    coincides with the reference surface's uniform sublattice whenever
    the counts align, in which case the baseline is simulated as that
    fixed sublattice with coherent phases -- on the same fading draws
    as the fluid modes (paired comparison).  Otherwise it runs on its
    own grid.
    """
    if mode == "fris":
        return dataclasses.replace(
            base, phase_mode=PhaseMode.COHERENT, selection_mode=SelectionMode.BEST_PRODUCT,
            m_o=m_o, fixed_preset=None,
        ), geom
    if mode == "fixed":
        return dataclasses.replace(
            base, phase_mode=PhaseMode.STATIC, selection_mode=SelectionMode.FIXED,
            m_o=m_o, fixed_preset=None,
        ), geom
    if mode == "ris":
        m_hat = ris_m_hat if ris_m_hat > 0 else m_o
        side = math.isqrt(m_hat)
        if side * side == m_hat and geom.m_x % side == 0 and geom.m_z % side == 0:
            preset = default_fixed_preset(geom, m_hat)
            return dataclasses.replace(
                base, phase_mode=PhaseMode.COHERENT, selection_mode=SelectionMode.FIXED,
                m_o=m_hat, fixed_preset=preset,
            ), geom
        ris_geom = ris_grid_geometry(geom, m_hat)
        return dataclasses.replace(
            base, phase_mode=PhaseMode.COHERENT, selection_mode=SelectionMode.RIS_FULL,
            m_o=m_hat, fixed_preset=None,
        ), ris_geom
    raise DomainError(f"unknown mode {mode!r}")


def _point_scenario(scenario: ScenarioConfig, spec: SweepSpec, value: float) -> tuple[ScenarioConfig, int]:
    """Scenario and active-port count at one sweep point."""
    if spec.variable == "p_a_dbm":
        return dataclasses.replace(scenario, p_a=dbm_to_watt(value)), -1
    if spec.variable == "mu_factor":
        return dataclasses.replace(scenario, mu_offset=value * scenario.sigma2_w), -1
    return scenario, int(round(value))


def _analytic_cells(cfg: ScenarioConfig, fit: GammaFit) -> dict[str, float]:
    """The closed-form cells of one sweep point: ``zeta`` and every ``analytic_*`` column."""
    zeta = analytics.optimal_threshold(cfg)
    p_fa = analytics.fa_probability(cfg, zeta)
    p_md = analytics.md_probability(fit, cfg, zeta)
    a_op = analytics.outage_probability(fit, cfg)
    a_xi = analytics.error_probability_xi(cfg, p_fa, p_md)
    return dict(
        zeta=zeta, analytic_pfa=p_fa, analytic_pmd=p_md, analytic_op=a_op,
        analytic_cop=analytics.cop(cfg, p_fa, p_md, zeta), analytic_xi=a_xi,
        analytic_psuc=analytics.success_probability(cfg, a_op, a_xi),
    )


def run_sweep(
    scenario: ScenarioConfig,
    geom: SurfaceGeometry,
    mc: MCConfig,
    spec: SweepSpec,
    modes: tuple[str, ...] = _MODES,
    ris_m_hat: int = 0,
    progress: bool = False,
) -> SweepResult:
    """Evaluate closed forms and enabled empirical modes at each sweep point.

    Deterministic given the master seed.  Every Monte Carlo config the
    sweep needs, over all points and modes, is collected first; the
    configs on one surface then run as one group, so each block is drawn
    once for all of them (see :func:`montecarlo.simulate_group`).  The
    swept link parameters only re-threshold those gains.  The sweep holds
    every config's gains, 16 bytes per trial each, until it returns.
    """
    for mode in modes:
        if mode not in _MODES:
            raise DomainError(f"unknown mode {mode!r}; expected subset of {_MODES}")
    values = spec.values()
    points = []
    groups: dict[SurfaceGeometry, dict[MCConfig, None]] = {}
    for value in values:
        cfg, m_o_point = _point_scenario(scenario, spec, value)
        m_o = mc.m_o if m_o_point < 0 else m_o_point
        if not 1 <= m_o <= geom.num_elements:
            raise DomainError(f"swept m_o={m_o} out of range [1, {geom.num_elements}]")
        configs = {mode: _mode_config(mc, mode, geom, m_o, ris_m_hat) for mode in modes}
        for mc_mode, geom_mode in configs.values():
            groups.setdefault(geom_mode, {})[mc_mode] = None
        points.append((value, cfg, m_o, configs))
    gains = {}
    for number, (geom_mode, members) in enumerate(groups.items(), start=1):
        for mc_mode, sample in zip(members, simulate_group(list(members), geom_mode)):
            gains[mc_mode, geom_mode] = sample
        if progress:
            print(f"[{number}/{len(groups)}] {len(members)} Monte Carlo configs on the "
                  f"{geom_mode.m_x}x{geom_mode.m_z} surface done", file=sys.stderr)

    corr = correlation_matrix(geom)
    rows: list[dict[str, float | None]] = []
    for value, cfg, m_o, configs in points:
        fit = analytics.gamma_moment_match(reduce(corr, default_fixed_preset(geom, m_o)))
        row: dict[str, float | None] = {name: None for name in CSV_COLUMNS}
        row.update(swept_value=value, **_analytic_cells(cfg, fit))
        zeta = row["zeta"]
        for mode, key in configs.items():
            sample = gains[key]
            op = estimate_op(sample, cfg)
            cop_est = estimate_cop(sample, cfg, zeta)
            psuc = estimate_success(sample, cfg, zeta)
            row[f"{mode}_op"], row[f"{mode}_op_lo"], row[f"{mode}_op_hi"] = op.value, op.ci_low, op.ci_high
            row[f"{mode}_cop"], row[f"{mode}_cop_lo"], row[f"{mode}_cop_hi"] = (
                cop_est.value, cop_est.ci_low, cop_est.ci_high)
            row[f"{mode}_psuc"], row[f"{mode}_psuc_lo"], row[f"{mode}_psuc_hi"] = (
                psuc.value, psuc.ci_low, psuc.ci_high)
        rows.append(row)
    return SweepResult(variable=spec.variable, rows=rows)


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep as UTF-8 CSV with the fixed column schema.

    Cells use shortest round-trip float formatting; disabled modes
    leave empty cells.  Output bytes are a pure function of the result.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_format_cell(row[name]) for name in CSV_COLUMNS))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise FriscovError(f"cannot write CSV to {path!r}: {exc}") from exc


_PLOT_SERIES = tuple(
    (f"{source}_{metric}", color, dash)
    for metric, color in (("op", "#1f77b4"), ("cop", "#d62728"), ("psuc", "#2ca02c"))
    for source, dash in (("analytic", ""), ("fris", "6 3"), ("fixed", "2 3"), ("ris", "8 2 2 2"))
)


def _svg_path(xs: list[float], ys: list[float]) -> str:
    return " ".join(f"{'M' if k == 0 else 'L'}{x:.2f},{y:.2f}" for k, (x, y) in enumerate(zip(xs, ys)))


def emit_plot(result: SweepResult, path, log_y: bool = False, floor: float = 1e-6) -> None:
    """Render the sweep as a self-contained SVG (no external renderer).

    One polyline per populated probability column, solid for the closed
    forms and dashed per empirical mode; optional log-scale probability
    axis (values below ``floor`` are clipped to it).  Deterministic
    bytes for a deterministic result.
    """
    if not result.rows:
        raise DomainError("cannot plot an empty sweep result")
    width, height = 880.0, 560.0
    left, right, top, bottom = 70.0, 240.0, 30.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_data = [row["swept_value"] for row in result.rows]
    x_min, x_max = min(xs_data), max(xs_data)
    x_span = (x_max - x_min) or 1.0

    def x_pix(v: float) -> float:
        return left + (v - x_min) / x_span * plot_w

    def y_pix(p: float) -> float:
        if log_y:
            clipped = max(p, floor)
            frac = (math.log10(clipped) - math.log10(floor)) / (0.0 - math.log10(floor))
        else:
            frac = p
        return top + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="12">',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    if log_y:
        decades = int(round(-math.log10(floor)))
        y_ticks = [10.0 ** (-k) for k in range(decades + 1)]
        y_labels = [f"1e{-k:d}" if k else "1" for k in range(decades + 1)]
    else:
        y_ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
        y_labels = [f"{t:.2f}" for t in y_ticks]
    for tick, label in zip(y_ticks, y_labels):
        y = y_pix(tick)
        parts.append(f'<line x1="{left - 4:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{label}</text>')
    for tick in np.linspace(x_min, x_max, 6):
        x = x_pix(float(tick))
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 4:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" text-anchor="middle">{tick:.4g}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" '
                 f'text-anchor="middle">{result.variable}</text>')

    legend_y = top + 10.0
    for name, color, dash in _PLOT_SERIES:
        points = [(row["swept_value"], row[name]) for row in result.rows if row.get(name) is not None]
        if not points:
            continue
        xs = [x_pix(v) for v, _ in points]
        ys = [y_pix(p) for _, p in points]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<path d="{_svg_path(xs, ys)}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash_attr}/>')
        lx = left + plot_w + 12.0
        parts.append(f'<line x1="{lx:.2f}" y1="{legend_y:.2f}" x2="{lx + 28:.2f}" y2="{legend_y:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{lx + 34:.2f}" y="{legend_y + 4:.2f}">{name}</text>')
        legend_y += 18.0
    parts.append("</svg>")
    data = "\n".join(parts).encode("utf-8")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise FriscovError(f"cannot write SVG to {path!r}: {exc}") from exc


def _gate(label: str, measured: float, tolerance: float, ok: bool) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[GATE] {label}: measured={measured:.6g} tolerance={tolerance:.6g} -> {verdict}")
    return ok


def _run_validate(scenario: ScenarioConfig, geom: SurfaceGeometry, mc: MCConfig, spec: SweepSpec) -> None:
    """Closed-form versus Monte Carlo oracle comparisons, reported per gate.

    Every config the gates need runs as one group on ``geom``.
    """
    gate_m_os = [m_o for m_o in (16, 36) if m_o <= geom.num_elements]
    mc_gate = {m_o: _mode_config(mc, "fixed", geom, m_o, 0)[0] for m_o in gate_m_os}
    mc_fixed = _mode_config(mc, "fixed", geom, mc.m_o, 0)[0]
    mc_best = _mode_config(mc, "fris", geom, mc.m_o, 0)[0]
    mc_lattice = dataclasses.replace(mc, phase_mode=PhaseMode.COHERENT, selection_mode=SelectionMode.FIXED)
    configs = list(dict.fromkeys([*mc_gate.values(), mc_fixed, mc_best, mc_lattice]))
    gains_of = dict(zip(configs, simulate_group(configs, geom)))

    corr = correlation_matrix(geom)
    for m_o in gate_m_os:
        fit = analytics.gamma_moment_match(reduce(corr, default_fixed_preset(geom, m_o)))
        gains = gains_of[mc_gate[m_o]]
        rel = abs(float(np.mean(gains.g_b)) - fit.mean) / fit.mean
        _gate(f"mean gain vs Gamma-fit mean (m_o={m_o})", rel, 0.02, rel <= 0.02)
        sample = gains.g_b[: min(100_000, gains.g_b.size)]
        ks = ks_distance(sample, fit)
        _gate(f"KS distance to Gamma fit (m_o={m_o})", ks, 0.05, ks <= 0.05)

    fixed = gains_of[mc_fixed]
    fit = analytics.gamma_moment_match(reduce(corr, default_fixed_preset(geom, mc.m_o)))
    gaps = {"op": 0.0, "cop": 0.0, "psuc": 0.0}
    for value in spec.values():
        cfg, _ = _point_scenario(scenario, spec, value)
        cells = _analytic_cells(cfg, fit)
        zeta = cells["zeta"]
        gaps["op"] = max(gaps["op"], abs(cells["analytic_op"] - estimate_op(fixed, cfg).value))
        gaps["cop"] = max(gaps["cop"], abs(cells["analytic_cop"] - estimate_cop(fixed, cfg, zeta).value))
        gaps["psuc"] = max(gaps["psuc"], abs(cells["analytic_psuc"] - estimate_success(fixed, cfg, zeta).value))
    _gate("max |analytic - empirical| outage over sweep", gaps["op"], 0.02, gaps["op"] <= 0.02)
    _gate("max |analytic - empirical| covertness outage over sweep", gaps["cop"], 0.02, gaps["cop"] <= 0.02)
    _gate("max |analytic - empirical| success over sweep", gaps["psuc"], 0.02, gaps["psuc"] <= 0.02)

    best = gains_of[mc_best]
    lattice = gains_of[mc_lattice]
    dominance = float(np.mean(best.g_b >= lattice.g_b))
    _gate("per-draw best-product dominance over fixed sublattice", dominance, 1.0, dominance >= 1.0)
    print("note: the KS and curve-agreement gates quantify the accuracy limit of the "
          "Gamma moment match (it pins the mean, not the shape, of the simulated "
          "two-hop gain).")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="friscov", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="configuration file (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--trials", type=int, default=None, help="override mc.trials")
        p.add_argument("--workers", type=int, default=None, help="override mc.workers")

    sweep = sub.add_parser("sweep", help="run the configured sweep and write CSV/SVG")
    add_common(sweep)
    sweep.add_argument("--mode", choices=_MODES + ("all",), default="all",
                       help="empirical mode(s) to simulate")
    sweep.add_argument("--out", type=str, default="out", help="output directory")
    sweep.add_argument("--plot", action="store_true", help="also write plot.svg")
    sweep.add_argument("--log-y", action="store_true", help="log-scale probability axis in the plot")

    validate = sub.add_parser("validate", help="run closed-form vs Monte Carlo oracle comparisons")
    add_common(validate)

    show = sub.add_parser("show-config", help="print the fully resolved configuration")
    show.add_argument("--config", type=str, default=None)
    return parser


def _apply_overrides(mc: MCConfig, args) -> MCConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    return dataclasses.replace(mc, **updates) if updates else mc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve(args.config)
        scenario, geom, mc, spec = _from_resolved(resolved)
        if args.command == "show-config":
            print(f"# resolved configuration ({geom.num_elements} ports, "
                  f"{geom.w_x}x{geom.w_z} wavelength aperture)")
            for key, value in resolved.items():
                print(f"{key} = {value}")
            return 0
        mc = _apply_overrides(mc, args)
        if args.command == "validate":
            _run_validate(scenario, geom, mc, spec)
            return 0
        modes = _MODES if args.mode == "all" else (args.mode,)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = run_sweep(scenario, geom, mc, spec, modes=modes, ris_m_hat=resolved["ris.m_hat"], progress=True)
        emit_csv(result, out_dir / "sweep.csv")
        if args.plot:
            emit_plot(result, out_dir / "plot.svg", log_y=args.log_y)
        print(f"wrote {out_dir / 'sweep.csv'}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FriscovError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
