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

What loads when: this module is the front end, on the standard library
and :mod:`friscov.config` alone.  It parses the arguments, reads and
checks the whole configuration, prints ``show-config`` and maps errors to
exit codes without loading numpy.  Only ``sweep`` and ``validate``, once
every check has passed, import the numeric driver, :mod:`friscov.runs`,
and with it numpy.

Exit codes: 0 success, 1 a ``validate`` gate failed, 2 configuration
error (an unusable ``--out`` included), 3 runtime/numerical error, 141
(128 + SIGPIPE) when the reader of standard output has gone away.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .config import CSV_COLUMNS, MAX_WORKERS, MCConfig, Mode, ScenarioConfig, SurfaceGeometry, dbm_to_watt
from .errors import ConfigError, DomainError, FriscovError

if TYPE_CHECKING:
    from .runs import SweepResult

_SWEEP_VARIABLES = ("p_a_dbm", "mu_factor", "m_o")
# Scenario fields read straight from their keys; the others are derived.
_SCENARIO_KEYS = ("d_af", "d_fb", "d_fw", "alpha", "rho0", "r_b", "p0")
_MODES = tuple(mode.value for mode in Mode)

# key -> (parser, default); the default 0 for ris.m_hat means "match the
# active-port count".
_SCHEMA: dict[str, tuple[str, object]] = {
    "surface.m_x": ("int", 12),
    "surface.m_z": ("int", 12),
    "surface.w_x": ("float", 2.0),
    "surface.w_z": ("float", 2.0),
    "scenario.d_af": ("float", 50.0),
    "scenario.d_fb": ("float", 100.0),
    "scenario.d_fw": ("float", 100.0),
    "scenario.alpha": ("float", 2.1),
    "scenario.rho0": ("float", 1.0),
    "scenario.r_b": ("float", 0.1),
    "scenario.sigma2_b_dbm": ("float", -90.0),
    "scenario.sigma2_w_dbm": ("float", -90.0),
    "scenario.p0": ("float", 0.5),
    "scenario.mu_factor": ("float", 1.0),
    "scenario.p_a_dbm": ("float", 0.0),
    "selection.m_o": ("int", 36),
    "ris.m_hat": ("int", 0),
    "mc.trials": ("int", 100_000),
    "mc.seed": ("int", 1),
    "mc.workers": ("int", 1),
    "sweep.variable": ("choice", "p_a_dbm"),
    "sweep.start": ("float", -60.0),
    "sweep.stop": ("float", -10.0),
    "sweep.points": ("int", 25),
}

# The sweep holds a row of every point until it writes the CSV (about
# 3 KB each) and evaluates the closed form at each (about 0.5 ms), so a
# million points already take gigabytes and several minutes.
MAX_SWEEP_POINTS = 10**6

# A run simulates about 315k trials a second on the reference surface for the
# fluid surface alone and 335k for a preset (a 2-core box, one BLAS thread,
# a helper thread drawing and correlating), so a billion trials take about
# an hour.  A pool of workers keeps at most two blocks per worker in flight,
# and a run keeps nothing per block: each block's gains are counted into the
# run's totals as it arrives, then dropped.
MAX_TRIALS = 10**9

# A block of a surface of n ports holds 3 x n x TILE_TRIALS complex fading
# entries, one tile or two half-tile panels: about 100 MB at this limit, a
# 64x64 grid.  Ranking grows with n too.
MAX_PORTS = 4096


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep over a scenario variable; ``points`` lies in ``[2, MAX_SWEEP_POINTS]``."""

    variable: str = "p_a_dbm"
    start: float = -60.0
    stop: float = -10.0
    points: int = 25

    def __post_init__(self):
        if self.variable not in _SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; expected one of {_SWEEP_VARIABLES}",
                              field="sweep.variable")
        for field, value in (("sweep.start", self.start), ("sweep.stop", self.stop)):
            if not math.isfinite(value):
                raise ConfigError(f"sweep ends must be finite, got {value}", field=field)
        if not (isinstance(self.points, int) and self.points >= 2):
            raise ConfigError(f"sweep needs at least 2 points, got {self.points!r}", field="sweep.points")
        if self.points > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep holds at most {MAX_SWEEP_POINTS} points, got {self.points}",
                              field="sweep.points")
        if not self.start < self.stop:
            raise ConfigError(f"sweep requires start < stop, got {self.start} >= {self.stop}",
                              field="sweep.start")

    def values(self) -> list[float]:
        import numpy as np  # only a sweep builds the grid

        return [self._swept(v) for v in np.linspace(self.start, self.stop, self.points)]

    def ends(self) -> tuple[float, float]:
        """The first and last of :meth:`values`, without building the grid.

        ``np.linspace`` puts ``start`` and ``stop`` there exactly.
        """
        return self._swept(self.start), self._swept(self.stop)

    def scenario_at(self, scenario: ScenarioConfig, value: float, ports: int) -> ScenarioConfig:
        """``scenario`` at sweep point ``value`` on a surface of ``ports`` ports."""
        if self.variable == "p_a_dbm":
            return dataclasses.replace(scenario, p_a=dbm_to_watt(value))
        if self.variable == "mu_factor":
            return dataclasses.replace(scenario, mu_offset=value * scenario.sigma2_w)
        m_o = int(round(value))
        if not 1 <= m_o <= ports:
            raise DomainError(f"m_o = {m_o} must lie in [1, {ports}] (the surface has m_x * m_z = {ports} ports)")
        return dataclasses.replace(scenario, m_o=m_o)

    def _swept(self, grid_value: float) -> float:
        if self.variable == "m_o":
            return float(int(round(grid_value)))
        return float(grid_value)


def _parse_value(key: str, raw: str, lineno: int | None):
    kind = _SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected {kind}, got {raw!r}", line=lineno, field=key) from exc
    if raw not in _SWEEP_VARIABLES:
        raise ConfigError(f"expected one of {_SWEEP_VARIABLES}, got {raw!r}", line=lineno, field=key)
    return raw


def _read_pairs(path) -> dict[str, tuple[str, int]]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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
    context.  ``m_x * m_z`` above ``MAX_PORTS``, ``mc.trials`` above
    ``MAX_TRIALS``, ``mc.workers`` above ``MAX_WORKERS`` and
    ``sweep.points`` above ``MAX_SWEEP_POINTS`` are rejected before
    anything is allocated for them.
    """
    return _from_resolved(_resolve(path))


def _from_resolved(resolved) -> tuple[ScenarioConfig, SurfaceGeometry, MCConfig, SweepSpec]:
    try:
        geom = SurfaceGeometry(*(resolved[f"surface.{key}"] for key in ("m_x", "m_z", "w_x", "w_z")))
    except DomainError as exc:
        raise ConfigError(str(exc), field="surface") from exc
    if geom.num_elements > MAX_PORTS:
        raise ConfigError(f"a surface holds at most {MAX_PORTS} ports, got m_x * m_z = {geom.num_elements}",
                          field="surface")
    m_o, m_hat = resolved["selection.m_o"], resolved["ris.m_hat"]
    if not 1 <= m_o <= geom.num_elements:
        raise ConfigError(f"selection.m_o = {m_o} must lie in [1, {geom.num_elements}] "
                          f"(the surface has m_x * m_z = {geom.num_elements} ports)", field="selection.m_o")
    if not 0 <= m_hat <= geom.num_elements:
        raise ConfigError(f"ris.m_hat = {m_hat} must lie in [0, {geom.num_elements}] (0 follows selection.m_o)",
                          field="ris.m_hat")
    watts = {}
    for key in ("scenario.sigma2_w_dbm", "scenario.sigma2_b_dbm", "scenario.p_a_dbm"):
        try:
            watts[key] = dbm_to_watt(resolved[key])
        except DomainError as exc:
            raise ConfigError(f"{key}: {exc}", field="scenario") from exc
    sigma2_w = watts["scenario.sigma2_w_dbm"]
    try:
        scenario = ScenarioConfig(
            **{key: resolved[f"scenario.{key}"] for key in _SCENARIO_KEYS},
            sigma2_b=watts["scenario.sigma2_b_dbm"], sigma2_w=sigma2_w, p_a=watts["scenario.p_a_dbm"],
            mu_offset=resolved["scenario.mu_factor"] * sigma2_w, m_o=m_o, m_hat=m_hat,
        )
    except DomainError as exc:
        raise ConfigError(str(exc), field="scenario") from exc
    if resolved["mc.trials"] > MAX_TRIALS:
        raise ConfigError(f"a run holds at most {MAX_TRIALS} trials, got {resolved['mc.trials']}", field="mc.trials")
    if resolved["mc.workers"] > MAX_WORKERS:
        raise ConfigError(f"a run uses at most {MAX_WORKERS} workers, got {resolved['mc.workers']}", field="mc.workers")
    try:
        mc = MCConfig(*(resolved[f"mc.{key}"] for key in ("trials", "seed", "workers")))
    except DomainError as exc:
        raise ConfigError(str(exc), field="mc") from exc
    spec = SweepSpec(*(resolved[f"sweep.{key}"] for key in ("variable", "start", "stop", "points")))
    # Every swept variable is monotone on the grid, so its two ends bound
    # every point.
    for field, value in zip(("sweep.start", "sweep.stop"), spec.ends()):
        try:
            spec.scenario_at(scenario, value, geom.num_elements)
        except DomainError as exc:
            raise ConfigError(str(exc), field=field) from exc
    return scenario, geom, mc, spec


def _format_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


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


_LOG_FLOOR = 1e-6

_PLOT_SERIES = tuple(
    (f"{source}_{metric}", color, dash)
    for metric, color in (("op", "#1f77b4"), ("cop", "#d62728"), ("psuc", "#2ca02c"))
    for source, dash in (("analytic", ""), ("fris", "6 3"), ("fixed", "2 3"), ("ris", "8 2 2 2"))
)


def _svg_path(xs: list[float], ys: list[float]) -> str:
    return " ".join(f"{'M' if k == 0 else 'L'}{x:.2f},{y:.2f}" for k, (x, y) in enumerate(zip(xs, ys)))


def emit_plot(result: SweepResult, path, log_y: bool = False) -> None:
    """Render the sweep as a self-contained SVG (no external renderer).

    One polyline per populated probability column, solid for the closed
    forms and dashed per empirical mode; optional log-scale probability
    axis (values below ``_LOG_FLOOR`` are clipped to it).  Deterministic
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
            clipped = max(p, _LOG_FLOOR)
            frac = (math.log10(clipped) - math.log10(_LOG_FLOOR)) / (0.0 - math.log10(_LOG_FLOOR))
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
        decades = int(round(-math.log10(_LOG_FLOOR)))
        y_ticks = [10.0 ** (-k) for k in range(decades + 1)]
        y_labels = [f"1e{-k:d}" if k else "1" for k in range(decades + 1)]
    else:
        y_ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
        y_labels = [f"{t:.2f}" for t in y_ticks]
    for tick, label in zip(y_ticks, y_labels):
        y = y_pix(tick)
        parts.append(f'<line x1="{left - 4:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{label}</text>')
    import numpy as np  # loaded by the sweep that made the result

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve(args.config)
        for key in ("seed", "trials", "workers"):
            if getattr(args, key, None) is not None:
                resolved[f"mc.{key}"] = getattr(args, key)
        scenario, geom, mc, spec = _from_resolved(resolved)
        code = 0
        if args.command == "show-config":
            print(f"# resolved configuration ({geom.num_elements} ports, "
                  f"{geom.w_x}x{geom.w_z} wavelength aperture)")
            for key, value in resolved.items():
                print(f"{key} = {value}")
        elif args.command == "validate":
            from . import runs

            gates = runs.run_validate(scenario, geom, mc, spec)
            for label, measured, tolerance, passed in gates:
                verdict = "PASS" if passed else "FAIL"
                print(f"[GATE] {label}: measured={measured:.6g} tolerance={tolerance:.6g} -> {verdict}")
            code = 0 if all(passed for *_, passed in gates) else 1
        else:
            if args.log_y and not args.plot:
                raise ConfigError("--log-y sets the plot's axis and needs --plot")
            modes = tuple(Mode) if args.mode == "all" else (Mode(args.mode),)
            out_dir = Path(args.out)
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out!r} is not a usable directory: {exc.strerror}") from exc
            from . import runs

            result = runs.run_sweep(scenario, geom, mc, spec, modes=modes, progress=True)
            emit_csv(result, out_dir / "sweep.csv")
            if args.plot:
                emit_plot(result, out_dir / "plot.svg", log_y=args.log_y)
            print(f"wrote {out_dir / 'sweep.csv'}", file=sys.stderr)
        # A reader that has gone away surfaces here, not in the flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Exit as a SIGPIPE kill would; the null device keeps the flush at exit from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FriscovError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
