"""Output checks for the benchmark's workloads.

Every check returns a list of problems; an empty list means the output
passed.  The checks are:

* sweep CSV: header equals ``friscov.cli.CSV_COLUMNS``; one row per grid
  point with ``swept_value`` on the configured grid; every probability
  column in [0, 1], and every Monte Carlo estimate within its own
  ``_lo``/``_hi`` interval;
* Monte Carlo columns against a reference CSV recorded with another
  seed: the two estimates may differ by at most ``REFERENCE_K`` times
  the root-sum-square of their Wilson 95% half-widths on the sides
  facing each other.  Analytic columns get the range check only;
* paired dominance: ``fris_op <= ris_op`` at every point, where the
  fluid and RIS modes run on the same draws;
* ``plot.svg`` parses as XML with an ``svg`` root;
* ``validate`` prints exactly ``EXPECTED_GATES`` parseable gate lines.
"""

from __future__ import annotations

import csv
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

# 2.5 one-sided 95% half-widths is about 4.9 standard deviations of the
# difference of two independent estimates: a false alarm is ~1e-6 per
# cell, while a physics error that moves a curve by a few half-widths fails.
REFERENCE_K = 2.5
EXPECTED_GATES = 8
GATE_RE = re.compile(
    r"^\[GATE\] (?P<label>.+): measured=(?P<measured>\S+) tolerance=(?P<tolerance>\S+) -> (?P<verdict>PASS|FAIL)$"
)

Rows = list[dict[str, float | None]]


def read_config(path: Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file, as ``friscov`` reads it."""
    pairs = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def expected_grid(config: dict[str, str]) -> list[float]:
    """Swept values the config asks for: evenly spaced, rounded for ``m_o``."""
    start, stop = float(config["sweep.start"]), float(config["sweep.stop"])
    points = int(config["sweep.points"])
    grid = [start + (stop - start) * k / (points - 1) for k in range(points)]
    if config["sweep.variable"] == "m_o":
        grid = [float(round(v)) for v in grid]
    return grid


def read_csv(path: Path) -> tuple[list[str], Rows]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [{name: (float(cell) if cell else None) for name, cell in zip(header, line)} for line in reader]
    return header, rows


def estimate_columns(header: list[str]) -> list[str]:
    """Monte Carlo estimate columns: those with ``_lo`` and ``_hi`` companions."""
    return [name for name in header if f"{name}_lo" in header and f"{name}_hi" in header]


def probability_columns(header: list[str]) -> list[str]:
    return [name for name in header if name not in ("swept_value", "zeta")]


def check_sweep(header: list[str], rows: Rows, columns: tuple[str, ...], grid: list[float],
                reference: Rows | None = None, fris_dominates: bool = False) -> list[str]:
    problems = []
    if tuple(header) != tuple(columns):
        return [f"CSV header {header} differs from cli.CSV_COLUMNS {list(columns)}"]
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    for index, (row, value) in enumerate(zip(rows, grid)):
        swept = row["swept_value"]
        if swept is None or abs(swept - value) > 1e-9 * max(1.0, abs(value)):
            problems.append(f"row {index}: swept_value {swept} is not grid value {value}")
        for name in probability_columns(header):
            cell = row[name]
            if cell is None or not 0.0 <= cell <= 1.0:
                problems.append(f"row {index}: {name} = {cell} is not a probability")
        for name in estimate_columns(header):
            lo, value_, hi = row[f"{name}_lo"], row[name], row[f"{name}_hi"]
            if None not in (lo, value_, hi) and not lo <= value_ <= hi:
                problems.append(f"row {index}: {name} interval [{lo}, {hi}] excludes {value_}")
        if fris_dominates and row["fris_op"] is not None and row["ris_op"] is not None \
                and row["fris_op"] > row["ris_op"]:
            problems.append(f"row {index}: fris_op {row['fris_op']} > ris_op {row['ris_op']} on paired draws")
    if reference is not None:
        problems += compare_to_reference(header, rows, reference)
    return problems


def compare_to_reference(header: list[str], rows: Rows, reference: Rows) -> list[str]:
    if len(reference) != len(rows):
        return [f"{len(rows)} rows but the reference has {len(reference)}"]
    problems = []
    for index, (row, ref) in enumerate(zip(rows, reference)):
        if ref["swept_value"] != row["swept_value"]:
            problems.append(f"row {index}: swept_value {row['swept_value']} but reference {ref['swept_value']}")
            continue
        for name in estimate_columns(header):
            value, ref_value = row[name], ref[name]
            if None in (value, ref_value, row[f"{name}_lo"], row[f"{name}_hi"], ref[f"{name}_lo"], ref[f"{name}_hi"]):
                continue  # the range check reports empty cells
            if not ref[f"{name}_lo"] <= ref_value <= ref[f"{name}_hi"]:
                problems.append(f"row {index}: reference {name} = {ref_value} lies outside its own interval")
                continue
            if value >= ref_value:
                width = math.hypot(value - row[f"{name}_lo"], ref[f"{name}_hi"] - ref_value)
            else:
                width = math.hypot(row[f"{name}_hi"] - value, ref_value - ref[f"{name}_lo"])
            if abs(value - ref_value) > REFERENCE_K * width:
                problems.append(f"row {index}: {name} = {value} vs reference {ref_value} "
                                f"exceeds {REFERENCE_K} x {width:.3g}")
    return problems


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name} is not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name} root element is {root.tag}, not svg"]
    return []


def parse_gates(stdout: str) -> tuple[list[str], int]:
    """Problems with the gate report, and the number of gates that FAIL."""
    gates = [GATE_RE.match(line) for line in stdout.splitlines() if line.startswith("[GATE]")]
    problems = [f"unparseable gate line #{k}" for k, match in enumerate(gates) if match is None]
    parsed = [match for match in gates if match is not None]
    for match in parsed:
        try:
            float(match["measured"]), float(match["tolerance"])
        except ValueError:
            problems.append(f"gate {match['label']!r} has non-numeric values")
    if len(gates) != EXPECTED_GATES:
        problems.append(f"{len(gates)} gate lines, expected {EXPECTED_GATES}")
    return problems, sum(match["verdict"] == "FAIL" for match in parsed)
