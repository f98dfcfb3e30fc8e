import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from friscov import (
    ConfigError,
    DomainError,
    Mode,
    ScenarioConfig,
    SurfaceGeometry,
    correlation_matrix,
    dbm_to_watt,
    default_fixed_preset,
    estimate_op,
    gamma_moment_match,
    optimal_threshold,
    outage_probability,
    simulate_group,
)
from friscov import cli, montecarlo, runs
from friscov.channel import ris_grid_geometry
from friscov.cli import (
    CSV_COLUMNS,
    MAX_PORTS,
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    MAX_WORKERS,
    SweepSpec,
    emit_csv,
    emit_plot,
    load_config,
    main,
)
from friscov.montecarlo import count_events, event_levels
from friscov.runs import _mode_config, run_sweep, run_validate
from fresh import fresh_python
from gains import whole_gains


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults_without_a_file(self):
        scenario, geom, mc, spec = load_config(None)
        assert (geom.m_x, geom.m_z, geom.w_x, geom.w_z) == (12, 12, 2.0, 2.0)
        assert scenario.d_af == 50.0 and scenario.d_fb == 100.0 and scenario.d_fw == 100.0
        assert scenario.alpha == 2.1 and scenario.r_b == 0.1
        assert scenario.sigma2_b == pytest.approx(1e-12, rel=1e-12)
        assert scenario.p0 == scenario.p1 == 0.5
        assert mc.trials == 100_000 and scenario.m_o == 36 and scenario.m_hat == 0
        assert spec.variable == "p_a_dbm" and spec.points == 25
        assert (spec.start, spec.stop) == (-60.0, -10.0)

    def test_empty_file_equals_defaults(self, tmp_path):
        empty = write_config(tmp_path, "")
        assert load_config(empty) == load_config(None)

    def test_partial_override(self, tmp_path):
        path = write_config(tmp_path, "scenario.d_af = 25\nmc.trials = 500\n# comment\n")
        scenario, _, mc, _ = load_config(path)
        assert scenario.d_af == 25.0
        assert mc.trials == 500

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_parse_error_reports_line_and_field(self, tmp_path):
        path = write_config(tmp_path, "surface.m_x = 12\nmc.trials = lots\n")
        with pytest.raises(ConfigError, match=r"line 2.*mc\.trials"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "mc.seed = 1\nmc.seed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_unknown_key_warns(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario.unknown_thing = 3\n")
        load_config(path)
        assert "unknown config key" in capsys.readouterr().err

    def test_wavelength_and_p1_are_unknown_keys(self, tmp_path, capsys):
        # Neither sets anything the model reads, so a file that still sets them runs as if it did not.
        path = write_config(tmp_path, "surface.wavelength = 0.1\nscenario.p1 = 0.4\n")
        assert load_config(path) == load_config(None)
        err = capsys.readouterr().err
        assert "unknown config key 'surface.wavelength'" in err and "unknown config key 'scenario.p1'" in err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # An editor that saves UTF-8 with a byte order mark puts U+FEFF before the first key.
        path = write_config(tmp_path, "\ufeffmc.trials = 777\nmc.seed = 5\n")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfmc.trials")
        _, _, mc, _ = load_config(path)
        assert (mc.trials, mc.master_seed) == (777, 5)
        assert capsys.readouterr().err == ""

    def test_m_o_exceeding_port_count(self, tmp_path):
        path = write_config(tmp_path, "selection.m_o = 200\n")
        with pytest.raises(ConfigError, match="selection.m_o"):
            load_config(path)

    # A valid value other than the default, and other than the small sweep
    # of test_every_model_key_moves_a_cell, for every key, each alone, with
    # the keys it needs to stay valid (also set on the other side).  A sweep
    # over mu_factor or m_o needs ends that both allow.
    _NON_DEFAULTS = {
        "surface.m_x": ("10", ""), "surface.m_z": ("10", ""), "surface.w_x": ("3.0", ""),
        "surface.w_z": ("3.0", ""), "scenario.d_af": ("60", ""),
        "scenario.d_fb": ("90", ""), "scenario.d_fw": ("110", ""), "scenario.alpha": ("2.2", ""),
        "scenario.rho0": ("0.5", ""), "scenario.r_b": ("0.2", ""), "scenario.sigma2_b_dbm": ("-80", ""),
        "scenario.sigma2_w_dbm": ("-80", ""), "scenario.p0": ("0.3", ""), "scenario.mu_factor": ("2.0", ""),
        "scenario.p_a_dbm": ("-10", ""), "selection.m_o": ("16", ""), "ris.m_hat": ("16", ""),
        "mc.trials": ("500", ""), "mc.seed": ("2", ""), "mc.workers": ("2", ""),
        "sweep.variable": ("mu_factor", "sweep.start = 1\nsweep.stop = 2\n"), "sweep.start": ("-45", ""),
        "sweep.stop": ("-20", ""), "sweep.points": ("10", ""),
    }

    @pytest.mark.parametrize("key", list(cli._SCHEMA))
    def test_every_key_reaches_the_result(self, tmp_path, key):
        value, needs = self._NON_DEFAULTS[key]
        changed = write_config(tmp_path, f"{key} = {value}\n{needs}", name="changed.cfg")
        base = write_config(tmp_path, needs, name="base.cfg")
        assert load_config(changed) != load_config(base)

    def test_every_model_key_moves_a_cell(self, tmp_path):
        # Each key set alone to its value above, from a small power sweep: a
        # key that moves no CSV cell by more than 1e-9 is an option the model
        # never reads.  Only the worker count and the swept power, which the
        # sweep sets at each point, may do so; a run with other rows moved.
        assert set(self._NON_DEFAULTS) == set(cli._SCHEMA)
        base = "sweep.points = 3\nsweep.start = -50\nsweep.stop = -40\nmc.trials = 1024\n"

        def rows(text):
            return run_sweep(*load_config(write_config(tmp_path, text))).rows

        def same(a, b):
            return a is b is None or None not in (a, b) and abs(a - b) <= 1e-9

        reference = rows(base)
        unmoved = set()
        for key, (value, needs) in self._NON_DEFAULTS.items():
            settings = dict(line.split(" = ") for line in (base + needs).splitlines())
            settings[key] = value
            changed = rows("".join(f"{name} = {text}\n" for name, text in settings.items()))
            if len(changed) == len(reference) and all(same(a[name], b[name]) for a, b in zip(reference, changed)
                                                      for name in CSV_COLUMNS):
                unmoved.add(key)
        assert unmoved == {"mc.workers", "scenario.p_a_dbm"}


class TestSweepSpec:
    def test_values_linear_in_db(self):
        spec = SweepSpec(variable="p_a_dbm", start=-60.0, stop=-10.0, points=11)
        values = spec.values()
        assert len(values) == 11
        assert values[0] == -60.0 and values[-1] == -10.0

    def test_m_o_values_are_integers(self):
        spec = SweepSpec(variable="m_o", start=16.0, stop=36.0, points=5)
        assert all(v == int(v) for v in spec.values())

    @pytest.mark.parametrize("variable, start, stop, points", [
        ("p_a_dbm", -60.0, -10.0, 25), ("p_a_dbm", -0.1, 0.7, 3), ("mu_factor", 0.3, 2.9, 7),
        ("m_o", 4.0, 144.0, 13), ("m_o", 4.5, 15.5, 4), ("m_o", 2.4, 35.6, 6),
    ])
    def test_ends_are_those_of_the_grid(self, variable, start, stop, points):
        spec = SweepSpec(variable=variable, start=start, stop=stop, points=points)
        values = spec.values()
        assert spec.ends() == (values[0], values[-1])

    @pytest.mark.parametrize("kwargs", [
        dict(points=1), dict(start=-10.0, stop=-10.0), dict(variable="bogus"), dict(stop=math.inf),
        dict(points=MAX_SWEEP_POINTS + 1),
    ])
    def test_validation(self, kwargs):
        base = dict(variable="p_a_dbm", start=-60.0, stop=-10.0, points=25)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SweepSpec(**base)


@pytest.fixture(scope="module")
def small_run():
    scenario, geom, mc, _ = load_config(None)
    mc = dataclasses.replace(mc, trials=4_000)
    spec = SweepSpec(variable="p_a_dbm", start=-55.0, stop=-30.0, points=4)
    result = run_sweep(scenario, geom, mc, spec, modes=(Mode.FRIS, Mode.FIXED, Mode.RIS))
    return scenario, geom, mc, spec, result


class TestRunSweep:
    def test_row_count_and_schema(self, small_run):
        *_, result = small_run
        assert len(result.rows) == 4
        for row in result.rows:
            assert set(row) == set(CSV_COLUMNS)

    def test_rows_match_direct_module_calls(self, small_run):
        scenario, geom, mc, spec, result = small_run
        ports = default_fixed_preset(geom, scenario.m_o)
        corr_fit = gamma_moment_match(correlation_matrix(geom, np.arange(geom.num_elements))[np.ix_(ports, ports)])
        # The counts of the whole run's gains: the sweep's sum of per-block counts.
        [gains] = whole_gains(mc, geom, [(Mode.FIXED, scenario.m_o)])
        for row, value in zip(result.rows, spec.values()):
            cfg = dataclasses.replace(scenario, p_a=dbm_to_watt(value))
            assert row["swept_value"] == value
            assert row["zeta"] == optimal_threshold(cfg)
            assert row["analytic_op"] == outage_probability(corr_fit, cfg)
            cell = count_events(*gains, event_levels([(cfg, row["zeta"])]))[0].tolist()
            assert row["fixed_op"] == estimate_op(cell, mc.trials).value

    def test_probability_cells_in_unit_interval(self, small_run):
        *_, result = small_run
        for row in result.rows:
            for name, value in row.items():
                if name in ("swept_value", "zeta") or value is None:
                    continue
                assert 0.0 <= value <= 1.0

    def test_common_random_numbers_order_the_counts(self):
        # Every power re-thresholds the same draws, and the fluid surface's
        # best ports beat the paired sublattice on each draw, so these hold
        # exactly, not only within sampling error.
        scenario, geom, mc, spec = load_config(None)
        assert _mode_config(Mode.RIS, geom, scenario)[0] == geom
        rows = run_sweep(scenario, geom, dataclasses.replace(mc, trials=3_000), spec).rows
        for mode in ("fris", "fixed", "ris"):
            ops = [row[f"{mode}_op"] for row in rows]
            assert all(b <= a for a, b in zip(ops, ops[1:])), mode
        assert all(row["fris_op"] <= row["ris_op"] for row in rows)
        for row in rows:
            assert all(0.0 <= value <= 1.0 for name, value in row.items() if name not in ("swept_value", "zeta"))

    def test_disabled_modes_leave_empty_cells(self):
        scenario, geom, mc, _ = load_config(None)
        mc = dataclasses.replace(mc, trials=1_000)
        spec = SweepSpec(points=2, start=-50.0, stop=-40.0)
        result = run_sweep(scenario, geom, mc, spec, modes=(Mode.FIXED,))
        row = result.rows[0]
        assert row["fris_op"] is None and row["ris_op"] is None
        assert row["fixed_op"] is not None

    def test_analytic_op_non_increasing_and_cop_non_decreasing(self):
        scenario, geom, mc, spec = load_config(None)
        result = run_sweep(scenario, geom, mc, spec, modes=())
        ops = [row["analytic_op"] for row in result.rows]
        cops = [row["analytic_cop"] for row in result.rows]
        assert all(b <= a for a, b in zip(ops, ops[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(cops, cops[1:]))

    def test_m_o_sweep(self):
        scenario, geom, mc, _ = load_config(None)
        mc = dataclasses.replace(mc, trials=1_000)
        spec = SweepSpec(variable="m_o", start=16.0, stop=36.0, points=2)
        result = run_sweep(scenario, geom, mc, spec, modes=(Mode.FIXED,))
        assert [row["swept_value"] for row in result.rows] == [16.0, 36.0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reports_blocks_in_order(self, monkeypatch, capsys, workers):
        # Progress comes per block of the whole run, at most once a second by
        # the clock, and after the last block, at any worker count.  m_o = 4
        # pairs its RIS grid with the fluid surface's draws; m_o = 7 needs a
        # grid of its own, so a block holds two surfaces.  The clock reads
        # 0.375 s later as each block arrives, so every third block and the
        # last report.
        readings = iter(np.arange(12) * 0.375)
        monkeypatch.setattr(runs, "time", SimpleNamespace(monotonic=lambda: float(next(readings))))
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 100)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", 100)
        scenario, geom, mc, _ = load_config(None)
        mc = dataclasses.replace(mc, trials=1_000, workers=workers)
        spec = SweepSpec(variable="m_o", start=4.0, stop=7.0, points=2)
        run_sweep(scenario, geom, mc, spec, modes=(Mode.FRIS, Mode.RIS), progress=True)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines] == ["[3/10", "[6/10", "[9/10", "[10/10"]
        assert lines[0] == "[3/10 blocks] 1.1 s elapsed, ETA 2.6 s"
        assert lines[-1] == "[10/10 blocks] 3.8 s elapsed, ETA 0.0 s"

    def test_m_o_sweep_draws_once_per_block(self, monkeypatch):
        # m_o = 4 pairs its RIS grid with the fluid surface; 7 and 10 run on
        # grids of their own.  The three surfaces read one draw per tile,
        # made in the largest rank of the three (the 12x12 surface's 33), at
        # the tile's full width: ten tiles for 5,000 trials.
        draws = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *, out):
                draws.append(out.shape)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        scenario, geom, mc, _ = load_config(None)
        spec = SweepSpec(variable="m_o", start=4.0, stop=10.0, points=3)
        points = runs._sweep_points(scenario, geom, spec, tuple(Mode))
        assert len({surface for *_, configs in points for surface, *_ in configs.values()}) == 3
        run_sweep(scenario, geom, dataclasses.replace(mc, trials=5_000), spec)
        assert draws == [(33, 3, 2 * 512)] * 10

    def test_the_caller_holds_one_block_of_gains_at_a_time(self):
        # The m_o sweep of 13 points holds 39 selections' gains a block, 2.5 MB
        # at 16 B per trial and selection.  Each block is counted and dropped
        # before the next one runs, so four blocks peak where one does; a
        # block's gains still held while the next one runs would add them all.
        scenario, geom, mc, _ = load_config(None)
        scenario = dataclasses.replace(scenario, p_a=dbm_to_watt(-50.0))
        spec = SweepSpec(variable="m_o", start=4.0, stop=144.0, points=13)

        def peak(blocks: int) -> int:
            tracemalloc.start()
            try:
                run_sweep(scenario, geom, dataclasses.replace(mc, trials=blocks * montecarlo.BLOCK_TRIALS), spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations
        one, four = peak(1), peak(4)
        assert four - one <= 262_144, (one, four)

    def test_a_failing_fold_ends_the_pool(self, monkeypatch):
        # Two workers, and a tap whose fold fails at the third block.  Every
        # fold runs on the caller's thread.  The run is closed as the error
        # leaves _simulate, so no worker outlives the test (the conftest
        # check), though the test holds the traceback and with it _simulate's
        # frame.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 8)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", 8)
        scenario, _, mc, spec = load_config(None)
        scenario, spec = dataclasses.replace(scenario, m_o=16), dataclasses.replace(spec, points=2)
        geom = SurfaceGeometry(4, 4, 2.0, 2.0)
        points = runs._sweep_points(scenario, geom, spec, (Mode.FIXED,))
        folded = []

        def fold(start, gains):
            folded.append((start, list(gains), threading.current_thread() is threading.main_thread()))
            if len(folded) == 3:
                raise RuntimeError("fold failed")

        run = dataclasses.replace(mc, trials=8 * 100, workers=2)
        with pytest.raises(RuntimeError, match="fold failed") as failed:
            runs._simulate(run, points, tap=([(geom, Mode.FRIS, 16)], fold))
        # The tap's selections come first in the run, the sweep's join them.
        assert folded == [(8 * k, [(geom, Mode.FRIS, 16), (geom, Mode.FIXED, 16)], True) for k in range(3)]
        assert failed.traceback[-1].name == "fold"

    def test_the_tap_reads_a_second_surface(self):
        # The RIS grid of 7 elements is unpaired on the 12x12 surface, so a tap
        # selection on it adds a second surface to the sweep's run.  Its gains,
        # joined across blocks, are those of a run of its own, and the sweep's
        # counts are those of the sweep alone.
        scenario, geom, mc, spec = load_config(None)
        mc, spec = dataclasses.replace(mc, trials=2 * montecarlo.BLOCK_TRIALS + 7), dataclasses.replace(spec, points=3)
        grid = ris_grid_geometry(geom, 7)
        tapped = (grid, Mode.RIS, 7)
        assert _mode_config(Mode.RIS, geom, dataclasses.replace(scenario, m_o=7)) == tapped
        points = runs._sweep_points(scenario, geom, spec, tuple(Mode))
        assert all(tapped not in configs.values() for *_, configs in points)
        blocks = []
        counts = runs._simulate(mc, points, tap=([tapped], lambda start, gains: blocks.append((start, gains[tapped]))))
        assert [start for start, _ in blocks] == [0, montecarlo.BLOCK_TRIALS, 2 * montecarlo.BLOCK_TRIALS]
        [own] = whole_gains(mc, grid, [(Mode.RIS, 7)])
        assert np.array_equal(np.concatenate([g_b for _, (g_b, _) in blocks]), own.g_b)
        assert np.array_equal(np.concatenate([g_w for _, (_, g_w) in blocks]), own.g_w)
        assert counts == runs._simulate(mc, points)

    def test_unknown_mode_rejected(self, small_run):
        scenario, geom, mc, spec, _ = small_run
        with pytest.raises(DomainError):
            run_sweep(scenario, geom, mc, spec, modes=("bogus",))


class TestEmitCsv:
    def test_line_count_and_header(self, small_run, tmp_path):
        *_, result = small_run
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(result.rows)
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_schema_width_constant_with_disabled_modes(self, tmp_path):
        scenario, geom, mc, _ = load_config(None)
        mc = dataclasses.replace(mc, trials=1_000)
        spec = SweepSpec(points=2, start=-50.0, stop=-40.0)
        result = run_sweep(scenario, geom, mc, spec, modes=(Mode.FIXED,))
        path = tmp_path / "fixed_only.csv"
        emit_csv(result, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            assert line.count(",") == len(CSV_COLUMNS) - 1

    def test_byte_determinism(self, small_run, tmp_path):
        scenario, geom, mc, spec, result = small_run
        again = run_sweep(scenario, geom, mc, spec, modes=(Mode.FRIS, Mode.FIXED, Mode.RIS))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, p1)
        emit_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_precision(self, small_run, tmp_path):
        *_, result = small_run
        path = tmp_path / "rt.csv"
        emit_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        idx = CSV_COLUMNS.index("analytic_op")
        for line, row in zip(lines[1:], result.rows):
            assert float(line.split(",")[idx]) == row["analytic_op"]


class TestEmitPlot:
    def test_empty_result_rejected_without_file(self, tmp_path):
        from friscov.runs import SweepResult

        path = tmp_path / "plot.svg"
        with pytest.raises(DomainError):
            emit_plot(SweepResult(variable="p_a_dbm", rows=[]), path)
        assert not path.exists()

    def test_writes_selfcontained_svg(self, small_run, tmp_path):
        *_, result = small_run
        path = tmp_path / "plot.svg"
        emit_plot(result, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "analytic_op" in text and "</svg>" in text

    def test_byte_determinism(self, small_run, tmp_path):
        *_, result = small_run
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(result, p1, log_y=True)
        emit_plot(result, p2, log_y=True)
        assert p1.read_bytes() == p2.read_bytes()


class TestMain:
    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "surface.m_x = 12" in out
        assert "sweep.points = 25" in out

    def test_show_config_with_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario.alpha = 3.0\n")
        assert main(["show-config", "--config", str(path)]) == 0
        assert "scenario.alpha = 3.0" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.points = 3\nsweep.start = -50\nsweep.stop = -40\n")
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--trials", "2000",
                     "--mode", "fixed", "--out", str(out_dir), "--plot"])
        assert code == 0
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "plot.svg").exists()
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 4

    def test_log_y_without_plot_is_a_config_error(self, tmp_path, capsys):
        # --log-y only sets the plot's axis, so alone it would do nothing.
        out_dir = tmp_path / "out"
        assert main(["sweep", "--log-y", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "config error: --log-y sets the plot's axis and needs --plot\n"
        assert not out_dir.exists()

    # Each swept variable is out of its domain at one end of the sweep:
    # m_o off the surface, an infinite power, a negative threshold offset,
    # a power that overflows (as the sweep's end or the scenario's value).
    # A link budget that underflows to 0 or a gain threshold that
    # overflows (in the scenario or at a sweep end), a path loss that
    # overflows, and a point or trial count beyond its bound fail before
    # any simulation too.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config, field", [
        ("sweep.variable = m_o\nsweep.start = 0\nsweep.stop = 16\n", "sweep.start"),
        ("sweep.variable = m_o\nsweep.start = 4\nsweep.stop = 200\n", "sweep.stop"),
        ("sweep.stop = inf\n", "sweep.stop"),
        ("sweep.variable = mu_factor\nsweep.start = -2\nsweep.stop = 3\n", "sweep.start"),
        ("sweep.stop = 5000\n", "sweep.stop"),
        ("scenario.p_a_dbm = 1e6\n", "scenario"),
        ("scenario.alpha = 400\n", "scenario"),
        ("scenario.d_fw = 1e300\n", "scenario"),
        ("scenario.rho0 = 1e-320\n", "scenario"),
        ("sweep.start = -3200\n", "sweep.start"),
        ("scenario.d_af = 1e-300\n", "scenario"),
        ("sweep.start = -3100\n", "sweep.start"),
        ("sweep.points = 1000000000000\n", "sweep.points"),
        ("mc.trials = 1000000000000\n", "mc.trials"),
        ("surface.w_x = 20000\n", "surface"),
        ("surface.m_x = 100000\nsurface.m_z = 100000\n", "surface"),
    ], ids=["m_o-start", "m_o-stop", "p_a_dbm-inf", "mu_factor-negative", "p_a_dbm-overflow", "scenario-overflow",
            "alpha-underflow", "d_fw-underflow", "rho0-underflow", "p_a_dbm-underflow", "d_af-overflow",
            "detection-threshold-overflow", "points-beyond-bound", "trials-beyond-bound", "aperture-beyond-bound",
            "ports-beyond-bound"])
    def test_out_of_domain_sweep_is_a_config_error(self, tmp_path, capsys, config, field):
        cfg = write_config(tmp_path, config)
        with pytest.raises(ConfigError, match=field):
            load_config(cfg)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field '{field}'") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, key, value", [
        ("scenario.p_a_dbm = 1e6\n", "scenario.p_a_dbm", "1000000.0"),
        ("scenario.sigma2_w_dbm = 4000\n", "scenario.sigma2_w_dbm", "4000.0"),
        ("sweep.stop = 5000\n", "sweep.stop", "5000.0"),
    ], ids=["p_a_dbm", "sigma2_w_dbm", "sweep-stop"])
    def test_dbm_overflow_names_key_and_value(self, tmp_path, capsys, config, key, value):
        cfg = write_config(tmp_path, config)
        assert main(["show-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and f"{value} dBm" in err

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-1"), ("--workers", "0")])
    def test_bad_run_flag_is_a_config_error(self, capsys, flag, value):
        assert main(["validate", flag, value]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'mc'")

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfemc.seed = 2\n")
        assert main(["show-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file") and "utf-8" in err and err.count("\n") == 1

    def test_ports_at_their_bound_are_accepted(self, tmp_path, capsys):
        for m_x, code in ((MAX_PORTS, 0), (MAX_PORTS + 1, 2)):
            assert main(["show-config", "--config", str(write_config(tmp_path, f"surface.m_x = {m_x}\n"
                                                                                 "surface.m_z = 1\n"))]) == code
        assert capsys.readouterr().err == (f"config error: field 'surface': a surface holds at most {MAX_PORTS} "
                                           f"ports, got m_x * m_z = {MAX_PORTS + 1}\n")

    def test_sizes_at_their_bounds_are_accepted(self, tmp_path, capsys):
        # show-config builds neither the grid nor the gains.
        cfg = write_config(tmp_path, f"sweep.points = {MAX_SWEEP_POINTS}\nmc.trials = {MAX_TRIALS}\n"
                                     f"mc.workers = {MAX_WORKERS}\n")
        assert main(["show-config", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["validate", "--trials", str(MAX_TRIALS + 1)]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'mc.trials'")
        # Rejected before a pool starts a thread.
        assert main(["validate", "--workers", str(MAX_WORKERS + 1)]) == 2
        assert capsys.readouterr().err.startswith("config error: field 'mc.workers'")

    @pytest.mark.parametrize("m_hat", [145, -1])
    def test_ris_m_hat_out_of_range_is_a_config_error(self, tmp_path, capsys, m_hat):
        cfg = write_config(tmp_path, f"ris.m_hat = {m_hat}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "ris.m_hat" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_out_is_a_config_error(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "file" else blocker / "out"
        assert main(["sweep", "--trials", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # One line and no progress report: it fails before any simulation.
        assert err.startswith("config error: --out") and err.count("\n") == 1
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("variable", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_run_asks_for_one_blas_thread(self, variable):
        # A fresh interpreter whose OpenBLAS runs on two threads: a run of the
        # CLI simulates on one and gives the two back when it ends, whatever
        # count a variable OpenBLAS reads set.
        if montecarlo._openblas("set_num_threads") is None:
            pytest.skip("numpy's wheel bundles no OpenBLAS here")
        script = ("from friscov import montecarlo\n"
                  "from friscov.cli import main\n"
                  "threads = montecarlo._openblas('get_num_threads')\n"
                  "montecarlo._openblas('set_num_threads')(2)\n"
                  "before, during = threads(), []\n"
                  "kernel = montecarlo._panel_gains\n"
                  "def spy(*args):\n"
                  "    during.append(threads())\n"
                  "    return kernel(*args)\n"
                  "montecarlo._panel_gains = spy\n"
                  "code = main(['validate', '--trials', '300'])\n"
                  "print(before, *sorted(set(during)), threads(), code)\n")
        run = fresh_python("-c", script, **({variable: "2"} if variable else {}))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1].split()[:3] == ["2", "1", "2"]

    def test_no_byte_depends_on_the_blas_threads(self, tmp_path):
        # The run pins one BLAS thread, but the closed form runs at the count
        # the environment gives OpenBLAS; one thread or two, the same bytes.
        cfg = write_config(tmp_path, "sweep.points = 3\n")
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            validate = fresh_python("-m", "friscov.cli", "validate", "--trials", "2000", OPENBLAS_NUM_THREADS=threads)
            sweep = fresh_python("-m", "friscov.cli", "sweep", "--config", str(cfg), "--trials", "2048", "--plot",
                                 "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            assert validate.returncode in (0, 1) and "[GATE]" in validate.stdout, validate.stderr
            assert sweep.returncode == 0, sweep.stderr
            outputs[threads] = validate.stdout, (out / "sweep.csv").read_bytes(), (out / "plot.svg").read_bytes()
        assert outputs["1"] == outputs["2"]

    def test_closed_stdout_exits_quietly_with_sigpipe_status(self):
        # As when the reader of ``friscov validate | head -1`` has exited;
        # here it is gone before the first line.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([sys.executable, "-m", "friscov.cli", "validate", "--trials", "500"],
                                 stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (141, b"")

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "scenario.p0 = 1.5\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_worker_count_does_not_change_csv_bytes(self, tmp_path):
        # 9,000 trials: two full blocks and a partial one, so three workers
        # run them in a pool.
        cfg = write_config(tmp_path, "sweep.points = 3\nsweep.start = -50\nsweep.stop = -40\n")
        outputs = []
        for workers, name in ((1, "w1"), (3, "w3")):
            out_dir = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--trials", "9000",
                         "--workers", str(workers), "--out", str(out_dir)]) == 0
            outputs.append((out_dir / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    # sha256 of sweep.csv at seed 1 and 5,000 trials (nine full tiles and
    # a partial one).  The m_o sweep covers RIS points paired with the
    # fluid surface's draws (4, 16) and unpaired grids (7, 10, 13).  The
    # ris.m_hat configs pin a fixed baseline grid: a paired 4x4 sublattice
    # at every power, and an unpaired 10-element grid across the m_o sweep.
    @pytest.mark.parametrize("config, digest", [
        pytest.param("sweep.variable = p_a_dbm\nsweep.start = -55\nsweep.stop = -30\nsweep.points = 4\n",
                     "400f191474bcf9637e960640665dad6447033b1b09fb3067d84b11ebf7a0182b", id="p_a_dbm"),
        pytest.param("sweep.variable = m_o\nsweep.start = 4\nsweep.stop = 16\nsweep.points = 5\n"
                     "scenario.p_a_dbm = -50\n",
                     "0e7d72a394fc456f95f0b8e03c367d2235d0ca770e93afeea571d0294fa0e575", id="m_o"),
        pytest.param("ris.m_hat = 16\nsweep.variable = p_a_dbm\nsweep.start = -55\nsweep.stop = -30\n"
                     "sweep.points = 4\n",
                     "6674dd12dcb7492fc569ada9ea2a2a0ce8975e937d454140730a9b1987c1de74", id="p_a_dbm-ris_m_hat_16"),
        pytest.param("ris.m_hat = 10\nsweep.variable = m_o\nsweep.start = 4\nsweep.stop = 36\n"
                     "sweep.points = 5\n",
                     "98749935b5f2442c1bb0fc5010d9559bf624432d22b5d0bf5a3c45ba0870a46f", id="m_o-ris_m_hat_10"),
    ])
    def test_golden_csv_bytes(self, tmp_path, config, digest):
        cfg = write_config(tmp_path, config + "mc.trials = 5000\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest() == digest

    def test_golden_validate_stdout(self, capsys):
        # sha256 of the validate report at seed 1 and 5,000 trials: every
        # gate config, the fluid m_o = 36 ranking included, in one group.
        # Both mean-gain gates fail here: at 5,000 trials their 2% tolerance
        # is 1.3 standard errors of the mean.  Every gate passes at 20,000
        # trials (test_validate_passes_every_gate).
        assert main(["validate", "--trials", "5000", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a448a53a4e9ec15405e87717ba2e6a5c5dc50faeead0bcbc23c823d1dbf4ae23"
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_validate_passes_every_gate(self, capsys, seed):
        assert main(["validate", "--trials", "20000", "--seed", str(seed)]) == 0
        gates = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[GATE]")]
        assert len(gates) == 8
        assert all(line.endswith("-> PASS") for line in gates), gates

    def test_validate_runs_and_reports(self, capsys):
        # Which gates a short run passes rests on its draws; the exit status
        # follows the printed verdicts either way.
        code = main(["validate", "--trials", "3000"])
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[GATE]")]
        gates = [re.fullmatch(r"\[GATE\] .+: measured=(\S+) tolerance=(\S+) -> (PASS|FAIL)", line) for line in lines]
        assert len(gates) == 8 and all(gates), lines
        assert all(math.isfinite(float(gate[1])) and float(gate[2]) > 0 for gate in gates)
        assert code == (0 if all(gate[3] == "PASS" for gate in gates) else 1)

    @pytest.mark.parametrize("verdicts, code", [((True, False, True), 1), ((True, True, True), 0)],
                             ids=["one-fail", "all-pass"])
    def test_validate_exit_status_follows_the_verdicts(self, monkeypatch, capsys, verdicts, code):
        records = [(f"gate {k}", 0.01 * k, 0.02, passed) for k, passed in enumerate(verdicts)]
        monkeypatch.setattr(runs, "run_validate", lambda *run: records)
        assert main(["validate", "--trials", "1000"]) == code
        out = capsys.readouterr().out
        assert out.count("-> FAIL") == verdicts.count(False) and out.count("-> PASS") == verdicts.count(True)

    def test_dominance_gate_passes_when_both_select_every_port(self):
        # At m_o = ports the fluid surface and the lattice sum the same terms
        # in different orders, so their gains differ only by rounding.
        scenario, geom, mc, spec = load_config(None)
        ports = geom.num_elements
        gates = run_validate(dataclasses.replace(scenario, m_o=ports), geom, dataclasses.replace(mc, trials=300), spec)
        [(label, measured, tolerance, passed)] = [gate for gate in gates if "dominance" in gate[0]]
        assert (measured, tolerance, passed) == (1.0, 1.0, True)
        best, lattice = whole_gains(dataclasses.replace(mc, trials=300), geom, [(Mode.FRIS, ports), (Mode.RIS, ports)])
        assert not np.array_equal(best.g_b, lattice.g_b)
        assert runs._dominating_draws(best.g_b, lattice.g_b, ports) == 300
        # A lattice gain 1e-9 above the best one, relatively, is no rounding.
        assert runs._dominating_draws(best.g_b, lattice.g_b * (1.0 + 1e-9), ports) == 0

    # The m_o sweep runs at -50 dBm, where the closed form and the preset's
    # gains both move with m_o.
    @pytest.mark.parametrize("config", [
        pytest.param("", id="p_a_dbm"),
        pytest.param("sweep.variable = m_o\nsweep.start = 16\nsweep.stop = 36\nsweep.points = 3\n"
                     "scenario.p_a_dbm = -50\n", id="m_o"),
    ])
    def test_gap_gates_read_the_sweep_rows(self, tmp_path, config):
        scenario, geom, mc, spec = load_config(write_config(tmp_path, config + "mc.trials = 2000\n"))
        rows = run_sweep(scenario, geom, mc, spec, modes=(Mode.FIXED,)).rows
        measured = {label: value for label, value, *_ in run_validate(scenario, geom, mc, spec)}
        for metric, event in (("op", "outage"), ("cop", "covertness outage"), ("psuc", "success")):
            gap = max(abs(row[f"analytic_{metric}"] - row[f"fixed_{metric}"]) for row in rows)
            assert measured[f"max |analytic - empirical| {event} over sweep"] == gap

    def test_validate_memory_is_flat_in_blocks(self, monkeypatch):
        # Each block's gate sums, KS share and dominance count are added up as
        # the block arrives, so 800 blocks peak where 100 do.  Blocks of 8
        # trials on a 4x4 surface keep the run short and the per-block
        # results a large share of its memory: one kept per block would add
        # some 300 B each.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 8)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", 8)
        monkeypatch.setattr(runs, "KS_TRIALS", 8)
        scenario, _, mc, spec = load_config(None)
        scenario, spec = dataclasses.replace(scenario, m_o=16), dataclasses.replace(spec, points=2)
        geom = SurfaceGeometry(4, 4, 2.0, 2.0)

        def peak(blocks: int) -> int:
            tracemalloc.start()
            try:
                gates = run_validate(scenario, geom, dataclasses.replace(mc, trials=8 * blocks), spec)
                assert len(gates) == 6
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-call allocations
        few, many = peak(100), peak(800)
        assert many - few <= 8_192, (few, many)

    def test_validate_draws_each_block_once(self, monkeypatch, capsys):
        calls = []

        def counting(mc, selections):
            calls.append((mc, list(selections)))
            return simulate_group(mc, selections)

        monkeypatch.setattr(runs, "simulate_group", counting)
        main(["validate", "--trials", "1000"])
        _, geom, mc, _ = load_config(None)
        [(run, selections)] = calls
        assert run == dataclasses.replace(mc, trials=1000)
        assert len(set(selections)) == len(selections) == 4
        assert set(selections) == {(geom, Mode.FIXED, 16), (geom, Mode.FIXED, 36), (geom, Mode.FRIS, 36),
                                   (geom, Mode.RIS, 36)}


# Lines of ``key = value`` text: schema keys and others, with values that
# are numbers, sweep variables or any text.
_CONFIG_LINES = st.lists(st.tuples(
    st.one_of(st.sampled_from(list(cli._SCHEMA)), st.text(max_size=12)),
    st.one_of(st.integers().map(str), st.floats().map(repr), st.sampled_from(["p_a_dbm", "m_o", "mu_factor"]),
              st.text(max_size=12)),
).map(" = ".join), max_size=6).map("\n".join)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(st.binary(max_size=80), _CONFIG_LINES.map(lambda text: text.encode("utf-8", "surrogatepass"))))
    def test_show_config_exits_0_or_2_without_a_traceback(self, tmp_path, capsys, data):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        code = main(["show-config", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert err.splitlines()[-1].startswith("config error:")
