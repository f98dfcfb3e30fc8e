import dataclasses
import hashlib
import math

import numpy as np
import pytest

from friscov import (
    ConfigError,
    DomainError,
    Mode,
    ScenarioConfig,
    correlation_matrix,
    dbm_to_watt,
    default_fixed_preset,
    estimate_op,
    gamma_moment_match,
    optimal_threshold,
    outage_probability,
    simulate_group,
)
from friscov.cli import (
    CSV_COLUMNS,
    SweepSpec,
    emit_csv,
    emit_plot,
    load_config,
    main,
    run_sweep,
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults_without_a_file(self):
        scenario, geom, mc, spec = load_config(None)
        assert geom.wavelength == 0.125
        assert (geom.m_x, geom.m_z) == (12, 12)
        assert scenario.d_af == 50.0 and scenario.d_fb == 100.0 and scenario.d_fw == 100.0
        assert scenario.alpha == 2.1 and scenario.r_b == 0.1
        assert scenario.sigma2_b == pytest.approx(1e-12, rel=1e-12)
        assert scenario.p0 == scenario.p1 == 0.5
        assert mc.trials == 100_000 and mc.m_o == 36
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

    def test_prior_sum_violation_names_constraint(self, tmp_path):
        path = write_config(tmp_path, "scenario.p0 = 0.6\nscenario.p1 = 0.5\n")
        with pytest.raises(ConfigError, match=r"p0 \+ p1"):
            load_config(path)

    def test_m_o_exceeding_port_count(self, tmp_path):
        path = write_config(tmp_path, "selection.m_o = 200\n")
        with pytest.raises(ConfigError, match="selection.m_o"):
            load_config(path)


class TestSweepSpec:
    def test_values_linear_in_db(self):
        spec = SweepSpec(variable="p_a_dbm", start=-60.0, stop=-10.0, points=11)
        values = spec.values()
        assert len(values) == 11
        assert values[0] == -60.0 and values[-1] == -10.0

    def test_m_o_values_are_integers(self):
        spec = SweepSpec(variable="m_o", start=16.0, stop=36.0, points=5)
        assert all(v == int(v) for v in spec.values())

    @pytest.mark.parametrize("kwargs", [
        dict(points=1), dict(start=-10.0, stop=-10.0), dict(variable="bogus"), dict(stop=math.inf),
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
        ports = default_fixed_preset(geom, mc.m_o)
        corr_fit = gamma_moment_match(correlation_matrix(geom)[np.ix_(ports, ports)])
        mc_fixed = dataclasses.replace(mc, mode=Mode.FIXED)
        gains = simulate_group([mc_fixed], geom)[0]
        for row, value in zip(result.rows, spec.values()):
            cfg = dataclasses.replace(scenario, p_a=dbm_to_watt(value))
            assert row["swept_value"] == value
            assert row["zeta"] == optimal_threshold(cfg)
            assert row["analytic_op"] == outage_probability(corr_fit, cfg)
            assert row["fixed_op"] == estimate_op(gains, cfg).value

    def test_probability_cells_in_unit_interval(self, small_run):
        *_, result = small_run
        for row in result.rows:
            for name, value in row.items():
                if name in ("swept_value", "zeta") or value is None:
                    continue
                assert 0.0 <= value <= 1.0

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

    def test_progress_reports_each_group(self, capsys):
        # m_o = 4 pairs its RIS grid with the fluid surface's draws; m_o = 7
        # needs a grid of its own, so the sweep runs two groups.
        scenario, geom, mc, _ = load_config(None)
        mc = dataclasses.replace(mc, trials=1_000)
        spec = SweepSpec(variable="m_o", start=4.0, stop=7.0, points=2)
        run_sweep(scenario, geom, mc, spec, modes=(Mode.FRIS, Mode.RIS), progress=True)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines] == ["[1/2]", "[2/2]"]
        assert lines[0].endswith(f"3 Monte Carlo configs on the {geom.m_x}x{geom.m_z} surface done")

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
        from friscov.cli import SweepResult

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

    # Each swept variable is out of its domain at one end of the sweep:
    # m_o off the surface, an infinite power, a negative threshold offset,
    # a power that overflows (as the sweep's end or the scenario's value).
    # A link budget that underflows to 0 or a gain threshold that
    # overflows (in the scenario or at a sweep end), a path loss that
    # overflows, and priors that sum to just over 1 fail before any
    # simulation too.
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
        ("scenario.p1 = 0.5000000000001\nsweep.points = 3\nmc.trials = 2000\n", "scenario"),
        ("scenario.p1 = 0.5000000000001\nsweep.start = 10\nsweep.stop = 20\n", "scenario"),
    ], ids=["m_o-start", "m_o-stop", "p_a_dbm-inf", "mu_factor-negative", "p_a_dbm-overflow", "scenario-overflow",
            "alpha-underflow", "d_fw-underflow", "rho0-underflow", "p_a_dbm-underflow", "d_af-overflow",
            "detection-threshold-overflow", "prior-sum-above-one", "prior-sum-above-one-high-power"])
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

    @pytest.mark.parametrize("m_hat", [145, -1])
    def test_ris_m_hat_out_of_range_is_a_config_error(self, tmp_path, capsys, m_hat):
        cfg = write_config(tmp_path, f"ris.m_hat = {m_hat}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "ris.m_hat" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "scenario.p0 = 0.9\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_worker_count_does_not_change_csv_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.points = 3\nsweep.start = -50\nsweep.stop = -40\n")
        outputs = []
        for workers, name in ((1, "w1"), (3, "w3")):
            out_dir = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--trials", "3000",
                         "--workers", str(workers), "--out", str(out_dir)]) == 0
            outputs.append((out_dir / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    # sha256 of sweep.csv at seed 1 and 5,000 trials (one full block and
    # a partial one).  The m_o sweep covers RIS points paired with the
    # fluid surface's draws (4, 16) and unpaired grids (7, 10, 13).  The
    # ris.m_hat configs pin a fixed baseline grid: a paired 4x4 sublattice
    # at every power, and an unpaired 10-element grid across the m_o sweep.
    @pytest.mark.parametrize("config, digest", [
        ("sweep.variable = p_a_dbm\nsweep.start = -55\nsweep.stop = -30\nsweep.points = 4\n",
         "123d8b3fcefec8375aafafe23d6e1b7ef999cd5982c0e2f6419af0ce1ebf86c9"),
        ("sweep.variable = m_o\nsweep.start = 4\nsweep.stop = 16\nsweep.points = 5\n"
         "scenario.p_a_dbm = -50\n",
         "971ef533183b8ab9624a744ff77e80815464667ce160631537ce94aa3be90d86"),
        ("ris.m_hat = 16\nsweep.variable = p_a_dbm\nsweep.start = -55\nsweep.stop = -30\n"
         "sweep.points = 4\n",
         "141afd78cc87ef454241dabd4f22fe6ed9b11bfa7db7bcd7b7b19e1a95991264"),
        ("ris.m_hat = 10\nsweep.variable = m_o\nsweep.start = 4\nsweep.stop = 36\n"
         "sweep.points = 5\n",
         "a18e03574117670a040b9091fdbe9bea8f0b30176877d5c97187870c27f5dfc9"),
    ])
    def test_golden_csv_bytes(self, tmp_path, config, digest):
        cfg = write_config(tmp_path, config + "mc.trials = 5000\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest() == digest

    def test_golden_validate_stdout(self, capsys):
        # sha256 of the validate report at seed 1 and 5,000 trials: every
        # gate config, the fluid m_o = 36 ranking included, in one group.
        assert main(["validate", "--trials", "5000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5ad51a103dd0dff0a1e6520041813a64cad6ef7a87344edbdc1130f968070881"
        )

    def test_validate_runs_and_reports(self, capsys):
        assert main(["validate", "--trials", "3000"]) == 0
        out = capsys.readouterr().out
        assert "[GATE]" in out
        assert "PASS" in out
