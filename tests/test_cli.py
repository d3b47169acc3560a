import json
import math

import numpy as np
import pytest

from ampbound import analytic, cli
from ampbound.cli import ScanConfig, main, scan_csv
from conftest import MALFORMED_PUMPS, NON_FINITE_PUMPS, run_cli, run_python
from map_reference import reference_csv


def strict_json(text):
    """Parse JSON that must not hold the non-standard NaN or Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_violated_point_exits_2(self, capsys):
        code, out = run(capsys, "check", "--nbar", "1", "--nq", "1",
                        "--omega", str(math.log(2.0)), "--T", "1")
        assert code == 2
        values = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert float(values["ratio"]) == pytest.approx(1.37744, abs=1e-4)
        assert values["satisfied"] == "false"

    def test_satisfied_point_exits_0(self, capsys):
        code, out = run(capsys, "check", "--nbar", "0.1", "--nq", "10",
                        "--omega", str(math.log(11.0)), "--T", "1")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert float(values["ratio"]) == pytest.approx(0.13049, abs=1e-4)

    def test_zero_squeeze(self, capsys):
        code, out = run(capsys, "check", "--nbar", "1", "--r", "0",
                        "--omega", "1", "--T", "1")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert float(values["ratio"]) == 0.0

    def test_json_payload(self, capsys):
        code, out = run(capsys, "--json", "check", "--from-thermal", "--r", "1",
                        "--omega", "1", "--T", "1")
        payload = json.loads(out)
        assert code in (0, 2)
        assert payload["delta_S_bits"] == pytest.approx(
            payload["delta_S_nats"] / math.log(2.0), rel=1e-12)

    def test_usage_conflicts_exit_1(self, capsys):
        assert run(capsys, "check", "--nbar", "1", "--omega", "1", "--T", "1")[0] == 1
        assert run(capsys, "check", "--nbar", "1", "--nq", "1", "--r", "1",
                   "--omega", "1", "--T", "1")[0] == 1
        assert run(capsys, "check", "--nbar", "1", "--from-thermal", "--nq", "1",
                   "--omega", "1", "--T", "1")[0] == 1

    def test_argparse_usage_remapped_to_1(self, capsys):
        assert main(["check", "--nbar"]) == 1

    def test_bad_thermal_domain_exits_1(self, capsys):
        assert run(capsys, "check", "--nbar", "1", "--nq", "1",
                   "--omega", "1", "--T", "1", "--mu", "2")[0] == 1

    @pytest.mark.parametrize("omega, mu", [("-1", "-2"), ("0", "-1")])
    @pytest.mark.parametrize("occupation", [["--nbar", "1"], ["--from-thermal"]])
    def test_non_positive_frequency_exits_1(self, capsys, omega, mu, occupation):
        code = main(["check", *occupation, "--nq", "1", f"--omega={omega}",
                     f"--mu={mu}", "--T", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frequency must be positive" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--nbar", "nan"), ("--nq", "inf"), ("--T", "inf"), ("--T", "nan"),
        ("--omega", "nan"), ("--mu", "-inf"), ("--nbar", "1e300")])
    def test_non_finite_input_exits_1(self, capsys, flag, value):
        # the last case overflows N_bar = n_q (n_bar + 1) with --nq 1e10
        args = {"--nbar": "1", "--nq": "1e10", "--omega": "1", "--T": "1",
                flag: value}
        assert main(["check", *[f"{k}={v}" for k, v in args.items()]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


    def test_small_total_reports_violation(self, capsys):
        # N_bar = 2e-20, where the written temperature form cancels to -262144
        code, out = run(capsys, "check", "--nbar", "1", "--nq", "1e-20",
                        "--omega", "1", "--T", "1")
        assert code == 2
        values = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert float(values["ratio"]) == pytest.approx(46.358554679320974, rel=1e-14)
        assert values["satisfied"] == "false"

    @pytest.mark.parametrize("args, message", [
        # delta_Q = omega * N_bar overflows
        (["--nbar", "1", "--nq", "1", "--omega", "1e308"], "overflows"),
        # the ratio overflows: T/(omega - mu) = 1e310
        (["--nbar", "1", "--nq", "1", "--omega", "1e-300", "--T", "1e10"], "not finite"),
        # a subnormal N_bar, where 1/N_bar overflows
        (["--nbar", "0", "--nq", "1e-310", "--omega", "1"], "at least"),
    ])
    def test_overflow_and_subnormal_exit_1(self, capsys, args, message):
        assert main(["check", "--T", "1", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestMap:
    CONFIG = dict(plane="nbar_vs_nq",
                  x_range=(0.1, 10.0, 3, "log10"),
                  y_range=(0.1, 10.0, 3, "log10"))

    def test_row_major_y_fastest(self):
        text = scan_csv(ScanConfig(**self.CONFIG))
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        assert xs == sorted(xs)
        assert ys[:3] == sorted(ys[:3])
        assert xs[0] == xs[1] == xs[2]

    def test_deterministic(self):
        a = scan_csv(ScanConfig(**self.CONFIG))
        b = scan_csv(ScanConfig(**self.CONFIG))
        assert a == b

    def test_zero_total_cell_empty_log(self):
        config = ScanConfig(plane="nbar_vs_r",
                            x_range=(0.5, 2.0, 2, "linear"),
                            y_range=(0.0, 1.0, 2, "linear"))
        rows = [line.split(",") for line in scan_csv(config).strip().split("\n")[1:]]
        zero_rows = [r for r in rows if float(r[1]) == 0.0]
        assert zero_rows
        for r in zero_rows:
            assert r[2] == ""
            assert r[3] == "true"

    @staticmethod
    def cell_ratio(plane, x, y, mu=0.0):
        return cli.ratio_grid(plane, np.array([x]), np.array([y]), mu)[0, 0]

    def test_boundary_cell_near_log10_zero(self):
        # the satisfied/violated boundary at n_bar = 100 sits near n_q = 7.6
        ratio = self.cell_ratio("nbar_vs_nq", 100.0, 7.606921069403123)
        assert math.log10(ratio) == pytest.approx(0.0, abs=1e-10)

    def test_deep_amplification_satisfied(self):
        ratio = self.cell_ratio("nbar_vs_nq", 0.01, 100.0)
        assert ratio < 1.0

    def test_grid_shape(self):
        ratios = cli.ratio_grid("omegaT_vs_r", np.linspace(1.0, 2.0, 3),
                                np.linspace(0.0, 1.0, 4), 0.5)
        assert ratios.shape == (3, 4)
        assert np.all(ratios[:, 0] == 0.0)

    @pytest.mark.parametrize("plane, x_range, y_range, mu", [
        # N_bar = 0 rows, mu < 0
        ("N_vs_omegaT", (0.0, 1e3, 21, "linear"), (0.1, 30.0, 15, "log10"), -0.5),
        ("N_vs_omegaT", (1e-9, 1e9, 37, "log10"), (0.51, 30.0, 15, "log10"), 0.5),
        # n_bar = 0 rows and N_bar = 0 cells
        ("nbar_vs_nq", (0.0, 2.0, 21, "linear"), (0.0, 3.0, 21, "linear"), 0.0),
        # the cell whose log10 ratio is about 0
        ("nbar_vs_nq", (100.0, 200.0, 2, "linear"),
         (7.606921069403123, 8.0, 2, "linear"), 0.0),
        ("omegaT_vs_nq", (0.6, 20.0, 31, "log10"), (1e-3, 1e3, 31, "log10"), 0.5),
        # negative r and r = 0
        ("nbar_vs_r", (0.0, 50.0, 11, "linear"), (-5.0, 5.0, 41, "linear"), 0.0),
        # r = -1.11, where np.sinh(r) ** 2 of an array rounds differently
        ("omegaT_vs_r", (0.6, 20.0, 11, "log10"), (-3.0, 3.0, 201, "linear"), 0.5),
    ])
    def test_matches_cell_by_cell_reference(self, plane, x_range, y_range, mu):
        config = ScanConfig(plane=plane, x_range=x_range, y_range=y_range, mu=mu)
        assert scan_csv(config) == reference_csv(config)

    @pytest.mark.parametrize("flag, value", [
        ("--x-min", "nan"), ("--x-max", "inf"), ("--y-min", "-inf"),
        ("--y-max", "nan"), ("--mu", "nan"), ("--mu", "inf")])
    def test_non_finite_input_exits_1(self, capsys, flag, value):
        args = {"--plane": "nbar_vs_nq", "--x-min": "0", "--x-max": "1",
                "--x-points": "2", "--x-scale": "linear", "--y-min": "0.1",
                "--y-max": "1", "--y-points": "2", "--y-scale": "linear",
                flag: value}
        assert main(["map", *[f"{k}={v}" for k, v in args.items()]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("plane, y_min", [("nbar_vs_nq", "0.1"), ("nbar_vs_r", "0")])
    def test_negative_nbar_exits_1(self, tmp_path, capsys, plane, y_min):
        out = tmp_path / "grid.csv"
        code = main(["map", "--plane", plane, "--x-min", "-0.5", "--x-max", "1",
                     "--x-points", "2", "--x-scale", "linear", "--y-min", y_min,
                     "--y-max", "1", "--y-points", "2", "--y-scale", "linear",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "n_bar must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("plane, x_range, y_range, message", [
        ("N_vs_omegaT", ("1e-320", "1e-300"), ("1", "2"), "N_bar must be at least"),
        ("nbar_vs_nq", ("1", "2"), ("1e-320", "1e-310"), "N_bar must be at least"),
        ("nbar_vs_nq", ("1e-320", "1e-310"), ("1", "2"), "n_bar must be at least"),
        # N_bar = n_q (n_bar + 1) overflows
        ("nbar_vs_nq", ("1e200", "1e201"), ("1e200", "1e201"), "not finite"),
    ])
    def test_subnormal_or_overflowing_cells_exit_1(self, tmp_path, capsys, plane,
                                                   x_range, y_range, message):
        out = tmp_path / "grid.csv"
        with np.errstate(over="ignore"):
            code = main(["map", "--plane", plane, "--x-min", x_range[0],
                         "--x-max", x_range[1], "--x-points", "2", "--y-min", y_range[0],
                         "--y-max", y_range[1], "--y-points", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("plane, y_max, y_scale", [
        ("nbar_vs_nq", "1e201", "log10"), ("omegaT_vs_nq", "1e300", "log10"),
        ("omegaT_vs_r", "400", "linear"), ("nbar_vs_r", "400", "linear")])
    def test_overflowing_n_bar_named_without_warning(self, tmp_path, plane, y_max, y_scale):
        # N_bar = n_q (n_bar + 1) overflows; numpy's overflow warning named
        # no input and the message blamed the ratio
        out = tmp_path / "grid.csv"
        x_min = "1e200" if plane == "nbar_vs_nq" else "1e-10"
        result = run_cli("map", "--plane", plane, "--x-min", x_min, "--x-max", "1e201",
                         "--x-points", "2", "--y-min", "1", "--y-max", y_max,
                         "--y-points", "2", "--y-scale", y_scale, "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error: N_bar = n_q (n_bar + 1)")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_temperature_and_occupation_planes_agree(self):
        # omegaT_vs_nq and nbar_vs_nq at n_bar = 1/expm1(omega/T) evaluate
        # the same cells, down to N_bar = 1e-20
        xs = np.logspace(math.log10(0.05), math.log10(20.0), 201)
        nqs = np.logspace(-20.0, 2.0, 221)
        by_temperature = cli.ratio_grid("omegaT_vs_nq", xs, nqs, 0.0)
        by_occupation = cli.ratio_grid("nbar_vs_nq", 1.0 / np.expm1(xs), nqs, 0.0)
        rel = np.abs(by_temperature - by_occupation) / by_occupation
        assert rel.max() <= 1e-14
        assert np.array_equal(by_temperature <= 1.0, by_occupation <= 1.0)

    def test_planes_cover_negative_r(self):
        config = ScanConfig(plane="omegaT_vs_r",
                            x_range=(0.5, 2.0, 2, "log10"),
                            y_range=(-1.0, 1.0, 5, "linear"))
        rows = [line.split(",") for line in scan_csv(config).strip().split("\n")[1:]]
        # amplification is even in r
        by_xy = {(r[0], float(r[1])): r[2] for r in rows}
        for (x, y), val in by_xy.items():
            assert by_xy[(x, -y)] == val

    def test_log_scale_requires_positive(self):
        config = ScanConfig(plane="nbar_vs_r",
                            x_range=(0.1, 1.0, 2, "log10"),
                            y_range=(-1.0, 1.0, 2, "log10"))
        with pytest.raises(cli.CliError):
            scan_csv(config)

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _ = run(capsys, "map", "--plane", "nbar_vs_nq",
                      "--x-min", "0.1", "--x-max", "10", "--x-points", "3",
                      "--y-min", "0.1", "--y-max", "10", "--y-points", "3",
                      "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("x,y,log10_ratio,satisfied\n")

    def test_config_file(self, tmp_path, capsys):
        cfg = {"plane": "nbar_vs_nq",
               "x": {"min": 0.1, "max": 10.0, "points": 3, "scale": "log10"},
               "y": {"min": 0.1, "max": 10.0, "points": 3, "scale": "log10"},
               "mu": 0.0,
               "output_path": str(tmp_path / "grid.csv")}
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(cfg))
        assert main(["map", "--config", str(path)]) == 0
        assert (tmp_path / "grid.csv").exists()


class TestVerify:
    def test_trivial_point_passes(self, capsys):
        code, out = run(capsys, "verify", "--point", "0,0")
        assert code == 0
        report = json.loads(out)
        assert report["pass"]

    def test_moderate_point(self, capsys):
        code, out = run(capsys, "verify", "--point", "1,0.8",
                        "--trunc-tolerance", "1e-10")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]) < 1e-8

    def test_purity_discrepancy_reported_not_gating(self, capsys):
        r = math.asinh(1.0)
        code, out = run(capsys, "verify", "--point", f"0,{r}")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["purity_formula"] == pytest.approx(4.0 / 9.0, rel=1e-10)
        assert rec["purity_oracle"] == pytest.approx(1.0, abs=1e-10)

    def test_bad_point_syntax(self, capsys):
        assert run(capsys, "verify", "--point", "1;2")[0] == 1

    def test_needs_points(self, capsys):
        assert run(capsys, "verify")[0] == 1

    @pytest.mark.parametrize("point", ["nan,0.3", "1,inf", "-inf,0.3"])
    def test_non_finite_point_exits_1(self, capsys, point):
        assert main(["verify", f"--point={point}"]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_point_recorded_per_point(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--point", "0.5,0.3", "--point", "1,-0.5",
                     "--out", str(out)])
        assert code == 2
        good, bad = json.loads(out.read_text())["records"]
        assert good["pass"]
        assert bad == {"n_bar": 1.0, "r": -0.5, "error": bad["error"]}
        assert "nonnegative" in bad["error"]

    @pytest.mark.parametrize("flag, value", [
        ("--tolerance", "nan"), ("--tolerance", "-1"), ("--omega", "nan"),
        ("--omega", "inf"), ("--omega", "-1"), ("--trunc-tolerance", "nan"),
        ("--trunc-tolerance", "1")])
    def test_bad_global_option_exits_1(self, capsys, flag, value):
        # a usage error, not a failing verification
        assert main(["verify", "--point", "0.5,0.3", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err

    def test_large_omega_heat_from_particle_flow(self, capsys):
        # omega (n + 1/2) of the final state would overflow; omega * delta_N
        # does not
        code, out = run(capsys, "verify", "--point", "1,0.8", "--omega", "1e308")
        assert code == 0
        rec = strict_json(out)["records"][0]
        assert rec["pass"]
        assert rec["delta_Q_oracle"] == 1e308 * rec["delta_N_oracle"]

    def test_overflowing_heat_recorded_per_point(self, capsys):
        code, out = run(capsys, "verify", "--point", "1,2", "--point", "1,0.8",
                        "--omega", "1e308")
        assert code == 2
        bad, good = strict_json(out)["records"]
        assert bad == {"n_bar": 1.0, "r": 2.0, "error": bad["error"]}
        assert "overflows" in bad["error"]
        assert good["pass"]

    @pytest.mark.parametrize("point", [
        # a 2.8e7-sector thermal cutoff, a 20 TiB one, a tail ratio that
        # rounds to 1 and an N_bar that overflows
        "1e6,0.5", "1e11,0.5", "1e17,0.5", "1e300,1", "1,400"])
    def test_unreachable_point_recorded_and_sweep_goes_on(self, tmp_path, capsys, point):
        out = tmp_path / "report.json"
        code = main(["verify", "--point", "1,0.8", "--point", point, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ""
        good, bad = strict_json(out.read_text())["records"]
        assert good["pass"]
        assert (bad["n_bar"], bad["r"]) == tuple(float(v) for v in point.split(","))
        assert set(bad) == {"n_bar", "r", "error"}
        assert "budget" in bad["error"]

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_removed_flags_rejected(self, capsys, flag):
        assert run(capsys, flag, "1", "verify", "--point", "0,0")[0] == 1
        assert run(capsys, "verify", "--point", "0,0", flag, "1")[0] == 1


class TestSpectrum:
    def test_silent_pump_rows(self, pump_file, capsys):
        path = pump_file({"kind": "constant", "q0": 0.0})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1",
                        "--k-min", "0.5", "--k-max", "2", "--k-points", "3",
                        "--tau-in", "0", "--tau-fin", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(r[-2] == "true" for r in rows)
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_graviton_doubles_scalar_columns(self, pump_file, capsys):
        path = pump_file({"kind": "de_sitter"})
        argv = ["spectrum", "--pump", path, "--T", "1",
                "--k-min", "0.5", "--k-max", "2", "--k-points", "3",
                "--tau-in", "-20", "--tau-fin", "-0.5"]
        _, scalar = run(capsys, *argv)
        _, tensor = run(capsys, *argv, "--graviton")
        s_rows = [line.split(",") for line in scalar.strip().split("\n")[1:]]
        t_rows = [line.split(",") for line in tensor.strip().split("\n")[1:]]
        for s, t in zip(s_rows, t_rows):
            assert float(t[5]) == 2.0 * float(s[5])
            assert float(t[6]) == 2.0 * float(s[6])
            assert float(t[7]) == 2.0 * float(s[7])
            assert t[8] == s[8]  # intensive ratio unchanged

    def test_rows_match_check_command(self, pump_file, capsys):
        # cross-command consistency on a constant resonance-dominated pump
        path = pump_file({"kind": "constant", "q0": 0.5, "theta_in": -math.pi / 2})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1",
                        "--k-min", "0.01", "--k-max", "0.02", "--k-points", "2",
                        "--k-scale", "linear", "--tau-in", "0", "--tau-fin", "2")
        assert code == 0
        header, row = out.strip().split("\n")[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        code2, out2 = run(capsys, "--json", "check",
                          "--nbar", fields["n_bar_k"], "--r", fields["r_k"],
                          "--omega", fields["k"], "--T", "1")
        payload = json.loads(out2)
        assert payload["ratio"] == pytest.approx(float(fields["ratio_k"]), rel=1e-10)

    @pytest.mark.parametrize("flag, value", [("--k-min", "nan"), ("--k-max", "inf")])
    def test_non_finite_k_exits_1(self, pump_file, capsys, flag, value):
        path = pump_file({"kind": "constant", "q0": 0.0})
        args = {"--pump": path, "--T": "1", "--k-min": "0.5", "--k-max": "2",
                "--k-points": "2", "--k-scale": "linear", "--tau-in": "0",
                "--tau-fin": "1", flag: value}
        assert main(["spectrum", *[f"{k}={v}" for k, v in args.items()]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_bath_is_t_and_mu_only(self, pump_file, capsys):
        # every omega_k lies above mu, so no mode is rejected
        path = pump_file({"kind": "constant", "q0": 0.0})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1", "--mu", "1.5",
                        "--k-min", "2", "--k-max", "4", "--k-points", "3",
                        "--tau-in", "0", "--tau-fin", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        assert all(r[-1] == "" for r in rows)

    def test_removed_thermal_omega_rejected(self, pump_file, capsys):
        path = pump_file({"kind": "constant", "q0": 0.0})
        assert run(capsys, "spectrum", "--pump", path, "--T", "1", "--thermal-omega", "5",
                   "--k-min", "1", "--k-max", "2", "--tau-in", "0", "--tau-fin", "1")[0] == 1

    def test_sqrt_k_over_2_convention(self, pump_file, capsys):
        path = pump_file({"kind": "constant", "q0": 0.0})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "2", "--mu", "0.3",
                        "--omega-convention", "sqrt_k_over_2", "--k-min", "1",
                        "--k-max", "8", "--k-points", "4", "--tau-in", "0",
                        "--tau-fin", "1")
        assert code == 0
        header, *rows = out.strip().split("\n")
        for row in rows:
            fields = dict(zip(header.split(","), row.split(",")))
            omega_k = math.sqrt(float(fields["k"]) / 2.0)
            spec = analytic.ThermalSpec(T=2.0, omega=omega_k, mu=0.3)
            assert float(fields["n_bar_k"]) == analytic.nbar_from_thermal(spec)
            assert float(fields["n_bar_k"]) == pytest.approx(
                1.0 / math.expm1((omega_k - 0.3) / 2.0), rel=1e-12)

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "-1"), ("--T", "nan"), ("--T", "0"), ("--mu", "inf"),
        ("--tau-fin", "-1")])
    def test_bad_bath_or_span_exits_1(self, pump_file, capsys, flag, value):
        path = pump_file({"kind": "constant", "q0": 0.5})
        args = {"--pump": path, "--T": "1", "--k-min": "0.5", "--k-max": "2",
                "--k-points": "2", "--tau-in": "0", "--tau-fin": "1", flag: value}
        assert main(["spectrum", *[f"{k}={v}" for k, v in args.items()]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"), ("--tau-in", "nan"),
        ("--tau-fin", "nan"), ("--tau-fin", "inf")])
    def test_unsolvable_span_exits_1_without_solving(self, pump_file, tmp_path, flag, value):
        # each of these would keep DOP853 stepping forever, so it must be
        # rejected before any mode is solved
        path = pump_file({"kind": "constant", "q0": 0.5})
        out = tmp_path / "spectrum.csv"
        args = {"--pump": path, "--T": "1", "--k-min": "0.5", "--k-max": "2",
                "--k-points": "2", "--tau-in": "0", "--tau-fin": "1",
                "--out": str(out), flag: value}
        result = run_cli("spectrum", *[f"{k}={v}" for k, v in args.items()])
        assert result.returncode == 1
        assert "must be" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("spec", NON_FINITE_PUMPS + [m[0] for m in MALFORMED_PUMPS])
    def test_bad_pump_config_exits_1_before_solving(self, pump_file, tmp_path, spec):
        # a non-finite pump number once kept DOP853 stepping forever, and a
        # malformed config ended in a traceback
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", pump_file(spec), "--T", "1",
                         "--k-min", "0.1", "--k-max", "1", "--k-points", "2",
                         "--tau-in", "-50", "--tau-fin", "-0.1", "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "pump" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_huge_pump_error_rows_without_warnings(self, pump_file, tmp_path):
        path = pump_file({"kind": "constant", "q0": 1e300})
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", path, "--T", "1", "--k-min", "0.1",
                         "--k-max", "1", "--k-points", "2", "--tau-in", "-50",
                         "--tau-fin", "-0.1", "--out", str(out))
        assert result.returncode == 0
        assert result.stderr == ""
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith("less than spacing between numbers.") for row in rows)

    def test_singular_pump_isolated_per_mode(self, pump_file, capsys):
        path = pump_file({"kind": "de_sitter"})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1",
                        "--k-min", "0.5", "--k-max", "2", "--k-points", "2",
                        "--tau-in", "-1", "--tau-fin", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(r[-1] != "" for r in rows)


def test_import_leaves_scipy_stats_out(tmp_path):
    # every subcommand pays the package import before it starts, and check
    # and map need only numpy: no scipy module may load for them, neither
    # on import nor while they run; verify needs scipy.special alone, so the
    # expm-checked reference evolution stays out of the package
    out = str(tmp_path / "out.txt")
    code = f"""
import json, sys
import ampbound.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = [scipy_modules()]
cli.main(["map", "--plane", "nbar_vs_r", "--x-min", "0.1", "--x-max", "1",
          "--x-points", "3", "--y-min", "0", "--y-max", "1", "--y-points", "3",
          "--y-scale", "linear", "--out", {out!r}])
loaded.append(scipy_modules())
cli.main(["check", "--from-thermal", "--r", "1", "--omega", "1", "--T", "1",
          "--out", {out!r}])
loaded.append(scipy_modules())
cli.main(["verify", "--point", "1,0.8", "--out", {out!r}])
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    *numpy_only, after_verify = json.loads(result.stdout)
    assert numpy_only == [[], [], []]
    assert "scipy.special" in after_verify
    assert not [m for m in after_verify
                if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "integrate"],
                                        ["scipy", "stats"])]
