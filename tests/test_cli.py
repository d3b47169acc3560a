import contextlib
import errno
import functools
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampbound import analytic, cli, dynamics, field_modes, fock_oracle, printer
from ampbound.cli import ScanConfig, build_parser, main, scan_csv
from conftest import (
    CHILD_TIMEOUT_S, MALFORMED_PUMPS, NON_FINITE_PUMPS, SRC, run_cli, run_python)
from map_reference import ratio_at, ratio_grid, reference_csv


def strict_json(text):
    """Parse JSON that must not hold the non-standard NaN or Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# a well-formed map config, edited by the malformed-config tests
SCAN = {"plane": "nbar_vs_nq",
        "x": {"min": 0.1, "max": 10.0, "points": 3},
        "y": {"min": 0.1, "max": 10.0, "points": 3}}


def byte_stdout():
    """A stand-in for ``sys.stdout`` with a byte layer, as the real one has."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8")


def written(stream) -> str:
    """Everything written to a :func:`byte_stdout`, text and bytes, decoded."""
    stream.flush()
    return stream.buffer.getvalue().decode()


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
        # a subnormal ratio, 2 ln 2 / 1.7e308
        (["--nbar", "0", "--nq", "1", "--omega", "1.7e308"], "ratio underflows"),
    ])
    def test_overflow_and_subnormal_exit_1(self, capsys, args, message):
        assert main(["check", "--T", "1", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    def test_overflowing_squeeze_prints_one_error_line(self):
        # sinh(r)**2 overflows at r = 400 and sinh(r) itself at r = 800;
        # numpy's warnings once preceded the error line
        for r in ("400", "800"):
            result = run_cli("check", "--nbar", "1", "--r", r, "--omega", "1", "--T", "1")
            assert result.returncode == 1
            assert result.stdout == ""
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert "must be finite" in result.stderr

    def test_overflowing_beta_prints_one_error_line(self):
        # (omega - mu)/T overflows; numpy's warning once preceded a false
        # "ratio = 0, satisfied = true" and exit 0
        result = run_cli("check", "--nbar", "1", "--nq", "1", "--omega", "1e300", "--T", "1e-10")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "ratio underflows" in result.stderr

    def test_degenerate_thermal_occupation_prints_one_error_line(self):
        # (omega - mu)/T rounds to 0 at T = 1e308 and to a subnormal at
        # T = 1e303, so n_bar is infinite; numpy's divide or overflow
        # warning once preceded the error line
        for T in ("1e308", "1e303"):
            result = run_cli("check", "--omega", "1e-20", "--T", T, "--from-thermal",
                             "--nq", "1e-3")
            assert result.returncode == 1
            assert result.stdout == ""
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert "n_bar=inf" in result.stderr

    @pytest.mark.parametrize("argv", [
        ["map", "--json", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2",
         "--y-min", "1", "--y-max", "2"],
        ["--json", "map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2",
         "--y-min", "1", "--y-max", "2"],
        ["verify", "--point", "1,0.5", "--json"],
        ["--json", "verify", "--point", "1,0.5"],
        ["spectrum", "--json", "--pump", "pump.json", "--T", "1", "--k-min", "1",
         "--k-max", "2", "--tau-in", "0", "--tau-fin", "1"],
        ["--json", "spectrum", "--pump", "pump.json", "--T", "1", "--k-min", "1",
         "--k-max", "2", "--tau-in", "0", "--tau-fin", "1"],
    ])
    def test_json_flag_rejected_outside_check(self, tmp_path, capsys, argv):
        # only check has a JSON form; elsewhere the flag used to be ignored
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--json" in captured.err
        assert not out.exists()

    def test_json_flag_accepted_in_either_position_for_check(self, capsys):
        argv = ["--nbar", "1", "--nq", "1", "--omega", "1", "--T", "1"]
        root = run(capsys, "--json", "check", *argv)
        sub = run(capsys, "check", *argv, "--json")
        assert root == sub and json.loads(root[1])["satisfied"] is True


@functools.cache
def streamed_plane(x_points):
    """Chunks, characters and tracemalloc peak of a ``nbar_vs_r`` plane of
    ``x_points`` x 451 cells, consumed chunk by chunk."""
    config = ScanConfig(plane="nbar_vs_r", x_range=(1e-2, 1e2, x_points, "log10"),
                        y_range=(-2.25, 2.25, 451, "linear"))
    tracemalloc.start()
    try:
        chunks = sizes = 0
        for chunk in scan_csv(config):
            chunks += 1
            sizes += len(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return chunks, sizes, peak


@functools.cache
def exponent_plane():
    """An ``omegaT_vs_r`` plane with mu = -1 of 11 x 9 cells, 11 rows being
    no multiple of the text block: negative x and y values, the N_bar = 0
    cells at r = 0, and at the ends of the r axis a ratio within about 1e-8
    of 1, whose log10 field has the exponent form."""
    lo, hi = 0.1, 5.0
    for _ in range(30):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if ratio_at("omegaT_vs_r", -0.5, mid, -1.0) > 1.0 else (lo, mid)
    return ScanConfig(plane="omegaT_vs_r", x_range=(-0.5, 1.0, 11, "linear"),
                      y_range=(-hi, hi, 9, "linear"), mu=-1.0)


class TestMap:
    CONFIG = dict(plane="nbar_vs_nq",
                  x_range=(0.1, 10.0, 3, "log10"),
                  y_range=(0.1, 10.0, 3, "log10"))

    def test_row_major_y_fastest(self):
        text = b"".join(scan_csv(ScanConfig(**self.CONFIG))).decode()
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        assert xs == sorted(xs)
        assert ys[:3] == sorted(ys[:3])
        assert xs[0] == xs[1] == xs[2]

    def test_deterministic(self):
        a = b"".join(scan_csv(ScanConfig(**self.CONFIG))).decode()
        b = b"".join(scan_csv(ScanConfig(**self.CONFIG))).decode()
        assert a == b

    def test_zero_total_cell_empty_log(self):
        config = ScanConfig(plane="nbar_vs_r",
                            x_range=(0.5, 2.0, 2, "linear"),
                            y_range=(0.0, 1.0, 2, "linear"))
        text = b"".join(scan_csv(config)).decode()
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        zero_rows = [r for r in rows if float(r[1]) == 0.0]
        assert zero_rows
        for r in zero_rows:
            assert r[2] == ""
            assert r[3] == "true"

    @staticmethod
    def cell_ratio(plane, x, y, mu=0.0):
        return ratio_grid(plane, np.array([x]), np.array([y]), mu)[0, 0]

    def test_boundary_cell_near_log10_zero(self):
        # the satisfied/violated boundary at n_bar = 100 sits near n_q = 7.6
        ratio = self.cell_ratio("nbar_vs_nq", 100.0, 7.606921069403123)
        assert math.log10(ratio) == pytest.approx(0.0, abs=1e-10)

    def test_deep_amplification_satisfied(self):
        ratio = self.cell_ratio("nbar_vs_nq", 0.01, 100.0)
        assert ratio < 1.0

    def test_grid_shape(self):
        ratios = ratio_grid("omegaT_vs_r", np.linspace(1.0, 2.0, 3),
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
        assert b"".join(scan_csv(config)).decode() == reference_csv(config)

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
        # a subnormal ratio: 4.2e-312 at N_bar = 1.7e308, omega/T = 1e6
        ("N_vs_omegaT", ("1e307", "1.7e308"), ("1e5", "1e6"), "ratio underflows"),
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

    def test_overflow_past_the_first_block_exits_1(self, tmp_path, capsys):
        # N_bar = n_q (n_bar + 1) overflows on the last x row only, 100 rows
        # and one ratio block after the first: the blocks are checked before
        # the header is written
        argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1e-2", "--x-max", "1e109",
                "--x-points", "101", "--y-min", "1e-2", "--y-max", "1e200"]
        xs, ys = ScanConfig(plane="nbar_vs_nq", x_range=(1e-2, 1e109, 101, "log10"),
                            y_range=(1e-2, 1e200, 101, "log10")).axes()
        assert np.all(np.isfinite(ratio_grid("nbar_vs_nq", xs[:-1], ys, 0.0)))
        out = tmp_path / "grid.csv"
        out.write_bytes(b"earlier,output\n")
        for target in (["--out", str(out)], []):
            assert main(argv + target) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: N_bar = n_q (n_bar + 1)")
            assert captured.err.count("\n") == 1
        assert out.read_bytes() == b"earlier,output\n"

    def test_failed_map_leaves_existing_output_untouched(self, tmp_path):
        # the grid is evaluated before the output file is opened
        out = tmp_path / "grid.csv"
        out.write_bytes(b"earlier,output\n")
        argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1e200", "--x-max", "1e201",
                "--x-points", "2", "--y-min", "1e200", "--y-max", "1e201", "--y-points", "2"]
        to_file = run_cli(*argv, "--out", str(out))
        to_stdout = run_cli(*argv)
        for result in (to_file, to_stdout):
            assert result.returncode == 1
            assert result.stderr.startswith("error: N_bar = n_q (n_bar + 1)")
            assert result.stderr.count("\n") == 1
        assert out.read_bytes() == b"earlier,output\n"
        assert to_stdout.stdout == ""

    def test_chunks_are_the_bytes_of_one_x_row_each(self):
        config = exponent_plane()
        chunks = list(scan_csv(config))
        assert all(type(chunk) is bytes for chunk in chunks)
        assert chunks[0] == b"x,y,log10_ratio,satisfied\n"
        xs = config.axes()[0].tolist()
        assert len(chunks) == 1 + len(xs)
        for x, chunk in zip(xs, chunks[1:]):
            lines = chunk.decode().split("\n")
            assert len(lines) == 9 + 1 and lines[-1] == ""
            assert {line.split(",")[0] for line in lines[:-1]} == {cli._fmt(x)}

    def test_stdout_has_the_bytes_of_out(self, tmp_path):
        config = exponent_plane()
        (x_min, x_max, x_points, _), (y_min, y_max, y_points, _) = config.x_range, config.y_range
        argv = ["map", "--plane", config.plane, f"--x-min={x_min!r}", f"--x-max={x_max!r}",
                f"--x-points={x_points}", "--x-scale=linear", f"--y-min={y_min!r}",
                f"--y-max={y_max!r}", f"--y-points={y_points}", "--y-scale=linear",
                f"--mu={config.mu!r}"]
        out = tmp_path / "grid.csv"
        to_file = run_cli(*argv, "--out", str(out), text=False)
        to_stdout = run_cli(*argv, text=False)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stderr == to_stdout.stderr == b""
        expected = reference_csv(config).encode()
        assert out.read_bytes() == to_stdout.stdout == expected
        # the plane has what it is meant to: exponent-form and empty log10
        # fields, and negative x and y values
        rows = [line.split(b",") for line in expected.split(b"\n")[1:-1]]
        assert any(b"e-" in row[2] for row in rows) and any(row[2] == b"" for row in rows)
        assert any(row[0].startswith(b"-") for row in rows)
        assert any(row[1].startswith(b"-") for row in rows)

    def test_reader_closing_early_exits_quietly(self):
        # 300 x 300 cells are about 3 MB of text, far more than a pipe holds
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "ampbound.cli", "map", "--plane", "nbar_vs_r",
                "--x-min", "0.1", "--x-max", "5", "--x-points", "300",
                "--y-min", "0.1", "--y-max", "2", "--y-points", "300"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            try:
                head = child.stdout.read(100)
                child.stdout.close()
                _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                child.kill()
        assert head.startswith(b"x,y,log10_ratio,satisfied\n")
        assert child.returncode == 0
        assert err == b""

    def test_plane_streams_one_chunk_per_x_row(self):
        # a 451 x 451 plane holds 65 MB of text and 1.6 MB of ratios;
        # streamed in blocks of x rows, the peak is one block of ratios and
        # its text (49 MiB when the text was one string, 4.9 MiB when the
        # whole ratio grid was held)
        chunks, sizes, peak = streamed_plane(451)
        assert chunks == 1 + 451
        assert sizes > 451 * 451 * 40
        assert peak < 3 * 2**20

    def test_peak_memory_does_not_grow_with_the_plane(self):
        # 4.4 times the rows of a 451 x 451 plane; with the whole ratio grid
        # held the peak grew from 4.9 to 21.6 MiB
        peak_451 = streamed_plane(451)[2]
        chunks, _, peak_2001 = streamed_plane(2001)
        assert chunks == 1 + 2001
        assert peak_2001 <= 1.2 * peak_451

    @pytest.mark.parametrize("x_points", [2, 7, 8, 9, 63, 64, 65])
    def test_block_edges_match_cell_by_cell_reference(self, x_points):
        # x counts on either side of the text block (8 rows) and of the
        # ratio block (64 rows), on every plane
        for plane, x_range, y_range, mu in [
                ("N_vs_omegaT", (0.0, 1e3, "linear"), (0.6, 30.0, "log10"), 0.5),
                ("nbar_vs_nq", (0.0, 2.0, "linear"), (0.0, 3.0, "linear"), 0.0),
                ("omegaT_vs_nq", (0.6, 20.0, "log10"), (1e-3, 1e3, "log10"), 0.5),
                ("nbar_vs_r", (0.0, 50.0, "linear"), (-3.0, 3.0, "linear"), 0.0),
                ("omegaT_vs_r", (0.6, 20.0, "log10"), (-3.0, 3.0, "linear"), 0.5)]:
            config = ScanConfig(plane=plane, x_range=(*x_range[:2], x_points, x_range[2]),
                                y_range=(*y_range[:2], 7, y_range[2]), mu=mu)
            chunks = list(scan_csv(config))
            assert len(chunks) == 1 + x_points
            assert b"".join(chunks).decode() == reference_csv(config)

    def test_temperature_and_occupation_planes_agree(self):
        # omegaT_vs_nq and nbar_vs_nq at the Bose-Einstein n_bar of omega/T
        # evaluate the same cells, down to N_bar = 1e-20
        xs = np.logspace(math.log10(0.05), math.log10(20.0), 201)
        nqs = np.logspace(-20.0, 2.0, 221)
        by_temperature = ratio_grid("omegaT_vs_nq", xs, nqs, 0.0)
        by_occupation = ratio_grid("nbar_vs_nq", analytic.bose_einstein(xs), nqs, 0.0)
        rel = np.abs(by_temperature - by_occupation) / by_occupation
        assert rel.max() <= 1e-14
        assert np.array_equal(by_temperature <= 1.0, by_occupation <= 1.0)

    def test_planes_cover_negative_r(self):
        config = ScanConfig(plane="omegaT_vs_r",
                            x_range=(0.5, 2.0, 2, "log10"),
                            y_range=(-1.0, 1.0, 5, "linear"))
        text = b"".join(scan_csv(config)).decode()
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
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

    @pytest.mark.parametrize("cfg, field", [
        ({}, "'plane'"),
        ({**SCAN, "y": {"min": 0.1, "max": 10.0}}, "'y.points'"),
        ({**SCAN, "x": {**SCAN["x"], "points": 2.5}}, "'x.points'"),
        ([SCAN], "JSON object"),
        ({**SCAN, "x": {**SCAN["x"], "min": "0.1"}}, "'x.min'"),
        ({**SCAN, "mu": "0"}, "'mu'"),
        # misspelled fields once fell back to mu = 0, stdout or a linear axis
        ({**SCAN, "Mu": 0.5}, "'Mu'"),
        ({**SCAN, "output": "grid.csv"}, "'output'"),
        ({**SCAN, "y": {**SCAN["y"], "scal": "log10"}}, "'y.scal'"),
        # a JSON integer past the largest float ended in an OverflowError
        ({**SCAN, "x": {**SCAN["x"], "max": 10 ** 400}}, "'x.max'"),
        ({**SCAN, "mu": 10 ** 400}, "'mu'"),
    ])
    def test_malformed_config_exits_1(self, tmp_path, capsys, cfg, field):
        # each of these once ended in a KeyError or TypeError traceback
        path, out = tmp_path / "scan.json", tmp_path / "grid.csv"
        path.write_text(json.dumps(cfg))
        assert main(["map", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scan config") and field in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2"],
         "map needs --config or --plane with full x/y ranges"),
        (["--plane", "omegaT_vs_nq", "--x-min", "0.1", "--x-max", "2", "--y-min", "1",
          "--y-max", "2", "--mu", "0.5"], "omega/T axis must stay above mu/T"),
        (["--plane", "nbar_vs_nq", "--x-min", "-1e308", "--x-max", "1e308", "--x-scale",
          "linear", "--y-min", "1", "--y-max", "2"],
         "x axis overflows: the length of [-1e+308, 1e+308] is past the largest float"),
        (["--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "1.7976931348623157e308",
          "--y-min", "1", "--y-max", "2"],
         "x axis overflows: its log10 point at max 1.7976931348623157e+308 rounds past the "
         "largest float"),
        (["--config", "SCAN"], f"unknown plane 'nope'; choose from {cli.PLANES}"),
        # omega/T - mu/T overflows: no warning, in the axis checks or in n_bar,
        # and the ratio names the cell's fault
        (["--plane", "omegaT_vs_nq", "--x-min", "1e308", "--x-max", "1.5e308", "--y-min",
          "0.1", "--y-max", "1", "--mu", "-1e308"],
         "bound ratio underflows: N_bar or T/(omega - mu) out of range"),
        (["--plane", "N_vs_omegaT", "--x-min", "0.1", "--x-max", "1", "--y-min", "1e308",
          "--y-max", "1.5e308", "--mu", "-1e308"],
         "bound ratio underflows: N_bar or T/(omega - mu) out of range"),
    ], ids=["ranges", "mu", "length", "log10-top", "plane", "omega-far-above-mu",
            "omega-far-above-mu-on-y"])
    def test_input_errors_exit_1_and_write_nothing(self, tmp_path, capsys, argv, message):
        scan, out = tmp_path / "scan.json", tmp_path / "grid.csv"
        scan.write_text(json.dumps({**SCAN, "plane": "nope"}))
        argv = [str(scan) if arg == "SCAN" else arg for arg in argv]
        assert main(["map", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestVerify:
    def test_trivial_point_passes(self, capsys):
        code, out = run(capsys, "verify", "--point", "0,0")
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        # the vacuum's entropy is +0.0, with no vacuum subtracted to make it so
        assert '"delta_S_oracle": 0.0,' in out

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

    def test_underflowing_trunc_tolerance_recorded_per_point(self, capsys):
        # half of 5e-324 rounds to 0, whose cutoff once ended in an
        # OverflowError traceback with no record
        assert main(["verify", "--point", "1,0.5", "--trunc-tolerance", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        record, = strict_json(captured.out)["records"]
        assert record == {"n_bar": 1.0, "r": 0.5, "error": record["error"]}
        assert "rounds to 0" in record["error"]

    def test_truncation_error_recorded_per_point(self, capsys, monkeypatch):
        # main does not catch TruncationError: verify_grid records it
        def fail(*args, **kwargs):
            raise fock_oracle.TruncationError("probe failure")

        monkeypatch.setattr(fock_oracle, "verify_point", fail)
        code, out = run(capsys, "verify", "--point", "1,0.5")
        assert code == 2
        assert json.loads(out)["records"] == [{"n_bar": 1.0, "r": 0.5, "error": "probe failure"}]

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
        # no step grid can meet these, so each must be rejected before any
        # mode is solved
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

    def test_misspelled_pump_field_exits_1(self, pump_file, capsys):
        # it once ran silently at strength 1, r_k 2.32 at k = 1 for 0.96
        code = main(["spectrum", "--pump", pump_file({"kind": "de_sitter", "strenght": 0.5}),
                     "--T", "1", "--k-min", "0.5", "--k-max", "1", "--k-points", "2",
                     "--tau-in", "-50", "--tau-fin", "-0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: pump config field 'strenght'")
        assert captured.err.count("\n") == 1

    def test_huge_pump_error_rows_without_warnings(self, pump_file, tmp_path):
        # the error estimate overflows to NaN, and the grid outgrows the
        # step budget
        path = pump_file({"kind": "constant", "q0": 1e300})
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", path, "--T", "1", "--k-min", "0.1",
                         "--k-max", "1", "--k-points", "2", "--tau-in", "-50",
                         "--tau-fin", "-0.1", "--out", str(out))
        assert result.returncode == 0
        assert result.stderr == ""
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith(f"needs more than {dynamics._MAX_STEPS} steps") for row in rows)

    def test_span_whose_length_overflows_exits_1(self, pump_file, tmp_path):
        # both bounds are finite, but the span is not: no step has a size
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", pump_file({"kind": "constant", "q0": 0.5}),
                         "--T", "1", "--k-min", "0.5", "--k-max", "2", "--k-points", "2",
                         "--tau-in", "-1e308", "--tau-fin", "1e308", "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("error: integration span must have a finite length")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_unrepresentable_modes_get_error_rows(self, pump_file, tmp_path):
        # k up to the largest float once hung the scan; now the modes whose
        # numbers leave the float range end in their own error rows
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", pump_file({"kind": "constant", "q0": 0.1}),
                         "--T", "1", "--k-min", "1", "--k-max", "1.7e308", "--k-points", "3",
                         "--tau-in", "0", "--tau-fin", "1", "--out", str(out), timeout=10)
        assert result.returncode == 0
        assert result.stderr == ""
        errors = [row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]]
        assert errors[0] == ""
        assert all(errors[1:]) and len(errors) == 3

    def test_large_k_constant_pump_is_one_step(self, pump_file, capsys, monkeypatch):
        # the generator commutes with itself, so any k takes one exact
        # step; DOP853 took 26 s at --k-max 1e4 and never finished 1e5
        grids, make = [], dynamics._step_grid
        monkeypatch.setattr(dynamics, "_step_grid",
                            lambda *args: grids.append(make(*args)) or grids[-1])
        path = pump_file({"kind": "constant", "q0": 0.1})
        start = time.perf_counter()
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1", "--k-min", "1",
                        "--k-max", "1e5", "--k-points", "3", "--tau-in", "0",
                        "--tau-fin", "10")
        # one grid of one step for all three modes; the time bound only
        # catches a hang, the step takes milliseconds
        assert [edges.tolist() for edges in grids] == [[0.0, 10.0]]
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert all(row.endswith(",") for row in out.strip().split("\n")[1:])

    def test_unreachable_tolerance_ends_at_the_step_budget(self, pump_file, tmp_path):
        out = tmp_path / "spectrum.csv"
        result = run_cli("spectrum", "--pump", pump_file({"kind": "de_sitter"}), "--T", "1",
                         "--k-min", "1", "--k-max", "2", "--k-points", "2", "--tau-in", "-10",
                         "--tau-fin", "-1", "--tol", "5e-324", "--out", str(out), timeout=10)
        assert result.returncode == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith(f"needs more than {dynamics._MAX_STEPS} steps") for row in rows)

    def test_integration_error_recorded_per_mode(self, pump_file, capsys, monkeypatch):
        # main does not catch IntegrationError: spectrum records it per mode
        def fail(*args):
            raise dynamics.IntegrationError("probe failure")

        monkeypatch.setattr(dynamics, "integrate_modes", fail)
        code, out = run(capsys, "spectrum", "--pump", pump_file({"kind": "de_sitter"}),
                        "--T", "1", "--k-min", "0.5", "--k-max", "2", "--k-points", "3",
                        "--tau-in", "-20", "--tau-fin", "-0.5")
        assert code == 0
        assert [row.split(",")[-1] for row in out.splitlines()[1:]] == ["probe failure"] * 3

    def test_omega_conventions_are_those_of_field_modes(self):
        # the parser lists the conventions itself, so that building it does
        # not import field_modes
        sub = next(action for action in build_parser()._actions if action.dest == "command")
        choices = next(action.choices for action in sub.choices["spectrum"]._actions
                       if action.dest == "omega_convention")
        assert list(choices) == sorted(field_modes.OMEGA_CONVENTIONS)

    def test_singular_pump_isolated_per_mode(self, pump_file, capsys):
        path = pump_file({"kind": "de_sitter"})
        code, out = run(capsys, "spectrum", "--pump", path, "--T", "1",
                        "--k-min", "0.5", "--k-max", "2", "--k-points", "2",
                        "--tau-in", "-1", "--tau-fin", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(r[-1] != "" for r in rows)


def check_printed(capsys, *argv):
    """The exit code of the text-form ``check`` at T = 1 and its printed fields."""
    code, out = run(capsys, "check", "--T", "1", *argv)
    return code, dict(line.split(" = ") for line in out.splitlines())


def csv_rows(text):
    lines = text.splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


# the check flags that evaluate the map cell printed as x, y: n_bar = 0 makes
# N_bar = n_q, and --from-thermal takes n_bar at omega = x, T = 1
MAP_AS_CHECK = {
    "N_vs_omegaT": lambda x, y: ["--nbar", "0", "--nq", x, "--omega", y],
    "omegaT_vs_nq": lambda x, y: ["--from-thermal", "--nq", y, "--omega", x],
    "omegaT_vs_r": lambda x, y: ["--from-thermal", "--r", y, "--omega", x],
}


class TestOneEvaluationPath:
    """Every command prints the numbers that ``check`` prints at the same point,
    compared as printed: the closed forms, the Bose-Einstein ``n_bar`` among
    them, have one evaluation path."""

    @pytest.mark.parametrize("mu", ["0", "0.025", "-0.5"])
    @pytest.mark.parametrize("plane, x_axis, y_axis", [
        ("N_vs_omegaT", ["1e-4", "1e4", "11", "log10"], ["0.05", "20", "9", "log10"]),
        ("omegaT_vs_nq", ["0.05", "20", "31", "log10"], ["1e-3", "1e3", "9", "log10"]),
        # r = 0 is a cell of ratio 0, an empty log10 field
        ("omegaT_vs_r", ["0.05", "20", "31", "log10"], ["-3", "3", "9", "linear"]),
    ])
    def test_map_cells_are_check_at_the_same_point(self, capsys, plane, x_axis, y_axis, mu):
        axes = [f"--{axis}-{key}={value}" for axis, values in (("x", x_axis), ("y", y_axis))
                for key, value in zip(("min", "max", "points", "scale"), values)]
        assert main(["map", "--plane", plane, *axes, f"--mu={mu}"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == int(x_axis[2]) * int(y_axis[2])
        for row in rows:
            code, printed = check_printed(capsys, *MAP_AS_CHECK[plane](row["x"], row["y"]),
                                          f"--mu={mu}")
            ratio = float(printed["ratio"])
            log10 = "" if ratio == 0.0 else cli._fmt(math.log10(ratio))
            assert (row["log10_ratio"], row["satisfied"]) == (
                log10, "true" if code == 0 else "false"), row

    @pytest.mark.parametrize("mu", ["0", "-0.5"])
    def test_spectrum_rows_are_check_at_the_same_point(self, pump_file, capsys, mu):
        assert main(["spectrum", "--pump", pump_file({"kind": "de_sitter"}), "--T", "1",
                     f"--mu={mu}", "--k-min", "0.1", "--k-max", "10", "--k-points", "7",
                     "--tau-in", "-50", "--tau-fin", "-0.1"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 7 and all(row["error"] == "" for row in rows)
        for row in rows:
            code, printed = check_printed(capsys, "--from-thermal", "--omega", row["k"],
                                          "--r", row["r_k"], f"--mu={mu}")
            assert [row[f"{name}_k"] for name in ("delta_S", "delta_Q", "delta_N", "ratio")] == [
                printed[name] for name in ("delta_S_nats", "delta_Q", "delta_N", "ratio")]
            assert row["satisfied"] == ("true" if code == 0 else "false")

    def test_verify_flows_are_check_at_the_same_point(self, capsys):
        points = [(0.0, 0.3), (0.5, 1.2), (2.0, 0.05), (7.5, 2.0)]
        assert main(["verify", "--omega", "1.5",
                     *[f"--point={n_bar!r},{r!r}" for n_bar, r in points]]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(rec["n_bar"], rec["r"]) for rec in records] == points
        for rec in records:
            _, printed = check_printed(capsys, "--nbar", repr(rec["n_bar"]), "--r",
                                       repr(rec["r"]), "--omega", "1.5")
            # verify's JSON holds the shortest repr, check's text %.17g: the same doubles
            assert [rec[f"{name}_analytic"] for name in ("delta_S", "delta_Q", "delta_N")] == [
                float(printed[name]) for name in ("delta_S_nats", "delta_Q", "delta_N")]


@pytest.mark.parametrize("command, what",[("map", "scan config"), ("spectrum", "pump config")])
@pytest.mark.parametrize("text", [b"{bad", b"\xff\xfe", b"[" * 200_000],
                         ids=["syntax", "encoding", "nesting"])
def test_config_the_json_parser_rejects_exits_1(tmp_path, capsys, command, what, text):
    # the parser's message once came without the file's name, and a deep
    # nesting ended in a RecursionError traceback
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    if command == "map":
        argv = ["map", "--config", str(path)]
    else:
        argv = ["spectrum", "--pump", str(path), "--T", "1", "--k-min", "0.5", "--k-max", "2",
                "--tau-in", "0", "--tau-fin", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what} {path} is not valid JSON: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, axis", [
    (["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--y-min", "1",
      "--y-max", "2", "--y-points", "1"], "y"),
    (["map", "--plane", "nbar_vs_nq", "--x-min", "0", "--x-max", "2", "--y-min", "1",
      "--y-max", "2"], "x"),
    (["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--y-min", "2",
      "--y-max", "2"], "y"),
    (["map", "--config", "SCAN"], "y"),
    (["spectrum", "--pump", "PUMP", "--T", "1", "--k-min", "2", "--k-max", "1",
      "--tau-in", "0", "--tau-fin", "1"], "k"),
])
def test_axis_errors_name_their_axis(pump_file, tmp_path, capsys, argv, axis):
    # "each axis needs at least 2 points" and "axis range must have min <
    # max" named no axis; SCAN is a config whose y axis has an unknown scale
    files = {"PUMP": pump_file({"kind": "constant", "q0": 0.1}), "SCAN": tmp_path / "scan.json"}
    files["SCAN"].write_text(json.dumps({**SCAN, "y": {**SCAN["y"], "scale": "log2"}}))
    assert main([str(files.get(arg, arg)) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {axis} axis ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, axis, points", [
    (["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--y-min", "1",
      "--y-max", "2", "--x-points", str(10**20)], "x", 10**20),
    (["map", "--config", "SCAN"], "y", 10**400),
    (["spectrum", "--pump", "PUMP", "--T", "1", "--k-min", "1", "--k-max", "2",
      "--k-points", str(10**20), "--tau-in", "0", "--tau-fin", "1"], "k", 10**20),
], ids=["map", "map-config", "spectrum"])
def test_axis_too_large_to_allocate_names_its_axis(pump_file, tmp_path, capsys, argv, axis,
                                                   points):
    # numpy's "Maximum allowed size exceeded" named no axis; neither count
    # is allocated, numpy refuses it first
    files = {"PUMP": pump_file({"kind": "constant", "q0": 0.1}), "SCAN": tmp_path / "scan.json"}
    files["SCAN"].write_text(json.dumps({**SCAN, "y": {**SCAN["y"], "points": 10**400}}))
    assert main([str(files.get(arg, arg)) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {axis} axis of {points} points is too large to allocate\n"


@pytest.mark.parametrize("scale", ["linear", "log10"])
def test_axis_out_of_memory_names_its_axis(monkeypatch, capsys, scale):
    # --x-points 1000000000000000 ended in an _ArrayMemoryError traceback
    # where the address space is limited; the refusal is simulated here
    def refuse(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "logspace", refuse)
    assert main(["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2",
                 "--x-points", str(10**15), "--x-scale", scale, "--y-min", "1",
                 "--y-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: x axis of {10**15} points is too large to allocate\n"


NUMPY_OUT_OF_MEMORY = ("Unable to allocate 1.34 GiB for an array with shape (8, 30000000, 6) "
                       "and data type uint64")


@pytest.mark.parametrize("argv, module, name, exc, err", [
    (["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--y-min", "1",
      "--y-max", "2"], printer, "fmt_array", MemoryError(NUMPY_OUT_OF_MEMORY),
     f"error: out of memory: {NUMPY_OUT_OF_MEMORY}\n"),
    (["spectrum", "--pump", "PUMP", "--T", "1", "--k-min", "1", "--k-max", "2", "--tau-in",
      "-20", "--tau-fin", "-0.5"], field_modes, "spectrum", MemoryError(),
     "error: out of memory\n"),
], ids=["map", "spectrum"])
def test_out_of_memory_is_one_error_line(pump_file, tmp_path, monkeypatch, capsys, argv, module,
                                         name, exc, err):
    # a grid whose axes fit but whose text or modes did not ended in a
    # traceback from fmt_array or spectrum where the address space is
    # limited; the refusal is simulated here
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, refuse)
    pump = pump_file({"kind": "de_sitter"})
    argv = [pump if arg == "PUMP" else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


# a small map, and what an existing --out file holds before it runs
SMALL_MAP = ["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2", "--x-points", "3",
             "--y-min", "1", "--y-max", "2", "--y-points", "4"]
EARLIER = b"earlier,output\n"


class FullDisk:
    """A file opened for writing whose writes fail after ``chunks`` chunks,
    as on a full disk."""

    def __init__(self, *args, chunks):
        self.file, self.left = open(*args), chunks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def writelines(self, chunks):
        for chunk in chunks:
            if not self.left:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.left -= 1
            self.file.write(chunk)


class TestOut:
    """A regular ``--out`` file, or one not there yet, gets every chunk or
    keeps its bytes; a device or a FIFO is written in place."""

    @pytest.mark.parametrize("failure", ["validation", "memory", "write"])
    def test_failed_map_keeps_an_existing_out(self, tmp_path, monkeypatch, capsys, failure):
        # the text is made while it is written, so a failure after the
        # validation pass once left a truncated or partial file
        out = tmp_path / "grid.csv"
        out.write_bytes(EARLIER)
        argv = SMALL_MAP
        if failure == "validation":
            argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1e200", "--x-max", "1e201",
                    "--x-points", "2", "--y-min", "1e200", "--y-max", "1e201",
                    "--y-points", "2"]
            err = "error: N_bar = n_q (n_bar + 1) is not finite"
        elif failure == "memory":
            scan = cli._scan_chunks

            def scan_then_fail(*args):
                chunks = scan(*args)
                yield next(chunks)
                yield next(chunks)
                raise MemoryError()

            monkeypatch.setattr(cli, "_scan_chunks", scan_then_fail)
            err = "error: out of memory"
        else:
            monkeypatch.setattr(cli, "open", functools.partial(FullDisk, chunks=2),
                                raising=False)
            err = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err) and captured.err.count("\n") == 1
        assert out.read_bytes() == EARLIER
        assert sorted(tmp_path.iterdir()) == [out]

    def test_new_out_gets_the_mode_open_gives(self, tmp_path, capsysbinary):
        # the umask applies, as to open(path, "wb"); not mkstemp's 0600
        assert main(SMALL_MAP) == 0
        expected = capsysbinary.readouterr().out
        out = tmp_path / "grid.csv"
        umask = os.umask(0o027)
        try:
            assert main(SMALL_MAP + ["--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
        assert out.read_bytes() == expected
        assert sorted(tmp_path.iterdir()) == [out]

    def test_existing_out_keeps_its_mode(self, tmp_path, capsysbinary):
        # the new file that replaces it must not widen a private file's mode
        assert main(SMALL_MAP) == 0
        expected = capsysbinary.readouterr().out
        out = tmp_path / "grid.csv"
        out.write_bytes(EARLIER)
        out.chmod(0o600)
        assert main(SMALL_MAP + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == expected
        assert sorted(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("case", ["long_name", "leftover"])
    def test_out_is_written_in_place_when_no_file_fits_beside_it(self, tmp_path,
                                                                capsysbinary, case):
        # a basename too long for the temporary file's suffix, or a temporary
        # file a killed run left under this process's id, is no error
        assert main(SMALL_MAP) == 0
        expected = capsysbinary.readouterr().out
        out = tmp_path / ("g" * 250 if case == "long_name" else "grid.csv")
        out.write_bytes(EARLIER)
        leftover = tmp_path / f"{out.name}.{os.getpid()}.tmp"
        if case == "leftover":
            leftover.write_bytes(EARLIER)
        assert main(SMALL_MAP + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected
        assert sorted(tmp_path.iterdir()) == sorted([out] + [leftover] * (case == "leftover"))

    def test_unwritable_out_names_the_given_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "grid.csv"
        assert main(SMALL_MAP + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
                                f"'{out}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_through_a_symlink_replaces_its_target(self, tmp_path, capsysbinary):
        assert main(SMALL_MAP) == 0
        expected = capsysbinary.readouterr().out
        target, link = tmp_path / "grid.csv", tmp_path / "link.csv"
        target.write_bytes(EARLIER)
        link.symlink_to(target)
        assert main(SMALL_MAP + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == expected
        assert sorted(tmp_path.iterdir()) == [target, link]

    def test_out_to_a_fifo_streams(self, tmp_path, capsysbinary):
        # about 0.8 MB of text, more than a pipe holds, passes to a reader
        # as it is made
        argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2",
                "--x-points", "100", "--y-min", "1", "--y-max", "2", "--y-points", "100"]
        assert main(argv) == 0
        expected = capsysbinary.readouterr().out
        assert len(expected) > 2**19
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert main(argv + ["--out", str(fifo)]) == 0
        reader.join(CHILD_TIMEOUT_S)
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo]

    @pytest.mark.parametrize("through_symlink", [False, True])
    def test_out_to_devnull_keeps_the_device(self, tmp_path, through_symlink):
        # a file moved onto os.devnull would replace the device node
        out = os.devnull
        if through_symlink:
            out = tmp_path / "null"
            out.symlink_to(os.devnull)
        assert main(SMALL_MAP + ["--out", str(out)]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert os.path.islink(out) == through_symlink
        assert list(tmp_path.iterdir()) == ([out] if through_symlink else [])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_out_to_a_full_device_exits_1(self, capsys):
        assert main(SMALL_MAP + ["--out", "/dev/full"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: [Errno {errno.ENOSPC}]")
        assert captured.err.count("\n") == 1
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def readme_json(heading):
    """Every JSON value in the ``json`` code blocks of README's section ``heading``."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n### {heading}", 1)[1].split("\n#", 1)[0]
    values, decoder = [], json.JSONDecoder()
    for block in section.split("```json\n")[1:]:
        block = block.split("```", 1)[0].strip()
        while block:
            value, end = decoder.raw_decode(block)
            values.append(value)
            block = block[end:].strip()
    return values


def test_readme_config_examples_match_the_readers():
    # each documented kind shows every field it takes, and each example is
    # one that the reader accepts
    pumps = readme_json("Pump profile config")
    assert [spec["kind"] for spec in pumps] == list(dynamics.PumpProfile.KINDS)
    for spec in pumps:
        assert set(spec) == {"kind", *dynamics.PumpProfile.KINDS[spec["kind"]]}
        assert cli.pump_from_dict(spec).kind == spec["kind"]
    scan, = readme_json("Scan config")
    assert set(scan) == set(cli._SCAN_FIELDS)
    assert set(scan["x"]) == set(scan["y"]) == set(cli._AXIS_FIELDS)
    config = ScanConfig.from_dict(scan)
    assert [len(axis) for axis in config.axes()] == [scan["x"]["points"], scan["y"]["points"]]


# a gaussian pulse whose width squared overflows: PumpProfile.__call__
# raised OverflowError, which ended the run in a traceback
WIDE_PULSE = {"kind": "gaussian_pulse", "amplitude": 0.5, "center": 1e300, "width": 1e300}
# the numbers a pump config and the span are drawn from: zero, the edges of
# the floats' range and ordinary values
EDGE_VALUES = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
               1.7976931348623157e308, -1.7976931348623157e308]
EDGE_NUMBERS = st.sampled_from(EDGE_VALUES)
NUMBERS = EDGE_NUMBERS | st.floats(-10.0, 10.0)
PUMP_CONFIGS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "q0": NUMBERS, "theta_in": NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("gaussian_pulse"), "amplitude": NUMBERS,
                           "center": NUMBERS, "width": NUMBERS, "theta_in": NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("de_sitter"), "strength": NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("tabulated"), "theta_in": NUMBERS, "samples": st.lists(
        st.lists(NUMBERS, min_size=2, max_size=2), min_size=2, max_size=3)}))


def test_wide_gaussian_pulse_exits_1(pump_file, capsys):
    code = main(["spectrum", "--pump", pump_file(WIDE_PULSE), "--T", "3", "--k-min", "1",
                 "--k-max", "2", "--k-points", "2", "--tau-in", "0", "--tau-fin", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: gaussian_pulse width")
    assert captured.err.count("\n") == 1


@settings(max_examples=40, deadline=10_000)
@example(pump=WIDE_PULSE, tau_in=0.0, tau_fin=1.0)
# the times' difference overflowed in the strictly-increasing check, which
# warned above the rows
@example(pump={"kind": "tabulated", "samples": [[-1e300, 0.0], [1.7976931348623157e308, 0.0]],
               "theta_in": 0.0}, tau_in=0.0, tau_fin=0.0)
# each round cut the step at the spacing of doubles near -1e300 into 63
# zero-length steps and itself, until the grid reached the step budget
@example(pump={"kind": "gaussian_pulse", "amplitude": 1e300, "center": -1e300, "width": 1.0},
         tau_in=-1e300, tau_fin=0.0)
@given(pump=PUMP_CONFIGS, tau_in=NUMBERS, tau_fin=NUMBERS)
def test_spectrum_keeps_the_exit_contract_over_pump_configs(tmp_path_factory, pump, tau_in,
                                                            tau_fin):
    # any pump config and span exits 0 with rows, some of them perhaps
    # error rows, or 1 with exactly one error line; never a traceback,
    # which in-process is an exception out of main, and never a warning
    path = tmp_path_factory.getbasetemp() / "fuzz_pump.json"
    path.write_text(json.dumps(pump))
    out, err = byte_stdout(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["spectrum", "--pump", str(path), "--T", "3", "--k-min", "1",
                     "--k-max", "2", "--k-points", "2", f"--tau-in={tau_in!r}",
                     f"--tau-fin={tau_fin!r}"])
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert written(out) == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and len(written(out).splitlines()) == 3


@pytest.mark.parametrize("command", ["map", "spectrum"])
def test_log_axis_topping_out_at_the_largest_float_exits_1(pump_file, tmp_path, command):
    # the last log10 point of an axis ending at DBL_MAX rounds to inf;
    # numpy warned of the overflow and the error blamed N_bar or k
    out = tmp_path / "out.csv"
    top = "1.7976931348623157e308"
    if command == "map":
        argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", top,
                "--x-points", "3", "--y-min", "1", "--y-max", "2", "--y-points", "2"]
        axis = "x"
    else:
        argv = ["spectrum", "--pump", pump_file({"kind": "constant", "q0": 0.1}),
                "--T", "1", "--k-min", "1", "--k-max", top, "--k-points", "3",
                "--tau-in", "0", "--tau-fin", "1"]
        axis = "k"
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {axis} axis overflows")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["map", "spectrum"])
def test_linear_axis_whose_length_overflows_exits_1(pump_file, command):
    # np.linspace warned of the overflow, and the error blamed N_bar or the
    # order of the k grid
    if command == "map":
        argv = ["map", "--plane", "nbar_vs_r", "--x-scale", "linear", "--x-min", "0",
                "--x-max", "1", "--x-points", "3", "--y-scale", "linear",
                "--y-min", "-1.7e308", "--y-max", "1.7e308", "--y-points", "3"]
        axis = "y"
    else:
        argv = ["spectrum", "--pump", pump_file({"kind": "constant", "q0": 0.1}),
                "--T", "1", "--k-scale", "linear", "--k-min", "-1.7e308",
                "--k-max", "1.7e308", "--k-points", "3", "--tau-in", "0", "--tau-fin", "1"]
        axis = "k"
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {axis} axis overflows")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["map", "spectrum"])
def test_linear_axis_topping_out_at_the_largest_float_does_not_warn(pump_file, command):
    # the last linear point, 6 (max - min) / 6, overflows inside np.linspace
    # before numpy sets it to max, and numpy warned of the overflow
    top = "1.7976931348623157e308"
    if command == "map":
        argv = ["map", "--plane", "nbar_vs_nq", "--x-min", "1", "--x-max", "2",
                "--y-min", "0.5", "--y-max", top, "--x-points", "2", "--y-points", "7",
                "--x-scale", "linear", "--y-scale", "linear"]
    else:
        argv = ["spectrum", "--pump", pump_file({"kind": "constant", "q0": 0.1}),
                "--T", "1", "--k-min", "0.5", "--k-max", top, "--k-points", "7",
                "--k-scale", "linear", "--tau-in", "0", "--tau-fin", "1"]
    result = run_cli(*argv)
    if command == "map":
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == ("error: N_bar = n_q (n_bar + 1) is not finite: it "
                                 "overflows on this grid\n")
    else:
        assert (result.returncode, result.stderr) == (0, "")
        assert len(result.stdout.splitlines()) == 8


# the values the exit-contract tests draw each number from: the pump
# configs' edge values, the non-finite ones and ordinary values, with
# ordinary positive values drawn often enough that many argv pass the
# boundary checks and reach the computation
VALUES = (st.sampled_from(EDGE_VALUES + [math.inf, -math.inf, math.nan])
          | st.floats(-10.0, 10.0) | st.floats(1e-3, 10.0))
# a flag left out, as often as one given a drawn value
OPTIONAL_VALUES = st.booleans().flatmap(lambda given: VALUES if given else st.none())
# an axis: its bounds in order, points and scale
AXES = st.tuples(st.lists(VALUES, min_size=2, max_size=2).map(sorted), st.integers(1, 7),
                 st.sampled_from(["log10", "linear"]))


def number_flags(**values):
    """``--name=value`` for each value that is not None, ``_`` read as ``-``."""
    return [f"--{name.replace('_', '-')}={value!r}"
            for name, value in values.items() if value is not None]


def run_contract(argv):
    """Run ``main(argv)`` in-process and check the exit contract every
    subcommand keeps: no traceback, which in-process is an exception out of
    ``main``, no warning, an exit code in {0, 1, 2}, and on exit 1 an empty
    stdout above argparse's usage or exactly one error line.  Returns the
    code and stdout."""
    out, err = byte_stdout(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert written(out) == ""
        assert err.getvalue().startswith("usage: ") or (
            err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1)
    else:
        assert err.getvalue() == ""
    return code, written(out)


def assert_finite_numbers(value):
    """Every number in a parsed JSON value is finite; strings may name inf."""
    if isinstance(value, dict):
        for item in value.values():
            assert_finite_numbers(item)
    elif isinstance(value, list):
        for item in value:
            assert_finite_numbers(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


@settings(max_examples=100, deadline=10_000)
@given(from_thermal=st.booleans(), squeeze=st.sampled_from(["nq", "r"]), nbar=VALUES,
       amount=VALUES, omega=VALUES, T=VALUES, mu=OPTIONAL_VALUES, as_json=st.booleans())
def test_check_keeps_the_exit_contract(from_thermal, squeeze, nbar, amount, omega, T, mu,
                                       as_json):
    argv = (["check"] + ["--json"] * as_json
            + (["--from-thermal"] if from_thermal else [f"--nbar={nbar!r}"])
            + number_flags(**{squeeze: amount}, omega=omega, T=T, mu=mu))
    code, out = run_contract(argv)
    if code == 1:
        return
    if as_json:
        payload = strict_json(out)
    else:
        payload = dict(line.split(" = ") for line in out.splitlines())
        payload = {key: value if value in ("true", "false") else float(value)
                   for key, value in payload.items()}
    assert_finite_numbers(payload)
    # exit 2 is a finite ratio above 1, and nothing else
    assert (code == 2) == (payload["ratio"] > 1.0)


@settings(max_examples=100, deadline=10_000)
# the last linear point of the y axis overflowed inside np.linspace, and
# numpy warned above the error line
@example(plane="nbar_vs_nq", x=([1.0, 2.0], 2, "linear"),
         y=([0.5, 1.7976931348623157e308], 7, "linear"), mu=None)
# n_bar = 1/expm1(5e-324) overflows, and n_q (n_bar + 1) was 0 * inf: numpy
# warned of the invalid value above the error line
@example(plane="omegaT_vs_nq", x=([5e-324, 1e-300], 2, "log10"),
         y=([0.0, 5e-324], 2, "linear"), mu=None)
@given(plane=st.sampled_from(cli.PLANES), x=AXES, y=AXES, mu=OPTIONAL_VALUES)
def test_map_keeps_the_exit_contract(plane, x, y, mu):
    (x_min, x_max), x_points, x_scale = x
    (y_min, y_max), y_points, y_scale = y
    argv = ["map", "--plane", plane, "--x-scale", x_scale, "--y-scale", y_scale] + number_flags(
        x_min=x_min, x_max=x_max, x_points=x_points, y_min=y_min, y_max=y_max,
        y_points=y_points, mu=mu)
    code, out = run_contract(argv)
    assert code in (0, 1)
    if code == 0:
        rows = out.splitlines()
        assert rows[0] == "x,y,log10_ratio,satisfied"
        assert len(rows) == 1 + x_points * y_points
        for row in rows[1:]:
            *numbers, satisfied = row.split(",")
            # the log10 field is empty where the ratio vanishes
            assert all(math.isfinite(float(field)) for field in numbers if field)
            assert satisfied in ("true", "false")


@settings(max_examples=60, deadline=10_000)
@given(points=st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=2),
       tolerance=OPTIONAL_VALUES, trunc_tolerance=OPTIONAL_VALUES, omega=OPTIONAL_VALUES)
def test_verify_keeps_the_exit_contract(points, tolerance, trunc_tolerance, omega):
    argv = (["verify"] + [f"--point={n_bar!r},{r!r}" for n_bar, r in points]
            + number_flags(tolerance=tolerance, trunc_tolerance=trunc_tolerance, omega=omega))
    code, out = run_contract(argv)
    if code == 1:
        return
    report = strict_json(out)
    assert_finite_numbers(report)
    # exit 2 is a failing record, and nothing else
    failing = [rec for rec in report["records"] if not rec.get("pass", False)]
    assert report["pass"] == (code == 0) == (not failing)


def test_no_subcommand_loads_scipy(tmp_path):
    # every subcommand pays the package import before it starts, and all
    # four need only numpy: no scipy module may load, neither on import nor
    # while any of them runs, spectrum's integration included
    out = str(tmp_path / "out.txt")
    pump = str(tmp_path / "pump.json")
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
with open({pump!r}, "w") as fh:
    json.dump({{"kind": "de_sitter"}}, fh)
cli.main(["spectrum", "--pump", {pump!r}, "--T", "1", "--k-min", "0.5", "--k-max", "2",
          "--k-points", "3", "--tau-in", "-20", "--tau-fin", "-0.5", "--out", {out!r}])
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], [], [], [], []]


# spawns each map command and reports its exit code and ru_maxrss (KiB); the
# ru_maxrss of a child counts the memory of the process that spawned it, and
# a small interpreter in between keeps the test process's out of it
RSS_LAUNCHER = """
import os, subprocess, sys
argv = [sys.executable, "-m", "ampbound.cli", "map", "--plane", "nbar_vs_r",
        "--x-min", "0.01", "--x-max", "100", "--y-min", "-2.25", "--y-max", "2.25",
        "--y-points", "451", "--y-scale", "linear"]
for rows in sys.argv[1:]:
    child = subprocess.Popen(argv + ["--x-points", rows], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_map_peak_rss_does_not_grow_with_the_plane():
    # cold map commands of 201 and 2001 x rows; with the whole ratio grid
    # held, the peak RSS grew by 18.7 MB between them
    result = run_python("-c", RSS_LAUNCHER, "201", "2001")
    assert result.returncode == 0, result.stderr
    (code_201, rss_201), (code_2001, rss_2001) = (
        map(int, line.split()) for line in result.stdout.splitlines())
    assert code_201 == code_2001 == 0
    assert abs(rss_2001 - rss_201) < 2 * 1024


# a command around one negative value that argparse alone reads as an
# unknown option, a number in exponent notation or a verify point:
# (before, flag, value, after)
NEGATIVE_EXPONENTS = {
    "check": (["check", "--nbar", "1", "--nq", "0.5", "--omega", "1", "--T", "1"],
              "--mu", "-1e-3", []),
    "map": (["map", "--plane", "omegaT_vs_r", "--x-min", "0.5", "--x-max", "2",
             "--x-points", "3"], "--y-min", "-1e-1",
            ["--y-max", "1e-1", "--y-points", "3", "--y-scale", "linear"]),
    "spectrum": (["spectrum", "--T", "1", "--k-min", "0.5", "--k-max", "2",
                  "--k-points", "3", "--tau-fin", "-0.5"], "--tau-in", "-5e1", []),
    "verify": (["verify"], "--point", "-0.5,1", [])}
# the negative infinity of each command's value, where it is not -inf
NEGATIVE_INFINITY = {"verify": "-inf,1"}


def negative_argv(pump_file, command, value, joined):
    """``NEGATIVE_EXPONENTS[command]`` with ``value``, as its own token or
    joined to its flag by ``=``; spectrum gets a de Sitter pump."""
    before, flag, _, after = NEGATIVE_EXPONENTS[command]
    argv = before + ([f"{flag}={value}"] if joined else [flag, value]) + after
    if command == "spectrum":
        argv += ["--pump", pump_file({"kind": "de_sitter"})]
    return argv


class TestNegativeNumbers:
    @pytest.mark.parametrize("command", NEGATIVE_EXPONENTS)
    def test_exponent_spelling_is_the_joined_one(self, pump_file, capsys, command):
        value = NEGATIVE_EXPONENTS[command][2]
        results = []
        for joined in (False, True):
            code = main(negative_argv(pump_file, command, value, joined))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]
        assert results[0][0] in (0, 2) and results[0][1] and not results[0][2]

    @pytest.mark.parametrize("command", NEGATIVE_EXPONENTS)
    def test_negative_infinity_is_one_error_line(self, pump_file, capsys, command):
        value = NEGATIVE_INFINITY.get(command, "-inf")
        code = main(negative_argv(pump_file, command, value, joined=False))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def assert_prints_as_fmt(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [cli._fmt(x).encode() for x in values.tolist()]
    assert printer.fmt_array(values).tolist() == expected


def with_neighbours(values):
    """The values, one ulp to either side, and all of those negated."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


class TestFmtArray:
    """``printer.fmt_array`` prints every finite double as ``cli._fmt`` does,
    byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_any_finite_floats(self, values):
        assert_prints_as_fmt(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_prints_as_fmt(values[np.isfinite(values)])

    def test_powers_of_ten(self):
        # float(1e-14), among others, lies below 10**-14 yet prints as 1e-14
        assert_prints_as_fmt(with_neighbours([float(f"1e{k}") for k in range(-300, 301)]))

    def test_exact_ties(self):
        # M / 2**f with M odd has the digits of M 5**f; with 18 of them the
        # 17-digit rounding is an exact tie, which rounds half to even
        ties = [m / 2**f for f in range(1, 26) for m in range(10**17 // 5**f | 1, 2**53, 2)[:40]
                if len(str(m * 5**f)) == 18]
        assert len(ties) > 500
        assert_prints_as_fmt(with_neighbours(ties))

    def test_notation_switch_points(self):
        assert_prints_as_fmt(with_neighbours([1e-5, 1e-4, 1e16, 1e17]))

    def test_integers_subnormals_and_zeros(self):
        integers = np.concatenate([2.0**53 + np.arange(0, 2000, 2),
                                   2.0**53 * 10.0 ** np.arange(11)])
        assert_prints_as_fmt(with_neighbours(integers))
        assert_prints_as_fmt(with_neighbours([5e-324, 1e-310, 2.2250738585072014e-308,
                                              1e-250, 1e250]))
        assert_prints_as_fmt([0.0, -0.0, 0.5, 1.0, 0.1, 123456789.0, 0.99999999999999989,
                              1.7976931348623157e308, -1.7976931348623157e308])

    def test_keeps_the_shape(self):
        values = np.arange(12.0).reshape(3, 4) - 5.5
        printed = printer.fmt_array(values)
        assert printed.shape == (3, 4)
        assert printed[2, 3].decode() == cli._fmt(values[2, 3])
