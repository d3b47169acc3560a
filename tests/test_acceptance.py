"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing a PASS line
once its assertions hold (run with ``pytest tests/test_acceptance.py -v -s``
to see every line; a failure shows up as a normal pytest failure).
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from ampbound import analytic, cli, dynamics, field_modes, fock_oracle
from ampbound.analytic import Multiplicities, ThermalSpec

from analytic_reference import environment_pgf, written_ratio
from conftest import FRONTIER_GRID, ORACLE_GRID
from dense_reference import dense_reductions, ket_to_dense, max_offdiagonal
import dynamics_reference as dyn_ref
import su11_reference as su11_ref


def report_line(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_entropy_equivalence(oracle_grid_report):
    worst = 0.0
    for rec in oracle_grid_report["records"]:
        assert "error" not in rec, rec
        err = abs(rec["delta_S_analytic"] - rec["delta_S_oracle"])
        worst = max(worst, err)
        assert err <= 1e-8
    assert oracle_grid_report["truncation_tolerance"] == 1e-12
    assert oracle_grid_report["runtime_s"] < 60.0
    report_line(1, f"oracle entropy matches closed form on the 9-point grid, "
                   f"worst |diff| = {worst:.2e} <= 1e-8 "
                   f"({oracle_grid_report['runtime_s']:.1f}s)")


def test_criterion_02_heat_and_particle_equivalence(oracle_grid_report):
    worst_q = worst_n = 0.0
    for rec in oracle_grid_report["records"]:
        rel_q = abs(rec["delta_Q_analytic"] - rec["delta_Q_oracle"]) / rec["delta_Q_analytic"]
        rel_n = abs(rec["delta_N_analytic"] - rec["delta_N_oracle"]) / rec["delta_N_analytic"]
        worst_q, worst_n = max(worst_q, rel_q), max(worst_n, rel_n)
        assert rel_q <= 1e-8
        assert rel_n <= 1e-8
    report_line(2, f"oracle heat/particle flows match, worst rel diff "
                   f"Q = {worst_q:.2e}, N = {worst_n:.2e} <= 1e-8")


def test_criterion_03_reduced_matrices_diagonal():
    # the oracle keeps reduced states as occupation distributions, so
    # diagonality is checked on the label-blind dense reduction of the same
    # joint state, built with phases from the reference double sum, at the
    # grid points whose dense product basis stays small
    points = [(0.5, 0.3), (1.0, 0.3), (2.0, 0.3)]
    worst = 0.0
    for n_bar, r in points:
        trunc = fock_oracle.choose_truncation(n_bar, r, 1e-12)
        _, rho_s, rho_e = dense_reductions(
            *su11_ref.joint_kets(n_bar, su11_ref.SqueezeParams(r=r, theta=0.9), trunc))
        worst = max(worst, max_offdiagonal(rho_s), max_offdiagonal(rho_e))
    assert worst < 1e-10
    report_line(3, f"dense reduced matrices diagonal at {len(points)} grid "
                   f"points, max off-diagonal modulus {worst:.1e} < 1e-10")


def test_criterion_04_purity():
    # gating part: assembled joint purity at r = 0 equals 1/(2 n_bar + 1)
    for n_bar in (0.5, 1.0, 2.0):
        rec = fock_oracle.verify_point(n_bar, 0.0, tolerance=1e-12)
        assert abs(rec["purity_oracle"] - 1.0 / (2.0 * n_bar + 1.0)) <= 1e-10
    # reported, non-gating part: the closed-form expression over the grid,
    # with the cold-environment discrepancy explicitly present
    points = list(ORACLE_GRID) + [(0.0, math.asinh(1.0))]
    report = fock_oracle.verify_grid(points, tolerance=1e-8)
    assert report["pass"]  # purity disagreement must not gate
    cold = report["records"][-1]
    assert cold["purity_oracle"] == pytest.approx(1.0, abs=1e-10)
    assert cold["purity_formula"] == pytest.approx(4.0 / 9.0, rel=1e-10)
    disagreements = sum(
        1 for rec in report["records"]
        if abs(rec["purity_oracle"] - rec["purity_formula"]) > 1e-3)
    assert disagreements >= 9
    report_line(4, "thermal-only purity 1/(2n+1) to 1e-10; closed-form purity "
                   "comparison reported (cold-environment row: oracle 1.0 vs "
                   "formula 4/9) without gating")


def test_criterion_05_pgf_marginals():
    m = Multiplicities(0.7, 1.1)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert environment_pgf(m, s, 1.0) == pytest.approx(
            1.0 / (1.0 + (1.0 - s) * m.n_bar), rel=1e-12)
        assert environment_pgf(m, 1.0, s) == pytest.approx(
            1.0 / (1.0 + (1.0 - s) * m.N_bar), rel=1e-12)
    h = 1e-6
    mean_m = (environment_pgf(m, 1.0, 1.0) - environment_pgf(m, 1.0 - h, 1.0)) / h
    mean_l = (environment_pgf(m, 1.0, 1.0) - environment_pgf(m, 1.0, 1.0 - h)) / h
    assert abs(mean_m - m.n_bar) <= 1e-5
    assert abs(mean_l - m.N_bar) <= 1e-5
    report_line(5, "generating-function marginals are Bose-Einstein with "
                   "means n_bar and N_bar; finite-difference means within 1e-5")


def test_criterion_06_ratio_form_identity(rng):
    # both forms evaluate one kernel; the independent side is the written
    # temperature form, accurate at these N_bar
    n_bar = 10.0 ** rng.uniform(-3, 3, size=10_000)
    N_bar = 10.0 ** rng.uniform(-3, 4, size=10_000)
    worst = 0.0
    for nb, N in zip(n_bar, N_bar):
        omega = math.log1p(1.0 / nb)
        written = written_ratio(1.0, omega, 0.0, N)
        for ratio in (analytic.ratio_from_temperature(1.0, omega, 0.0, N),
                      analytic.ratio_from_occupation(nb, N)):
            rel = abs(ratio - written) / written
            worst = max(worst, rel)
            assert rel <= 1e-12
    report_line(6, f"temperature and occupation ratio forms agree with the "
                   f"written temperature form over 1e4 random points, worst "
                   f"rel diff {worst:.1e} <= 1e-12")


def test_criterion_07_regime_checks():
    violated = analytic.bound_ratio(ThermalSpec(T=1.0, omega=math.log(2.0)),
                                    Multiplicities(1.0, 1.0))
    satisfied = analytic.bound_ratio(ThermalSpec(T=1.0, omega=math.log(11.0)),
                                     Multiplicities(0.1, 10.0))
    assert violated.ratio == pytest.approx(1.37744, abs=1e-4)
    assert not violated.satisfied
    assert satisfied.ratio == pytest.approx(0.13049, abs=1e-4)
    assert satisfied.satisfied
    report_line(7, f"ratio(1,1) = {violated.ratio:.5f} (violated), "
                   f"ratio(0.1,10) = {satisfied.ratio:.5f} (satisfied)")


def test_criterion_08_boundary_versus_simplified_condition():
    n_bar = 100.0
    exact_root = brentq(
        lambda n_q: analytic.ratio_from_occupation(n_bar, n_q * (n_bar + 1.0)) - 1.0,
        1.0, 20.0, xtol=1e-12)
    simple_root = brentq(lambda x: n_bar * x - math.exp(x), 2.0, 20.0, xtol=1e-12)
    rel = abs(exact_root - simple_root) / exact_root
    assert 7.0 < exact_root < 8.5
    assert 6.0 < simple_root < 7.0
    assert rel < 0.30
    report_line(8, f"boundary root n_q = {exact_root:.3f} vs simplified "
                   f"condition root {simple_root:.3f}, rel gap {rel:.1%} < 30%")


def test_criterion_09_mu_grid_byte_identity(tmp_path):
    ranges = ["--x-min", "0.01", "--x-max", "100", "--x-points", "41",
              "--y-min", "0.01", "--y-max", "100", "--y-points", "41"]
    out0 = tmp_path / "occupation_mu0.csv"
    out1 = tmp_path / "occupation_mu05.csv"
    assert cli.main(["map", "--plane", "nbar_vs_nq", *ranges,
                     "--mu", "0", "--out", str(out0)]) == 0
    assert cli.main(["map", "--plane", "nbar_vs_nq", *ranges,
                     "--mu", "0.5", "--out", str(out1)]) == 0
    assert out0.read_bytes() == out1.read_bytes()
    report_line(9, "occupation-plane grids with and without chemical "
                   "potential are byte-identical")


def test_criterion_10_dynamics():
    t0 = time.time()
    pump = dynamics.PumpProfile.constant(0.5, theta_in=0.3)
    for dt in (0.5, 2.0, 5.0):
        cf_s, cf_e = dyn_ref.closed_form_qm(pump, 1.3, 0.9, 0.0, dt)
        it_s, it_e = dynamics.integrate_qm(pump, 1.3, 0.9, 0.0, dt, tol=1e-12)
        for cf, it in ((cf_s, it_s), (cf_e, it_e)):
            assert abs(cf.u - it.u) <= 1e-8
            assert abs(cf.v - it.v) <= 1e-8
        assert it_s.unitarity_defect() < 1e-9

    pair10 = dynamics.integrate_uv(dynamics.PumpProfile.constant(0.5), 0.0,
                                   0.0, 2.0, tol=1e-10)
    assert dynamics.extract_squeeze(pair10).r == pytest.approx(1.0, abs=1e-8)
    assert pair10.unitarity_defect() < 1e-9

    worst = 0.0
    for (k, ti, tf) in [(1.0, -50.0, -0.1), (1.0, -100.0, -0.01), (2.0, -30.0, -0.05)]:
        exact = dynamics.desitter_exact_pair(k, ti, tf)
        num = dynamics.integrate_uv(dynamics.PumpProfile.de_sitter(), k, ti, tf,
                                    tol=1e-12)
        rel = abs(num.n_pairs - exact.n_pairs) / exact.n_pairs
        worst = max(worst, rel)
        assert rel <= 1e-6
    runtime = time.time() - t0
    assert runtime < 10.0
    report_line(10, f"constant pump matches closed form to 1e-8, drift < 1e-9, "
                    f"de Sitter |v|^2 within {worst:.1e} of exact modes "
                    f"({runtime:.1f}s)")


def test_criterion_11_squeeze_flow_residuals():
    pump = dynamics.PumpProfile.de_sitter()
    times, u, v = dyn_ref.trajectory(pump, 1.0, -30.0, -0.8, tol=1e-12, samples=60001)
    r = np.arcsinh(np.abs(v))
    delta = np.unwrap(-np.angle(u))
    theta = np.unwrap(np.angle(v) - np.angle(u))
    h = times[1] - times[0]

    def diff5(f):
        return (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)

    hub = -np.imag(pump(times[2:-2]))
    dr, ddelta, dtheta = dyn_ref.squeeze_flow_rhs(
        r[2:-2], delta[2:-2], theta[2:-2], 1.0, hub)
    mask = r[2:-2] >= 0.05
    residuals = (np.abs(diff5(r) - dr)[mask].max(),
                 np.abs(diff5(delta) - ddelta)[mask].max(),
                 np.abs(diff5(theta) - dtheta)[mask].max())
    assert max(residuals) <= 1e-5
    report_line(11, f"squeeze-variable flow satisfied along the trajectory, "
                    f"max residual {max(residuals):.1e} <= 1e-5 (r >= 0.05)")


def test_criterion_12_su11_algebra():
    n = 30
    kp = su11_ref.k_plus_matrix(n, n)
    km = su11_ref.k_minus_matrix(n, n)
    k0 = su11_ref.k_zero_matrix(n, n)
    inner = np.zeros(n * n, dtype=bool)
    for ns in range(n - 2):
        for ne in range(n - 2):
            inner[su11_ref.basis_index(ns, ne, n)] = True
    assert np.abs((k0 @ kp - kp @ k0 - kp)[:, inner]).max() <= 1e-9
    assert np.abs((kp @ km - km @ kp + 2 * k0)[:, inner]).max() <= 1e-9

    p = su11_ref.SqueezeParams(r=0.5, theta=0.9)
    f = su11_ref.bch_factors(p)
    direct = expm(su11_ref.squeeze_generator(p.r * np.exp(1j * p.theta), n, n))
    product = (expm(f.plus_coeff * kp)
               @ np.diag(np.exp(f.zero_coeff * np.diag(k0)))
               @ expm(f.minus_coeff * km))
    deep = np.zeros(n * n, dtype=bool)
    for ns in range(n - 20):
        for ne in range(n - 20):
            deep[su11_ref.basis_index(ns, ne, n)] = True
    bch_err = np.abs(direct - product)[np.ix_(deep, deep)].max()
    assert bch_err <= 1e-9

    trunc = fock_oracle.TruncationSpec(max_thermal=0, max_squeeze=20, tolerance=1e-6)
    for (ms, me) in [(0, 2), (2, 5), (3, 3)]:
        ket = su11_ref.evolve_basis_state(ms, me, su11_ref.SqueezeParams(r=0.9, theta=0.4),
                                      trunc, tail_tol=1.0)
        dense = ket_to_dense(ket, 40, 40)
        for ns in range(40):
            for ne in range(40):
                if ne - ns != me - ms:
                    assert dense[ns * 40 + ne] == 0.0  # identically zero
    report_line(12, f"commutators exact on interior, factorization matches the "
                    f"exponential to {bch_err:.1e} <= 1e-9, charge "
                    f"superselection holds with exact zeros")


def test_criterion_13_field_mode_consistency():
    worst = 0.0
    for (n_bar, r, k) in [(1.0, math.asinh(1.0), math.log(2.0)),
                          (0.3, 0.7, 2.0), (2.0, 1.2, 0.4)]:
        mode = field_modes.make_mode(k)
        res = field_modes.mode_result_from_multiplicities(mode, 1.0, 0.0, n_bar, r)
        ref = analytic.bound_ratio(ThermalSpec(T=1.0, omega=k),
                                   Multiplicities.from_squeeze(n_bar, r))
        rel = abs(res.ratio_k - ref.ratio) / ref.ratio
        worst = max(worst, rel)
        assert rel <= 1e-12

    # one per-polarization result list; the count enters only at output
    results = field_modes.spectrum([0.5, 1.0, 2.0], dynamics.PumpProfile.de_sitter(),
                                   1.0, 0.0, -20.0, -0.5)
    for total in (field_modes.total_entropy, field_modes.total_heat,
                  field_modes.total_particles):
        assert total(results, 2) == 2.0 * total(results, 1)
    scalar, tensor = (cli.spectrum_csv(results, p).strip().split("\n") for p in (1, 2))
    assert len(scalar) == len(tensor) == 4
    for s_row, t_row in zip(scalar[1:], tensor[1:]):
        s_col = dict(zip(scalar[0].split(","), s_row.split(",")))
        t_col = dict(zip(tensor[0].split(","), t_row.split(",")))
        for name in ("delta_S_k", "delta_Q_k", "delta_N_k"):
            assert float(t_col[name]) == 2.0 * float(s_col[name])
        assert t_col["ratio_k"] == s_col["ratio_k"]
    report_line(13, f"forced-occupation mode bound equals the two-oscillator "
                    f"ratio (worst rel diff {worst:.1e} <= 1e-12); graviton "
                    f"CSV and sums double the scalar extensive values exactly")


def test_criterion_14_oracle_frontier():
    # points deep into amplification, with ladder cutoffs in the thousands,
    # then a diagonal of the nbar_vs_r map plane, all at truncation
    # tolerance 1e-12
    t0 = time.time()
    report = fock_oracle.verify_grid(FRONTIER_GRID, tolerance=1e-8,
                                     truncation_tolerance=1e-12)
    worst = 0.0
    for rec in report["records"]:
        assert "error" not in rec, rec
        assert rec["pass"], rec
        worst = max(worst, abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]))
    assert report["pass"]
    largest = max(rec["L"] for rec in report["records"])
    with pytest.raises(fock_oracle.TruncationInfeasibleError):
        fock_oracle.choose_truncation(1.0, 2.5, 1e-12, budget=10_000)
    runtime = time.time() - t0
    report_line(14, f"oracle passes at (5,1.5), (20,1), (1,2.5), (1,3), "
                    f"(10,2.25) and along the nbar_vs_r diagonal up to "
                    f"(10,1.75), worst |dS| = "
                    f"{worst:.1e}, ladder cutoff up to {largest} "
                    f"({runtime:.1f}s); a 1e4-entry budget stays infeasible")
