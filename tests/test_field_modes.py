import math

import numpy as np
import pytest

from ampbound import analytic, dynamics
from ampbound.analytic import Multiplicities, ThermalSpec
from ampbound.cli import main, spectrum_csv
from ampbound.fock_oracle import verify_grid
from conftest import DESITTER_KS, DESITTER_SPAN, CountingPump
from ampbound.field_modes import (
    ModeResult,
    ModeSpec,
    make_mode,
    mode_result_from_multiplicities,
    spectrum,
    total_entropy,
    total_heat,
    total_particles,
)
from field_modes_reference import mode_bound

T, MU = 1.0, 0.0  # the bath
EXTENSIVE = ("delta_S_k", "delta_Q_k", "delta_N_k")


def csv_columns(text):
    header, *rows = text.strip().split("\n")
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


class TestModeSpec:
    def test_conventions(self):
        assert make_mode(2.0).omega_k == 2.0
        assert make_mode(2.0, convention="sqrt_k_over_2").omega_k == 1.0
        with pytest.raises(ValueError):
            make_mode(2.0, convention="half")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSpec(k=0.0, omega_k=1.0)
        with pytest.raises(ValueError):
            ModeSpec(k=1.0, omega_k=0.0)

    @pytest.mark.parametrize("k, omega_k", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (math.nan, math.nan)])
    def test_rejects_non_finite(self, k, omega_k):
        with pytest.raises(ValueError, match="must be finite"):
            ModeSpec(k=k, omega_k=omega_k)


class TestForcedMultiplicities:
    def test_matches_two_oscillator_bound(self):
        # identical occupations must give the identical ratio
        mode = make_mode(math.log(2.0))
        res = mode_result_from_multiplicities(mode, T, MU, 1.0, math.asinh(1.0))
        spec = ThermalSpec(T=1.0, omega=math.log(2.0))
        report = analytic.bound_ratio(spec, Multiplicities(1.0, 1.0))
        assert res.ratio_k == pytest.approx(report.ratio, rel=1e-12)
        assert not res.satisfied

    def test_record_invariants(self):
        mode = make_mode(0.7)
        res = mode_result_from_multiplicities(mode, T, MU, 0.4, 0.9)
        assert res.N_bar_k == pytest.approx(res.n_q_k * (res.n_bar_k + 1.0), rel=1e-14)
        assert res.delta_N_k == res.N_bar_k
        assert res.delta_Q_k == pytest.approx(res.omega_k * res.delta_N_k, rel=1e-14)

    def test_overflowing_heat_raises(self):
        # spectrum turns this ValueError into the mode's error row
        with pytest.raises(ValueError, match="overflows"):
            mode_result_from_multiplicities(make_mode(1e308), T, MU, 1.0, 2.0)

    def test_subnormal_ratio_raises(self):
        # N_bar = 1 at omega_k = 1.7e308: a finite heat flow, a subnormal ratio
        with pytest.raises(ValueError, match="ratio underflows"):
            mode_result_from_multiplicities(make_mode(1.7e308), T, MU, 0.0, math.asinh(1.0))

    def test_satisfied_flag_equivalent_to_occupation_form(self):
        # the per-mode verdict coincides with the occupation-form condition,
        # straddling the boundary from both sides
        for (n_bar, r) in [(1.0, 0.2), (1.0, math.asinh(1.0)), (0.1, 1.8),
                           (5.0, 0.4), (0.01, 0.05)]:
            mode = make_mode(1.3)
            spec_k = ThermalSpec(T=1.0, omega=mode.omega_k)
            n_k = analytic.nbar_from_thermal(spec_k)
            res = mode_result_from_multiplicities(mode, T, MU, n_k, r)
            occupation = analytic.ratio_from_occupation(n_k, res.N_bar_k)
            assert res.satisfied == (occupation <= 1.0)
            if res.N_bar_k > 0:
                assert res.ratio_k == pytest.approx(occupation, rel=1e-12)


class TestModeBound:
    def test_silent_pump(self):
        res = mode_bound(make_mode(1.0), dynamics.PumpProfile.constant(0.0),
                         T, MU, 0.0, 2.0)
        assert res.r_k == 0.0
        assert res.delta_S_k == 0.0
        assert res.delta_Q_k == 0.0
        assert res.ratio_k == 0.0
        assert res.satisfied

    def test_sub_horizon_mode(self):
        # k |tau_fin| >> 1: negligible amplification, matching the exact modes
        mode = make_mode(50.0)
        res = mode_bound(mode, dynamics.PumpProfile.de_sitter(), T, MU,
                         -10.0, -2.0, tol=1e-12)
        exact = dynamics.desitter_exact_pair(50.0, -10.0, -2.0)
        assert res.n_q_k < 1e-3
        assert res.n_q_k == pytest.approx(abs(exact.v) ** 2, rel=1e-6)

    def test_monotone_constant_pump_response(self):
        # resonance-dominated regime (rate above the mode frequency): the
        # pair number grows monotonically with the integration length
        pump = dynamics.PumpProfile.constant(0.5, theta_in=-math.pi / 2.0)
        lengths = (0.5, 1.0, 2.0, 4.0)
        n_bars = [mode_bound(make_mode(0.01), pump, T, MU, 0.0, t, tol=1e-11).N_bar_k
                  for t in lengths]
        assert all(b >= a for a, b in zip(n_bars, n_bars[1:]))


class TestSpectrum:
    def test_single_mode_consistency(self):
        pump = dynamics.PumpProfile.de_sitter()
        results = spectrum([1.0], pump, T, MU, -20.0, -0.5, tol=1e-11)
        direct = mode_bound(make_mode(1.0), pump, T, MU, -20.0, -0.5, tol=1e-11)
        assert results[0].ratio_k == pytest.approx(direct.ratio_k, rel=1e-12)

    def test_silent_pump_totals(self):
        results = spectrum([0.5, 1.0, 2.0], dynamics.PumpProfile.constant(0.0),
                           T, MU, 0.0, 1.0)
        assert total_entropy(results) == 0.0
        assert all(res.satisfied for res in results)

    def test_requires_sorted_grid(self):
        with pytest.raises(ValueError):
            spectrum([1.0, 1.0], dynamics.PumpProfile.constant(0.0), T, MU, 0.0, 1.0)

    def test_graviton_doubles_extensive_sums_exactly(self):
        # one per-polarization result list; the count enters only at output
        results = spectrum([0.5, 1.0, 2.0], dynamics.PumpProfile.de_sitter(),
                           T, MU, -20.0, -0.5)
        assert total_entropy(results, 2) == 2.0 * total_entropy(results, 1)
        assert total_heat(results, 2) == 2.0 * total_heat(results, 1)
        assert total_particles(results, 2) == 2.0 * total_particles(results, 1)
        scalar = csv_columns(spectrum_csv(results, 1))
        tensor = csv_columns(spectrum_csv(results, 2))
        for s, t in zip(scalar, tensor):
            for name in EXTENSIVE:
                assert float(t[name]) == 2.0 * float(s[name])
            assert t["ratio_k"] == s["ratio_k"]

    @pytest.mark.parametrize("T, mu, tau_fin, tol", [
        (math.nan, 0.0, 1.0, 1e-10), (0.0, 0.0, 1.0, 1e-10), (-1.0, 0.0, 1.0, 1e-10),
        (1.0, math.inf, 1.0, 1e-10), (1.0, 0.0, -1.0, 1e-10), (1.0, 0.0, 1.0, -1.0)])
    def test_bad_bath_or_span_raises_before_any_mode(self, monkeypatch, T, mu, tau_fin, tol):
        def never(*args, **kwargs):
            raise AssertionError("a mode ran")

        # every solve, batched or one-mode, builds its step grid first
        monkeypatch.setattr(dynamics, "_step_grid", never)
        with pytest.raises(ValueError, match="must"):
            spectrum([0.5, 2.0], dynamics.PumpProfile.constant(0.5), T, mu, 0.0,
                     tau_fin, tol=tol)

    def test_nan_row_names_its_frequency(self):
        # the step's exponential squares omega, which overflows to a NaN pair
        res, = spectrum([1e155], dynamics.PumpProfile.constant(0.1), T, MU, 0.0, 1.0)
        assert res.error.startswith("unitarity broken: ")
        assert res.error.endswith(" scale nan after 1 steps (omega = 1e+155)")

    def test_desitter_rows_agree_with_the_static_oracle(self, pump_file, tmp_path):
        # the benchmark's 50 de Sitter modes: each row's closed forms are the
        # oracle record's at (n_bar_k, r_k, omega = k), the oracle meets
        # verify_grid's default gate and the graviton CSV doubles the row.
        # Below k = 0.5 the truncation outgrows the oracle's budget
        results = spectrum(DESITTER_KS, dynamics.PumpProfile.de_sitter(), T, MU,
                           *DESITTER_SPAN, tol=1e-10)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--graviton", "--pump", pump_file({"kind": "de_sitter"}),
                     "--T", "1", "--k-min", "0.1", "--k-max", "10", "--k-points", "50",
                     "--tau-in", "-50", "--tau-fin", "-0.1", "--out", str(out)]) == 0
        rows = csv_columns(out.read_text())
        checked = [(res, row) for res, row in zip(results, rows) if res.k >= 0.5]
        assert len(rows) == 50 and len(checked) == 32
        for res, row in checked:
            assert float(row["k"]) == res.k
            rec, = verify_grid([(res.n_bar_k, res.r_k)], omega=res.k)["records"]
            assert rec["pass"], rec
            for name in EXTENSIVE:
                assert rec[name[:-2] + "_analytic"] == getattr(res, name)
                assert float(row[name]) == 2.0 * getattr(res, name)

    def test_mode_errors_are_isolated(self):
        # with mu > 0 the low-k mode has omega_k below the chemical potential
        results = spectrum([0.5, 2.0], dynamics.PumpProfile.constant(0.0),
                           1.0, 1.0, 0.0, 1.0)
        assert "chemical potential" in results[0].error
        assert results[1].error is None
        assert total_entropy(results) == 0.0


class TestBatchedSpectrum:
    def test_thermal_failures_stay_out_of_the_batch(self, monkeypatch):
        # mu = 1.5 lies between the second and third mode frequencies
        pump, span, grid = dynamics.PumpProfile.de_sitter(), (-20.0, -0.5), [0.5, 1.0, 2.0, 4.0]
        batches = []
        solve = dynamics.integrate_modes
        monkeypatch.setattr(
            dynamics, "integrate_modes",
            lambda p, omegas, *a: batches.append(list(omegas)) or solve(p, omegas, *a))
        results = spectrum(grid, pump, T, 1.5, *span, tol=1e-10)
        assert batches == [[2.0, 4.0]]
        assert all("chemical potential" in res.error for res in results[:2])
        for res in results[2:]:
            alone = mode_bound(make_mode(res.k), pump, T, 1.5, *span, tol=1e-10)
            assert res.error is None
            for name in ("r_k", "n_q_k", "delta_S_k", "ratio_k"):
                assert getattr(res, name) == pytest.approx(getattr(alone, name), rel=1e-8)

    @pytest.mark.parametrize("grid, pump, span", [
        # every mode fails alone: a huge pump, a span over the de Sitter pole
        ([0.1, 1.0, 10.0], dynamics.PumpProfile.constant(1e300), (-50.0, -0.1)),
        ([0.5, 2.0], dynamics.PumpProfile.de_sitter(), (-1.0, 1.0)),
        # only the mode at omega = 1e300 fails alone, and it fails the batch
        ([1.0, 1e300], dynamics.PumpProfile.de_sitter(), (-20.0, -0.5))])
    def test_failed_batch_gives_one_mode_rows(self, grid, pump, span):
        results = spectrum(grid, pump, T, MU, *span)
        for res in results:
            try:
                alone = mode_bound(make_mode(res.k), pump, T, MU, *span)
            except (dynamics.PumpError, dynamics.IntegrationError) as exc:
                assert res.error == str(exc)
            else:
                assert res == alone

    def test_pump_calls_of_one_mode(self, desitter_one_mode):
        # one pump call per block of steps serves every mode: the 50-mode
        # grid costs less than twice its slowest mode, where one solve per
        # mode costs the sum over modes, about 19 times as much
        pump = CountingPump(dynamics.PumpProfile.de_sitter())
        spectrum(DESITTER_KS, pump, T, MU, *DESITTER_SPAN, tol=1e-10)
        assert pump.calls < 2 * max(desitter_one_mode[1])

    def test_bad_input_integrates_nothing(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a mode ran")

        monkeypatch.setattr(dynamics, "integrate_modes", never)
        for T_bad, tol in ((0.0, 1e-10), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must"):
                spectrum([0.5, 2.0], dynamics.PumpProfile.constant(0.5), T_bad, MU, 0.0,
                         1.0, tol=tol)


class TestTotals:
    def test_empty(self):
        assert total_entropy([]) == 0.0

    def test_two_unit_modes(self):
        mode = make_mode(1.0)
        res = mode_result_from_multiplicities(mode, T, MU, 0.0, math.asinh(1.0))
        assert total_entropy([res, res]) == pytest.approx(4 * math.log(2.0), rel=1e-12)
        assert total_entropy([res, res], polarizations=2) == pytest.approx(
            8 * math.log(2.0), rel=1e-12)


class TestCsv:
    def test_layout_and_precision(self):
        mode = make_mode(1.0)
        res = mode_result_from_multiplicities(mode, T, MU, 0.3, 0.7)
        text = spectrum_csv([res])
        header, row = text.strip().split("\n")
        assert header == ("k,r_k,n_bar_k,n_q_k,N_bar_k,delta_S_k,delta_Q_k,"
                          "delta_N_k,ratio_k,satisfied,error")
        fields = row.split(",")
        assert float(fields[1]) == res.r_k
        assert fields[-2] in ("true", "false")
        assert fields[-1] == ""

    def test_graviton_column_and_doubling(self):
        mode = make_mode(1.0)
        res = mode_result_from_multiplicities(mode, T, MU, 0.3, 0.7)
        text = spectrum_csv([res], polarizations=2)
        header, row = text.strip().split("\n")
        assert "polarizations" in header.split(",")
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["delta_S_k"]) == pytest.approx(2 * res.delta_S_k, rel=1e-15)
        assert fields["polarizations"] == "2"

    @pytest.mark.parametrize("polarizations", [0, 3])
    def test_rejects_polarization_count(self, polarizations):
        res = mode_result_from_multiplicities(make_mode(1.0), T, MU, 0.3, 0.7)
        with pytest.raises(ValueError, match="1 \\(scalar\\) or 2 \\(tensor\\)"):
            spectrum_csv([res], polarizations)

    def test_error_row(self):
        res = ModeResult.failed(make_mode(1.0), "boom, with comma")
        text = spectrum_csv([res])
        row = text.strip().split("\n")[1]
        assert row.endswith("boom; with comma")

    def test_deterministic(self):
        mode = make_mode(2.0)
        res = mode_result_from_multiplicities(mode, T, MU, 0.3, 0.7)
        assert spectrum_csv([res]) == spectrum_csv([res])
