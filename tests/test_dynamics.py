import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ampbound import dynamics as dyn
from ampbound.dynamics import (
    BogoliubovPair,
    IntegrationError,
    PumpError,
    PumpProfile,
    SingularPumpError,
    SqueezeTriple,
    closed_form_qm,
    desitter_exact_pair,
    extract_squeeze,
    integrate_qm,
    integrate_uv,
    reconstruct_pair,
    squeeze_flow_rhs,
    uv_trajectory,
)
from conftest import MALFORMED_PUMPS, NON_FINITE_PUMPS, run_python

BAD_SPANS = [  # (t_in, t_fin, tol)
    (0.0, 1.0, math.nan), (0.0, 1.0, 0.0), (0.0, 1.0, math.inf), (0.0, 1.0, -1.0),
    (math.nan, 1.0, 1e-10), (0.0, math.nan, 1e-10), (0.0, math.inf, 1e-10),
    (-math.inf, 1.0, 1e-10), (1.0, 0.0, 1e-10)]


def pulse_area(amplitude, center, width, t0, t1):
    # integral of the gaussian rate, the independent quadrature for r
    scale = amplitude * width * math.sqrt(math.pi / 2.0)
    return scale * (math.erf((t1 - center) / (math.sqrt(2) * width))
                    - math.erf((t0 - center) / (math.sqrt(2) * width)))


class TestPumpProfile:
    def test_constant_value(self):
        pump = PumpProfile.constant(0.5, theta_in=math.pi / 2)
        assert pump(3.0) == pytest.approx(0.5j, abs=1e-15)

    def test_gaussian_pulse_peak(self):
        pump = PumpProfile.gaussian_pulse(2.0, center=1.0, width=0.5)
        assert pump(1.0) == pytest.approx(2.0)
        assert abs(pump(10.0)) < 1e-60

    def test_de_sitter_sign(self):
        pump = PumpProfile.de_sitter()
        # expanding background: positive imaginary coupling on tau < 0
        assert pump(-2.0) == pytest.approx(0.5j)

    def test_de_sitter_singular_interval(self):
        with pytest.raises(SingularPumpError):
            integrate_uv(PumpProfile.de_sitter(), 1.0, -1.0, 1.0)

    def test_tabulated_interpolation_and_coverage(self):
        pump = PumpProfile.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert pump(0.5) == pytest.approx(0.5)
        with pytest.raises(PumpError):
            pump.validate_interval(-1.0, 1.0)

    def test_tabulated_requires_increasing_times(self):
        with pytest.raises(PumpError):
            PumpProfile.tabulated([0.0, 0.0], [1.0, 1.0])

    def test_config_roundtrip(self, pump_file):
        specs = [
            {"kind": "constant", "q0": 0.5, "theta_in": 0.25},
            {"kind": "gaussian_pulse", "amplitude": 1.0, "center": 0.0, "width": 2.0},
            {"kind": "de_sitter", "strength": 0.5},
            {"kind": "tabulated", "samples": [[0.0, 0.1], [1.0, 0.2]], "theta_in": 0.0},
        ]
        for spec in specs:
            pump = PumpProfile.from_config(pump_file(spec))
            assert pump.kind == spec["kind"]

    def test_unknown_kind(self):
        with pytest.raises(PumpError):
            PumpProfile.from_dict({"kind": "sawtooth"})

    @pytest.mark.parametrize("spec", NON_FINITE_PUMPS)
    def test_non_finite_config_rejected(self, pump_file, spec):
        # json reads NaN and Infinity; either one would stall the integrator
        with pytest.raises(PumpError, match="finite"):
            PumpProfile.from_config(pump_file(spec))

    @pytest.mark.parametrize("make", [
        lambda: PumpProfile.constant(math.inf),
        lambda: PumpProfile.gaussian_pulse(1.0, math.nan, 1.0),
        lambda: PumpProfile.de_sitter(-math.inf),
        lambda: PumpProfile.tabulated([0.0, 1.0], [0.0, math.nan], theta_in=0.1)])
    def test_non_finite_constructor_rejected(self, make):
        with pytest.raises(PumpError, match="finite"):
            make()

    @pytest.mark.parametrize("spec, field", MALFORMED_PUMPS)
    def test_malformed_config_names_the_field(self, spec, field):
        with pytest.raises(PumpError, match=field):
            PumpProfile.from_dict(spec)


class TestIntegrateUv:
    def test_free_evolution(self):
        pair = integrate_uv(PumpProfile.constant(0.0), 2.0, 0.0, 1.5, tol=1e-12)
        assert pair.u == pytest.approx(np.exp(-2.0 * 1.5j), abs=1e-11)
        assert abs(pair.v) < 1e-12

    def test_resonant_constant_pump(self):
        # at omega = 0 the constant pump is exactly resonant: |v| = sinh(q dt)
        pair = integrate_uv(PumpProfile.constant(0.5), 0.0, 0.0, 2.0, tol=1e-12)
        assert pair.n_pairs == pytest.approx(math.sinh(1.0) ** 2, abs=1e-8)
        assert extract_squeeze(pair).r == pytest.approx(1.0, abs=1e-9)

    def test_unitarity_drift(self):
        pair = integrate_uv(PumpProfile.constant(0.5), 0.7, 0.0, 5.0, tol=1e-10)
        assert pair.unitarity_defect() < 1e-9

    def test_zero_length_interval(self):
        pair = integrate_uv(PumpProfile.constant(0.5), 1.0, 2.0, 2.0)
        assert (pair.u, pair.v) == (1.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_uv(PumpProfile.constant(0.5), 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("t_in, t_fin, tol", BAD_SPANS)
    def test_span_check_rejects(self, t_in, t_fin, tol):
        with pytest.raises(ValueError, match="must"):
            dyn.check_span(t_in, t_fin, tol)

    def test_unsolvable_spans_raise_instead_of_hanging(self):
        # NaN, zero and infinite tolerances and non-finite bounds keep DOP853
        # stepping forever, so every solver entry point must raise first
        code = f"""
import json
from ampbound import dynamics as dyn
pump = dyn.PumpProfile.constant(0.5)
solvers = [lambda a, b, tol: dyn.integrate_uv(pump, 1.0, a, b, tol),
           lambda a, b, tol: dyn.uv_trajectory(pump, 1.0, a, b, tol, samples=3),
           lambda a, b, tol: dyn.integrate_qm(pump, 1.0, 1.0, a, b, tol)]
raised = []
for span in json.loads({json.dumps(BAD_SPANS)!r}):
    for solve in solvers:
        try:
            solve(*span)
            raised.append(None)
        except ValueError as exc:
            raised.append(str(exc))
print(json.dumps(raised))
"""
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        raised = json.loads(result.stdout)
        assert len(raised) == 3 * len(BAD_SPANS)
        assert all(msg and "must" in msg for msg in raised), raised

    def test_guard_window_counts_accepted_steps(self, monkeypatch):
        # the unitarity window scales with the steps the integrator accepted;
        # the endpoint and the sampled solver both run the same DOP853 solve,
        # and the resonant system guards each of its two pairs
        pump = PumpProfile.gaussian_pulse(0.4, center=0.0, width=1.5)
        ref = solve_ivp(dyn._bogoliubov_rhs(pump, (1.3, 1.3)), (-8.0, 8.0),
                        [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12)
        ref_qm = solve_ivp(dyn._bogoliubov_rhs(pump, (1.3, 1.3, 0.9, 0.9), 2.2),
                           (-8.0, 8.0), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                           method="DOP853", rtol=1e-12, atol=1e-12)
        seen = []
        guard = dyn._check_unitarity

        def spy(pair, tol, steps):
            seen.append(steps)
            guard(pair, tol, steps)

        monkeypatch.setattr(dyn, "_check_unitarity", spy)
        integrate_uv(pump, 1.3, -8.0, 8.0, tol=1e-12)
        uv_trajectory(pump, 1.3, -8.0, 8.0, tol=1e-12, samples=101)
        integrate_qm(pump, 1.3, 0.9, -8.0, 8.0, tol=1e-12)
        assert seen == [len(ref.t) - 1] * 2 + [len(ref_qm.t) - 1] * 2

    def test_time_reversal_returns_to_vacuum(self):
        # reflect the trajectory: negated pump and frequency, run forward
        pump = PumpProfile.gaussian_pulse(0.8, center=1.0, width=0.4)
        omega, t0, t1 = 1.3, 0.0, 2.0
        fwd = integrate_uv(pump, omega, t0, t1, tol=1e-10)

        def reflected(s):
            return -pump(t1 + t0 - s)

        sol = solve_ivp(dyn._bogoliubov_rhs(reflected, (-omega, -omega)), (t0, t1),
                        [fwd.u.real, fwd.u.imag, fwd.v.real, fwd.v.imag],
                        method="DOP853", rtol=1e-10, atol=1e-10)
        y = sol.y[:, -1]
        back = BogoliubovPair(u=complex(y[0], y[1]), v=complex(y[2], y[3]))
        assert abs(back.u - 1.0) < 1e-7
        assert abs(back.v) < 1e-7

    def test_zero_length_trajectory_is_the_vacuum(self):
        times, u, v = uv_trajectory(PumpProfile.constant(0.5), 1.0, 1.0, 1.0, samples=5)
        assert times.shape == u.shape == v.shape == (5,)
        assert np.all(times == 1.0)
        assert np.all(u == 1.0) and np.all(v == 0.0)

    def test_rhs_is_the_written_system(self):
        # each amplitude is driven by the conjugate of its mirror: for the
        # resonant pair u_s by v_e, v_s by u_e, under the pump's carrier;
        # the real arithmetic rounds as the scalar complex products do
        pump = PumpProfile.constant(0.5, theta_in=0.3)
        omega_s, omega_e, t = 1.3, 0.9, 0.7
        z = np.array([0.3 + 0.2j, -0.1 + 0.4j, 0.8 - 0.5j, 0.25 + 0.6j])
        us, vs, ue, ve = z
        w = 1j * pump(t) * np.exp(-1j * (omega_s + omega_e) * t)
        written = [-1j * omega_s * us + w * np.conj(ve),
                   -1j * omega_s * vs + w * np.conj(ue),
                   -1j * omega_e * ue + w * np.conj(vs),
                   -1j * omega_e * ve + w * np.conj(us)]
        rhs = dyn._bogoliubov_rhs(pump, (omega_s, omega_s, omega_e, omega_e),
                                  omega_s + omega_e)
        got = rhs(t, z.view(float)).view(complex)
        np.testing.assert_array_equal(got, written)


KNOT_TIMES = np.linspace(0.0, 14.0, 15)
KNOT_PUMP = PumpProfile.tabulated(KNOT_TIMES, 0.3 + 0.2 * np.sin(KNOT_TIMES), theta_in=0.2)


def knot_to_knot_reference(pump, omega, tol=1e-13):
    """``(u, v)`` from DOP853 solves of the written complex system, one per
    knot interval of a tabulated pump, each restarted where the last ended."""
    def rhs(t, y):
        u, v = complex(y[0], y[1]), complex(y[2], y[3])
        g = complex(pump(t))
        du = -1j * omega * u + 1j * g * v.conjugate()
        dv = -1j * omega * v + 1j * g * u.conjugate()
        return [du.real, du.imag, dv.real, dv.imag]

    y = [1.0, 0.0, 0.0, 0.0]
    for a, b in zip(pump.times, pump.times[1:]):
        y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=tol, atol=tol).y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


class TestTabulatedKnots:
    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8])
    def test_tolerance_governs_error_across_knots(self, tol):
        # stepping across the kinks left errors of 40, 290 and 29 times tol
        u, v = knot_to_knot_reference(KNOT_PUMP, 0.7)
        pair = integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, tol)
        assert max(abs(pair.u - u), abs(pair.v - v)) <= tol * abs(u)

    @pytest.mark.parametrize("t_in, t_fin, spans", [
        (0.0, 14.0, [(float(a), float(b)) for a, b in zip(KNOT_TIMES, KNOT_TIMES[1:])]),
        (2.5, 4.5, [(2.5, 3.0), (3.0, 4.0), (4.0, 4.5)]),
        (3.0, 4.0, [(3.0, 4.0)]),
        (2.25, 2.75, [(2.25, 2.75)])])
    def test_span_split_at_interior_knots_only(self, monkeypatch, t_in, t_fin, spans):
        import scipy.integrate

        seen = []
        solve = scipy.integrate.solve_ivp
        monkeypatch.setattr(scipy.integrate, "solve_ivp",
                            lambda fun, span, *a, **k: seen.append(span) or solve(fun, span, *a, **k))
        integrate_uv(KNOT_PUMP, 0.7, t_in, t_fin, 1e-10)
        assert seen == spans

    def test_span_without_interior_knot_is_one_solve(self):
        # bit for bit the single DOP853 solve over the whole span
        ref = solve_ivp(dyn._bogoliubov_rhs(KNOT_PUMP, (0.7, 0.7)), (3.0, 4.0),
                        [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-10)
        pair = integrate_uv(KNOT_PUMP, 0.7, 3.0, 4.0, 1e-10)
        y = ref.y[:, -1]
        assert (pair.u, pair.v) == (complex(y[0], y[1]), complex(y[2], y[3]))

    def test_guard_counts_steps_of_every_segment(self, monkeypatch):
        rhs = dyn._bogoliubov_rhs(KNOT_PUMP, (0.7, 0.7))
        y, total = [1.0, 0.0, 0.0, 0.0], 0
        for a, b in zip(KNOT_TIMES, KNOT_TIMES[1:]):
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-10, atol=1e-10)
            y, total = sol.y[:, -1], total + len(sol.t) - 1
        seen = []
        guard = dyn._check_unitarity
        monkeypatch.setattr(dyn, "_check_unitarity",
                            lambda pair, tol, steps: seen.append(steps) or guard(pair, tol, steps))
        integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10)
        uv_trajectory(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10, samples=29)
        assert seen == [total, total]

    def test_trajectory_samples_across_knots(self):
        # 29 samples put every other one on a knot
        times, u, v = uv_trajectory(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10, samples=29)
        np.testing.assert_array_equal(times, np.linspace(0.0, 14.0, 29))
        assert u.shape == v.shape == (29,)
        assert (u[0], v[0]) == (1.0, 0.0)
        pair = integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10)
        assert abs(u[-1] - pair.u) <= 1e-12 and abs(v[-1] - pair.v) <= 1e-12
        half = integrate_uv(KNOT_PUMP, 0.7, 0.0, 7.0, 1e-10)
        assert abs(u[14] - half.u) <= 1e-9 and abs(v[14] - half.v) <= 1e-9


class TestHugePump:
    @pytest.mark.parametrize("pump", [
        PumpProfile.constant(1e300), PumpProfile.gaussian_pulse(1e200, -10.0, 1.0),
        PumpProfile.de_sitter(1e300)])
    def test_fails_without_warnings(self, pump):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step size"):
                integrate_uv(pump, 1.0, -50.0, -0.1)


class TestQmSystem:
    def test_closed_form_against_integration(self):
        pump = PumpProfile.constant(0.5, theta_in=0.3)
        for dt in (0.0, 0.5, 2.0, 5.0):
            cf_s, cf_e = closed_form_qm(pump, 1.3, 0.9, 0.0, dt)
            it_s, it_e = integrate_qm(pump, 1.3, 0.9, 0.0, dt, tol=1e-12)
            for cf, it in ((cf_s, it_s), (cf_e, it_e)):
                assert abs(cf.u - it.u) < 1e-8
                assert abs(cf.v - it.v) < 1e-8

    def test_closed_form_nonzero_start(self):
        pump = PumpProfile.constant(0.4)
        cf_s, cf_e = closed_form_qm(pump, 1.1, 0.7, 0.6, 2.1)
        it_s, it_e = integrate_qm(pump, 1.1, 0.7, 0.6, 2.1, tol=1e-12)
        assert abs(cf_s.v - it_s.v) < 1e-8
        assert abs(cf_e.v - it_e.v) < 1e-8

    def test_closed_form_values(self):
        # q dt = 1 with theta_in = 0 gives r = 1 and squeeze phase pi/2
        pump = PumpProfile.constant(0.5)
        pair_s, _ = closed_form_qm(pump, 1.0, 1.0, 0.0, 2.0)
        triple = extract_squeeze(pair_s)
        assert triple.r == pytest.approx(1.0, rel=1e-12)
        assert triple.theta == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_squeeze_phase_is_quadrature_shifted(self):
        pump = PumpProfile.constant(0.5)
        pair_s, pair_e = closed_form_qm(pump, 1.0, 1.0, 0.0, 2.0)
        # theta = arg(v) - arg(u) is theta_in + pi/2 for both oscillators
        for pair in (pair_s, pair_e):
            theta = (np.angle(pair.v) - np.angle(pair.u)) % (2 * math.pi)
            assert theta == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_modulus_independent_of_frequency(self):
        pump = PumpProfile.constant(0.5)
        pair_a, _ = closed_form_qm(pump, 1.0, 1.0, 0.0, 2.0)
        pair_b, _ = closed_form_qm(pump, 7.0, 1.0, 0.0, 2.0)
        assert abs(pair_a.u) == pytest.approx(abs(pair_b.u), rel=1e-14)

    def test_identity_for_zero_rate(self):
        pair_s, pair_e = closed_form_qm(PumpProfile.constant(0.0), 1.0, 2.0, 0.0, 3.0)
        assert abs(pair_s.v) == 0.0
        assert abs(pair_s.u) == 1.0
        assert abs(pair_e.v) == 0.0

    def test_rejects_non_constant_pump(self):
        with pytest.raises(PumpError):
            closed_form_qm(PumpProfile.de_sitter(), 1.0, 1.0, -2.0, -1.0)

    def test_gaussian_pulse_amplitude_matches_quadrature(self):
        # the resonant system accumulates r = integral of the rate
        amplitude, center, width = 0.6, 1.5, 0.3
        pump = PumpProfile.gaussian_pulse(amplitude, center, width)
        pair_s, _ = integrate_qm(pump, 1.2, 0.8, 0.0, 3.0, tol=1e-12)
        r_expected = pulse_area(amplitude, center, width, 0.0, 3.0)
        assert extract_squeeze(pair_s).r == pytest.approx(r_expected, abs=1e-9)

    def test_tabulated_pump_tracks_its_source(self):
        # a finely sampled table of the gaussian rate reproduces the smooth
        # profile's amplitude; residual error is the interpolation's
        amplitude, center, width = 0.6, 1.5, 0.3
        times = np.linspace(0.0, 3.0, 4001)
        smooth = PumpProfile.gaussian_pulse(amplitude, center, width)
        table = PumpProfile.tabulated(times, np.real(smooth(times)))
        pair_s, _ = integrate_qm(table, 1.2, 0.8, 0.0, 3.0, tol=1e-10)
        r_expected = pulse_area(amplitude, center, width, 0.0, 3.0)
        assert extract_squeeze(pair_s).r == pytest.approx(r_expected, abs=1e-6)


class TestExtractSqueeze:
    def test_identity_pair(self):
        triple = extract_squeeze(BogoliubovPair(1.0, 0.0))
        assert (triple.r, triple.delta, triple.theta) == (0.0, 0.0, 0.0)

    def test_real_positive_pair(self):
        triple = extract_squeeze(BogoliubovPair(math.cosh(1.0), math.sinh(1.0)))
        assert triple.r == pytest.approx(1.0, rel=1e-12)
        assert triple.delta == 0.0
        assert triple.theta == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=3.0),
        delta=st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
        theta=st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
    )
    def test_roundtrip(self, r, delta, theta):
        pair = reconstruct_pair(SqueezeTriple(r=r, delta=delta, theta=theta))
        back = reconstruct_pair(extract_squeeze(pair))
        assert abs(back.u - pair.u) < 1e-10
        assert abs(back.v - pair.v) < 1e-10


class TestDeSitter:
    def test_exact_pair_is_unitary(self):
        pair = desitter_exact_pair(1.0, -100.0, -0.01)
        assert pair.unitarity_defect() < 1e-9 * (abs(pair.u) ** 2)

    def test_integrator_matches_exact_modes(self):
        for (k, ti, tf) in [(1.0, -100.0, -0.01), (1.0, -50.0, -0.1), (2.0, -40.0, -0.05)]:
            exact = desitter_exact_pair(k, ti, tf)
            num = integrate_uv(PumpProfile.de_sitter(), k, ti, tf, tol=1e-12)
            assert num.n_pairs == pytest.approx(exact.n_pairs, rel=1e-6)

    def test_sub_horizon_mode_stays_empty(self):
        # mode that never crosses the horizon barely feels the pump
        pair = desitter_exact_pair(50.0, -10.0, -2.0)
        assert pair.n_pairs < 1e-3

    def test_long_oscillatory_run_passes_the_guard(self):
        # thousands of oscillation periods accumulate honest drift; the
        # step-scaled guard must accept the run and the answer stays exact
        k, ti, tf = 11.6, -400.0, -0.02
        num = integrate_uv(PumpProfile.de_sitter(), k, ti, tf, tol=1e-10)
        exact = desitter_exact_pair(k, ti, tf)
        assert num.n_pairs == pytest.approx(exact.n_pairs, rel=1e-6)

    def test_strength_restriction(self):
        with pytest.raises(ValueError):
            desitter_exact_pair(1.0, -10.0, -1.0, strength=0.5)


class TestSqueezeFlow:
    @staticmethod
    def residuals(pump, omega, t0, t1, samples=60001):
        times, u, v = uv_trajectory(pump, omega, t0, t1, tol=1e-12, samples=samples)
        r = np.arcsinh(np.abs(v))
        delta = np.unwrap(-np.angle(u))
        theta = np.unwrap(np.angle(v) - np.angle(u))
        h = times[1] - times[0]

        def diff5(f):
            return (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)

        hub = -np.imag(pump(times[2:-2]))
        dr, ddelta, dtheta = squeeze_flow_rhs(
            r[2:-2], delta[2:-2], theta[2:-2], omega, hub)
        mask = r[2:-2] >= 0.05
        return (
            np.abs(diff5(r) - dr)[mask].max(),
            np.abs(diff5(delta) - ddelta)[mask].max(),
            np.abs(diff5(theta) - dtheta)[mask].max(),
        )

    def test_flow_satisfied_on_de_sitter_trajectory(self):
        res = self.residuals(PumpProfile.de_sitter(), 1.0, -30.0, -0.8)
        assert max(res) < 1e-5

    def test_flow_satisfied_on_imaginary_constant_pump(self):
        pump = PumpProfile.constant(0.4, theta_in=-math.pi / 2.0)
        res = self.residuals(pump, 1.0, 0.0, 4.0)
        assert max(res) < 1e-5
