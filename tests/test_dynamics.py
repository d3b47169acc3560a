import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from ampbound import dynamics as dyn
from ampbound.dynamics import (
    BogoliubovPair,
    IntegrationError,
    PumpError,
    PumpProfile,
    SingularPumpError,
    SqueezeTriple,
    desitter_exact_pair,
    extract_squeeze,
    integrate_modes,
    integrate_qm,
    integrate_uv,
)
from conftest import (DESITTER_KS, DESITTER_SPAN, MALFORMED_PUMPS, NON_FINITE_PUMPS,
                      CountingPump, run_python)
from dynamics_reference import (closed_form_qm, hankel_exact_pair, plain_rhs, reconstruct_pair,
                                squeeze_flow_rhs, trajectory)

# the relative distance within which two DOP853 solves of one system, that
# differ only in the rounding of their right-hand sides, end: 87 steps of the
# stacked gaussian solve left 26 ulps of |u|
ROUNDING = 1e-13

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
        assert len(raised) == 2 * len(BAD_SPANS)
        assert all(msg and "must" in msg for msg in raised), raised

    def test_guard_window_counts_accepted_steps(self, monkeypatch):
        # the unitarity window scales with the steps the integrator accepted;
        # the resonant system guards each of its two columns
        pump = PumpProfile.gaussian_pulse(0.4, center=0.0, width=1.5)
        ref = solve_ivp(plain_rhs(pump, [1.3]), (-8.0, 8.0),
                        [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12)
        ref_qm = solve_ivp(plain_rhs(pump, [1.3, 0.9], 2.2),
                           (-8.0, 8.0), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                           method="DOP853", rtol=1e-12, atol=1e-12)
        seen = []
        guard = dyn._check_unitarity

        def spy(pair, tol, steps):
            seen.append(steps)
            guard(pair, tol, steps)

        monkeypatch.setattr(dyn, "_check_unitarity", spy)
        integrate_uv(pump, 1.3, -8.0, 8.0, tol=1e-12)
        integrate_qm(pump, 1.3, 0.9, -8.0, 8.0, tol=1e-12)
        assert seen == [len(ref.t) - 1] + [len(ref_qm.t) - 1] * 2

    def test_time_reversal_returns_to_vacuum(self):
        # reflect the trajectory: negated pump and frequency, run forward
        pump = PumpProfile.gaussian_pulse(0.8, center=1.0, width=0.4)
        omega, t0, t1 = 1.3, 0.0, 2.0
        fwd = integrate_uv(pump, omega, t0, t1, tol=1e-10)

        def reflected(s):
            return -pump(t1 + t0 - s)

        sol = solve_ivp(plain_rhs(reflected, [-omega]), (t0, t1),
                        [fwd.u.real, fwd.u.imag, fwd.v.real, fwd.v.imag],
                        method="DOP853", rtol=1e-10, atol=1e-10)
        y = sol.y[:, -1]
        back = BogoliubovPair(u=complex(y[0], y[1]), v=complex(y[2], y[3]))
        assert abs(back.u - 1.0) < 1e-7
        assert abs(back.v) < 1e-7


KNOT_TIMES = np.linspace(0.0, 14.0, 15)
KNOT_PUMP = PumpProfile.tabulated(KNOT_TIMES, 0.3 + 0.2 * np.sin(KNOT_TIMES), theta_in=0.2)


def knot_to_knot_reference(pump, omega, tol=1e-13):
    """``(u, v)`` from DOP853 solves of the written complex system, one per
    knot interval of a tabulated pump, each restarted where the last ended."""
    rhs, y = plain_rhs(pump, [omega]), [1.0, 0.0, 0.0, 0.0]
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
        seen = []
        stepper = dyn._dop853
        monkeypatch.setattr(dyn, "_dop853",
                            lambda fun, t0, y0, t_bound, *tols: seen.append((t0, t_bound))
                            or stepper(fun, t0, y0, t_bound, *tols))
        integrate_uv(KNOT_PUMP, 0.7, t_in, t_fin, 1e-10)
        assert seen == spans

    def test_span_without_interior_knot_is_one_solve(self, monkeypatch):
        # the single DOP853 solve over the whole span: its accepted steps,
        # and its state to rounding
        ref = solve_ivp(plain_rhs(KNOT_PUMP, [0.7]), (3.0, 4.0),
                        [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-10)
        seen = []
        guard = dyn._check_unitarity
        monkeypatch.setattr(dyn, "_check_unitarity",
                            lambda pair, tol, steps: seen.append(steps) or guard(pair, tol, steps))
        pair = integrate_uv(KNOT_PUMP, 0.7, 3.0, 4.0, 1e-10)
        u, v = ref.y[:, -1].view(complex)
        assert seen == [len(ref.t) - 1]
        assert max(abs(pair.u - u), abs(pair.v - v)) <= ROUNDING * abs(u)

    def test_guard_counts_steps_of_every_segment(self, monkeypatch):
        rhs = plain_rhs(KNOT_PUMP, [0.7])
        y, total = [1.0, 0.0, 0.0, 0.0], 0
        for a, b in zip(KNOT_TIMES, KNOT_TIMES[1:]):
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-10, atol=1e-10)
            y, total = sol.y[:, -1], total + len(sol.t) - 1
        seen = []
        guard = dyn._check_unitarity
        monkeypatch.setattr(dyn, "_check_unitarity",
                            lambda pair, tol, steps: seen.append(steps) or guard(pair, tol, steps))
        integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10)
        assert seen == [total]


def desitter_error(pair, k):
    """``max(|du|, |dv|) / |u|`` against the exact de Sitter pair."""
    exact = desitter_exact_pair(k, *DESITTER_SPAN)
    return max(abs(pair.u - exact.u), abs(pair.v - exact.v)) / abs(exact.u)


class TestIntegrateModes:
    @pytest.mark.parametrize("pump, span", [
        (PumpProfile.gaussian_pulse(0.8, center=1.0, width=0.4), (0.0, 2.0)),
        (PumpProfile.de_sitter(), (-20.0, -0.5)),
        (KNOT_PUMP, (0.0, 14.0))])
    def test_single_mode_is_integrate_uv(self, pump, span):
        assert integrate_modes(pump, [0.7], *span, 1e-10) == [integrate_uv(pump, 0.7, *span, 1e-10)]

    def test_empty_grid(self):
        assert integrate_modes(PumpProfile.constant(0.5), [], 0.0, 1.0) == []

    def test_stack_is_one_solve_at_the_scaled_tolerance(self, monkeypatch):
        # the DOP853 solve of the stacked modes at tol/sqrt(3), to rounding,
        # each pair guarded over that solve's accepted steps
        pump = PumpProfile.gaussian_pulse(0.4, center=0.0, width=1.5)
        omegas, tol = [0.5, 1.0, 2.0], 1e-10
        ref = solve_ivp(plain_rhs(pump, omegas), (-8.0, 8.0),
                        [1.0, 0.0, 0.0, 0.0] * 3, method="DOP853", rtol=tol / math.sqrt(3),
                        atol=tol / math.sqrt(3))
        seen = []
        guard = dyn._check_unitarity
        monkeypatch.setattr(dyn, "_check_unitarity",
                            lambda pair, tol, steps: seen.append(steps) or guard(pair, tol, steps))
        pairs = integrate_modes(pump, omegas, -8.0, 8.0, tol)
        z = ref.y[:, -1].view(complex)
        for pair, u, v in zip(pairs, z[::2], z[1::2]):
            assert max(abs(pair.u - u), abs(pair.v - v)) <= ROUNDING * abs(u)
        assert seen == [len(ref.t) - 1] * 3

    def test_tolerance_holds_per_mode(self, desitter_one_mode):
        # on the 50 de Sitter modes no mode's error grows by more than half
        # of its one-mode error, and the worst mode gets no worse; DOP853's
        # error estimate is not a plain RMS, so this is checked, not implied
        alone = [desitter_error(p, k) for p, k in zip(desitter_one_mode[0], DESITTER_KS)]
        stacked = [desitter_error(p, k) for p, k in zip(
            integrate_modes(PumpProfile.de_sitter(), DESITTER_KS, *DESITTER_SPAN, 1e-10),
            DESITTER_KS)]
        assert all(b <= 1.5 * a for a, b in zip(alone, stacked))
        assert max(stacked) <= max(alone)


class TestHugePump:
    @pytest.mark.parametrize("pump", [
        PumpProfile.constant(1e300), PumpProfile.gaussian_pulse(1e200, -10.0, 1.0),
        PumpProfile.de_sitter(1e300)])
    def test_fails_without_warnings(self, pump):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step size"):
                integrate_uv(pump, 1.0, -50.0, -0.1)


def scipy_dop853(fun, t0, y0, t_bound, rtol, atol):
    """scipy's ``DOP853`` stepped to the end: ``(y, accepted steps, nfev)``."""
    solver = DOP853(fun, t0, y0, t_bound, rtol=rtol, atol=atol)
    steps = 0
    while solver.status == "running":
        message = solver.step()
        steps += solver.status != "failed"
    if solver.status == "failed":
        raise IntegrationError(f"integrator failed: {message}")
    return solver.y, steps, solver.nfev


def counted(fun):
    """``fun`` and a list that grows by one entry, the time, per call."""
    calls = []
    return lambda t, y: calls.append(t) or fun(t, y), calls


def counted_rhs(rhs):
    """A ``(coef, apply)`` pair that records its calls: the times of each
    ``coef`` call, and one entry per ``apply`` call."""
    coef, apply = rhs
    coefs, applies = [], []
    return ((lambda ts: coefs.append(list(ts)) or coef(ts),
             lambda c, y, out=None: applies.append(None) or apply(c, y, out)),
            coefs, applies)


def package_fun(rhs):
    """scipy's ``fun(t, y)`` on the package's right-hand side: the row of
    the one time ``t`` applied to ``y``."""
    coef, apply = rhs
    return lambda t, y: apply(coef([t])[0], y)


def vacuum(freqs):
    """The real view of the pair columns at ``X = (1, 0)``."""
    x = np.zeros(np.shape(freqs), dtype=complex)
    x[0] = 1.0
    return x.view(float).ravel()


def fun_times(coefs):
    """The times at which scipy calls ``fun`` for these ``coef`` calls of
    ``_dop853``: a step attempt's last stage time is its new point ``t + h``,
    which scipy evaluates twice."""
    return [t for ts in coefs for t in ts + ts[-1:] * (len(ts) > 1)]


def modes(*omegas):
    """The column frequencies ``(f_0, f_1)`` of per-mode systems."""
    return omegas, omegas


# pump, column frequencies, carrier, span and tol of one stepper run.  The
# gaussian, de Sitter, stack and qm runs reject steps on the way, the weak
# run's first trial step would overshoot its span, the ramp starts at rest
# and the still system stays there, with a zero error estimate
STEPPER_CASES = {
    "still": (PumpProfile.constant(0.0), modes(0.0), None, (0.0, 1.0), 1e-10),
    "ramp": (PumpProfile.tabulated([0.0, 1.0], [0.0, 1.0]), modes(0.0), None, (0.0, 1.0),
             1e-10),
    "weak": (PumpProfile.gaussian_pulse(1e-3, 0.0, 0.2), modes(1e-3), None, (0.0, 0.4), 1e-6),
    "constant": (PumpProfile.constant(0.5, 0.3), modes(1.3), None, (0.0, 6.0), 1e-10),
    "gaussian": (PumpProfile.gaussian_pulse(0.8, 1.0, 0.4), modes(0.7), None, (-3.0, 5.0),
                 1e-12),
    "de_sitter": (PumpProfile.de_sitter(), modes(1.0), None, DESITTER_SPAN, 1e-10),
    "knot_segment": (KNOT_PUMP, modes(0.7), None, (3.0, 4.0), 1e-13),
    "de_sitter_stack": (PumpProfile.de_sitter(), modes(*DESITTER_KS), None, DESITTER_SPAN,
                        1e-10 / math.sqrt(len(DESITTER_KS))),
    "qm": (PumpProfile.gaussian_pulse(0.4, 0.0, 1.5), ((1.3, 0.9), (0.9, 1.3)), 2.2,
           (-8.0, 8.0), 1e-12)}


class TestStepper:
    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        stages = ref.N_STAGES
        for ours, theirs in ((dyn._A, ref.A[:stages, :stages]), (dyn._B, ref.B),
                             (dyn._C, ref.C[:stages]), (dyn._E3, ref.E3), (dyn._E5, ref.E5)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("case", STEPPER_CASES)
    def test_steps_as_scipy_does(self, case):
        # on the package's right-hand side, the same final state bits,
        # accepted steps and right-hand side evaluations, with one pump
        # evaluation per step attempt at the times scipy evaluates
        pump, freqs, carrier, (t0, t1), tol = STEPPER_CASES[case]
        y0 = vacuum(freqs)
        ours, coefs, applies = counted_rhs(dyn._pair_rhs(pump, freqs, carrier))
        y, steps = dyn._dop853(ours, t0, y0, t1, tol, tol)
        fun, calls = counted(package_fun(dyn._pair_rhs(pump, freqs, carrier)))
        ref_y, ref_steps, nfev = scipy_dop853(fun, t0, y0, t1, tol, tol)
        assert y.tobytes() == ref_y.tobytes()
        assert (steps, len(applies)) == (ref_steps, nfev)
        assert fun_times(coefs) == calls

    def test_fails_as_scipy_does(self):
        pump, freqs = PumpProfile.constant(1e300), modes(1.0)
        y0 = vacuum(freqs)
        ours, coefs, applies = counted_rhs(dyn._pair_rhs(pump, freqs))
        fun, calls = counted(package_fun(dyn._pair_rhs(pump, freqs)))
        failures = []
        for stepper, rhs in ((dyn._dop853, ours), (scipy_dop853, fun)):
            with np.errstate(all="ignore"), pytest.raises(IntegrationError) as info:
                stepper(rhs, -50.0, y0, -0.1, 1e-10, 1e-10)
            failures.append(str(info.value))
        assert failures[0] == failures[1]
        assert failures[0] == ("integrator failed: Required step size is less than "
                               "spacing between numbers.")
        assert (fun_times(coefs), len(applies)) == (calls, len(calls))

    @pytest.mark.parametrize("freqs, t_bound", [(modes(1.0), 2.0), (modes(), 3.0)])
    def test_nothing_to_integrate(self, freqs, t_bound):
        # no span or no state: the start comes back after no step and no call
        y0 = vacuum(freqs)
        pump = PumpProfile.constant(0.5)
        ours, coefs, applies = counted_rhs(dyn._pair_rhs(pump, freqs))
        y, steps = dyn._dop853(ours, 2.0, y0, t_bound, 1e-10, 1e-10)
        assert (y.tobytes(), steps, coefs, applies) == (y0.tobytes(), 0, [], [])
        ref = scipy_dop853(package_fun(dyn._pair_rhs(pump, freqs)), 2.0, y0, t_bound,
                           1e-10, 1e-10)
        assert y.tobytes() == ref[0].tobytes()

    def test_one_pump_call_per_step_attempt(self, monkeypatch):
        # the 50 de Sitter modes: an attempt applies 12 rows of one pump
        # call, the initial step two rows of one call each; one pump call
        # per stage made 16,370
        seen = []
        make = dyn._pair_rhs

        def spy(*args):
            rhs, coefs, applies = counted_rhs(make(*args))
            seen.append((coefs, applies))
            return rhs

        monkeypatch.setattr(dyn, "_pair_rhs", spy)
        pump = CountingPump(PumpProfile.de_sitter())
        integrate_modes(pump, DESITTER_KS, *DESITTER_SPAN, 1e-10)
        (coefs, applies), = seen
        assert pump.calls == len(coefs) <= 1500
        assert len(applies) == 12 * (len(coefs) - 2) + 2


# one system per pump kind, the last two under the resonant carrier, with
# their frequencies, carrier and the span their stage times are drawn from
ROW_CASES = {
    "constant": (PumpProfile.constant(0.5, 0.3), [1.3], None, (0.0, 6.0)),
    "gaussian": (PumpProfile.gaussian_pulse(0.8, 1.0, 0.4, 0.2), [0.7], None, (-3.0, 5.0)),
    "de_sitter": (PumpProfile.de_sitter(), [0.1, 1.0, 10.0], None, DESITTER_SPAN),
    "tabulated": (KNOT_PUMP, [0.7], None, (0.0, 14.0)),
    "stacked_modes": (PumpProfile.constant(0.5, 0.3), [0.4, 1.3, 2.0], None, (0.0, 6.0)),
    "carrier": (PumpProfile.gaussian_pulse(0.6, 1.5, 0.3), [1.2, 0.8], 2.0, (0.0, 3.0)),
    "constant_carrier": (PumpProfile.constant(0.5, 0.3), [1.3, 0.9], 2.2, (0.0, 6.0))}


class TestRhsRows:
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_batched_rows_are_one_time_rows(self, case):
        # the rows of 13 times in one call are bit for bit those of 13
        # one-time calls.  Each applied to a state is the written (u, v)
        # system, with the pump called at the one time, to a few ulps of
        # its summed term magnitudes: per mode the column (u, conj v), under
        # the carrier (u_s, conj v_e) and (u_e, conj v_s).  A column alone
        # gives its part of the stack bit for bit.
        pump, omegas, carrier, (t0, t1) = ROW_CASES[case]
        # the partner of each pair: itself per mode, the other oscillator
        # under the carrier
        partner = slice(None) if carrier is None else slice(None, None, -1)
        omegas = np.array(omegas)
        freqs = (omegas, omegas[partner])
        coef, apply = dyn._pair_rhs(pump, freqs, carrier)
        written = plain_rhs(pump, omegas, carrier)
        rng = np.random.default_rng(17)
        for _ in range(250):
            ts = rng.uniform(t0, t1, 13)
            rows = coef(ts)
            assert rows.tobytes() == np.concatenate([coef([t]) for t in ts]).tobytes()
            z = rng.normal(size=2 * omegas.size) + 1j * rng.normal(size=2 * omegas.size)
            u, v = z[0::2], z[1::2]
            x = np.array([u, v[partner].conj()])
            for t, row in zip(ts, rows):
                dz = written(float(t), z.view(float)).view(complex)
                want = np.array([dz[0::2], dz[1::2][partner].conj()])
                got = apply(row, x.view(float).ravel()).view(complex).reshape(2, -1)
                w = abs(1j * pump(float(t)))
                terms = np.abs(freqs) * np.abs(x) + w * np.abs(x[::-1])
                assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * terms)
        stack = apply(rows[-1], x.view(float).ravel()).view(complex).reshape(2, -1)
        for j in range(omegas.size):
            coef_j, apply_j = dyn._pair_rhs(pump, np.array(freqs)[:, j:j + 1], carrier)
            alone = apply_j(coef_j(ts[-1:])[0], x[:, j:j + 1].copy().view(float).ravel())
            assert alone.tobytes() == stack[:, j:j + 1].tobytes()


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


POWER_SPAN = (-20.0, -0.5)
POWER_KS = (0.3, 1.0, 3.0)


class TestPowerLawPump:
    # the de Sitter kind at strength s: a scale factor (-tau)^(-s), with the
    # Hankel pair of dynamics_reference as the exact oracle

    def test_hankel_pair_is_the_desitter_pair_at_unit_strength(self):
        for k in (0.1, 0.3, 1.0, 3.0, 10.0):
            exact = desitter_exact_pair(k, *POWER_SPAN)
            pair = hankel_exact_pair(k, 1.0, *POWER_SPAN)
            assert max(abs(pair.u - exact.u), abs(pair.v - exact.v)) <= 1e-14 * abs(exact.u)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.1, 2.0])
    def test_opposite_strengths_give_the_same_v(self, s):
        # a negated pump maps v to -v: the oracle's |v| agrees across two
        # Hankel orders, s + 1/2 and 1/2 - s, and the integrator's pairs
        # agree bit for bit
        for k in POWER_KS:
            assert abs(hankel_exact_pair(k, -s, *POWER_SPAN).v) == pytest.approx(
                abs(hankel_exact_pair(k, s, *POWER_SPAN).v), rel=1e-14)
        up = integrate_modes(PumpProfile.de_sitter(s), POWER_KS, *POWER_SPAN, 1e-10)
        down = integrate_modes(PumpProfile.de_sitter(-s), POWER_KS, *POWER_SPAN, 1e-10)
        assert [(p.u, -p.v) for p in up] == [(p.u, p.v) for p in down]

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_integrate_modes_against_the_hankel_pair(self, tol):
        # the global error, measured at 13.1 to 13.8 times tol on the k = 3
        # modes, gated at 20 times tol
        for s in (-1.0, 0.5, 1.1, 2.0):
            pairs = integrate_modes(PumpProfile.de_sitter(s), POWER_KS, *POWER_SPAN, tol)
            for k, pair in zip(POWER_KS, pairs):
                exact = hankel_exact_pair(k, s, *POWER_SPAN)
                error = max(abs(pair.u - exact.u), abs(pair.v - exact.v))
                assert error <= 20 * tol * abs(exact.u), (s, k, error)


class TestSqueezeFlow:
    @staticmethod
    def residuals(pump, omega, t0, t1, samples=60001):
        times, u, v = trajectory(pump, omega, t0, t1, tol=1e-12, samples=samples)
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
