import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm
from scipy.special import roots_legendre

from ampbound import cli
from ampbound import dynamics as dyn
from ampbound.dynamics import (
    BogoliubovPair,
    IntegrationError,
    PumpError,
    PumpProfile,
    SingularPumpError,
    desitter_exact_pair,
    integrate_modes,
    integrate_qm,
    integrate_uv,
)
from conftest import (DESITTER_KS, DESITTER_SPAN, MALFORMED_PUMPS, NON_FINITE_PUMPS,
                      CountingPump, run_python)
from dynamics_reference import (closed_form_qm, hankel_exact_pair, plain_rhs, reconstruct_pair,
                                squeeze_flow_rhs, squeeze_variables, trajectory)

# the relative distance within which two accurate solves of one system end
# when they differ only in rounding: 87 steps of a stacked gaussian solve
# left 26 ulps of |u|
ROUNDING = 1e-13

BAD_SPANS = [  # (t_in, t_fin, tol)
    (0.0, 1.0, math.nan), (0.0, 1.0, 0.0), (0.0, 1.0, math.inf), (0.0, 1.0, -1.0),
    (math.nan, 1.0, 1e-10), (0.0, math.nan, 1e-10), (0.0, math.inf, 1e-10),
    (-math.inf, 1.0, 1e-10), (1.0, 0.0, 1e-10),
    # finite bounds whose distance overflows
    (-1e308, 1e308, 1e-10)]


def spy_grids(monkeypatch):
    """Record the ``(bounds, edges)`` of every step grid a solve builds."""
    grids, make = [], dyn._step_grid

    def spy(pump, phi, bounds, tol):
        edges = make(pump, phi, bounds, tol)
        grids.append((list(bounds), edges))
        return edges

    monkeypatch.setattr(dyn, "_step_grid", spy)
    return grids


def spy_guard(monkeypatch):
    """Record the step count that each unitarity guard is given."""
    seen, guard = [], dyn._check_unitarity
    monkeypatch.setattr(dyn, "_check_unitarity",
                        lambda pair, tol, steps, omega: seen.append(steps)
                        or guard(pair, tol, steps, omega))
    return seen


def reference(pump, omegas, span, carrier=None, max_step=np.inf, rtol=1e-13):
    """``(u, v)`` arrays of the written system from scipy's DOP853 at
    ``rtol``, restarted at each interior knot of a tabulated pump, where its
    slope jumps."""
    y = [1.0, 0.0, 0.0, 0.0] * len(omegas)
    knots = [t for t in getattr(pump, "times", ()) if span[0] < t < span[1]]
    for a, b in zip((span[0], *knots), (*knots, span[1])):
        y = solve_ivp(plain_rhs(pump, omegas, carrier), (a, b), y, method="DOP853",
                      rtol=rtol, atol=rtol, max_step=max_step).y[:, -1]
    z = y.view(complex)
    return z[0::2], z[1::2]


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
            pump.knots(-1.0, 1.0)

    def test_knots_are_the_interior_edges(self):
        tabulated = PumpProfile.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])
        assert tabulated.knots(0.5, 3.0) == [1.0, 2.0]
        assert tabulated.knots(3.0, 1.0) == [2.0]
        pulse = PumpProfile.gaussian_pulse(1.0, center=2.0, width=0.5)
        assert pulse.knots(-10.0, 10.0) == [0.0, 2.0, 4.0]
        assert pulse.knots(2.0, 10.0) == [4.0]
        assert PumpProfile.de_sitter().knots(-50.0, -0.1) == []
        with pytest.raises(SingularPumpError):
            PumpProfile.de_sitter().knots(-1.0, 0.0)

    def test_tabulated_requires_increasing_times(self):
        with pytest.raises(PumpError):
            PumpProfile.tabulated([0.0, 0.0], [1.0, 1.0])

    # cli.pump_from_dict reads a pump config through PumpProfile.KINDS and
    # the constructor of its kind
    def test_config_roundtrip(self, pump_file):
        specs = [
            {"kind": "constant", "q0": 0.5, "theta_in": 0.25},
            {"kind": "gaussian_pulse", "amplitude": 1.0, "center": 0.0, "width": 2.0},
            {"kind": "gaussian_pulse", "amplitude": 1.0, "center": 0.0, "width": 2.0,
             "theta_in": 0.25},
            {"kind": "de_sitter", "strength": 0.5},
            {"kind": "tabulated", "samples": [[0.0, 0.1], [1.0, 0.2]], "theta_in": 0.0},
        ]
        for spec in specs:
            pump = cli.pump_from_dict(cli._load_config(pump_file(spec), "pump config"))
            assert pump.kind == spec["kind"]

    def test_unknown_kind(self):
        with pytest.raises(cli.CliError, match="'kind'"):
            cli.pump_from_dict({"kind": "sawtooth"})
        for kind in ("sawtooth", ["constant"]):
            with pytest.raises(PumpError):
                PumpProfile(kind=kind)

    @pytest.mark.parametrize("spec", NON_FINITE_PUMPS)
    def test_non_finite_config_rejected(self, pump_file, spec):
        # json reads NaN and Infinity; either one would stall the integrator
        with pytest.raises(PumpError, match="finite"):
            cli.pump_from_dict(cli._load_config(pump_file(spec), "pump config"))

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
        with pytest.raises(cli.CliError, match=field):
            cli.pump_from_dict(spec)

    @pytest.mark.parametrize("width", [1e300, 1e154, 1e-162, 5e-324, 0.0, -1.0])
    def test_width_whose_square_leaves_the_floats_rejected(self, width):
        # a pulse divides by 2 width^2: 1e300 ** 2 raised OverflowError on
        # the first call, and 1e-162 squared rounds to 0
        with pytest.raises(PumpError, match="width"):
            PumpProfile.gaussian_pulse(0.5, 0.0, width)

    @pytest.mark.parametrize("width", [1e-161, 1e153])
    def test_extreme_widths_inside_the_floats_evaluate(self, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PumpProfile.gaussian_pulse(0.5, 0.0, width)(0.0) == 0.5

    @pytest.mark.parametrize("center, t", [
        (1e300, 0.0), (1e300, np.array([0.0, 1.0])), (-1.7e308, np.array([1.7e308]))])
    def test_pulse_far_from_its_centre_is_zero_without_warning(self, center, t):
        # the exponent's power, square or difference overflowed, and numpy
        # warned, although the pulse there is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(PumpProfile.gaussian_pulse(0.5, center, 1.0)(t) == 0.0)


class TestIntegrateUv:
    def test_free_evolution(self):
        pair = integrate_uv(PumpProfile.constant(0.0), 2.0, 0.0, 1.5, tol=1e-12)
        assert pair.u == pytest.approx(np.exp(-2.0 * 1.5j), abs=1e-11)
        assert abs(pair.v) < 1e-12

    def test_resonant_constant_pump(self):
        # at omega = 0 the constant pump is exactly resonant: |v| = sinh(q dt)
        pair = integrate_uv(PumpProfile.constant(0.5), 0.0, 0.0, 2.0, tol=1e-12)
        assert abs(pair.v) ** 2 == pytest.approx(math.sinh(1.0) ** 2, abs=1e-8)
        assert math.asinh(abs(pair.v)) == pytest.approx(1.0, abs=1e-9)

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
        # NaN, zero and infinite tolerances and non-finite bounds or lengths
        # admit no step grid, so every solver entry point must raise first
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
        # the unitarity window scales with the steps of the grid the solve
        # accepted; the resonant system is one column, at zero frequency
        pump = PumpProfile.gaussian_pulse(0.4, center=0.0, width=1.5)
        grids, seen = spy_grids(monkeypatch), spy_guard(monkeypatch)
        integrate_uv(pump, 1.3, -8.0, 8.0, tol=1e-12)
        integrate_qm(pump, 1.3, 0.9, -8.0, 8.0, tol=1e-12)
        (_, mode), (_, qm) = grids
        assert seen == [mode.size - 1, qm.size - 1]

    @pytest.mark.parametrize("solve", [
        lambda omega: integrate_uv(PumpProfile.constant(0.5), omega, 0.0, 1.0),
        lambda omega: integrate_modes(PumpProfile.constant(0.5), [1.0, omega], 0.0, 1.0),
        lambda omega: integrate_qm(PumpProfile.constant(0.5), 1.0, omega, 0.0, 1.0)])
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, solve, omega):
        # once refined to the step budget, and blamed the tolerance; in the
        # rotating frame it would leave a silent NaN phase
        with pytest.raises(ValueError, match="frequencies"):
            solve(omega)

    @pytest.mark.parametrize("pair", [
        BogoliubovPair(math.nan, 0.0), BogoliubovPair(1.0, math.nan),
        BogoliubovPair(math.inf, math.inf), BogoliubovPair(math.inf, 0.0)])
    def test_guard_rejects_a_non_finite_pair(self, pair):
        # a NaN defect compares false with any window; the guard must not
        # read that as a pass
        with pytest.raises(IntegrationError, match="unitarity"):
            dyn._check_unitarity(pair, 1e-10, 100, 1.0)

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


class TestTabulatedKnots:
    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8])
    def test_tolerance_governs_error_across_knots(self, tol):
        # stepping across the kinks left errors of 40, 290 and 29 times tol
        (u,), (v,) = reference(KNOT_PUMP, [0.7], (0.0, 14.0))
        pair = integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, tol)
        assert max(abs(pair.u - u), abs(pair.v - v)) <= tol * abs(u)

    @pytest.mark.parametrize("t_in, t_fin, spans", [
        (0.0, 14.0, [(float(a), float(b)) for a, b in zip(KNOT_TIMES, KNOT_TIMES[1:])]),
        (2.5, 4.5, [(2.5, 3.0), (3.0, 4.0), (4.0, 4.5)]),
        (3.0, 4.0, [(3.0, 4.0)]),
        (2.25, 2.75, [(2.25, 2.75)])])
    def test_span_split_at_interior_knots_only(self, monkeypatch, t_in, t_fin, spans):
        # the grid starts from the ends of the span and the knots inside
        # it, and every one of them stays an edge
        grids = spy_grids(monkeypatch)
        integrate_uv(KNOT_PUMP, 0.7, t_in, t_fin, 1e-10)
        (bounds, edges), = grids
        assert bounds == [a for a, _ in spans] + [spans[-1][1]]
        assert set(bounds) <= set(edges.tolist())
        assert np.all(np.diff(edges) > 0)

    def test_span_without_interior_knot_is_one_solve(self, monkeypatch):
        # one grid from the two ends of the span, guarded over its steps,
        # and a state within rounding of a DOP853 reference at 1e-13
        grids, seen = spy_grids(monkeypatch), spy_guard(monkeypatch)
        pair = integrate_uv(KNOT_PUMP, 0.7, 3.0, 4.0, 1e-10)
        (bounds, edges), = grids
        (u,), (v,) = reference(KNOT_PUMP, [0.7], (3.0, 4.0))
        assert bounds == [3.0, 4.0]
        assert seen == [edges.size - 1]
        assert max(abs(pair.u - u), abs(pair.v - v)) <= ROUNDING * abs(u)

    def test_guard_counts_steps_of_every_segment(self, monkeypatch):
        # one grid over the whole table, every knot an edge, and the guard
        # given all of its steps
        grids, seen = spy_grids(monkeypatch), spy_guard(monkeypatch)
        integrate_uv(KNOT_PUMP, 0.7, 0.0, 14.0, 1e-10)
        (bounds, edges), = grids
        assert bounds == KNOT_TIMES.tolist()
        assert seen == [edges.size - 1]


class TestPulseEdges:
    @pytest.mark.parametrize("pump, omega, span", [
        # the first grid's five samples fell where |q| < 1e-37, and the
        # solve returned v = 3e-74 for |v| = 1.0
        (PumpProfile.gaussian_pulse(0.5, 30.0, 1.0), 0.5, (0.0, 100.0)),
        (PumpProfile.gaussian_pulse(0.5, 0.3, 0.01), 0.0, (0.0, 1.0)),
        (PumpProfile.gaussian_pulse(0.5, 0.3, 0.01), 3.0, (0.0, 1.0)),
        (PumpProfile.gaussian_pulse(0.5, 0.5, 0.01), 0.0, (0.0, 1.0))])
    def test_off_centre_pulse_is_within_tol(self, pump, omega, span):
        # the reference may not step over the pulse either
        tol = 1e-10
        (u,), (v,) = reference(pump, [omega], span, max_step=pump.width)
        pair = integrate_uv(pump, omega, *span, tol)
        assert abs(v) > 1e-2
        assert max(abs(pair.u - u), abs(pair.v - v)) <= tol * abs(u)

    def test_off_centre_pulse_under_the_carrier(self):
        pump, span = PumpProfile.gaussian_pulse(0.4, 17.0, 0.5), (0.0, 50.0)
        tol = 1e-10
        u, v = reference(pump, [1.3, 0.9], span, carrier=2.2, max_step=pump.width)
        pairs = integrate_qm(pump, 1.3, 0.9, *span, tol)
        assert abs(v).min() > 1e-1
        for pair, u_x, v_x in zip(pairs, u, v):
            assert max(abs(pair.u - u_x), abs(pair.v - v_x)) <= tol * abs(u_x)

    @pytest.mark.parametrize("center, width, span", [
        (30.0, 1.0, (0.0, 100.0)), (0.3, 0.1, (0.0, 1.0)), (-5.0, 1.0, (0.0, 1.0))])
    def test_centre_and_flanks_inside_the_span_are_edges(self, monkeypatch, center, width,
                                                        span):
        grids = spy_grids(monkeypatch)
        integrate_uv(PumpProfile.gaussian_pulse(0.5, center, width), 0.5, *span, 1e-10)
        (bounds, edges), = grids
        # the flanks lie four widths out
        inside = [t for t in (center - 4.0 * width, center, center + 4.0 * width)
                  if span[0] < t < span[1]]
        assert bounds == [span[0], *inside, span[1]]
        assert set(bounds) <= set(edges.tolist())


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

    def test_stack_is_one_solve_at_the_plain_tolerance(self, monkeypatch):
        # one grid for the stacked modes, on which every mode's own error
        # estimate is within tol, each pair guarded over its steps and
        # within tol of a DOP853 reference at 1e-13
        pump = PumpProfile.gaussian_pulse(0.4, center=0.0, width=1.5)
        omegas, tol = [0.5, 1.0, 2.0], 1e-10
        grids, seen = spy_grids(monkeypatch), spy_guard(monkeypatch)
        pairs = integrate_modes(pump, omegas, -8.0, 8.0, tol)
        (_, edges), = grids
        assert seen == [edges.size - 1] * 3
        for omega in omegas:
            error = dyn._step_error(pump, np.array([[-omega]]), edges[:-1], np.diff(edges))
            assert np.all(error <= tol)
        for pair, u, v in zip(pairs, *reference(pump, omegas, (-8.0, 8.0))):
            assert max(abs(pair.u - u), abs(pair.v - v)) <= tol * abs(u)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_every_mode_within_tol_of_the_exact_pair(self, tol):
        # stacked and alone; the error estimate bounds an order-4 local
        # error, so the order-6 result lands well inside tol (measured: at
        # most 0.15 of the gate), down to a floor of 2e-12
        stacked = integrate_modes(PumpProfile.de_sitter(), DESITTER_KS, *DESITTER_SPAN, tol)
        for k, pair in zip(DESITTER_KS, stacked):
            exact = desitter_exact_pair(k, *DESITTER_SPAN)
            for p in (pair, integrate_uv(PumpProfile.de_sitter(), k, *DESITTER_SPAN, tol)):
                error = max(abs(p.u - exact.u), abs(p.v - exact.v))
                assert error <= max(tol, 2e-12) * max(1.0, abs(exact.u)), (k, error)

    def test_tolerance_holds_per_mode(self, desitter_one_mode):
        # on the 50 de Sitter modes no mode's error grows by more than half
        # of its one-mode error, and the worst mode gets no worse; the
        # stacked grid meets every mode's own estimate, but errors of
        # opposite sign cancel differently on another grid, so this is
        # checked, not implied
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
        # an overflowing error estimate cuts the steps until the grid
        # outgrows the step budget, and an overflowing propagator leaves a
        # NaN state, which fails the guard
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="unitarity|steps"):
                integrate_uv(pump, 1.0, -50.0, -0.1)

    def test_overflowing_state_fails_the_guard(self):
        # one exact step to cosh(1000): the state overflows, and its NaN
        # defect must not pass the guard as it once did
        with pytest.raises(IntegrationError, match="unitarity broken: .* = nan"):
            integrate_uv(PumpProfile.constant(100.0), 0.0, 0.0, 10.0)

    def test_nan_pair_names_its_frequency(self):
        # the step's exponential squares omega, which overflows to a NaN pair
        message = r"^unitarity broken: .* = nan .* after 1 steps \(omega = 1e\+155\)$"
        with pytest.raises(IntegrationError, match=message):
            integrate_uv(PumpProfile.constant(0.1), 1e155, 0.0, 1.0)


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


def vacuum(omegas):
    """The pair columns at ``X = (1, 0)``."""
    x = np.zeros((2, len(omegas)), dtype=complex)
    x[0] = 1.0
    return x


def exponent(q, phi, h):
    """The order-6 exponent ``(phi, q)`` of :func:`dyn._magnus` for columns ``phi``."""
    (w_phi, w_q), _ = dyn._magnus(q, h)
    a = h[:, None] * phi
    return dyn._horner(w_phi, a), dyn._horner(w_q, a)


# pump, column frequencies, span and tol of one solve.  The still system
# stays at rest, with a zero error estimate; the ramp starts at rest and
# the weak pulse lies far below its tolerance
STEPPER_CASES = {
    "still": (PumpProfile.constant(0.0), [0.0], (0.0, 1.0), 1e-10),
    "ramp": (PumpProfile.tabulated([0.0, 1.0], [0.0, 1.0]), [0.0], (0.0, 1.0), 1e-10),
    "weak": (PumpProfile.gaussian_pulse(1e-3, 0.0, 0.2), [1e-3], (0.0, 0.4), 1e-6),
    "constant": (PumpProfile.constant(0.5, 0.3), [1.3], (0.0, 6.0), 1e-10),
    "gaussian": (PumpProfile.gaussian_pulse(0.8, 1.0, 0.4), [0.7], (-3.0, 5.0), 1e-12),
    "de_sitter": (PumpProfile.de_sitter(), [1.0], DESITTER_SPAN, 1e-10),
    "knot_segment": (KNOT_PUMP, [0.7], (3.0, 4.0), 1e-13),
    "de_sitter_stack": (PumpProfile.de_sitter(), DESITTER_KS, DESITTER_SPAN, 1e-10)}

# the largest distance, relative to max(1, |u|), of each case from the
# reference when the package stepped with its own DOP853, which made
# "still" and "knot_segment" the reference's own arithmetic; the de Sitter
# errors are mostly the reference's.  The weak pulse is gated at its
# tolerance instead: DOP853 held each of its components to rtol, 2.7e-12,
# while the Magnus estimate is relative to the whole column (measured:
# 2.8e-10, within tol 1e-6)
DOP853_ERRORS = {"still": 0.0, "ramp": 1.7e-11, "weak": 1e-6, "constant": 1.6e-10,
                 "gaussian": 2.1e-12, "de_sitter": 1.2e-9, "knot_segment": 0.0,
                 "de_sitter_stack": 1.1e-8}


class TestStepper:
    def test_tableau_is_scipys(self):
        # the nodes are scipy's three Gauss-Legendre roots mapped to [0, 1]
        roots, _ = roots_legendre(3)
        assert np.abs(dyn._NODES - (roots + 1.0) / 2.0).max() <= 2.0 ** -53
        assert dyn._ENDS_AND_NODES.tolist() == [0.0, *dyn._NODES.tolist(), 1.0]

    @pytest.mark.parametrize("case", STEPPER_CASES)
    def test_steps_as_scipy_does(self, case):
        # each solve ends within the package's old DOP853 distance, or
        # within rounding, of scipy's DOP853 stepped at 1e-13 on the
        # written system
        pump, omegas, span, tol = STEPPER_CASES[case]
        x = dyn._solve(pump, omegas, *span, tol)
        u, v = reference(pump, omegas, span)
        error = np.maximum(abs(x[0] - u), abs(np.conj(x[1]) - v)) / np.maximum(1.0, abs(u))
        assert error.max() <= max(DOP853_ERRORS[case], ROUNDING)

    def test_fails_as_scipy_does(self):
        # a pump of 1e300 overflows both: scipy's DOP853 runs out of step
        # size, and the Magnus error estimate turns NaN, which cuts the
        # steps until the grid outgrows the step budget
        pump = PumpProfile.constant(1e300)
        with pytest.raises(IntegrationError, match=f"more than {dyn._MAX_STEPS} steps"):
            dyn._solve(pump, [1.0], -50.0, -0.1, 1e-10)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="step size"):
            scipy_dop853(plain_rhs(pump, [1.0]), -50.0, [1.0, 0.0, 0.0, 0.0], -0.1,
                         1e-10, 1e-10)

    @pytest.mark.parametrize("freqs, t_bound", [([1.0], 2.0), ([], 3.0)])
    def test_nothing_to_integrate(self, freqs, t_bound):
        # no span or no column: the start comes back with no pump call
        pump = CountingPump(PumpProfile.constant(0.5))
        x = dyn._solve(pump, freqs, 2.0, t_bound, 1e-10)
        assert (x.tobytes(), x.shape, pump.calls) == (vacuum(freqs).tobytes(),
                                                      vacuum(freqs).shape, 0)

    def test_one_pump_call_per_block_of_steps(self, monkeypatch):
        # the 50 de Sitter modes: each refinement round calls the pump once
        # per block of up to _BLOCK steps, at their ends and nodes, and the
        # propagation once per block of the grid, at its nodes
        grids, calls = spy_grids(monkeypatch), []
        pump = PumpProfile.de_sitter()
        integrate_modes(lambda ts: calls.append(ts) or pump(ts), DESITTER_KS, *DESITTER_SPAN,
                        1e-10)
        (_, edges), = grids
        blocks = -(-(edges.size - 1) // dyn._BLOCK)
        nodes = edges[:-1, None] + np.diff(edges)[:, None] * dyn._NODES
        assert np.concatenate(calls[-blocks:]).tobytes() == nodes.ravel().tobytes()
        assert all(ts.size % 5 == 0 and ts.size <= 5 * dyn._BLOCK for ts in calls[:-blocks])
        assert len(calls) <= 150

    @pytest.mark.parametrize("q0, theta_in, omega, span", [
        (0.5, 0.0, 0.7, (0.0, 5.0)),  # weak: below the frequency, oscillating
        (0.5, 0.0, 0.0, (0.0, 2.0)),  # resonant: growing
        (0.5, 0.3, 1.3, (-1.0, 6.0))])
    def test_constant_pump_is_expm(self, q0, theta_in, omega, span):
        # the generator commutes with itself: one step, exact to rounding
        w = 1j * q0 * np.exp(1j * theta_in)
        u, conj_v = expm(np.array([[-1j * omega, w], [np.conj(w), 1j * omega]])
                         * (span[1] - span[0]))[:, 0]
        pair = integrate_uv(PumpProfile.constant(q0, theta_in), omega, *span, 1e-10)
        assert max(abs(pair.u - u), abs(pair.v - np.conj(conj_v))) <= 1e-13 * max(1.0, abs(u))

    def test_order_six(self, monkeypatch):
        # on fixed uniform grids of a gaussian pulse, halving every step
        # cuts the error about 2^6 = 64-fold
        pump, omega, span = PumpProfile.gaussian_pulse(0.8, 1.0, 0.4), 2.0, (-2.0, 4.0)
        (u,), (v,) = reference(pump, [omega], span)
        errors = []
        for n in (20, 40):
            monkeypatch.setattr(dyn, "_step_grid",
                                lambda pump, phi, bounds, tol: np.linspace(*span, n + 1))
            pair = integrate_uv(pump, omega, *span, 1e-10)
            errors.append(max(abs(pair.u - u), abs(pair.v - v)))
        assert errors[1] > 1e-11
        assert 40 < errors[0] / errors[1] < 100

    def test_step_at_the_spacing_of_doubles_ends_the_grid(self):
        # near t = -1e300 the NaN estimate of a 1e300 pulse cut the step at
        # the spacing of doubles into 63 zero-length steps and itself, round
        # after round, for 4.6 s until the grid reached the step budget
        start = time.perf_counter()
        with pytest.raises(IntegrationError, match=r"^integrator failed: tolerance 1\.000e-10 "
                           r"needs a step below the spacing of doubles at t = -1\.0+1e\+300$"):
            integrate_uv(PumpProfile.gaussian_pulse(1e300, -1e300, 1.0), 0.1, -1e300, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_step_budget_ends_an_unreachable_tolerance(self):
        # at tol 5e-324 the grid outgrows the budget in its third round;
        # a constant pump still takes its one exact step
        with pytest.raises(IntegrationError, match=f"more than {dyn._MAX_STEPS} steps"):
            integrate_uv(PumpProfile.de_sitter(), 1.0, *DESITTER_SPAN, 5e-324)
        pair = integrate_uv(PumpProfile.constant(0.5), 0.0, 0.0, 2.0, 5e-324)
        assert pair.u == pytest.approx(math.cosh(1.0), rel=1e-15)


# one system per pump kind, with its frequencies and the span its steps
# are drawn from
ROW_CASES = {
    "constant": (PumpProfile.constant(0.5, 0.3), [1.3], (0.0, 6.0)),
    "gaussian": (PumpProfile.gaussian_pulse(0.8, 1.0, 0.4, 0.2), [0.7], (-3.0, 5.0)),
    "de_sitter": (PumpProfile.de_sitter(), [0.1, 1.0, 10.0], DESITTER_SPAN),
    "tabulated": (KNOT_PUMP, [0.7], (0.0, 14.0)),
    "stacked_modes": (PumpProfile.constant(0.5, 0.3), [0.4, 1.3, 2.0], (0.0, 6.0))}


class TestRhsRows:
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_batched_rows_are_one_time_rows(self, case):
        # the coupling of 13 steps in one call is bit for bit that of 13
        # one-step calls.  With it, the generator of each column (u, conj v),
        # [[i phi, q], [conj q, -i phi]] with phi = -omega, applied to a
        # state is the written (u, v) system to a few ulps of its summed
        # term magnitudes.  A column alone gives its part of the stacked
        # order-6 propagator bit for bit.
        pump, omegas, (t0, t1) = ROW_CASES[case]
        omegas = np.array(omegas)
        phi = -omegas
        written = plain_rhs(pump, omegas)
        nodes = dyn._ENDS_AND_NODES
        rng = np.random.default_rng(17)
        for _ in range(50):
            starts, h = rng.uniform(t0, t1 - 1.0, 13), rng.uniform(0.0, 1.0, 13)
            rows = dyn._coupling(pump, starts, h, nodes)
            alone = [dyn._coupling(pump, starts[i:i + 1], h[i:i + 1], nodes) for i in range(13)]
            assert rows.tobytes() == np.concatenate(alone).tobytes()
            z = rng.normal(size=2 * omegas.size) + 1j * rng.normal(size=2 * omegas.size)
            u, v = z[0::2], z[1::2]
            x = np.array([u, v.conj()])
            for t, q in zip((starts[:, None] + h[:, None] * nodes).ravel(), rows.ravel()):
                dz = written(float(t), z.view(float)).view(complex)
                want = np.array([dz[0::2], dz[1::2].conj()])
                got = np.array([1j * phi * x[0] + q * x[1], np.conj(q) * x[0] - 1j * phi * x[1]])
                terms = np.abs(omegas) * np.abs(x) + abs(q) * np.abs(x[::-1])
                assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * terms)
        q, row = dyn._coupling(pump, starts, h, dyn._NODES), phi[None, :]
        stack = dyn._expm(*exponent(q, row, h))
        for j in range(omegas.size):
            column = dyn._expm(*exponent(q, row[:, j:j + 1], h))
            for part, whole in zip(column, stack):
                assert part.tobytes() == whole[:, j:j + 1].tobytes()


# one pump per kind for the resonant system, each over a span that starts
# away from t = 0, so the constant phase e^{-i c t_in} matters
QM_KNOTS = np.linspace(-2.0, 2.0, 9)
QM_PUMPS = [
    (PumpProfile.constant(0.5, 0.3), (-1.3, 1.7)),
    (PumpProfile.gaussian_pulse(0.5, -0.4, 0.7, 0.2), (-1.3, 1.7)),
    (PumpProfile.tabulated(QM_KNOTS, 0.3 + 0.2 * np.sin(QM_KNOTS), theta_in=0.4), (-1.3, 1.7)),
    (PumpProfile.de_sitter(0.5), (-5.0, -0.5))]


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
        r, _, theta = squeeze_variables(pair_s)
        assert r == pytest.approx(1.0, rel=1e-12)
        assert theta == pytest.approx(math.pi / 2.0, rel=1e-10)

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
        assert math.asinh(abs(pair_s.v)) == pytest.approx(r_expected, abs=1e-9)

    def test_tabulated_pump_tracks_its_source(self):
        # a finely sampled table of the gaussian rate reproduces the smooth
        # profile's amplitude; residual error is the interpolation's
        amplitude, center, width = 0.6, 1.5, 0.3
        times = np.linspace(0.0, 3.0, 4001)
        smooth = PumpProfile.gaussian_pulse(amplitude, center, width)
        table = PumpProfile.tabulated(times, np.real(smooth(times)))
        pair_s, _ = integrate_qm(table, 1.2, 0.8, 0.0, 3.0, tol=1e-10)
        r_expected = pulse_area(amplitude, center, width, 0.0, 3.0)
        assert math.asinh(abs(pair_s.v)) == pytest.approx(r_expected, abs=1e-6)


    @pytest.mark.parametrize("omegas", [(1.3, 0.9), (50.0, 30.0)])
    @pytest.mark.parametrize("pump, span", QM_PUMPS)
    def test_written_system_under_the_carrier(self, pump, span, omegas):
        # the rotating-frame solve against DOP853 on the system as written.
        # At omega_s = 50 a reference at 1e-13 is itself 2.9e-12 of max(1, |u|)
        # off the constant pump's closed form (integrate_qm: 5e-15), which is
        # 1.4 times the gate at tol 1e-12; at 3e-14 it is 8.5e-13 off
        u, v = reference(pump, list(omegas), span, carrier=sum(omegas), rtol=3e-14)
        for tol in (1e-10, 1e-12):
            pairs = integrate_qm(pump, *omegas, *span, tol)
            for pair, u_x, v_x in zip(pairs, u, v):
                error = max(abs(pair.u - u_x), abs(pair.v - v_x))
                assert error <= max(tol, 2e-12) * max(1.0, abs(u_x)), (tol, error)

    @pytest.mark.parametrize("pump, span", QM_PUMPS)
    def test_moduli_are_the_zero_frequency_solves(self, pump, span):
        # the frame only turns phases: each modulus is that of the per-mode
        # solve at omega = 0, to the rounding of one multiplication by a
        # unit phase (bit for bit on about two thirds of random phases)
        zero = integrate_uv(pump, 0.0, *span, 1e-10)
        for pair in integrate_qm(pump, 50.0, 30.0, *span, 1e-10):
            assert abs(pair.u) == pytest.approx(abs(zero.u), rel=4 * np.finfo(float).eps, abs=0)
            assert abs(pair.v) == pytest.approx(abs(zero.v), rel=4 * np.finfo(float).eps, abs=0)


class TestExtractSqueeze:
    def test_identity_pair(self):
        assert squeeze_variables(BogoliubovPair(1.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_real_positive_pair(self):
        r, delta, theta = squeeze_variables(BogoliubovPair(math.cosh(1.0), math.sinh(1.0)))
        assert r == pytest.approx(1.0, rel=1e-12)
        assert (delta, theta) == (0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=3.0),
        delta=st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
        theta=st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
    )
    def test_roundtrip(self, r, delta, theta):
        pair = reconstruct_pair(r, delta, theta)
        back = reconstruct_pair(*squeeze_variables(pair))
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
            assert abs(num.v) ** 2 == pytest.approx(abs(exact.v) ** 2, rel=1e-6)

    def test_sub_horizon_mode_stays_empty(self):
        # mode that never crosses the horizon barely feels the pump
        pair = desitter_exact_pair(50.0, -10.0, -2.0)
        assert abs(pair.v) ** 2 < 1e-3

    def test_long_oscillatory_run_passes_the_guard(self):
        # thousands of oscillation periods accumulate honest drift; the
        # step-scaled guard must accept the run and the answer stays exact
        k, ti, tf = 11.6, -400.0, -0.02
        num = integrate_uv(PumpProfile.de_sitter(), k, ti, tf, tol=1e-10)
        exact = desitter_exact_pair(k, ti, tf)
        assert abs(num.v) ** 2 == pytest.approx(abs(exact.v) ** 2, rel=1e-6)

    def test_strength_restriction(self):
        with pytest.raises(ValueError):
            desitter_exact_pair(1.0, -10.0, -1.0, strength=0.5)

    def test_exact_pair_needs_a_positive_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            desitter_exact_pair(0.0, -2.0, -1.0)


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
        # every mode within tol, down to a floor of 2e-12
        for s in (-1.0, 0.5, 1.1, 2.0):
            pairs = integrate_modes(PumpProfile.de_sitter(s), POWER_KS, *POWER_SPAN, tol)
            for k, pair in zip(POWER_KS, pairs):
                exact = hankel_exact_pair(k, s, *POWER_SPAN)
                error = max(abs(pair.u - exact.u), abs(pair.v - exact.v))
                assert error <= max(tol, 2e-12) * max(1.0, abs(exact.u)), (s, k, error)


class TestSqueezeFlow:
    @staticmethod
    def residuals(pump, omega, t0, t1, samples=60001):
        times, u, v = trajectory(pump, omega, t0, t1, tol=1e-12, samples=samples)
        r, delta, theta = squeeze_variables(BogoliubovPair(u, v))
        delta, theta = np.unwrap(delta), np.unwrap(theta)
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
