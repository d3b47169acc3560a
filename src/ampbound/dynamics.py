"""Time evolution of the Bogoliubov functions for arbitrary pump profiles.

Two oscillators under a Hermitian pair-creating coupling make linear
systems in su(1,1): each pair of amplitudes, one of them conjugated, obeys

    X' = A(t) X,   A = [[-i f_0, w], [conj(w), i f_1]],   w = i g(t) e^{-i carrier t}

and starts from ``X = (1, 0)`` at ``t_in``.  The state is a ``(2, n)``
complex array with one such pair per column:

* per mode, the column ``(u, conj v)`` at ``f_0 = f_1 = omega`` and no
  carrier, so ``u' = -i omega u + i g(t) conj(v)``;
  :func:`integrate_uv` solves one column, :func:`integrate_modes` one per
  frequency of a grid, with one pump call per step attempt for all of them;
* the resonant two-oscillator system under the carrier
  ``omega_s + omega_e``, the two closed columns ``(u_s, conj v_e)`` and
  ``(u_e, conj v_s)``.

One DOP853 solve integrates any of them, keeping only the current state,
and checks, column by column, the unitarity ``|a|^2 - |b|^2 = 1`` that holds
along any exact trajectory.  DOP853 measures its error by one norm over the
whole state, divided by the square root of its size, so the tolerance is
divided by the square root of the number of independent problems: a stack
of modes then steps about as finely as its hardest mode needs on its own,
and a single problem is solved exactly as it would be alone.  The
pair ``(u, v)`` maps to squeeze variables through

    u = e^{-i delta} cosh(r),   v = e^{-i (delta - theta)} sinh(r)

The flow of these variables is singular at ``r = 0``, where ``theta'``
carries ``1/sinh(r)``, which is why the linear ``(u, v)`` system is what
gets integrated and the squeeze variables are extraction-only.

For the quasi-de Sitter pump (``g = i * strength * (-1/tau)`` on ``tau < 0``)
with the canonical normalization ``strength = 1`` the system is solved in
closed form by the standard massless mode functions
``e^{-i k tau} (1 - i/(k tau))``; :func:`desitter_exact_pair` evaluates that
solution by matching at ``tau_in`` and serves as the independent oracle for
the integrator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PumpError",
    "SingularPumpError",
    "IntegrationError",
    "PumpProfile",
    "BogoliubovPair",
    "SqueezeTriple",
    "check_span",
    "integrate_uv",
    "integrate_modes",
    "integrate_qm",
    "extract_squeeze",
    "desitter_exact_pair",
]

TWO_PI = 2.0 * np.pi


class PumpError(ValueError):
    """Invalid pump profile or pump/interval combination."""


class SingularPumpError(PumpError):
    """The integration interval contains a pump singularity."""


class IntegrationError(RuntimeError):
    """The adaptive integrator failed or the solution broke unitarity."""


def _config_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PumpError(f"pump field {field!r} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PumpProfile:
    """Time-dependent coupling ``g(t)`` driving the amplification.

    Kinds and their parameters:

    * ``constant``        ``g(t) = q0 * e^{i theta_in}``
    * ``gaussian_pulse``  ``g(t) = amplitude * exp(-(t-center)^2/(2 width^2))
      * e^{i theta_in}``
    * ``de_sitter``       ``g(tau) = 1j * strength * (-1/tau)``; ``strength=1``
      is the canonical massless-scalar normalization, ``strength=0.5`` the
      half-Hamiltonian bookkeeping in which each oscillator pair is counted
      twice.  The profile is singular at ``tau = 0``.
    * ``tabulated``       real samples ``(times, values)`` of the pump rate,
      linearly interpolated, times strictly increasing; ``g(t) = q(t) *
      e^{i theta_in}``.  Interpolation error is the caller's responsibility.
    """

    kind: str
    q0: float = 0.0
    theta_in: float = 0.0
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    strength: float = 1.0
    times: tuple = ()
    values: tuple = ()

    KINDS = ("constant", "gaussian_pulse", "de_sitter", "tabulated")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise PumpError(f"unknown pump kind {self.kind!r}")
        # a NaN or infinite parameter gives a non-finite right-hand side,
        # which keeps DOP853's step-size control from ever finishing
        for name in ("q0", "theta_in", "amplitude", "center", "width", "strength"):
            if not np.isfinite(getattr(self, name)):
                raise PumpError(f"pump {name} must be finite, got {getattr(self, name)}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise PumpError("tabulated pump times and values must be finite")
        if self.kind == "gaussian_pulse" and self.width <= 0:
            raise PumpError("gaussian_pulse width must be positive")
        if self.kind == "tabulated":
            t = np.asarray(self.times, dtype=float)
            if t.size < 2 or np.any(np.diff(t) <= 0):
                raise PumpError("tabulated times must be at least two, strictly increasing")
            if len(self.values) != t.size:
                raise PumpError("tabulated times and values must have equal length")
            # the table as arrays, converted once rather than on every call
            object.__setattr__(self, "_table", (t, np.asarray(self.values, dtype=float)))

    @classmethod
    def constant(cls, q0: float, theta_in: float = 0.0) -> "PumpProfile":
        return cls(kind="constant", q0=q0, theta_in=theta_in)

    @classmethod
    def gaussian_pulse(cls, amplitude: float, center: float, width: float,
                       theta_in: float = 0.0) -> "PumpProfile":
        return cls(kind="gaussian_pulse", amplitude=amplitude, center=center,
                   width=width, theta_in=theta_in)

    @classmethod
    def de_sitter(cls, strength: float = 1.0) -> "PumpProfile":
        return cls(kind="de_sitter", strength=strength)

    @classmethod
    def tabulated(cls, times, values, theta_in: float = 0.0) -> "PumpProfile":
        return cls(kind="tabulated", times=tuple(float(t) for t in times),
                   values=tuple(float(v) for v in values), theta_in=theta_in)

    @classmethod
    def from_dict(cls, spec: dict) -> "PumpProfile":
        """Build from the documented config schema (see the README).

        A config that is not a mapping, lacks a required field or holds a
        non-numeric one raises :class:`PumpError` naming the field.
        """
        if not isinstance(spec, dict):
            raise PumpError(f"pump config must be a JSON object, got {type(spec).__name__}")

        def number(field, default=None):
            if field not in spec and default is None:
                raise PumpError(f"pump config needs the field {field!r}")
            return _config_number(spec.get(field, default), field)

        kind = spec.get("kind")
        if kind == "constant":
            return cls.constant(number("q0"), number("theta_in", 0.0))
        if kind == "gaussian_pulse":
            return cls.gaussian_pulse(number("amplitude"), number("center"),
                                      number("width"), number("theta_in", 0.0))
        if kind == "de_sitter":
            return cls.de_sitter(number("strength", 1.0))
        if kind == "tabulated":
            samples = spec.get("samples")
            if not isinstance(samples, list) or not all(
                    isinstance(row, list) and len(row) == 2 for row in samples):
                raise PumpError("pump field 'samples' must be a list of [time, value] pairs")
            table = [_config_number(x, "samples") for row in samples for x in row]
            return cls.tabulated(table[0::2], table[1::2], number("theta_in", 0.0))
        raise PumpError(f"unknown pump kind {kind!r}")

    @classmethod
    def from_config(cls, path) -> "PumpProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate_interval(self, t0: float, t1: float) -> None:
        """Check the pump is evaluable and finite on the closed interval."""
        lo, hi = min(t0, t1), max(t0, t1)
        if self.kind == "de_sitter" and lo <= 0.0 <= hi:
            raise SingularPumpError(
                f"de Sitter pump is singular at tau=0 inside [{lo}, {hi}]"
            )
        if self.kind == "tabulated":
            if lo < self.times[0] or hi > self.times[-1]:
                raise PumpError(
                    f"tabulated pump covers [{self.times[0]}, {self.times[-1]}], "
                    f"requested [{lo}, {hi}]"
                )

    def __call__(self, t):
        if self.kind == "constant":
            g = self.q0 * np.exp(1j * self.theta_in)
            return g if np.ndim(t) == 0 else np.full(np.shape(t), g)
        if self.kind == "gaussian_pulse":
            q = self.amplitude * np.exp(-(np.asarray(t, dtype=float) - self.center) ** 2
                                        / (2.0 * self.width ** 2))
            return q * np.exp(1j * self.theta_in)
        if self.kind == "de_sitter":
            return 1j * self.strength * (-1.0 / np.asarray(t, dtype=float))
        # tabulated
        q = np.interp(np.asarray(t, dtype=float), *self._table)
        return q * np.exp(1j * self.theta_in)


@dataclass(frozen=True)
class BogoliubovPair:
    """One (u, v) pair; unitarity means ``|u|^2 - |v|^2 = 1``."""

    u: complex
    v: complex

    def unitarity_defect(self) -> float:
        return float(abs(abs(self.u) ** 2 - abs(self.v) ** 2 - 1.0))

    @property
    def n_pairs(self) -> float:
        """Produced-quanta number ``|v|^2``."""
        return float(abs(self.v) ** 2)


@dataclass(frozen=True)
class SqueezeTriple:
    """Squeeze amplitude and the two phases of the (u, v) parametrization."""

    r: float
    delta: float
    theta: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        object.__setattr__(self, "delta", self.delta % TWO_PI)
        object.__setattr__(self, "theta", self.theta % TWO_PI)


def check_span(t_in: float, t_fin: float, tol: float) -> None:
    """Reject a span or tolerance the adaptive integrator cannot finish.

    The bounds must be finite with ``t_fin >= t_in`` and the tolerance finite
    and positive.  A NaN bound or tolerance, an infinite one or a zero
    tolerance leaves DOP853's step-size control without an end, so the
    solve would never return.
    """
    if not (np.isfinite(t_in) and np.isfinite(t_fin)):
        raise ValueError(f"integration bounds must be finite, got [{t_in}, {t_fin}]")
    if t_fin < t_in:
        raise ValueError(f"t_fin must not precede t_in, got [{t_in}, {t_fin}]")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _pair_rhs(pump, freqs, carrier=None):
    """``(coef, apply)``: the right-hand side split into its time and state parts.

    The state is a ``(2, n)`` complex array whose columns are independent
    pairs ``X = (a, conj b)``, each obeying ``X' = A(t) X`` with
    ``A = [[-i f_0, w], [conj w, i f_1]]`` and ``w = i g(t) e^{-i carrier t}``.
    ``freqs`` is ``(f_0, f_1)``, one frequency per entry of each column.  So
    ``X' = R X + C(t) X[::-1]`` with the constant ``R = (-i f_0, i f_1)`` and
    ``C = (w, conj w)``.  ``coef(ts)`` calls the pump once for a 1-d array of
    times and returns one ``C`` per time; ``apply(c, y, out=None)`` is the
    derivative at the real view ``y`` of the state, so
    ``apply(coef([t])[0], y)`` is ``X'`` at ``t``.  A row does not depend on
    how many times ``coef`` was given.
    """
    rotation = np.array([-1j, 1j])[:, None] * np.asarray(freqs, dtype=float)

    def coef(ts):
        ts = np.asarray(ts, dtype=float)
        w = 1j * pump(ts)
        if carrier is not None:
            w = w * np.exp(-1j * carrier * ts)
        return np.stack([w, w.conj()], axis=1)[:, :, None]

    def apply(c, y, out=None):
        out = np.empty_like(y) if out is None else out
        x, dx = y.view(complex).reshape(2, -1), out.view(complex).reshape(2, -1)
        np.multiply(rotation, x, out=dx)
        dx += c * x[::-1]
        return out
    return coef, apply


def _check_unitarity(pair, tol, steps):
    # guard against broken integrations, not a certification of accuracy:
    # local errors of order tol accumulate over the accepted steps and the
    # invariant is quadratic in the moduli, so the window scales with both;
    # the 1e-10 floor absorbs roundoff at extreme tolerances
    defect = pair.unitarity_defect()
    scale = max(1.0, abs(pair.u) ** 2 + abs(pair.v) ** 2)
    if defect > max(10.0 * tol * steps, 1e-10) * scale:
        raise IntegrationError(
            f"unitarity broken: | |u|^2 - |v|^2 - 1 | = {defect:.3e} "
            f"at solution scale {scale:.3e} after {steps} steps"
        )


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10): the
# 12 stages, the 8th-order weights and the 5th- and 3rd-order error weights,
# whose last entry multiplies the derivative at the new point
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = np.zeros((12, 12))
for _i, _row in enumerate([
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636]], start=1):
    _A[_i, :_i] = _row
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(rhs, t0, y0, t_bound, rtol, atol):
    """Step DOP853 from ``t0`` to ``t_bound >= t0``; return ``(y, accepted_steps)``.

    ``rhs`` is the ``(coef, apply)`` pair of :func:`_pair_rhs`.  The
    arithmetic is that of scipy's ``DOP853`` stepped to the end (scipy 1.17,
    no ``max_step``) on ``fun(t, y) = apply(coef([t])[0], y)``, operation for
    operation, so the state comes out bit for bit and ``apply`` runs as
    often as scipy calls ``fun``: the initial step of Hairer, Norsett &
    Wanner (II.4) for an error of order 7, the step factor
    ``0.9 err^(-1/8)`` clipped to ``[0.2, 10]`` and to 1 after a rejection,
    and the error norm that weighs the 5th-order estimate against the
    3rd-order one.  ``coef`` is called once per step attempt, at the stage
    times ``t + C h`` (``C[0] = 0`` reuses the last derivative and
    ``C[11] = 1`` is the new point), and once for each of the two trial
    derivatives of the initial step.  A step that must shrink below ten
    spacings of ``t`` raises :class:`IntegrationError`.
    """
    coef, apply = rhs
    y = np.asarray(y0, dtype=float)
    if y.size == 0 or t_bound == t0:
        return y, 0
    K = np.empty((13, y.size))
    # K[0] holds the derivative at the current point; only an accepted
    # step moves the new point's derivative there
    f = K[0] = apply(coef([t0])[0], y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t0)
    d2 = _rms((apply(coef([t0 + h0])[0], y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = min(100 * h0, h1, t_bound - t0)
    t, steps = t0, 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise IntegrationError("integrator failed: Required step size "
                                       "is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            rows = coef(t + _C[1:] * h)
            for s in range(1, 12):
                apply(rows[s - 1], y + np.dot(K[:s].T, _A[s, :s]) * h, out=K[s])
            y_new = y + h * np.dot(K[:-1].T, _B)
            apply(rows[-1], y_new, out=K[-1])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            error = (0.0 if err5 == 0 and err3 == 0
                     else h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        K[0] = K[-1]
        t, y, steps = t_new, y_new, steps + 1
    return y, steps


def _solve(pump, freqs, t_in, t_fin, tol, carrier=None, systems=1):
    """Integrate the pair columns of :func:`_pair_rhs` from ``X = (1, 0)``.

    ``freqs`` is ``(f_0, f_1)``, one frequency per column in each; returns
    the ``(2, n)`` state at ``t_fin``.  The columns form ``systems``
    independent problems, and ``rtol`` and ``atol`` are ``tol`` divided by
    ``sqrt(systems)``.  DOP853 pools every component into one error norm,
    normalized by the square root of the state's size, so the scaling gives
    each problem the share of that budget it would have alone.  The norm
    combines a 5th- and a 3rd-order estimate and is not a plain root mean
    square, so the per-problem bound is measured by the tests, not implied.
    Every column ``(a, conj b)`` passes the unitarity guard
    ``|a|^2 - |b|^2 = 1`` at ``t_fin``, over the accepted steps of the whole
    span.  The solver's state is the only one kept: no trajectory is stored.

    A tabulated pump is kinked at its knots, where DOP853's error estimate
    does not hold, so the span is split at its interior knots and the
    segments are chained, each starting from the state the last one ended
    in.  Floating-point overflow inside the solve raises no warning: a pump
    large enough to cause it fails DOP853's step-size control, which raises
    :class:`IntegrationError`.
    """
    check_span(t_in, t_fin, tol)
    knots = []
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
        # only a tabulated profile has knots
        knots = [t for t in pump.times if t_in < t < t_fin]
    x = np.zeros(np.shape(freqs), dtype=complex)
    x[0] = 1.0
    if t_fin == t_in:
        return x
    bounds = (t_in, *knots, t_fin)
    rhs = _pair_rhs(pump, freqs, carrier)
    # an empty stack, with nothing to integrate, keeps the plain tolerance
    scale = max(systems, 1) ** 0.5
    y, steps = x.view(float).ravel(), 0
    with np.errstate(all="ignore"):
        for a, b in zip(bounds, bounds[1:]):
            # the floor keeps rtol above 100 eps, where DOP853's error
            # control stops meaning anything
            y, taken = _dop853(rhs, float(a), y, float(b), max(tol / scale, 1e-13),
                               tol / scale)
            steps += taken
    x = y.view(complex).reshape(2, -1)
    for a, b in x.T:
        _check_unitarity(BogoliubovPair(a, b.conjugate()), tol, steps)
    return x


def integrate_modes(pump, omegas, t_in: float, t_fin: float,
                    tol: float = 1e-10) -> list[BogoliubovPair]:
    """Integrate the per-mode systems of several frequencies in one solve.

    Each frequency is one column ``(u, conj v)`` of one stacked system, so
    the pump is evaluated once per step attempt for all of them.  ``tol``
    holds per mode: it is divided by ``sqrt(len(omegas))`` (see :func:`_solve`),
    and a single frequency gives :func:`integrate_uv` bit for bit.  A pump,
    span or integrator failure, or any one pair's unitarity guard, raises
    for the whole batch.  Returns one pair per frequency, in order.
    """
    x = _solve(pump, (omegas, omegas), t_in, t_fin, tol, systems=len(omegas))
    return [BogoliubovPair(u=complex(u), v=complex(v).conjugate()) for u, v in x.T]


def integrate_uv(pump, omega: float, t_in: float, t_fin: float,
                 tol: float = 1e-10) -> BogoliubovPair:
    """Integrate the per-mode system from ``(1, 0)`` over ``[t_in, t_fin]``.

    Adaptive 8th-order Runge-Kutta with relative and absolute tolerance
    ``tol``.  The unitarity defect is checked at the endpoint against
    ``10*tol`` times the solution scale (the invariant is quadratic in the
    moduli, so the admissible drift grows with them).

    Parameters
    ----------
    pump : callable
        ``pump(ts) -> complex array``, called with a 1-d array of times and
        returning ``g`` at each of them: all 11 distinct stage times of one
        step attempt in one call.  A :class:`PumpProfile` accepts arrays and
        is validated against the interval first.
    omega : float
        Mode frequency entering the free rotation.
    """
    pair, = integrate_modes(pump, [omega], t_in, t_fin, tol)
    return pair


def integrate_qm(pump, omega_s: float, omega_e: float, t_in: float,
                 t_fin: float, tol: float = 1e-10):
    """Integrate the resonant two-oscillator system as written.

    The pump enters through the carrier ``exp(-i (omega_s + omega_e) t)``,
    and ``u_s`` is driven by ``conj(v_e)``, ``u_e`` by ``conj(v_s)``: the
    system is the two closed columns ``(u_s, conj v_e)`` and
    ``(u_e, conj v_s)``, solved as one problem at ``tol``.  Returns
    ``(pair_s, pair_e)`` relating each late-time operator to the initial
    pair.
    """
    (u_s, u_e), (conj_v_e, conj_v_s) = _solve(
        pump, ((omega_s, omega_e), (omega_e, omega_s)), t_in, t_fin, tol,
        carrier=omega_s + omega_e)
    return (BogoliubovPair(u=complex(u_s), v=complex(conj_v_s).conjugate()),
            BogoliubovPair(u=complex(u_e), v=complex(conj_v_e).conjugate()))


def extract_squeeze(pair: BogoliubovPair) -> SqueezeTriple:
    """Invert ``u = e^{-i delta} cosh r``, ``v = e^{-i(delta-theta)} sinh r``.

    ``r = asinh|v|`` (exact on unitarity-satisfying pairs), ``delta = -arg u``
    and ``theta = arg v - arg u``; ``v = 0`` returns ``theta = 0`` by
    convention.  Rebuilding ``(u, v)`` from the triple round-trips to
    floating-point accuracy.
    """
    av = abs(pair.v)
    r = float(np.arcsinh(av))
    delta = float(-np.angle(pair.u))
    theta = float(np.angle(pair.v) - np.angle(pair.u)) if av > 0 else 0.0
    return SqueezeTriple(r=r, delta=delta, theta=theta)


def desitter_exact_pair(k: float, tau_in: float, tau_fin: float,
                        strength: float = 1.0) -> BogoliubovPair:
    """Exact (u, v) for the canonical de Sitter pump, no integration.

    The combination ``F = u - conj(v)`` obeys the mode equation
    ``F'' + (k^2 - 2/tau^2) F = 0`` whose solutions are
    ``phi = e^{-i k tau}(1 - i/(k tau))`` and its conjugate; ``F`` and its
    derivative are matched to the vacuum initial condition at ``tau_in`` and
    propagated in closed form.  Only ``strength = 1`` admits these mode
    functions.
    """
    if strength != 1.0:
        raise ValueError("exact mode functions cover the canonical strength=1 pump only")
    if k <= 0:
        raise ValueError("k must be positive")
    if min(tau_in, tau_fin) <= 0.0 <= max(tau_in, tau_fin):
        raise SingularPumpError("interval must not contain tau = 0")

    def phi(tau):
        return np.exp(-1j * k * tau) * (1.0 - 1j / (k * tau))

    def dphi(tau):
        return np.exp(-1j * k * tau) * (-1j * k - 1.0 / tau + 1j / (k * tau ** 2))

    hub_in = -1.0 / tau_in
    hub_fin = -1.0 / tau_fin
    wron = np.array([[phi(tau_in), np.conj(phi(tau_in))],
                     [dphi(tau_in), np.conj(dphi(tau_in))]])
    coeff = np.linalg.solve(wron, np.array([1.0, -1j * k + hub_in]))
    f_fin = coeff[0] * phi(tau_fin) + coeff[1] * np.conj(phi(tau_fin))
    df_fin = coeff[0] * dphi(tau_fin) + coeff[1] * np.conj(dphi(tau_fin))
    p_fin = -1j * (hub_fin * f_fin - df_fin) / k
    u = (f_fin + p_fin) / 2.0
    v = np.conj((p_fin - f_fin) / 2.0)
    return BogoliubovPair(u=complex(u), v=complex(v))

