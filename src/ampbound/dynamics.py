"""Time evolution of the Bogoliubov functions for arbitrary pump profiles.

Both linear systems are one mirror-coupled equation for the complex
amplitudes ``z``, each pair ``(u, v)`` starting from ``(1, 0)`` at ``t_in``:
each amplitude turns at its own frequency and is driven by the conjugate of
its mirror::

    z' = -i freqs z + i g(t) e^{-i carrier t} conj(z[::-1])

* per mode, ``z = (u, v)`` at one frequency and no carrier, so
  ``u' = -i omega u + i g(t) conj(v)`` and ``v' = -i omega v + i g(t) conj(u)``;
* the resonant two-oscillator system, ``z = (u_s, v_s, u_e, v_e)`` under the
  carrier ``omega_s + omega_e``, so ``u_s`` is driven by ``v_e`` and ``v_s``
  by ``u_e``.

One DOP853 solve integrates either and checks, pair by pair, the unitarity
``|u|^2 - |v|^2 = 1`` that holds along any exact trajectory.  The pair
``(u, v)`` maps to squeeze variables through

    u = e^{-i delta} cosh(r),   v = e^{-i (delta - theta)} sinh(r)

and that parametrization obeys the flow

    r'     = H cos(2 delta - theta)
    delta' = omega - H tanh(r) sin(2 delta - theta)
    theta' = H sin(2 delta - theta) / (cosh(r) sinh(r))

whenever the pump is purely imaginary, with ``H = -Im(g)``; the theta
equation is singular at ``r = 0``, which is why the linear ``(u, v)`` system
is what gets integrated and the squeeze variables are extraction-only.

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
    "uv_trajectory",
    "integrate_qm",
    "closed_form_qm",
    "extract_squeeze",
    "reconstruct_pair",
    "desitter_exact_pair",
    "squeeze_flow_rhs",
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
            q = self.amplitude * np.exp(-((np.asarray(t, dtype=float) - self.center) ** 2)
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


def _bogoliubov_rhs(pump, freqs, carrier=None):
    # z' = -i freqs z + w conj(z[::-1]) with w = i g(t) e^{-i carrier t}, on
    # the real state vector y = (Re z_0, Im z_0, Re z_1, ...).  Written in
    # real arithmetic, each product rounds once, as in numpy's scalar complex
    # product; its array complex product may fuse multiply-adds, and a
    # last-bit change moves the steps DOP853 accepts on a kinked pump
    pairs = np.arange(2 * len(freqs)).reshape(-1, 2)
    mirror, swap = pairs[::-1].ravel(), pairs[:, ::-1].ravel()
    signs = np.tile([1.0, -1.0], len(freqs))
    rotation = np.repeat(np.asarray(freqs, dtype=float), 2) * signs

    def rhs(t, y):
        w = 1j * pump(t)
        if carrier is not None:
            w = w * np.exp(-1j * carrier * t)
        # -i freqs z is (freqs Im z, -freqs Re z) and w conj(m) is
        # (Re w Re m + Im w Im m, -Re w Im m + Im w Re m); y[::-1] holds
        # (Im m, Re m) at each amplitude's place
        return rotation * y[swap] + (w.real * (signs * y[mirror]) + w.imag * y[::-1])
    return rhs


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


def _solve(pump, freqs, t_in, t_fin, tol, carrier=None, samples=None):
    """Integrate the mirror-coupled system from the vacuum ``(1, 0, ...)``.

    ``freqs`` holds one frequency per amplitude, the pairs ``(u, v)`` laid
    out one after the other.  Returns the complex amplitudes at ``t_fin``,
    or with ``samples`` their values on that many uniform times, one row
    per amplitude.  Every pair passes the unitarity guard at ``t_fin``,
    over the accepted steps of the whole span.

    A tabulated pump is kinked at its knots, where DOP853's error estimate
    does not hold, so the span is split at its interior knots and the
    segments are chained, each starting from the state the last one ended
    in.  Floating-point overflow inside the solve raises no warning: a pump
    large enough to cause it fails DOP853's step-size control, which raises
    :class:`IntegrationError`.
    """
    from scipy.integrate import solve_ivp

    check_span(t_in, t_fin, tol)
    knots = []
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
        # only a tabulated profile has knots
        knots = [t for t in pump.times if t_in < t < t_fin]
    z0 = np.zeros(len(freqs), dtype=complex)
    z0[::2] = 1.0
    if t_fin == t_in:
        return z0 if samples is None else np.repeat(z0[:, None], samples, axis=1)
    bounds = (t_in, *knots, t_fin)
    times = None if samples is None else np.linspace(t_in, t_fin, samples)
    rhs = _bogoliubov_rhs(pump, freqs, carrier)
    y, steps, rows = z0.view(float), 0, []
    with np.errstate(all="ignore"):
        for a, b in zip(bounds, bounds[1:]):
            # a sample on a knot belongs to the segment that starts there
            t_eval = None if times is None else times[
                (times >= a) & ((times < b) | (b == t_fin))]
            # dense output is what numbers the accepted steps of a sampled
            # solve, and gives its state at the segment's end
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=max(tol, 1e-13),
                            atol=tol, t_eval=t_eval, dense_output=samples is not None)
            if not sol.success:
                raise IntegrationError(f"integrator failed: {sol.message}")
            if samples is None:
                steps += len(sol.t) - 1
                y = sol.y[:, -1]
            else:
                steps += len(sol.sol.ts) - 1
                y = sol.sol(b)
                rows.append(sol.y)
    z = np.ascontiguousarray((y[:, None] if samples is None else np.hstack(rows)).T)
    z = z.view(complex).T
    end = z[:, -1]
    for u, v in zip(end[::2], end[1::2]):
        _check_unitarity(BogoliubovPair(u, v), tol, steps)
    return end if samples is None else z


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
        ``pump(t) -> complex``; a :class:`PumpProfile` is validated against
        the interval first.
    omega : float
        Mode frequency entering the free rotation.
    """
    u, v = _solve(pump, (omega, omega), t_in, t_fin, tol)
    return BogoliubovPair(u=complex(u), v=complex(v))


def uv_trajectory(pump, omega: float, t_in: float, t_fin: float,
                  tol: float = 1e-10, samples: int = 2001):
    """Like :func:`integrate_uv` but sampled on a uniform grid.

    Returns ``(times, u_array, v_array)``; used for residual checks of the
    squeeze-variable flow along the trajectory.
    """
    u, v = _solve(pump, (omega, omega), t_in, t_fin, tol, samples=samples)
    return np.linspace(t_in, t_fin, samples), u, v


def integrate_qm(pump, omega_s: float, omega_e: float, t_in: float,
                 t_fin: float, tol: float = 1e-10):
    """Integrate the resonant two-oscillator system as written.

    The pump enters through the carrier ``exp(-i (omega_s + omega_e) t)``.
    Returns ``(pair_s, pair_e)`` relating each late-time operator to the
    initial pair.
    """
    u_s, v_s, u_e, v_e = _solve(pump, (omega_s, omega_s, omega_e, omega_e),
                                t_in, t_fin, tol, carrier=omega_s + omega_e)
    return (BogoliubovPair(u=complex(u_s), v=complex(v_s)),
            BogoliubovPair(u=complex(u_e), v=complex(v_e)))


def closed_form_qm(pump: PumpProfile, omega_s: float, omega_e: float,
                   t_in: float, t_fin: float):
    """Closed-form solution of the resonant system for a constant pump.

    With rate ``q0`` and pump phase ``theta_in`` the amplitude is simply
    ``r = q0 * (t_fin - t_in)`` and, measuring phases from ``t_in``,

        u_x = e^{-i omega_x dt} cosh(r)
        v_x = e^{i (theta - omega_x dt)} sinh(r),   x in {s, e}

    with ``theta = theta_in + pi/2 - (omega_s + omega_e) * t_in`` (the pi/2
    comes from the quadrature between pump and pair creation; the last term
    accounts for the carrier phase already accumulated at ``t_in``).
    """
    if not isinstance(pump, PumpProfile) or pump.kind != "constant":
        raise PumpError("closed_form_qm requires a constant pump profile")
    if t_fin < t_in:
        raise ValueError("t_fin must not precede t_in")
    dt = t_fin - t_in
    r = pump.q0 * dt
    theta = pump.theta_in + np.pi / 2.0 - (omega_s + omega_e) * t_in
    pair_s = BogoliubovPair(
        u=np.exp(-1j * omega_s * dt) * np.cosh(r),
        v=np.exp(1j * (theta - omega_s * dt)) * np.sinh(r),
    )
    pair_e = BogoliubovPair(
        u=np.exp(-1j * omega_e * dt) * np.cosh(r),
        v=np.exp(1j * (theta - omega_e * dt)) * np.sinh(r),
    )
    return pair_s, pair_e


def extract_squeeze(pair: BogoliubovPair) -> SqueezeTriple:
    """Invert ``u = e^{-i delta} cosh r``, ``v = e^{-i(delta-theta)} sinh r``.

    ``r = asinh|v|`` (exact on unitarity-satisfying pairs), ``delta = -arg u``
    and ``theta = arg v - arg u``; ``v = 0`` returns ``theta = 0`` by
    convention.  Reconstruction through :func:`reconstruct_pair` round-trips
    to floating-point accuracy.
    """
    av = abs(pair.v)
    r = float(np.arcsinh(av))
    delta = float(-np.angle(pair.u))
    theta = float(np.angle(pair.v) - np.angle(pair.u)) if av > 0 else 0.0
    return SqueezeTriple(r=r, delta=delta, theta=theta)


def reconstruct_pair(triple: SqueezeTriple) -> BogoliubovPair:
    """Rebuild (u, v) from the squeeze variables."""
    return BogoliubovPair(
        u=np.exp(-1j * triple.delta) * np.cosh(triple.r),
        v=np.exp(-1j * (triple.delta - triple.theta)) * np.sinh(triple.r),
    )


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


def squeeze_flow_rhs(r, delta, theta, omega, hub):
    """Right-hand side of the squeeze-variable flow.

    ``(r', delta', theta') = (H cos w, omega - H tanh(r) sin w,
    H sin w / (cosh r sinh r))`` with ``w = 2 delta - theta``.  A trajectory
    of the linear (u, v) system driven by a purely imaginary pump
    ``g = i q`` satisfies this flow with ``hub = -q``; the last component is
    singular at ``r = 0``.  Accepts scalars or arrays.
    """
    w = 2.0 * np.asarray(delta) - np.asarray(theta)
    r = np.asarray(r, dtype=float)
    dr = hub * np.cos(w)
    ddelta = omega - hub * np.tanh(r) * np.sin(w)
    dtheta = hub * np.sin(w) / (np.cosh(r) * np.sinh(r))
    return dr, ddelta, dtheta
