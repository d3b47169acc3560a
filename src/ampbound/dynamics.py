"""Time evolution of the Bogoliubov functions for arbitrary pump profiles.

Two linear systems are integrated, both with initial condition ``(u, v) =
(1, 0)`` at ``t_in``:

* the per-mode system (one frequency, no explicit carrier)::

      u' = -i omega u + i g(t) conj(v)
      v' = -i omega v + i g(t) conj(u)

* the resonant two-oscillator system (distinct frequencies, carrier
  ``exp(-i (omega_s + omega_e) t)`` multiplying the pump)::

      u_s' = -i omega_s u_s + i g(t) e^{-i omega t} conj(v_e)    (and cyclic)

Unitarity fixes ``|u|^2 - |v|^2 = 1`` along any exact trajectory, which the
integrator monitors.  The pair ``(u, v)`` maps to squeeze variables through

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
        if self.kind == "gaussian_pulse" and self.width <= 0:
            raise PumpError("gaussian_pulse width must be positive")
        if self.kind == "tabulated":
            t = np.asarray(self.times, dtype=float)
            if t.size < 2 or np.any(np.diff(t) <= 0):
                raise PumpError("tabulated times must be at least two, strictly increasing")
            if len(self.values) != t.size:
                raise PumpError("tabulated times and values must have equal length")

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
        """Build from the documented config schema (see the README)."""
        kind = spec.get("kind")
        if kind == "constant":
            return cls.constant(spec["q0"], spec.get("theta_in", 0.0))
        if kind == "gaussian_pulse":
            return cls.gaussian_pulse(spec["amplitude"], spec["center"],
                                      spec["width"], spec.get("theta_in", 0.0))
        if kind == "de_sitter":
            return cls.de_sitter(spec.get("strength", 1.0))
        if kind == "tabulated":
            samples = spec["samples"]
            times = [row[0] for row in samples]
            values = [row[1] for row in samples]
            return cls.tabulated(times, values, spec.get("theta_in", 0.0))
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
        q = np.interp(np.asarray(t, dtype=float), self.times, self.values)
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


def _solve(rhs, y0, t_in, t_fin, tol):
    from scipy.integrate import solve_ivp

    check_span(t_in, t_fin, tol)
    if t_fin == t_in:
        return np.asarray(y0, dtype=float), 1
    sol = solve_ivp(rhs, (t_in, t_fin), y0, method="DOP853",
                    rtol=max(tol, 1e-13), atol=tol, dense_output=False)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    return sol.y[:, -1], len(sol.t) - 1


def _uv_rhs(pump, omega):
    def rhs(t, y):
        u = y[0] + 1j * y[1]
        v = y[2] + 1j * y[3]
        g = pump(t)
        du = -1j * omega * u + 1j * g * np.conj(v)
        dv = -1j * omega * v + 1j * g * np.conj(u)
        return [du.real, du.imag, dv.real, dv.imag]
    return rhs


def _check_unitarity(u, v, tol, steps=1):
    # guard against broken integrations, not a certification of accuracy:
    # local errors of order tol accumulate over the accepted steps and the
    # invariant is quadratic in the moduli, so the window scales with both;
    # the 1e-10 floor absorbs roundoff at extreme tolerances
    defect = abs(abs(u) ** 2 - abs(v) ** 2 - 1.0)
    scale = max(1.0, abs(u) ** 2 + abs(v) ** 2)
    if defect > max(10.0 * tol * steps, 1e-10) * scale:
        raise IntegrationError(
            f"unitarity broken: | |u|^2 - |v|^2 - 1 | = {defect:.3e} "
            f"at solution scale {scale:.3e} after {steps} steps"
        )


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
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
    y, steps = _solve(_uv_rhs(pump, omega), [1.0, 0.0, 0.0, 0.0], t_in, t_fin, tol)
    pair = BogoliubovPair(u=complex(y[0], y[1]), v=complex(y[2], y[3]))
    _check_unitarity(pair.u, pair.v, tol, steps)
    return pair


def uv_trajectory(pump, omega: float, t_in: float, t_fin: float,
                  tol: float = 1e-10, samples: int = 2001):
    """Like :func:`integrate_uv` but sampled on a uniform grid.

    Returns ``(times, u_array, v_array)``; used for residual checks of the
    squeeze-variable flow along the trajectory.
    """
    from scipy.integrate import solve_ivp

    check_span(t_in, t_fin, tol)
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
    times = np.linspace(t_in, t_fin, samples)
    sol = solve_ivp(_uv_rhs(pump, omega), (t_in, t_fin),
                    [1.0, 0.0, 0.0, 0.0], method="DOP853",
                    rtol=max(tol, 1e-13), atol=tol, t_eval=times,
                    dense_output=True)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    u = sol.y[0] + 1j * sol.y[1]
    v = sol.y[2] + 1j * sol.y[3]
    _check_unitarity(u[-1], v[-1], tol, len(sol.sol.ts) - 1)
    return times, u, v


def integrate_qm(pump, omega_s: float, omega_e: float, t_in: float,
                 t_fin: float, tol: float = 1e-10):
    """Integrate the resonant two-oscillator system as written.

    The pump enters through the carrier ``exp(-i (omega_s + omega_e) t)``.
    Returns ``(pair_s, pair_e)`` relating each late-time operator to the
    initial pair.
    """
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
    omega = omega_s + omega_e

    def rhs(t, y):
        us = y[0] + 1j * y[1]
        vs = y[2] + 1j * y[3]
        ue = y[4] + 1j * y[5]
        ve = y[6] + 1j * y[7]
        w = 1j * pump(t) * np.exp(-1j * omega * t)
        dus = -1j * omega_s * us + w * np.conj(ve)
        dvs = -1j * omega_s * vs + w * np.conj(ue)
        due = -1j * omega_e * ue + w * np.conj(vs)
        dve = -1j * omega_e * ve + w * np.conj(us)
        return [dus.real, dus.imag, dvs.real, dvs.imag,
                due.real, due.imag, dve.real, dve.imag]

    y, steps = _solve(rhs, [1., 0., 0., 0., 1., 0., 0., 0.], t_in, t_fin, tol)
    pair_s = BogoliubovPair(u=complex(y[0], y[1]), v=complex(y[2], y[3]))
    pair_e = BogoliubovPair(u=complex(y[4], y[5]), v=complex(y[6], y[7]))
    _check_unitarity(pair_s.u, pair_s.v, tol, steps)
    _check_unitarity(pair_e.u, pair_e.v, tol, steps)
    return pair_s, pair_e


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
