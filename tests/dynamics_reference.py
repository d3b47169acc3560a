"""Independent evaluations for the tests of ``ampbound.dynamics``.

``closed_form_qm`` solves the resonant two-oscillator system for a constant
pump in closed form.  ``reconstruct_pair`` inverts
``dynamics.extract_squeeze``.  ``trajectory`` samples one per-mode solve on a
uniform grid, and ``squeeze_flow_rhs`` is the flow that the squeeze
variables of such a trajectory obey when the pump is purely imaginary,
``g = i q``, with ``H = -q``::

    r'     = H cos(2 delta - theta)
    delta' = omega - H tanh(r) sin(2 delta - theta)
    theta' = H sin(2 delta - theta) / (cosh(r) sinh(r))

The theta equation is singular at ``r = 0``.
"""

import numpy as np
from scipy.integrate import solve_ivp

from ampbound import dynamics
from ampbound.dynamics import BogoliubovPair, PumpError, PumpProfile, SqueezeTriple


def trajectory(pump, omega: float, t_in: float, t_fin: float, tol: float = 1e-10,
               samples: int = 2001):
    """``(times, u, v)`` of the per-mode system from ``(1, 0)``, sampled on
    ``samples`` uniform times by one DOP853 solve (no knot splitting)."""
    times = np.linspace(t_in, t_fin, samples)
    sol = solve_ivp(dynamics._bogoliubov_rhs(pump, (omega, omega)), (t_in, t_fin),
                    [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=max(tol, 1e-13),
                    atol=tol, t_eval=times)
    assert sol.success, sol.message
    z = np.ascontiguousarray(sol.y.T).view(complex)
    return times, z[:, 0], z[:, 1]


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
    return tuple(
        BogoliubovPair(u=np.exp(-1j * omega * dt) * np.cosh(r),
                       v=np.exp(1j * (theta - omega * dt)) * np.sinh(r))
        for omega in (omega_s, omega_e))


def reconstruct_pair(triple: SqueezeTriple) -> BogoliubovPair:
    """Rebuild (u, v) from the squeeze variables."""
    return BogoliubovPair(
        u=np.exp(-1j * triple.delta) * np.cosh(triple.r),
        v=np.exp(-1j * (triple.delta - triple.theta)) * np.sinh(triple.r),
    )


def squeeze_flow_rhs(r, delta, theta, omega, hub):
    """``(r', delta', theta')`` of the flow above, ``hub`` standing for ``H``.

    Accepts scalars or arrays.
    """
    w = 2.0 * np.asarray(delta) - np.asarray(theta)
    r = np.asarray(r, dtype=float)
    dr = hub * np.cos(w)
    ddelta = omega - hub * np.tanh(r) * np.sin(w)
    dtheta = hub * np.sin(w) / (np.cosh(r) * np.sinh(r))
    return dr, ddelta, dtheta
