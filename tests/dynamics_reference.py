"""Independent evaluations for the tests of ``ampbound.dynamics``.

``closed_form_qm`` solves the resonant two-oscillator system for a constant
pump in closed form, and ``hankel_exact_pair`` the per-mode system for a
power-law pump in Hankel functions.  ``reconstruct_pair`` inverts
``dynamics.extract_squeeze``.  ``plain_rhs`` is the written ``(u, v)``
system as one ``fun(t, y)`` for scipy's integrators.  ``trajectory`` samples
one per-mode solve on a uniform grid, and ``squeeze_flow_rhs`` is the flow
that the squeeze variables of such a trajectory obey when the pump is purely
imaginary, ``g = i q``, with ``H = -q``::

    r'     = H cos(2 delta - theta)
    delta' = omega - H tanh(r) sin(2 delta - theta)
    theta' = H sin(2 delta - theta) / (cosh(r) sinh(r))

The theta equation is singular at ``r = 0``.
"""

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from ampbound.dynamics import BogoliubovPair, PumpError, PumpProfile, SqueezeTriple


def plain_rhs(pump, omegas, carrier=None):
    """``fun(t, y)`` of the written ``(u, v)`` system, in complex arithmetic.

    ``y`` holds ``(Re u, Im u, Re v, Im v)`` of each pair in turn.  Without a
    carrier each of ``omegas`` is one mode::

        u' = -i omega u + i g(t) conj(v),   v' = -i omega v + i g(t) conj(u)

    With one, ``omegas`` is ``(omega_s, omega_e)``, the resonant system, in
    which ``u_s`` is driven by ``v_e`` and ``v_s`` by ``u_e``, under
    ``w = i g(t) e^{-i carrier t}``::

        u_s' = -i omega_s u_s + w conj(v_e),   v_s' = -i omega_s v_s + w conj(u_e)
        u_e' = -i omega_e u_e + w conj(v_s),   v_e' = -i omega_e v_e + w conj(u_s)
    """
    omegas = np.asarray(omegas, dtype=float)

    def fun(t, y):
        z = np.array(y, dtype=float).view(complex)
        u, v = z[0::2], z[1::2]
        w = 1j * complex(pump(t))
        if carrier is not None:
            w *= np.exp(-1j * carrier * t)
            u_drive, v_drive = u[::-1], v[::-1]
        else:
            u_drive, v_drive = u, v
        dz = np.empty_like(z)
        dz[0::2] = -1j * omegas * u + w * np.conj(v_drive)
        dz[1::2] = -1j * omegas * v + w * np.conj(u_drive)
        return dz.view(float)
    return fun


def trajectory(pump, omega: float, t_in: float, t_fin: float, tol: float = 1e-10,
               samples: int = 2001):
    """``(times, u, v)`` of the per-mode system from ``(1, 0)``, sampled on
    ``samples`` uniform times by one DOP853 solve (no knot splitting)."""
    times = np.linspace(t_in, t_fin, samples)
    sol = solve_ivp(plain_rhs(pump, [omega]), (t_in, t_fin),
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


def hankel_exact_pair(k: float, s: float, tau_in: float, tau_fin: float) -> BogoliubovPair:
    """Exact ``(u, v)`` of one mode under the power-law pump of strength ``s``.

    The pump ``PumpProfile.de_sitter(s)``, ``g = -i s/tau``, gives the mode
    equation of a scale factor ``a ~ (-tau)^(-s)``: ``F = u - conj(v)`` obeys
    ``F'' + (k^2 - s(s+1)/tau^2) F = 0``, solved by ``sqrt(-tau) H_nu(-k tau)``
    with ``nu = s + 1/2`` and its conjugate (Birrell & Davies, Quantum Fields
    in Curved Space, 5.4).  ``F`` is matched to the vacuum ``F = 1``,
    ``F' = -i k - s/tau_in`` at ``tau_in`` and propagated to ``tau_fin``;
    ``P = u + conj(v) = i (F' + s F/tau)/k`` gives the pair.  Evaluated in
    mpmath at 40 digits, so the result is exact to double precision.
    ``s = 1`` is :func:`dynamics.desitter_exact_pair`.
    """
    if not (k > 0 and tau_in <= tau_fin < 0):
        raise ValueError("needs k > 0 and tau_in <= tau_fin < 0")
    with mpmath.workdps(40):
        k, s = mpmath.mpf(k), mpmath.mpf(s)
        nu = s + mpmath.mpf(1) / 2

        def mode(tau):
            # phi = sqrt(-tau) H1_nu(-k tau) and d phi / d tau, through
            # H1_nu'(x) = H1_{nu-1}(x) - nu H1_nu(x) / x
            tau = mpmath.mpf(tau)
            x, root = -k * tau, mpmath.sqrt(-tau)
            h, h_lower = mpmath.hankel1(nu, x), mpmath.hankel1(nu - 1, x)
            return root * h, -h / (2 * root) - k * root * (h_lower - nu * h / x)

        phi, dphi = mode(tau_in)
        det = phi * mpmath.conj(dphi) - mpmath.conj(phi) * dphi
        df_in = -1j * k - s / tau_in
        a = (mpmath.conj(dphi) - mpmath.conj(phi) * df_in) / det
        b = (phi * df_in - dphi) / det
        phi, dphi = mode(tau_fin)
        f = a * phi + b * mpmath.conj(phi)
        df = a * dphi + b * mpmath.conj(dphi)
        p = 1j * (df + s * f / tau_fin) / k
        return BogoliubovPair(u=complex((f + p) / 2), v=complex(mpmath.conj((p - f) / 2)))


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
