"""Time evolution of the Bogoliubov functions for arbitrary pump profiles.

A mode of frequency ``omega`` under a Hermitian pair-creating coupling
``g(t)`` is a linear system in su(1,1) for the column ``X = (u, conj v)``:

    X' = A(t) X,   A = [[-i omega, w], [conj(w), i omega]],   w = i g(t)

from ``X = (1, 0)`` at ``t_in``.  :func:`integrate_uv` solves one column,
:func:`integrate_modes` one per frequency of a grid, stacked in a ``(2, n)``
array with one pump call per block of steps for all of them, and
:func:`integrate_qm` the resonant two-oscillator system, the column at
``omega = 0`` in the frame that turns each oscillator at its own frequency.

One order-6 Magnus solve integrates them (A. Iserles and S. P. Norsett,
Phil. Trans. R. Soc. A 357, 983 (1999)), keeping only the current state.
Each step's propagator is an exponential in su(1,1), so it keeps
``|a|^2 - |b|^2 = 1`` to rounding, which the solve checks per column;
every column's error estimate meets the tolerance on its own, so a
stack of modes steps as finely as its hardest mode alone.  The pair
``(u, v)`` maps to squeeze variables through

    u = e^{-i delta} cosh(r),   v = e^{-i (delta - theta)} sinh(r)

of which the bound needs only the amplitude ``r = asinh|v|``, which
``field_modes.spectrum`` takes from each pair.  The flow of these
variables is singular at ``r = 0``, where ``theta'`` carries
``1/sinh(r)``, which is why the linear ``(u, v)`` system is what gets
integrated.

For the quasi-de Sitter pump (``g = i * strength * (-1/tau)`` on ``tau < 0``)
with the canonical normalization ``strength = 1`` the system is solved in
closed form by the standard massless mode functions
``e^{-i k tau} (1 - i/(k tau))``; :func:`desitter_exact_pair` evaluates that
solution by matching at ``tau_in`` and serves as the independent oracle for
the integrator and for the benchmark's spectrum check.
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
    "check_span",
    "integrate_uv",
    "integrate_modes",
    "integrate_qm",
    "desitter_exact_pair",
]


class PumpError(ValueError):
    """Invalid pump profile or pump/interval combination."""


class SingularPumpError(PumpError):
    """The integration interval contains a pump singularity."""


class IntegrationError(RuntimeError):
    """The adaptive integrator failed or the solution broke unitarity."""


# the config fields of each pump kind besides ``kind``
_CONFIG_FIELDS = {"constant": ("q0", "theta_in"),
                  "gaussian_pulse": ("amplitude", "center", "width", "theta_in"),
                  "de_sitter": ("strength",),
                  "tabulated": ("samples", "theta_in")}


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

    KINDS = tuple(_CONFIG_FIELDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise PumpError(f"unknown pump kind {self.kind!r}")
        # a NaN or infinite parameter gives a non-finite generator, which no
        # step grid can resolve
        for name in ("q0", "theta_in", "amplitude", "center", "width", "strength"):
            if not np.isfinite(getattr(self, name)):
                raise PumpError(f"pump {name} must be finite, got {getattr(self, name)}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise PumpError("tabulated pump times and values must be finite")
        w = self.width  # a pulse divides by 2 w^2, which must not round to 0 or inf
        if self.kind == "gaussian_pulse" and not (w > 0 and 0 < 2.0 * w * w < np.inf):
            raise PumpError(f"gaussian_pulse width {w} must be positive with 2 width^2 in range")
        if self.kind == "tabulated":
            t = np.asarray(self.times, dtype=float)
            if t.size < 2 or np.any(t[1:] <= t[:-1]):
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

        A config that is not a mapping, lacks a required field, holds a
        non-numeric one or a field its kind does not take raises
        :class:`PumpError` naming the field.
        """
        if not isinstance(spec, dict):
            raise PumpError(f"pump config must be a JSON object, got {type(spec).__name__}")
        kind = spec.get("kind")
        if kind not in cls.KINDS:
            raise PumpError(f"unknown pump kind {kind!r}")
        for name in spec:
            if name != "kind" and name not in _CONFIG_FIELDS[kind]:
                raise PumpError(f"pump config field {name!r} is not a field of a {kind} "
                                f"pump, which takes {', '.join(_CONFIG_FIELDS[kind])}")

        def number(field, default=None):
            if field not in spec and default is None:
                raise PumpError(f"pump config needs the field {field!r}")
            return _config_number(spec.get(field, default), field)

        if kind == "constant":
            return cls.constant(number("q0"), number("theta_in", 0.0))
        if kind == "gaussian_pulse":
            return cls.gaussian_pulse(number("amplitude"), number("center"),
                                      number("width"), number("theta_in", 0.0))
        if kind == "de_sitter":
            return cls.de_sitter(number("strength", 1.0))
        samples = spec.get("samples")
        if not isinstance(samples, list) or not all(
                isinstance(row, list) and len(row) == 2 for row in samples):
            raise PumpError("pump field 'samples' must be a list of [time, value] pairs")
        table = [_config_number(x, "samples") for row in samples for x in row]
        return cls.tabulated(table[0::2], table[1::2], number("theta_in", 0.0))

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
            # far from the centre the exponent overflows to -inf, and the pump to 0
            with np.errstate(over="ignore"):
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


def check_span(t_in: float, t_fin: float, tol: float) -> None:
    """Reject a span or tolerance no step grid can meet: the bounds and the
    span's length must be finite with ``t_fin >= t_in``, and the tolerance
    finite and positive."""
    if not (np.isfinite(t_in) and np.isfinite(t_fin)):
        raise ValueError(f"integration bounds must be finite, got [{t_in}, {t_fin}]")
    if not np.isfinite(float(t_fin) - float(t_in)):
        raise ValueError(f"integration span must have a finite length, got [{t_in}, {t_fin}]")
    if t_fin < t_in:
        raise ValueError(f"t_fin must not precede t_in, got [{t_in}, {t_fin}]")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _check_unitarity(pair, tol, steps, omega):
    # guard against broken, NaN or overflowed integrations, not a
    # certification of accuracy: each step's propagator is an exact su(1,1)
    # exponential, so the invariant drifts by rounding only, and the window
    # stays far above that drift.  A NaN or infinite pair's relative defect
    # is NaN, which fails, as no comparison with NaN holds
    defect = pair.unitarity_defect()
    scale = max(abs(pair.u) ** 2 + abs(pair.v) ** 2, 1.0)
    if not defect / scale <= max(10.0 * tol * steps, 1e-10):
        raise IntegrationError(
            f"unitarity broken: | |u|^2 - |v|^2 - 1 | = {defect:.3e} "
            f"at solution scale {scale:.3e} after {steps} steps (omega = {float(omega)})"
        )


# the step ends and the three Gauss-Legendre nodes, on [0, 1]
_ENDS_AND_NODES = 0.5 + np.array([-5.0, -15.0 ** 0.5, 0.0, 15.0 ** 0.5, 5.0]) / 10.0
_NODES = _ENDS_AND_NODES[1:4]
# steps per pump call (a temporary of 50 columns is about 50 kB), the most
# steps of one solve, and the most pieces a round cuts one step into
_BLOCK, _MAX_STEPS, _MAX_SPLIT = 64, 2 ** 17, 64


def _coupling(pump, t0, h, nodes):
    """``w = i g(t)`` at the times ``t0 + h * nodes`` of every step, as an
    ``(n, len(nodes))`` array from one pump call with a 1-d array of times."""
    ts = (t0[:, None] + h[:, None] * nodes).ravel()
    return (1j * pump(ts)).reshape(-1, nodes.size)


def _magnus(q, h):
    """``(omega_6, omega_6 - omega_4)`` of steps of length ``h``.

    Column ``j`` has the generator ``A = (phi_j, q(t))``, standing for
    ``[[i phi_j, q], [conj q, -i phi_j]]``; ``q`` is shared by all columns
    and given at the three Gauss-Legendre nodes of each step, ``(n, 3)``.
    With ``A_k`` at node ``k``, ``a1 = h A_2``, ``a2 = (sqrt(15) h/3)(A_3 -
    A_1)`` and ``a3 = (10 h/3)(A_3 - 2 A_2 + A_1)`` (S. Blanes, F. Casas,
    J. A. Oteo and J. Ros, Phys. Rep. 470, 151 (2009))::

        omega_4 = a1 + a3/12 - [a1, a2]/12
        omega_6 = omega_4 + [a2, a3 - [a1, a2]]/240 + [a1, [a1, 2 a3 + [a1, a2]]]/720

    with ``[x, y] = (2 Im(q_x conj q_y), 2i (phi_x q_y - phi_y q_x))``.
    Only ``a1 = (a, p1)`` has a diagonal, ``a = h phi``, so each part of
    both is a polynomial in ``a`` with coefficients of the step alone: each
    comes back as ``(phi, q)`` coefficient lists, lowest degree first, of
    ``(n, 1)`` arrays, which :func:`_horner` evaluates.
    """
    h = h[:, None]
    p1 = h * q[:, 1:2]
    p2 = 15.0 ** 0.5 / 3.0 * h * (q[:, 2:] - q[:, :1])
    p3 = 10.0 / 3.0 * h * (q[:, 2:] - 2.0 * q[:, 1:2] + q[:, :1])
    r12, r13 = p1 * np.conj(p2), p1 * np.conj(p3)
    # [a1, a2] = (c, 2i a p2)
    c = 2.0 * r12.imag
    e_phi = [(p2 * np.conj(p3)).imag / 120.0 + c * abs(p1) ** 2 / 180.0,
             abs(p2) ** 2 / 60.0 - r13.real / 90.0, -c / 180.0]
    e_q = [1j * (c * p2 / 120.0 - r13.imag * p1 / 90.0),
           (c + 2j * r12.real) * p1 / 180.0, -p3 / 90.0, -1j * p2 / 90.0]
    omega_6 = ([e_phi[0] - c / 12.0, e_phi[1] + 1.0, e_phi[2]],
               [e_q[0] + p1 + p3 / 12.0, e_q[1] - 1j * p2 / 6.0, *e_q[2:]])
    return omega_6, (e_phi, e_q)


def _horner(coefs, a):
    """``sum_k coefs[k] a^k`` for ``(n, 1)`` coefficients and ``(n, c)`` ``a``."""
    out = coefs[-1] * a
    for coef in coefs[-2:0:-1]:
        out += coef
        out *= a
    out += coefs[0]
    return out


def _step_error(pump, phi, t0, h):
    """Each step's order-4 local error estimate, the largest over columns:
    the spectral norm ``|phi| + |q|`` of ``omega_6 - omega_4`` for the commutators,
    plus Simpson's rule against the Gauss rule for the integral of ``A``
    that both share, the only error of a one-phase pump at no frequency."""
    q = _coupling(pump, t0, h, _ENDS_AND_NODES)
    _, (e_phi, e_q) = _magnus(q[:, 1:4], h)
    a = h[:, None] * phi
    quadrature = h * ((q[:, 0] + q[:, 4]) / 6.0 + q[:, 2] * (2.0 / 9.0)
                      - (q[:, 1] + q[:, 3]) * (5.0 / 18.0))
    return (np.abs(_horner(e_phi, a)) + np.abs(_horner(e_q, a))).max(axis=1) + np.abs(quadrature)


def _expm(phi, q):
    """``(alpha, beta)`` with ``exp M = [[alpha, beta], [conj beta, conj
    alpha]]`` for ``M = [[i phi, q], [conj q, -i phi]]``: ``M^2 = s^2 I``
    with ``s^2 = |q|^2 - phi^2`` real, so ``exp M = cosh(s) I + sinh(s)/s M``,
    which is ``cos(t) I + sin(t)/t M`` at ``s = i t``."""
    aq, ap = np.abs(q), np.abs(phi)
    s2 = (aq - ap) * (aq + ap)
    s = np.sqrt(np.abs(s2))
    c, sn = np.cos(s), np.sin(s)
    grow = s2 > 0
    if grow.any():
        c[grow], sn[grow] = np.cosh(s[grow]), np.sinh(s[grow])
    ratio = np.divide(sn, s, out=np.ones_like(s), where=s > 0)
    return c + 1j * ratio * phi, ratio * q


def _chain(alpha, beta):
    """The product of the propagators ``(alpha, beta)`` along axis 0, the
    last one leftmost, multiplied in pairwise rounds."""
    while len(alpha) > 1:
        n = len(alpha) // 2 * 2
        a0, a1, b0, b1 = alpha[0:n:2], alpha[1:n:2], beta[0:n:2], beta[1:n:2]
        alpha = np.concatenate([a1 * a0 + b1 * np.conj(b0), alpha[n:]])
        beta = np.concatenate([a1 * b0 + b1 * np.conj(a0), beta[n:]])
    return alpha[0], beta[0]


def _step_grid(pump, phi, bounds, tol):
    """Edges from ``bounds[0]`` to ``bounds[-1]``, all of ``bounds`` among
    them, on which :func:`_step_error` is at most ``tol`` in every step.

    Each round estimates the steps not yet accepted and cuts each one over
    ``tol`` into as many equal pieces as the ``h^5`` scaling of the
    estimate asks for, 2 to ``_MAX_SPLIT`` (the most for a NaN estimate).
    A grid past ``_MAX_STEPS`` steps raises :class:`IntegrationError`.
    """
    edges = np.asarray(bounds, dtype=float)
    todo = np.ones(edges.size - 1, dtype=bool)
    while todo.any():
        idx = np.flatnonzero(todo)
        t0, h = edges[idx], edges[idx + 1] - edges[idx]
        ratio = np.concatenate([
            _step_error(pump, phi, t0[i:i + _BLOCK], h[i:i + _BLOCK])
            for i in range(0, idx.size, _BLOCK)]) / tol
        # the piece counts stay floats: integer arithmetic would page in
        # numpy kernels that a spectrum uses nowhere else
        pieces = np.ones(todo.size)
        pieces[idx] = np.where(ratio <= 1.0, 1.0, np.fmax(np.fmin(
            np.ceil(ratio ** 0.2), _MAX_SPLIT), 2.0))
        if pieces.sum() > _MAX_STEPS:
            raise IntegrationError(f"integrator failed: tolerance {tol:.3e} needs more "
                                   f"than {_MAX_STEPS} steps")
        # piece j of m of step i starts at edges[i] + j (edges[i+1] - edges[i]) / m
        counts = pieces.astype(np.intp)
        step = np.repeat(np.arange(todo.size), counts)
        j = np.arange(float(step.size)) - np.repeat(np.cumsum(pieces) - pieces, counts)
        cut = edges[step] + (edges[step + 1] - edges[step]) * (j / pieces[step])
        edges = np.append(np.minimum(cut, edges[step + 1]), edges[-1])
        todo = np.repeat(pieces > 1.0, counts)
    return edges


def _solve(pump, omegas, t_in, t_fin, tol):
    """Integrate ``X' = A(t) X`` for pair columns ``X`` from ``X = (1, 0)``.

    Column ``j`` has ``A = [[-i omega_j, w], [conj w, i omega_j]]``, so
    ``phi_j = -omega_j``; a non-finite frequency raises ``ValueError``.
    Returns the ``(2, n)`` state at ``t_fin``, with the propagators of
    ``_BLOCK`` steps at a time multiplied into it; no trajectory is kept.
    One grid (:func:`_step_grid`) serves every column, with each interior
    knot of a tabulated pump, or the centre and flanks of a gaussian pulse,
    an edge, and every column passes the unitarity guard over its steps.
    Overflow raises no warning: it leaves a NaN state, which fails the
    guard, or a NaN estimate, which runs into the step budget.
    """
    check_span(t_in, t_fin, tol)
    omegas = np.asarray(omegas, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError(f"frequencies must be finite, got {omegas.tolist()}")
    knots = []
    if isinstance(pump, PumpProfile):
        pump.validate_interval(t_in, t_fin)
        # where a tabulated pump's slope jumps, or a pulse's centre and its
        # flanks, which the five samples of a wide first step could all miss
        marks = pump.times
        if pump.kind == "gaussian_pulse":
            marks = [pump.center + n * pump.width for n in (-4.0, 0.0, 4.0)]
        knots = sorted({t for t in marks if t_in < t < t_fin})
    x = np.zeros((2, omegas.size), dtype=complex)
    x[0] = 1.0
    if t_fin == t_in or omegas.size == 0:
        return x
    phi = -omegas[None, :]
    with np.errstate(all="ignore"):
        edges = _step_grid(pump, phi, (t_in, *knots, t_fin), tol)
        t0, h = edges[:-1], edges[1:] - edges[:-1]
        for i in range(0, t0.size, _BLOCK):
            block = slice(i, i + _BLOCK)
            (w_phi, w_q), _ = _magnus(_coupling(pump, t0[block], h[block], _NODES), h[block])
            a = h[block, None] * phi
            alpha, beta = _chain(*_expm(_horner(w_phi, a), _horner(w_q, a)))
            x = np.array([alpha * x[0] + beta * x[1],
                          np.conj(beta) * x[0] + np.conj(alpha) * x[1]])
        for (first, second), omega in zip(x.T, omegas):
            _check_unitarity(BogoliubovPair(first, second.conjugate()), tol, edges.size - 1, omega)
    return x


def integrate_modes(pump, omegas, t_in: float, t_fin: float,
                    tol: float = 1e-10) -> list[BogoliubovPair]:
    """Integrate the per-mode systems of several frequencies in one solve.

    Each frequency is one column ``(u, conj v)`` of one stacked system, so
    the pump is evaluated once per block of steps for all of them.  ``tol``
    bounds every mode's error estimate on its own (see :func:`_solve`), and
    a single frequency gives :func:`integrate_uv` bit for bit.  A pump,
    span or integrator failure, or any one pair's unitarity guard, raises
    for the whole batch.  Returns one pair per frequency, in order.
    """
    x = _solve(pump, omegas, t_in, t_fin, tol)
    return [BogoliubovPair(u=complex(u), v=complex(v).conjugate()) for u, v in x.T]


def integrate_uv(pump, omega: float, t_in: float, t_fin: float,
                 tol: float = 1e-10) -> BogoliubovPair:
    """Integrate the per-mode system from ``(1, 0)`` over ``[t_in, t_fin]``.

    Order-6 Magnus steps, each with an order-4 error estimate of at most
    ``tol`` relative to the state, so the result lands far inside ``tol``;
    more than ``_MAX_STEPS`` steps raise :class:`IntegrationError`.  The
    unitarity defect at the end is checked against ``10*tol`` times the
    solution scale and the steps.

    ``pump(ts)`` returns ``g`` at a 1-d array of times, the nodes of up to
    ``_BLOCK`` steps in one call; a :class:`PumpProfile` is validated
    against the interval first; any other callable is seen only at the
    samples of the steps, which can miss a pulse narrower than a first
    step.  ``omega`` is the mode frequency.
    """
    pair, = integrate_modes(pump, [omega], t_in, t_fin, tol)
    return pair


def integrate_qm(pump, omega_s: float, omega_e: float, t_in: float,
                 t_fin: float, tol: float = 1e-10):
    """Integrate the resonant two-oscillator system.

    As written, with ``c = omega_s + omega_e`` and ``w = i g(t)``, the
    column ``(u_s, conj v_e)`` obeys ``X' = A X`` with

        A = [[-i omega_s, w e^{-i c t}], [conj(w e^{-i c t}), i omega_e]]

    and ``(u_e, conj v_s)`` the same with ``s`` and ``e`` swapped.  Factoring
    out the trace ``-i (omega_s - omega_e)`` and rotating by ``diag(e^{-i c
    (t - t_in)/2}, e^{+i c (t - t_in)/2})`` leaves ``w e^{-i c t_in}`` off the
    diagonal and zero on it: the per-mode system at ``omega = 0`` but for a
    constant phase, which conjugation moves onto ``v``.  So with ``(u, v)``
    of :func:`integrate_uv` at ``omega = 0`` and ``d = t_fin - t_in``::

        u_s = e^{-i omega_s d} u,   v_s = e^{-i (omega_s d + c t_in)} v

    and the same with ``s`` and ``e`` swapped.  Returns ``(pair_s, pair_e)``,
    or raises ``ValueError`` if a frequency or phase is not finite.
    """
    check_span(t_in, t_fin, tol)
    d, c = t_fin - t_in, omega_s + omega_e
    phases = [(omega * d, omega * d + c * t_in) for omega in (omega_s, omega_e)]
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"frequencies and phases must be finite, got {omega_s}, {omega_e}")
    pair = integrate_uv(pump, 0.0, t_in, t_fin, tol)
    return tuple(BogoliubovPair(u=complex(pair.u * np.exp(-1j * a)),
                                v=complex(pair.v * np.exp(-1j * b))) for a, b in phases)


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

