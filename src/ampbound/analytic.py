"""Closed-form thermodynamics of a two-mode parametric amplifier.

All quantities are pure functions of three occupation numbers:

* ``n_bar``  -- mean thermal occupation of the environment oscillator at the
  start of the evolution, ``n_bar = 1/(exp((omega - mu)/T) - 1)``;
* ``n_q``    -- mean number of quanta produced by the amplification,
  ``n_q = sinh^2(r)`` for squeeze amplitude ``r``;
* ``N_bar``  -- total mean occupation of the reduced system state after the
  amplification, ``N_bar = n_q * (n_bar + 1)``.

In terms of these the entropy gained by the system (initially in the vacuum)
is ``(N_bar+1) ln(N_bar+1) - N_bar ln(N_bar)`` nats, the heat flowing to the
environment is ``omega * N_bar`` and the particle flow equals ``N_bar``.  The
central inequality computed here is

    T * delta_S  <=  delta_Q - mu * delta_N

whose left/right ratio depends only on ``(T/(omega - mu), N_bar)`` or,
equivalently, on ``(n_bar, N_bar)``.

Entropies are in nats throughout; conversion to bits happens only in the
command line front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Multiplicities",
    "ThermalSpec",
    "BoundReport",
    "nbar_from_thermal",
    "pair_occupation",
    "geometric_weights",
    "geometric_tail",
    "geometric_cutoff",
    "joint_purity",
    "delta_S",
    "delta_Q",
    "delta_N",
    "entropy_gain",
    "ratio_from_occupation",
    "ratio_from_temperature",
    "bound_ratio",
]


@dataclass(frozen=True)
class Multiplicities:
    """The occupation-number triple parametrizing every closed form.

    ``N_bar`` is always derived as ``n_q * (n_bar + 1)``; it is stored for
    convenience but never accepted independently, so the defining relation
    holds exactly by construction.
    """

    n_bar: float
    n_q: float
    N_bar: float = field(init=False)

    def __post_init__(self):
        N_bar = self.n_q * (self.n_bar + 1.0)
        # NaN or inf in either input, or an overflowing product, leaves
        # N_bar non-finite
        if not np.isfinite(N_bar):
            raise ValueError(
                f"occupation numbers and N_bar = n_q (n_bar + 1) must be "
                f"finite, got n_bar={self.n_bar}, n_q={self.n_q}"
            )
        if self.n_bar < 0 or self.n_q < 0:
            raise ValueError("occupation numbers must be nonnegative")
        object.__setattr__(self, "N_bar", N_bar)

    @classmethod
    def from_squeeze(cls, n_bar: float, r: float) -> "Multiplicities":
        """Build from a squeeze amplitude, ``n_q = sinh^2(r)``.

        ``n_q`` overflows to infinity beyond ``|r|`` of about 355, which the
        constructor rejects with :class:`ValueError`.
        """
        return cls(n_bar, pair_occupation(r))


@dataclass(frozen=True)
class ThermalSpec:
    """Environment temperature, oscillator frequency and chemical potential.

    Natural units (k_B = hbar = 1).  ``omega > 0`` is required, and
    ``mu < omega`` so that the implied Bose-Einstein occupation is finite
    and positive.
    """

    T: float
    omega: float
    mu: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.T) and np.isfinite(self.omega)
                and np.isfinite(self.mu)):
            raise ValueError(
                f"T, omega and mu must be finite, got T={self.T}, "
                f"omega={self.omega}, mu={self.mu}"
            )
        if self.T <= 0:
            raise ValueError(f"temperature must be positive, got {self.T}")
        if self.omega <= 0:
            raise ValueError(f"oscillator frequency must be positive, got {self.omega}")
        if self.mu >= self.omega:
            raise ValueError(
                f"chemical potential must lie below the oscillator frequency "
                f"(mu={self.mu}, omega={self.omega})"
            )


@dataclass(frozen=True)
class BoundReport:
    """Result of a single bound evaluation.

    ``ratio`` is the dimensionless quantity ``T*delta_S/(delta_Q - mu*delta_N)``
    and ``satisfied`` is exactly ``ratio <= 1``.
    """

    delta_S: float
    delta_Q: float
    delta_N: float
    ratio: float
    satisfied: bool


_TINY = np.finfo(float).tiny


def nbar_from_thermal(spec: ThermalSpec) -> float:
    """Bose-Einstein occupation ``1/(exp((omega - mu)/T) - 1)``.

    Evaluated as ``exp(-x)/(1 - exp(-x))`` with ``x = (omega - mu)/T``,
    which never overflows and underflows gracefully to 0 for a frozen-out
    mode.  An ``x`` that rounds to 0 or to a subnormal gives ``inf``,
    without a warning, for the caller's finiteness check to reject.
    """
    x = (spec.omega - spec.mu) / spec.T
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(-x) / -np.expm1(-x))


def pair_occupation(r: float) -> float:
    """Mean number of pairs a squeeze of amplitude ``r`` produces, ``sinh(r)^2``.

    A Python float in scalar rounding; infinite, without a warning, beyond
    ``|r|`` of about 355.
    """
    with np.errstate(over="ignore"):
        return float(np.sinh(r) ** 2)


def _occupations(values, name: str = "N_bar") -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError(f"{name} must be nonnegative")
    # 1/v overflows below the smallest normal double
    if np.any((v > 0) & (v < _TINY)):
        raise ValueError(f"a nonzero {name} must be at least {_TINY}")
    return v


def _result(out: np.ndarray):
    """A Python float for a scalar evaluation, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def entropy_gain(N_bar):
    """``(N+1) ln(N+1) - N ln N`` in nats, continuously extended to 0 at N=0.

    Evaluated as ``N*log1p(1/N) + log1p(N)`` which is stable for both small
    and large ``N``.  Takes a scalar (returns a float) or an array (returns
    an array of its shape).
    """
    N = _occupations(N_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _result(np.where(N == 0, 0.0, N * np.log1p(1.0 / N) + np.log1p(N)))


def delta_S(m: Multiplicities) -> float:
    """Entropy gained by the system, in nats."""
    return entropy_gain(m.N_bar)


def _heat(omega: float, N_bar: float) -> float:
    dQ = omega * N_bar
    if not np.isfinite(dQ):
        raise ValueError(f"delta_Q = omega * N_bar overflows (omega={omega}, N_bar={N_bar})")
    return dQ


def delta_Q(omega: float, m: Multiplicities) -> float:
    """Heat transferred to the environment, ``omega * n_q * (n_bar + 1)``.

    Raises ``ValueError`` if the product overflows.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return _heat(omega, m.N_bar)


def delta_N(m: Multiplicities) -> float:
    """Particles flowing to the environment; equals ``N_bar``."""
    return m.N_bar


def _log_ratio(mean: float) -> float:
    # ln(mean/(mean+1)), taken as 0 for an infinite mean; callers handle 0
    return np.log(mean) - np.log1p(mean) if np.isfinite(mean) else 0.0


def geometric_weights(mean: float, count: int) -> np.ndarray:
    """The Bose-Einstein law of mean ``mean``: ``mean**k / (mean+1)**(k+1)``
    for ``k < count``.

    It is the thermal occupation of a mode at mean ``n_bar``; after the
    amplification the system is distributed by it at mean ``N_bar`` and the
    environment at mean ``n_bar + N_bar``.
    """
    if mean == 0:
        return (np.arange(count) == 0) * 1.0
    return np.exp(np.arange(count) * _log_ratio(mean) - np.log1p(mean))


def geometric_tail(mean: float, count: int) -> float:
    """Mass of the law beyond its first ``count`` weights, ``(mean/(mean+1))**count``."""
    if mean == 0:
        return float(count == 0)
    return float(np.exp(count * _log_ratio(mean)))


def geometric_cutoff(mean: float, tail: float) -> int | float:
    """Smallest ``K >= 0`` whose tail ``(mean/(mean+1))**(K+1)`` is at most
    ``tail``, or ``inf`` when no float fits: ``mean`` is not finite or the
    ratio rounds to 1."""
    if mean == 0:
        return 0
    log_q = _log_ratio(mean)
    if not log_q < 0:
        return np.inf
    return max(0, int(np.ceil(np.log(tail) / log_q - 1)))


def joint_purity(m: Multiplicities) -> float:
    """Closed-form expression for the purity of the joint two-mode state.

    Returns ``(n_q+1)^2 / ((1 + (2+n_bar)*n_q) * (1 + 2*n_q + n_bar*(2+3*n_q)))``
    exactly as the closed form reads.  This expression is only trustworthy in
    the no-amplification limit ``n_q -> 0`` where it reduces to
    ``1/(2*n_bar+1)``; for ``n_q > 0`` it disagrees with the brute-force
    ``Tr[rho^2]`` of the assembled joint state (most blatantly at
    ``n_bar = 0`` where unitarity demands purity 1).  Callers must treat the
    oracle value as authoritative; the verification report carries both.
    """
    nb, nq = m.n_bar, m.n_q
    return (nq + 1.0) ** 2 / (
        (1.0 + (2.0 + nb) * nq) * (1.0 + 2.0 * nq + nb * (2.0 + 3.0 * nq))
    )


def _ratio(N: np.ndarray, beta):
    # T*delta_S/((omega - mu)*N) = (delta_S/N)/beta with beta = (omega-mu)/T.
    # delta_S/N = log1p(1/N) + log1p(N)/N adds two nonnegative terms, so it
    # cancels at no N, and N*beta, which overflows, is never formed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(N == 0, 0.0, (np.log1p(1.0 / N) + np.log1p(N) / N) / beta)
    if not np.all(np.isfinite(ratio)):
        raise ValueError("bound ratio is not finite: N_bar or T/(omega - mu) out of range")
    # a subnormal ratio keeps too few digits to print 17 of them
    if np.any((ratio > 0) & (ratio < _TINY)):
        raise ValueError("bound ratio underflows: N_bar or T/(omega - mu) out of range")
    return _result(ratio)


def ratio_from_temperature(T, omega, mu, N_bar):
    """Bound ratio in the ``(T/(omega-mu), N_bar)`` parametrization.

    ``(T/(omega-mu)) * ((N+1)ln(N+1) - N ln N) / N``; returns 0 at N=0 and
    at ``T = 0``.  The arguments are scalars or broadcastable arrays; the
    result is a float when all of them are scalars.  A negative or subnormal
    ``N_bar``, or an overflowing or subnormal ratio, raises ``ValueError``;
    so does a ``(omega - mu)/T`` that overflows at a nonzero ``T`` and a
    nonzero ``N_bar``, where the ratio would round to a false 0.
    """
    N = _occupations(N_bar)
    with np.errstate(divide="ignore", over="ignore"):
        beta = np.subtract(omega, mu) / T
    if np.any(np.isinf(beta) & (np.asarray(T) != 0) & (N != 0)):
        raise ValueError("bound ratio underflows: N_bar or T/(omega - mu) out of range")
    return _ratio(N, beta)


def ratio_from_occupation(n_bar, N_bar):
    """Bound ratio in the ``(n_bar, N_bar)`` parametrization.

    ``((N+1)ln(N+1) - N ln N) / (N ln(1 + 1/n_bar))``; returns 0 at N=0 and
    in the zero-temperature limit ``n_bar -> 0``.  The arguments are scalars
    or broadcastable arrays; the result is a float when both are scalars.
    A negative or subnormal entry in either, or an overflowing or subnormal
    ratio, raises ``ValueError``.
    """
    N = _occupations(N_bar)
    with np.errstate(divide="ignore"):
        return _ratio(N, np.log1p(1.0 / _occupations(n_bar, "n_bar")))


def bound_ratio(spec: ThermalSpec, m: Multiplicities) -> BoundReport:
    """Evaluate the entropy bound ``T*delta_S <= delta_Q - mu*delta_N``.

    The ratio is :func:`ratio_from_temperature` at ``spec``: both
    parametrizations evaluate one kernel, so for ``m.n_bar`` equal to the
    occupation implied by ``spec`` it agrees with
    :func:`ratio_from_occupation` to rounding.  ``m.n_bar`` does not enter
    the ratio, so multiplicities independent of the bath spec are allowed
    and simply supply ``N_bar``.

    Returns
    -------
    BoundReport
        With ``delta_S`` (nats), ``delta_Q = omega*N_bar``, ``delta_N = N_bar``
        and ``satisfied = (ratio <= 1)``.  ``N_bar = 0`` yields ratio 0 with
        zero flows, satisfied.  An overflowing ``delta_Q``, or an overflowing
        or subnormal ratio, raises ``ValueError``.
    """
    dQ = _heat(spec.omega, m.N_bar)
    ratio = ratio_from_temperature(spec.T, spec.omega, spec.mu, m.N_bar)
    return BoundReport(
        delta_S=entropy_gain(m.N_bar),
        delta_Q=dQ,
        delta_N=m.N_bar,
        ratio=ratio,
        satisfied=bool(ratio <= 1.0),
    )

