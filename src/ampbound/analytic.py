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

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Multiplicities",
    "ThermalSpec",
    "BoundReport",
    "RegimeValidityWarning",
    "nbar_from_thermal",
    "system_weights",
    "environment_weights",
    "environment_pgf",
    "joint_purity",
    "delta_S",
    "delta_Q",
    "delta_N",
    "entropy_gain",
    "ratio_from_occupation",
    "ratio_from_temperature",
    "bound_ratio",
    "asymptotic_ratio",
    "ASYMPTOTIC_REGIMES",
]


class RegimeValidityWarning(UserWarning):
    """An asymptotic expression was evaluated outside its validity regime."""


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
        return cls(n_bar, float(np.sinh(r) ** 2))


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
    mode.
    """
    x = (spec.omega - spec.mu) / spec.T
    return float(np.exp(-x) / -np.expm1(-x))


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


def system_weights(m: Multiplicities, ell_max: int) -> np.ndarray:
    """Occupation probabilities of the reduced system state.

    The reduced system state after amplification is diagonal with geometric
    weights ``p_l = N_bar^l / (N_bar+1)^(l+1)``.

    Parameters
    ----------
    m : Multiplicities
    ell_max : int
        Highest occupation number included (inclusive).

    Returns
    -------
    ndarray of shape (ell_max+1,)
    """
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    N = m.N_bar
    ell = np.arange(ell_max + 1)
    if N == 0:
        out = np.zeros(ell_max + 1)
        out[0] = 1.0
        return out
    # log-space geometric weights: l*ln N - (l+1)*ln(N+1)
    return np.exp(ell * np.log(N) - (ell + 1) * np.log1p(N))


def environment_weights(m: Multiplicities, ell_max: int, m_max: int) -> np.ndarray:
    """Joint occupation probabilities of the reduced environment state.

    Entry ``[l, mm]`` is the probability that the environment holds ``mm``
    initial thermal quanta and ``l`` amplified pairs:

        C(mm+l, mm) * n_bar^mm * n_q^l / ((n_bar+1)^(mm+1) * (n_q+1)^(mm+l+1))

    The binomials and powers are combined in log space, one exponentiation
    per entry, so large indices do not overflow.

    Returns
    -------
    ndarray of shape (ell_max+1, m_max+1)
    """
    from scipy.special import gammaln

    if ell_max < 0 or m_max < 0:
        raise ValueError("ell_max and m_max must be nonnegative")
    nb, nq = m.n_bar, m.n_q
    ell = np.arange(ell_max + 1)[:, None]
    mm = np.arange(m_max + 1)[None, :]
    log_binom = gammaln(mm + ell + 1) - gammaln(mm + 1) - gammaln(ell + 1)
    # occupation powers: n^k in log space, with 0^0 = 1 and 0^k = 0
    mterm = mm * np.log(nb) if nb > 0 else np.where(mm > 0, -np.inf, 0.0)
    lterm = ell * np.log(nq) if nq > 0 else np.where(ell > 0, -np.inf, 0.0)
    logp = (
        log_binom + mterm + lterm
        - (mm + 1) * np.log1p(nb)
        - (mm + ell + 1) * np.log1p(nq)
    )
    return np.exp(logp)


def environment_pgf(m: Multiplicities, s: float, w: float) -> float:
    """Probability generating function of the environment weights.

    ``sum_{l,mm} s^mm w^l p[l,mm] = 1/(1 + (1-s)*n_bar + (1-w)*N_bar)``.
    ``s`` tags the initial thermal quanta, ``w`` the amplified pairs; both
    marginals are of Bose-Einstein form, with means ``n_bar`` and ``N_bar``.
    """
    return 1.0 / (1.0 + (1.0 - s) * m.n_bar + (1.0 - w) * m.N_bar)


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
    return _result(ratio)


def ratio_from_temperature(T, omega, mu, N_bar):
    """Bound ratio in the ``(T/(omega-mu), N_bar)`` parametrization.

    ``(T/(omega-mu)) * ((N+1)ln(N+1) - N ln N) / N``; returns 0 at N=0 and
    at ``T = 0``.  The arguments are scalars or broadcastable arrays; the
    result is a float when all of them are scalars.  A negative or subnormal
    ``N_bar``, or a ratio that overflows, raises ``ValueError``.
    """
    with np.errstate(divide="ignore"):
        return _ratio(_occupations(N_bar), np.subtract(omega, mu) / T)


def ratio_from_occupation(n_bar, N_bar):
    """Bound ratio in the ``(n_bar, N_bar)`` parametrization.

    ``((N+1)ln(N+1) - N ln N) / (N ln(1 + 1/n_bar))``; returns 0 at N=0 and
    in the zero-temperature limit ``n_bar -> 0``.  The arguments are scalars
    or broadcastable arrays; the result is a float when both are scalars.
    A negative or subnormal entry in either, or a ratio that overflows,
    raises ``ValueError``.
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
        zero flows, satisfied.  An overflowing ``delta_Q`` or ratio raises
        ``ValueError``.
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


# validity predicate per regime, evaluated on (n_bar, N_bar)
ASYMPTOTIC_REGIMES = {
    "largeN_general": lambda nb, N: N > 1,
    "largeN_large_nbar": lambda nb, N: N > 1 and nb > 1,
    "largeN_small_nbar": lambda nb, N: N > 1 and nb < 1,
    "smallN_general": lambda nb, N: N < 1,
    "smallN_small_nbar": lambda nb, N: N < 1 and nb < 1,
    "smallN_large_nbar": lambda nb, N: N < 1 and nb > 1,
}


def asymptotic_ratio(regime: str, spec: ThermalSpec, m: Multiplicities) -> float:
    """Leading-order expansions of the bound ratio in the six regimes.

    ``largeN_*`` expand in powers of ``1/N_bar`` (amplification effective),
    ``smallN_*`` expand around the unamplified limit.  The expression is
    evaluated even when the regime's validity condition fails; a
    ``RegimeValidityWarning`` is emitted in that case.

    Regimes and expressions:

    * ``largeN_general``     ``(1 + ln N) / (N ln(1 + 1/n_bar))``
    * ``largeN_large_nbar``  ``(1 + ln(n_q n_bar)) / n_q``
    * ``largeN_small_nbar``  ``(T/(omega-mu)) (1 + ln N) / N``
    * ``smallN_general``     ``(1 - ln N) / ln(1 + 1/n_bar)``
    * ``smallN_small_nbar``  ``(1 - ln n_q) / ln(1/n_bar)``
    * ``smallN_large_nbar``  ``n_bar (1 - ln(n_q n_bar))``
    """
    if regime not in ASYMPTOTIC_REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    nb, nq, N = m.n_bar, m.n_q, m.N_bar
    if not ASYMPTOTIC_REGIMES[regime](nb, N):
        warnings.warn(
            f"regime {regime} evaluated outside its validity domain "
            f"(n_bar={nb}, N_bar={N})",
            RegimeValidityWarning,
            stacklevel=2,
        )
    if regime == "largeN_general":
        return (1.0 + np.log(N)) / (N * np.log1p(1.0 / nb))
    if regime == "largeN_large_nbar":
        return (1.0 + np.log(nq * nb)) / nq
    if regime == "largeN_small_nbar":
        return (spec.T / (spec.omega - spec.mu)) * (1.0 + np.log(N)) / N
    if regime == "smallN_general":
        return (1.0 - np.log(N)) / np.log1p(1.0 / nb)
    if regime == "smallN_small_nbar":
        return (1.0 - np.log(nq)) / np.log(1.0 / nb)
    # smallN_large_nbar
    return nb * (1.0 - np.log(nq * nb))
