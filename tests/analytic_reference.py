"""Independent evaluations of the closed forms in ``ampbound.analytic``.

``written_ratio`` is the bound ratio in its written temperature form,
``(T/(omega-mu)) (ln(N)/N + (1+1/N) ln(1+1/N))``.  It is a different
expression from the one kernel both ratio forms evaluate, so tests can check
the two parametrizations against it.  Its two terms cancel increasingly below
``N ~ 1e-6`` (relative error 5e-11 there, 1e-2 at ``N = 1e-15``), so it is a
reference only where ``N`` is not small.

The ``mp_*`` functions are 50-digit mpmath references on the exact values of
their float arguments.

``environment_weights`` and ``environment_pgf`` describe the environment
after the amplification jointly, by its initial thermal quanta and its
amplified pairs; both marginals are Bose-Einstein laws, and the environment
occupation, their sum, is the law at mean ``n_bar + N_bar``.
"""

import math

import mpmath
import numpy as np
from scipy.special import gammaln

MP_DIGITS = 50


def written_ratio(T: float, omega: float, mu: float, N: float) -> float:
    """The written temperature form of the bound ratio, in doubles; 0 at N=0."""
    if N == 0:
        return 0.0
    return (T / (omega - mu)) * (math.log(N) / N + (1.0 + 1.0 / N) * math.log1p(1.0 / N))


def _mpf(x):
    return mpmath.mpf(float(x))


def mp_entropy_gain(N):
    """``(N+1) ln(N+1) - N ln N``, written ``N log1p(1/N) + log1p(N)``.

    The written difference loses the ``+N`` term to cancellation below
    ``N ~ 1e-50`` even at 50 digits; this form has no cancellation.
    """
    with mpmath.workdps(MP_DIGITS):
        N = _mpf(N)
        return N * mpmath.log1p(1 / N) + mpmath.log1p(N) if N else mpmath.mpf(0)


def mp_ratio(N, beta):
    """``T delta_S / ((omega - mu) N)`` with ``beta = (omega - mu)/T`` exact."""
    with mpmath.workdps(MP_DIGITS):
        return mp_entropy_gain(N) / (_mpf(N) * beta) if N else mpmath.mpf(0)


def mp_ratio_from_temperature(T, omega, mu, N):
    with mpmath.workdps(MP_DIGITS):
        return mp_ratio(N, (_mpf(omega) - _mpf(mu)) / _mpf(T))


def mp_ratio_from_occupation(n_bar, N):
    with mpmath.workdps(MP_DIGITS):
        return mp_ratio(N, mpmath.log1p(1 / _mpf(n_bar)))


def mp_nbar_from_thermal(T, omega, mu):
    """``1/(exp((omega - mu)/T) - 1)``."""
    with mpmath.workdps(MP_DIGITS):
        return 1 / mpmath.expm1((_mpf(omega) - _mpf(mu)) / _mpf(T))


def rel_err(value: float, reference) -> float:
    """``|value - reference| / |reference|``, 0 when both vanish."""
    with mpmath.workdps(MP_DIGITS):
        if reference == 0:
            return 0.0 if value == 0 else math.inf
        return float(abs((_mpf(value) - reference) / reference))


def environment_weights(m, ell_max: int, m_max: int) -> np.ndarray:
    """Joint occupation probabilities of the reduced environment state.

    Entry ``[l, mm]`` is the probability that the environment holds ``mm``
    initial thermal quanta and ``l`` amplified pairs, for the
    ``Multiplicities`` ``m``:

        C(mm+l, mm) * n_bar^mm * n_q^l / ((n_bar+1)^(mm+1) * (n_q+1)^(mm+l+1))

    The binomials and powers are combined in log space, one exponentiation
    per entry, so large indices do not overflow.  Shape
    ``(ell_max+1, m_max+1)``.
    """
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


def environment_pgf(m, s: float, w: float) -> float:
    """Probability generating function of the environment weights.

    ``sum_{l,mm} s^mm w^l p[l,mm] = 1/(1 + (1-s)*n_bar + (1-w)*N_bar)``.
    ``s`` tags the initial thermal quanta, ``w`` the amplified pairs; both
    marginals are of Bose-Einstein form, with means ``n_bar`` and ``N_bar``.
    """
    return 1.0 / (1.0 + (1.0 - s) * m.n_bar + (1.0 - w) * m.N_bar)
