"""Independent evaluations of the closed forms in ``ampbound.analytic``.

``written_ratio`` is the bound ratio in its written temperature form,
``(T/(omega-mu)) (ln(N)/N + (1+1/N) ln(1+1/N))``.  It is a different
expression from the one kernel both ratio forms evaluate, so tests can check
the two parametrizations against it.  Its two terms cancel increasingly below
``N ~ 1e-6`` (relative error 5e-11 there, 1e-2 at ``N = 1e-15``), so it is a
reference only where ``N`` is not small.

The ``mp_*`` functions are 50-digit mpmath references on the exact values of
their float arguments.
"""

import math

import mpmath

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
