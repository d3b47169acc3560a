"""Pair-ladder weights of a vacuum system amplified against one number state.

The pair-creating interaction is generated by ``K_plus = s* e*``,
``K_minus = s e`` and ``K_zero = (s* s + e e*)/2``, which close the su(1,1)
algebra.  The two-mode squeeze unitary ``exp(z* K- - z K+)`` with
``z = r e^{i theta}`` factorizes (Baker-Campbell-Hausdorff) into

    exp(-e^{i theta} tanh(r) K+) . exp(-2 ln cosh(r) K0) . exp(e^{-i theta} tanh(r) K-)

With the system mode in the vacuum the lowering factor acts trivially, so the
number state ``|0, m>`` of the environment evolves onto the single pair
ladder ``|l, m + l>``, ``l = 0, 1, ...``, with amplitudes of modulus

    tanh(r)^l sqrt(C(m+l, l)) / cosh(r)^(m+1).

The squeeze phase and any later mode rotations only multiply these
amplitudes by phases.  The Fock oracle's reductions depend on their squared
moduli alone, the ladder weights ``C(m+l, l) tanh(r)^(2l) / cosh(r)^(2(m+1))``
of a negative-binomial distribution in ``l``, which :func:`ladder_weights`
evaluates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ladder_weights"]


def ladder_weights(r: float, sectors: np.ndarray, max_squeeze: int) -> np.ndarray:
    """Squared ladder moduli ``C(m+l, l) tanh(r)^(2l) / cosh(r)^(2(m+1))``.

    Row ``i`` belongs to the sector ``m = sectors[i]`` (nondecreasing
    environment occupations) and column ``l`` runs over the rungs
    ``0..max_squeeze``.  The weights are formed in log space from log-gamma
    factorials and exponentiated once: ``cosh(r)^(-2(m+1))`` on its own
    underflows long before a product of it with the binomial does.  At
    ``r = 0`` every sector stays on its first rung.
    """
    rungs = np.arange(max_squeeze + 1)
    if r == 0.0:
        # tanh(0)^0 is 1, but 0 * log(0) in the log form is NaN
        return np.broadcast_to(rungs == 0, (sectors.size, rungs.size)).astype(float)
    from scipy.special import gammaln

    log_fact = gammaln(np.arange(sectors[-1] + max_squeeze + 1) + 1.0)
    log_w = log_fact[sectors[:, None] + rungs]
    log_w -= log_fact[rungs]
    log_w -= (log_fact[sectors] + 2.0 * np.log(np.cosh(r)) * (sectors + 1))[:, None]
    log_w += 2.0 * np.log(np.tanh(r)) * rungs
    return np.exp(log_w, out=log_w)
