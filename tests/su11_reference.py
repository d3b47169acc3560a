"""General SU(1,1) evolution of two-mode number states, with phases.

The pair-creating interaction is generated by

    K_plus = s* e*,   K_minus = s e,   K_zero = (s* s + e e*)/2

which close the su(1,1) algebra ``[K0, K+-] = +-K+-``, ``[K+, K-] = -2 K0``.
The two-mode squeeze unitary ``exp(z* K- - z K+)`` with ``z = r e^{i theta}``
factorizes (Baker-Campbell-Hausdorff for this algebra) into

    exp(-e^{i theta} tanh(r) K+) . exp(-2 ln cosh(r) K0) . exp(e^{-i theta} tanh(r) K-)

and a subsequent mode rotation contributes only diagonal phases
``exp(-i (delta_s n_s + delta_e n_e))``.  Applying the factorized operator to
a number state ``|m_s, m_e>`` gives a double sum over the lowering power j
and the raising power l with amplitude

    exp(i gamma(j,l)) cosh(r)^{2j - (m_s+m_e+1)} tanh(r)^{j+l} M(j,l)

on ``|m_s - j + l, m_e - j + l>``, where

    gamma(j,l) = (delta_s + delta_e - theta)(j - l) + pi l
                 - (delta_s m_s + delta_e m_e)
    M(j,l) = sqrt(m_s! m_e! (m_s-j+l)! (m_e-j+l)!) / (j! l! (m_s-j)! (m_e-j)!)

Factorials enter only through log-gamma and each amplitude is assembled as
log-modulus plus phase.

This is the reference the production ladder weights
(:func:`ampbound.su11.ladder_tiles`, assembled into one matrix by
:func:`ladder_weights`) are checked against: the generators
and the factorization are compared with matrix exponentials, the double sum
with a direct exponential of the generator, and :func:`joint_kets` mixes
the evolved sectors into the ket ensemble from which
``dense_reference`` builds the full product-basis joint state.
:func:`squeeze_tail` is the exact weighted ladder tail that the geometric
cutoff of :func:`ampbound.fock_oracle.choose_truncation` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from ampbound import su11
from ampbound.analytic import geometric_weights
from ampbound.fock_oracle import TruncationError, TruncationSpec

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze amplitude plus the three phases of the evolved state.

    ``theta`` is the squeeze phase (the pump phase advanced by pi/2),
    ``delta_s`` and ``delta_e`` are the accumulated mode rotations.  Phases
    are reduced to [0, 2pi).  ``alpha`` is the relative phase that enters the
    joint-state coefficients.
    """

    r: float
    theta: float = 0.0
    delta_s: float = 0.0
    delta_e: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeeze amplitude r must be nonnegative")
        object.__setattr__(self, "theta", self.theta % TWO_PI)
        object.__setattr__(self, "delta_s", self.delta_s % TWO_PI)
        object.__setattr__(self, "delta_e", self.delta_e % TWO_PI)

    @property
    def alpha(self) -> float:
        return (self.theta + np.pi - self.delta_e - self.delta_s) % TWO_PI


@dataclass(frozen=True)
class BCHFactors:
    """Exponent coefficients of the factorized squeeze operator.

    ``exp(plus_coeff K+) . exp(zero_coeff K0) . exp(minus_coeff K-)`` equals
    ``exp(z* K- - z K+)``; the raising/lowering coefficients have modulus
    ``tanh r < 1``.
    """

    plus_coeff: complex
    zero_coeff: float
    minus_coeff: complex


def bch_factors(p: SqueezeParams) -> BCHFactors:
    """Coefficients of the factorized squeeze operator for ``z = r e^{i theta}``."""
    t = np.tanh(p.r)
    phase = np.exp(1j * p.theta)
    return BCHFactors(
        plus_coeff=-phase * t,
        zero_coeff=-2.0 * np.log(np.cosh(p.r)),
        minus_coeff=np.conj(phase) * t,
    )


@dataclass(frozen=True)
class LadderKet:
    """Two-mode ket on one charge ladder.

    ``amplitudes[i]`` is the amplitude on ``|n_s, n_e>`` with
    ``n_s = first + i`` and ``n_e = n_s + charge``; the interaction conserves
    ``n_e - n_s``, so no other basis state can carry weight.
    """

    charge: int
    first: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def evolve_basis_state(m_s: int, m_e: int, p: SqueezeParams,
                       trunc: TruncationSpec,
                       tail_tol: float | None = None) -> LadderKet:
    """Squeeze-and-rotate a number state ``|m_s, m_e>``.

    Evaluates the factorized-operator double sum with the ladder truncated at
    ``trunc.max_squeeze``.  Under unitary evolution the untruncated state has
    unit norm, so the norm deficit of the result is exactly the dropped tail
    mass; if it exceeds ``tail_tol`` (default ``trunc.tolerance``) a
    :class:`TruncationError` is raised.

    Charge superselection is structural: the result is a single ladder with
    ``n_e - n_s = m_e - m_s``, starting at ``n_s = m_s - min(m_s, m_e)``.
    """
    if m_s < 0 or m_e < 0:
        raise ValueError("mode occupations must be nonnegative")
    if tail_tol is None:
        tail_tol = trunc.tolerance
    L = trunc.max_squeeze
    charge = m_e - m_s

    if p.r == 0.0:
        amp = np.exp(-1j * (p.delta_s * m_s + p.delta_e * m_e))
        return LadderKet(charge, m_s, np.array([amp]))

    log_t = np.log(np.tanh(p.r))
    log_c = np.log(np.cosh(p.r))
    j_max = min(m_s, m_e)
    ell = np.arange(L + 1)
    # amplitude per system level n_s = m_s - j + l, accumulated over j and
    # stored from n_s = m_s - j_max on
    amps = np.zeros(j_max + L + 1, dtype=complex)
    for j in range(j_max + 1):
        log_mag = (
            (2 * j - (m_s + m_e + 1)) * log_c
            + (j + ell) * log_t
            + 0.5 * (gammaln(m_s + 1) + gammaln(m_e + 1)
                     + gammaln(m_s - j + ell + 1) + gammaln(m_e - j + ell + 1))
            - gammaln(j + 1) - gammaln(ell + 1)
            - gammaln(m_s - j + 1) - gammaln(m_e - j + 1)
        )
        gamma = (
            (p.delta_s + p.delta_e - p.theta) * (j - ell)
            + np.pi * ell
            - (p.delta_s * m_s + p.delta_e * m_e)
        )
        amps[j_max - j: j_max - j + L + 1] += np.exp(log_mag + 1j * gamma)

    ket = LadderKet(charge, m_s - j_max, amps)
    deficit = 1.0 - ket.norm_sq()
    if deficit > tail_tol:
        raise TruncationError(
            f"ladder cutoff {L} leaves tail mass {deficit:.3e} "
            f"above tolerance {tail_tol:.3e} for (m_s={m_s}, m_e={m_e}, r={p.r})"
        )
    return ket


def basis_index(n_s: int, n_e: int, dim_e: int) -> int:
    """Flat index of ``|n_s, n_e>`` in the row-major product basis."""
    return n_s * dim_e + n_e


def k_plus_matrix(dim_s: int, dim_e: int) -> np.ndarray:
    """Pair-raising generator on the truncated product basis."""
    K = np.zeros((dim_s * dim_e, dim_s * dim_e))
    for ns in range(dim_s - 1):
        for ne in range(dim_e - 1):
            K[basis_index(ns + 1, ne + 1, dim_e), basis_index(ns, ne, dim_e)] = \
                np.sqrt((ns + 1.0) * (ne + 1.0))
    return K


def k_minus_matrix(dim_s: int, dim_e: int) -> np.ndarray:
    """Pair-lowering generator; the adjoint of the raising one."""
    return k_plus_matrix(dim_s, dim_e).T.copy()


def k_zero_matrix(dim_s: int, dim_e: int) -> np.ndarray:
    """Diagonal generator ``(n_s + n_e + 1)/2`` on the product basis."""
    diag = np.array([(ns + ne + 1) / 2.0
                     for ns in range(dim_s) for ne in range(dim_e)])
    return np.diag(diag)


def squeeze_generator(z: complex, dim_s: int, dim_e: int) -> np.ndarray:
    """Anti-Hermitian exponent ``z* K- - z K+`` of the squeeze unitary."""
    kp = k_plus_matrix(dim_s, dim_e)
    return np.conj(z) * kp.T - z * kp


def rotation_phases(delta_s: float, delta_e: float,
                    dim_s: int, dim_e: int) -> np.ndarray:
    """Diagonal of the mode-rotation unitary on the product basis."""
    return np.array([np.exp(-1j * (delta_s * ns + delta_e * ne))
                     for ns in range(dim_s) for ne in range(dim_e)])


def joint_kets(n_bar: float, p: SqueezeParams, trunc: TruncationSpec) -> tuple:
    """``(pbar, kets)`` of the evolved joint state ``sum_m pbar_m |psi_m><psi_m|``.

    Row ``m`` of the complex ``(M+1, L+1)`` array ``kets`` is ``|0, m>``
    evolved by the double sum; its rung ``l`` is the basis state
    ``(n_s, n_e) = (l, m + l)``.  No tail guard: the caller compares.
    """
    M, L = trunc.max_thermal, trunc.max_squeeze
    kets = np.zeros((M + 1, L + 1), dtype=complex)
    for m in range(M + 1):
        amps = evolve_basis_state(0, m, p, trunc, tail_tol=1.0).amplitudes
        kets[m, :amps.size] = amps
    return geometric_weights(n_bar, M + 1), kets


def squeeze_tail(n_bar: float, r: float, max_thermal: int, max_squeeze: int) -> float:
    """Dropped ladder mass summed over retained thermal sectors.

    The pair ladder of the sector that started with ``m`` thermal quanta is
    negative-binomially distributed with ``m+1`` successes and failure
    probability ``tanh(r)**2``; its exact survival function beyond the cutoff
    ``L``, the regularized incomplete beta ``I_{tanh(r)**2}(L+1, m+1)``, is
    weighted by the thermal probability of the sector.
    """
    if r == 0:
        return 0.0
    t2 = np.tanh(r) ** 2
    m = np.arange(max_thermal + 1)
    tails = betainc(max_squeeze + 1, m + 1, t2)
    return float(np.sum(geometric_weights(n_bar, max_thermal + 1) * tails))


def ladder_weights(r: float, sectors: np.ndarray, max_squeeze: int) -> np.ndarray:
    """The tiles of :func:`ampbound.su11.ladder_tiles` as one dense matrix.

    Row ``i`` holds the weights of the sector ``sectors[i]`` on the rungs
    ``0..max_squeeze``.  Tiles come row block by row block, each row block
    rung by rung, so a block ends with the tile that reaches the last rung.
    """
    out = np.empty((sectors.size, max_squeeze + 1))
    row = 0
    for rows, first_rung, w in su11.ladder_tiles(r, sectors, max_squeeze):
        out[row:row + rows.size, first_rung:first_rung + w.shape[1]] = w
        if first_rung + w.shape[1] == max_squeeze + 1:
            row += rows.size
    return out
