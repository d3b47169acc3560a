"""Brute-force truncated-Fock-space engine.

Everything the closed forms in :mod:`ampbound.analytic` claim is re-derived
here from the evolved joint state of the two oscillators on a truncated
number basis, reduced by plain sums: partial traces, entropies, mean
occupations, purities.  No closed-form shortcut enters any of these
operations, which is what makes the module usable as ground truth.

The system starts in the vacuum and the environment in a Bose-Einstein
mixture, and the pair-creating interaction conserves ``n_e - n_s``.  The
evolved joint state is therefore the mixture ``sum_m pbar_m |psi_m><psi_m|``
of one pure pair ladder per charge sector ``m``, whose rung ``l`` is the
basis state ``(n_s, n_e) = (l, m + l)``.  A partial trace keeps only the
entries whose traced-out labels agree, and those lie on the diagonal, so
each reduced state is an occupation distribution: a probability vector
indexed by number label, whose entries are its eigenvalues.  Only the
weights ``pbar_m |<l, m+l|psi_m>|**2`` reach the reductions, and
:func:`reduce_joint_state` adds each tile of :func:`ampbound.su11.ladder_tiles`
into the purity and, by number label, into both distributions as it is
made, without storing the joint state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytic, su11

__all__ = [
    "ENTRY_BUDGET",
    "TruncationError",
    "TruncationInfeasibleError",
    "TruncationSpec",
    "JointReduction",
    "choose_truncation",
    "reduce_joint_state",
    "von_neumann_entropy",
    "expectations",
    "verify_point",
    "verify_grid",
]

ENTRY_BUDGET = 2 * 10**7      # max ladder weights one reduction evaluates

EIGENVALUE_FLOOR = -1e-10     # below this a probability is a bug, not noise


class TruncationError(RuntimeError):
    """A truncated construction failed to reach the requested tail mass."""


class TruncationInfeasibleError(TruncationError):
    """The requested tolerance needs more work than the configured budget."""


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs for the joint-state construction.

    ``max_thermal`` bounds the initial thermal occupation sum (index ``m``),
    ``max_squeeze`` bounds the pair ladder (index ``l``), ``tolerance`` is
    the total probability mass the truncation is allowed to drop.  The
    documented tail estimator is::

        (n_bar/(n_bar+1))**(M+1)
          + sum_{m<=M} pbar_m * NegBin(m+1, 1 - tanh(r)**2).sf(L)
          <=  (n_bar/(n_bar+1))**(M+1) + (N/(N+1))**(L+1)  <=  tolerance

    with ``N = sinh(r)**2 (n_bar + 1)``: the geometric tail of the thermal
    sum plus the negative-binomial ladder tails weighted by the thermal
    distribution, which the tail of the geometric system marginal bounds.
    """

    max_thermal: int
    max_squeeze: int
    tolerance: float

    def __post_init__(self):
        if self.max_thermal < 0 or self.max_squeeze < 0:
            raise ValueError("cutoffs must be nonnegative")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must be in (0, 1)")


@dataclass(frozen=True)
class JointReduction:
    """What the oracle keeps of the evolved joint state.

    ``p_s`` and ``p_e`` are the occupation distributions of the system and
    the environment, indexed by number label; ``purity`` is ``Tr[rho^2]``;
    ``dropped_mass`` is the probability the truncation left out, the thermal
    tail beyond the last sector plus the weighted ladder tails beyond the
    last rung.
    """

    p_s: np.ndarray
    p_e: np.ndarray
    purity: float
    dropped_mass: float


def choose_truncation(n_bar: float, r: float, tolerance: float,
                      budget: int = ENTRY_BUDGET) -> TruncationSpec:
    """Smallest cutoffs that cut two geometric tails at half the tolerance.

    The thermal sum is geometric with mean ``n_bar``, which fixes ``M``.
    The ladder of sector ``m`` is negative binomial, ``C(m+l, l) t^l
    (1-t)^(m+1)`` with ``t = tanh(r)**2``; mixed over ``pbar_m = (1-q) q^m``,
    ``q = n_bar/(n_bar+1)``, it gives the geometric system marginal of ratio
    ``t/(1 - q(1-t)) = N/(N+1)``, ``N = sinh(r)**2 (n_bar + 1)``.  The
    weighted ladder tails of the retained sectors are at most that
    marginal's tail, which fixes ``L``.  Both cutoffs are nondecreasing as
    the tolerance shrinks, and the work ``(M+1)(L+1)`` is checked against
    the budget before anything is evaluated.

    Raises
    ------
    ValueError
        If ``n_bar`` or ``r`` is negative or not finite, or the tolerance is
        outside ``(0, 1)`` or so small that half of it rounds to 0.
    TruncationInfeasibleError
        If the reduction would evaluate more than ``budget`` ladder weights,
        or a cutoff does not fit a float.
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be in (0, 1)")
    if not (np.isfinite(n_bar) and np.isfinite(r)):
        raise ValueError(f"n_bar and r must be finite, got n_bar={n_bar}, r={r}")
    if n_bar < 0 or r < 0:
        raise ValueError("n_bar and r must be nonnegative")
    half = tolerance / 2.0
    # a zero tail has no cutoff: log(0) would reach int() as inf
    if half == 0:
        raise ValueError(f"tolerance {tolerance} is too small: half of it rounds to 0")
    # N overflows to inf beyond r of about 355, which has no cutoff
    N_bar = analytic.pair_occupation(r) * (n_bar + 1.0)
    M = analytic.geometric_cutoff(n_bar, half)
    L = analytic.geometric_cutoff(N_bar, half)
    entries = (M + 1) * (L + 1)
    if entries > budget:
        raise TruncationInfeasibleError(
            f"truncation (M={M:.3g}, L={L:.3g}) needs {entries:.3g} ladder "
            f"weights for n_bar={n_bar}, r={r}, tolerance={tolerance}; "
            f"budget is {budget}"
        )
    return TruncationSpec(max_thermal=M, max_squeeze=L, tolerance=tolerance)


def reduce_joint_state(n_bar: float, r: float, trunc: TruncationSpec) -> JointReduction:
    """Reduce the evolved joint state without storing it.

    The weights ``pbar_m C(m+l, l) tanh(r)^(2l) / cosh(r)^(2(m+1))`` arrive
    in the tiles of :func:`ampbound.su11.ladder_tiles`.  Each tile adds its
    row sums to the sector masses, its column sums to the system
    distribution (label ``l``) and its weights, binned by label ``m + l``,
    to the environment distribution; then the next tile overwrites it.
    ``np.bincount`` adds the weights of each label in ascending ``m``.
    Sectors never mix and each is rank one, so the purity is the sum of the
    squared sector masses.  The total dropped mass, the thermal tail beyond
    the last sector plus the ladder tails, must stay within
    ``trunc.tolerance``.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    M, L = trunc.max_thermal, trunc.max_squeeze
    t_tail = analytic.geometric_tail(n_bar, M + 1)
    pbar = analytic.geometric_weights(n_bar, M + 1)
    norms = np.zeros(M + 1)
    p_s = np.zeros(L + 1)
    p_e = np.zeros(M + L + 1)
    labels = None
    for m, first_rung, w in su11.ladder_tiles(r, np.arange(M + 1), L):
        rows, cols = w.shape
        norms[m] += w.sum(axis=1)
        w *= pbar[m, None]
        p_s[first_rung:first_rung + cols] += w.sum(axis=0)
        # environment label m + l less the tile's first label; the first tile
        # is the largest, so its labels cover every later tile's
        if labels is None:
            labels = np.add.outer(np.arange(rows), np.arange(cols))
        sums = np.bincount(labels[:rows, :cols].ravel(), w.ravel())
        first = m[0] + first_rung
        p_e[first:first + sums.size] += sums
    dropped = t_tail + float(np.sum(pbar * (1.0 - norms)))
    if dropped > trunc.tolerance:
        raise TruncationError(
            f"total dropped mass {dropped:.3e} above "
            f"tolerance {trunc.tolerance:.3e} (n_bar={n_bar}, r={r})"
        )
    return JointReduction(p_s=p_s, p_e=p_e,
                          purity=float(np.sum((pbar * norms) ** 2)),
                          dropped_mass=dropped)


def von_neumann_entropy(p: np.ndarray) -> float:
    """``-sum p ln p`` over an occupation distribution, in nats.

    The probabilities are the eigenvalues of the diagonal reduced state.
    Values in ``[EIGENVALUE_FLOOR, 0)`` are clamped to zero as truncation
    noise; anything below the floor raises, because a genuinely negative
    probability signals a construction bug rather than roundoff.  The sum
    runs over the probabilities in ascending order, as over an eigensolver's
    sorted spectrum, so it does not depend on the label order and adds the
    small terms first.
    """
    vals = np.sort(p)
    if vals[0] < EIGENVALUE_FLOOR:
        raise ValueError(
            f"probability {vals[0]:.3e} below validity floor {EIGENVALUE_FLOOR}"
        )
    vals = np.clip(vals, 0.0, 1.0)
    pos = vals[vals > 0]
    # 0.0 - x, not -x: a pure state's entropy is 0.0, not -0.0
    return float(0.0 - np.sum(pos * np.log(pos)))


def expectations(p: np.ndarray) -> float:
    """Mean occupation ``sum n p_n`` of a single-mode occupation distribution."""
    return float(np.sum(np.arange(p.size) * p))


def verify_point(n_bar: float, r: float, omega: float = 1.0,
                 tolerance: float = 1e-12) -> dict:
    """Run the full oracle at one ``(n_bar, r)`` point.

    Reduces the evolved joint state both ways to occupation distributions
    and returns a record comparing every oracle number against its closed
    form.  The system starts in the vacuum, of entropy 0, so its entropy
    gain is the entropy of its distribution.  The particle flow is the
    environment's mean-occupation gain over the initial Bose-Einstein law on
    the same labels, and the heat flow ``omega`` times it.

    Record fields: ``n_bar, r, M, L, delta_S_analytic, delta_S_oracle,
    delta_Q_analytic, delta_Q_oracle, delta_N_analytic, delta_N_oracle,
    purity_formula, purity_oracle``.
    A subnormal ``N_bar`` counts as no squeeze on the closed-form side, as
    it does on the oracle's: the closed forms reject it, and the flows it
    stands for are below any tolerance.
    """
    trunc = choose_truncation(n_bar, r, tolerance)
    joint = reduce_joint_state(n_bar, r, trunc)
    mult = analytic.Multiplicities.from_squeeze(n_bar, r)
    if 0 < mult.N_bar < np.finfo(float).tiny:
        mult = analytic.Multiplicities(n_bar, 0.0)

    dS_oracle = von_neumann_entropy(joint.p_s)
    p_e_in = analytic.geometric_weights(n_bar, joint.p_e.size)
    dN_oracle = expectations(joint.p_e) - expectations(p_e_in)

    return {
        "n_bar": n_bar,
        "r": r,
        "M": trunc.max_thermal,
        "L": trunc.max_squeeze,
        "delta_S_analytic": analytic.delta_S(mult),
        "delta_S_oracle": dS_oracle,
        "delta_Q_analytic": analytic.delta_Q(omega, mult),
        "delta_Q_oracle": omega * dN_oracle,
        "delta_N_analytic": analytic.delta_N(mult),
        "delta_N_oracle": dN_oracle,
        "purity_formula": analytic.joint_purity(mult),
        "purity_oracle": joint.purity,
    }


def verify_grid(points: Sequence[tuple[float, float]], tolerance: float = 1e-8,
                omega: float = 1.0, truncation_tolerance: float = 1e-12) -> dict:
    """Sweep the oracle over ``(n_bar, r)`` points and gate the agreement.

    A point passes when the entropy difference is within ``tolerance``
    absolute and heat and particle flows are within ``tolerance`` relative
    (with an absolute floor at the same value for vanishing flows).  The
    reduced states are diagonal by construction, so diagonality is not
    gated here; the tests check it on a label-blind dense route.  The
    closed-form purity comparison is recorded on every point but never
    gates; it is known to disagree with the assembled state away from the
    no-amplification limit.
    A point with invalid input or an infeasible or failed truncation is
    recorded with its error and fails; the sweep goes on to the next point.
    Invalid sweep options raise ``ValueError`` before any point runs: the
    gate needs a finite ``tolerance >= 0``, the truncation a tolerance in
    ``(0, 1)`` and the flows a finite ``omega > 0``.
    """
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if not 0 < truncation_tolerance < 1:
        raise ValueError(f"truncation tolerance must be in (0, 1), got {truncation_tolerance}")
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    records = []
    overall = True
    for n_bar, r in points:
        try:
            rec = verify_point(n_bar, r, omega=omega,
                               tolerance=truncation_tolerance)
        except (ValueError, TruncationError) as exc:
            records.append({"n_bar": n_bar, "r": r, "error": str(exc)})
            overall = False
            continue
        q_scale = max(abs(rec["delta_Q_analytic"]), 1.0)
        n_scale = max(abs(rec["delta_N_analytic"]), 1.0)
        rec["pass"] = bool(
            abs(rec["delta_S_analytic"] - rec["delta_S_oracle"]) <= tolerance
            and abs(rec["delta_Q_analytic"] - rec["delta_Q_oracle"]) <= tolerance * q_scale
            and abs(rec["delta_N_analytic"] - rec["delta_N_oracle"]) <= tolerance * n_scale
        )
        overall = overall and rec["pass"]
        records.append(rec)
    return {
        "tolerance": tolerance,
        "truncation_tolerance": truncation_tolerance,
        "omega": omega,
        "records": records,
        "pass": overall,
    }
