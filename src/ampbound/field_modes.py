"""Per-mode bound evaluation over momentum grids.

Each comoving wavenumber ``k`` carries an independent two-mode amplifier:
the pump is integrated for that mode (all modes of a grid in one stacked
solve), the squeeze amplitude extracted, and the closed-form
thermodynamics evaluated with the mode's own thermal occupation
``n_bar_k = 1/(exp((omega_k - mu)/T) - 1)``.  The bath is just ``(T, mu)``;
a mode with ``mu >= omega_k`` is recorded as failed.  Every number here is
per polarization: extensive quantities (entropy, heat, particle flow) add
over modes and polarizations, and the polarization count multiplies them
only at output (the ``total_*`` helpers and ``cli.spectrum_csv``); the bound
ratio is intensive.

Two frequency conventions are supported for massless modes: the default
``omega_k = k`` (consistent with the ``1/sqrt(2k)`` ladder normalization)
and the alternative ``omega_k = sqrt(k/2)`` kept behind a switch; the two
appear in the underlying bookkeeping and are not reconciled here, so neither
is asserted as canonical.  Box-normalized (discrete) modes only; no
density-of-states factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics

__all__ = [
    "OMEGA_CONVENTIONS",
    "ModeSpec",
    "ModeResult",
    "make_mode",
    "mode_result_from_multiplicities",
    "spectrum",
    "total_entropy",
    "total_heat",
    "total_particles",
]

OMEGA_CONVENTIONS = {
    "k": lambda k: k,
    "sqrt_k_over_2": lambda k: float(np.sqrt(k / 2.0)),
}


@dataclass(frozen=True)
class ModeSpec:
    """One comoving mode: wavenumber and frequency."""

    k: float
    omega_k: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and np.isfinite(self.omega_k)):
            raise ValueError(
                f"k and omega_k must be finite, got k={self.k}, "
                f"omega_k={self.omega_k}"
            )
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.omega_k <= 0:
            raise ValueError("omega_k must be positive")


def make_mode(k: float, convention: str = "k") -> ModeSpec:
    """Mode with its frequency fixed by the chosen dispersion convention."""
    if convention not in OMEGA_CONVENTIONS:
        raise ValueError(
            f"unknown omega convention {convention!r}; "
            f"choose from {sorted(OMEGA_CONVENTIONS)}"
        )
    return ModeSpec(k=k, omega_k=OMEGA_CONVENTIONS[convention](k))


@dataclass(frozen=True)
class ModeResult:
    """Per-mode record; every number is per polarization.

    ``delta_N_k == N_bar_k`` and ``delta_Q_k == omega_k * delta_N_k`` hold by
    construction.  The record carries no polarization count: the aggregate
    helpers and ``cli.spectrum_csv`` apply it.  A failed mode carries its
    message in ``error`` and NaN numerics.
    """

    k: float
    omega_k: float
    r_k: float
    n_bar_k: float
    n_q_k: float
    N_bar_k: float
    delta_S_k: float
    delta_Q_k: float
    delta_N_k: float
    ratio_k: float
    satisfied: bool
    error: str | None = None

    @classmethod
    def failed(cls, mode: ModeSpec, message: str) -> "ModeResult":
        nan = float("nan")
        return cls(k=mode.k, omega_k=mode.omega_k, r_k=nan, n_bar_k=nan,
                   n_q_k=nan, N_bar_k=nan, delta_S_k=nan, delta_Q_k=nan,
                   delta_N_k=nan, ratio_k=nan, satisfied=False, error=message)


def mode_result_from_multiplicities(mode: ModeSpec, T: float, mu: float,
                                    n_bar_k: float, r_k: float) -> ModeResult:
    """Closed-form bound record for given occupations, no dynamics.

    The record is :func:`ampbound.analytic.bound_ratio` for the bath
    ``(T, mu)`` at the mode's own frequency, the plain two-oscillator bound.
    An overflowing ``delta_Q`` or ratio raises ``ValueError``, which
    :func:`spectrum` records as the mode's error row.
    """
    mult = analytic.Multiplicities.from_squeeze(n_bar_k, r_k)
    report = analytic.bound_ratio(analytic.ThermalSpec(T, mode.omega_k, mu), mult)
    return ModeResult(
        k=mode.k,
        omega_k=mode.omega_k,
        r_k=r_k,
        n_bar_k=n_bar_k,
        n_q_k=mult.n_q,
        N_bar_k=mult.N_bar,
        delta_S_k=report.delta_S,
        delta_Q_k=report.delta_Q,
        delta_N_k=report.delta_N,
        ratio_k=report.ratio,
        satisfied=report.satisfied,
    )


def spectrum(kgrid, pump, T: float, mu: float, tau_in: float, tau_fin: float,
             tol: float = 1e-10, convention: str = "k") -> list[ModeResult]:
    """Evaluate the bound on every mode of a sorted wavenumber grid.

    Results come back in grid order.  The bath, the integration span and
    the tolerance are checked once, before any mode runs, and raise
    ``ValueError``; a failure on one mode is recorded in its result and does
    not abort the scan.

    Every mode whose occupation exists (``mu < omega_k``) is integrated in
    one stacked solve (:func:`ampbound.dynamics.integrate_modes`), where
    ``tol`` holds per mode.  If that solve fails, each of its modes is
    solved alone, so a pump or integrator failure lands only in the rows of
    the modes it belongs to, exactly as a one-mode solve reports it.
    """
    if not (np.isfinite(T) and T > 0 and np.isfinite(mu)):
        raise ValueError(
            f"T must be finite and positive and mu finite, got T={T}, mu={mu}"
        )
    dynamics.check_span(tau_in, tau_fin, tol)
    kgrid = [float(k) for k in kgrid]
    if any(k2 <= k1 for k1, k2 in zip(kgrid, kgrid[1:])):
        raise ValueError("kgrid must be sorted ascending with distinct entries")
    modes = [make_mode(k, convention=convention) for k in kgrid]
    failures = (dynamics.IntegrationError, ValueError)

    def solve(omegas):
        return dynamics.integrate_modes(pump, omegas, tau_in, tau_fin, tol)

    results, n_bars = {}, {}
    for i, mode in enumerate(modes):
        try:
            n_bars[i] = analytic.nbar_from_thermal(
                analytic.ThermalSpec(T, mode.omega_k, mu))
        except ValueError as exc:
            results[i] = ModeResult.failed(mode, str(exc))
    try:
        pairs = solve([modes[i].omega_k for i in n_bars])
    except failures:
        pairs = [None] * len(n_bars)
    for (i, n_bar_k), pair in zip(n_bars.items(), pairs):
        try:
            if pair is None:
                pair, = solve([modes[i].omega_k])
            r_k = dynamics.extract_squeeze(pair).r
            results[i] = mode_result_from_multiplicities(modes[i], T, mu, n_bar_k, r_k)
        except failures as exc:
            results[i] = ModeResult.failed(modes[i], str(exc))
    return [results[i] for i in range(len(modes))]


def _clean(results) -> list[ModeResult]:
    return [res for res in results if res.error is None]


def total_entropy(results, polarizations: int = 1) -> float:
    """Mode-summed entropy gain, ``polarizations * sum_k delta_S_k`` (nats)."""
    return polarizations * sum(res.delta_S_k for res in _clean(results))


def total_heat(results, polarizations: int = 1) -> float:
    """Mode-summed heat flow, ``polarizations * sum_k delta_Q_k``."""
    return polarizations * sum(res.delta_Q_k for res in _clean(results))


def total_particles(results, polarizations: int = 1) -> float:
    """Mode-summed particle flow, ``polarizations * sum_k delta_N_k``."""
    return polarizations * sum(res.delta_N_k for res in _clean(results))
