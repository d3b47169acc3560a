"""Per-mode bound evaluation over momentum grids.

Each comoving wavenumber ``k`` carries an independent two-mode amplifier:
the pump is integrated for that mode, the squeeze amplitude extracted, and
the closed-form thermodynamics evaluated with the mode's own thermal
occupation ``n_bar_k = 1/(exp((omega_k - mu)/T) - 1)``.  Extensive
quantities (entropy, heat, particle flow) add over modes and over
polarizations; the bound ratio is intensive and identical for every
polarization of the same ``k``.

Two frequency conventions are supported for massless modes: the default
``omega_k = k`` (consistent with the ``1/sqrt(2k)`` ladder normalization)
and the alternative ``omega_k = sqrt(k/2)`` kept behind a switch; the two
appear in the underlying bookkeeping and are not reconciled here, so neither
is asserted as canonical.  Box-normalized (discrete) modes only; no
density-of-states factors.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics

__all__ = [
    "OMEGA_CONVENTIONS",
    "ModeSpec",
    "ModeResult",
    "make_mode",
    "mode_result_from_multiplicities",
    "mode_bound",
    "spectrum",
    "total_entropy",
    "total_heat",
    "total_particles",
    "spectrum_csv",
]

OMEGA_CONVENTIONS = {
    "k": lambda k: k,
    "sqrt_k_over_2": lambda k: float(np.sqrt(k / 2.0)),
}


@dataclass(frozen=True)
class ModeSpec:
    """One comoving mode: wavenumber, frequency, polarization count."""

    k: float
    omega_k: float
    polarizations: int = 1

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
        if self.polarizations not in (1, 2):
            raise ValueError("polarizations must be 1 (scalar) or 2 (tensor)")


def make_mode(k: float, convention: str = "k", polarizations: int = 1) -> ModeSpec:
    """Mode with its frequency fixed by the chosen dispersion convention."""
    if convention not in OMEGA_CONVENTIONS:
        raise ValueError(
            f"unknown omega convention {convention!r}; "
            f"choose from {sorted(OMEGA_CONVENTIONS)}"
        )
    return ModeSpec(k=k, omega_k=OMEGA_CONVENTIONS[convention](k),
                    polarizations=polarizations)


@dataclass(frozen=True)
class ModeResult:
    """Per-mode record; delta quantities are per polarization.

    ``delta_N_k == N_bar_k`` and ``delta_Q_k == omega_k * delta_N_k`` hold by
    construction; aggregate helpers apply the polarization multiplicity.
    A failed mode carries its message in ``error`` and NaN numerics.
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
    polarizations: int = 1
    error: str | None = None

    @classmethod
    def failed(cls, mode: ModeSpec, message: str) -> "ModeResult":
        nan = float("nan")
        return cls(k=mode.k, omega_k=mode.omega_k, r_k=nan, n_bar_k=nan,
                   n_q_k=nan, N_bar_k=nan, delta_S_k=nan, delta_Q_k=nan,
                   delta_N_k=nan, ratio_k=nan, satisfied=False,
                   polarizations=mode.polarizations, error=message)


def mode_result_from_multiplicities(mode: ModeSpec, thermal: analytic.ThermalSpec,
                                    n_bar_k: float, r_k: float) -> ModeResult:
    """Closed-form bound record for given occupations, no dynamics.

    The ratio uses the mode's own frequency in the temperature form, so for
    matching occupations it coincides with the plain two-oscillator bound.
    """
    mult = analytic.Multiplicities.from_squeeze(n_bar_k, r_k)
    spec_k = analytic.ThermalSpec(T=thermal.T, omega=mode.omega_k, mu=thermal.mu)
    report = analytic.bound_ratio(spec_k, mult)
    return ModeResult(
        k=mode.k,
        omega_k=mode.omega_k,
        r_k=r_k,
        n_bar_k=n_bar_k,
        n_q_k=mult.n_q,
        N_bar_k=mult.N_bar,
        delta_S_k=report.delta_S,
        delta_Q_k=mode.omega_k * report.delta_N,
        delta_N_k=report.delta_N,
        ratio_k=report.ratio,
        satisfied=report.satisfied,
        polarizations=mode.polarizations,
    )


def mode_bound(mode: ModeSpec, pump, thermal: analytic.ThermalSpec,
               tau_in: float, tau_fin: float, tol: float = 1e-10) -> ModeResult:
    """Integrate one mode and evaluate its bound.

    ``thermal`` supplies temperature and chemical potential; the occupation
    is evaluated at the mode's own frequency (``thermal.omega`` is not
    used).  Integrator and pump errors propagate.
    """
    spec_k = analytic.ThermalSpec(T=thermal.T, omega=mode.omega_k, mu=thermal.mu)
    n_bar_k = analytic.nbar_from_thermal(spec_k)
    pair = dynamics.integrate_uv(pump, mode.omega_k, tau_in, tau_fin, tol)
    triple = dynamics.extract_squeeze(pair)
    return mode_result_from_multiplicities(mode, thermal, n_bar_k, triple.r)


def spectrum(kgrid, pump, thermal: analytic.ThermalSpec, tau_in: float,
             tau_fin: float, tol: float = 1e-10, polarizations: int = 1,
             convention: str = "k") -> list[ModeResult]:
    """Evaluate the bound on every mode of a sorted wavenumber grid.

    Results come back in grid order.  A failure on one mode is recorded in
    its result and does not abort the scan.
    """
    kgrid = [float(k) for k in kgrid]
    if any(k2 <= k1 for k1, k2 in zip(kgrid, kgrid[1:])):
        raise ValueError("kgrid must be sorted ascending with distinct entries")
    modes = [make_mode(k, convention=convention, polarizations=polarizations)
             for k in kgrid]

    def run(mode: ModeSpec) -> ModeResult:
        try:
            return mode_bound(mode, pump, thermal, tau_in, tau_fin, tol)
        except (dynamics.PumpError, dynamics.IntegrationError, ValueError) as exc:
            return ModeResult.failed(mode, str(exc))

    return [run(mode) for mode in modes]


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def spectrum_csv(results, polarizations: int = 1) -> str:
    """Render results as CSV, 17 significant digits, deterministic.

    Extensive columns (delta_S_k, delta_Q_k, delta_N_k) carry the
    polarization multiplicity; the ratio stays per polarization.  With two
    polarizations an explicit ``polarizations`` column is inserted.
    """
    cols = ["k", "r_k", "n_bar_k", "n_q_k", "N_bar_k",
            "delta_S_k", "delta_Q_k", "delta_N_k", "ratio_k", "satisfied"]
    if polarizations == 2:
        cols.append("polarizations")
    cols.append("error")
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for res in results:
        if res.error is not None:
            row = [_fmt(res.k)] + [""] * 9
            if polarizations == 2:
                row.append(str(polarizations))
            row.append(res.error.replace(",", ";"))
        else:
            row = [
                _fmt(res.k), _fmt(res.r_k), _fmt(res.n_bar_k), _fmt(res.n_q_k),
                _fmt(res.N_bar_k),
                _fmt(polarizations * res.delta_S_k),
                _fmt(polarizations * res.delta_Q_k),
                _fmt(polarizations * res.delta_N_k),
                _fmt(res.ratio_k),
                "true" if res.satisfied else "false",
            ]
            if polarizations == 2:
                row.append(str(polarizations))
            row.append("")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()

