"""One-mode reference for the tests of ``ampbound.field_modes``.

``mode_bound`` integrates a single mode on its own with
``dynamics.integrate_uv`` and evaluates its closed-form bound, the path that
``field_modes.spectrum`` replaced with one stacked solve for every mode of a
grid.  Tests hold the batched rows against it.
"""

from ampbound import analytic, dynamics
from ampbound.field_modes import ModeResult, ModeSpec, mode_result_from_multiplicities


def mode_bound(mode: ModeSpec, pump, T: float, mu: float, tau_in: float,
               tau_fin: float, tol: float = 1e-10) -> ModeResult:
    """Integrate one mode and evaluate its bound.

    The occupation is that of the bath ``(T, mu)`` at the mode's own
    frequency.  Thermal-domain, integrator and pump errors propagate.
    """
    n_bar_k = analytic.nbar_from_thermal(analytic.ThermalSpec(T, mode.omega_k, mu))
    pair = dynamics.integrate_uv(pump, mode.omega_k, tau_in, tau_fin, tol)
    triple = dynamics.extract_squeeze(pair)
    return mode_result_from_multiplicities(mode, T, mu, n_bar_k, triple.r)
