"""Entropy, heat and particle-flow bounds for parametric amplification.

A two-oscillator "system plus thermal environment" pair driven by a
pair-creating coupling, its closed-form thermodynamics, a truncated
Fock-space oracle that cross-validates every closed form, Bogoliubov
dynamics for arbitrary pump profiles, and per-mode scans for the field
generalization (scalar and two-polarization tensor modes).
"""

from .analytic import (
    BoundReport,
    Multiplicities,
    ThermalSpec,
    bound_ratio,
    delta_N,
    delta_Q,
    delta_S,
    entropy_gain,
    geometric_weights,
    joint_purity,
    nbar_from_thermal,
    ratio_from_occupation,
    ratio_from_temperature,
)
from .dynamics import (
    BogoliubovPair,
    PumpProfile,
    integrate_qm,
    integrate_uv,
)
from .field_modes import (
    ModeResult,
    ModeSpec,
    make_mode,
    spectrum,
    total_entropy,
)
from .fock_oracle import (
    TruncationSpec,
    choose_truncation,
    expectations,
    verify_grid,
    verify_point,
    von_neumann_entropy,
)

__version__ = "0.1.0"
