"""Entropy, heat and particle-flow bounds for parametric amplification.

A two-oscillator "system plus thermal environment" pair driven by a
pair-creating coupling, its closed-form thermodynamics, a truncated
Fock-space oracle that cross-validates every closed form, Bogoliubov
dynamics for arbitrary pump profiles, and per-mode scans for the field
generalization (scalar and two-polarization tensor modes).

``import ampbound`` loads no submodule: each name below, and each
submodule such as ``ampbound.dynamics``, is imported on first use.
"""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("analytic", "BoundReport Multiplicities ThermalSpec bose_einstein bound_ratio delta_N "
                 "delta_Q delta_S entropy_gain geometric_weights joint_purity nbar_from_thermal "
                 "ratio_from_occupation ratio_from_temperature"),
    ("dynamics", "BogoliubovPair PumpProfile integrate_qm integrate_uv"),
    ("field_modes", "ModeResult ModeSpec make_mode spectrum total_entropy"),
    ("fock_oracle", "TruncationSpec choose_truncation expectations verify_grid verify_point "
                    "von_neumann_entropy"),
) for name in names.split()}
_SUBMODULES = ("analytic", "cli", "dynamics", "field_modes", "fock_oracle", "printer", "su11")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so that the next lookup of the name finds it directly
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
