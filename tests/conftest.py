import numpy as np
import pytest

from ampbound import fock_oracle

ORACLE_GRID = [(nb, r) for nb in (0.5, 1.0, 2.0) for r in (0.3, 0.8, 1.2)]
# points far into amplification, then a diagonal of the nbar_vs_r map plane
FRONTIER_GRID = [(5.0, 1.5), (20.0, 1.0), (1.0, 2.5), (1.0, 3.0), (10.0, 2.25)] + [
    (float(nb), float(r))
    for nb, r in zip(np.logspace(-2.0, 1.0, 5), np.linspace(0.25, 1.75, 5))]


@pytest.fixture(scope="session")
def oracle_grid_report():
    """The 9-point oracle sweep shared by the acceptance criteria."""
    import time
    t0 = time.time()
    report = fock_oracle.verify_grid(ORACLE_GRID, tolerance=1e-8, omega=1.0,
                                     truncation_tolerance=1e-12)
    report["runtime_s"] = time.time() - t0
    return report


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
