import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ampbound import dynamics, fock_oracle

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 30

ORACLE_GRID = [(nb, r) for nb in (0.5, 1.0, 2.0) for r in (0.3, 0.8, 1.2)]
# points far into amplification, then a diagonal of the nbar_vs_r map plane
FRONTIER_GRID = [(5.0, 1.5), (20.0, 1.0), (1.0, 2.5), (1.0, 3.0), (10.0, 2.25)] + [
    (float(nb), float(r))
    for nb, r in zip(np.logspace(-2.0, 1.0, 5), np.linspace(0.25, 1.75, 5))]

# pump configs with a NaN or infinite number, each of which once kept
# DOP853 stepping forever
NAN, INF = float("nan"), float("inf")
NON_FINITE_PUMPS = [
    {"kind": "constant", "q0": NAN},
    {"kind": "constant", "q0": INF},
    {"kind": "constant", "q0": 0.5, "theta_in": NAN},
    {"kind": "gaussian_pulse", "amplitude": INF, "center": 0, "width": 1},
    {"kind": "gaussian_pulse", "amplitude": 1, "center": 0, "width": NAN},
    {"kind": "de_sitter", "strength": NAN},
    # a NaN time passes the strictly-increasing check
    {"kind": "tabulated", "samples": [[-60, 0.1], [NAN, 0.2], [1, 0.3]]},
    {"kind": "tabulated", "samples": [[-60, 0.1], [0, NAN]]},
]
MALFORMED_PUMPS = [  # (config, what the message names)
    ({"kind": "constant"}, "'q0'"),
    ([1, 2], "JSON object"),
    ({"kind": "constant", "q0": "a"}, "'q0'"),
    ({"kind": "gaussian_pulse", "amplitude": 1, "width": 1}, "'center'"),
    ({"kind": "de_sitter", "strength": None}, "'strength'"),
    ({"kind": "tabulated"}, "'samples'"),
    ({"kind": "tabulated", "samples": [[0, 1], [1]]}, "'samples'"),
    ({"kind": "tabulated", "samples": [[0, 1], [1, "x"]]}, "'samples'"),
    # a misspelled field, and a field of another kind, once ran silently
    ({"kind": "de_sitter", "strenght": 0.5}, "'strenght'"),
    ({"kind": "constant", "q0": 0.5, "width": 1.0}, "'width'"),
]

# the 50 de Sitter modes of the spectrum benchmark: a log grid over
# k in [0.1, 10], integrated over tau in [-50, -0.1] at tol 1e-10
DESITTER_KS = np.logspace(-1.0, 1.0, 50)
DESITTER_SPAN = (-50.0, -0.1)


class CountingPump:
    """A pump callable that counts how often the integrator evaluates it."""

    def __init__(self, pump):
        self.pump, self.calls = pump, 0

    def __call__(self, t):
        self.calls += 1
        return self.pump(t)


@pytest.fixture(scope="session")
def desitter_one_mode():
    """Each mode of ``DESITTER_KS`` solved alone: its pairs and pump calls."""
    pump = CountingPump(dynamics.PumpProfile.de_sitter())
    pairs, calls = [], []
    for k in DESITTER_KS:
        pump.calls = 0
        pairs.append(dynamics.integrate_uv(pump, k, *DESITTER_SPAN, 1e-10))
        calls.append(pump.calls)
    return pairs, calls


@pytest.fixture(scope="session")
def oracle_grid_report():
    """The 9-point oracle sweep shared by the acceptance criteria."""
    import time
    t0 = time.time()
    report = fock_oracle.verify_grid(ORACLE_GRID, tolerance=1e-8, omega=1.0,
                                     truncation_tolerance=1e-12)
    report["runtime_s"] = time.time() - t0
    return report


@pytest.fixture
def pump_file(tmp_path):
    """Write a pump config (any JSON value) to a file and return its path."""
    def write(spec):
        path = tmp_path / "pump.json"
        path.write_text(json.dumps(spec))
        return str(path)
    return write


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def run_python(*args, timeout=CHILD_TIMEOUT_S):
    """Run ``python *args`` in a child that imports ``ampbound`` from ``src``.

    Returns the ``CompletedProcess`` with text output captured.  A child
    still running after ``timeout`` seconds is killed and the call raises
    ``subprocess.TimeoutExpired``, so a hang fails its test instead of
    stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_cli(*argv, timeout=CHILD_TIMEOUT_S):
    """``ampbound *argv`` in a child process; see :func:`run_python`."""
    return run_python("-m", "ampbound.cli", *argv, timeout=timeout)
