"""The three workloads: CLI commands made from a seed, and their output checks.

Each workload is a list of steps.  A step is one cold CLI command, the file
it writes, the number of operations it attempts (map cells, verify points or
spectrum modes) and a check that returns how many of those operations failed
plus a message per problem.  The seed jitters the inputs without changing
their size and picks the sample of cells that the map check recomputes.
Every reference below is computed here, independently of the CLI output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MAP_POINTS = 451          # per axis; five planes of 451**2 cells, about 1M
MAP_SAMPLE = 200          # cells per plane recomputed with mpmath
MAP_RTOL = 1e-9
MAP_HEADER = "x,y,log10_ratio,satisfied"

# the 9 acceptance points, then larger feasible points along nbar_vs_r
VERIFY_POINTS = [(nb, r) for nb in (0.5, 1.0, 2.0) for r in (0.3, 0.8, 1.2)] + [
    (0.1, 0.5), (1.0, 1.5), (3.0, 1.0), (5.0, 0.8),
    (0.5, 1.6), (2.0, 1.4), (10.0, 0.5), (0.2, 2.0),
]
# points whose truncation needs more storage than the oracle's budget at the
# default tolerance; probed in the traced run only, see run.py
FRONTIER_POINTS = [(5.0, 1.5), (20.0, 1.0), (1.0, 2.5)]
VERIFY_JITTER = 1e-3      # relative; keeps every point's cutoffs and route

SPECTRUM_MODES = 50
SPECTRUM_K = (0.1, 10.0)
SPECTRUM_TAU = (-50.0, -0.1)
SPECTRUM_RTOL = 1e-6
SPECTRUM_HEADER = ("k,r_k,n_bar_k,n_q_k,N_bar_k,delta_S_k,delta_Q_k,delta_N_k,"
                   "ratio_k,satisfied,polarizations,error")


@dataclass
class Step:
    argv: list
    out: Path
    ops: int
    check: Callable[[Path, int], tuple]   # (path, returncode) -> (failed, problems)


def _mpmath():
    # imported when the checks run, after the last child, so that the parent
    # stays small while it spawns children (see run.py)
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# --------------------------------------------------------------------- map

# plane, (x lo, hi, scale), (y lo, hi, scale), mu, whether the seed jitters y.
# The r axis of nbar_vs_r stays fixed so that r = 0 is a grid value and the
# N_bar = 0 cells (empty log10 field) appear.
MAP_PLANES = [
    ("N_vs_omegaT", (1e-4, 1e4, "log10"), (0.05, 20.0, "log10"), 0.0, True),
    ("nbar_vs_nq", (1e-2, 1e2, "log10"), (1e-2, 1e2, "log10"), 0.0, True),
    ("omegaT_vs_nq", (0.05, 20.0, "log10"), (1e-3, 1e3, "log10"), 0.0, True),
    ("nbar_vs_r", (1e-2, 1e2, "log10"), (-2.25, 2.25, "linear"), 0.0, False),
    ("omegaT_vs_r", (0.5, 20.0, "log10"), (0.01, 3.0, "linear"), 0.25, True),
]


def _grid_axis(lo: float, hi: float, scale: str) -> list:
    n = MAP_POINTS
    if scale == "linear":
        step = (hi - lo) / (n - 1)
        return [lo + i * step for i in range(n)]
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + i * (b - a) / (n - 1)) for i in range(n)]


def _map_reference(plane: str, x, y, mu):
    """Bound ratio ``T((N+1)ln(N+1) - N ln N)/((omega-mu) N)`` at one cell.

    Returns ``(N, ratio)`` in mpmath at 30 digits.  On the occupation planes
    ``T/(omega-mu) = 1/ln(1 + 1/n_bar)``.
    """
    mpmath = _mpmath()
    x, y, mu = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(mu)
    if plane == "N_vs_omegaT":
        N, t_over = x, 1 / (y - mu)
    elif plane in ("nbar_vs_nq", "nbar_vs_r"):
        n_q = y if plane == "nbar_vs_nq" else mpmath.sinh(y) ** 2
        N, t_over = n_q * (x + 1), 1 / mpmath.log1p(1 / x)
    else:
        n_q = y if plane == "omegaT_vs_nq" else mpmath.sinh(y) ** 2
        N, t_over = n_q * (1 / mpmath.expm1(x - mu) + 1), 1 / (x - mu)
    if N == 0:
        return N, mpmath.mpf(0)
    return N, t_over * ((N + 1) * mpmath.log(N + 1) - N * mpmath.log(N)) / N


def _check_map_plane(plane, xs, ys, mu, sample, path: Path, rc: int):
    cells = len(xs) * len(ys)
    if rc != 0 or not path.exists():
        return cells, [f"{plane}: exit code {rc}"]
    data = path.read_bytes()
    problems = []
    lines = data.split(b"\n")
    if lines[0].decode() != MAP_HEADER:
        problems.append(f"{plane}: header {lines[0][:60]!r}")
    if len(lines) != cells + 2 or lines[-1] != b"":
        problems.append(f"{plane}: {len(lines) - 2} rows, expected {cells}")
        return cells, problems
    zero_rows = sum(1 for y in ys if y == 0.0) * len(xs)
    empty = data.count(b",,")
    if empty != zero_rows:
        problems.append(f"{plane}: {empty} empty log10 fields, expected {zero_rows}")
    for idx in sample:
        fields = lines[1 + idx].decode().split(",")
        ix, iy = divmod(idx, len(ys))
        try:
            x_s, y_s, log10_s, flag = fields
            x, y = float(x_s), float(y_s)
            log10 = float(log10_s) if log10_s else None
        except ValueError:
            problems.append(f"{plane}: cell {idx} row {fields}")
            continue
        if not (math.isclose(x, xs[ix], rel_tol=1e-12)
                and math.isclose(y, ys[iy], rel_tol=1e-12, abs_tol=1e-15)):
            problems.append(f"{plane}: cell {idx} at ({x_s}, {y_s}), expected "
                            f"({_fmt(xs[ix])}, {_fmt(ys[iy])})")
            continue
        N, ref = _map_reference(plane, x, y, mu)
        if N == 0:
            if log10 is not None or flag != "true":
                problems.append(f"{plane}: cell {idx} N=0 row {fields}")
            continue
        if log10 is None:
            problems.append(f"{plane}: cell {idx} empty log10, reference {ref}")
            continue
        mpmath = _mpmath()
        rel = abs(mpmath.power(10, mpmath.mpf(log10)) / ref - 1)
        if rel > MAP_RTOL:
            problems.append(f"{plane}: cell {idx} ratio off by {float(rel):.2e}")
        ambiguous = abs(ref - 1) <= MAP_RTOL
        if not ambiguous and flag != ("true" if ref <= 1 else "false"):
            problems.append(f"{plane}: cell {idx} satisfied={flag}, reference {ref}")
    return (cells if problems else 0), problems


def map_planes(seed: int, out_dir: Path) -> list:
    rng = random.Random(seed)
    steps = []
    for plane, xr, yr, mu, jitter_y in MAP_PLANES:
        x_lo, x_hi = _jitter(rng, xr[0], 0.01), _jitter(rng, xr[1], 0.01)
        y_lo, y_hi = yr[0], yr[1]
        if jitter_y:
            y_lo, y_hi = _jitter(rng, y_lo, 0.01), _jitter(rng, y_hi, 0.01)
        xs = _grid_axis(x_lo, x_hi, xr[2])
        ys = _grid_axis(y_lo, y_hi, yr[2])
        sample = sorted(rng.sample(range(len(xs) * len(ys)), MAP_SAMPLE))
        out = out_dir / f"map-{plane}.csv"
        argv = ["map", "--plane", plane,
                "--x-min", _fmt(x_lo), "--x-max", _fmt(x_hi),
                "--x-points", str(MAP_POINTS), "--x-scale", xr[2],
                "--y-min", _fmt(y_lo), "--y-max", _fmt(y_hi),
                "--y-points", str(MAP_POINTS), "--y-scale", yr[2],
                "--mu", _fmt(mu), "--out", str(out)]

        def check(path, rc, plane=plane, xs=xs, ys=ys, mu=mu, sample=sample):
            return _check_map_plane(plane, xs, ys, mu, sample, path, rc)

        steps.append(Step(argv, out, len(xs) * len(ys), check))
    return steps


# ------------------------------------------------------------------ verify

def _entropy_gain(N):
    mpmath = _mpmath()
    N = mpmath.mpf(N)
    return (N + 1) * mpmath.log(N + 1) - N * mpmath.log(N) if N else mpmath.mpf(0)


def _verify_argv(points, out: Path) -> list:
    argv = ["verify"]
    for nb, r in points:
        argv += ["--point", f"{_fmt(nb)},{_fmt(r)}"]
    return argv + ["--out", str(out)]


def _check_verify(points, path: Path, rc: int):
    if rc not in (0, 2) or not path.exists():
        return len(points), [f"verify: exit code {rc}"]
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return len(points), [f"verify: unreadable report ({exc})"]
    records = report.get("records", [])
    if len(records) != len(points):
        return len(points), [f"verify: {len(records)} records for {len(points)} points"]
    gated = sum(1 for rec in records if rec.get("pass") is not True)
    if (rc == 0) != (gated == 0):
        return len(points), [f"verify: exit code {rc} with {gated} failing records"]
    failed, problems = 0, []
    for (nb, r), rec in zip(points, records):
        where = f"verify ({_fmt(nb)}, {_fmt(r)})"
        bad = []
        if rec.get("n_bar") != nb or rec.get("r") != r:
            bad.append(f"record is for ({rec.get('n_bar')}, {rec.get('r')})")
        elif "error" in rec:
            bad.append(f"error: {rec['error']}")
        elif rec.get("pass") is not True:
            bad.append("record gate failed")
        else:
            mpmath = _mpmath()
            N = mpmath.sinh(mpmath.mpf(r)) ** 2 * (mpmath.mpf(nb) + 1)
            ref = _entropy_gain(N)
            if abs(rec["delta_S_analytic"] - ref) > 1e-12 * max(1, abs(ref)):
                bad.append(f"delta_S_analytic {rec['delta_S_analytic']} vs {ref}")
            if abs(rec["delta_S_oracle"] - ref) > report["tolerance"]:
                bad.append(f"delta_S_oracle {rec['delta_S_oracle']} vs {ref}")
        if bad:
            failed += 1
            problems += [f"{where}: {b}" for b in bad]
    return failed, problems


def verify_sweep(seed: int, out_dir: Path) -> list:
    rng = random.Random(seed)
    points = [(_jitter(rng, nb, VERIFY_JITTER), _jitter(rng, r, VERIFY_JITTER))
              for nb, r in VERIFY_POINTS]
    out = out_dir / "verify.json"
    return [Step(_verify_argv(points, out), out, len(points),
                 lambda path, rc: _check_verify(points, path, rc))]


def _count_infeasible(path: Path, rc: int):
    """Frontier points that verify recorded as errors; today that is all three."""
    if rc not in (0, 2) or not path.exists():
        return len(FRONTIER_POINTS), [f"frontier verify: exit code {rc}"]
    try:
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
    except (json.JSONDecodeError, KeyError) as exc:
        return len(FRONTIER_POINTS), [f"frontier verify: unreadable report ({exc})"]
    return sum(1 for rec in records if "error" in rec), []


def frontier_probe(out_dir: Path) -> Step:
    """The points that the oracle cannot truncate within budget today.

    Its failed operations are the infeasible points; they are reported as
    ``fock_oracle.infeasible_points`` by the traced run and are not part of
    the verify-sweep workload, whose operations must all succeed.
    """
    out = out_dir / "frontier.json"
    return Step(_verify_argv(FRONTIER_POINTS, out), out, len(FRONTIER_POINTS),
                _count_infeasible)


# ---------------------------------------------------------------- spectrum

def _check_spectrum(k_lo, k_hi, path: Path, rc: int):
    from ampbound import analytic, dynamics

    n = SPECTRUM_MODES
    if rc != 0 or not path.exists():
        return n, [f"spectrum: exit code {rc}"]
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if not rows or ",".join(rows[0]) != SPECTRUM_HEADER or len(rows) != n + 1:
        return n, [f"spectrum: header {rows[:1]} and {len(rows) - 1} rows"]
    a, b = math.log10(k_lo), math.log10(k_hi)
    tau_in, tau_fin = SPECTRUM_TAU
    failed, problems = 0, []
    for i, row in enumerate(rows[1:]):
        col = dict(zip(rows[0], row))
        k_ref = 10.0 ** (a + i * (b - a) / (n - 1))
        bad = []
        if col["error"]:
            bad.append(f"error: {col['error']}")
        elif not math.isclose(float(col["k"]), k_ref, rel_tol=1e-12):
            bad.append(f"k={col['k']}, expected {_fmt(k_ref)}")
        else:
            k = float(col["k"])
            r_k, n_bar, n_q, N = (float(col[c]) for c in ("r_k", "n_bar_k", "n_q_k", "N_bar_k"))
            r_ref = math.asinh(abs(dynamics.desitter_exact_pair(k, tau_in, tau_fin).v))
            if abs(r_k - r_ref) > SPECTRUM_RTOL * r_ref:
                bad.append(f"r_k={col['r_k']} vs exact {_fmt(r_ref)}")
            if N != n_q * (n_bar + 1.0):
                bad.append(f"N_bar_k={col['N_bar_k']} is not n_q_k*(n_bar_k+1)")
            doubled = {"delta_S_k": 2.0 * analytic.entropy_gain(N),
                       "delta_Q_k": 2.0 * k * N, "delta_N_k": 2.0 * N}
            for name, want in doubled.items():
                if float(col[name]) != want:
                    bad.append(f"{name}={col[name]}, twice the closed form is {_fmt(want)}")
            if col["polarizations"] != "2":
                bad.append(f"polarizations={col['polarizations']}")
            if col["satisfied"] != ("true" if float(col["ratio_k"]) <= 1.0 else "false"):
                bad.append(f"satisfied={col['satisfied']} with ratio {col['ratio_k']}")
        if bad:
            failed += 1
            problems += [f"spectrum k#{i}: {b}" for b in bad]
    return failed, problems


def spectrum_desitter(seed: int, out_dir: Path) -> list:
    rng = random.Random(seed)
    k_lo = _jitter(rng, SPECTRUM_K[0], 0.005)
    k_hi = _jitter(rng, SPECTRUM_K[1], 0.005)
    pump = out_dir / "pump-desitter.json"
    pump.write_text(json.dumps({"kind": "de_sitter", "strength": 1.0}) + "\n",
                    encoding="utf-8")
    out = out_dir / "spectrum.csv"
    argv = ["spectrum", "--graviton", "--pump", str(pump), "--T", "1", "--mu", "0",
            "--k-min", _fmt(k_lo), "--k-max", _fmt(k_hi),
            "--k-points", str(SPECTRUM_MODES), "--k-scale", "log10",
            "--tau-in", _fmt(SPECTRUM_TAU[0]), "--tau-fin", _fmt(SPECTRUM_TAU[1]),
            "--tol", "1e-10", "--out", str(out)]
    return [Step(argv, out, SPECTRUM_MODES,
                 lambda path, rc: _check_spectrum(k_lo, k_hi, path, rc))]


WORKLOADS = {
    "map-planes": map_planes,
    "verify-sweep": verify_sweep,
    "spectrum-desitter": spectrum_desitter,
}
