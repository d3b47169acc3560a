"""Cold-CLI benchmark of ampbound.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload map-planes --seed 1 --seconds 36 --trace 0

Each pass of a workload runs its CLI commands one at a time, each in a
fresh interpreter started from this process (a closed loop with one
client).  Passes repeat until ``--seconds`` are used up.  Every pass must
write byte-identical outputs; the last pass's outputs are then checked
against independent references (see ``workloads.py``).  The run prints a
human-readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: successful operations (map cells, verify points, spectrum
  modes) over the wall time of the pass's commands, spawn to exit; median
  over passes;
* ``setup_s``: spawn to ``ampbound.cli`` imported; median over commands;
* ``peak_rss_mb``: peak resident memory of a pass's largest child
  (``ru_maxrss`` from ``os.wait4``); median over passes;
* ``success_rate``: successful over attempted operations in the run, that is
  one minus the error rate, which the report prints as well.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``layers.py``), the import times
from ``python -X importtime``, and the tracing overhead as the ``ops_per_s``
gap between traced and untraced passes.  The environment and the sha256 of
every output file are printed in both modes.

Every child runs with one BLAS thread: with OpenBLAS's default of one
thread per core, one dense eigensolve varied fiftyfold between runs.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120.0
IMPORTTIME_SAMPLES = 3
OUT_DIR = ".perfbench_out"


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Child:
    """One cold command: times, memory, exit code and output fingerprint."""

    def __init__(self, wall_s, setup_s, maxrss_kb, returncode, sha256=None, size=0):
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.maxrss_kb = maxrss_kb
        self.returncode = returncode
        self.sha256 = sha256
        self.size = size

    @property
    def signature(self):
        return self.returncode, self.setup_s is not None, self.sha256


def run_child(argv, env, spans_path: Path | None, log_path: Path) -> Child:
    """Spawn ``child.py`` with the CLI arguments and wait for it to end.

    ``ru_maxrss`` of a child also counts the memory of the process that
    forked it, so this process must stay smaller than any child until the
    last one has ended: nothing heavy is imported or read before then.
    """
    read_fd, write_fd = os.pipe()
    try:
        with open(log_path, "wb") as log:
            t0 = _now_ns()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(write_fd),
                 str(spans_path) if spans_path else "", *argv],
                env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                pass_fds=(write_fd,))
            os.close(write_fd)
            write_fd = -1
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = _now_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        ready = os.read(read_fd, 64)
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    setup_s = (int(ready) - t0) / 1e9 if ready else None
    return Child((t1 - t0) / 1e9, setup_s, usage.ru_maxrss, proc.returncode)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Pass:
    """One pass over a workload's steps; ``failed`` is set by ``judge``."""

    def __init__(self, steps, env, work: Path, traced: bool, index: int):
        self.children = []
        self.spans = []
        self.attempted = sum(step.ops for step in steps)
        self.failed = 0
        for n, step in enumerate(steps):
            if step.out.exists():
                step.out.unlink()
            spans = work / f"spans-{index}-{n}.json" if traced else None
            child = run_child(step.argv, env, spans, work / f"child-{n}.log")
            if step.out.exists():
                child.sha256, child.size = sha256(step.out), step.out.stat().st_size
            self.children.append(child)
            if traced:
                self.spans.append(spans)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s

    @property
    def out_bytes(self) -> int:
        return sum(c.size for c in self.children)


def judge(steps, passes) -> list:
    """Check the last pass's outputs and charge each pass its failures.

    A pass whose command differs from the last pass in exit code, set-up
    signal or output bytes fails all of that command's operations.
    """
    problems = []
    last = passes[-1]
    for n, step in enumerate(steps):
        ref = last.children[n]
        failed, found = step.check(step.out, ref.returncode)
        if ref.setup_s is None:
            failed, found = step.ops, found + [f"{step.out.name}: no set-up signal"]
        problems += found
        for p in passes:
            if p.children[n].signature == ref.signature:
                p.failed += failed
            else:
                p.failed += step.ops
                problems.append(f"{step.out.name}: output or exit code differs between passes")
    return problems


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(env) -> dict:
    """Versions, processor count and the BLAS threads every child uses."""
    import ctypes
    import glob
    import platform

    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
        "blas_threads_runtime": threads,
    }


def import_times(env, work: Path) -> dict:
    """Median of ``python -X importtime -c 'import ampbound.cli'`` samples."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ampbound.cli"],
                              env=env, cwd=work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(layers.parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def keep_going(start_ns: int, seconds: float, last_pass_s: float) -> bool:
    # stop once the next pass would end more than half a pass past the budget
    return (_now_ns() - start_ns) / 1e9 + 0.5 * last_pass_s < seconds


def measure(steps, env, work, seconds) -> tuple:
    start = _now_ns()
    passes = [Pass(steps, env, work, False, 0)]
    while keep_going(start, seconds, passes[-1].wall_s):
        passes.append(Pass(steps, env, work, False, len(passes)))
    problems = judge(steps, passes)
    setups = [c.setup_s for p in passes for c in p.children if c.setup_s is not None]
    rss = [max(c.maxrss_kb for c in p.children) / 1024.0 for p in passes]
    rates = [p.ops_per_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {"ops_per_s": ("ops/s", rates), "setup_s": ("s", setups),
               "peak_rss_mb": ("MB", rss)}
    values = {key: (statistics.median(vals) if vals else float("nan"), unit)
              for key, (unit, vals) in samples.items()}
    values["success_rate"] = ((attempted - failed) / attempted, "fraction")
    for key, (unit, vals) in samples.items():
        if vals:
            q1, q3 = quartiles(vals)
            print(f"  {key}: median {values[key][0]:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"n={len(vals)}: " + " ".join(f"{v:.4g}" for v in vals))
    print(f"  error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    return passes, problems, values


def trace(steps, env, work, seconds, probe) -> tuple:
    start = _now_ns()
    extra = import_times(env, work)
    infeasible, problems = 0, []
    if probe is not None:
        child = run_child(probe.argv, env, None, work / "frontier.log")
        infeasible, problems = probe.check(probe.out, child.returncode)
    plain, traced = [], []
    while True:
        plain.append(Pass(steps, env, work, False, len(plain)))
        traced.append(Pass(steps, env, work, True, len(traced)))
        if not keep_going(start, seconds, plain[-1].wall_s + traced[-1].wall_s):
            break
    problems += judge(steps, plain + traced)
    per_pass = []
    for p in traced:
        dumps = [json.loads(path.read_text(encoding="utf-8"))
                 for path in p.spans if path.exists()]
        per_pass.append(layers.pass_metrics(dumps, p.out_bytes))
    for key in layers.EXACT_COUNTERS:
        counts = {m[key] for m in per_pass}
        if len(counts) > 1:
            print(f"warning: exact counter {key} differs between traced passes: {counts}")
    # counts repeat from pass to pass; times are medians over the passes
    merged = {key: (per_pass[0][key] if layers.UNITS[key] in ("count", "bytes")
                    else statistics.median(m[key] for m in per_pass))
              for key in per_pass[0]}
    merged["fock_oracle.infeasible_points"] += infeasible
    merged.update(extra)
    untraced_rate = statistics.median(p.ops_per_s for p in plain)
    traced_rate = statistics.median(p.ops_per_s for p in traced)
    merged["trace.ops_per_s"] = traced_rate
    merged["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    print(f"  tracing overhead: ops_per_s {untraced_rate:.6g} untraced, "
          f"{traced_rate:.6g} traced, over {len(plain)} passes each")
    values = {key: (merged[key], layers.UNITS[key]) for key in layers.UNITS}
    return plain + traced, problems, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ampbound" / "cli.py").is_file():
        print("error: run from the root of an ampbound checkout (no src/ampbound/cli.py)",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # the spectrum check evaluates the checkout's closed forms
    sys.path.insert(0, str(root / "src"))
    work = root / OUT_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    steps = workloads.WORKLOADS[args.workload](args.seed, work)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands per pass {len(steps)}")
    if args.trace:
        probe = workloads.frontier_probe(work) if args.workload == "verify-sweep" else None
        passes, problems, values = trace(steps, env, work, args.seconds, probe)
    else:
        passes, problems, values = measure(steps, env, work, args.seconds)
    for key, (value, unit) in values.items():
        print(f"  {key:34s} {value:>16.6g} {unit}")
    for msg in problems[:20]:
        print(f"check failed: {msg}")
    last = passes[-1]
    print(json.dumps({
        "environment": environment(env),
        "fingerprints": {step.out.name: c.sha256 for step, c in zip(steps, last.children)},
    }))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()},
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
