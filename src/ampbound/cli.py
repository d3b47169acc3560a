"""Command line front end.

Subcommands:

* ``check``     one-point bound evaluation, machine-parseable exit code
* ``map``       contour-map data grid over one of five parameter planes
* ``verify``    oracle sweep comparing closed forms against the Fock engine
* ``spectrum``  per-mode field scan for a pump profile

All numeric output uses 17 significant digits with '.' as decimal separator,
``%.17g``: ``_fmt`` prints one number and ``printer.fmt_array``, byte for byte
the same, the arrays of ``map``.  Identical invocations produce byte-identical
files.  Exit codes: 0 success (bound satisfied for ``check``, report passing
for ``verify``), 2 bound violated / report failing, 1 usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analytic, dynamics, field_modes, fock_oracle

__all__ = ["main", "ScanConfig", "build_parser", "ratio_grid", "scan_csv",
           "spectrum_csv"]

PLANES = ("N_vs_omegaT", "nbar_vs_nq", "omegaT_vs_nq", "nbar_vs_r", "omegaT_vs_r")
# JSON types a scan-config field may hold; a bool is never a number
_CONFIG_KINDS = {"a number": (int, float), "an integer": int, "a string": str,
                 "a string or null": (str, type(None)), "a JSON object": dict}
# the fields a scan config and each of its axes may hold
_CONFIG_FIELDS = ("plane", "x", "y", "mu", "output_path")
_AXIS_FIELDS = ("min", "max", "points", "scale")


class CliError(Exception):
    """Usage or runtime failure that should exit with status 1."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _axis(name: str, lo: float, hi: float, points: int, scale: str) -> np.ndarray:
    if points < 2:
        raise CliError("each axis needs at least 2 points")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"axis bounds must be finite, got [{lo}, {hi}]")
    if lo >= hi:
        raise CliError(f"axis range must have min < max, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise CliError(f"{name} axis overflows: the length of [{lo}, {hi}] is past the "
                       "largest float")
    if scale not in ("linear", "log10"):
        raise CliError(f"unknown axis scale {scale!r}")
    if scale == "log10" and lo <= 0:
        raise CliError("log10 scale requires a positive range")
    # a top within rounding of the largest double can round above it
    with np.errstate(over="ignore"):
        grid = (np.linspace(lo, hi, points) if scale == "linear"
                else np.logspace(math.log10(lo), math.log10(hi), points))
    if not np.all(np.isfinite(grid)):
        raise CliError(f"{name} axis overflows: its {scale} point at max {hi} rounds "
                       "past the largest float")
    return grid


class ScanConfig:
    """Grid description for ``map``; see the README for the file schema."""

    def __init__(self, plane: str, x_range, y_range, mu: float = 0.0,
                 output_path: str | None = None):
        if plane not in PLANES:
            raise CliError(f"unknown plane {plane!r}; choose from {PLANES}")
        if not math.isfinite(mu):
            raise CliError(f"mu must be finite, got {mu}")
        self.plane = plane
        self.x_range = tuple(x_range)
        self.y_range = tuple(y_range)
        self.mu = mu
        self.output_path = output_path

    @classmethod
    def from_dict(cls, spec: dict) -> "ScanConfig":
        """Build from the documented config schema (see the README).

        A config that is not a JSON object, lacks a required field, holds
        one of the wrong type or one not in the schema raises
        :class:`CliError` naming the field.
        """
        if not isinstance(spec, dict):
            raise CliError(f"scan config must be a JSON object, got {type(spec).__name__}")

        def known(obj, prefix, fields):
            for key in obj:
                if key not in fields:
                    raise CliError(f"scan config field {prefix + str(key)!r} is unknown; "
                                   f"expected one of {', '.join(fields)}")

        def field(obj, name, kind, *default):
            key = name.rpartition(".")[2]
            if key not in obj and not default:
                raise CliError(f"scan config needs the field {name!r}")
            value = obj.get(key, *default)
            if isinstance(value, bool) or not isinstance(value, _CONFIG_KINDS[kind]):
                raise CliError(f"scan config field {name!r} must be {kind}, got {value!r}")
            return value

        def rng(axis):
            d = field(spec, axis, "a JSON object")
            known(d, f"{axis}.", _AXIS_FIELDS)
            return (field(d, f"{axis}.min", "a number"), field(d, f"{axis}.max", "a number"),
                    field(d, f"{axis}.points", "an integer"),
                    field(d, f"{axis}.scale", "a string", "linear"))

        known(spec, "", _CONFIG_FIELDS)
        return cls(plane=field(spec, "plane", "a string"), x_range=rng("x"),
                   y_range=rng("y"), mu=field(spec, "mu", "a number", 0.0),
                   output_path=field(spec, "output_path", "a string or null", None))

    def axes(self):
        return (_axis("x", *self.x_range), _axis("y", *self.y_range))


def _ratio_rows(plane: str, xs: np.ndarray, ys: np.ndarray, mu: float):
    """The bound ratio of a plane by x rows: ``rows(start, stop)`` is the
    ratio on ``xs[start:stop]`` against every y, shape ``(stop - start,
    len(ys))``.

    The plane and the axis checks that span a whole axis raise here; a cell
    whose ratio cannot be evaluated raises from ``rows``.  The per-axis
    factors, ``n_bar`` over x and ``n_q`` over y, are computed once.
    """
    if plane == "N_vs_omegaT" and ys.min() - mu <= 0:
        raise CliError("omega/T axis must stay above mu/T")
    if plane in ("omegaT_vs_nq", "omegaT_vs_r") and xs.min() - mu <= 0:
        raise CliError("omega/T axis must stay above mu/T")
    if plane not in PLANES:
        raise CliError(f"unknown plane {plane!r}")
    x, y = xs[:, None], ys[None, :]
    if plane == "N_vs_omegaT":
        return lambda start, stop: analytic.ratio_from_temperature(1.0, y, mu, x[start:stop])
    n_q = y
    if plane.endswith("_r"):
        # scalar per axis value: the array form np.sinh(ys) ** 2 can round
        # differently in the last place, which would move CSV bytes
        n_q = np.array([analytic.pair_occupation(r) for r in ys.tolist()])[None, :]
    with np.errstate(over="ignore"):
        n_bar = x if plane.startswith("nbar") else 1.0 / np.expm1(x - mu)

    def rows(start: int, stop: int) -> np.ndarray:
        # N_bar = n_q (n_bar + 1) overflows for large axis values, and is
        # 0 * inf where n_q is 0 and n_bar overflowed; numpy's warning would
        # name no input, so the product is checked here instead
        with np.errstate(over="ignore", invalid="ignore"):
            N_bar = n_q * (n_bar[start:stop] + 1.0)
        if not np.all(np.isfinite(N_bar)):
            raise CliError("N_bar = n_q (n_bar + 1) is not finite: it overflows on this grid")
        if plane.startswith("nbar"):
            return analytic.ratio_from_occupation(x[start:stop], N_bar)
        return analytic.ratio_from_temperature(1.0, x[start:stop], mu, N_bar)
    return rows


def ratio_grid(plane: str, xs: np.ndarray, ys: np.ndarray, mu: float) -> np.ndarray:
    """Bound ratio on every cell of a plane, shape ``(len(xs), len(ys))``.

    For the occupation planes the ratio depends only on the occupations
    themselves, so the chemical potential drops out identically (it only
    shifts how a given ``n_bar`` arises from bath parameters).  For the
    omega/T planes ``mu`` is in units of T and shifts the axis value.
    The whole plane in one block; :func:`scan_csv` evaluates the same cells
    in blocks of x rows, with the same bytes.
    """
    return _ratio_rows(plane, xs, ys, mu)(0, len(xs))


# x rows per ratio block of map, and per numpy pass of its text.  Each
# analytic call has a fixed cost, so the ratios take the larger blocks: a
# 451 x 451 plane took about 95 ms in-process with 64-row ratio blocks, 115
# ms with 8-row ones.  The text runs at the same speed between 4 and 32
# rows.  A block's temporaries add to the peak memory.
_GRID_ROWS = 64
_BLOCK_ROWS = 8


def _ratio_blocks(rows, count: int):
    for start in range(0, count, _GRID_ROWS):
        yield start, rows(start, start + _GRID_ROWS)


def scan_csv(config: ScanConfig):
    """CSV with columns x, y, log10_ratio, satisfied, in row-major order
    with y fastest, as an iterator of chunks: the header line, then one
    chunk per x value.

    The ratio is evaluated in blocks of ``_GRID_ROWS`` x rows, so the memory
    follows one block and not the plane.  A first pass over the same blocks
    keeps nothing and raises every input error before this returns, so
    before any chunk is written; the chunks evaluate each block again.  A
    vanishing ratio (no amplification) writes an empty log10 field and
    counts as satisfied.
    """
    xs, ys = config.axes()
    rows = _ratio_rows(config.plane, xs, ys, config.mu)
    for _ in _ratio_blocks(rows, len(xs)):
        pass
    return _scan_chunks(xs, ys, rows)


def _scan_chunks(xs: np.ndarray, ys: np.ndarray, rows):
    # map alone imports the printer, so the other commands neither compile
    # nor hold it; the joined S-dtype lines are NUL-padded, and tolist()
    # drops the padding
    from .printer import fmt_array

    xfields = np.strings.add(fmt_array(xs), b",")
    yfields = np.strings.add(fmt_array(ys), b",")
    yield "x,y,log10_ratio,satisfied\n"
    for grid_start, ratios in _ratio_blocks(rows, len(xs)):
        for offset in range(0, len(ratios), _BLOCK_ROWS):
            block = ratios[offset:offset + _BLOCK_ROWS]
            start = grid_start + offset
            zero = block == 0.0
            # math.log10, not np.log10: the vectorised log10 differs from it
            # in the last digit on a sizeable share of cells
            logs = np.fromiter(map(math.log10, np.where(zero, 1.0, block).ravel().tolist()),
                               np.float64, block.size)
            fields = fmt_array(logs.reshape(block.shape))
            fields[zero] = b""
            lines = np.strings.add(xfields[start:start + len(block), None], yfields)
            lines = np.strings.add(lines, fields)
            lines = np.strings.add(lines, np.where(block <= 1.0, b",true\n", b",false\n"))
            for row in lines:
                yield b"".join(row.tolist()).decode()


def spectrum_csv(results, polarizations: int = 1) -> str:
    """CSV of per-polarization ``field_modes`` results, one row per mode.

    The extensive columns (delta_S_k, delta_Q_k, delta_N_k) take the
    polarization count, the ratio stays per polarization; with two
    polarizations a ``polarizations`` column precedes ``error``.
    """
    if polarizations not in (1, 2):
        raise ValueError("polarizations must be 1 (scalar) or 2 (tensor)")
    tensor = ["2"] if polarizations == 2 else []
    lines = [",".join(["k", "r_k", "n_bar_k", "n_q_k", "N_bar_k", "delta_S_k", "delta_Q_k",
                       "delta_N_k", "ratio_k", "satisfied"]
                      + (["polarizations"] if tensor else []) + ["error"])]
    for res in results:
        if res.error is not None:
            fields = [_fmt(res.k)] + [""] * 9 + tensor + [res.error.replace(",", ";")]
        else:
            fields = [_fmt(x) for x in (
                res.k, res.r_k, res.n_bar_k, res.n_q_k, res.N_bar_k,
                polarizations * res.delta_S_k, polarizations * res.delta_Q_k,
                polarizations * res.delta_N_k, res.ratio_k)]
            fields += ["true" if res.satisfied else "false"] + tensor + [""]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _emit(chunks, out_path: str | None) -> None:
    """Write the text chunks, in order, to ``out_path`` or to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early, which is not an input error; stdout
            # goes to devnull so that the interpreter's final flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_check(args) -> int:
    if (args.nq is None) == (args.r is None):
        raise CliError("supply exactly one of --nq or --r")
    if args.from_thermal == (args.nbar is not None):
        raise CliError("supply exactly one of --nbar or --from-thermal")
    thermal = analytic.ThermalSpec(T=args.T, omega=args.omega, mu=args.mu)
    n_bar = analytic.nbar_from_thermal(thermal) if args.from_thermal else args.nbar
    if args.r is not None:
        mult = analytic.Multiplicities.from_squeeze(n_bar, args.r)
    else:
        mult = analytic.Multiplicities(n_bar, args.nq)
    report = analytic.bound_ratio(thermal, mult)
    payload = {
        "delta_S_nats": report.delta_S,
        "delta_S_bits": report.delta_S / math.log(2.0),
        "delta_Q": report.delta_Q,
        "delta_N": report.delta_N,
        "ratio": report.ratio,
        "satisfied": report.satisfied,
    }
    if args.json:
        _emit([json.dumps(payload, sort_keys=True, indent=2) + "\n"], args.out)
    else:
        lines = [f"{key} = {_fmt(val) if isinstance(val, float) else str(val).lower()}"
                 for key, val in payload.items()]
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if report.satisfied else 2


def cmd_map(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = ScanConfig.from_dict(json.load(fh))
    else:
        required = (args.plane, args.x_min, args.x_max, args.y_min, args.y_max)
        if any(v is None for v in required):
            raise CliError("map needs --config or --plane with full x/y ranges")
        config = ScanConfig(
            plane=args.plane,
            x_range=(args.x_min, args.x_max, args.x_points, args.x_scale),
            y_range=(args.y_min, args.y_max, args.y_points, args.y_scale),
            mu=args.mu,
        )
    # --out takes precedence over the config's output_path
    _emit(scan_csv(config), args.out or config.output_path)
    return 0


def _parse_points(specs) -> list[tuple[float, float]]:
    points = []
    for spec in specs:
        try:
            a, b = (float(v) for v in spec.split(","))
        except ValueError as exc:
            raise CliError(f"bad --point {spec!r}, expected 'n_bar,r'") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise CliError(f"bad --point {spec!r}, n_bar and r must be finite")
        points.append((a, b))
    return points


def cmd_verify(args) -> int:
    points = _parse_points(args.point)
    if not points:
        raise CliError("verify needs at least one --point n_bar,r")
    report = fock_oracle.verify_grid(
        points,
        tolerance=args.tolerance,
        omega=args.omega,
        truncation_tolerance=args.trunc_tolerance,
    )
    _emit([json.dumps(report, sort_keys=True, indent=2) + "\n"], args.out)
    return 0 if report["pass"] else 2


def cmd_spectrum(args) -> int:
    pump = dynamics.PumpProfile.from_config(args.pump)
    kgrid = _axis("k", args.k_min, args.k_max, args.k_points, args.k_scale)
    results = field_modes.spectrum(
        kgrid, pump, args.T, args.mu, args.tau_in, args.tau_fin, tol=args.tol,
        convention=args.omega_convention,
    )
    _emit([spectrum_csv(results, 2 if args.graviton else 1)], args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse takes only tokens like -1 and -0.001 for negative numbers and
    # reads -1e-3, -inf or verify's point -0.5,1 as an unknown option; here a
    # token whose first comma field float() parses is a value, in every
    # subcommand (subparsers share this class)
    def _parse_optional(self, arg_string):
        try:
            float(arg_string.split(",", 1)[0])
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_out_flag(parser, default=argparse.SUPPRESS) -> None:
    # --out, like check's --json, is registered on the root and on the
    # subcommand so it is accepted in either position; the subcommand copy
    # suppresses its default so it never clobbers a value parsed at the root
    parser.add_argument("--out", default=default,
                        help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ampbound",
        description="Entropy/heat/particle-flow bounds for parametric "
                    "amplification, with oracle verification and field scans.",
    )
    _add_out_flag(parser, default=None)
    parser.add_argument("--json", action="store_true", help="JSON output (check only)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate the bound at one point")
    _add_out_flag(check)
    check.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="JSON output")
    check.add_argument("--nbar", type=float, default=None, help="thermal occupation")
    check.add_argument("--from-thermal", action="store_true",
                       help="derive the occupation from --T/--omega/--mu")
    check.add_argument("--nq", type=float, default=None, help="produced-quanta occupation")
    check.add_argument("--r", type=float, default=None, help="squeeze amplitude (implies --nq)")
    check.add_argument("--omega", type=float, required=True, help="environment frequency")
    check.add_argument("--T", type=float, required=True, help="environment temperature")
    check.add_argument("--mu", type=float, default=0.0, help="chemical potential")
    check.set_defaults(func=cmd_check)

    cmap = sub.add_parser("map", help="write a contour-map CSV grid")
    _add_out_flag(cmap)
    cmap.add_argument("--config", help="JSON scan config (see README)")
    cmap.add_argument("--plane", choices=PLANES, default=None)
    cmap.add_argument("--x-min", type=float, default=None)
    cmap.add_argument("--x-max", type=float, default=None)
    cmap.add_argument("--x-points", type=int, default=101)
    cmap.add_argument("--x-scale", choices=("log10", "linear"), default="log10")
    cmap.add_argument("--y-min", type=float, default=None)
    cmap.add_argument("--y-max", type=float, default=None)
    cmap.add_argument("--y-points", type=int, default=101)
    cmap.add_argument("--y-scale", choices=("log10", "linear"), default="log10")
    cmap.add_argument("--mu", type=float, default=0.0,
                      help="chemical potential; in units of T on omega/T planes, "
                           "inert on occupation planes")
    cmap.set_defaults(func=cmd_map)

    verify = sub.add_parser("verify", help="oracle sweep against the closed forms")
    _add_out_flag(verify)
    verify.add_argument("--point", action="append", default=[],
                        metavar="NBAR,R", help="grid point; repeatable")
    verify.add_argument("--tolerance", type=float, default=1e-8,
                        help="gating tolerance for oracle/analytic agreement")
    verify.add_argument("--trunc-tolerance", type=float, default=1e-12,
                        help="truncation tail mass for the oracle")
    verify.add_argument("--omega", type=float, default=1.0)
    verify.set_defaults(func=cmd_verify)

    spect = sub.add_parser("spectrum", help="per-mode field scan")
    _add_out_flag(spect)
    spect.add_argument("--pump", required=True, help="pump profile JSON path")
    spect.add_argument("--T", type=float, required=True)
    spect.add_argument("--mu", type=float, default=0.0)
    spect.add_argument("--omega-convention", choices=sorted(field_modes.OMEGA_CONVENTIONS),
                       default="k")
    spect.add_argument("--k-min", type=float, required=True)
    spect.add_argument("--k-max", type=float, required=True)
    spect.add_argument("--k-points", type=int, default=50)
    spect.add_argument("--k-scale", choices=("log10", "linear"), default="log10")
    spect.add_argument("--tau-in", type=float, required=True)
    spect.add_argument("--tau-fin", type=float, required=True)
    spect.add_argument("--tol", type=float, default=1e-10)
    spect.add_argument("--graviton", action="store_true",
                       help="two tensor polarizations; doubles extensive columns")
    spect.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json and args.command != "check":
            parser.error(f"--json applies to check only, not {args.command}")
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for a
        # violated bound, so usage errors are remapped to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, dynamics.IntegrationError,
            fock_oracle.TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
