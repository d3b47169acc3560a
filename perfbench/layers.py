"""Per-layer metrics of one traced pass of a workload.

Input is the span dumps that ``layer_hooks.Recorder`` wrote, one per CLI
command of the pass.  A layer's self time is its spans' duration minus the
part covered by the child spans named in its definition.  Times are in
seconds; counts are exact and repeat from pass to pass.
"""

from __future__ import annotations

import statistics

REDUCE_SPANS = {
    "fock_oracle.partial_trace",
    "fock_oracle.purity",
    "fock_oracle.JointBlocks.to_dense",
    "fock_oracle.JointBlocks.reduced_system",
    "fock_oracle.JointBlocks.reduced_environment",
    "fock_oracle.JointBlocks.purity",
}

UNITS = {
    "import.ampbound_s": "s",
    "import.scipy_stats_s": "s",
    "import.scipy_integrate_s": "s",
    "import.scipy_special_s": "s",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "analytic.ns_per_call": "ns",
    "cli.scan_self_s": "s",
    "cli.format_s": "s",
    "cli.out_bytes": "bytes",
    "fock_oracle.truncation_s": "s",
    "fock_oracle.squeeze_tail_calls": "count",
    "fock_oracle.reduce_s": "s",
    "fock_oracle.entropy_s": "s",
    "fock_oracle.dense_points": "count",
    "fock_oracle.block_points": "count",
    "fock_oracle.stored_entries_max": "count",
    "fock_oracle.infeasible_points": "count",
    "fock_oracle.point_s_p50": "s",
    "su11.assembly_s": "s",
    "su11.kets": "count",
    "su11.ladder_entries": "count",
    "dynamics.solve_s": "s",
    "dynamics.rhs_evals": "count",
    "dynamics.rhs_evals_max_mode": "count",
    "dynamics.extract_s": "s",
    "field_modes.self_s": "s",
    "field_modes.mode_s_p50": "s",
    "field_modes.mode_s_p80": "s",
    "field_modes.failed_modes": "count",
    "trace.ops_per_s": "ops/s",
    "trace.overhead_frac": "fraction",
}

# metrics that must repeat exactly between passes of the same inputs
EXACT_COUNTERS = ("dynamics.rhs_evals", "fock_oracle.squeeze_tail_calls",
                  "su11.kets", "analytic.calls", "cli.out_bytes")


def _s(ns: int) -> float:
    return ns / 1e9


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class _Dump:
    def __init__(self, dump: dict):
        self.spans = dump["spans"]
        self.counts = dump["counts"]
        self.children = {}
        for i, span in enumerate(self.spans):
            self.children.setdefault(span["parent"], []).append(i)

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def under(self, i, name):
        """Spans named ``name`` among the descendants of span ``i``."""
        found, todo = [], list(self.children.get(i, ()))
        while todo:
            j = todo.pop()
            if self.spans[j]["name"] == name:
                found.append(j)
            todo.extend(self.children.get(j, ()))
        return found

    def busy(self, idxs) -> int:
        return sum(self.spans[i]["busy"] for i in idxs)


def pass_metrics(dumps: list, out_bytes: int) -> dict:
    """Per-layer metrics of one pass, from its span dumps."""
    ds = [_Dump(d) for d in dumps]
    m = dict.fromkeys(
        ["analytic.calls", "analytic.self_s", "cli.scan_self_s", "cli.format_s",
         "fock_oracle.truncation_s", "fock_oracle.squeeze_tail_calls",
         "fock_oracle.reduce_s", "fock_oracle.entropy_s", "fock_oracle.dense_points",
         "fock_oracle.block_points", "fock_oracle.stored_entries_max",
         "fock_oracle.infeasible_points", "su11.assembly_s", "su11.kets",
         "su11.ladder_entries", "dynamics.solve_s", "dynamics.rhs_evals",
         "dynamics.rhs_evals_max_mode", "dynamics.extract_s", "field_modes.self_s",
         "field_modes.failed_modes"], 0)
    point_ns, mode_ns = [], []
    for d in ds:
        spans = d.spans
        analytic = d.named("analytic")
        m["analytic.calls"] += sum(spans[i]["calls"] for i in analytic)
        m["analytic.self_s"] += _s(d.busy(analytic))

        for i in d.named("cli.scan_rows"):
            m["cli.scan_self_s"] += _s(spans[i]["busy"] - d.busy(d.under(i, "analytic")))
        for i in d.named("cli.scan_csv"):
            m["cli.format_s"] += _s(spans[i]["busy"] - d.busy(d.under(i, "cli.scan_rows")))

        m["fock_oracle.truncation_s"] += _s(d.busy(d.named("fock_oracle.choose_truncation")))
        m["fock_oracle.squeeze_tail_calls"] += sum(
            spans[i]["calls"] for i in d.named("fock_oracle.squeeze_tail"))
        m["fock_oracle.reduce_s"] += _s(sum(
            s["busy"] for s in spans
            if s["name"] in REDUCE_SPANS
            and (s["parent"] < 0 or spans[s["parent"]]["name"] not in REDUCE_SPANS)))
        m["fock_oracle.entropy_s"] += _s(d.busy(d.named("fock_oracle.von_neumann_entropy")))
        for i in d.named("fock_oracle.verify_point"):
            point_ns.append(spans[i]["busy"])
            if spans[i]["attrs"].get("error") == "TruncationInfeasibleError":
                m["fock_oracle.infeasible_points"] += 1
                continue
            dense = bool(d.under(i, "fock_oracle.JointBlocks.to_dense"))
            m["fock_oracle.dense_points" if dense else "fock_oracle.block_points"] += 1
            for j in d.under(i, "fock_oracle.choose_truncation"):
                M, L = spans[j]["attrs"]["M"], spans[j]["attrs"]["L"]
                entries = (M + 1) * (L + 1) ** 2
                if dense:
                    entries += ((L + 1) * (M + L + 1)) ** 2
                m["fock_oracle.stored_entries_max"] = max(
                    m["fock_oracle.stored_entries_max"], entries)

        m["su11.assembly_s"] += _s(d.busy(d.named("su11.build_joint_blocks")))
        m["su11.kets"] += sum(spans[i]["calls"] for i in d.named("su11.evolve_basis_state"))
        m["su11.ladder_entries"] += d.counts.get("su11.ladder_entries", 0)

        solves = d.named("dynamics.integrate_uv")
        m["dynamics.solve_s"] += _s(d.busy(solves))
        m["dynamics.rhs_evals"] += d.counts.get("dynamics.rhs_evals", 0)
        m["dynamics.rhs_evals_max_mode"] = max(
            [m["dynamics.rhs_evals_max_mode"]]
            + [spans[i]["attrs"].get("rhs_evals", 0) for i in solves])
        m["dynamics.extract_s"] += _s(d.busy(d.named("dynamics.extract_squeeze")))
        for i in d.named("field_modes.spectrum"):
            m["field_modes.self_s"] += _s(
                spans[i]["busy"] - d.busy(d.under(i, "dynamics.integrate_uv")))
        for i in d.named("field_modes.mode_bound"):
            mode_ns.append(spans[i]["busy"])
            if "error" in spans[i]["attrs"]:
                m["field_modes.failed_modes"] += 1

    calls = m["analytic.calls"]
    m["analytic.ns_per_call"] = m["analytic.self_s"] * 1e9 / calls if calls else 0.0
    m["cli.out_bytes"] = out_bytes
    m["fock_oracle.point_s_p50"] = _s(_quantile(point_ns, 0.5))
    m["field_modes.mode_s_p50"] = _s(_quantile(mode_ns, 0.5))
    m["field_modes.mode_s_p80"] = _s(_quantile(mode_ns, 0.8))
    return m


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds from ``python -X importtime`` output.

    ``import.ampbound_s`` sums the top-level ``ampbound`` entries, so it does
    not depend on whether the package imports its CLI or the reverse.  A
    module that is not imported reports 0.
    """
    top, named = 0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        us = int(cumulative)
        label = name.strip()
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        if level == 0 and (label == "ampbound" or label.startswith("ampbound.")):
            top += us
        named.setdefault(label, us)
    return {
        "import.ampbound_s": top / 1e6,
        "import.scipy_stats_s": named.get("scipy.stats", 0) / 1e6,
        "import.scipy_integrate_s": named.get("scipy.integrate", 0) / 1e6,
        "import.scipy_special_s": named.get("scipy.special", 0) / 1e6,
    }
