"""Spans around the calls into each ampbound module, recorded from outside.

``instrument(recorder)`` replaces module attributes of the imported package
with wrappers, so every call that goes through a module attribute is seen.
Nothing in the package itself changes.  Three kinds of record exist:

* a span: one call of a module-boundary function (``verify_point``,
  ``build_joint_blocks``, ``integrate_uv``, ...), with its start, end and
  the span that was open when it began;
* a leaf aggregate: calls too frequent to keep one by one (the closed forms
  called once per map cell, the ladder kets, the tail estimator), kept as a
  call count and busy time per (name, parent span);
* a counter, such as the pump evaluations of the ODE right-hand side.

Functions that a later version of the package removes are skipped.  Spans
stay in memory and are written out by ``Recorder.dump`` when the command
ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

_clock = time.perf_counter_ns


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._leaves = {}
        self._inside = Counter()

    def _record(self, name: str, calls: int) -> dict:
        return {"name": name, "parent": self.stack[-1] if self.stack else -1,
                "start": _clock(), "end": 0, "busy": 0, "calls": calls, "attrs": {}}

    def _open(self, name: str) -> dict:
        span = self._record(name, 1)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = _clock()
        span["busy"] = span["end"] - span["start"]
        self.stack.pop()

    def call(self, name, fn, args, kwargs, after=None):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)
        if after is not None:
            after(span["attrs"], result)
        return result

    def leaf(self, name, fn, args, kwargs, guard=None):
        # calls made from inside the same module are part of the outer call
        if guard is not None and self._inside[guard]:
            return fn(*args, **kwargs)
        key = (name, self.stack[-1] if self.stack else -1)
        agg = self._leaves.get(key)
        if agg is None:
            agg = self._leaves[key] = self._record(name, 0)
        if guard is not None:
            self._inside[guard] += 1
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            if guard is not None:
                self._inside[guard] -= 1
            agg["calls"] += 1
            agg["busy"] += t1 - t0
            agg["end"] = t1

    def generator(self, name, gen_fn, args, kwargs):
        """Time only the steps spent inside a generator, not its consumer."""
        span = self._record(name, 0)
        self.spans.append(span)
        idx = len(self.spans) - 1
        gen = gen_fn(*args, **kwargs)
        while True:
            self.stack.append(idx)
            t0 = _clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = _clock()
                self.stack.pop()
                span["busy"] += t1 - t0
                span["end"] = t1
            span["calls"] += 1
            yield item

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans + list(self._leaves.values()),
                       "counts": dict(self.counts)}, fh)


def _patch(owner, attr, make):
    orig = getattr(owner, attr, None)
    if orig is None:
        return
    setattr(owner, attr, functools.wraps(orig)(make(orig)))


def _span(rec, owner, attr, name, after=None):
    _patch(owner, attr,
           lambda orig: lambda *a, **k: rec.call(name, orig, a, k, after))


def _leaf(rec, owner, attr, name, guard=None):
    _patch(owner, attr,
           lambda orig: lambda *a, **k: rec.leaf(name, orig, a, k, guard))


def instrument(rec: Recorder) -> None:
    """Wrap the module-boundary calls of the imported ampbound package."""
    import types

    from ampbound import analytic, cli, dynamics, field_modes, fock_oracle, su11

    # cli: the map path; scan_rows is a generator consumed by scan_csv
    _span(rec, cli, "scan_csv", "cli.scan_csv")
    _patch(cli, "scan_rows",
           lambda orig: lambda *a, **k: rec.generator("cli.scan_rows", orig, a, k))

    # analytic: every public function, counted once per outside call
    for attr in analytic.__all__:
        if isinstance(getattr(analytic, attr, None), types.FunctionType):
            _leaf(rec, analytic, attr, "analytic", guard="analytic")

    # fock_oracle: one span per point and per stage of the point
    _span(rec, fock_oracle, "verify_grid", "fock_oracle.verify_grid")
    _span(rec, fock_oracle, "verify_point", "fock_oracle.verify_point")

    def truncation(attrs, spec):
        attrs["M"] = spec.max_thermal
        attrs["L"] = spec.max_squeeze

    _span(rec, fock_oracle, "choose_truncation", "fock_oracle.choose_truncation",
          after=truncation)
    _leaf(rec, fock_oracle, "squeeze_tail", "fock_oracle.squeeze_tail")
    for attr in ("partial_trace", "purity", "von_neumann_entropy"):
        _span(rec, fock_oracle, attr, f"fock_oracle.{attr}")
    blocks_cls = getattr(fock_oracle, "JointBlocks", None)
    if blocks_cls is not None:
        for attr in ("to_dense", "reduced_system", "reduced_environment", "purity"):
            _span(rec, blocks_cls, attr, f"fock_oracle.JointBlocks.{attr}")

    # su11: joint-state assembly and the ladder kets it is made of
    _span(rec, su11, "build_joint_blocks", "su11.build_joint_blocks")

    def ket(orig):
        def wrapper(*a, **k):
            result = rec.leaf("su11.evolve_basis_state", orig, a, k)
            rec.counts["su11.ladder_entries"] += len(getattr(result, "amplitudes", ()))
            return result
        return wrapper

    _patch(su11, "evolve_basis_state", ket)

    # dynamics: one span per ODE solve, with the pump evaluations it made
    def counted_pump(orig):
        def wrapper(self, t):
            rec.counts["dynamics.rhs_evals"] += 1
            return orig(self, t)
        return wrapper

    _patch(dynamics.PumpProfile, "__call__", counted_pump)

    def integrate(orig):
        def wrapper(*a, **k):
            before = rec.counts["dynamics.rhs_evals"]

            def evals(attrs, _result):
                attrs["rhs_evals"] = rec.counts["dynamics.rhs_evals"] - before

            return rec.call("dynamics.integrate_uv", orig, a, k, evals)
        return wrapper

    _patch(dynamics, "integrate_uv", integrate)
    _span(rec, dynamics, "extract_squeeze", "dynamics.extract_squeeze")

    # field_modes: the scan and each mode of it
    _span(rec, field_modes, "spectrum", "field_modes.spectrum")
    _span(rec, field_modes, "mode_bound", "field_modes.mode_bound")
