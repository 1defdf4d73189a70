"""Span tracing for the traced benchmark run, installed from outside the
library.

The tracer wraps convsense's public entry points in place (module
attributes, class attributes and the ``recovery.SOLVERS`` entries) so a
call records one span: name, start, end and the index of the span that
was open when it began.  Spans stay in memory and are written out once,
when the run ends.  numpy/scipy FFT and DCT entry points are counted, not
spanned, and only while an ``operators`` span is open.

Layer metrics are computed from the spans:

* ``<layer>.calls`` / ``<layer>.busy_ms`` count *entries*: spans whose
  parent belongs to another layer (or to none), so nested calls inside a
  layer are not counted twice;
* ``<layer>.self_ms`` is the layer's span time minus the part covered by
  child spans, so the self times of all layers add up to the time spent
  inside traced calls.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, List

import numpy as np
import scipy.fft

import convsense
from convsense import coherence, gauss_sums, harness, operators, recovery
from convsense import sequences

LAYERS = ("sequences", "gauss_sums", "operators", "coherence", "recovery",
          "harness")
SOLVER_NAMES = ("sp", "omp", "fista")

_SEQUENCE_FUNCS = (
    "fzc", "extended_polyphase", "m_sequence", "perfect_binary_from_m",
    "golay_pair", "golay", "extended_golay", "legendre", "random_phase",
    "random_binary", "autocorr_periodic", "autocorr_aperiodic",
    "autocorr_periodic_all", "classify", "admissible_golay_length")
_GAUSS_FUNCS = (
    "gauss_sum", "gauss_sum_sweep", "complete_gauss_closed_form",
    "reflection_identity_residual", "q_identity_residual", "bound_check")
_COHERENCE_FUNCS = (
    "coherence_circulant", "mutual_coherence", "autocorrelation_bound_check",
    "bound_table_report", "dct_coherence_report", "bound_table_csv")
_HARNESS_FUNCS = (
    "run_ofdm_experiment", "run_phase_transition", "run_dct_experiment",
    "audit_coherence_bounds", "audit_gauss", "audit_papr")
_SOLVER_CANONICAL = {recovery.subspace_pursuit: "sp", recovery.omp: "omp",
                     recovery.fista_lasso: "fista"}
_MODULES = (convsense, sequences, gauss_sums, operators, coherence, recovery,
            harness)

# (per-name metric prefix, span name) for the operator entry points
OPERATOR_SPANS = (
    ("operators.sampling", "operators.random_sampling"),
    ("operators.circulant_build", "operators.circulant_build"),
    ("operators.forward", "operators.forward"),
    ("operators.adjoint", "operators.adjoint"),
    ("operators.columns", "operators.forward_batch"),
    ("operators.apply_batch", "operators.apply_batch"),
)


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in print order."""
    names = []
    for layer in ("sequences", "gauss_sums", "coherence"):
        names += [f"{layer}.calls", f"{layer}.busy_ms", f"{layer}.self_ms"]
    names.append("operators.self_ms")
    for prefix, _ in OPERATOR_SPANS:
        names += [f"{prefix}.calls", f"{prefix}.busy_ms"]
    names += ["operators.columns.cols", "operators.fft.calls",
              "operators.fft.points"]
    for s in SOLVER_NAMES:
        names += [f"recovery.{s}.{f}" for f in (
            "calls", "busy_ms", "self_ms", "iterations", "converged_ratio",
            "solve_ms_p50", "solve_ms_p90")]
    names += ["recovery.self_ms", "harness.trials", "harness.self_ms",
              "harness.csv.busy_ms", "bench.ops", "bench.self_ms",
              "bench.trace_overhead"]
    return names


class Tracer:
    """Installs span wrappers, records spans, computes layer metrics."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._operator_depth = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.columns = 0
        self.solver_iterations: Dict[str, int] = dict.fromkeys(SOLVER_NAMES, 0)
        self.solver_converged: Dict[str, int] = dict.fromkeys(SOLVER_NAMES, 0)
        self._undo: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------
    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        is_operator = name.startswith("operators.")
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if is_operator:
                self._operator_depth += 1
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_operator:
                    self._operator_depth -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        def wrapper(x, *args, **kwargs):
            if self._operator_depth:
                self.fft_calls += 1
                self.fft_points += int(np.size(x))
            return fn(x, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Replace every module-level binding of ``original`` in the
        package, so calls through ``from x import y`` names are seen."""
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(
                        lambda m=mod, a=attr: setattr(m, a, original))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        for mod, layer, funcs in ((sequences, "sequences", _SEQUENCE_FUNCS),
                                  (gauss_sums, "gauss_sums", _GAUSS_FUNCS),
                                  (coherence, "coherence", _COHERENCE_FUNCS),
                                  (harness, "harness", _HARNESS_FUNCS)):
            for fn_name in funcs:
                fn = getattr(mod, fn_name)
                self._rebind(fn, self._span(f"{layer}.{fn_name}", fn))
        self._patch_attr(harness, "_csv",
                         self._span("harness.csv", harness._csv))
        self._rebind(operators.random_sampling,
                     self._span("operators.random_sampling",
                                operators.random_sampling))

        circ = operators.CirculantOperator
        for attr in ("from_spectrum", "from_filter"):
            fn = circ.__dict__[attr].__func__
            self._patch_attr(circ, attr, classmethod(
                self._span("operators.circulant_build", fn)))
        self._patch_attr(circ, "apply_batch",
                         self._span("operators.apply_batch", circ.apply_batch))

        sens = operators.SensingOperator
        self._patch_attr(sens, "forward",
                         self._span("operators.forward", sens.forward))
        self._patch_attr(sens, "adjoint",
                         self._span("operators.adjoint", sens.adjoint))

        def count_columns(args, result):
            self.columns += int(result.shape[1])

        self._patch_attr(sens, "forward_batch",
                         self._span("operators.forward_batch",
                                    sens.forward_batch, count_columns))

        for key, fn in list(recovery.SOLVERS.items()):
            solver = _SOLVER_CANONICAL[fn]

            def record(args, result, s=solver):
                self.solver_iterations[s] += int(result.iterations)
                self.solver_converged[s] += bool(result.converged)

            recovery.SOLVERS[key] = self._span(f"recovery.{solver}", fn,
                                               record)
            self._undo.append(
                lambda k=key, f=fn: recovery.SOLVERS.__setitem__(k, f))

        for mod, names in ((np.fft, ("fft", "ifft")),
                           (scipy.fft, ("dct", "idct"))):
            for fn_name in names:
                self._patch_attr(mod, fn_name,
                                 self._counted(getattr(mod, fn_name)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON array per span: [name, start_s, end_s, parent]."""
        with open(path, "w") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(rec))
                fh.write("\n")

    def durations_ms(self, span_name: str) -> List[float]:
        return [(e - s) * 1e3 for name, s, e in
                zip(self.names, self.starts, self.ends) if name == span_name]

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans (see module doc)."""
        n = len(self.names)
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = (dur - child) * 1e3
        entry = np.array([p < 0 or layer_of[p] != layer_of[i]
                          for i, p in enumerate(self.parents)], dtype=bool)
        names = np.asarray(self.names, dtype=object)
        layers = np.asarray(layer_of, dtype=object)

        out: Dict[str, float] = {}
        for layer in LAYERS:
            in_layer = layers == layer
            if layer in ("sequences", "gauss_sums", "coherence"):
                out[f"{layer}.calls"] = int(np.sum(in_layer & entry))
                out[f"{layer}.busy_ms"] = float(
                    np.sum(dur[in_layer & entry]) * 1e3)
            out[f"{layer}.self_ms"] = float(np.sum(self_ms[in_layer]))
        for prefix, span_name in OPERATOR_SPANS:
            sel = (names == span_name) & entry
            out[f"{prefix}.calls"] = int(np.sum(sel))
            out[f"{prefix}.busy_ms"] = float(np.sum(dur[sel]) * 1e3)
        out["operators.columns.cols"] = self.columns
        out["operators.fft.calls"] = self.fft_calls
        out["operators.fft.points"] = self.fft_points
        for s in SOLVER_NAMES:
            sel = names == f"recovery.{s}"
            calls = int(np.sum(sel))
            solve_ms = dur[sel] * 1e3
            out[f"recovery.{s}.calls"] = calls
            out[f"recovery.{s}.busy_ms"] = float(np.sum(solve_ms))
            out[f"recovery.{s}.self_ms"] = float(np.sum(self_ms[sel]))
            out[f"recovery.{s}.iterations"] = self.solver_iterations[s]
            out[f"recovery.{s}.converged_ratio"] = (
                self.solver_converged[s] / calls if calls else 0.0)
            p50, p90 = (np.percentile(solve_ms, [50, 90]) if calls
                        else (0.0, 0.0))
            out[f"recovery.{s}.solve_ms_p50"] = float(p50)
            out[f"recovery.{s}.solve_ms_p90"] = float(p90)
        out["harness.csv.busy_ms"] = float(
            np.sum(dur[names == "harness.csv"]) * 1e3)
        out["traced_ms"] = float(np.sum(dur[parents < 0]) * 1e3)
        return out
