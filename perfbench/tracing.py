"""Per-layer spans, recorded from outside the program.

The layers are the package's modules.  A span is opened around each public
function a module calls in the layer below, by replacing the name that the
caller looks up (``scans.parseval_weights``, ``cli.step_union_crosscheck``,
...) with a wrapper for the length of a traced round.  Spans are kept in
memory and written out when the run ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _terms(args, kwargs, out) -> dict:
    return {"terms": len(out.coeffs)}


def _fft_points(args, kwargs, out) -> dict:
    x = args[0]
    axis = kwargs.get("axis", -1)
    n = kwargs.get("n") or x.shape[axis]
    return {"points": x.size // x.shape[axis] * n}


# (module, attribute, span name, counter).  The counter turns the call's
# arguments and result into the counts the span carries.
_FUNCTION_TARGETS = (
    ("cli", "main", "cli", None),
    ("cli", "filtered_grid", "spectra.grid", None),
    ("cli", "step_union_crosscheck", "spectra.crosscheck",
     lambda args, kwargs, out: {"points": out.n_checked}),
    ("scans", "eigen_membership_scan", "scans", None),
    ("scans", "counterexample_blowup", "scans", None),
    ("scans", "gp_nuclearity_sum", "scans", None),
    ("scans", "schauder_partial_sum_check", "scans", None),
    ("scans", "classify_growth", "scans.classify", None),
    ("scans", "parseval_weights", "norms.parseval", None),
    ("scans", "monomial_norm", "norms.monomial", None),
    ("scans", "eigenfunction_truncation", "series.coeff", _terms),
    ("scans", "binomial_series_coeffs", "series.coeff", _terms),
    ("series", "eigenfunction_truncation", "series.coeff", _terms),
    ("norms", "norm_quadrature_with_rule", "norms.quad", None),
    ("norms", "_radial_rule", "norms.rule_build", None),
)

PER_LAYER = (
    ("norms.quad_calls", "count"),
    ("norms.passes", "count"),
    ("norms.radial_nodes", "count"),
    ("norms.quad_s", "s"),
    ("norms.quad_self_s", "s"),
    ("norms.rule_build_s", "s"),
    ("norms.fft_s", "s"),
    ("norms.fft_points", "count"),
    ("norms.parseval_s", "s"),
    ("norms.monomial_s", "s"),
    ("series.coeff_s", "s"),
    ("series.coeff_terms", "count"),
    ("scans.classify_s", "s"),
    ("scans.self_s", "s"),
    ("spectra.grid_s", "s"),
    ("spectra.crosscheck_s", "s"),
    ("spectra.points_checked", "count"),
    ("spectra.crosscheck_alloc_mb", "MB"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class _ModuleProxy:
    """Stands in for a module and wraps one of its functions."""

    def __init__(self, real, name, wrapper):
        self._real = real
        setattr(self, name, wrapper)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    """Installs wrappers on the layer boundaries and records spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        # [span id, parent id, name, start, end, round, counts or None]
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter=None, alloc=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name,
                   time.perf_counter(), 0.0, self.round, None]
            spans.append(rec)
            stack.append(rec[0])
            if alloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, out)
            if alloc:
                rec[6]["alloc_bytes"] = peak
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, attr, name, counter in _FUNCTION_TARGETS:
            mod = self.modules[mod_name]
            if attr in vars(mod):
                self._patch(mod, attr, self._wrap(
                    name, getattr(mod, attr), counter,
                    alloc=name == "spectra.crosscheck"))
        norms = self.modules["norms"]
        quad_cls = getattr(norms, "DiskQuadrature", None)
        if quad_cls is not None and "build" in vars(quad_cls):
            build = vars(quad_cls)["build"].__func__
            self._patch(quad_cls, "build", classmethod(self._wrap(
                "norms.build", build,
                lambda args, kwargs, out: {"nodes": out.radial_count})))
        fft_mod = vars(norms).get("_fft")
        if fft_mod is not None:
            self._patch(norms, "_fft", _ModuleProxy(
                fft_mod, "fft", self._wrap("norms.fft", fft_mod.fft, _fft_points)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer totals of one traced round."""
        spans = [s for s in self.spans if s[5] == rnd]
        dur = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        child_time = defaultdict(float)
        peak = 0
        in_round = {s[0] for s in spans}
        for sid, parent, name, t0, t1, _, count in spans:
            dur[name] += t1 - t0
            calls[name] += 1
            for key, value in (count or {}).items():
                if key == "alloc_bytes":
                    peak = max(peak, value)
                else:
                    counts[name + "." + key] += value
            if parent in in_round:
                child_time[parent] += t1 - t0
        self_time = defaultdict(float)
        for sid, _, name, t0, t1, _, _ in spans:
            self_time[name] += (t1 - t0) - child_time[sid]
        return {
            "norms.quad_calls": calls["norms.quad"],
            "norms.passes": calls["norms.build"],
            "norms.radial_nodes": counts["norms.build.nodes"],
            "norms.quad_s": dur["norms.quad"],
            "norms.quad_self_s": self_time["norms.quad"],
            "norms.rule_build_s": dur["norms.rule_build"],
            "norms.fft_s": dur["norms.fft"],
            "norms.fft_points": counts["norms.fft.points"],
            "norms.parseval_s": dur["norms.parseval"],
            "norms.monomial_s": dur["norms.monomial"],
            "series.coeff_s": dur["series.coeff"],
            "series.coeff_terms": counts["series.coeff.terms"],
            "scans.classify_s": dur["scans.classify"],
            "scans.self_s": self_time["scans"],
            "spectra.grid_s": dur["spectra.grid"],
            "spectra.crosscheck_s": dur["spectra.crosscheck"],
            "spectra.points_checked": counts["spectra.crosscheck.points"],
            "spectra.crosscheck_alloc_mb": peak / 2.0 ** 20,
            "cli.self_s": self_time["cli"],
        }

    def metrics(self, rounds: list[int]) -> dict[str, float]:
        """Median over the traced rounds of each per-round total."""
        per_round = [self.round_metrics(r) for r in rounds]
        return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "start", "end", "round", "counts"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n",
                        encoding="utf-8")
