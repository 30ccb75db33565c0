"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each claimsplice module where the
callers look them up, records one span (name, start, end, parent, op id,
attributes) per call in memory, and turns the spans of one operation into
the per-layer metrics. Nothing inside the program changes.

Where each function is looked up:

* ``estimation`` and ``composite`` call ``claimsplice._kernels.composite_nll``
  and ``gumbel_nll`` as module attributes, so the kernels are patched there;
* ``cli`` imported ``load_csv``, ``summarize_sample`` and
  ``empirical_kendall_tau`` by name, so they are patched on ``claimsplice.cli``
  as well as on their home modules;
* ``CompositeModel`` and ``GumbelCopula`` methods are patched on the class;
* ``scipy.optimize.minimize`` is wrapped for each restart's nit, nfev and fun.

The patch points follow the program's module layout; if one is gone, the
traced run stops with its name rather than report a layer as idle.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

FAMILY_TAG = {"weibull": "wiw", "paralogistic": "pariw", "invburr": "ibiw"}
TAGS = ("wiw", "pariw", "ibiw")


def _obs(arg_index):
    return lambda args, kwargs, out: {"obs": len(args[arg_index])}


def _family(args, kwargs, out):
    return {"tag": FAMILY_TAG[args[1] if len(args) > 1 else kwargs["family"]]}


def _optimizer(args, kwargs, out):
    return {"nit": int(out.nit), "nfev": int(out.nfev), "fun": float(out.fun)}


def _sample_rows(args, kwargs, out):
    return {"rows": int(out.n), "rejected": len(out.rejected_rows)}


class Tracer:
    """Spans of the wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, attributes]
        self.op = None
        self._stack = []
        self._undo = []

    def _enter(self, name):
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None])
        self._stack.append(len(self.spans) - 1)
        rec = self.spans[-1]
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def patch(self, owner, attr, name, attrs=None):
        orig = vars(owner)[attr]

        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._exit(rec)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self):
        import scipy.optimize

        from claimsplice import _kernels, cli, estimation, ingest
        from claimsplice.composite import CompositeModel
        from claimsplice.copula import GumbelCopula

        self.patch(_kernels, "composite_nll", "kernels.composite_nll", _obs(2))
        self.patch(_kernels, "gumbel_nll", "kernels.gumbel_nll", _obs(1))
        self.patch(estimation, "fit_marginal", "estimation.fit_marginal", _family)
        self.patch(estimation, "fit_copula", "estimation.fit_copula")
        self.patch(scipy.optimize, "minimize", "scipy.minimize", _optimizer)
        for mod in (estimation, cli):
            self.patch(mod, "empirical_kendall_tau", "estimation.kendall_tau")
        for mod in (ingest, cli):
            self.patch(mod, "load_csv", "ingest.load_csv", _sample_rows)
            self.patch(mod, "summarize_sample", "ingest.summarize_sample")
        for meth in ("cdf", "ppf", "log_likelihood"):
            self.patch(CompositeModel, meth, f"composite.{meth}")
        for meth in ("sample", "log_likelihood"):
            self.patch(GumbelCopula, meth, f"copula.{meth}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "attrs": attrs}) + "\n")


def _dur(rec):
    return rec[2] - rec[1]


def _ancestor(spans, i, name):
    """Index of the nearest enclosing span called ``name``, or None."""
    p = spans[i][3]
    while p is not None and spans[p][0] != name:
        p = spans[p][3]
    return p


def op_metrics(spans, op, bytes_written):
    """Per-layer metrics of one traced operation (one session)."""
    idx = [i for i, s in enumerate(spans) if s[4] == op]
    by_name = {}
    for i in idx:
        by_name.setdefault(spans[i][0], []).append(i)

    def busy(name):
        return sum(_dur(spans[i]) for i in by_name.get(name, []))

    m = {}
    kern = by_name.get("kernels.composite_nll", [])
    m["kernels.composite_nll.calls"] = len(kern)
    m["kernels.composite_nll.busy_s"] = busy("kernels.composite_nll")
    obs = sum(spans[i][5]["obs"] for i in kern)
    m["kernels.composite_nll.ns_per_obs"] = m["kernels.composite_nll.busy_s"] / obs * 1e9 if obs else 0.0
    m["kernels.gumbel_nll.calls"] = len(by_name.get("kernels.gumbel_nll", []))
    m["kernels.gumbel_nll.busy_s"] = busy("kernels.gumbel_nll")

    fits = by_name.get("estimation.fit_marginal", [])
    restarts = {f: [] for f in fits}
    for i in by_name.get("scipy.minimize", []):
        f = _ancestor(spans, i, "estimation.fit_marginal")
        if f is not None:
            restarts[f].append(spans[i][5])
    kernel_in_fit = {f: 0.0 for f in fits}
    for i in kern:
        f = _ancestor(spans, i, "estimation.fit_marginal")
        if f is not None:
            kernel_in_fit[f] += _dur(spans[i])
    for tag in TAGS:
        mine = [f for f in fits if spans[f][5]["tag"] == tag]
        m[f"estimation.fit_marginal.busy_s.{tag}"] = sum(_dur(spans[f]) for f in mine)
        m[f"estimation.fit_marginal.nit.{tag}"] = sum(r["nit"] for f in mine for r in restarts[f])
        m[f"estimation.fit_marginal.nfev.{tag}"] = sum(r["nfev"] for f in mine for r in restarts[f])
    m["estimation.optimizer_self_s"] = sum(_dur(spans[f]) - kernel_in_fit[f] for f in fits)
    all_nfev = sum(r["nfev"] for f in fits for r in restarts[f])
    # scipy's restart loop keeps the first restart with the lowest objective
    won = sum(min(restarts[f], key=lambda r: r["fun"])["nfev"] for f in fits if restarts[f])
    m["estimation.useful_eval_ratio"] = won / all_nfev if all_nfev else 0.0
    m["estimation.fit_copula.busy_s"] = busy("estimation.fit_copula")
    m["estimation.kendall_tau.calls"] = len(by_name.get("estimation.kendall_tau", []))
    m["estimation.kendall_tau.busy_s"] = busy("estimation.kendall_tau")

    for name in ("composite.cdf", "composite.ppf", "composite.log_likelihood",
                 "copula.sample", "copula.log_likelihood", "ingest.load_csv", "ingest.summarize_sample"):
        m[f"{name}.busy_s"] = busy(name)
    loads = [spans[i][5] for i in by_name.get("ingest.load_csv", []) if spans[i][5] is not None]
    m["ingest.load_csv.rows"] = sum(a["rows"] for a in loads)
    m["ingest.load_csv.rejected"] = sum(a["rejected"] for a in loads)

    children = {}
    for i in idx:
        if spans[i][3] is not None:
            children.setdefault(spans[i][3], []).append(i)
    own = {}
    for i in idx:
        name = spans[i][0]
        if name.startswith("cli.") and spans[i][3] is None:
            own.setdefault(name[4:], []).append(_dur(spans[i]) - sum(_dur(spans[c]) for c in children.get(i, [])))
    for command, values in own.items():
        m[f"cli.self_s.{command}"] = statistics.median(values)
    m["cli.bytes_written"] = bytes_written
    m["_kernel_call_s"] = [_dur(spans[i]) for i in kern]
    return m


COUNT_KEYS = ("calls", "nit", "nfev", "rows", "rejected", "bytes_written")


def combine(per_op, untraced_s, traced_s):
    """Per-layer metrics of a run from its traced operations.

    Counts must be equal in every operation (the same commands on the same
    files); times are the median over operations; call percentiles pool
    every call of the run.
    """
    out, mismatched = {}, []
    for key in per_op[0]:
        if key.startswith("_"):
            continue
        values = [m[key] for m in per_op]
        if any(part in key.split(".") for part in COUNT_KEYS):
            if len(set(values)) != 1:
                mismatched.append(key)
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    calls = np.array([t for m in per_op for t in m["_kernel_call_s"]]) * 1e6
    out["kernels.composite_nll.call_us_p50"] = float(np.median(calls)) if calls.size else 0.0
    # a p99 needs at least 10 calls beyond it; below 1 000 calls the maximum stands in
    out["kernels.composite_nll.call_us_p99"] = (
        float(np.percentile(calls, 99)) if calls.size >= 1000 else float(calls.max(initial=0.0)))
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out, mismatched
