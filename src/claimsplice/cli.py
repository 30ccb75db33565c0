"""Command-line front end: fit, simulate and evaluate bivariate composite models.

Every run is reproducible: the seed is always recorded in the emitted
report (one is generated if the caller did not supply any). JSON reports
are schema-stable across families; parameters a family does not have are
emitted as null, never omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import secrets
import sys
from dataclasses import fields

import numpy as np

from claimsplice import __version__
from claimsplice._fork import _forked
from claimsplice.composite import FAMILIES, TAGS, CompositeModel, CompositeParams, family_of_tag
from claimsplice.families import InverseWeibullParams
from claimsplice.copula import BivariateModel, GumbelCopula
from claimsplice.estimation import (
    ConvergenceError,
    DegenerateDataError,
    OptimizerConfig,
    aic,
    bic,
    empirical_kendall_tau,
    fit_bivariate_by_tag,
)
from claimsplice.ingest import IngestError, histogram_export, load_csv, summarize_sample

SCHEMA = "claimsplice-report-v1"
PARAMS_SCHEMA = "claimsplice-params-v1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_PARAMS = 4


def _marginal_to_dict(params: CompositeParams, r):
    h = params.head
    return {
        "family": FAMILIES[params.family].tag,
        "mu": h.mu,
        "sigma": h.sigma,
        "tau": getattr(h, "tau", None),
        "alpha": params.tail.alpha,
        "gamma": params.tail.gamma,
        "theta": params.theta,
        "r": r,
    }


def _marginal_from_dict(d):
    """Parameters of one marginal; "family" is a model tag or a head name."""
    head_cls = FAMILIES[family_of_tag(d["family"]) or d["family"]].head
    return CompositeParams(
        head=head_cls(**{f.name: d[f.name] for f in fields(head_cls)}),
        tail=InverseWeibullParams(alpha=d["alpha"], gamma=d["gamma"]),
        theta=d["theta"],
    )


def load_params_json(path):
    """Parse a bivariate parameter file into a BivariateModel."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    m1 = CompositeModel(_marginal_from_dict(doc["marginal1"]))
    m2 = CompositeModel(_marginal_from_dict(doc["marginal2"]))
    return BivariateModel(m1, m2, GumbelCopula(doc["phi"]))


def _report_from_fit(tag, rep):
    return {
        "model": tag,
        "converged": rep.marginal1.converged and rep.marginal2.converged and rep.copula.converged,
        "loglik": rep.loglik,
        "df": rep.df,
        "df_fixed_thresholds": rep.df_fixed_thresholds,
        "aic": rep.aic,
        "bic": rep.bic,
        "phi": rep.copula.phi,
        "phi_at_boundary": rep.copula.at_boundary,
        "model_tau": rep.model_tau,
        "empirical_tau": rep.empirical_tau,
        "marginal1": _marginal_to_dict(rep.marginal1.params, rep.marginal1.r),
        "marginal2": _marginal_to_dict(rep.marginal2.params, rep.marginal2.r),
    }


def _report_head(command, args, sample):
    """Top-level keys of the fit and eval reports; "ingest" holds the rows the loader rejected."""
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "input": args.input,
        "n": sample.n,
        "seed": args.seed,
        "ingest": {"rows_rejected": len(sample.rejected_rows), "rejected": sample.rejected_rows[:10]},
    }


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=2) if args.format == "json" else _text_report(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _text_report(doc):
    lines = []
    if "models" in doc:
        lines.append(f"{'model':8} {'df':>3} {'loglik':>14} {'AIC':>14} {'BIC':>14} {'tau':>8}")
        for m in doc["models"]:
            lines.append(
                f"{m['model']:8} {m['df']:>3} {m['loglik']:>14.2f} {m['aic']:>14.2f} "
                f"{m['bic']:>14.2f} {m['model_tau']:>8.4f}"
            )
        lines.append("")
        for m in doc["models"]:
            lines.append(f"[{m['model']}] phi={m['phi']:.4f}")
            for side in ("marginal1", "marginal2"):
                p = m[side]
                tau_s = "--" if p["tau"] is None else f"{p['tau']:.6g}"
                lines.append(
                    f"  {side}: mu={p['mu']:.6g} sigma={p['sigma']:.6g} tau={tau_s} "
                    f"alpha={p['alpha']:.6g} gamma={p['gamma']:.6g} theta={p['theta']:.6g} r={p['r']:.4f}"
                )
    else:
        lines.append(json.dumps(doc, sort_keys=True, indent=2))
    return "\n".join(lines)


def _ks_statistic(model, data):
    y = np.sort(np.asarray(data, dtype=float))
    n = y.size
    f = model.cdf(y)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def _density_overlay(model, data, bins):
    hist = histogram_export(data, bins=bins)
    edges = np.array(hist["edges"])
    # log spacing: claim densities concentrate orders of magnitude below max
    grid = np.geomspace(edges[0], edges[-1], 400)
    return {
        "histogram": hist,
        "grid": grid.tolist(),
        "density": model.pdf(grid).tolist(),
    }


def cmd_fit(args):
    sample = load_csv(args.input, cols=args.cols, strict=args.strict)
    config = OptimizerConfig(max_iter=args.max_iter, tol=args.tol, restarts=args.restarts)
    tags = TAGS if args.family == "all" else [args.family]
    models = []
    for tag in tags:
        rep = fit_bivariate_by_tag(sample.claim1, sample.claim2, tag, config)
        models.append(_report_from_fit(tag, rep))
    models.sort(key=lambda m: (m["aic"], m["bic"]))
    doc = {
        **_report_head("fit", args, sample),
        "summary": summarize_sample(sample),
        "models": models,
    }
    _emit(doc, args)


def _csv_rows(y1, y2):
    """The data lines of a sample, each float as repr writes it; lazy, so the lists are made where it is consumed."""
    for a, b in zip(y1.tolist(), y2.tolist()):
        yield f"{a!r},{b!r}\n"


def cmd_simulate(args):
    model = load_params_json(args.params)
    y1, y2 = model.sample_pairs(args.n, args.seed)
    meta = [
        f"schema={PARAMS_SCHEMA} version={__version__} seed={args.seed} n={args.n}",
        f"marginal1={json.dumps(_marginal_to_dict(model.marginal1.params, model.marginal1.r), sort_keys=True)}",
        f"marginal2={json.dumps(_marginal_to_dict(model.marginal2.params, model.marginal2.r), sort_keys=True)}",
        f"phi={model.copula.phi}",
    ]
    # repr of the floats is most of the run time, so a forked child formats rows [n/2, n) into one string while
    # this process writes rows [0, n/2) line by line, then the child's string; without fork both halves run here
    half = args.n // 2
    with (
        _forked("".join, _csv_rows(y1[half:], y2[half:])) as second_half,
        open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh,
    ):
        fh.writelines(f"# {m}\n" for m in meta)
        fh.write("claim1,claim2\n")
        fh.writelines(_csv_rows(y1[:half], y2[:half]))
        fh.write(second_half())


def cmd_eval(args):
    model = load_params_json(args.params)
    sample = load_csv(args.input, cols=args.cols, strict=args.strict)
    loglik = model.log_likelihood(sample.claim1, sample.claim2)
    df = FAMILIES[model.marginal1.params.family].df + FAMILIES[model.marginal2.params.family].df + 1
    doc = {
        **_report_head("eval", args, sample),
        "loglik": loglik,
        "df": df,
        "df_fixed_thresholds": df - 2,
        "aic": aic(loglik, df),
        "bic": bic(loglik, df, sample.n),
        "phi": model.copula.phi,
        "model_tau": model.copula.kendall_tau(),
        "empirical_tau": empirical_kendall_tau(sample.claim1, sample.claim2),
        "ks": {
            "claim1": _ks_statistic(model.marginal1, sample.claim1),
            "claim2": _ks_statistic(model.marginal2, sample.claim2),
        },
        "overlay": {
            "claim1": _density_overlay(model.marginal1, sample.claim1, args.bins),
            "claim2": _density_overlay(model.marginal2, sample.claim2, args.bins),
        },
    }
    _emit(doc, args)


def build_parser():
    p = argparse.ArgumentParser(prog="claimsplice", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="CSV file of claim pairs")
            sp.add_argument("--cols", default="0,1", help="two column names or 0-based indices")
            sp.add_argument("--strict", action="store_true", help="abort on any bad row")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=["json", "text"], default="json")

    f = sub.add_parser("fit", help="fit one or all composite families")
    common(f)
    f.add_argument("--family", choices=TAGS + ["all"], default="all")
    f.add_argument("--restarts", type=int, default=3,
                   help="threshold starts per marginal, at data quantiles 0.5, 0.7, 0.9 (at most three are used)")
    f.add_argument("--tol", type=float, default=1e-8)
    f.add_argument("--max-iter", type=int, default=5000)
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("simulate", help="sample claim pairs from given parameters")
    common(s, needs_input=False)
    s.add_argument("--params", required=True, help="JSON parameter file")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("eval", help="diagnostics of given parameters on data")
    common(e)
    e.add_argument("--params", required=True, help="JSON parameter file")
    e.add_argument("--bins", type=int, default=30)
    e.set_defaults(func=cmd_eval)
    return p


def _check_options(args):
    """Out-of-range option values are input errors (exit 2), whatever the command."""
    for name in ("n", "restarts", "max_iter", "bins"):
        if getattr(args, name, 1) < 1:
            raise IngestError(f"--{name.replace('_', '-')} must be >= 1, got {getattr(args, name)}")
    if not getattr(args, "tol", 1.0) > 0:
        raise IngestError(f"--tol must be > 0, got {args.tol}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = secrets.randbits(32)
    try:
        _check_options(args)
        args.func(args)
    except (IngestError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, DegenerateDataError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
