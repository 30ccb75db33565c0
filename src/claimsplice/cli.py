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
import os
import secrets
import sys
from dataclasses import fields

import numpy as np

from claimsplice import __version__, _fork
from claimsplice._fork import _forked
from claimsplice.composite import FAMILIES, TAGS, CompositeModel, CompositeParams, family_of_tag
from claimsplice.families import InverseWeibullParams
from claimsplice.copula import BivariateModel, GumbelCopula
from claimsplice.estimation import (
    ConvergenceError,
    DegenerateDataError,
    OptimizerConfig,
    criteria,
    empirical_kendall_tau,
    fit_bivariate,
)
from claimsplice.ingest import IngestError, histogram_export, load_csv, summarize_sample

SCHEMA = "claimsplice-report-v1"
PARAMS_SCHEMA = "claimsplice-params-v1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_PARAMS = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer that SIGPIPE ends, as in `yes | head`


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


def _marginal_from_dict(name, d):
    """Parameters of one marginal; "family" is its model tag, as reports write it."""
    if not isinstance(d, dict):
        raise IngestError(f"{name} must be a JSON object, got {d!r}")
    family = family_of_tag(d.get("family"))
    if family is None:
        raise IngestError(f'{name}: "family" must be one of the model tags {", ".join(TAGS)}, got {d.get("family")!r}')
    head_cls = FAMILIES[family].head
    return CompositeParams(
        head=head_cls(**{f.name: d[f.name] for f in fields(head_cls)}),
        tail=InverseWeibullParams(alpha=d["alpha"], gamma=d["gamma"]),
        theta=d["theta"],
    )


def load_params_json(path):
    """Parse a bivariate parameter file into a BivariateModel.

    A file that cannot be read or is not shaped as one raises IngestError; a
    parameter value that is not admissible, a non-number included, ValueError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: a parameter file holds one JSON object, not a {type(doc).__name__}")
    m1 = CompositeModel(_marginal_from_dict("marginal1", doc["marginal1"]))
    m2 = CompositeModel(_marginal_from_dict("marginal2", doc["marginal2"]))
    return BivariateModel(m1, m2, GumbelCopula(doc["phi"]))


def _report_from_fit(tag, rep, empirical_tau):
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
        "empirical_tau": empirical_tau,
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


def _open_out(path):
    """``path`` opened for writing; one that cannot be opened, a directory included, is an input error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ks_statistic(f, y):
    """KS distance between the claims ``y`` and the marginal whose cdf at ``y`` is ``f``."""
    f = f[np.argsort(y)]
    n = f.size
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
    fits = {}
    for tag in tags:
        fam = family_of_tag(tag)
        fits[tag] = fit_bivariate(sample.claim1, sample.claim2, fam, fam, config)
    tau = empirical_kendall_tau(sample.claim1, sample.claim2)  # depends on the data alone: one for every model
    models = [_report_from_fit(tag, rep, tau) for tag, rep in fits.items()]
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
    # this process writes rows [0, n/2) line by line, then the child's string; below the fork's break-even, as
    # without fork, both halves run here
    half = args.n // 2
    with (
        _forked("".join, _csv_rows(y1[half:], y2[half:]), rows=args.n, min_rows=_fork.SIMULATE_FORK_MIN_ROWS)
        as second_half,
        _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh,
    ):
        fh.writelines(f"# {m}\n" for m in meta)
        fh.write("claim1,claim2\n")
        fh.writelines(_csv_rows(y1[:half], y2[:half]))
        fh.write(second_half())


def cmd_eval(args):
    model = load_params_json(args.params)
    sample = load_csv(args.input, cols=args.cols, strict=args.strict)
    y1, y2 = sample.claim1, sample.claim2
    # Kendall tau runs in a forked child meanwhile; it is asked for last, so that an error of the log-likelihood
    # comes before one of the tau
    with _forked(empirical_kendall_tau, y1, y2, rows=sample.n) as empirical_tau:
        f1, f2 = model.marginal1.cdf(y1), model.marginal2.cdf(y2)
        loglik = model.log_likelihood(y1, y2, cdfs=(f1, f2))
        df1, df2 = (FAMILIES[m.params.family].df for m in (model.marginal1, model.marginal2))
        doc = {
            **_report_head("eval", args, sample),
            "loglik": loglik,
            **criteria(loglik, df1, df2, sample.n),
            "phi": model.copula.phi,
            "model_tau": model.copula.kendall_tau(),
            "ks": {"claim1": _ks_statistic(f1, y1), "claim2": _ks_statistic(f2, y2)},
            "overlay": {
                "claim1": _density_overlay(model.marginal1, y1, args.bins),
                "claim2": _density_overlay(model.marginal2, y2, args.bins),
            },
        }
        doc["empirical_tau"] = empirical_tau()
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
        sys.stdout.flush()  # a reader that left before the last write is then seen here, not at interpreter exit
    except BrokenPipeError:
        # the reader left (`simulate ... | head`): stop quietly, and send what stdout still buffers to devnull
        # so that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (IngestError, json.JSONDecodeError, KeyError) as exc:
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
