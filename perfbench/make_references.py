"""Regenerate the stored reference outputs of one workload.

    python3 perfbench/make_references.py --workload fit-paper [--sets 0-31]

Runs one session of the workload per input set through the CLI, and writes
``perfbench/references/<workload>.json`` with the claims file's sha256, the
fitted loglik of every model, the eval loglik and the empirical Kendall tau.
Each Kendall tau is cross-checked against ``scipy.stats.kendalltau`` first.
Regenerate only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run


def parse_sets(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_for(main, session):
    """Run one session and extract its reference values."""
    import numpy as np
    from scipy.stats import kendalltau

    from claimsplice.ingest import load_csv
    from inputs import sha256
    from workload import COLS, COMMANDS, run_command

    times = {}
    for command in COMMANDS:
        dt, rc = run_command(main, session.argv(command))
        if rc != 0:
            raise run.BenchError(f"{command} failed with {rc!r}")
        times[command] = dt
    fit = json.loads(session.out["fit"].read_text(encoding="utf-8"))
    ev = json.loads(session.out["eval"].read_text(encoding="utf-8"))
    if len({m["empirical_tau"] for m in fit["models"]}) != 1:
        raise run.BenchError("fitted models report different empirical taus for one file")
    fit_tau = fit["models"][0]["empirical_tau"]
    for path, tau in ((session.claims, fit_tau), (Path(ev["input"]), ev["empirical_tau"])):
        sample = load_csv(path, cols=COLS)
        oracle = kendalltau(sample.claim1, sample.claim2).statistic
        if not np.isclose(tau, oracle, rtol=1e-12, atol=0.0):
            raise run.BenchError(f"Kendall tau {tau!r} of {path} disagrees with scipy's {oracle!r}")
    return {
        "claims_sha256": sha256(session.claims),
        "fit": {"loglik": {m["model"]: m["loglik"] for m in fit["models"]}, "empirical_tau": fit_tau},
        "eval": {"loglik": ev["loglik"], "empirical_tau": ev["empirical_tau"]},
    }, times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--sets", default=None, help="input sets, e.g. 0-31 (default: all)")
    args = p.parse_args(argv)

    from workload import N_INPUT_SETS, REFERENCE_DIR, WORKLOADS, Session

    workload = WORKLOADS[args.workload]
    run.import_program()
    from claimsplice.cli import main as cli_main

    sets = parse_sets(args.sets) if args.sets else list(range(N_INPUT_SETS))
    path = REFERENCE_DIR / f"{workload.name}.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"input_sets": {}}
    doc["environment"] = run.environment()
    doc["workload"] = workload.name
    for s in sets:
        session = Session(workload, s, run.WORKDIR / f"ref-{workload.name}")
        session.write_inputs()
        t0 = time.perf_counter()
        doc["input_sets"][str(s)], times = reference_for(cli_main, session)
        print(f"{workload.name} set {s}: " + " ".join(f"{c}={t:.3f}s" for c, t in times.items())
              + f" total={time.perf_counter() - t0:.2f}s", file=sys.stderr)
    doc["input_sets"] = dict(sorted(doc["input_sets"].items(), key=lambda kv: int(kv[0])))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
