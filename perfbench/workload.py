"""The benchmark's workloads, one closed-loop session of CLI commands, and its checks.

A session is what an actuary runs on one claims file: ``fit``, then
``simulate`` from a parameter file and ``eval`` of that parameter file,
repeated so that the cheap commands get enough samples. Each command goes
through ``claimsplice.cli.main`` in this process and starts when the
previous one has returned. Workloads differ in the sizes and in which file
``eval`` reads, so that different layers dominate.

``--seed s`` selects input set ``s mod N_INPUT_SETS``; each input set has a
stored reference (see make_references.py).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import sha256, write_claims, write_params

# Input sets with stored reference outputs; --seed s uses input set s mod N_INPUT_SETS.
N_INPUT_SETS = 32
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# ROADMAP gate: a fitted loglik may beat the reference, never trail it by more.
FIT_LOGLIK_SLACK = 1e-6
EVAL_REL_TOL = 1e-9

COLS = "claim1,claim2"
COMMANDS = ("fit", "simulate", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    fit_n: int  # rows of the claims file that fit reads
    family: str  # fit --family
    sim_n: int  # simulate --n
    eval_simulated: bool  # eval reads the simulated file, else the claims file
    why: str
    # simulate/eval pairs after each fit: a cheap command gets enough samples for its median
    repeats: int = 1

    @property
    def tags(self):
        return ["ibiw", "pariw", "wiw"] if self.family == "all" else [self.family]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-paper", 7263, "all", 7263, False,
                 "fit --family all at the paper's n = 7 263: the command users run; "
                 "kernel cost and Nelder-Mead evaluation count both show", repeats=8),
        Workload("fit-large", 50_000, "wiw", 50_000, False,
                 "fit --family wiw at n = 50 000: kernel cost grows with n and optimizer "
                 "overhead does not, so a cheaper kernel shows at full strength", repeats=2),
        Workload("roundtrip", 2000, "wiw", 200_000, True,
                 "simulate --n 200 000 then eval on the file it wrote: CSV writing, ingest and "
                 "Kendall tau dominate, the kernel is a few percent; a kernel change shows none"),
    )
}


class Session:
    """The files and CLI argument lists of one workload and input set."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.input_seed = seed % N_INPUT_SETS
        workdir.mkdir(parents=True, exist_ok=True)
        self.claims = workdir / "claims.csv"
        self.params = workdir / "params.json"
        self.out = {"fit": workdir / "fit.json", "simulate": workdir / "sim.csv", "eval": workdir / "eval.json"}

    def write_inputs(self):
        """Generate the inputs (outside any timed phase); returns their records."""
        w = self.workload
        return [
            write_claims(self.claims, w.fit_n, self.input_seed, salt=w.fit_n),
            write_params(self.params),
        ]

    def commands(self):
        """One session: a fit, then the workload's simulate/eval pairs, each after the last returns."""
        return ("fit",) + ("simulate", "eval") * self.workload.repeats

    def argv(self, command):
        w, s = self.workload, str(self.input_seed)
        if command == "fit":
            return ["fit", "--input", str(self.claims), "--cols", COLS, "--family", w.family,
                    "--seed", s, "--out", str(self.out["fit"])]
        if command == "simulate":
            return ["simulate", "--params", str(self.params), "--n", str(w.sim_n), "--seed", s,
                    "--out", str(self.out["simulate"])]
        eval_input = self.out["simulate"] if w.eval_simulated else self.claims
        return ["eval", "--params", str(self.params), "--input", str(eval_input), "--cols", COLS,
                "--seed", s, "--out", str(self.out["eval"])]

    def outputs(self):
        """Bytes of every output file, for the traced-vs-untraced comparison."""
        return {c: p.read_bytes() for c, p in self.out.items()}


def run_command(main, argv, region=None):
    """One CLI call; returns (wall seconds, exit code or the exception raised)."""
    t0 = time.perf_counter()
    try:
        if region is None:
            rc = main(argv)
        else:
            with region:
                rc = main(argv)
    except Exception as exc:  # a crash counts as a failed operation, the loop goes on
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, rc


def load_reference(workload, input_seed):
    path = REFERENCE_DIR / f"{workload.name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["input_sets"][str(input_seed)]


def _rel_ok(value, ref):
    return abs(value - ref) <= EVAL_REL_TOL * abs(ref)


def check_inputs(session, ref):
    """The generated claims file must be the one the references were made from."""
    got = sha256(session.claims)
    if got != ref["claims_sha256"]:
        return f"claims file sha256 {got} differs from the reference {ref['claims_sha256']}"
    return None


def check_output(session, command, ref):
    """None if the command's output matches the stored reference, else the reason."""
    w = session.workload
    path = session.out[command]
    try:
        if command == "simulate":
            with open(path, encoding="utf-8") as fh:
                rows = sum(1 for line in fh if not line.startswith("#")) - 1
            return None if rows == w.sim_n else f"simulate wrote {rows} rows, expected {w.sim_n}"
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{command}: unreadable output: {exc}"
    try:
        n = w.fit_n if command == "fit" or not w.eval_simulated else w.sim_n
        if doc["n"] != n:
            return f"{command} read {doc['n']!r} rows, expected {n}"
        if command == "fit":
            models = {m["model"]: m for m in doc["models"]}
            if sorted(models) != w.tags:
                return f"fit reported models {sorted(models)}, expected {w.tags}"
            for tag in w.tags:
                ll, ref_ll = models[tag]["loglik"], ref["fit"]["loglik"][tag]
                if not ll >= ref_ll - FIT_LOGLIK_SLACK:
                    return f"fit {tag}: loglik {ll!r} is below the reference {ref_ll!r}"
                if not _rel_ok(models[tag]["empirical_tau"], ref["fit"]["empirical_tau"]):
                    return f"fit {tag}: empirical tau {models[tag]['empirical_tau']!r} != reference"
            return None
        for key in ("loglik", "empirical_tau"):
            if not _rel_ok(doc[key], ref["eval"][key]):
                return f"eval {key} {doc[key]!r} differs from the reference {ref['eval'][key]!r}"
        return None
    except (KeyError, TypeError) as exc:
        return f"{command}: malformed report: {exc!r}"
