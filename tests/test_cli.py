import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import claimsplice
from claimsplice.cli import EXIT_CONVERGENCE, EXIT_INPUT, EXIT_OK, EXIT_PARAMS, _report_from_fit, main
from claimsplice.composite import CompositeModel, CompositeParams
from claimsplice.copula import BivariateModel, GumbelCopula
from claimsplice.estimation import CopulaFit, FitReport, MarginalFit, aic, bic
from claimsplice.families import InverseWeibullParams, WeibullParams
from tests.test_composite import WIW
from tests.test_estimation import assert_no_child_left, needs_fork

WIW2 = CompositeParams(WeibullParams(1.3, 1500.0), InverseWeibullParams(1.5, 6000.0), 4000.0)
TRUTH = BivariateModel(CompositeModel(WIW), CompositeModel(WIW2), GumbelCopula(1.5))

PARAMS_DOC = {
    "schema": "claimsplice-params-v1",
    "marginal1": {"family": "wiw", "mu": 1.5, "sigma": 2000.0, "tau": None,
                  "alpha": 1.2, "gamma": 8000.0, "theta": 5000.0},
    "marginal2": {"family": "wiw", "mu": 1.3, "sigma": 1500.0, "tau": None,
                  "alpha": 1.5, "gamma": 6000.0, "theta": 4000.0},
    "phi": 1.5,
}


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "claims.csv"
    y1, y2 = TRUTH.sample_pairs(3000, 2024)
    lines = ["tcost_bi,tcost_pd"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(y1, y2)]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def params_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "params.json"
    path.write_text(json.dumps(PARAMS_DOC), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def test_fit_single_family(data_csv, tmp_path):
    out = tmp_path / "report.json"
    code = run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd",
                "--family", "wiw", "--seed", "1", "--out", out, "--restarts", "1"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "claimsplice-report-v1"
    assert doc["seed"] == 1
    m = doc["models"][0]
    assert m["model"] == "wiw"
    assert m["marginal1"]["tau"] is None  # schema-stable: absent params are null
    assert m["df"] == 11 and m["df_fixed_thresholds"] == 9


def test_fit_all_ranks_generating_family_first(data_csv, tmp_path):
    out = tmp_path / "all.json"
    code = run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd",
                "--family", "all", "--seed", "1", "--out", out])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["models"]) == 3
    aics = [m["aic"] for m in doc["models"]]
    assert aics == sorted(aics)


def test_fit_deterministic_byte_identical(data_csv, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd",
                    "--family", "pariw", "--seed", "9", "--out", out, "--restarts", "1"]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fit_n_too_small(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    assert run(["fit", "--input", p, "--cols", "a,b", "--family", "pariw", "--seed", "1"]) == EXIT_CONVERGENCE


def test_fit_missing_input():
    assert run(["fit", "--input", "/does/not/exist.csv", "--seed", "1"]) == EXIT_INPUT


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_fit_non_finite_claim_is_input_error(tmp_path, bad):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n" + "".join(f"{i + 1},{i + 2}\n" for i in range(30)) + f"{bad},5\n", encoding="utf-8")
    assert run(["fit", "--input", p, "--cols", "a,b", "--family", "wiw", "--seed", "1", "--strict"]) == EXIT_INPUT


@pytest.mark.parametrize("copula_converged", [True, False])
def test_fit_report_converged_covers_the_copula(copula_converged):
    def marginal(params):
        return MarginalFit("weibull", params, CompositeModel(params).r, -100.0, 5, True, 50, 100)

    rep = FitReport(marginal(WIW), marginal(WIW2), CopulaFit(1.5, 10.0, False, copula_converged), n=100)
    assert _report_from_fit("wiw", rep)["converged"] is copula_converged


def test_fit_text_format(data_csv, tmp_path):
    out = tmp_path / "report.txt"
    assert run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--family", "wiw",
                "--seed", "1", "--out", out, "--format", "text", "--restarts", "1"]) == EXIT_OK
    text = out.read_text()
    assert "AIC" in text and "wiw" in text


def test_simulate_writes_metadata_and_is_deterministic(params_json, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["simulate", "--params", params_json, "--n", "500", "--seed", "3", "--out", out]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    assert run(["simulate", "--params", params_json, "--n", "500", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == a.read_text(encoding="utf-8")
    head = a.read_text().splitlines()
    assert head[0].startswith("# schema=") and "seed=3" in head[0]
    assert any("phi=1.5" in line for line in head[:5])
    assert len(head) - 5 == 500


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("n", [1, 2, 3, 2001])
def test_simulate_rows_equal_one_process_formatting(params_json, tmp_path, capsys, monkeypatch, n, to_file, fork):
    # a forked child formats the second half of the rows; the file must be the one a serial loop writes
    if not fork:
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("the child process needs POSIX fork")
    out = tmp_path / "sim.csv"
    args = ["simulate", "--params", params_json, "--n", n, "--seed", 9]
    assert run(args + (["--out", out] if to_file else [])) == EXIT_OK
    text = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
    meta, header, rows = text.partition("claim1,claim2\n")
    y1, y2 = TRUTH.sample_pairs(n, 9)
    assert header and rows == "".join(f"{a!r},{b!r}\n" for a, b in zip(y1.tolist(), y2.tolist()))
    assert [line[:2] for line in meta.splitlines()] == ["# "] * 4
    if fork:
        assert_no_child_left()


def _rows_failing_in(process, monkeypatch, fail):
    """Make cli's row formatter call ``fail`` in the parent or in the forked child; the other side runs as usual."""
    real, parent = claimsplice.cli._csv_rows, os.getpid()

    def rows(y1, y2):
        if (os.getpid() == parent) == (process == "parent"):
            fail()
        yield from real(y1, y2)

    monkeypatch.setattr(claimsplice.cli, "_csv_rows", rows)


@needs_fork
def test_simulate_fails_when_the_formatting_child_dies(params_json, tmp_path, monkeypatch):
    _rows_failing_in("child", monkeypatch, lambda: os._exit(3))
    # main raises, so the claimsplice process ends with a non-zero exit status
    with pytest.raises(RuntimeError, match="exit code 3"):
        run(["simulate", "--params", params_json, "--n", "2001", "--seed", "1", "--out", tmp_path / "sim.csv"])
    assert_no_child_left()


@needs_fork
def test_simulate_leaves_no_child_when_its_own_half_fails(params_json, tmp_path, monkeypatch):
    def disk_full():
        raise OSError(28, "No space left on device")

    _rows_failing_in("parent", monkeypatch, disk_full)
    with pytest.raises(OSError, match="No space left"):
        run(["simulate", "--params", params_json, "--n", "2001", "--seed", "1", "--out", tmp_path / "sim.csv"])
    assert_no_child_left()


def test_simulate_rejects_inadmissible_phi(tmp_path):
    doc = dict(PARAMS_DOC, phi=0.3)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["simulate", "--params", p, "--n", "10", "--seed", "1"]) == EXIT_PARAMS


def test_simulate_rejects_zero_n(params_json):
    assert run(["simulate", "--params", params_json, "--n", "0", "--seed", "1"]) == EXIT_INPUT


@pytest.mark.parametrize("cmd", ["fit", "eval"])
def test_non_utf8_input_is_an_input_error(cmd, params_json, tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"a,b\n1,2\n\xe9,3\n")
    extra = ["--params", params_json] if cmd == "eval" else []
    assert run([cmd, "--input", p, "--cols", "a,b", "--seed", "1"] + extra) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {p}: not UTF-8: byte 0xe9 at offset 8")


@pytest.mark.parametrize("cmd", [
    ["fit", "--restarts", "0"],
    ["fit", "--max-iter", "0"],
    ["fit", "--tol", "-1"],
    ["fit", "--tol", "0"],
    ["eval", "--bins", "0"],
    ["simulate", "--n", "-3"],
])
def test_out_of_range_options_are_input_errors(cmd, params_json, data_csv, capsys):
    paths = {"fit": ["--input", data_csv, "--cols", "tcost_bi,tcost_pd"],
             "eval": ["--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--params", params_json],
             "simulate": ["--params", params_json]}[cmd[0]]
    assert run(cmd + paths + ["--seed", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_eval_consistent_with_model(params_json, data_csv, tmp_path):
    out = tmp_path / "eval.json"
    assert run(["eval", "--params", params_json, "--input", data_csv,
                "--cols", "tcost_bi,tcost_pd", "--seed", "1", "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["model_tau"] == pytest.approx(1 - 1 / 1.5)
    assert doc["df"] == 11
    # density overlay integrates to ~1 by trapezoid
    for side in ("claim1", "claim2"):
        grid = np.array(doc["overlay"][side]["grid"])
        dens = np.array(doc["overlay"][side]["density"])
        mass = np.trapezoid(dens, grid)
        assert 0.9 < mass <= 1.0 + 1e-6
    # exact generating parameters on their own sample: KS should be small
    assert doc["ks"]["claim1"] < 0.05 and doc["ks"]["claim2"] < 0.05


def test_eval_lenient_drops_non_finite_rows(params_json, data_csv, tmp_path):
    noisy = tmp_path / "noisy.csv"
    noisy.write_text(data_csv.read_text() + "\nnan,5\n1e400,3\n7,inf\n", encoding="utf-8")
    out = tmp_path / "eval.json"
    assert run(["eval", "--params", params_json, "--input", noisy,
                "--cols", "tcost_bi,tcost_pd", "--seed", "1", "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n"] == 3000
    assert doc["ingest"]["rows_rejected"] == 3
    assert [d.split(":")[0] for d in doc["ingest"]["rejected"]] == ["row 3002", "row 3003", "row 3004"]


def test_fit_lenient_reports_rejected_rows(tmp_path):
    p = tmp_path / "noisy.csv"
    p.write_text("a,b\n" + "".join(f"{i + 1},{(7 * i) % 31 + 1}\n" for i in range(30)) + "nan,5\n-2,3\nx,4\n",
                 encoding="utf-8")
    out = tmp_path / "fit.json"
    assert run(["fit", "--input", p, "--cols", "a,b", "--family", "wiw", "--seed", "1",
                "--restarts", "1", "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n"] == 30
    assert doc["ingest"]["rows_rejected"] == 3
    assert len(doc["ingest"]["rejected"]) == 3


def test_eval_df_and_criteria_follow_the_families(data_csv, tmp_path):
    doc = dict(PARAMS_DOC, marginal2={"family": "ibiw", "mu": 1.2, "sigma": 1.6, "tau": 0.0004,
                                      "alpha": 1.3, "gamma": 10000.0, "theta": 7000.0})
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "eval.json"
    assert run(["eval", "--params", params, "--input", data_csv,
                "--cols", "tcost_bi,tcost_pd", "--seed", "1", "--out", out]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["df"] == 5 + 6 + 1 and rep["df_fixed_thresholds"] == 10
    assert rep["aic"] == aic(rep["loglik"], 12)
    assert rep["bic"] == bic(rep["loglik"], 12, 3000)


def test_simulate_fit_round_trip(params_json, tmp_path):
    sim = tmp_path / "sim.csv"
    assert run(["simulate", "--params", params_json, "--n", "5000", "--seed", "8", "--out", sim]) == EXIT_OK
    out = tmp_path / "fit.json"
    assert run(["fit", "--input", sim, "--cols", "claim1,claim2", "--family", "wiw",
                "--seed", "8", "--out", out]) == EXIT_OK
    doc = json.loads(out.read_text())
    m = doc["models"][0]
    assert m["phi"] == pytest.approx(1.5, abs=0.15)
    assert m["marginal1"]["theta"] == pytest.approx(5000.0, rel=0.15)


def _modules_after_cli_import(prefix):
    """Names of the modules under ``prefix`` that a fresh ``import claimsplice.cli`` loads."""
    src = str(Path(claimsplice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, claimsplice.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    # importing scipy.stats adds 0.4-0.6 s to every CLI start; Kendall's tau is computed in numpy instead
    assert _modules_after_cli_import("scipy.stats") == "[]"


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize takes about 0.6 s of a 0.8 s CLI start, and only fit uses it: estimation imports it on first use
    assert _modules_after_cli_import("scipy.optimize") == "[]"
