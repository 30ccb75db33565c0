import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import claimsplice
from claimsplice import _fork, cli
from claimsplice.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONVERGENCE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARAMS,
    _report_from_fit,
    main,
)
from claimsplice.composite import FAMILIES, CompositeModel, CompositeParams
from claimsplice.copula import BivariateModel, GumbelCopula
from claimsplice.estimation import (
    CopulaFit,
    DegenerateDataError,
    FitReport,
    MarginalFit,
    OptimizerConfig,
    aic,
    bic,
    empirical_kendall_tau,
    fit_bivariate,
)
from claimsplice.families import InverseWeibullParams, WeibullParams
from claimsplice.ingest import load_csv
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


def test_fit_all_computes_the_empirical_tau_once(data_csv, tmp_path, monkeypatch):
    calls = []
    tau = cli.empirical_kendall_tau
    monkeypatch.setattr(cli, "empirical_kendall_tau", lambda x, y: calls.append(1) or tau(x, y))
    out = tmp_path / "all.json"
    assert run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--family", "all", "--seed", "1",
                "--restarts", "1", "--max-iter", "300", "--out", out]) == EXIT_OK
    assert len(calls) == 1
    # the report that a library caller builds from one fit_bivariate per tag and one tau
    sample = load_csv(data_csv, cols="tcost_bi,tcost_pd")
    config = OptimizerConfig(max_iter=300, restarts=1)
    data_tau = empirical_kendall_tau(sample.claim1, sample.claim2)
    doc = json.loads(out.read_text())
    doc["models"] = sorted(
        (_report_from_fit(f.tag, fit_bivariate(sample.claim1, sample.claim2, name, name, config), data_tau)
         for name, f in FAMILIES.items()),
        key=lambda m: (m["aic"], m["bic"]),
    )
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
        return MarginalFit("weibull", params, CompositeModel(params).r, -100.0, 5, True, 100, ())

    rep = FitReport(marginal(WIW), marginal(WIW2), CopulaFit(1.5, 10.0, False, copula_converged), n=100)
    assert _report_from_fit("wiw", rep, 0.2)["converged"] is copula_converged


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
    monkeypatch.setattr(_fork, "SIMULATE_FORK_MIN_ROWS", 1)
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
    monkeypatch.setattr(_fork, "SIMULATE_FORK_MIN_ROWS", 1)

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


def test_simulate_below_its_break_even_never_forks(params_json, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("simulate forked below its break-even")

    n = _fork.SIMULATE_FORK_MIN_ROWS - 1
    assert n < 7263  # at the paper's sample size the formatting child still pays
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--params", params_json, "--n", n, "--seed", 4, "--out", out]) == EXIT_OK
    y1, y2 = TRUTH.sample_pairs(n, 4)
    assert out.read_text().partition("claim1,claim2\n")[2] == "".join(
        f"{a!r},{b!r}\n" for a, b in zip(y1.tolist(), y2.tolist())
    )


@needs_fork
def test_simulate_forks_from_its_break_even(params_json, tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    n = _fork.SIMULATE_FORK_MIN_ROWS
    assert run(["simulate", "--params", params_json, "--n", n, "--seed", 4, "--out", tmp_path / "sim.csv"]) == EXIT_OK
    assert len(forks) == 1
    assert_no_child_left()


_MAIN_THEN_CHECK_CHILDREN = """
import os, sys
from claimsplice.cli import main
status = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(status)
sys.exit("the formatting child was not reaped")
"""


@needs_fork
@pytest.mark.parametrize("n, lines_read", [(3, 0), (20001, 1)])
def test_simulate_into_a_reader_that_leaves_early_exits_quietly(params_json, n, lines_read):
    # 3 rows stay in stdout's buffer until the command's last flush; 20 001 rows are far more than a pipe
    # holds, so a write fails in the parent's half with the formatting child still running
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    proc = subprocess.Popen(
        [sys.executable, "-c", _MAIN_THEN_CHECK_CHILDREN, "simulate", "--params", str(params_json),
         "--n", str(n), "--seed", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"# schema=")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert stderr == b""
    assert_no_child_left()


def test_simulate_rejects_inadmissible_phi(tmp_path):
    doc = dict(PARAMS_DOC, phi=0.3)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["simulate", "--params", p, "--n", "10", "--seed", "1"]) == EXIT_PARAMS


def _with_marginal1(**changes):
    return dict(PARAMS_DOC, marginal1=dict(PARAMS_DOC["marginal1"], **changes))


@pytest.mark.parametrize("content, code", [
    pytest.param(json.dumps([PARAMS_DOC]), EXIT_INPUT, id="json-list"),
    pytest.param(json.dumps(dict(PARAMS_DOC, marginal1=5)), EXIT_INPUT, id="marginal-not-an-object"),
    pytest.param(json.dumps(_with_marginal1(family=["wiw"])), EXIT_INPUT, id="family-not-a-string"),
    pytest.param(json.dumps(_with_marginal1(family="weibull")), EXIT_INPUT, id="family-head-name"),
    pytest.param(b'{"phi": "\xe9"}', EXIT_INPUT, id="not-utf8"),
    pytest.param(None, EXIT_INPUT, id="directory"),
    pytest.param(json.dumps(_with_marginal1(mu=None)), EXIT_PARAMS, id="mu-null"),
    pytest.param(json.dumps(_with_marginal1(mu="1.5")), EXIT_PARAMS, id="mu-string"),
    pytest.param(json.dumps(_with_marginal1(mu=True)), EXIT_PARAMS, id="mu-true"),
    pytest.param(json.dumps(_with_marginal1(theta=None)), EXIT_PARAMS, id="theta-null"),
    pytest.param(json.dumps(PARAMS_DOC).replace('"mu": 1.5', '"mu": 1' + "0" * 400), EXIT_PARAMS, id="mu-past-float"),
    pytest.param(json.dumps(dict(PARAMS_DOC, phi="x")), EXIT_PARAMS, id="phi-string"),
])
def test_simulate_reports_a_malformed_parameter_file_without_a_traceback(content, code, tmp_path):
    p = tmp_path / "params.json"
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    done = subprocess.run([sys.executable, "-m", "claimsplice.cli", "simulate", "--params", str(p), "--n", "3",
                           "--seed", "1"], env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith({EXIT_INPUT: "input error: ", EXIT_PARAMS: "invalid parameters: "}[code])


@pytest.mark.parametrize("family", ["weibull", "paralogistic", "invburr", None])
def test_parameter_file_names_a_family_by_its_model_tag_only(family, tmp_path, capsys):
    p = tmp_path / "params.json"
    p.write_text(json.dumps(_with_marginal1(family=family)), encoding="utf-8")
    assert run(["simulate", "--params", p, "--n", "3", "--seed", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f'input error: marginal1: "family" must be one of the model tags ibiw, pariw, wiw, got {family!r}\n')


@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
@pytest.mark.parametrize("cols, message", [
    ("\u00b2,1", "column '\u00b2' not found in header {header}"),  # "²".isdigit() holds, but int("²") fails
    ("99999999999999999999,1", "column 99999999999999999999 is out of range: the first row holds 2 cell(s)"),
    ("0,2", "column 2 is out of range: the first row holds 2 cell(s)"),
], ids=["superscript-two", "past-any-index", "past-the-row"])
def test_fit_cols_that_name_no_column_are_input_errors(header, cols, message, tmp_path, capsys):
    p = tmp_path / "claims.csv"
    p.write_text(("a,b\n" if header else "") + "".join(f"{i + 1},{i + 2}\n" for i in range(30)), encoding="utf-8")
    assert run(["fit", "--input", p, "--cols", cols, "--family", "wiw", "--seed", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message.format(header=['a', 'b'] if header else None)}\n"


@pytest.mark.parametrize("cmd", [["simulate", "--n", "3"], ["simulate", "--n", "5000"], ["eval"], ["fit"]],
                         ids=["simulate", "simulate-forked", "eval", "fit"])
@pytest.mark.parametrize("out", ["directory", "missing-parent"])
def test_an_out_that_cannot_be_opened_is_an_input_error(cmd, out, params_json, data_csv, tmp_path, capsys):
    path = tmp_path if out == "directory" else tmp_path / "missing" / "out.json"
    paths = {"fit": ["--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--family", "wiw", "--restarts", "1",
                     "--max-iter", "100"],
             "eval": ["--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--params", params_json],
             "simulate": ["--params", params_json]}[cmd[0]]
    assert run(cmd + paths + ["--seed", "1", "--out", path]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: cannot write {path}: ")
    if hasattr(os, "fork"):
        assert_no_child_left()


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


def test_eval_of_a_fit_reproduces_its_numbers(data_csv, tmp_path):
    # fit and eval take df, AIC and BIC from one rule, so eval of the fitted parameters repeats the fit's report
    fit_out = tmp_path / "fit.json"
    assert run(["fit", "--input", data_csv, "--cols", "tcost_bi,tcost_pd", "--family", "all", "--seed", "1",
                "--out", fit_out]) == EXIT_OK
    keys = ("loglik", "df", "df_fixed_thresholds", "aic", "bic", "phi", "model_tau", "empirical_tau")
    # at phi = 1 fit sets the copula loglik to exactly 0, where eval computes it
    models = [m for m in json.loads(fit_out.read_text())["models"] if not m["phi_at_boundary"]]
    assert models
    for m in models:
        params = tmp_path / f"{m['model']}.json"
        params.write_text(json.dumps({k: m[k] for k in ("marginal1", "marginal2", "phi")}), encoding="utf-8")
        out = tmp_path / f"{m['model']}-eval.json"
        assert run(["eval", "--params", params, "--input", data_csv, "--cols", "tcost_bi,tcost_pd",
                    "--seed", "1", "--out", out]) == EXIT_OK
        ev = json.loads(out.read_text())
        assert {k: ev[k] for k in keys} == {k: m[k] for k in keys}, m["model"]


def _ks_of_the_sorted_claims(model, data):
    """The KS distance as computed before the cdfs were shared: the model cdf of the sorted claims."""
    y = np.sort(np.asarray(data, dtype=float))
    n = y.size
    f = model.cdf(y)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def test_eval_shares_one_cdf_per_marginal(tied_csv):
    # KS takes the cdfs in claim order, the log-likelihood clamps them; both equal what a second cdf pass gives
    y1, y2 = TRUTH.sample_pairs(4000, 3)
    tied = load_csv(tied_csv, cols="claim1,claim2")
    for a, b in ((y1, y2), (tied.claim1, tied.claim2)):
        f1, f2 = TRUTH.marginal1.cdf(a), TRUTH.marginal2.cdf(b)
        assert TRUTH.log_likelihood(a, b, cdfs=(f1, f2)) == TRUTH.log_likelihood(a, b)
        assert cli._ks_statistic(f1, a) == _ks_of_the_sorted_claims(TRUTH.marginal1, a)
        assert cli._ks_statistic(f2, b) == _ks_of_the_sorted_claims(TRUTH.marginal2, b)


def test_eval_ks_takes_the_unclamped_cdfs(params_json, tmp_path):
    # the cdf of 1e15 lies within 1e-10 of 1, where the copula's pseudo-observations are clamped
    p = tmp_path / "extreme.csv"
    p.write_text("a,b\n1e-3,1e15\n1e15,1e-3\n", encoding="utf-8")
    out = tmp_path / "eval.json"
    assert run(["eval", "--params", params_json, "--input", p, "--cols", "a,b", "--seed", "1", "--out", out]) == EXIT_OK
    y = [1e-3, 1e15]
    assert json.loads(out.read_text())["ks"] == {"claim1": _ks_of_the_sorted_claims(TRUTH.marginal1, y),
                                                 "claim2": _ks_of_the_sorted_claims(TRUTH.marginal2, y)}


def _count_forks(monkeypatch):
    """A list that gets one item for each ``os.fork`` in this process."""
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


@pytest.fixture(scope="module")
def tied_csv(tmp_path_factory):
    """Claims in whole hundreds, written in cents: most values tie with others."""
    path = tmp_path_factory.mktemp("tied") / "tied.csv"
    y1, y2 = (np.ceil(y / 100) * 100 for y in TRUTH.sample_pairs(3000, 7))
    path.write_text("claim1,claim2\n" + "".join(f"{a:.2f},{b:.2f}\n" for a, b in zip(y1, y2)), encoding="utf-8")
    return path


@needs_fork
def test_eval_report_is_the_same_in_one_or_two_processes(params_json, tied_csv, tmp_path, monkeypatch):
    def report(name):
        out = tmp_path / name
        assert run(["eval", "--params", params_json, "--input", tied_csv, "--cols", "claim1,claim2",
                    "--seed", "1", "--out", out]) == EXIT_OK
        return out.read_bytes()

    forks = _count_forks(monkeypatch)
    in_process = report("default.json")
    assert forks == []  # 3 000 rows are below the threshold
    monkeypatch.setattr(_fork, "FORK_MIN_ROWS", 1)
    assert report("forked.json") == in_process
    assert len(forks) == 2  # the second half of the file, and Kendall tau
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert report("no-fork.json") == in_process


@needs_fork
def test_eval_of_a_constant_claim_column_exits_3_through_the_forked_tau(params_json, tmp_path, capsys, monkeypatch):
    p = tmp_path / "constant.csv"
    p.write_text("a,b\n" + "".join(f"{i + 1},250.5\n" for i in range(200)), encoding="utf-8")
    args = ["eval", "--params", params_json, "--input", p, "--cols", "a,b", "--seed", "1"]
    assert run(args) == EXIT_CONVERGENCE
    in_process = capsys.readouterr().err
    monkeypatch.setattr(_fork, "FORK_MIN_ROWS", 1)
    forks = _count_forks(monkeypatch)
    assert run(args) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == in_process == "fit error: Kendall's tau undefined for a constant coordinate\n"
    assert len(forks) == 2
    assert_no_child_left()


def test_eval_of_a_one_row_file_exits_3(params_json, tmp_path, capsys):
    # like a constant column: the data cannot give a Kendall tau, so it is a fit error and not a parameter error
    p = tmp_path / "one.csv"
    p.write_text("a,b\n1200.5,3400.25\n", encoding="utf-8")
    assert run(["eval", "--params", params_json, "--input", p, "--cols", "a,b", "--seed", "1"]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == "fit error: Kendall's tau needs at least two observations, got 1\n"


@needs_fork
def test_eval_log_likelihood_error_wins_over_the_forked_tau(params_json, tied_csv, capsys, monkeypatch):
    def fail(exc):
        def raise_(*args, **kwargs):
            raise exc
        return raise_

    monkeypatch.setattr(_fork, "FORK_MIN_ROWS", 1)
    monkeypatch.setattr(cli, "empirical_kendall_tau", fail(DegenerateDataError("tau failed")))
    monkeypatch.setattr(BivariateModel, "log_likelihood", fail(ValueError("log-likelihood failed")))
    assert run(["eval", "--params", params_json, "--input", tied_csv, "--cols", "claim1,claim2",
                "--seed", "1"]) == EXIT_PARAMS
    assert capsys.readouterr().err == "invalid parameters: log-likelihood failed\n"
    assert_no_child_left()


@needs_fork
def test_eval_at_the_papers_sample_size_does_not_fork(params_json, tmp_path, monkeypatch):
    # one fork and reap costs about as much as the half of the parse or the tau it would take off this process
    p = tmp_path / "paper.csv"
    y1, y2 = TRUTH.sample_pairs(7263, 5)
    p.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(y1.tolist(), y2.tolist())), encoding="utf-8")
    forks = _count_forks(monkeypatch)
    assert run(["eval", "--params", params_json, "--input", p, "--cols", "a,b", "--seed", "1",
                "--out", tmp_path / "eval.json"]) == EXIT_OK
    assert forks == []


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="descriptors are counted in /proc/self/fd")
def test_forked_commands_leave_no_descriptor_and_no_child(params_json, tmp_path, monkeypatch):
    # above FORK_MIN_ROWS simulate forks once and eval twice; each fork opens a pipe that must be closed again
    sim, out = tmp_path / "sim.csv", tmp_path / "eval.json"
    forks = _count_forks(monkeypatch)
    before = len(os.listdir("/proc/self/fd"))
    for seed in range(5):
        assert run(["simulate", "--params", params_json, "--n", "40001", "--seed", seed, "--out", sim]) == EXIT_OK
        assert run(["eval", "--strict", "--params", params_json, "--input", sim, "--cols", "claim1,claim2",
                    "--seed", "1", "--out", out]) == EXIT_OK
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 15
    assert_no_child_left()


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


def _env_with_src():
    """The environment for a fresh interpreter that imports this checkout's claimsplice."""
    src = str(Path(claimsplice.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _modules_after_cli_import(prefix):
    """Names of the modules under ``prefix`` that a fresh ``import claimsplice.cli`` loads."""
    code = f"import sys, claimsplice.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    # importing scipy.stats adds 0.4-0.6 s to every CLI start; Kendall's tau is computed in numpy instead
    assert _modules_after_cli_import("scipy.stats") == "[]"


# a fresh interpreter in which every `import scipy...` fails, as where scipy is not installed, runs CLI commands
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name}: scipy is not a run-time dependency")

sys.meta_path.insert(0, NoScipy())
from claimsplice.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
"""


def test_fit_simulate_and_eval_run_without_scipy(params_json, tmp_path):
    # the fit's two searches are ported from scipy.optimize, whose import took 321 modules, 0.43-0.82 s and 43 MB of
    # max RSS (2-vCPU Xeon) in every fit process; scipy is a test dependency only
    data = tmp_path / "claims.csv"
    y1, y2 = TRUTH.sample_pairs(400, 7)
    data.write_text("claim1,claim2\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(y1, y2)))

    def commands(out):
        out.mkdir()
        return [["fit", "--input", str(data), "--family", "all", "--seed", "3", "--out", str(out / "fit.json")],
                ["simulate", "--params", str(params_json), "--n", "300", "--seed", "3", "--out", str(out / "sim.csv")],
                ["eval", "--params", str(params_json), "--input", str(data), "--seed", "3",
                 "--out", str(out / "eval.json")]]

    blocked = commands(tmp_path / "blocked")
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(blocked)], env=_env_with_src(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for argv in commands(tmp_path / "with-scipy"):
        assert run(argv) == EXIT_OK
    for name in ("fit.json", "sim.csv", "eval.json"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "with-scipy" / name).read_bytes(), name
