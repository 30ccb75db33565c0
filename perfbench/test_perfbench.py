"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_references  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from tracing import COUNT_KEYS, TAGS, Tracer, op_metrics  # noqa: E402
from workload import Session, Workload, check_output  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = Workload("tiny", 300, "all", 400, False, "")
TINY_ROUNDTRIP = Workload("tiny-roundtrip", 300, "wiw", 500, True, "")


@pytest.fixture(scope="module")
def cli_main():
    run.import_program()
    from claimsplice.cli import main

    return main


def tiny_session(tmp_path, w=TINY, seed=3):
    session = Session(w, seed, tmp_path / w.name)
    session.write_inputs()
    return session


def traced_metrics(main, session, commands=workload.COMMANDS):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        for command in commands:
            with tracer.region(f"cli.{command}"):
                assert main(session.argv(command)) == 0
    finally:
        tracer.uninstall()
    return op_metrics(tracer.spans, 0, 0)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(tmp_path, monkeypatch, capsys, cli_main, trace):
    monkeypatch.setattr(workload, "WORKLOADS", {"tiny": TINY})
    monkeypatch.setattr(workload, "REFERENCE_DIR", tmp_path / "references")
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    assert make_references.main(["--workload", "tiny", "--sets", "3"]) == 0
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in names}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = "\n".join(out[:-1])
    assert "error_rate" in printed and all(f" {m['name']} " in printed for m in names)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_for_the_same_seed(tmp_path, cli_main):
    a = traced_metrics(cli_main, tiny_session(tmp_path / "a"))
    b = traced_metrics(cli_main, tiny_session(tmp_path / "b"))
    counts = [k for k in a if any(part in COUNT_KEYS for part in k.split("."))]
    assert "kernels.composite_nll.calls" in counts and "estimation.fit_marginal.nfev.ibiw" in counts
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["kernels.composite_nll.calls"] > 0


def test_kernel_calls_equal_summed_scipy_nfev(tmp_path, cli_main):
    m = traced_metrics(cli_main, tiny_session(tmp_path), commands=("fit",))
    assert m["kernels.composite_nll.calls"] == sum(m[f"estimation.fit_marginal.nfev.{t}"] for t in TAGS) > 0
    assert 0.0 < m["estimation.useful_eval_ratio"] <= 1.0


@pytest.mark.parametrize("w", [TINY, TINY_ROUNDTRIP], ids=lambda w: w.name)
def test_traced_and_untraced_reports_are_byte_identical(tmp_path, cli_main, w):
    session = tiny_session(tmp_path, w)
    for command in workload.COMMANDS:
        assert cli_main(session.argv(command)) == 0
    untraced = session.outputs()
    traced_metrics(cli_main, session)
    assert session.outputs() == untraced


def test_checks_reject_outputs_that_miss_the_reference(tmp_path, cli_main):
    session = tiny_session(tmp_path)
    ref, _ = make_references.reference_for(cli_main, session)
    assert all(check_output(session, c, ref) is None for c in workload.COMMANDS)
    worse = json.loads(json.dumps(ref))
    worse["fit"]["loglik"]["wiw"] += 1e-3  # the stored fit was better than this one
    assert "below the reference" in check_output(session, "fit", worse)
    worse["fit"]["loglik"]["wiw"] = ref["fit"]["loglik"]["wiw"] - 1e-3  # beating it is fine
    assert check_output(session, "fit", worse) is None
    worse["eval"]["empirical_tau"] *= 1 + 1e-8
    assert "empirical_tau" in check_output(session, "eval", worse)
    session.out["fit"].write_text("{not json", encoding="utf-8")
    assert "unreadable" in check_output(session, "fit", ref)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = tiny_session(tmp_path / "a").write_inputs()
    b = tiny_session(tmp_path / "b").write_inputs()
    c = Session(TINY, 4, tmp_path / "c").write_inputs()
    assert a == b and a[0]["sha256"] != c[0]["sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_metric_map_covers_every_metric_and_workload():
    doc = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    assert set(doc["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(doc["end_to_end"])
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workload.WORKLOADS)
    assert all(set(m["workloads"]) <= names for m in doc["per_layer"].values())
