"""claimsplice benchmark: end-to-end CLI timings, and per-layer metrics from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 30 --trace 0

One run measures the cold start (``setup_s``), warms up on tiny inputs, and
then runs sessions of ``fit``, ``simulate`` and ``eval`` through
``claimsplice.cli.main`` in this process, one client in a closed loop, for
about ``--seconds``. Inputs come from ``--seed`` alone (see workload.py).
Every output is checked against the stored references in
``perfbench/references``; an operation that fails or misses its reference
counts as failed, and the error rate is failed over attempted.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
time of each command over the run's sessions, scaled to the reference host
speed (see HostClock), the median cold start, and the peak RSS of this
process. ``--trace 1`` alternates untraced and traced sessions and reports
the per-layer metrics of BENCHMARK.json. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report with the
environment, the raw wall times and the error rate.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS; the children measuring set-up inherit it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
# Probe time of the reference host (2-vCPU Intel Xeon, numpy 2.4.6), in its usual state.
REFERENCE_PROBE_S = 0.007
COLD_START = "import time\nimport claimsplice.cli\nprint(repr(time.perf_counter()))"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, inputs not reproducible)."""


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import claimsplice from this checkout's src/, and nowhere else."""
    if not (SRC / "claimsplice" / "__init__.py").is_file():
        raise BenchError(f"no claimsplice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import claimsplice

    if Path(claimsplice.__file__).resolve().parent != SRC / "claimsplice":
        raise BenchError(f"imported claimsplice from {claimsplice.__file__}, not from {SRC}")


def cold_start_s(env):
    """Fresh interpreter until ``import claimsplice.cli`` returns (one shared monotonic clock)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"cold start failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - t0


def measure_setup():
    """Raw and scaled cold starts; each is scaled by the host probes just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cold_start_s(env)  # compiles the package's .pyc files once, as an install would
    clock = HostClock()
    clock.probe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(cold_start_s(env))
        before = clock.probes[-1]
        clock.probe()
        scaled.append(raw[-1] * clock.factor(before, clock.probes[-1]))
    return raw, scaled


class HostClock:
    """Measures the speed of the host during a run, to scale wall times to a reference host.

    On a shared host the CPU's speed swings by up to 2x within seconds and
    drifts by tens of percent over minutes, in wall time and process time
    alike, so most run-to-run spread is host speed. A fixed probe (numpy
    vector math and an interpreter loop, the two kinds of work claimsplice
    does, about 35 ms) runs after every timed command. The run's host factor
    is REFERENCE_PROBE_S over the median probe time, and each reported command
    time is the median raw wall time times that factor. A change that left
    work running between commands would slow the probe as well, so the raw
    wall times are printed beside the scaled ones.
    """

    def __init__(self):
        import numpy as np

        self._log = np.log
        self._x = np.random.default_rng(0).random(8192) + 0.5
        self.probes = []

    def probe(self):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(100):
                self._log(self._x).sum()
            total = 0
            for i in range(50_000):
                total += i * i
            runs.append(time.perf_counter() - t0)
        self.probes.append(statistics.median(runs))

    def factor(self, *probes):
        """REFERENCE_PROBE_S over the mean of ``probes`` (default: the median of all probes)."""
        return REFERENCE_PROBE_S / (statistics.fmean(probes) if probes else statistics.median(self.probes))


def environment():
    import numpy
    import scipy

    try:
        from claimsplice._kernels import BACKEND as backend
    except ImportError:  # a program with a single kernel has no backend switch
        backend = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def warm_up(main, workdir):
    """Tiny fit/simulate/eval outside the timed phase, so lazy imports and caches settle."""
    from workload import COLS, Session, Workload

    tiny = Workload("warm-up", 300, "all", 300, False, "")
    s = Session(tiny, 0, workdir)
    s.write_inputs()
    for argv in (["fit", "--input", str(s.claims), "--cols", COLS, "--family", "all", "--restarts", "1",
                  "--max-iter", "300", "--seed", "0", "--out", str(s.out["fit"])],
                 s.argv("simulate"), s.argv("eval")):
        if main(argv) != 0:
            raise BenchError(f"warm-up command failed: {argv}")


def closed_loop(seconds):
    """Yield session numbers until the next session would end past ``seconds`` (at least one)."""
    t0 = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - t0 + statistics.median(durations) <= seconds:
        start = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - start)


def measure(main, prepare, seconds, trace, clock):
    """Run sessions in a closed loop for about ``seconds``.

    ``prepare(k)`` writes the inputs of session k and returns it with its
    reference. Returns the untraced wall times of each command, the failed
    operations, the number attempted, and with ``trace`` the per-layer
    metrics and the tracer. The host clock is probed after every untraced
    command. A traced run runs one session first, then alternates an
    untraced session with a traced one on the same inputs, so that both see
    the same host and the difference is the tracing overhead.
    """
    from workload import COMMANDS, check_output, run_command

    wall = {c: [] for c in COMMANDS}
    failures = []
    attempted = 0

    def one_session(session, ref, probe=None, region=None):
        nonlocal attempted
        times = []
        for command in session.commands():
            dt, rc = run_command(main, session.argv(command), region(f"cli.{command}") if region else None)
            if probe:
                probe()
            attempted += 1
            problem = f"returned {rc!r}" if rc != 0 else check_output(session, command, ref)
            if problem:
                failures.append(f"{command}: {problem}")
            times.append((command, dt))
        return times

    def untraced(session, ref):
        times = one_session(session, ref, clock.probe)
        for c, dt in times:
            wall[c].append(dt)
        return sum(dt for _, dt in times)

    if not trace:
        for k in closed_loop(seconds):
            untraced(*prepare(k))
        return wall, failures, attempted, None

    from tracing import Tracer, combine, op_metrics

    tracer = Tracer()
    untraced_s, traced_s, per_op = [], [], []
    # the first session at full size pays one-off costs; keep them out of the overhead
    first_s = sum(dt for _, dt in one_session(*prepare(0)))
    for op in closed_loop(seconds - first_s):
        session, ref = prepare(op)
        untraced_s.append(untraced(session, ref))
        expected = session.outputs()
        tracer.op = op
        tracer.install()
        try:
            traced_s.append(sum(dt for _, dt in one_session(session, ref, region=tracer.region)))
        finally:
            tracer.uninstall()
        if session.outputs() != expected:
            failures.append(f"traced session {op}: outputs differ from the untraced ones")
        per_op.append(op_metrics(tracer.spans, op, sum(len(expected[c]) for c in session.commands())))
    metrics, mismatched = combine(per_op, untraced_s, traced_s)
    failures += [f"count {k} differs between traced sessions" for k in mismatched]
    return wall, failures, attempted, (metrics, tracer)


def run(args, spec):
    from workload import COMMANDS, WORKLOADS, Session, check_inputs, load_reference

    workload = WORKLOADS[args.workload]
    import_program()
    from claimsplice.cli import main

    env = environment()
    records = {}

    def prepare(k):
        """Session k of an untraced run reads input set seed + k, so a run's medians span
        several data sets; a traced run stays on the seed's set, so its counts repeat."""
        session = Session(workload, args.seed + (0 if args.trace else k), WORKDIR / workload.name)
        if session.input_seed not in records:
            records[session.input_seed] = session.write_inputs()
        ref = load_reference(workload, session.input_seed)
        problem = check_inputs(session, ref)
        if problem:
            raise BenchError(problem)
        return session, ref

    prepare(0)  # fail before measuring if the inputs do not match the references
    cold, setup = measure_setup()
    warm_up(main, WORKDIR / "warm-up")
    clock = HostClock()
    wall, failures, attempted, traced = measure(main, prepare, args.seconds, args.trace, clock)

    if traced:
        metrics, tracer = traced
        tracer.write(WORKDIR / workload.name / "spans.jsonl")
        names = spec["per_layer"]
    else:
        host = clock.factor()
        metrics = {f"{c}_s": statistics.median(wall[c]) * host for c in COMMANDS}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = spec["end_to_end"]

    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace}; "
          f"closed loop, 1 client, {len(wall['fit'])} untraced sessions")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps([r for rs in records.values() for r in rs], sort_keys=True))
    print(f"host factor {clock.factor():.4f} (reference probe {REFERENCE_PROBE_S * 1e3:.2f} ms / median probe "
          f"{statistics.median(clock.probes) * 1e3:.2f} ms over {len(clock.probes)} probes); raw wall times:")
    for c in COMMANDS:
        print(f"  {c}  {describe(wall[c])}")
    print(f"  cold start  {describe(cold)}")
    print(f"  error_rate {len(failures) / attempted:.4f} ratio  ({len(failures)} failed / {attempted} attempted)")
    for f in failures:
        print("  FAILED " + f)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    for name, v in result.items():
        print(f"  {name} {v['value']:.6g} {v['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": result}


def describe(values):
    """Median with its sample count, and the highest percentile with 10 samples beyond it."""
    import numpy as np

    text = f"median {statistics.median(values):.4f} s (n={len(values)}"
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return text + f", p{q} {np.percentile(values, q):.4f} s)"
    return text + ", too few for a high percentile)"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        spec = load_spec()
        from workload import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
        result = run(args, spec)
    except (BenchError, OSError, ImportError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
