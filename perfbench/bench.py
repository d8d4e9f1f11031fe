"""Workload process of the zfprob benchmark.

Drives the public entry point ``zfprob.cli.main(argv)`` in-process on one
generated workload, checks every output, and prints one JSON line with the
measurements.  ``run.py`` starts it in a fresh interpreter with the
BLAS/OpenMP thread count pinned to 1; run it directly only for debugging:

    python3 perfbench/bench.py --workload reduce-n48 --seed 1 --seconds 30 --trace 0
"""

import os

# Pin native thread pools before numpy loads: otherwise OpenBLAS runs
# solve_triangular on every core and `--parallel 2` oversubscribes them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import probe, scale  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"


def load_program():
    """Import zfprob from this checkout's src/, never from an installed copy."""
    if not (SRC / "zfprob" / "__init__.py").is_file():
        raise SystemExit(f"no zfprob sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zfprob.cli
    if not Path(zfprob.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"zfprob was imported from {zfprob.cli.__file__}, not {SRC}")
    return zfprob.cli


def invoke(argv):
    """One CLI invocation: (exit code, seconds inside main, stdout, error text)."""
    cli = sys.modules.get("zfprob.cli") or load_program()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an invocation that raises is a failure to count, not a crash
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), error or err.getvalue()[-500:]


def _pool_ready(delay):
    time.sleep(delay)


# ---------------------------------------------------------------------------
# workloads


def _derived_seeds(seed, tag, count):
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


class Invariance:
    """`invariance` over the default ensemble (n alternates 2 and 3)."""

    name = "invariance-mixed"
    inputs_per_cycle = 8
    cases_per_invocation = 40
    tail_percentile = 85
    parallel_via_cli = True

    def make_inputs(self, seed, work_dir):
        return [["invariance", "--seed", str(s), "--trials", str(self.cases_per_invocation)]
                for s in _derived_seeds(seed, 1, self.inputs_per_cycle)]

    def check(self, argv, report):
        cases = report["cases"]
        problems = []
        if [c["index"] for c in cases] != list(range(self.cases_per_invocation)):
            problems.append("case indices are not 0..trials-1")
        for c in cases:
            if c["n"] != (2 if c["index"] % 2 == 0 else 3) or not 0.0 <= c["p"] <= 1.0:
                problems.append(f"case {c['index']}: bad n or p")
            for strategy in ("sqrd", "vblast"):
                s = c[strategy]
                if not (s["estimate_identical"] and s["residual_delta"] <= 1e-9
                        and s["p_delta"] <= s["p_budget"]):
                    problems.append(f"case {c['index']} {strategy}: not invariant")
        names = sorted(v["name"] for v in report["verdicts"])
        if names != sorted(f"invariance-{k}" for k in (
                "estimate-identity", "residual-invariant", "defect-invariant",
                "probability-invariant")):
            problems.append(f"unexpected verdicts {names}")
        return problems


class EnsembleEmpirical:
    """`ensemble` at n=16, which takes the empirical route (50,000 trials
    per estimate, two estimates per case)."""

    name = "ensemble-empirical-n16"
    inputs_per_cycle = 6
    cases_per_invocation = 2
    tail_percentile = 65
    parallel_via_cli = True
    trials_per_estimate = 50_000

    def make_inputs(self, seed, work_dir):
        return [["ensemble", "--n", "16", "--m", "16", "--sigma", "0.3", "--seed", str(s),
                 "--trials", str(self.cases_per_invocation)]
                for s in _derived_seeds(seed, 2, self.inputs_per_cycle)]

    def check(self, argv, report):
        cases, summary = report["cases"][:-1], report["cases"][-1].get("summary")
        problems = []
        if len(cases) != self.cases_per_invocation or not summary:
            return [f"expected {self.cases_per_invocation} cases and a summary"]
        max_budget = 2 * 0.5 / math.sqrt(self.trials_per_estimate) + 1e-12
        tally = {"increased": 0, "unchanged": 0, "decreased": 0}
        for c in cases:
            pb, pa, budget = c["p_before"], c["p_after"], c["error_budget"]
            counts = [p * self.trials_per_estimate for p in (pb, pa)]
            if any(not 0.0 <= p <= 1.0 for p in (pb, pa)) or \
                    any(abs(k - round(k)) > 1e-6 for k in counts):
                problems.append(f"case {c['index']}: p is not a success fraction")
            if not 0.0 < budget <= max_budget:
                problems.append(f"case {c['index']}: error budget {budget} out of range")
            want = ("increased" if pa > pb + budget else
                    "decreased" if pa < pb - budget else "unchanged")
            if c["outcome"] != want:
                problems.append(f"case {c['index']}: outcome {c['outcome']} != {want}")
            tally[want] += 1
        if summary != [{"sigma": 0.3, "count": len(cases), **tally}]:
            problems.append(f"summary {summary} does not match the cases")
        if report["verdicts"]:
            problems.append("n=16 ensemble should carry no verdicts")
        return problems


class ReduceN48:
    """`reduce --matrix` on 48x48 triangular factors of Gaussian matrices
    whose columns were scrambled by random unimodular column operations."""

    name = "reduce-n48"
    inputs_per_cycle = 24
    cases_per_invocation = 1
    tail_percentile = 85
    parallel_via_cli = False  # `reduce` has no parallel path: two workers share the inputs
    n = 48
    column_operations = 48
    delta = 0.75

    def make_inputs(self, seed, work_dir):
        rng = np.random.default_rng([seed, 3])
        self.matrices = {}
        inputs = []
        for k in range(self.inputs_per_cycle):
            g = rng.standard_normal((self.n, self.n))
            u = np.eye(self.n, dtype=np.int64)
            for _ in range(self.column_operations):
                i, j = rng.choice(self.n, 2, replace=False)
                u[:, j] += int(rng.choice((-1, 1))) * u[:, i]
            _, r = np.linalg.qr(g @ u)
            r = np.triu(np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None] * r) + 0.0
            path = work_dir / f"r48-{k:02d}.csv"
            path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in r) + "\n")
            self.matrices[str(path)] = r
            inputs.append(["reduce", "--matrix", str(path)])
        return inputs

    def check(self, argv, report):
        (case,) = report["cases"]
        r = self.matrices[argv[-1]]
        problems = []
        if not np.array_equal(np.array(case["r"]), r):
            problems.append("echoed r differs from the input matrix")
        r_bar, q_bar = np.array(case["r_bar"]), np.array(case["q_bar"])
        z = np.array(case["z"])
        diag = np.diag(r_bar)
        if np.any(np.tril(r_bar, -1) != 0.0) or np.any(diag <= 0.0):
            problems.append("r_bar is not upper triangular with a positive diagonal")
        if z.dtype.kind != "i" or abs(_exact_det(z.tolist())) != 1:
            problems.append("z is not an integer unimodular matrix")
        if np.linalg.norm(q_bar.T @ r @ z - r_bar) > 1e-9 * np.linalg.norm(r):
            problems.append("q_bar^T r z does not reconstruct r_bar")
        if np.linalg.norm(q_bar.T @ q_bar - np.eye(self.n)) > 1e-9:
            problems.append("q_bar is not orthogonal")
        slack = 1e-9 * np.abs(diag)
        if np.any(np.abs(np.triu(r_bar, 1)) > 0.5 * diag[:, None] + slack[:, None]):
            problems.append("r_bar is not size-reduced")
        lhs = self.delta * diag[:-1] ** 2
        if np.any(lhs > np.diag(r_bar, 1) ** 2 + diag[1:] ** 2 + 1e-9 * lhs):
            problems.append("r_bar violates the adjacent-pair condition")
        names = sorted(v["name"] for v in report["verdicts"])
        if names != ["reduce-determinant-preserved", "reduce-output-is-reduced",
                     "reduce-reconstruction"]:
            problems.append(f"unexpected verdicts {names}")
        return problems


def _exact_det(rows):
    """Determinant of an integer matrix by exact Gaussian elimination."""
    a = [[Fraction(int(v)) for v in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


WORKLOADS = {w.name: w for w in (Invariance, EnsembleEmpirical, ReduceN48)}


# ---------------------------------------------------------------------------
# measurement


class Checker:
    """Output check shared by every phase of a run.

    An invocation fails if it raises, exits non-zero, fails a verdict, fails
    the workload's own check of its output, or if its `cases`+`verdicts`
    differ from those of the first invocation on the same input (repeats,
    --parallel 0 against 2, untraced against traced).
    """

    def __init__(self, workload):
        self.workload = workload
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def __call__(self, key, argv, code, stdout, error):
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit status {code}: {error.strip()[-300:]}")
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
            problems.append("stdout is not a JSON report")
        if report is not None:
            problems += [f"verdict {v['name']} failed" for v in report["verdicts"]
                         if not v["passed"]]
            payload = json.dumps({"cases": report["cases"], "verdicts": report["verdicts"]},
                                 sort_keys=True)
            digest = hashlib.sha256(payload.encode()).hexdigest()
            if key not in self.digests:
                self.digests[key] = digest
                try:
                    problems += self.workload.check(argv, report)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems.append(f"malformed report: {exc!r}")
            elif self.digests[key] != digest:
                problems.append("cases+verdicts differ from the first run of this input")
        if problems:
            self.failures.append({"input": key, "argv": argv, "problems": problems[:5]})

    @property
    def failed(self):
        return len(self.failures)


class Phase:
    """Timings of one setting, raw and scaled to the reference machine speed
    (see calibration.py) by the probes taken before and after each interval."""

    def __init__(self):
        self.raw = []  # seconds of each timed interval: one invocation when serial
        self.scaled = []
        self.invocations = 0
        self.cases = 0
        self.raw_seconds = 0.0
        self.scaled_seconds = 0.0

    def add(self, invocations, cases, seconds, probe_before, probe_after):
        scaled = scale(seconds, (probe_before + probe_after) / 2)
        self.raw.append(seconds)
        self.scaled.append(scaled)
        self.invocations += invocations
        self.cases += cases
        self.raw_seconds += seconds
        self.scaled_seconds += scaled

    def summary(self):
        return {"invocations": self.invocations, "cases": self.cases,
                "raw_seconds": self.raw_seconds, "scaled_seconds": self.scaled_seconds}


def serial_cycle(workload, inputs, check, phase, parallel):
    before = probe()
    for key, argv in enumerate(inputs):
        full = argv + (["--parallel", str(parallel)] if workload.parallel_via_cli else [])
        code, seconds, stdout, error = invoke(full)
        after = probe()
        phase.add(1, workload.cases_per_invocation, seconds, before, after)
        before = after
        check(key, full, code, stdout, error)


def pool_cycle(workload, inputs, check, phase, pool):
    before = probe()
    start = time.perf_counter()
    results = pool.map(invoke, inputs, chunksize=1)
    seconds = time.perf_counter() - start
    phase.add(len(inputs), workload.cases_per_invocation * len(inputs), seconds, before,
              probe())
    for key, (argv, (code, _, stdout, error)) in enumerate(zip(inputs, results)):
        check(key, argv, code, stdout, error)


def timed_cycles(budget, run_cycle):
    """Run whole cycles while one more, at the mean cycle time so far, is
    expected to end within the budget (always at least one)."""
    start = time.perf_counter()
    cycles = 0
    while True:
        run_cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > budget:
            return


@contextlib.contextmanager
def parallel_cycles(workload, inputs, check, phase):
    """Yield a function that runs one cycle over the inputs at parallelism 2."""
    if workload.parallel_via_cli:
        yield lambda: serial_cycle(workload, inputs, check, phase, 2)
        return
    with multiprocessing.get_context("spawn").Pool(2, initializer=load_program) as pool:
        pool.map(_pool_ready, [0.2, 0.2], chunksize=1)  # both workers have imported zfprob
        yield lambda: pool_cycle(workload, inputs, check, phase, pool)
        pool.close()
        pool.join()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def environment():
    import scipy
    blas = {}
    for lib in (np, scipy):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = info.get("openblas configuration") or info.get("version")
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "process_threads": len(os.listdir("/proc/self/task"))}


def traced_pass(workload, inputs, check):
    """One serial pass over the inputs with every layer boundary traced."""
    traced = Phase()
    with Tracer() as tracer:
        serial_cycle(workload, inputs, check, traced, 0)
    return tracer, traced


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]()
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, work_dir)
    finally:
        for path in work_dir.glob("*"):
            path.unlink()
        work_dir.rmdir()


def _run(workload, seed, seconds, trace, work_dir):
    load_program()
    inputs = workload.make_inputs(seed, work_dir)
    check = Checker(workload)
    warm = Phase()
    serial_cycle(workload, inputs[:1], check, warm, 0)  # fills caches and lazy imports
    result = {"environment": environment(), "workload": workload.name, "seed": seed,
              "inputs_per_cycle": len(inputs)}
    par0, par2 = Phase(), Phase()
    if not trace:
        # alternate the two settings so that both sample the machine's
        # speed, which drifts on a shared host, over the whole run
        with parallel_cycles(workload, inputs, check, par2) as parallel_cycle:
            timed_cycles(seconds, lambda: (serial_cycle(workload, inputs, check, par0, 0),
                                           parallel_cycle()))
        for kind in ("scaled", "raw"):
            times = getattr(par0, kind)
            result[kind] = {
                "cases_per_s": par0.cases / getattr(par0, kind + "_seconds"),
                "cases_per_s_par2": par2.cases / getattr(par2, kind + "_seconds"),
                "invocation_s_p50": statistics.median(times),
                "invocation_s_tail": statistics.quantiles(times, n=100, method="inclusive")[
                    workload.tail_percentile - 1],
            }
        result.update({"tail_percentile": workload.tail_percentile,
                       "peak_rss_mb": peak_rss_mb()})
    else:
        serial_cycle(workload, inputs, check, par0, 0)
        with parallel_cycles(workload, inputs, check, par2) as parallel_cycle:
            parallel_cycle()
        tracer, traced = traced_pass(workload, inputs, check)
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{seed}.csv"
        tracer.write_spans(spans_path)
        layers = layer_metrics(tracer)
        layers["cli.parallel_efficiency"] = (par2.cases / par2.scaled_seconds) / (
            2 * par0.cases / par0.scaled_seconds)
        layers["untraced_wall_s"] = par0.scaled_seconds
        layers["traced_wall_s"] = traced.scaled_seconds
        layers["tracing_overhead_s"] = traced.scaled_seconds - par0.scaled_seconds
        result.update({"layers": layers, "spans_file": str(spans_path.relative_to(ROOT)),
                       "span_count": len(tracer.spans), "traced": traced.summary()})
    result.update({"par0": par0.summary(), "par2": par2.summary(),
                   "attempted": check.attempted, "failed": check.failed,
                   "failures": check.failures[:10]})
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
