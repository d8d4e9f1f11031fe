"""zfprob benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload invariance-mixed --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json: the
set-up time of a fresh interpreter, measured in separate interpreters, and
the workload's throughput, latency and memory, measured in a workload
process (bench.py) with tracing off.  Times are scaled to a reference
machine speed by a calibration probe (calibration.py); each metric line
also shows the raw value.  With ``--trace 1`` the workload process makes
one untraced serial pass, one ``--parallel 2`` pass and one traced serial
pass over the same inputs, and it prints the per-layer metrics instead.
Each metric line above the result names its unit and sample count; the
last line of stdout is the result object.  The exit status is 1 when any
output check failed and 2 when the program's sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 1
HELD_OUT_SEED = 20181  # reserved for confirming a claimed gain; tune nothing against it
SETUP_REPEATS = 3  # before the workload and again after it
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_SNIPPET = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import zfprob, zfprob.cli\n"
    "zfprob.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "assert zfprob.__file__.startswith(%r), zfprob.__file__\n"
    "sys.path.insert(0, %r)\n"
    "from calibration import probe_median, scale\n"
    "print(repr(elapsed), repr(scale(elapsed, probe_median())))\n" % (str(SRC), str(HERE)))


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def run_child(argv, timeout):
    """Run a child in its own process group; on timeout kill the group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def measure_setup(deadline):
    """(raw, scaled) times of fresh interpreters to import zfprob and build
    its argument parser, which every CLI invocation pays."""
    samples = []
    for _ in range(SETUP_REPEATS):
        code, out, err = run_child([sys.executable, "-c", SETUP_SNIPPET],
                                   deadline - time.monotonic())
        if code != 0:
            raise RuntimeError(f"set-up interpreter failed: {err.strip()[-500:]}")
        samples.append(tuple(float(v) for v in out.strip().splitlines()[-1].split()))
    return samples


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unavailable (not a git checkout)"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if not sha:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or "unavailable"


def provenance(seed):
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": model,
        "caches": caches, "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(), "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16], "src_lines": lines, "seed": seed,
    }


def metric_lines(result, setup):
    """(name, value, sample description) for each end-to-end metric; times
    are scaled to the reference machine speed, with the raw value noted."""
    par0, par2 = result["par0"], result["par2"]
    serial = f"{par0['invocations']} serial invocations, {par0['cases']} cases"
    samples = {
        "cases_per_s": serial,
        "cases_per_s_par2": f"{par2['invocations']} invocations, {par2['cases']} cases",
        "invocation_s_p50": serial,
        "invocation_s_tail": f"p{result['tail_percentile']} of {par0['invocations']} "
                             "serial invocations",
    }
    lines = {"setup_s": (statistics.median(s for _, s in setup),
                         f"raw {statistics.median(r for r, _ in setup):.4g}; "
                         f"median of {len(setup)} fresh interpreters")}
    for name, note in samples.items():
        lines[name] = (result["scaled"][name], f"raw {result['raw'][name]:.4g}; {note}")
    lines["peak_rss_mb"] = (result["peak_rss_mb"], "workload process plus its largest worker")
    return lines


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming claimed gains)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zfprob" / "__init__.py").is_file():
        print(f"error: no zfprob sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    info = provenance(args.seed)
    setup = [] if args.trace else measure_setup(deadline)
    code, out, err = run_child(
        [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic())
    if code != 0:
        print(f"error: workload process exited with {code}:\n{err.strip()[-2000:]}",
              file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setup += measure_setup(deadline)
    info["environment"] = result["environment"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
        notes = {}
        print(f"  one pass of {result['inputs_per_cycle']} invocations each: untraced, "
              f"--parallel 2, traced; {result['span_count']} spans written to "
              f"{result['spans_file']}")
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        lines = metric_lines(result, setup)
        values = {name: value for name, (value, _) in lines.items()}
        notes = {name: note for name, (_, note) in lines.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    for name, m in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']:10s}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':48s} {failed / attempted:>14.6g} {'failed/attempted':10s} "
          f"({failed} of {attempted} invocations)")
    for failure in result["failures"]:
        print(f"  FAILED input {failure['input']}: {'; '.join(failure['problems'])}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
