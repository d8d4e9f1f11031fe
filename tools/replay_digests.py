"""Replay digests of a fixed set of CLI invocations.

Runs every invocation in INVOCATIONS in process, through ``zfprob.cli.main``,
and prints one line per invocation: the exit code, the sha256 of
``json.dumps(report.replay_dict(), sort_keys=True)`` (``-`` when no report
was made) and the argument list.  Running it on two checkouts and diffing
the outputs shows every invocation whose replayable report changed:

    python3 tools/replay_digests.py > after.txt
    python3 tools/replay_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

The input files are written to a temporary directory, and the invocations
name them relative to it, so the echoed paths, and so the digests, do not
depend on where the tool runs.  Lines 7, 10-11, 24-31, 33 and 35 depend on
the kernel OpenBLAS picks for the CPU, whose fused multiply-adds round the
QR (of a file's or a model's matrix, and in the sqrd, vblast and sampler
reorderings) and q_bar's rotations differently; the committed
replay_digests.txt holds for the SkylakeX kernel, and ``OPENBLAS_VERBOSE=2``
makes OpenBLAS print the kernel it loads.  The other lines hold for every
kernel and thread count.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

INPUT_FILES = {
    "tri2.csv": "4,9\n0,1\n",
    "tri3.csv": "3,1.5,0\n0,3,-1.51\n0,0,3\n",
    "rect32.csv": "1,0.5\n0.25,2\n-1,1\n",
    "full22.csv": "1,2\n3,4\n",
    "diag2.csv": "1.4142135623730951,0\n0,2.8284271247461903\n",
    "y2.csv": "0.4\n-0.7\n",
    "y3.csv": "1.2\n-0.4\n2.9\n",
    # falling pivots 17 .. 2 over entries in -3 .. 3: LLL swaps at every k from 1 to 15
    "tri16.csv": "".join(
        ",".join(str(17 - i if j == i else (3 * i + 5 * j) % 7 - 3 if j > i else 0)
                 for j in range(16)) + "\n"
        for i in range(16)),
    # negative pivots in rows 0 and 1, whose flips meet zeros in R and in y
    "negflip4.csv": "-3,0,-1,0\n0,-2,0,-1\n0,0,1,-1\n0,0,0,4\n",
    "y4.csv": "1.5\n0\n-0.5\n2.5\n",
}

INVOCATIONS = (
    ("reproduce",),
    ("reproduce", "--delta", "0.99"),
    ("reproduce", "--format", "csv"),
    ("reduce", "--matrix", "tri2.csv"),
    ("reduce", "--matrix", "tri3.csv", "--format", "csv"),
    ("reduce", "--matrix", "rect32.csv"),
    ("reduce", "--matrix", "full22.csv", "--delta", "0.5"),
    ("reduce", "--matrix", "missing.csv"),
    ("decode", "--matrix", "tri2.csv", "--y", "y2.csv", "--sigma", "0.5"),
    ("decode", "--matrix", "rect32.csv", "--y", "y3.csv"),
    ("decode", "--matrix", "full22.csv", "--y", "y2.csv"),
    ("decode", "--matrix", "tri3.csv", "--y", "y3.csv", "--format", "csv"),
    ("decode", "--matrix", "rect32.csv", "--y", "y2.csv"),
    ("pzf", "--matrix", "tri2.csv", "--sigma", "0.5", "--method", "quad"),
    ("pzf", "--matrix", "tri2.csv", "--sigma", "0.5", "--method", "mc",
     "--trials", "20000", "--seed", "7"),
    ("pzf", "--matrix", "tri3.csv", "--method", "empirical", "--trials", "20000",
     "--seed", "9"),
    ("pzf", "--matrix", "diag2.csv", "--sigma", "0.5", "--method", "diagonal"),
    ("pzf", "--matrix", "rect32.csv", "--sigma", "0.5", "--format", "csv"),
    ("pzf", "--matrix", "tri2.csv", "--method", "mc"),
    ("sweep-delta", "--matrix", "tri2.csv", "--sigma", "0.5",
     "--delta-grid", "0.3,0.5,0.75,1.0"),
    ("sweep-delta", "--trials", "20", "--seed", "3", "--parallel", "2"),
    ("sweep-delta", "--trials", "10", "--format", "csv"),
    ("sweep-delta", "--delta-grid", "0.9,0.5"),
    ("invariance", "--trials", "20", "--seed", "5", "--parallel", "2"),
    ("invariance", "--trials", "10", "--n", "3"),
    ("invariance", "--trials", "10", "--format", "csv"),
    ("invariance", "--n", "4", "--trials", "20", "--seed", "11"),
    ("ensemble", "--n", "2", "--sigma", "0.5", "--trials", "10"),
    ("ensemble", "--n", "6", "--m", "7", "--sigma", "0.5", "--trials", "2"),
    ("ensemble", "--n", "3", "--method", "empirical", "--sigma", "0.5", "--trials", "4",
     "--parallel", "2"),
    ("ensemble", "--n", "2", "--delta", "0.9", "--trials", "5", "--format", "csv"),
    ("ensemble", "--n", "3", "--m", "2"),
    ("reduce", "--matrix", "tri16.csv"),
    ("decode", "--matrix", "negflip4.csv", "--y", "y4.csv"),
    ("pzf", "--matrix", "negflip4.csv", "--sigma", "1", "--method", "mc",
     "--trials", "20000", "--seed", "7"),
    ("reduce", "--matrix", "negflip4.csv"),
)


def write_inputs(directory) -> None:
    for name, text in INPUT_FILES.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def run_invocation(cli, argv) -> tuple:
    """(exit code, the report cli.run made or None) of one invocation, run
    in the current directory with its output discarded."""
    reports = []
    run = cli.run

    def recording_run(config):
        reports.append(run(config))
        return reports[-1]

    cli.run = recording_run
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        cli.run = run
    return code, reports[0] if reports else None


def replay_digest(cli, argv) -> tuple:
    """(exit code, digest of the replayable report or None) of one
    invocation, as run_invocation runs it."""
    code, report = run_invocation(cli, argv)
    if report is None:
        return code, None
    payload = json.dumps(report.replay_dict(), sort_keys=True)
    return code, hashlib.sha256(payload.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the zfprob package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import zfprob.cli as cli

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        os.chdir(work)
        try:
            for invocation in INVOCATIONS:
                code, digest = replay_digest(cli, invocation)
                print(code, digest or "-", " ".join(invocation))
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
