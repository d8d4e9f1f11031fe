import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zfprob.cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_digests_repeat_in_process(tmp_path, monkeypatch):
    tool = load_tool()
    assert len(tool.INVOCATIONS) == 36
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    picked = [tool.INVOCATIONS[0],
              next(inv for inv in tool.INVOCATIONS if inv[0] == "reduce"),
              next(inv for inv in tool.INVOCATIONS if "mc" in inv)]
    for argv in picked:
        first = tool.replay_digest(zfprob.cli, argv)
        assert first[0] == 0 and first[1] is not None, argv
        assert tool.replay_digest(zfprob.cli, argv) == first


def test_replay_digests_match_the_committed_file(capsys):
    # a change that alters a line by design updates tools/replay_digests.txt
    # and names the line in CHANGES.md
    golden = TOOL.with_suffix(".txt").read_text(encoding="utf-8").splitlines()
    assert len(golden) == 36
    assert load_tool().main([]) == 0
    assert capsys.readouterr().out.splitlines() == golden


# replays the invocations at the 0-based indices argv[3:] of the tool at
# argv[1], with its input files in the directory argv[2], and prints their lines
KERNEL_PROBE = """
import importlib.util, os, sys
import zfprob.cli
spec = importlib.util.spec_from_file_location("replay_digests", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.write_inputs(sys.argv[2])
os.chdir(sys.argv[2])
for i in map(int, sys.argv[3:]):
    code, digest = tool.replay_digest(zfprob.cli, tool.INVOCATIONS[i])
    print(code, digest or "-", " ".join(tool.INVOCATIONS[i]))
"""


def test_kernel_free_lines_hold_under_another_blas_kernel(tmp_path):
    # reproduce and the sweeps make their factors without a QR and reduce them
    # without q_bar's rotations, and the quadrature sums in numpy's loops, so
    # lines 1-3 and 20-22 hold under every OpenBLAS kernel.  Nehalem's has no
    # fused multiply-add, the kernels of later cores do; where OpenBLAS ignores
    # OPENBLAS_CORETYPE, the run uses the default kernel and this holds too.
    lines = (0, 1, 2, 19, 20, 21)
    golden = TOOL.with_suffix(".txt").read_text(encoding="utf-8").splitlines()
    path = [str(Path(zfprob.cli.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", KERNEL_PROBE, str(TOOL), str(tmp_path),
                          *map(str, lines)], env=env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    assert out.splitlines() == [golden[i] for i in lines]


# sha256 of report.to_csv().  The replay digests hash the report's JSON with
# sorted keys, so they miss a change in the order of the keys of the dicts
# that these commands embed in CSV cells (estimates, points, summary).
CSV_DIGESTS = {
    ("reproduce", "--format", "csv"):
        "e14a5f319af23ad7abb3b50e939947aa89abc76af913fcff59d1a560caf55e96",
    ("sweep-delta", "--trials", "10", "--format", "csv"):
        "6dc98b74aa7f50635f10660ca6ba95b3898aa8728d3cdff91e51ab56d43d8e5d",
    ("ensemble", "--n", "2", "--delta", "0.9", "--trials", "5", "--format", "csv"):
        "ffc197bb05cb83c4d90adb97ad985037d9d59e4b689ddf1d4279c3183c359939",
}


@pytest.mark.parametrize("argv", CSV_DIGESTS, ids=lambda argv: argv[0])
def test_csv_text_is_pinned(argv, tmp_path, monkeypatch):
    tool = load_tool()
    assert argv in tool.INVOCATIONS
    tool.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, report = tool.run_invocation(zfprob.cli, argv)
    assert code == 0
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == CSV_DIGESTS[argv]
