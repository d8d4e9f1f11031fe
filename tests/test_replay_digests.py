import hashlib
import importlib.util
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


# sha256 of report.to_csv().  The replay digests hash the report's JSON with
# sorted keys, so they miss a change in the order of the keys of the dicts
# that these commands embed in CSV cells (estimates, points, summary).
CSV_DIGESTS = {
    ("reproduce", "--format", "csv"):
        "3fad7a76c35c6080fa67d3753054da53aabbeed4305a6e4beab803efd131cc85",
    ("sweep-delta", "--trials", "10", "--format", "csv"):
        "c7575abddacd1bb31d3e962738707ae613772e3283c102656abf707d559b92fd",
    ("ensemble", "--n", "2", "--delta", "0.9", "--trials", "5", "--format", "csv"):
        "7e615594cda41f22d56430635345119871ceb9ee5a729b6e1b5a07786cb3d668",
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
