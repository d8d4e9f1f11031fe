import importlib.util
from pathlib import Path

import zfprob.cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_digests_repeat_in_process(tmp_path, monkeypatch):
    tool = load_tool()
    assert len(tool.INVOCATIONS) == 32
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
    assert len(golden) == 32
    assert load_tool().main([]) == 0
    assert capsys.readouterr().out.splitlines() == golden
