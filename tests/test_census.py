import importlib.util
from pathlib import Path

import numpy as np

import zfprob
from test_reduction import ill_conditioned, scrambled_n48  # tests/ is on sys.path under pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
# the slice of the census tier-1 runs, a few seconds' work
QUICK = (("lll_reduce delta=0.75", "reduce-n48-seed1"), ("lll_reduce delta=0.99", "tri16"))


def load_tool():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_lines():
    text = TOOL.with_name("census_digests.txt").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_census_slice_matches_the_committed_digests():
    # a change that alters a line by design updates tools/census_digests.txt
    # and names the changed inputs, from census.py --diff, in CHANGES.md
    tool = load_tool()
    committed = committed_lines()
    assert len(committed) == len(tool.DELTAS) * len(tool.FAMILIES)
    got = [tool.digest_line(*pair) for pair in tool.census(zfprob, QUICK)]
    assert len(got) == len(QUICK)
    assert set(got) <= set(committed)


def test_census_families_are_the_factors_the_tests_and_the_benchmark_use():
    tool = load_tool()
    for i in (0, 7, 2999):
        np.testing.assert_array_equal(tool.ill_conditioned(i), ill_conditioned(i))
    # scrambled_n48(s) is the first factor the benchmark's reduce-n48 makes at seed s
    np.testing.assert_array_equal(tool.reduce_n48(2)[0], scrambled_n48(2))
    replay = importlib.util.spec_from_file_location("replay_digests", TOOL.with_name(
        "replay_digests.py"))
    module = importlib.util.module_from_spec(replay)
    replay.loader.exec_module(module)
    rows = module.INPUT_FILES["tri16.csv"].split()
    np.testing.assert_array_equal(tool.tri16()[0], [[float(v) for v in row.split(",")]
                                                   for row in rows])


def test_census_input_lines_name_each_input():
    tool = load_tool()
    (name, family, outcomes), = tool.census(zfprob, QUICK[1:])
    lines = list(tool.input_lines(name, family, outcomes))
    assert lines[0].split("|")[:4] == ["lll_reduce delta=0.99", "tri16", "0", "result"]
    assert len(lines) == 1
