import sys

import pytest

import zfprob.linalg


@pytest.fixture
def gate_passes(monkeypatch):
    """A one-item list counting calls to check_upper_triangular, the gate's
    first step, at every binding in the package, as perfbench's tracer counts
    them: the number of gate passes since the count was last set."""
    original = zfprob.linalg.check_upper_triangular
    calls = [0]

    def counted(r):
        calls[0] += 1
        return original(r)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zfprob" and getattr(module, "check_upper_triangular",
                                                        None) is original:
            monkeypatch.setattr(module, "check_upper_triangular", counted)
    return calls
