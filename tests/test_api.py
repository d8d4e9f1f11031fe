import importlib

import pytest

import zfprob

# a top-level name is an error class, a name the acceptance gate imports
# from zfprob, a name the README's library tour shows, or a type a kept
# entry point needs; layer primitives are imported from their own modules
PUBLIC = [
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "ILSInstance",
    "InvalidGridError",
    "IterationLimitExceededError",
    "LLLParams",
    "LatticeError",
    "NoConvergenceError",
    "NotDiagonalError",
    "NotUnimodularError",
    "ParseError",
    "ProbabilityEstimate",
    "RankDeficientError",
    "ReductionResult",
    "RngSpec",
    "SingularDiagonalError",
    "SingularMatrixError",
    "erf",
    "ils_brute_force",
    "int_determinant",
    "is_lll_reduced",
    "lift_estimate",
    "lll_reduce",
    "orthogonality_defect",
    "pzf_diagonal",
    "pzf_empirical",
    "pzf_monte_carlo",
    "pzf_quadrature",
    "qr_factorize",
    "sic_decode",
    "size_reduce_entry",
    "sqrd",
    "vblast",
    "zf_decode",
]

MODULES = ["zfprob", "zfprob.cli", "zfprob.decode", "zfprob.ensembles",
           "zfprob.linalg", "zfprob.probability", "zfprob.reduction", "zfprob.rng"]


def test_top_level_surface_is_pinned():
    assert len(PUBLIC) == 34
    assert sorted(zfprob.__all__) == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name}"
