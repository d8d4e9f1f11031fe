"""Census digests of lll_reduce, sqrd, vblast and pzf_quadrature over fixed
families of input factors.

Runs ``zfprob.lll_reduce`` at each delta in DELTAS on every factor of each
family in FAMILIES, and ``zfprob.sqrd``, ``zfprob.vblast`` and
``zfprob.pzf_quadrature`` at each sigma in SIGMAS on every factor of each
family in TRIANGULAR_FAMILIES, and prints one line per (entry point,
family): the sha256 over the outcomes of all its inputs, in order, then the
family's name, its size and how many inputs each outcome kind took.  An
outcome is a refusal's class and message or, for a result, the part that
must not move and the rest: a reduction's z and stats, then its r_bar and
q_bar bytes and two contract numbers in hex; pzf_quadrature's evaluations,
then its value and bound in hex.  Running it on two checkouts
and diffing the outputs shows every (entry point, family) whose outcomes
changed, and ``--diff`` names the inputs:

    python3 tools/census.py > after.txt
    python3 tools/census.py --src ../parent/src > before.txt
    diff before.txt after.txt
    python3 tools/census.py --diff ../parent/src

``--inputs`` prints one line per input instead: the entry point, the
family, the input's index, its outcome kind, and a digest of the part that
must not move and one of everything else.

The reductions' digests hold for one OpenBLAS kernel: the reduce-n48
factors, and sqrd's and vblast's r_bar and q_bar, come out of a QR, and
q_bar and the contract numbers out of BLAS products, whose low bits depend
on the kernel OpenBLAS picks for the CPU (``OPENBLAS_VERBOSE=2`` prints
it).  The committed digests in
census_digests.txt were made with the kernel and thread setting named in
its first line.  The pzf_quadrature digests hold for every kernel and
thread count: its factors are drawn without a QR, and it sums in numpy's
own loops.
"""

import argparse
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DELTAS = (0.5, 0.75, 0.99)
SIGMAS = (0.1, 0.3, 1.0)
ORDERINGS = ("sqrd", "vblast")


def ill_conditioned(index):
    """tests/test_reduction.py's factor: pivots spread over 1e-10 .. 1e4."""
    rng = np.random.default_rng([77, index])
    n = 4 + index % 5
    r = np.triu(rng.standard_normal((n, n)))
    np.fill_diagonal(r, 10.0 ** rng.uniform(-10, 4, size=n))
    return r


def reduce_n48(seed):
    """The 24 factors the benchmark's reduce-n48 workload makes at seed:
    48x48 QR factors of Gaussian matrices scrambled by 48 random unimodular
    column operations, with a positive diagonal."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for _ in range(24):
        g = rng.standard_normal((48, 48))
        u = np.eye(48, dtype=np.int64)
        for _ in range(48):
            i, j = rng.choice(48, 2, replace=False)
            u[:, j] += int(rng.choice((-1, 1))) * u[:, i]
        _, r = np.linalg.qr(g @ u)
        out.append(np.triu(np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None] * r) + 0.0)
    return out


def tri16():
    """tools/replay_digests.py's tri16.csv: pivots falling 17 .. 2 over
    entries in -3 .. 3, so the loop swaps at every k from 1 to 15."""
    return [np.array([[17 - i if j == i else (3 * i + 5 * j) % 7 - 3 if j > i else 0
                       for j in range(16)] for i in range(16)], dtype=float)]


def upper_triangular(n, count):
    """count n x n upper-triangular factors of standard normal entries, drawn
    by default_rng([37, n]) and made without a QR."""
    rng = np.random.default_rng([37, n])
    return [np.triu(rng.standard_normal((n, n))) for _ in range(count)]


FAMILIES = {
    "ill_conditioned": lambda: [ill_conditioned(i) for i in range(3000)],
    "reduce-n48-seed1": lambda: reduce_n48(1),
    "reduce-n48-seed20181": lambda: reduce_n48(20181),
    "tri16": tri16,
}
TRIANGULAR_FAMILIES = {
    "triu-n2": lambda: upper_triangular(2, 300),
    "triu-n3": lambda: upper_triangular(3, 300),
    "triu-n4": lambda: upper_triangular(4, 40),
}


def reduced(zfprob, r, delta=None, ordering=None) -> tuple:
    """(the bytes of z and stats, the bytes of everything else) of
    lll_reduce(r) at delta, or of the column ordering named by ordering."""
    res = (zfprob.lll_reduce(r, zfprob.LLLParams(delta=delta)) if ordering is None
           else getattr(zfprob, ordering)(r))
    s = res.stats
    kept = res.z.tobytes() + f"{s.size_reductions} {s.swaps} {s.iterations}".encode()
    rest = (res.r_bar.tobytes() + res.q_bar.tobytes()
            + f"{res.reconstruction_error.hex()} {res.det_drift.hex()}".encode())
    return kept, rest


def quadrature(zfprob, r, sigma) -> tuple:
    """(the bytes of evaluations, those of the value and bound in hex) of pzf_quadrature(r)."""
    est = zfprob.pzf_quadrature(r, sigma)
    return str(est.evaluations).encode(), f"{est.value.hex()} {est.error_bound.hex()}".encode()


# (entry point, its call on one input, its families, the part of a result that must not move)
ENTRY_POINTS = (
    *((f"lll_reduce delta={d}", functools.partial(reduced, delta=d), FAMILIES, "z and stats")
      for d in DELTAS),
    *((o, functools.partial(reduced, ordering=o), TRIANGULAR_FAMILIES, "z and stats")
      for o in ORDERINGS),
    *((f"pzf_quadrature sigma={s}", functools.partial(quadrature, sigma=s), TRIANGULAR_FAMILIES,
       "evaluations") for s in SIGMAS),
)
KEPT = {name: kept for name, _, _, kept in ENTRY_POINTS}


def outcome(zfprob, call, r) -> tuple:
    """(kind, the bytes that must not move, the bytes of everything else) of
    call(zfprob, r).  kind is "result", or a refusal's class with the words
    of its message that come before the first one holding a digit."""
    try:
        kept, rest = call(zfprob, r)
    except zfprob.LatticeError as exc:
        words = []
        for word in str(exc).split():
            if any(ch.isdigit() for ch in word):
                break
            words.append(word)
        return f"{type(exc).__name__}:{'_'.join(words)}", b"", f"{type(exc)!r} {exc}".encode()
    return "result", kept, rest


def census(zfprob, lines=None):
    """Yield (entry point, family, [outcome of each input]) for every pair,
    or for those in lines only."""
    inputs = {}
    for name, call, families, _ in ENTRY_POINTS:
        for family, make in families.items():
            if lines is not None and (name, family) not in lines:
                continue
            if family not in inputs:
                inputs[family] = make()
            yield name, family, [outcome(zfprob, call, r) for r in inputs[family]]


def digest_line(name, family, outcomes) -> str:
    h = hashlib.sha256()
    kinds = {}
    for kind, kept, rest in outcomes:
        h.update(hashlib.sha256(kept + b"|" + rest).digest())
        kinds[kind] = kinds.get(kind, 0) + 1
    counts = " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    return f"{h.hexdigest()} {name} {family} inputs={len(outcomes)} {counts}"


def input_lines(name, family, outcomes):
    for index, (kind, kept, rest) in enumerate(outcomes):
        yield (f"{name}|{family}|{index}|{kind}|{hashlib.sha256(kept).hexdigest()[:16]}"
               f"|{hashlib.sha256(rest).hexdigest()[:16]}")


def diff(src, other) -> int:
    """Name every input whose outcome kind, or whose part that must not move,
    differ between the packages at other and at src, and count per (entry
    point, family) the inputs that differ in other bits only; 1 if any
    input differs."""
    sides = []
    for where in (other, src):
        out = subprocess.run([sys.executable, __file__, "--src", where, "--inputs"],
                             check=True, capture_output=True, text=True).stdout
        sides.append([line.split("|") for line in out.splitlines()])
    bits = {}
    for before, after in zip(*sides, strict=True):
        name, family, index, kind0, kept0, rest0 = before
        kind1, kept1, rest1 = after[3:]
        if kind0 != kind1:
            print(f"{name} {family}[{index}]: {kind0} -> {kind1}")
        elif kept0 != kept1:
            print(f"{name} {family}[{index}]: {KEPT[name]} changed")
        elif rest0 != rest1:
            bits[(name, family)] = bits.get((name, family), 0) + 1
    for (name, family), count in bits.items():
        print(f"{name} {family}: {count} inputs keep their outcome kind and"
              f" {KEPT[name]}; other bits differ")
    return 1 if sides[0] != sides[1] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(HERE.parent / "src"),
                        help="directory that holds the zfprob package to run")
    parser.add_argument("--inputs", action="store_true",
                        help="print one line per input instead of one per family")
    parser.add_argument("--diff", metavar="SRC",
                        help="name every input whose outcome differs from the package at SRC")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(os.path.abspath(args.src), os.path.abspath(args.diff))
    sys.path.insert(0, os.path.abspath(args.src))
    import zfprob

    for name, family, outcomes in census(zfprob):
        lines = input_lines(name, family, outcomes) if args.inputs else [
            digest_line(name, family, outcomes)]
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
