"""Census digests of lll_reduce over fixed families of input factors.

Runs ``zfprob.lll_reduce`` at each delta in DELTAS on every factor of each
family in FAMILIES and prints one line per (entry point, family): the
sha256 over the outcomes of all its inputs, in order, then the family's
name, its size and how many inputs each outcome kind took.  An outcome is
a result's r_bar, z and q_bar bytes, its stats and its two contract
numbers in hex, or a refusal's class and message.  Running it on two
checkouts and diffing the outputs shows every (entry point, family) whose
outcomes changed, and ``--diff`` names the inputs:

    python3 tools/census.py > after.txt
    python3 tools/census.py --src ../parent/src > before.txt
    diff before.txt after.txt
    python3 tools/census.py --diff ../parent/src

``--inputs`` prints one line per input instead: the entry point, the
family, the input's index, its outcome kind, and a digest of its z and
stats and one of everything else.

The digests hold for one OpenBLAS kernel: the reduce-n48 factors come out
of a QR, and q_bar and the contract numbers out of BLAS products, whose
low bits depend on the kernel OpenBLAS picks for the CPU
(``OPENBLAS_VERBOSE=2`` prints it).  The committed digests in
census_digests.txt were made with the kernel and thread setting named in
its first line.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DELTAS = (0.5, 0.75, 0.99)


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


FAMILIES = {
    "ill_conditioned": lambda: [ill_conditioned(i) for i in range(3000)],
    "reduce-n48-seed1": lambda: reduce_n48(1),
    "reduce-n48-seed20181": lambda: reduce_n48(20181),
    "tri16": tri16,
}


def outcome(zfprob, r, params) -> tuple:
    """(kind, the bytes of z and stats, the bytes of everything else) of
    lll_reduce(r, params).  kind is "result", or a refusal's class with the
    words of its message that come before the first one holding a digit."""
    try:
        res = zfprob.lll_reduce(r, params)
    except zfprob.LatticeError as exc:
        words = []
        for word in str(exc).split():
            if any(ch.isdigit() for ch in word):
                break
            words.append(word)
        return f"{type(exc).__name__}:{'_'.join(words)}", b"", f"{type(exc)!r} {exc}".encode()
    s = res.stats
    kept = res.z.tobytes() + f"{s.size_reductions} {s.swaps} {s.iterations}".encode()
    rest = (res.r_bar.tobytes() + res.q_bar.tobytes()
            + f"{res.reconstruction_error.hex()} {res.det_drift.hex()}".encode())
    return "result", kept, rest


def census(zfprob, lines=None):
    """Yield (entry point, family, [outcome of each input]) for every pair,
    or for those in lines only."""
    inputs = {}
    for delta in DELTAS:
        name, params = f"lll_reduce delta={delta}", zfprob.LLLParams(delta=delta)
        for family, make in FAMILIES.items():
            if lines is not None and (name, family) not in lines:
                continue
            if family not in inputs:
                inputs[family] = make()
            yield name, family, [outcome(zfprob, r, params) for r in inputs[family]]


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
    """Name every input whose outcome kind, or whose z and stats, differ
    between the packages at other and at src, and count per (entry point,
    family) the inputs that differ in bits only; 1 if any input differs."""
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
            print(f"{name} {family}[{index}]: z or stats changed")
        elif rest0 != rest1:
            bits[(name, family)] = bits.get((name, family), 0) + 1
    for (name, family), count in bits.items():
        print(f"{name} {family}: {count} inputs keep their outcome kind, z and stats;"
              " other bits differ")
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
