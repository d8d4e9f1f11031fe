"""Command line driver: load matrices, run reductions, decoders, and
probability estimators, and emit replayable JSON or CSV reports.

Every run echoes its full configuration including the seed; re-running
with the echoed configuration reproduces each numeric field bit-exactly
(wall-clock duration excluded).  Exit status 0 means every verdict
passed, 1 means at least one failed, 2 means a usage or input error.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial

import numpy as np

from .decode import (
    BRUTE_FORCE_MAX_DIM,
    ILSInstance,
    ils_brute_force,
    lift_estimate,
    sic_decode,
    zf_decode,
)
from .ensembles import (
    _ROLE_MEASUREMENT,
    case_spec,
    random_instance,
    random_model_matrix,
    random_unreduced_2x2,
    role_spec,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidGridError,
    LatticeError,
    ParseError,
)
from .linalg import _gate, check_sigma, qr_factorize
from .probability import (
    _empirical_estimates,
    pzf_diagonal,
    pzf_monte_carlo,
    pzf_quadrature,
)
from .reduction import (
    LLLParams,
    is_lll_reduced,
    lll_reduce,
    orthogonality_defect,
    size_reduce_entry,
    sqrd,
    vblast,
)
from .rng import ALGORITHM_ID, RngSpec
from .tolerances import (
    BRUTE_FORCE_RESIDUAL_SLACK,
    DEFAULT_DELTA,
    DEFECT_INVARIANCE_TOL,
    QUADRATURE_MAX_DIM,
    REFERENCE_CLOSED_FORM_TOL,
    REFERENCE_VALUE_TOL,
    RESIDUAL_INVARIANCE_TOL,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "Verdict",
    "load_matrix_csv",
    "load_vector_csv",
    "cmd_reproduce",
    "cmd_reduce",
    "cmd_decode",
    "cmd_pzf",
    "cmd_sweep_delta",
    "cmd_invariance",
    "cmd_ensemble",
    "main",
]

DEFAULT_DELTA_GRID = (0.3, 0.5, 0.75, 0.99, 1.0)
DEFAULT_SIGMA_GRID = (0.1, 0.5, 1.0)
METHODS = ("quad", "mc", "empirical", "diagonal")

# Bundled reference cases with pinned four-decimal expected values.
REFERENCE_1_R = ((4.0, 9.0), (0.0, 1.0))
REFERENCE_1_SIGMA = 0.5
REFERENCE_1_EXPECTED = (0.3413, 0.6825, 0.8388)
REFERENCE_2_R = ((1.0, 0.44), (0.0, 0.28))
REFERENCE_2_Y = (-0.7, -0.24)
REFERENCE_2_EXPECTED_RESIDUALS = (0.2631, 0.3672)
REFERENCE_3_R = ((3.0, 1.5, 0.0), (0.0, 3.0, -1.51), (0.0, 0.0, 3.0))
REFERENCE_3_SIGMA = 1.0
REFERENCE_3_EXPECTED = (0.6105, 0.6030)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    matrix_path: str | None = None
    y_path: str | None = None
    sigma: float | None = None
    delta: float = DEFAULT_DELTA
    delta_grid: tuple[float, ...] | None = None
    method: str = "quad"
    trials: int | None = None
    seed: int = 1
    n: int = 0
    m: int = 0
    out_path: str | None = None
    out_format: str = "json"
    parallel: int = 0

    def __post_init__(self):
        """The one gate on flags: a config that exists is one its run reads in full."""
        if self.command not in SUBCOMMANDS:
            raise ValueError(f"command must be one of {tuple(SUBCOMMANDS)}, got {self.command!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.out_format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.out_format!r}")
        if self.sigma is not None:
            check_sigma(self.sigma)
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        for name in ("n", "m", "parallel"):
            if getattr(self, name) < 0:
                raise InvalidGridError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.delta_grid is not None:
            grid = tuple(float(d) for d in self.delta_grid)
            object.__setattr__(self, "delta_grid", grid)
            if not grid:
                raise InvalidGridError("delta grid is empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise InvalidGridError(f"grid must be strictly increasing, got {list(grid)}")
        for delta in (self.delta, *(self.delta_grid or ())):
            LLLParams(delta=delta)  # the one delta rule: InvalidGridError outside (0.25, 1.0]
        missing = [_FLAGS[name][0] for name, when in SUBCOMMANDS[self.command][2].items()
                   if when is _REQUIRED and not getattr(self, name)]
        if missing:
            raise ParseError(f"{self.command} requires {' and '.join(missing)}")
        _refuse_unread(self)
        n, m = _ensemble_plan(self)[:2]
        if self.command == "ensemble" and m < n:
            raise DimensionMismatchError(f"need m >= n, got m={m}, n={n}")
        if self.command == "invariance" and self.n > QUADRATURE_MAX_DIM:
            raise DimensionTooLargeError(
                f"deterministic quadrature supports n <= {QUADRATURE_MAX_DIM}, got {self.n}")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ExperimentReport:
    command: str
    config: dict
    cases: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    duration_seconds: float = 0.0
    rng_algorithm: str = ALGORITHM_ID

    def failed(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    def to_dict(self) -> dict:
        """What the JSON text holds, in field order."""
        return json.loads(json.dumps(vars(self), default=_plain))

    def replay_dict(self) -> dict:
        """Everything that must match bit-exactly on a reseeded re-run."""
        return {k: v for k, v in self.to_dict().items() if k != "duration_seconds"}

    def to_json(self) -> str:
        return json.dumps(vars(self), default=_plain, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        d = json.loads(text)
        return cls(command=d["command"], config=d["config"], cases=d["cases"],
                   verdicts=[Verdict(**v) for v in d["verdicts"]],
                   duration_seconds=d["duration_seconds"],
                   rng_algorithm=d.get("rng_algorithm", ALGORITHM_ID))

    def to_csv(self) -> str:
        """One row per case; nested fields get dotted column names and
        list values are embedded as JSON."""
        rows = [_flatten(case) for case in self.to_dict()["cases"]]
        columns = sorted({k for row in rows for k in row})
        out = [",".join(columns)]
        for row in rows:
            out.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
        return "\n".join(out) + "\n"


def _plain(obj):
    """json.dumps' default hook: the one place a numpy value or a dataclass
    in a report becomes a JSON type."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _flatten(obj, prefix=""):
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _csv_cell(v):
    if isinstance(v, (list, dict)):
        text = json.dumps(v)
    elif isinstance(v, bool):
        text = "true" if v else "false"
    else:
        text = repr(v) if isinstance(v, float) else str(v)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def matrix_digest(a) -> str:
    a = np.asarray(a, dtype=float)
    canon = f"{a.shape}|" + ",".join(map(repr, a.ravel().tolist()))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_matrix_csv(path) -> np.ndarray:
    """Plain-text CSV: one matrix row per line, no header, blank lines
    ignored.  Raises ParseError with the offending line and column."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            vals = []
            for colno, tok in enumerate(line.split(","), start=1):
                tok = tok.strip()
                if not tok:
                    raise ParseError("empty field", line=lineno, column=colno)
                try:
                    v = float(tok)
                except ValueError:
                    raise ParseError(f"not a number: {tok!r}", line=lineno,
                                     column=colno) from None
                if not math.isfinite(v):
                    raise ParseError(f"not a finite number: {tok!r}", line=lineno,
                                     column=colno)
                vals.append(v)
            rows.append((lineno, vals))
    if not rows:
        raise ParseError("no data rows", line=1)
    width = len(rows[0][1])
    for lineno, vals in rows:
        if len(vals) != width:
            raise ParseError(f"expected {width} fields, found {len(vals)}",
                             line=lineno)
    return np.array([vals for _, vals in rows], dtype=float)


def load_vector_csv(path) -> np.ndarray:
    """Single-column CSV (one value per line); a single row is also
    accepted for convenience."""
    m = load_matrix_csv(path)
    if m.shape[1] == 1:
        return m[:, 0]
    if m.shape[0] == 1:
        return m[0, :]
    raise ParseError(f"expected a single-column vector, got shape {m.shape}", line=1)


def _triangular_from(matrix):
    """Matrices straight from a file may be rectangular models; reduce to
    the square triangular factor when they are not already triangular.

    Returns (g, q1): the gate's value for a triangular file, whose source is
    the file as given, with q1 None; else the QR's gated value and its q1,
    whose q1.T maps an observation onto the factor's rows."""
    try:
        return _gate(matrix), None
    except DimensionMismatchError:  # not square upper triangular
        f = qr_factorize(matrix)
        return f.gated, f.q1


def _dispatch_estimator(factors, sigma, method, trials, spec: RngSpec) -> list:
    """One estimate per factor; the empirical route tests them all on one
    noise stream, drawn once."""
    if method == "quad":
        return [pzf_quadrature(r, sigma) for r in factors]
    if method == "diagonal":
        return [pzf_diagonal(r, sigma) for r in factors]
    count = trials if trials is not None else 100_000
    if method == "mc":
        return [pzf_monte_carlo(r, sigma, count, spec) for r in factors]
    return _empirical_estimates(factors, sigma, count, spec)


# ---------------------------------------------------------------------------
# commands


def cmd_reproduce(config: ExperimentConfig) -> ExperimentReport:
    """Run the three bundled reference cases end to end and compare every
    computed number against its pinned expected value."""
    report = ExperimentReport(command="reproduce", config=asdict(config))
    verdicts = report.verdicts

    # case 1: success probability before/after each reduction flavor
    r = np.array(REFERENCE_1_R)
    gated = _gate(r)
    sigma = REFERENCE_1_SIGMA
    p_original = pzf_quadrature(gated, sigma)
    r_size_reduced, _, applied = size_reduce_entry(r, np.eye(2, dtype=np.int64), 0, 1)
    p_size_reduced = pzf_quadrature(r_size_reduced, sigma)
    full = lll_reduce(gated, LLLParams(delta=config.delta))
    p_reduced = pzf_quadrature(full.gated, sigma)
    diagonal_part = np.diag(np.diag(full.r_bar))
    p_diagonal = pzf_diagonal(diagonal_part, sigma)
    computed = (p_original, p_size_reduced, p_reduced)
    report.cases.append({
        "case": "reference-1",
        "sigma": sigma,
        "r": r,
        "r_size_reduced": r_size_reduced,
        "r_reduced": full.r_bar,
        "size_reduction_applied": applied,
        "stats": full.stats,
        "estimates": list(computed),
        "diagonal_estimate": p_diagonal,
        "expected": list(REFERENCE_1_EXPECTED),
    })
    for tag, est, want in zip(("original", "size-reduced", "reduced"),
                              computed, REFERENCE_1_EXPECTED):
        verdicts.append(_match_verdict(f"reference-1-{tag}", est.value, want))
    verdicts.append(Verdict(
        name="reference-1-diagonal-closed-form",
        passed=abs(p_diagonal.value - REFERENCE_1_EXPECTED[2]) <= REFERENCE_VALUE_TOL
        and abs(p_diagonal.value - p_reduced.value) <= REFERENCE_CLOSED_FORM_TOL,
        detail=f"closed form {p_diagonal.value:.8f} vs quadrature {p_reduced.value:.8f}"))

    # case 2: decoder residual before and after the reduction
    r2 = np.array(REFERENCE_2_R)
    y2 = np.array(REFERENCE_2_Y)
    inst = ILSInstance(r=r2, y_tilde=y2)
    before = zf_decode(inst)
    red = lll_reduce(inst.gated, LLLParams(delta=config.delta))
    y_bar = red.q_bar.T @ inst.y_tilde
    after = zf_decode(ILSInstance(r=red.gated, y_tilde=y_bar))
    lifted = lift_estimate(red.z, after.estimate)
    report.cases.append({
        "case": "reference-2",
        "r": r2,
        "y": y2,
        "estimate": before.estimate,
        "residual": before.residual,
        "r_reduced": red.r_bar,
        "y_reduced": y_bar,
        "estimate_reduced": after.estimate,
        "estimate_lifted": lifted,
        "residual_reduced": after.residual,
        "expected_residuals": list(REFERENCE_2_EXPECTED_RESIDUALS),
    })
    verdicts.append(_match_verdict("reference-2-residual-original",
                                   before.residual,
                                   REFERENCE_2_EXPECTED_RESIDUALS[0]))
    verdicts.append(_match_verdict("reference-2-residual-reduced",
                                   after.residual,
                                   REFERENCE_2_EXPECTED_RESIDUALS[1]))
    verdicts.append(Verdict(
        name="reference-2-residual-increased",
        passed=after.residual > before.residual,
        detail=f"{before.residual:.6f} -> {after.residual:.6f}"))

    # case 3: a 3x3 instance where the reduction lowers the probability
    r3 = np.array(REFERENCE_3_R)
    gated3 = _gate(r3)
    p3_before = pzf_quadrature(gated3, REFERENCE_3_SIGMA)
    red3 = lll_reduce(gated3, LLLParams(delta=config.delta))
    p3_after = pzf_quadrature(red3.gated, REFERENCE_3_SIGMA)
    report.cases.append({
        "case": "reference-3",
        "sigma": REFERENCE_3_SIGMA,
        "r": r3,
        "r_reduced": red3.r_bar,
        "z": red3.z,
        "stats": red3.stats,
        "estimates": [p3_before, p3_after],
        "expected": list(REFERENCE_3_EXPECTED),
    })
    verdicts.append(_match_verdict("reference-3-original", p3_before.value,
                                   REFERENCE_3_EXPECTED[0]))
    verdicts.append(_match_verdict("reference-3-reduced", p3_after.value,
                                   REFERENCE_3_EXPECTED[1]))
    gap = p3_before.value - p3_after.value
    verdicts.append(Verdict(
        name="reference-3-probability-decreased",
        passed=gap > p3_before.error_bound + p3_after.error_bound,
        detail=f"reduction lowered the success probability by {gap:.6f}"))
    return report


def _match_verdict(name, got, want) -> Verdict:
    return Verdict(name=name, passed=abs(got - want) <= REFERENCE_VALUE_TOL,
                   detail=f"computed {got:.6f}, expected {want:.4f}, "
                          f"|diff| = {abs(got - want):.2e}")


def cmd_reduce(config: ExperimentConfig) -> ExperimentReport:
    """Reduce a matrix from file and report the transform, its statistics,
    and the structural checks."""
    report = ExperimentReport(command="reduce", config=asdict(config))
    gated, _ = _triangular_from(load_matrix_csv(config.matrix_path))
    result = lll_reduce(gated, LLLParams(delta=config.delta))
    check = is_lll_reduced(result.gated, config.delta)
    defect_before = orthogonality_defect(gated)
    defect_after = orthogonality_defect(result.gated)
    report.cases.append({
        "matrix_digest": matrix_digest(gated.source),
        "r": gated.source,
        "r_bar": result.r_bar,
        "z": result.z,
        "q_bar": result.q_bar,
        "stats": result.stats,
        "delta": config.delta,
        "reconstruction_error": result.reconstruction_error,
        "det_drift": result.det_drift,
        "defect_before": defect_before,
        "defect_after": defect_after,
        "size_ok": check.size_ok,
        "lovasz_ok": check.lovasz_ok,
    })
    # lll_reduce refuses a result that fails either test, so both echo a pass
    report.verdicts.append(Verdict(
        name="reduce-reconstruction", passed=True,
        detail=f"relative error {result.reconstruction_error:.3e}"))
    report.verdicts.append(Verdict(
        name="reduce-determinant-preserved", passed=True,
        detail=f"relative drift {result.det_drift:.3e}"))
    report.verdicts.append(Verdict(
        name="reduce-output-is-reduced", passed=check.is_reduced,
        detail=f"size_ok={check.size_ok} lovasz_ok={check.lovasz_ok} "
               f"first_violation={check.first_violation}"))
    return report


def cmd_decode(config: ExperimentConfig) -> ExperimentReport:
    """Decode an observation with every available decoder and check the
    brute-force optimality bound where feasible."""
    report = ExperimentReport(command="decode", config=asdict(config))
    matrix = load_matrix_csv(config.matrix_path)
    y = load_vector_csv(config.y_path)
    gated, q1 = _triangular_from(matrix)
    if y.shape[0] != matrix.shape[0]:
        raise DimensionMismatchError(
            f"observation length {y.shape[0]} does not match {matrix.shape[0]} rows")
    inst = ILSInstance(r=gated, y_tilde=y if q1 is None else q1.T @ y)
    zf = zf_decode(inst)
    sic = sic_decode(inst)
    case = {
        "matrix_digest": matrix_digest(matrix),
        "r": inst.r,
        "y_tilde": inst.y_tilde,
        "zf_estimate": zf.estimate,
        "zf_residual": zf.residual,
        "sic_estimate": sic.estimate,
        "sic_residual": sic.residual,
    }
    if inst.n <= BRUTE_FORCE_MAX_DIM:
        best = ils_brute_force(inst)
        case["optimal_estimate"] = best.estimate
        case["optimal_residual"] = best.residual
        report.verdicts.append(Verdict(
            name="decode-brute-force-lower-bound",
            passed=best.residual <= zf.residual + BRUTE_FORCE_RESIDUAL_SLACK
            and best.residual <= sic.residual + BRUTE_FORCE_RESIDUAL_SLACK,
            detail=f"optimal {best.residual:.6f}, zf {zf.residual:.6f}, "
                   f"sic {sic.residual:.6f}"))
    report.cases.append(case)
    return report


def cmd_pzf(config: ExperimentConfig) -> ExperimentReport:
    """Estimate the success probability of one matrix with one method."""
    report = ExperimentReport(command="pzf", config=asdict(config))
    gated, _ = _triangular_from(load_matrix_csv(config.matrix_path))
    sigma = config.sigma if config.sigma is not None else 1.0
    [est] = _dispatch_estimator((gated,), sigma, config.method, config.trials,
                                RngSpec(seed=config.seed))
    report.cases.append({
        "matrix_digest": matrix_digest(gated.source),
        "r": gated.source,
        "sigma": sigma,
        "estimate": est,
    })
    return report


def _sweep_case(config: ExperimentConfig, index: int) -> dict:
    if config.matrix_path:
        gated, _ = _triangular_from(load_matrix_csv(config.matrix_path))
        if gated.r.shape[0] != 2:
            raise DimensionMismatchError("sweep-delta covers 2x2 matrices; larger "
                                         "reductions are not ordered by delta in general")
        sigma = config.sigma if config.sigma is not None else 1.0
    else:
        r, sigma = random_unreduced_2x2(case_spec(config.seed, index))
        gated = _gate(r)  # once for the whole grid
    points = []
    for delta in config.delta_grid or DEFAULT_DELTA_GRID:
        red = lll_reduce(gated, LLLParams(delta=delta))
        est = pzf_quadrature(red.gated, sigma)
        points.append({"delta": delta, "value": est.value,
                       "error_bound": est.error_bound,
                       "swaps": red.stats.swaps,
                       "size_reductions": red.stats.size_reductions})
    monotone = all(
        points[j]["value"] >= points[i]["value"]
        - (points[i]["error_bound"] + points[j]["error_bound"])
        for i in range(len(points)) for j in range(i + 1, len(points)))
    return {"index": index, "matrix_digest": matrix_digest(gated.source), "sigma": sigma,
            "points": points, "monotone": monotone}


def cmd_sweep_delta(config: ExperimentConfig) -> ExperimentReport:
    """Success probability of the reduced matrix across a delta grid, with
    a per-instance monotonicity verdict."""
    count = 1 if config.matrix_path else config.trials if config.trials is not None else 200
    cases = _run_cases(_sweep_case, config, count)
    report = ExperimentReport(command="sweep-delta", config=asdict(config), cases=cases)
    bad = [c["index"] for c in cases if not c["monotone"]]
    report.verdicts.append(Verdict(
        name="sweep-delta-monotone",
        passed=not bad,
        detail=f"{len(cases) - len(bad)}/{len(cases)} instances monotone"
               + (f"; first violation at index {bad[0]}" if bad else "")))
    return report


def _invariance_case(config: ExperimentConfig, index: int) -> dict:
    n = config.n or (2 if index % 2 == 0 else 3)
    inst = random_instance(case_spec(config.seed, index), n)
    base = zf_decode(inst)
    # each factor passes the gate once, in its qr_factorize call, and its
    # gated value goes to every user
    gated = inst.gated
    p_base = pzf_quadrature(gated, inst.sigma)
    defect_base = orthogonality_defect(gated)
    case = {"index": index, "n": n, "sigma": inst.sigma,
            "matrix_digest": matrix_digest(inst.r),
            "residual": base.residual, "p": p_base.value}
    for name, strategy in (("sqrd", sqrd), ("vblast", vblast)):
        red = strategy(gated)
        gated_bar = red.gated
        y_bar = red.q_bar.T @ inst.y_tilde
        reduced = zf_decode(ILSInstance(r=gated_bar, y_tilde=y_bar))
        lifted = lift_estimate(red.z, reduced.estimate)
        p_red = pzf_quadrature(gated_bar, inst.sigma)
        case[name] = {
            "estimate_identical": bool(np.array_equal(lifted, base.estimate)),
            "residual_delta": abs(reduced.residual - base.residual),
            "defect_delta": abs(orthogonality_defect(gated_bar) - defect_base),
            "p_delta": abs(p_red.value - p_base.value),
            "p_budget": p_red.error_bound + p_base.error_bound,
            "swaps": red.stats.swaps,
        }
    return case


def cmd_invariance(config: ExperimentConfig) -> ExperimentReport:
    """Check that permutation reorderings leave the decoder's answer, the
    residual, the orthogonality defect, and the success probability
    unchanged on a random ensemble."""
    count = config.trials if config.trials is not None else 1000
    cases = _run_cases(_invariance_case, config, count)
    report = ExperimentReport(command="invariance", config=asdict(config), cases=cases)
    checks = {
        "estimate-identity": lambda c, s: c[s]["estimate_identical"],
        "residual-invariant": lambda c, s: c[s]["residual_delta"] <= RESIDUAL_INVARIANCE_TOL,
        "defect-invariant": lambda c, s: c[s]["defect_delta"] <= DEFECT_INVARIANCE_TOL,
        "probability-invariant": lambda c, s: c[s]["p_delta"] <= c[s]["p_budget"],
    }
    for check_name, predicate in checks.items():
        failures = sum(1 for c in cases for s in ("sqrd", "vblast")
                       if not predicate(c, s))
        total = 2 * len(cases)
        report.verdicts.append(Verdict(
            name=f"invariance-{check_name}",
            passed=failures == 0,
            detail=f"{total - failures}/{total} reduction runs pass"))
    return report


def _ensemble_plan(config: ExperimentConfig) -> tuple:
    """ensemble's (n, m, cases per sigma, sigma grid), defaults resolved."""
    n = config.n or 2
    return (n, config.m or n, config.trials if config.trials is not None else 50,
            (config.sigma,) if config.sigma is not None else DEFAULT_SIGMA_GRID)


def _ensemble_case(config: ExperimentConfig, index: int) -> dict:
    n, m, count, sigmas = _ensemble_plan(config)
    sigma = sigmas[index // count]
    spec = case_spec(config.seed, index)
    f = qr_factorize(random_model_matrix(spec, m, n))
    red = lll_reduce(f.gated, LLLParams(delta=config.delta))
    before, after = _dispatch_estimator((f.gated, red.gated), sigma, config.method, 50_000,
                                        role_spec(spec, _ROLE_MEASUREMENT))
    budget = before.error_bound + after.error_bound
    if after.value > before.value + budget:
        outcome = "increased"
    elif after.value < before.value - budget:
        outcome = "decreased"
    else:
        outcome = "unchanged"
    return {"index": index, "sigma": sigma, "matrix_digest": matrix_digest(f.r),
            "p_before": before.value, "p_after": after.value,
            "error_budget": budget, "outcome": outcome,
            "stats": red.stats}


def cmd_ensemble(config: ExperimentConfig) -> ExperimentReport:
    """Random-model survey: how often does the reduction raise, keep, or
    lower the success probability?  Descriptive for n >= 3; for n = 2 a
    decrease would contradict a guarantee, so it fails the run."""
    n, _, count, sigmas = _ensemble_plan(config)
    if n > QUADRATURE_MAX_DIM:  # past the quadrature's reach the run samples, and echoes it
        config = replace(config, method="empirical")
    cases = _run_cases(_ensemble_case, config, len(sigmas) * count)  # case i has sigmas[i // count]
    report = ExperimentReport(command="ensemble", config=asdict(config), cases=list(cases))
    summary = []
    for k, sigma in enumerate(sigmas):
        outcomes = [c["outcome"] for c in cases[k * count:(k + 1) * count]]
        tally = {o: outcomes.count(o) for o in ("increased", "unchanged", "decreased")}
        summary.append({"sigma": sigma, "count": count, **tally})
        if n == 2:
            report.verdicts.append(Verdict(
                name=f"ensemble-no-decrease-sigma-{sigma}",
                passed=tally["decreased"] == 0,
                detail=f"{tally['decreased']} decreases in {count} runs"))
    report.cases.append({"summary": summary})
    return report


def _run_cases(case, config: ExperimentConfig, count: int) -> list:
    """[case(config, i) for i in range(count)], on min(parallel, count, cores) workers."""
    work = partial(case, config)
    workers = min(config.parallel, count, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, range(count), chunksize=max(1, count // (4 * workers))))
    return [work(i) for i in range(count)]


# ---------------------------------------------------------------------------
# argument parsing and entry point

# ExperimentConfig field -> (flag, add_argument keywords).  Every flag's
# default is the field's dataclass default, so a subcommand that lacks a
# flag still echoes the full configuration.
_FLAGS = {
    "matrix_path": ("--matrix", dict(help="CSV matrix file")),
    "y_path": ("--y", dict(help="CSV observation vector file")),
    "sigma": ("--sigma", dict(type=float, help="noise standard deviation")),
    "delta": ("--delta", dict(type=float, help="reduction quality parameter in (0.25, 1]")),
    "delta_grid": ("--delta-grid", dict(help="comma-separated increasing deltas")),
    "method": ("--method", dict(choices=METHODS)),
    "trials": ("--trials", dict(type=int,
                                help="sample/instance count (default depends on the command)")),
    "seed": ("--seed", dict(type=int)),
    "n": ("--n", dict(type=int, help="problem dimension")),
    "m": ("--m", dict(type=int, help="model rows for ensembles")),
    "parallel": ("--parallel", dict(type=int, help="worker processes, capped by cases and cores")),
    "out_path": ("--out", dict(help="report file path")),
    "out_format": ("--format", dict(choices=("json", "csv"))),
}

# subcommand -> (command function, description, {ExperimentConfig field it
# takes: when its runs read it}), every subcommand also taking the _OUTPUT
# fields.  "When" is a (test for the runs that read the field, their name)
# pair: every run reads an _EVERY field, and a _REQUIRED one, which it cannot
# do without.  A flag given to any other run would be echoed but not read,
# so it is refused.
_EVERY = (lambda c: True, "in every run")
_REQUIRED = (lambda c: True, "in every run")
_SAMPLING = (lambda c: c.method in ("mc", "empirical"), "only with --method mc or empirical")
_RANDOM = (lambda c: not c.matrix_path, "only without --matrix, which sweeps one matrix")
_OUTPUT = dict(out_path=_EVERY, out_format=_EVERY)
SUBCOMMANDS = {
    "reproduce": (cmd_reproduce, "run the bundled reference cases against their pinned values",
                  dict(delta=_EVERY)),
    "reduce": (cmd_reduce, "reduce a matrix and report the transform and checks",
               dict(matrix_path=_REQUIRED, delta=_EVERY)),
    "decode": (cmd_decode, "decode an observation with the ZF, SIC, and brute-force decoders",
               dict(matrix_path=_REQUIRED, y_path=_REQUIRED)),
    "pzf": (cmd_pzf, "estimate the success probability of one matrix",
            dict(matrix_path=_REQUIRED, sigma=_EVERY, method=_EVERY, trials=_SAMPLING,
                 seed=_SAMPLING)),
    "sweep-delta": (cmd_sweep_delta, "success probability across a delta grid",
                    dict(matrix_path=_EVERY,
                         sigma=(lambda c: bool(c.matrix_path), "only with --matrix"),
                         delta_grid=_EVERY, trials=_RANDOM, seed=_RANDOM, parallel=_RANDOM)),
    "invariance": (cmd_invariance, "permutation-reduction invariance suite on random instances",
                   dict(trials=_EVERY, seed=_EVERY, n=_EVERY, parallel=_EVERY)),
    "ensemble": (cmd_ensemble, "survey how the reduction moves the success probability",
                 dict(sigma=_EVERY, delta=_EVERY,
                      method=(lambda c: c.method == "empirical" or (
                          c.method == "quad" and c.n <= QUADRATURE_MAX_DIM),
                          f"only as empirical, or as quad up to n = {QUADRATURE_MAX_DIM}"),
                      trials=_EVERY, seed=_EVERY, n=_EVERY, m=_EVERY, parallel=_EVERY)),
}


def _refuse_unread(config: ExperimentConfig, given=None):
    """Refuse each given flag the run would not read.  ``given`` holds the parsed
    flags; for a config built in code, a field off its default counts as given."""
    if given is None:
        given = {f.name for f in fields(config) if getattr(config, f.name) != f.default}
    takes = {**SUBCOMMANDS[config.command][2], **_OUTPUT}
    for name in [name for name in _FLAGS if name in given]:  # in field order
        reads, runs = takes.get(name, (lambda c: False, "in no run"))
        if not reads(config):
            raise ValueError(f"{config.command} reads {_FLAGS[name][0]} {runs}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its subcommands and
    flags come from SUBCOMMANDS and _FLAGS, and run looks a subcommand's
    function up at call time."""
    parser = argparse.ArgumentParser(
        prog="zfprob",
        description="Lattice reductions, integer least-squares decoders, and "
                    "success-probability estimators with replayable reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, takes) in SUBCOMMANDS.items():
        command = sub.add_parser(name, help=desc, description=desc,
                                 argument_default=argparse.SUPPRESS)
        for dest in {**takes, **_OUTPUT}:
            flag, kwargs = _FLAGS[dest]
            command.add_argument(flag, dest=dest, **kwargs)
    return parser


def config_from_args(args) -> ExperimentConfig:
    given = dict(vars(args))
    grid = given.pop("delta_grid", None)
    if grid is not None:
        try:
            given["delta_grid"] = tuple(float(tok) for tok in grid.split(","))
        except ValueError:
            raise InvalidGridError(f"could not parse delta grid {grid!r}") from None
    config = ExperimentConfig(**given)
    _refuse_unread(config, given)
    return config


def run(config: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    report = SUBCOMMANDS[config.command][0](config)
    report.duration_seconds = time.perf_counter() - start
    return report


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        report = run(config)
    except SystemExit as exc:  # argparse has printed the help (0) or a usage error (2)
        return exc.code
    except (LatticeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if config.out_format == "json" else report.to_csv()
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)
    failed = report.failed()
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: {v.detail}", file=sys.stderr)
    if failed:
        print(f"first failing verdict: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
