import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import zfprob
import zfprob.cli as cli_module
from zfprob.cli import (
    _FLAGS,
    SUBCOMMANDS,
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    _ensemble_case,
    _invariance_case,
    _plain,
    _sweep_case,
    _triangular_from,
    cmd_reproduce,
    load_matrix_csv,
    load_vector_csv,
    main,
    matrix_digest,
    run,
)
from zfprob.decode import ILSInstance, lift_estimate, zf_decode
from zfprob.ensembles import (
    case_spec,
    random_instance,
    random_triangular,
    random_unreduced_2x2,
)
from zfprob.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidGridError,
    ParseError,
)
from zfprob.linalg import qr_factorize
from zfprob.probability import ProbabilityEstimate, pzf_quadrature
from zfprob.reduction import (
    LLLParams,
    ReductionStats,
    lll_reduce,
    orthogonality_defect,
    sqrd,
    vblast,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def comparable(report, *drop):
    # replay payloads from separate runs differ only in where they were written
    payload = report.replay_dict()
    for key in ("out_path", *drop):
        payload["config"].pop(key)
    return payload


class TestLoaders:
    def test_basic_matrix(self, tmp_path):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[4.0, 9.0], [0.0, 1.0]])

    def test_ragged_row_reported_with_line(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(ParseError) as err:
            load_matrix_csv(path)
        assert err.value.line == 2

    def test_whitespace_and_scientific_notation(self, tmp_path):
        path = write(tmp_path, "m.csv", "1e0, 2.5\n-3,4\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[1.0, 2.5], [-3.0, 4.0]])

    def test_bad_token_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,abc\n")
        with pytest.raises(ParseError) as err:
            load_matrix_csv(path)
        assert err.value.line == 2 and err.value.column == 2

    def test_empty_field_exits_2_naming_line_and_column(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n1,,2\n")
        assert main(["reduce", "--matrix", path]) == 2
        assert "empty field (line 2, column 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--matrix", "--y"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_exits_2_naming_line_and_column(self, tmp_path, capsys, token, flag):
        # float() parses each of these; the loader refuses them where they stand
        matrix, y = "4,9\n0,1\n", "0.4\n-0.7\n"
        if flag == "--matrix":
            matrix, where = f"4,9\n0,{token}\n", "(line 2, column 2)"
        else:
            y, where = f"0.4\n{token}\n", "(line 2, column 1)"
        argv = ["decode", "--matrix", write(tmp_path, "m.csv", matrix),
                "--y", write(tmp_path, "y.csv", y)]
        assert main(argv) == 2
        assert f"error: not a finite number: {token!r} {where}" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "m.csv", "\n\n")
        with pytest.raises(ParseError):
            load_matrix_csv(path)

    def test_vector_column_and_row(self, tmp_path):
        col = write(tmp_path, "v1.csv", "1\n2\n3\n")
        np.testing.assert_array_equal(load_vector_csv(col), [1.0, 2.0, 3.0])
        row = write(tmp_path, "v2.csv", "1,2,3\n")
        np.testing.assert_array_equal(load_vector_csv(row), [1.0, 2.0, 3.0])
        full = write(tmp_path, "v3.csv", "1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_vector_csv(full)


class TestReproduce:
    def test_all_verdicts_pass(self):
        report = cmd_reproduce(ExperimentConfig(command="reproduce"))
        assert report.verdicts and all(v.passed for v in report.verdicts)
        assert {c["case"] for c in report.cases} == {
            "reference-1", "reference-2", "reference-3"}

    def test_via_main_exit_zero(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["command"] == "reproduce"
        assert "[pass]" in out.err


class TestReduceCommand:
    def test_balanced_output_and_swap_count(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["reduce", "--matrix", path, "--delta", "0.75"]) == 0
        payload = json.loads(capsys.readouterr().out)
        case = payload["cases"][0]
        assert case["stats"]["swaps"] == 1
        np.testing.assert_allclose(case["r_bar"],
                                   [[math.sqrt(2), 0.0], [0.0, 2 * math.sqrt(2)]],
                                   atol=1e-9)

    def test_identity_zero_work(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        assert main(["reduce", "--matrix", path]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert case["stats"] == {"size_reductions": 0, "swaps": 0, "iterations": 0}

    def test_three_by_three(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "3,1.5,0\n0,3,-1.51\n0,0,3\n")
        assert main(["reduce", "--matrix", path]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert case["z"][1][2] == 1
        assert case["stats"]["swaps"] == 0

    def test_scaled_factor_gives_finite_strict_json(self, tmp_path, capsys):
        r = random_triangular(case_spec(96, 0), 48)
        path = write(tmp_path, "m.csv",
                     "\n".join(",".join(repr(v) for v in row) for row in (1e-8 * r).tolist()))
        assert main(["reduce", "--matrix", path]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        case = json.loads(capsys.readouterr().out, parse_constant=refuse)["cases"][0]
        assert case["defect_before"] == pytest.approx(orthogonality_defect(r), rel=1e-12)
        assert math.isfinite(case["defect_after"])

    def test_negative_pivot_file_is_reduced_as_given(self, tmp_path, capsys):
        # the reduction flips the pivot itself and q_bar carries the flip, so
        # only the echo of the file and q_bar's row differ from the positive file
        cases = []
        for text in ("4,9\n0,1\n", "-4,-9\n0,1\n"):
            assert main(["reduce", "--matrix", write(tmp_path, "m.csv", text)]) == 0
            cases.append(json.loads(capsys.readouterr().out)["cases"][0])
        positive, negative = cases
        for key in ("r_bar", "z", "stats", "reconstruction_error", "det_drift",
                    "defect_before", "defect_after"):
            assert negative[key] == positive[key]
        assert negative["r"] == [[-4.0, -9.0], [0.0, 1.0]]
        assert negative["matrix_digest"] == matrix_digest(negative["r"])
        np.testing.assert_array_equal(negative["q_bar"],
                                      np.array([[-1.0], [1.0]]) * positive["q_bar"])
        r = np.array(negative["r"])
        np.testing.assert_allclose(np.array(negative["q_bar"]).T @ r @ negative["z"],
                                   negative["r_bar"], atol=1e-12)

    def test_roundoff_file_is_echoed_and_measured_as_given(self, tmp_path, capsys):
        # the file passes the gate once, as loaded: the echo keeps its
        # roundoff, and the contract is measured against it, as lll_reduce
        # measures it on the loaded array
        path = write(tmp_path, "m.csv", "4,9\n1e-12,1\n")
        assert main(["reduce", "--matrix", path]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        assert case["r"] == [[4.0, 9.0], [1e-12, 1.0]]
        assert case["matrix_digest"] == matrix_digest(case["r"])
        result = lll_reduce(load_matrix_csv(path))
        assert case["reconstruction_error"] == result.reconstruction_error > 1e-13
        assert case["det_drift"] == result.det_drift

    def test_gate_passes_are_pinned(self, tmp_path, capsys, gate_passes):
        # _triangular_from's gate on the file, whose value every reader of r
        # takes, and lll_reduce's gate on its output, whose value every
        # reader of r_bar takes
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["reduce", "--matrix", path]) == 0
        assert gate_passes[0] == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["reduce", "--matrix", "/no/such/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_factor_the_reduction_cannot_stand_behind_exits_2(self, tmp_path, capsys):
        # pivots 10^U(-10, 4): the float loop loses z, and the result fails
        # its reconstruction test, which used to print a failed verdict
        rng = np.random.default_rng([77, 0])
        r = np.triu(rng.standard_normal((4, 4)))
        np.fill_diagonal(r, 10.0 ** rng.uniform(-10, 4, size=4))
        path = write(tmp_path, "m.csv",
                     "\n".join(",".join(repr(v) for v in row) for row in r.tolist()))
        assert main(["reduce", "--matrix", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: reconstruction error ") and "exceeds 1e-09" in err

    def test_transform_out_of_int64_range_exits_2(self, tmp_path, capsys):
        # z[0, 2] would be about 3.7e12 * 7.1e12; int64 arithmetic used to wrap it
        path = write(tmp_path, "m.csv", "1e-13,0.37,0\n0,1e-13,0.71\n0,0,1\n")
        assert main(["reduce", "--matrix", path]) == 2
        assert "int64" in capsys.readouterr().err


class TestDecodeCommand:
    def test_rectangular_model_is_factorized(self, tmp_path, capsys):
        a = np.array([[1.0, 0.5], [0.3, 2.0], [-1.0, 1.0]])
        y = np.array([0.4, -0.7, 1.1])
        path = write(tmp_path, "a.csv", "1,0.5\n0.3,2\n-1,1\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n1.1\n")
        assert main(["decode", "--matrix", path, "--y", y_path]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        f = qr_factorize(a)
        np.testing.assert_array_equal(case["r"], f.r)
        np.testing.assert_array_equal(case["y_tilde"], f.q1.T @ y)
        assert case["optimal_residual"] <= case["zf_residual"] + 1e-12

    def test_triangular_model_goes_through_the_gate(self, tmp_path, capsys):
        # the gate flips the negative-pivot row, as QR would, and clears
        # roundoff below the diagonal rather than factoring it
        path = write(tmp_path, "a.csv", "-2,1\n1e-12,3\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n")
        assert main(["decode", "--matrix", path, "--y", y_path]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        np.testing.assert_array_equal(case["r"], [[2.0, -1.0], [0.0, 3.0]])
        np.testing.assert_array_equal(case["y_tilde"], [-0.4, -0.7])
        assert "sigma" not in case  # no decoder reads a noise level

    def test_sigma_is_refused(self, tmp_path, capsys):
        # no decoder reads a noise level, so the flag would only be echoed
        path = write(tmp_path, "a.csv", "4,9\n0,1\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n")
        assert main(["decode", "--matrix", path, "--y", y_path, "--sigma", "0.5"]) == 2
        assert "--sigma" in capsys.readouterr().err

    def test_triangular_model_with_tiny_pivot_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "a.csv", "-2,1\n0,1e-15\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n")
        assert main(["decode", "--matrix", path, "--y", y_path]) == 2
        assert "pivot 1" in capsys.readouterr().err

    def test_rectangular_model_checks_observation_length(self, tmp_path, capsys):
        path = write(tmp_path, "a.csv", "1,0.5\n0.3,2\n-1,1\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n")
        assert main(["decode", "--matrix", path, "--y", y_path]) == 2
        assert "observation length 2" in capsys.readouterr().err

    def test_infinite_sigma_exits_2(self, tmp_path, capsys):
        # decode takes no --sigma at all, so any value is a usage error
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        y_path = write(tmp_path, "y.csv", "0.4\n-0.7\n")
        assert main(["decode", "--matrix", path, "--y", y_path, "--sigma", "inf"]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_help_lists_no_sigma(self, capsys):
        assert main(["decode", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--matrix" in out and "--sigma" not in out


def test_a_row_flip_changes_no_bit_of_decode_or_pzf(tmp_path, capsys):
    # rows 0 and 1 have negative pivots and zeros; the flips once echoed
    # -0.0 in decode's r and y_tilde, and moved pzf's mc estimate in its
    # last bits (0.20430316550777744 against 0.20430316550777747)
    negative = write(tmp_path, "neg.csv", "-3,0,-1,0\n0,-2,0,-1\n0,0,1,-1\n0,0,0,4\n")
    positive = write(tmp_path, "pos.csv", "3,0,1,0\n0,2,0,1\n0,0,1,-1\n0,0,0,4\n")
    y_path = write(tmp_path, "y.csv", "1.5\n0\n-0.5\n2.5\n")
    assert main(["decode", "--matrix", negative, "--y", y_path]) == 0
    case = json.loads(capsys.readouterr().out)["cases"][0]
    assert case["r"] == [[3.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, 4.0]]
    assert case["y_tilde"] == [-1.5, 0.0, -0.5, 2.5]
    # == takes -0.0 for 0.0; the text does not
    assert "-0.0" not in json.dumps([case["r"], case["y_tilde"]])
    estimates = []
    for path in (negative, positive):
        assert main(["pzf", "--matrix", path, "--sigma", "1", "--method", "mc",
                     "--trials", "20000", "--seed", "7"]) == 0
        estimates.append(json.loads(capsys.readouterr().out)["cases"][0]["estimate"])
    assert estimates[0] == estimates[1]
    assert estimates[0]["value"].hex() == (0.20430316550777747).hex()


@pytest.mark.parametrize("argv, passes", [
    (["pzf", "--matrix", "M"], 1),
    (["pzf", "--matrix", "A"], 2),
    (["pzf", "--matrix", "M", "--method", "mc", "--trials", "2000"], 3),
    (["decode", "--matrix", "M", "--y", "Y"], 1),
    (["decode", "--matrix", "A", "--y", "YA"], 2),
    (["sweep-delta", "--matrix", "M"], 6),
    (["reproduce"], 9),
], ids=["pzf", "pzf-model", "pzf-mc", "decode", "decode-model", "sweep-delta", "reproduce"])
def test_each_command_gates_each_factor_once(argv, passes, tmp_path, capsys, gate_passes):
    # reduce's count is pinned in TestReduceCommand.  A triangular file
    # passes the gate where it is read; a model file fails that pass and its
    # QR factor passes once; each reduced factor passes once, inside its
    # reduction (five in the sweep's grid).  The mc sampler gates its unit
    # factor again, so that the QR of its ordering, one more pass, stays at
    # unit scale: 3 in all.  reproduce: its three factors, the size-reduced
    # factor in size_reduce_entry and in pzf_quadrature, the diagonal part
    # of case 1 and the three LLL outputs
    files = {"M": write(tmp_path, "m.csv", "4,9\n0,1\n"),
             "A": write(tmp_path, "a.csv", "1,2\n3,4\n5,7\n"),
             "Y": write(tmp_path, "y.csv", "0.4\n-0.7\n"),
             "YA": write(tmp_path, "ya.csv", "0.4\n-0.7\n1.1\n")}
    assert main([files.get(a, a) for a in argv]) == 0
    assert gate_passes[0] == passes


class TestPzfCommand:
    def test_quad_reference_value(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["pzf", "--matrix", path, "--sigma", "0.5",
                     "--method", "quad"]) == 0
        est = json.loads(capsys.readouterr().out)["cases"][0]["estimate"]
        assert abs(est["value"] - 0.3413) < 5e-4

    def test_diagonal_refusal_names_the_entry_as_a_float(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["pzf", "--matrix", path, "--method", "diagonal"]) == 2
        assert capsys.readouterr().err == "error: entry (0, 1) = 9.0 is non-negligible\n"

    def test_a_model_whose_r_leaves_the_float_range_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "a.csv", "1.7e308\n1.7e308\n")
        assert main(["pzf", "--matrix", path]) == 2
        assert capsys.readouterr().err == "error: R is out of floating-point range\n"

    def test_diagonal_and_quad_agree(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1.5,0\n0,2.5\n")
        assert main(["pzf", "--matrix", path, "--sigma", "0.7",
                     "--method", "diagonal"]) == 0
        diag = json.loads(capsys.readouterr().out)["cases"][0]["estimate"]["value"]
        assert main(["pzf", "--matrix", path, "--sigma", "0.7",
                     "--method", "quad"]) == 0
        quad = json.loads(capsys.readouterr().out)["cases"][0]["estimate"]["value"]
        assert abs(diag - quad) <= 1e-6

    @pytest.mark.parametrize("method", ["quad", "mc", "empirical"])
    def test_negative_pivot_file_gives_the_positive_estimate(self, method, tmp_path, capsys):
        cases = []
        for text in ("4,9\n0,1\n", "4,9\n0,-1\n"):
            assert main(["pzf", "--matrix", write(tmp_path, "m.csv", text), "--sigma", "0.5",
                         "--method", method] + ([] if method == "quad" else ["--trials", "2000"]))\
                == 0
            cases.append(json.loads(capsys.readouterr().out)["cases"][0])
        positive, negative = cases
        assert negative["estimate"] == positive["estimate"]
        assert negative["r"] == [[4.0, 9.0], [0.0, -1.0]]
        assert negative["matrix_digest"] == matrix_digest(negative["r"])

    def test_mc_replay_bit_exact(self, tmp_path):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        args = ["pzf", "--matrix", path, "--sigma", "0.5", "--method", "mc",
                "--trials", "50000", "--seed", "31"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        a = ExperimentReport.from_json(open(out1).read())
        b = ExperimentReport.from_json(open(out2).read())
        assert comparable(a) == comparable(b)
        assert a.cases[0]["estimate"]["seed"] == 31

    def test_infinite_sigma_exits_2(self, tmp_path, capsys):
        # inf would be echoed as "sigma": Infinity, which is not strict JSON
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["pzf", "--matrix", path, "--sigma", "inf"]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,sigma", [
        # the panels do not run: the density's volume (2 pi sigma^2)^{n/2} underflows to 0
        (["pzf", "--matrix", "M", "--sigma", "1e-300"], "1e-300"),
        (["ensemble", "--trials", "1", "--sigma", "1e-300"], "1e-300"),
        # the volume is subnormal and |det R| / volume overflows
        (["pzf", "--matrix", "M", "--sigma", "1e-155"], "1e-155"),
        # the finite base 2 pi sigma^2 overflows under the power n/2 = 2
        (["ensemble", "--n", "4", "--trials", "1", "--sigma", "1e100"], "1e+100"),
        # sigma^2 itself overflows: the volume is inf and the prefactor 0
        (["pzf", "--matrix", "M", "--sigma", "1e160"], "1e+160"),
        (["ensemble", "--trials", "1", "--sigma", "1e160"], "1e+160"),
    ])
    def test_sigma_beyond_the_density_range_answers(self, argv, sigma, tmp_path, capsys):
        matrix = write(tmp_path, "m.csv", "4,9\n0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([matrix if a == "M" else a for a in argv]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        pzf = argv[0] == "pzf"
        value = case["estimate"]["value"] if pzf else case["p_before"]
        # P_ZF is 1 at tiny sigma and vanishes at huge sigma
        assert (value == 1.0) if float(sigma) < 1.0 else (value < 1e-100)
        # the bracket's half-width, floored at n * 1e-12, not the panels' 1e-8
        assert (case["estimate"]["error_bound"] if pzf else case["error_budget"]) <= 1e-11

    @pytest.mark.parametrize("sigma", ["1e-300", "1e-155", "1e160"])
    def test_monte_carlo_needs_no_density(self, sigma, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pzf", "--matrix", path, "--sigma", sigma, "--method", "mc",
                         "--trials", "2000"]) == 0
        value = json.loads(capsys.readouterr().out)["cases"][0]["estimate"]["value"]
        # P_ZF is 1 at tiny sigma and |det R| / (2 pi sigma^2) = 6.4e-321 at 1e160
        assert (value == 1.0) if float(sigma) < 1.0 else (6e-321 < value < 7e-321)

    def test_large_sigma_inside_the_density_range_answers(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["pzf", "--matrix", path, "--sigma", "1e150"]) == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["cases"][0]["estimate"]["value"] < 1e-290

    def test_empirical_needs_no_density(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["pzf", "--matrix", path, "--sigma", "1e-300", "--method", "empirical",
                     "--trials", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["cases"][0]["estimate"]["value"] == 1.0

    def test_quad_dimension_cap_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv",
                     "\n".join(",".join("1" if i == j else "0" for j in range(5))
                               for i in range(5)) + "\n")
        assert main(["pzf", "--matrix", path, "--method", "quad"]) == 2


class TestSweepCommand:
    def test_reference_matrix_constant_across_grid(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main(["sweep-delta", "--matrix", path, "--sigma", "0.5"]) == 0
        case = json.loads(capsys.readouterr().out)["cases"][0]
        values = [p["value"] for p in case["points"]]
        assert case["monotone"]
        for v in values:
            assert abs(v - 0.8388) < 5e-4
        assert max(values) - min(values) <= 2e-8

    def test_single_element_grid(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "2,1.2\n0,1\n")
        assert main(["sweep-delta", "--matrix", path, "--delta-grid", "0.75"]) == 0
        assert json.loads(capsys.readouterr().out)["cases"][0]["monotone"]

    def test_random_ensemble_monotone(self, capsys):
        assert main(["sweep-delta", "--trials", "15", "--seed", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(c["monotone"] for c in payload["cases"])

    def test_bad_grids_rejected(self):
        assert main(["sweep-delta", "--delta-grid", "0.9,0.5", "--trials", "1"]) == 2
        assert main(["sweep-delta", "--delta-grid", "0.1,0.5", "--trials", "1"]) == 2
        assert main(["sweep-delta", "--delta-grid", "", "--trials", "1"]) == 2
        assert main(["sweep-delta", "--delta-grid", "0.5,,0.75", "--trials", "1"]) == 2
        assert main(["sweep-delta", "--delta-grid", "0.5,", "--trials", "1"]) == 2
        with pytest.raises(InvalidGridError):
            ExperimentConfig(command="sweep-delta", delta=0.2)
        for grid in [(), (0.9, 0.5), (0.5, 0.5), (0.2, 0.5), (0.5, 1.01)]:
            with pytest.raises(InvalidGridError):
                ExperimentConfig(command="sweep-delta", delta_grid=grid)


class TestInvarianceCommand:
    def test_small_run_passes(self, capsys):
        assert main(["invariance", "--trials", "12", "--seed", "14"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {v["name"] for v in payload["verdicts"]}
        assert names == {"invariance-estimate-identity", "invariance-residual-invariant",
                         "invariance-defect-invariant", "invariance-probability-invariant"}
        assert all(v["passed"] for v in payload["verdicts"])

    def test_parallel_matches_sequential(self, tmp_path):
        base = ["invariance", "--trials", "8", "--seed", "3"]
        seq_out = str(tmp_path / "seq.json")
        par_out = str(tmp_path / "par.json")
        assert main(base + ["--out", seq_out]) == 0
        assert main(base + ["--parallel", "3", "--out", par_out]) == 0
        seq = ExperimentReport.from_json(open(seq_out).read())
        par = ExperimentReport.from_json(open(par_out).read())
        assert comparable(seq, "parallel") == comparable(par, "parallel")


    @pytest.mark.parametrize("cores", [None, 1, 2, 8])
    def test_workers_are_bounded_by_cases_and_cores(self, cores, monkeypatch, capsys):
        asked = []

        class SerialPool:
            # records the pool it was asked for and maps in this process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cores)
        argv = ["invariance", "--trials", "3", "--seed", "5"]
        assert main(argv + ["--parallel", "0"]) == 0
        seq = json.loads(capsys.readouterr().out)
        assert main(argv + ["--parallel", "64"]) == 0
        par = json.loads(capsys.readouterr().out)
        workers = min(3, cores or 1)
        assert asked == ([workers] if workers > 1 else [])
        assert par["cases"] == seq["cases"] and par["verdicts"] == seq["verdicts"]

    def test_dimension_above_the_quadrature_is_refused_before_any_instance(self, monkeypatch,
                                                                          capsys):
        drawn = []
        monkeypatch.setattr(cli_module, "random_instance", lambda *a: drawn.append(a))
        assert main(["invariance", "--n", "5", "--trials", "1"]) == 2
        assert drawn == []
        assert "quadrature supports n <= 4, got 5" in capsys.readouterr().err


class TestEnsembleCommand:
    def test_one_pool_serves_every_sigma(self, monkeypatch, capsys):
        opened = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        argv = ["ensemble", "--n", "2", "--trials", "3"]
        assert main(argv + ["--parallel", "0"]) == 0
        seq = json.loads(capsys.readouterr().out)
        assert opened == []
        assert main(argv + ["--parallel", "2"]) == 0
        par = json.loads(capsys.readouterr().out)
        assert len(opened) == 1  # the default grid has three sigmas
        assert len(seq["cases"]) == 3 * 3 + 1
        assert par["cases"] == seq["cases"] and par["verdicts"] == seq["verdicts"]

    @pytest.mark.parametrize("command", ["ensemble", "invariance", "sweep-delta"])
    def test_zero_trials_exits_2(self, command, capsys):
        # a batch of no cases has nothing to pass
        assert main([command, "--trials", "0"]) == 2
        assert "trials must be positive" in capsys.readouterr().err

    def test_two_dim_never_decreases(self, capsys):
        assert main(["ensemble", "--trials", "6", "--seed", "2", "--sigma", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v["passed"] for v in payload["verdicts"])
        summary = payload["cases"][-1]["summary"][0]
        assert summary["decreased"] == 0

    def test_planted_model_the_reduction_worsens_counts_as_a_decrease(self, monkeypatch,
                                                                       capsys):
        # reference 3 at sigma = 1: the reduction lowers P from 0.6105 to 0.6030
        monkeypatch.setattr(cli_module, "random_model_matrix",
                            lambda spec, m, n: np.array(cli_module.REFERENCE_3_R))
        assert main(["ensemble", "--n", "3", "--trials", "1", "--sigma", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"][0]["outcome"] == "decreased"
        assert payload["cases"][-1]["summary"][0]["decreased"] == 1
        assert payload["verdicts"] == []  # descriptive above n = 2

    def test_two_dim_decrease_fails_the_run(self, monkeypatch, capsys):
        # no 2x2 model can lower P, so the estimate pair is planted instead
        pair = [ProbabilityEstimate(value=v, method="quad", error_bound=1e-8, evaluations=1)
                for v in (0.9, 0.5)]
        monkeypatch.setattr(cli_module, "_dispatch_estimator", lambda *args: pair)
        assert main(["ensemble", "--trials", "1", "--sigma", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "[FAIL] ensemble-no-decrease-sigma-0.5: 1 decreases in 1 runs" in err
        assert "first failing verdict: ensemble-no-decrease-sigma-0.5" in err


class TestCaseFunctions:
    """Each batch case is a function of the echoed config and its index."""

    @pytest.mark.parametrize("argv,case", [
        (["sweep-delta", "--trials", "3", "--seed", "4"], _sweep_case),
        (["sweep-delta", "--matrix", "M", "--sigma", "0.5", "--delta-grid", "0.5,1"],
         _sweep_case),
        (["invariance", "--trials", "3", "--seed", "5"], _invariance_case),
        (["invariance", "--n", "3", "--trials", "2", "--seed", "5"], _invariance_case),
        (["ensemble", "--trials", "2", "--seed", "6"], _ensemble_case),
        (["ensemble", "--n", "5", "--trials", "1", "--sigma", "0.5"], _ensemble_case),
    ])
    def test_case_replays_from_the_echoed_config(self, argv, case, tmp_path, capsys):
        matrix = write(tmp_path, "m.csv", "4,9\n0,1\n")
        assert main([matrix if a == "M" else a for a in argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        cases = [c for c in payload["cases"] if "summary" not in c]
        assert cases
        config = ExperimentConfig(**payload["config"])
        for i, want in enumerate(cases):
            assert json.loads(json.dumps(case(config, i), default=_plain)) == want

    @pytest.mark.parametrize("config,cases,most", [
        (ExperimentConfig(command="invariance", n=2, trials=4), 4, 3),
        (ExperimentConfig(command="invariance", n=3, trials=4), 4, 3),
        (ExperimentConfig(command="sweep-delta", trials=4), 4, 6),
        (ExperimentConfig(command="ensemble", n=2, trials=2), 6, 2),
    ], ids=["invariance-n2", "invariance-n3", "sweep-delta", "ensemble-n2"])
    def test_batch_cases_gate_each_factor_once(self, config, cases, most, gate_passes):
        # invariance: qr_factorize's R in random_instance and, per ordering,
        # the reordered factor's QR, whose .gated values go on to the instance
        # and the reductions' results; sweep-delta: r once, and each of the
        # five r_bar once, inside lll_reduce; ensemble: the QR, whose .gated
        # value goes on to the estimators, and LLL's r_bar once, inside
        # lll_reduce
        case = {"invariance": _invariance_case, "sweep-delta": _sweep_case,
                "ensemble": _ensemble_case}[config.command]
        for i in range(cases):
            gate_passes[0] = 0
            case(config, i)
            assert 0 < gate_passes[0] <= most

    def test_matrix_sweep_checks_its_file_in_the_run(self, tmp_path, capsys):
        # the refusal names the factor's size, smaller or larger than 2x2
        for text, size in (("3,1.5,0\n0,3,-1.51\n0,0,3\n", "3x3"), ("2\n", "1x1")):
            path = write(tmp_path, "m.csv", text)
            config = ExperimentConfig(command="sweep-delta", matrix_path=path)
            with pytest.raises(DimensionMismatchError, match=f"2x2 .* gives a {size} one$"):
                _sweep_case(config, 0)
            assert main(["sweep-delta", "--matrix", path]) == 2
            assert f"gives a {size} one" in capsys.readouterr().err


def _invariance_reference(config, index):
    """An invariance case with every ordering decoded and estimated anew from
    plain arrays; returns the case and the two orderings' permutations."""
    n = config.n or (2 if index % 2 == 0 else 3)
    inst = random_instance(case_spec(config.seed, index), n)
    base = zf_decode(inst)
    p_base = pzf_quadrature(np.array(inst.r), inst.sigma)
    defect_base = orthogonality_defect(np.array(inst.r))
    case = {"index": index, "n": n, "sigma": inst.sigma,
            "matrix_digest": matrix_digest(inst.r),
            "residual": base.residual, "p": p_base.value}
    perms = []
    for name, strategy in (("sqrd", sqrd), ("vblast", vblast)):
        red = strategy(np.array(inst.r))
        r_bar = np.array(red.r_bar)
        reduced = zf_decode(ILSInstance(r=r_bar, y_tilde=red.q_bar.T @ inst.y_tilde))
        lifted = lift_estimate(red.z, reduced.estimate)
        p_red = pzf_quadrature(r_bar, inst.sigma)
        case[name] = {
            "estimate_identical": bool(np.array_equal(lifted, base.estimate)),
            "residual_delta": abs(reduced.residual - base.residual),
            "defect_delta": abs(orthogonality_defect(r_bar) - defect_base),
            "p_delta": abs(p_red.value - p_base.value),
            "p_budget": p_red.error_bound + p_base.error_bound,
            "swaps": red.stats.swaps,
        }
        perms.append(tuple(red.z.argmax(axis=0).tolist()))
    return case, perms


def _sweep_reference(config, index):
    """A sweep-delta case with every delta's factor estimated anew."""
    if config.matrix_path:
        gated, _ = _triangular_from(load_matrix_csv(config.matrix_path))
        source, r = gated.source, np.array(gated.r)
        sigma = config.sigma if config.sigma is not None else 1.0
    else:
        r, sigma = random_unreduced_2x2(case_spec(config.seed, index))
        source = r
    points = []
    for delta in config.delta_grid or cli_module.DEFAULT_DELTA_GRID:
        red = lll_reduce(r, LLLParams(delta=delta))
        est = pzf_quadrature(np.array(red.r_bar), sigma)
        points.append({"delta": delta, "value": est.value,
                       "error_bound": est.error_bound,
                       "swaps": red.stats.swaps,
                       "size_reductions": red.stats.size_reductions})
    monotone = all(
        points[j]["value"] >= points[i]["value"]
        - (points[i]["error_bound"] + points[j]["error_bound"])
        for i in range(len(points)) for j in range(i + 1, len(points)))
    return {"index": index, "matrix_digest": matrix_digest(source), "sigma": sigma,
            "points": points, "monotone": monotone}


class TestEstimateReuse:
    """A batch case estimates each distinct factor once, and its records are
    those of a case that estimates every factor anew."""

    @pytest.mark.parametrize("n,seeds,count", [
        (2, (3, 11), 10), (3, (3, 11), 10), (4, (3, 11), 8), (0, (1,), 24),
    ], ids=["n2", "n3", "n4", "mixed"])
    def test_invariance_records_match_estimating_every_ordering(self, n, seeds, count):
        kinds = set()
        for seed in seeds:
            config = ExperimentConfig(command="invariance", n=n, seed=seed)
            for i in range(count):
                want, (by_sqrd, by_vblast) = _invariance_reference(config, i)
                assert (json.dumps(_invariance_case(config, i), default=_plain)
                        == json.dumps(want, default=_plain))
                kinds.add((by_sqrd != by_vblast, tuple(range(want["n"])) in (by_sqrd, by_vblast)))
        # each set has a case whose ordering keeps the order; at n = 4 and in
        # the mixed ensemble, also one whose two orders differ
        assert any(keeps for _, keeps in kinds)
        assert n in (2, 3) or any(differ for differ, _ in kinds)

    @pytest.mark.parametrize("n,seed,index,calls", [
        (3, 3, 0, 1), (3, 3, 1, 2), (4, 3, 1, 2), (4, 3, 2, 3),
    ])
    def test_invariance_estimates_each_distinct_factor_once(self, n, seed, index, calls,
                                                            monkeypatch):
        # 1: both orderings keep the order; 2: they agree on another order, or
        # one keeps it; 3: they take two orders, neither the original
        factors = []
        monkeypatch.setattr(cli_module, "pzf_quadrature",
                            lambda r, sigma: factors.append(r) or pzf_quadrature(r, sigma))
        config = ExperimentConfig(command="invariance", n=n, seed=seed)
        _invariance_case(config, index)
        _, perms = _invariance_reference(config, index)
        assert len(factors) == len({tuple(range(n)), *perms}) == calls

    def test_sweep_estimates_each_distinct_factor_once(self, monkeypatch, tmp_path):
        counted = []
        monkeypatch.setattr(cli_module, "pzf_quadrature",
                            lambda r, sigma: counted.append(r) or pzf_quadrature(r, sigma))
        grid = cli_module.DEFAULT_DELTA_GRID
        assert len(grid) == 5
        random = ExperimentConfig(command="sweep-delta", seed=5)
        cases = [(random, i, random_unreduced_2x2(case_spec(5, i))[0]) for i in range(10)]
        cases.append((ExperimentConfig(command="sweep-delta",
                                       matrix_path=write(tmp_path, "m.csv", "4,9\n0,1\n")),
                      0, np.array([[4.0, 9.0], [0.0, 1.0]])))
        total = 0
        for config, index, r in cases:
            counted.clear()
            _sweep_case(config, index)
            distinct = {lll_reduce(r, LLLParams(delta=d)).r_bar.tobytes() for d in grid}
            assert len(counted) == len(distinct)
            total += len(counted)
        assert total < len(grid) * len(cases)

    @pytest.mark.parametrize("seed", [5, 20181])
    def test_sweep_records_match_estimating_every_delta(self, seed):
        config = ExperimentConfig(command="sweep-delta", seed=seed)
        for i in range(20):
            assert (json.dumps(_sweep_case(config, i), default=_plain)
                    == json.dumps(_sweep_reference(config, i), default=_plain))

    @pytest.mark.parametrize("text,sigma,grid", [
        ("4,9\n0,1\n", 0.5, None),
        # the pair test holds below delta 0.6925 and fails above it
        ("-1,0.45\n0,0.7\n", None, (0.3, 0.6, 0.9, 1.0)),
        ("2,5\n1,3\n", 0.7, (0.26, 0.5, 0.99)),
    ])
    def test_matrix_sweep_records_match_estimating_every_delta(self, text, sigma, grid,
                                                               tmp_path):
        config = ExperimentConfig(command="sweep-delta", matrix_path=write(tmp_path, "m.csv", text),
                                  sigma=sigma, delta_grid=grid)
        assert (json.dumps(_sweep_case(config, 0), default=_plain)
                == json.dumps(_sweep_reference(config, 0), default=_plain))


class TestReportSerialization:
    def test_json_round_trip(self):
        report = cmd_reproduce(ExperimentConfig(command="reproduce"))
        report.duration_seconds = 1.25
        again = ExperimentReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()

    def test_csv_has_one_row_per_case(self, tmp_path):
        path = write(tmp_path, "m.csv", "4,9\n0,1\n")
        config = ExperimentConfig(command="reduce", matrix_path=path,
                                  out_format="csv")
        report = run(config)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert len(rows) == 1 + len(report.cases)
        header = rows[0]
        assert "stats.swaps" in header

    def test_failing_verdict_sets_exit_code(self, monkeypatch, capsys):
        import zfprob.cli as cli_module

        def stub(config):
            return ExperimentReport(command="reduce", config=dataclasses.asdict(config),
                                    verdicts=[Verdict(name="stub-check", passed=False,
                                                      detail="forced")])

        _, desc, fields = cli_module.SUBCOMMANDS["reduce"]
        monkeypatch.setitem(cli_module.SUBCOMMANDS, "reduce", (stub, desc, fields))
        assert main(["reduce", "--matrix", "ignored"]) == 1
        err = capsys.readouterr().err
        assert "first failing verdict: stub-check" in err

    def test_numeric_arrays_serialise_as_the_element_walk_does(self):
        def walk(obj):
            # the reference: convert every numpy scalar one element at a time
            if isinstance(obj, dict):
                return {str(k): walk(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [walk(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return walk(obj.tolist())
            if isinstance(obj, np.generic):
                return obj.item()
            return obj

        def plain(obj):
            if isinstance(obj, dict):
                return all(isinstance(k, str) and plain(v) for k, v in obj.items())
            if isinstance(obj, list):
                return all(plain(v) for v in obj)
            return type(obj) in (str, int, float, bool, type(None))

        cases = [{
            "float": np.array([[1.5, -0.0], [2.0 ** -1074, 1e300]]),
            "int": np.array([3, -2 ** 62, 0], dtype=np.int64),
            "bool": np.array([True, False]),
            "object": np.array([np.float64(0.25), np.int64(7), np.bool_(True), "x"],
                               dtype=object),
            "scalars": [np.float64(0.1), np.int64(-4), np.bool_(False)],
        }]
        report = ExperimentReport(command="reduce", config={"delta": np.float64(0.75)},
                                  cases=cases, duration_seconds=0.5)
        expected = dict(report.to_dict(), config=walk(report.config), cases=walk(cases))
        text = report.to_json()
        assert text == json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert plain(report.to_dict()) and plain(json.loads(text))

    def test_dataclasses_in_a_case_encode_without_to_json(self, monkeypatch):
        case = {"stats": ReductionStats(size_reductions=1, swaps=2, iterations=3),
                "estimate": ProbabilityEstimate(value=0.5, method="x", error_bound=0.0,
                                                evaluations=1)}
        report = ExperimentReport(command="reduce", config={}, cases=[case],
                                  verdicts=[Verdict(name="v", passed=True)])
        text = report.to_json()
        assert json.loads(text)["cases"][0]["stats"] == {
            "size_reductions": 1, "swaps": 2, "iterations": 3}

        def refuse(self):
            raise AssertionError("to_json called")

        # the tracer counts to_json's calls, so the other encodings must not make one
        monkeypatch.setattr(ExperimentReport, "to_json", refuse)
        assert report.to_dict() == json.loads(text)
        assert "duration_seconds" not in report.replay_dict()
        assert "stats.swaps" in report.to_csv()

    def test_unknown_objects_are_refused(self):
        report = ExperimentReport(command="reduce", config={}, cases=[{"x": {1, 2}}])
        with pytest.raises(TypeError, match="set"):
            report.to_json()

    def test_digest_depends_on_entries(self):
        a = matrix_digest(np.array([[1.0, 2.0], [0.0, 1.0]]))
        b = matrix_digest(np.array([[1.0, 2.0], [0.0, 1.0000001]]))
        assert a != b and len(a) == 16

    @pytest.mark.parametrize("a", [
        [[-0.0, 0.0], [5e-324, -5e-324]],
        [math.inf, -math.inf, math.nan],
        np.zeros((0, 3)),
        np.array(2.5),
        [[1, -2, 3], [2**53 + 1, 0, 7]],
        np.array([[0.1, 1e308], [-1e-300, 1.0 / 3.0]]),
    ], ids=["signed-zeros-and-subnormals", "inf-and-nan", "empty-0x3", "zero-d", "python-ints",
            "fractions"])
    def test_digest_equals_the_per_element_expression(self, a):
        # each entry as repr(float(v)) of the float64 array, as the digest was first written
        f = np.asarray(a, dtype=float)
        canon = f"{f.shape}|" + ",".join(repr(float(v)) for v in f.ravel())
        assert matrix_digest(a) == hashlib.sha256(canon.encode()).hexdigest()[:16]


# the smallest run of each subcommand; M and Y stand for a matrix and an observation file
MINIMAL_RUNS = {
    "reproduce": [],
    "reduce": ["--matrix", "M"],
    "decode": ["--matrix", "M", "--y", "Y"],
    "pzf": ["--matrix", "M", "--sigma", "0.5"],
    "sweep-delta": ["--trials", "1"],
    "invariance": ["--trials", "1"],
    "ensemble": ["--trials", "1"],
}


class TestOptionSets:
    @pytest.mark.parametrize("argv", [
        ["reproduce", "--matrix", "x", "--method", "mc"],
        ["invariance", "--sigma", "0.1"],
        ["reduce", "--seed", "3"],
        ["decode", "--parallel", "2"],
        ["ensemble", "--method", "mc"],
        ["ensemble", "--method", "diagonal"],
        # flags the chosen mode would echo but not use; M is a 2x2 matrix file
        ["pzf", "--matrix", "M", "--method", "mc", "--trials", "1"],
        ["pzf", "--matrix", "M", "--method", "quad", "--trials", "5"],
        ["pzf", "--matrix", "M", "--method", "diagonal", "--trials", "5"],
        ["sweep-delta", "--trials", "3", "--sigma", "0.3"],
        ["sweep-delta", "--matrix", "M", "--trials", "7"],
        # --matrix sweeps that one matrix as one case, with no random draws
        ["sweep-delta", "--matrix", "M", "--seed", "5"],
        ["sweep-delta", "--matrix", "M", "--parallel", "2"],
        # quad caps at n = 4, so above it the run would measure empirically
        ["ensemble", "--n", "5", "--method", "quad", "--trials", "1"],
        # --seed 1 is the field's default, yet given explicitly it is still refused
        ["pzf", "--matrix", "M", "--seed", "2"],
        ["pzf", "--matrix", "M", "--method", "quad", "--seed", "1"],
        ["pzf", "--matrix", "M", "--method", "diagonal", "--seed", "1"],
    ])
    def test_mismatched_flag_exits_2(self, argv, tmp_path):
        matrix = write(tmp_path, "m.csv", "4,0\n0,1\n")
        assert main([matrix if a == "M" else a for a in argv]) == 2

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--n", "5", "--trials", "1", "--sigma", "0.5"],
        ["ensemble", "--n", "5", "--method", "empirical", "--trials", "1", "--sigma", "0.5"],
        ["ensemble", "--n", "4", "--method", "quad", "--trials", "1", "--sigma", "0.5"],
        ["sweep-delta", "--matrix", "M", "--sigma", "0.5", "--delta-grid", "0.5,1"],
        ["pzf", "--matrix", "M", "--method", "empirical", "--trials", "1000", "--seed", "1"],
    ])
    def test_flag_the_run_reads_is_accepted(self, argv, tmp_path):
        matrix = write(tmp_path, "m.csv", "4,0\n0,1\n")
        assert main([matrix if a == "M" else a for a in argv]) == 0

    @pytest.mark.parametrize("fields", [
        dict(command="pzf", matrix_path="M", method="quad", trials=5),
        dict(command="sweep-delta", matrix_path="M", trials=3),
        dict(command="decode", matrix_path="M", y_path="M", sigma=0.5),
        dict(command="ensemble", method="mc"),
        dict(command="pzf", matrix_path="M", method="quad", trials=5, seed=9),
    ])
    def test_config_built_in_code_is_refused_the_same(self, fields, tmp_path):
        # a field off its default counts as given, and the config is never built
        matrix = write(tmp_path, "m.csv", "4,0\n0,1\n")
        with pytest.raises(ValueError, match=f"{fields['command']} reads --"):
            ExperimentConfig(**{k: matrix if v == "M" else v for k, v in fields.items()})

    def test_ensemble_echoes_the_method_it_ran(self, capsys):
        # quadrature stops at n = 4, so the run samples and its echo says so
        assert main(["ensemble", "--n", "5", "--trials", "1", "--sigma", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["method"] == "empirical"
        replay = run(ExperimentConfig(**payload["config"])).replay_dict()
        assert replay["config"] == payload["config"] and replay["cases"] == payload["cases"]

    def test_unknown_flag_returns_2_without_raising(self, capsys):
        assert main(["reduce", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err

    def test_one_parser_answers_every_call_alike(self, capsys):
        assert cli_module.build_parser() is cli_module.build_parser()
        argvs = [["--help"], ["invariance", "--help"], ["reduce", "--bogus"], [],
                 ["invariance", "--trials", "x"]]
        first, second = ([(main(argv), *capsys.readouterr()) for argv in argvs]
                         for _ in range(2))
        assert [code for code, _, _ in first] == [0, 0, 2, 2, 2]
        assert first == second

    @pytest.mark.parametrize("key", [(command, name) for command, (_, _, takes)
                                     in SUBCOMMANDS.items() for name in takes])
    def test_every_table_entry_names_a_flag_its_parser_takes(self, key, capsys):
        command, name = key
        assert main([command, "--help"]) == 0
        assert f" {_FLAGS[name][0]} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_echoed_config_keeps_every_field(self, command, tmp_path, capsys):
        files = {"M": write(tmp_path, "m.csv", "4,9\n0,1\n"),
                 "Y": write(tmp_path, "y.csv", "0.4\n-0.7\n")}
        argv = [command] + [files.get(a, a) for a in MINIMAL_RUNS[command]]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert set(config) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(config) == 14

    def test_import_leaves_cli_unloaded(self):
        # the package's import path stops short of the cli; the tests below
        # check that the cli's own path stops short of scipy and the pool
        done = _fresh("import sys, zfprob; assert 'zfprob.cli' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_import_and_parser_leave_scipy_and_the_pool_unloaded(self):
        done = _fresh("import sys, zfprob, zfprob.cli\n"
                      "zfprob.cli.build_parser()\n" + _NOTHING_HEAVY)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv", [["reduce", "--matrix", "M"], ["reduce", "--help"]],
                             ids=["matrix", "help"])
    def test_reduce_leaves_scipy_unloaded(self, argv, tmp_path):
        # reduce checks LLL on a factor: no solve, no slab mass, no pool
        argv = [write(tmp_path, "m.csv", "4,9\n0,1\n") if a == "M" else a for a in argv]
        done = _fresh("import sys\n"
                      "from zfprob.cli import main\n"
                      "try:\n"
                      "    code = main(sys.argv[1:])\n"
                      "except SystemExit as exc:\n"
                      "    code = exc.code\n"
                      "assert code == 0, code\n" + _NOTHING_HEAVY, *argv)
        assert done.returncode == 0, done.stderr

    def test_pzf_loads_scipy_and_prints_its_value(self, tmp_path):
        matrix = write(tmp_path, "m.csv", "4,9\n0,1\n")
        done = _fresh("import sys\n"
                      "from zfprob.cli import main\n"
                      "assert main(sys.argv[1:]) == 0\n"
                      "assert 'scipy.special' in sys.modules\n",
                      "pzf", "--matrix", matrix, "--sigma", "0.5")
        assert done.returncode == 0, done.stderr
        estimate = json.loads(done.stdout)["cases"][0]["estimate"]
        assert estimate["value"] == 0.3413125797751561
        assert estimate["evaluations"] == 96

    @pytest.mark.parametrize("argv, code, out, err", [
        (["-m", "zfprob", "reduce", "--matrix", "M"], 0, '{"cases":', "[pass] reduce-"),
        (["-m", "zfprob", "reduce"], 2, "", "error: reduce requires --matrix"),
        (["-m", "zfprob", "--help"], 0, "usage: zfprob", ""),
        (["-m", "zfprob.cli", "--help"], 0, "usage: zfprob", ""),
    ], ids=["reduce", "reduce-without-matrix", "help", "cli-help"])
    def test_module_runs_exit_with_the_status_of_main(self, argv, code, out, err, tmp_path):
        argv = [write(tmp_path, "m.csv", "4,9\n0,1\n") if a == "M" else a for a in argv]
        done = _python(*argv)
        assert done.returncode == code, done.stderr
        assert done.stdout.startswith(out) and err in done.stderr


# fails a probe that loaded what a CLI run need not: scipy, or the process pool's modules
_NOTHING_HEAVY = ("heavy = sorted(m for m in sys.modules if m.split('.')[0] in "
                  "('scipy', 'multiprocessing') or m == 'concurrent.futures.process')\n"
                  "assert not heavy, heavy\n")


def _python(*argv):
    """A fresh interpreter that imports this zfprob, run with argv."""
    src = str(Path(zfprob.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def _fresh(probe, *args):
    """probe run with args in a fresh interpreter that imports this zfprob."""
    return _python("-c", probe, *args)


class TestConfigValidation:
    def test_method_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="pzf", method="magic")

    def test_format_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="pzf", out_format="xml")

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="pzf", trials=-1)

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="command must be one of"):
            ExperimentConfig(command="bogus")

    @pytest.mark.parametrize("fields,flag", [
        (dict(command="reduce"), "--matrix"),
        (dict(command="pzf", sigma=0.5), "--matrix"),
        (dict(command="decode", matrix_path="m.csv"), "--y"),
        (dict(command="decode", y_path="y.csv"), "--matrix"),
    ])
    def test_required_path_checked(self, fields, flag):
        with pytest.raises(ParseError, match=f"requires {flag}"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("fields", [dict(n=3, m=2), dict(m=1), dict(n=6, m=5)])
    def test_ensemble_with_fewer_rows_than_columns_is_refused_when_built(self, fields):
        with pytest.raises(DimensionMismatchError, match="need m >= n"):
            ExperimentConfig(command="ensemble", **fields)

    def test_invariance_above_the_quadrature_is_refused_when_built(self):
        with pytest.raises(DimensionTooLargeError, match="supports n <= 4, got 5"):
            ExperimentConfig(command="invariance", n=5)
        ExperimentConfig(command="invariance", n=4)

    @pytest.mark.parametrize("fields, bad", [
        (dict(command="reproduce", delta=0.25), 0.25),
        (dict(command="ensemble", delta=1.01), 1.01),
        (dict(command="sweep-delta", delta_grid=(0.5, 1.5)), 1.5),
        (dict(command="sweep-delta", delta_grid=(0.1, 0.5)), 0.1)])
    def test_delta_is_refused_as_lll_params_refuses_it(self, fields, bad):
        with pytest.raises(InvalidGridError) as by_params:
            LLLParams(delta=bad)
        with pytest.raises(InvalidGridError) as by_config:
            ExperimentConfig(**fields)
        assert str(by_config.value) == str(by_params.value)

    @pytest.mark.parametrize("name", ["n", "m", "parallel"])
    def test_negative_counts_rejected(self, name):
        with pytest.raises(InvalidGridError, match=f"{name} must be nonnegative"):
            ExperimentConfig(command="ensemble", **{name: -1})

    @pytest.mark.parametrize("argv,name", [
        (["invariance", "--n", "-1"], "n"),
        (["ensemble", "--n", "-2"], "n"),
        (["ensemble", "--m", "-1"], "m"),
        (["invariance", "--trials", "2", "--parallel", "-3"], "parallel"),
    ])
    def test_negative_count_flag_exits_2_by_name(self, argv, name, capsys):
        assert main(argv) == 2
        assert f"error: {name} must be nonnegative" in capsys.readouterr().err
