import argparse
import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_bergman import cli, norms, scans, series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormCommand:
    def test_monomial_unit_value(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--monomial", "-j", "0",
                               "-p", "2", "--alpha", "0")
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == 3
        assert abs(record["value"] - 1.0) < 1e-14

    def test_monomial_asymptotic_flag(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--monomial", "-j", "10000",
                               "-p", "2", "--alpha", "1", "--check-asymptotic")
        assert code == 0
        record = json.loads(out)
        assert record["asymptotic"]["limit"] == pytest.approx(0.5)
        assert record["asymptotic"]["rel_gap"] < 0.02

    def test_parseval_quadrature_dual_path(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        coeffs = rng.uniform(-1, 1, (40, 2))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(coeffs.tolist()))
        code, out_a, _ = run_cli(capsys, "norm", "--parseval",
                                 "--coeffs-file", str(path), "--alpha", "1")
        assert code == 0
        code, out_b, _ = run_cli(capsys, "norm", "--quadrature",
                                 "--coeffs-file", str(path),
                                 "-p", "2", "--alpha", "1")
        assert code == 0
        va = json.loads(out_a)["value"]
        vb = json.loads(out_b)["value"]
        assert abs(va - vb) / va < 1e-8

    def test_family_csv(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([[1.0, 0.0]]))
        code, out, _ = run_cli(capsys, "norm", "--family", "frechet",
                               "--coeffs-file", str(path), "-p", "2",
                               "--alpha", "1", "--nmax-steps", "3",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,alpha,value"
        assert len(lines) == 4

    def test_parseval_requires_p2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([[1.0, 0.0]]))
        code, _, err = run_cli(capsys, "norm", "--parseval",
                               "--coeffs-file", str(path),
                               "-p", "3", "--alpha", "1")
        assert code == 2 and err.startswith("invalid request:")
        assert "p = 2" in err

    def test_monomial_requires_index(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--monomial", "-p", "2",
                                 "--alpha", "1")
        assert code == 2 and out == ""
        assert err == "invalid request: norm --monomial requires -j/--index\n"

    @pytest.mark.parametrize("p, alpha", [("nan", "1"), ("inf", "1"),
                                          ("2", "nan"), ("2", "inf")])
    def test_monomial_nonfinite_exponents_exit_2(self, capsys, p, alpha):
        code, out, err = run_cli(capsys, "norm", "--monomial", "-j", "2",
                                 "-p", p, "--alpha", alpha)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("mode", [
        ("--quadrature", "-p", "1.5"), ("--parseval",),
        ("--family", "frechet", "-p", "2"), ("--family", "lb", "-p", "3")])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_nonfinite_coefficient_exits_2(self, capsys, tmp_path, mode, bad):
        path = tmp_path / "c.json"
        path.write_text(f"[[1.0, 0.0], [0.5, {bad}]]")
        start = time.time()
        code, out, err = run_cli(capsys, "norm", *mode, "--alpha", "1",
                                 "--coeffs-file", str(path))
        assert code == 2 and out == ""
        assert "finite" in err and time.time() - start < 0.5

    @pytest.mark.parametrize("rel_tol", ["nan", "-1", "0", "inf", "1"])
    def test_bad_rel_tol_exits_2(self, capsys, tmp_path, rel_tol):
        path = tmp_path / "c.json"
        path.write_text("[[1.0, 0.0], [0.5, 0.0]]")
        code, out, err = run_cli(capsys, "norm", "--quadrature", "-p", "1.5",
                                 "--alpha", "1", "--coeffs-file", str(path),
                                 f"--rel-tol={rel_tol}")
        assert code == 2 and out == ""
        assert "rel_tol" in err

    @pytest.mark.parametrize("rel_tol", ["nan", "0", "inf", "1"])
    @pytest.mark.parametrize("mode", [("frechet", "2"), ("lb", "3")])
    def test_family_bad_rel_tol_exits_2(self, capsys, tmp_path, mode,
                                        rel_tol):
        # refused at p = 2 too, where the family sums by Parseval
        path = tmp_path / "c.json"
        path.write_text("[[1.0, 0.0], [0.5, 0.0]]")
        code, out, err = run_cli(capsys, "norm", "--family", mode[0],
                                 "-p", mode[1], "--alpha", "1",
                                 "--coeffs-file", str(path),
                                 f"--rel-tol={rel_tol}")
        assert code == 2 and out == ""
        assert "rel_tol" in err

    def test_family_uses_rel_tol(self, capsys, tmp_path):
        # the family must be computed at the given tolerance: for this
        # truncation its values at 1e-2 differ from those at the default 1e-9
        f = series.eigenfunction_truncation(2, 15)
        path = tmp_path / "c.json"
        path.write_text(json.dumps([[c.real, c.imag] for c in f.coeffs]))
        code, out, _ = run_cli(capsys, "norm", "--family", "frechet",
                               "-p", "1.5", "--alpha", "1",
                               "--nmax-steps", "2", "--coeffs-file", str(path),
                               "--rel-tol", "1e-2")
        assert code == 0
        got = [e["value"] for e in json.loads(out)["entries"]]
        spec = norms.SpaceSpec(1.5, 1.0, norms.SpaceKind.FRECHET_INTERSECTION)
        loose = scans.seminorm_family(f, spec, 2, 1e-2)
        assert got == [e.value for e in loose]
        tight = [e.value for e in scans.seminorm_family(f, spec, 2)]
        assert all(abs(g - t) > 1e-10 * t for g, t in zip(got, tight))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_lb_family_exits_2(self, capsys, tmp_path, fmt):
        # at alpha = 0.2 the first admissible step is floor(1/0.2) + 1 = 6
        path = tmp_path / "c.json"
        path.write_text("[[1.0, 0.0], [0.5, 0.1]]")
        code, out, err = run_cli(capsys, "norm", "--family", "lb",
                                 "--coeffs-file", str(path), "-p", "2",
                                 "--alpha", "0.2", "--nmax-steps", "3",
                                 "--format", fmt)
        assert code == 2 and out == ""
        assert "n = 6" in err

    @pytest.mark.parametrize("entry", ["[true, false]", "[0.5, true]",
                                       "[false, 0]"])
    @pytest.mark.parametrize("mode", [("--parseval",),
                                      ("--quadrature", "-p", "1.5")])
    def test_boolean_coefficient_exits_2(self, capsys, tmp_path, entry, mode):
        path = tmp_path / "c.json"
        path.write_text(f"[[1.0, 0.0], {entry}]")
        code, out, err = run_cli(capsys, "norm", *mode, "--alpha", "1",
                                 "--coeffs-file", str(path))
        assert code == 2 and out == ""
        assert "boolean" in err

    def test_bad_coeffs_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1.0, 2.0]))
        code, _, err = run_cli(capsys, "norm", "--parseval",
                               "--coeffs-file", str(path), "--alpha", "1")
        assert code == 2


class TestSpectrumCommand:
    def test_frechet_sandwich_verdict(self, capsys):
        # r = 2: the eigenvalue 1/2 on the open disk's boundary is listed
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2", "--lambda", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == 3
        assert record["set"]["points"] == [1.0, 0.5]
        assert "undetermined_points" not in record["set"]
        assert record["verdicts"][0]["verdict"] == "in"

    def test_frechet_verdict_a_rounding_inside_the_circle(self, capsys):
        # 0.25 + 0.25 e^(2.4i): its distance to the centre rounds to the
        # radius 1/4, while the exact squared distance is 2.9e-18 below 1/16
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2",
                               "--lambda=0.06565157111468864+0.16886579513778774j",
                               "--lambda=0.25+0.25j")
        assert code == 0
        verdicts = [v["verdict"] for v in json.loads(out)["verdicts"]]
        assert verdicts == ["in", "out"]

    def test_lb_boundary_in(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "lb",
                               "-p", "2", "--alpha", "2", "--lambda", "0.5")
        record = json.loads(out)
        assert record["verdicts"][0]["verdict"] == "in"

    def test_complex_lambda_parsing(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "banach",
                               "-p", "2", "--alpha", "2",
                               "--lambda", "0.5,0.5")
        record = json.loads(out)
        assert record["verdicts"][0]["lambda"] == [0.5, 0.5]
        assert record["verdicts"][0]["verdict"] == "out"

    @pytest.mark.parametrize("value", ["inf", "infinity", "-inf", "nan",
                                       "1e400", "1e400,0", "0,nan",
                                       "0.5,", "i0.5"])
    def test_nonfinite_or_malformed_lambda_exits_2(self, capsys, value):
        # each exits 2 naming the flag, not with Python's complex() message
        # and not with an answer for a non-finite lambda
        code, out, err = run_cli(capsys, "spectrum", "--kind", "banach",
                                 "-p", "2", "--alpha", "2",
                                 f"--lambda={value}")
        assert code == 2 and out == "" and "--lambda" in err

    def test_lambda_forms(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "banach",
                               "-p", "2", "--alpha", "2", "--lambda=0.5,0.25",
                               "--lambda", "0.5+0.25i", "--lambda", "0.3")
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert [v["lambda"] for v in verdicts] == [[0.5, 0.25], [0.5, 0.25],
                                                   [0.3, 0.0]]

    def test_describe(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "banach",
                               "-p", "2", "--alpha", "2")
        record = json.loads(out)
        assert record["set"]["disk_r"] == 2.0
        assert record["set"]["points"] == [1.0]

    def test_crosscheck_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2", "--crosscheck",
                               "--grid", "30x30", "--nmax", "30")
        assert code == 0
        record = json.loads(out)
        assert record["disagreements"] == []
        assert record["n_checked"] + record["n_excluded"] == 900

    def test_lb_crosscheck_at_reciprocal_alpha(self, capsys):
        # alpha = 1/93: alpha - 1/93 rounds to 0, so the steps start at 94
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "lb", "-p", "2",
                               "--alpha", repr(1.0 / 93.0), "--crosscheck",
                               "--grid", "10x10", "--nmax", "100")
        assert code == 0
        assert json.loads(out)["disagreements"] == []

    def test_lb_crosscheck_just_above_a_reciprocal(self, capsys):
        # alpha = 0.11111111111111112 > 1/9: alpha - 1/9 = 1.4e-17, so step 9
        # is admissible and --nmax 9 has a step to check
        code, out, err = run_cli(capsys, "spectrum", "--kind", "lb", "-p",
                                 "2", "--alpha", "0.11111111111111112",
                                 "--crosscheck", "--grid", "10x10",
                                 "--nmax", "9")
        assert code == 0, err
        assert json.loads(out)["disagreements"] == []

    def test_lb_alpha_with_no_step(self, capsys):
        # 1/alpha overflows at the least subnormal: no step n has 1/n < alpha
        code, out, err = run_cli(capsys, "spectrum", "--kind", "lb", "-p",
                                 "2", "--alpha", "5e-324", "--crosscheck",
                                 "--grid", "3x3", "--nmax", "5")
        assert code == 2 and out == ""
        assert "overflows" in err

    def test_crosscheck_needs_limit_kind(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--kind", "banach",
                               "-p", "2", "--alpha", "2", "--crosscheck")
        assert code == 2
        assert "banach space has no steps" in err

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_crosscheck_without_steps_exits_2(self, capsys, kind):
        code, out, err = run_cli(capsys, "spectrum", "--kind", kind, "-p", "2",
                                 "--alpha", "2", "--crosscheck", "--nmax", "0")
        assert code == 2 and out == ""
        assert "no admissible steps" in err

    @pytest.mark.parametrize("grid", ["0x0", "1x0", "0x5"])
    def test_crosscheck_empty_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "spectrum", "--kind", "lb", "-p", "2",
                                 "--alpha", "2", "--crosscheck", "--grid", grid)
        assert code == 2 and out == ""
        assert "grid" in err

    def test_crosscheck_fully_excluded_grid_exits_2(self, capsys):
        # a 1x1 lattice at the origin, which every circle passes through
        code, out, err = run_cli(capsys, "spectrum", "--kind", "frechet",
                                 "-p", "2", "--alpha", "2", "--crosscheck",
                                 "--grid", "1x1", "--rect", "0,0,0,0")
        assert code == 2 and out == ""
        assert "no sample points" in err

    @pytest.mark.parametrize("grid", ["5", "5x5x5", "ax5", "5x"])
    def test_crosscheck_grid_must_be_n_by_m(self, capsys, grid):
        code, out, err = run_cli(capsys, "spectrum", "--kind", "frechet",
                                 "-p", "2", "--alpha", "2", "--crosscheck",
                                 "--grid", grid)
        assert code == 2 and out == ""
        assert "--grid" in err and "NxM" in err

    @pytest.mark.parametrize("rect", ["nan,1,0,1", "-inf,1,0,1", "0,1,0,inf",
                                      "0,1,0", "0,1,0,1,2", "1,0,0,1",
                                      "0,1,1,0", "a,1,0,1"])
    def test_crosscheck_rect_must_be_finite_and_ordered(self, capsys, rect):
        code, out, err = run_cli(capsys, "spectrum", "--kind", "frechet",
                                 "-p", "2", "--alpha", "2", "--crosscheck",
                                 "--grid", "5x5", f"--rect={rect}")
        assert code == 2 and out == ""
        assert "--rect" in err

    @pytest.mark.parametrize("band", ["-1", "nan", "inf", "x"])
    def test_crosscheck_band_must_be_finite_nonnegative(self, capsys, band):
        code, out, err = run_cli(capsys, "spectrum", "--kind", "frechet",
                                 "-p", "2", "--alpha", "2", "--crosscheck",
                                 "--grid", "5x5", "--band", band)
        assert code == 2 and out == ""
        assert "--band" in err

    @pytest.mark.parametrize("kind", ["banach", "frechet", "lb"])
    @pytest.mark.parametrize("p, alpha", [("nan", "1"), ("inf", "1"),
                                          ("2", "nan"), ("2", "inf")])
    def test_nonfinite_exponents_exit_2(self, capsys, kind, p, alpha):
        code, out, err = run_cli(capsys, "spectrum", "--kind", kind,
                                 "-p", p, "--alpha", alpha)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["--kind", "frechet", "-p", "2", "--alpha", "1e300", "--crosscheck",
         "--grid", "10x10", "--nmax", "5"],
        ["--kind", "lb", "-p", "2", "--alpha", "1e300", "--crosscheck"],
        ["--kind", "banach", "-p", "2", "--alpha", "2e6"],
    ])
    def test_unresolvable_disk_parameter_exits_2_at_once(self, capsys, argv):
        # r = (2+alpha)/p above 1e6: the points 1/m can no longer be told
        # apart, and looping over them would not end
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert "disk parameter" in err

    @pytest.mark.parametrize("extra", [[], ["--crosscheck", "--grid", "10x10",
                                            "--nmax", "5"]])
    def test_large_resolvable_disk_parameter(self, capsys, extra):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "1000", *extra)  # r = 501
        assert code == 0
        if not extra:  # m <= r on the Frechet space: 1/501 is listed
            assert len(json.loads(out)["set"]["points"]) == 501

    def test_waelbroeck_flag_closes_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2", "--waelbroeck",
                               "--lambda", "0.5")
        record = json.loads(out)
        assert record["set"]["disk_boundary"] == "closed"
        assert record["verdicts"][0]["verdict"] == "in"


class TestScanCommand:
    def test_eigen_converged(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "eigen", "-m", "1", "-p", "2",
                               "--alpha", "2", "--nmax", "4096")
        assert code == 0
        record = json.loads(out)
        result = record["results"][0]
        assert result["expected_member"] is True
        assert result["classification"]["kind"] == "converged"

    def test_eigen_overflow_gives_nulls_without_norm_warnings(self, capsys):
        # |f|^1.5 overflows from degree 1024 on: each such degree stops at
        # its first pass, prints null, and the quadrature warns nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "scan", "eigen", "-m", "200",
                                   "-p", "1.5", "--alpha", "1",
                                   "--nmax", "4096")
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["degrees"][-3:] == [1024, 2048, 4096]
        assert result["values"][-3:] == [None, None, None]
        # the finite values of the fixed angular grids of earlier releases
        assert result["values"][:-3] == pytest.approx(
            [0.0, 0.0, 0.0, 0.0, 3.085314625993149e+54,
             3.588349000195237e+143], rel=1e-12, abs=0.0)
        assert result["classification"]["kind"] == "undetermined"
        assert not [w for w in caught if w.filename == norms.__file__]

    def test_eigen_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "eigen", "-m", "3", "-p", "2",
                               "--alpha", "2", "--nmax", "1024",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,degree,value"

    def test_gp_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "gp", "-p", "2", "--alpha", "1",
                               "-m", "2", "--jmax", "20000")
        assert code == 0
        record = json.loads(out)
        assert record["classification"]["kind"] == "power_divergent"
        assert abs(record["classification"]["exponent"] - 0.75) < 0.05

    def test_inclusion_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "inclusion", "-p", "2",
                               "--mu", "1", "--gamma", "2")
        assert code == 0
        record = json.loads(out)
        assert abs(record["exponent"] + 0.5) < 0.01

    @pytest.mark.parametrize("jmax", ["8", "9"])
    def test_inclusion_fit_below_three_points_exits_2(self, capsys, jmax):
        # the decay law is fitted on j >= 8: --jmax 8 fitted one point (with
        # a RankWarning and r_squared 1), --jmax 9 two points (r_squared 1)
        code, out, err = run_cli(capsys, "scan", "inclusion", "-p", "2",
                                 "--mu", "1", "--gamma", "2", "--jmax", jmax)
        assert code == 2 and out == ""
        assert "j_max must be >= 10" in err

    @pytest.mark.parametrize("flag, value", [("-p", "nan"),
                                             ("--gamma", "inf")])
    def test_inclusion_nonfinite_exponents_exit_2(self, capsys, flag, value):
        argv = {"-p": "2", "--mu": "1", "--gamma": "2"}
        argv[flag] = value
        code, out, err = run_cli(capsys, "scan", "inclusion",
                                 *(x for kv in argv.items() for x in kv))
        assert code == 2 and out == ""
        assert "finite" in err

    def test_eigen_too_short_to_classify(self, capsys):
        code, out, err = run_cli(capsys, "scan", "eigen", "-m", "1",
                                 "--nmax", "20")
        assert code == 2 and out == ""
        assert "n_max must be >= 65" in err

    def test_missing_args_rejected(self, capsys):
        code, _, err = run_cli(capsys, "scan", "counterexample", "-p", "2",
                               "--alpha", "1")
        assert code == 2 and "epsilon" in err

    @pytest.mark.parametrize("argv, message", [
        (("eigen",), "one of the arguments -m --m-list is required"),
        (("schauder", "--function", "eigenfunction"), "requires -m"),
        (("schauder", "--function", "binomial-plus"), "requires --exponent")])
    def test_target_specific_args_required(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "scan", *argv, "--nmax", "128")
        assert code == 2 and out == ""
        assert message in err

    def test_strict_flag_on_undetermined(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise norms.NonConvergedQuadrature("forced", math.nan, math.inf)
        monkeypatch.setattr("cesaro_bergman.scans.norm_quadrature", boom)
        code, out, err = run_cli(capsys, "scan", "eigen", "-m", "1",
                                 "-p", "3", "--alpha", "2",
                                 "--nmax", "256", "--strict")
        assert code == 3

    def test_schauder_constant(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "schauder", "--function",
                               "constant", "--kind", "frechet", "-p", "2",
                               "--alpha", "1", "--nmax", "1024")
        assert code == 0
        record = json.loads(out)
        for tail in record["tails"]:
            assert all(v == 0 for v in tail["values"])

    def test_schauder_binomial_source(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "schauder", "--function",
                               "binomial-plus", "--exponent", "0.8",
                               "--kind", "frechet", "-p", "2", "--alpha", "1",
                               "--nmax", "2048", "--basis-steps", "1,2")
        assert code == 0
        record = json.loads(out)
        assert [t["step"] for t in record["tails"]] == [1, 2]
        for tail in record["tails"]:
            assert tail["classification"]["kind"] == "converged"

    @pytest.mark.parametrize("strict", [(), ("--strict",)])
    def test_schauder_without_steps_exits_2(self, capsys, strict):
        # an empty --basis-steps used to print "tails": [] and exit 0
        code, out, err = run_cli(capsys, "scan", "schauder", "--function",
                                 "constant", "--kind", "lb", "-p", "2",
                                 "--alpha", "1", "--basis-steps", "",
                                 "--nmax", "128", *strict)
        assert code == 2 and out == ""
        assert "no step indices" in err

    @pytest.mark.parametrize("epsilon, home", [
        # 1/93 and just above 1/9: the home step is the first n with
        # 1/n < epsilon, 94 and 9 (floor(1/epsilon) + 1 read 93 and 10)
        ("0.010752688172043012", 94), ("0.11111111111111112", 9),
        # past 2^53 the home step is floor(1/epsilon) + 1, as it always was
        ("1e-300", math.floor(1.0 / 1e-300) + 1)])
    def test_counterexample_home_step(self, capsys, epsilon, home):
        # alpha = 1e-300, so that alpha + 1/n moves off alpha even at
        # n ~ 1e300 (at alpha = 1 that epsilon is refused, see below)
        code, out, err = run_cli(capsys, "scan", "counterexample", "-p", "2",
                                 "--alpha", "1e-300", "--epsilon", epsilon,
                                 "--kind", "frechet", "--nmax", "128")
        assert code == 0, err
        record = json.loads(out)
        assert record["home_step"] == home
        assert [r["step"] for r in record["inverse"]] == \
            [home, home + 1, home + 2, home + 3]

    @pytest.mark.parametrize("kind", ["frechet", "lb"])
    def test_counterexample_epsilon_too_small_exits_2(self, capsys, kind):
        # every step weight alpha +/- 1/n, n ~ 1e300, rounds to alpha = 1:
        # this printed four "inverse" scans of A^2_1 itself and exited 0
        code, out, err = run_cli(capsys, "scan", "counterexample", "-p", "2",
                                 "--alpha", "1", "--epsilon", "1e-300",
                                 "--kind", kind, "--nmax", "128")
        assert code == 2 and out == ""
        assert "moves no weight" in err

    def test_counterexample_subnormal_epsilon_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "counterexample", "-p", "2",
                                 "--alpha", "1", "--epsilon", "5e-324",
                                 "--kind", "frechet", "--nmax", "128")
        assert code == 2 and out == ""
        assert "overflows" in err

    def test_counterexample_end_to_end(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "counterexample", "-p", "2",
                               "--alpha", "1", "--epsilon", "0.4",
                               "--kind", "frechet", "--nmax", "8192",
                               "--steps", "3,4")
        assert code == 0
        record = json.loads(out)
        assert record["home_step"] == 3
        assert record["source"]["classification"]["kind"] == "converged"
        for inv in record["inverse"]:
            assert inv["classification"]["kind"] in ("power_divergent",
                                                     "log_divergent")

    def test_eigen_batch_with_jobs(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "eigen", "--m-list", "1,3",
                               "-p", "2", "--alpha", "2", "--nmax", "2048")
        assert code == 0
        record = json.loads(out)
        kinds = {r["m"]: r["classification"]["kind"] for r in record["results"]}
        assert kinds[1] == "converged"
        assert kinds[3] == "power_divergent"
        serial = [cli._scan_record(scans.eigen_membership_scan(m, 2.0, 2.0,
                                                               2048))
                  for m in (1, 3)]
        got = [{k: r[k] for k in ("degrees", "values", "classification")}
               for r in record["results"]]
        assert got == json.loads(cli.dumps_json(serial))

    @pytest.mark.parametrize("m_list, cpus, workers", [
        ("1,2,3", 2, 2), ("1,2", 64, 2), ("1,2,3", 1, 1)])
    def test_eigen_workers_bounded_by_cpus(self, capsys, monkeypatch, m_list,
                                           cpus, workers):
        # the worker count is min(#m, #CPUs); the fake pool starts no thread
        import concurrent.futures

        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        code, _, _ = run_cli(capsys, "scan", "eigen", "--m-list", m_list,
                             "-p", "2", "--alpha", "1", "--nmax", "128")
        assert code == 0 and seen == [workers]

    def test_four_degree_scan_fits_three_points(self, capsys):
        # a four-degree scan has 3 increments, all of them fitted: a
        # two-point fit would print r_squared 1 and stderr 9e-16
        code, out, _ = run_cli(capsys, "scan", "eigen", "--m-list", "1,2",
                               "-p", "2", "--alpha", "1", "--nmax", "128")
        assert code == 0
        fit = json.loads(out)["results"][1]["classification"]
        assert fit["kind"] == "power_divergent"
        assert 0.5 < fit["exponent"] < 0.6
        assert 1e-3 < fit["stderr"] < 1e-2
        assert 0.999 < fit["r_squared"] < 0.99999

    @pytest.mark.filterwarnings("error")
    def test_p2_overflow_keeps_inf_without_warnings(self, capsys):
        # the squares of the m = 60 coefficients overflow from degree 16384
        # on: the values print "inf", the scan reads undetermined, and numpy
        # warns nothing
        code, out, err = run_cli(capsys, "scan", "eigen", "-m", "60",
                                 "-p", "2", "--alpha", "1",
                                 "--nmax", "65536")
        assert code == 0 and err == ""
        result = json.loads(out)["results"][0]
        assert result["values"][-3:] == ["inf", "inf", "inf"]
        assert result["classification"]["kind"] == "undetermined"
        code, out, err = run_cli(capsys, "scan", "schauder", "--function",
                                 "eigenfunction", "-m", "60", "-p", "2",
                                 "--alpha", "1", "--nmax", "65536")
        assert code == 0 and err == ""
        assert {t["classification"]["kind"] for t in
                json.loads(out)["tails"]} == {"undetermined"}

    def test_missing_coeffs_file(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--quadrature",
                               "-p", "2", "--alpha", "1")
        assert code == 2 and err.startswith("invalid request:")
        assert "coeffs-file" in err


class TestExitCodes:
    def test_crosscheck_disagreement_exits_4(self, capsys, monkeypatch):
        from cesaro_bergman.spectra import CrosscheckReport
        from cesaro_bergman.norms import SpaceKind

        fake = CrosscheckReport(SpaceKind.FRECHET_INTERSECTION, 2.0, 2.0, 10,
                                1, disagreements=(0.1 + 0.1j,))
        monkeypatch.setattr("cesaro_bergman.cli.step_union_crosscheck",
                            lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2", "--crosscheck",
                               "--grid", "5x5", "--nmax", "10")
        assert code == 4
        assert json.loads(out)["disagreements"] == [[0.1, 0.1]]

    def test_wrong_limit_spectrum_exits_4(self, capsys, monkeypatch):
        # the real cross-check, its limit side built at alpha + 0.05
        from cesaro_bergman import spectra
        real = spectra.spectrum
        monkeypatch.setattr(spectra, "spectrum", lambda spec: real(
            norms.SpaceSpec(spec.p, spec.alpha + 0.05, spec.kind)))
        code, out, _ = run_cli(capsys, "spectrum", "--kind", "frechet",
                               "-p", "2", "--alpha", "2", "--crosscheck",
                               "--grid", "40x40", "--rect=0.45,0.52,-0.05,0.05")
        assert code == 4
        assert len(json.loads(out)["disagreements"]) > 10

    def test_quadrature_nonconvergence_exits_3(self, capsys, monkeypatch,
                                               tmp_path):
        def boom(*args, **kwargs):
            raise norms.NonConvergedQuadrature("forced", math.nan, math.inf)
        monkeypatch.setattr("cesaro_bergman.cli.norm_quadrature", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps([[1.0, 0.0], [1.0, 0.0]]))
        code, _, err = run_cli(capsys, "norm", "--quadrature",
                               "--coeffs-file", str(path),
                               "-p", "3", "--alpha", "1")
        assert code == 3 and "converge" in err


class TestSelftest:
    def test_quick_passes_within_budget(self, capsys):
        start = time.time()
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 10.0
        lines = out.strip().splitlines()
        assert len(lines) == 5 and all(line.startswith("PASS") for line in lines)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--format", "json")
        record = json.loads(out)
        assert record["all_passed"] is True
        assert len(record["checks"]) == 5

    def test_fault_injection_breaks_parseval_check(self, capsys, monkeypatch):
        # corrupting the log-Beta backend must be caught by the
        # parseval-vs-quadrature agreement invariant
        real = norms.log_beta
        monkeypatch.setattr(norms, "log_beta",
                            lambda a, b: real(a, b) * 1.001)
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        assert code == 1
        assert any(line.startswith("FAIL parseval-quadrature")
                   for line in out.splitlines())

    def test_classifier_that_ignores_power_fails(self, capsys, monkeypatch):
        # (log N)^(1/3) is the threshold law only in v^3: fitted in v itself
        # its increments decay, and the check must say so
        real = scans.classify_growth
        monkeypatch.setattr(scans, "classify_growth",
                            lambda degrees, values, power=1.0: real(degrees,
                                                                    values))
        for quick in ((), ("--quick",)):
            code, out, _ = run_cli(capsys, "selftest", *quick)
            assert code == 1
            assert "FAIL classifier: (log N)^(1/3) at power 3" in out


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("scan", "gp", "-p", "2", "--alpha", "1", "-m", "3",
                "--jmax", "5000")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_seventeen_digit_floats(self):
        text = cli.dumps_json({"x": 1.0 / 3.0})
        assert text == '{"x": 0.33333333333333331}'

    def test_nan_serializes_as_null(self):
        assert cli.dumps_json(float("nan")) == "null"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "norm", "--monomial", "-j", "2",
                               "-p", "2", "--alpha", "1", "--out", str(path))
        assert code == 0 and out == ""
        record = json.loads(path.read_text())
        assert record["command"] == "norm"


def test_version_flag(capsys):
    code = cli.main(["--version"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip()


# Valid base argv per scan target, each a fast run that exits 0.
_GOOD_TARGET_ARGV = {
    "eigen": ["-m", "1", "--nmax", "128"],
    "counterexample": ["--epsilon", "0.4", "--nmax", "128"],
    "gp": ["-m", "2", "--jmax", "256"],
    "inclusion": ["--mu", "1", "--gamma", "2", "--jmax", "64"],
    "schauder": ["-m", "1", "--nmax", "128"],
}


def _leaf_parsers():
    """(argv prefix, parser) for every command and every scan target."""
    def children(parser):
        [sub] = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
        return sub.choices.items()
    leaves = []
    for name, parser in children(cli.build_parser()):
        if name == "scan":
            leaves += [(("scan", t), sp) for t, sp in children(parser)]
        else:
            leaves.append(((name,), parser))
    return leaves


def _options(parser) -> set[str]:
    return {opt for a in parser._actions if a.dest != "help"
            for opt in a.option_strings}


_index_lists = st.lists(st.integers(0, 6), max_size=4).map(
    lambda v: ",".join(map(str, v)))
_small_int = st.integers(-1, 6).map(str)
# Values for each option, by dest: mostly valid, one invalid, and small
# sizes (--nmax, --jmax) so that every run is short.  A new option without
# an entry here fails the test with a KeyError.
_VALUES = {dest: st.sampled_from(values) for dest, values in {
    "p": ["2", "2", "1.5", "3", "nan"],
    "alpha": ["1", "2", "0.2", "inf"],
    "index": ["0", "3", "17", "x"],
    "rel_tol": ["1e-9", "1e-3", "0"],
    "nmax_steps": ["3", "8", "0"],
    "lam": ["0.5", "0.3,0.1", "0,-0.2", "nan"],
    "grid": ["3x3", "5x5", "2x4", "0x2"],
    "rect": ["-1,2,-1,1", "0,1,0,1", "1,0,0,1"],
    "band": ["1e-9", "0", "-1"],
    "nmax": ["256", "128", "65", "8"],
    "jmax": ["256", "128", "64", "8"],
    "epsilon": ["0.4", "0.1", "0.25", "1e-300"],
    "mu": ["1", "0.5", "nan"],
    "gamma": ["2", "3", "1"],
    "exponent": ["0.4", "0.8", "nan"],
}.items()} | {"m": _small_int, "steps": _index_lists,
             "basis_steps": _index_lists}


@pytest.fixture(scope="module")
def coeffs_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar") / "f.json"
    path.write_text("[[1.0, 0.0], [0.5, -0.25], [0.0, 0.125]]")
    return str(path)


def _value(action, coeffs_path):
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.dest == "ms":   # eigen: -m M or --m-list M,...
        return _small_int if "-m" in action.option_strings else _index_lists
    if action.dest == "coeffs_file":
        return st.sampled_from([coeffs_path, coeffs_path + ".missing"])
    return _VALUES[action.dest]


def _drawn_argv_property(command, parser, coeffs_path):
    """Draw argv from the parser's own options and run it in-process: no
    uncaught exception, and an exit code of 0, 2, 3 or 4."""
    groups = [g._group_actions for g in parser._mutually_exclusive_groups]
    grouped = [a for group in groups for a in group]
    single = [a for a in parser._actions if a.option_strings
              and a.dest not in ("help", "out") and a not in grouped]

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def run(data):
        chosen = []
        for group in groups:   # mostly one member; none or two exit 2
            chosen += data.draw(
                st.sampled_from(group).map(lambda a: [a])
                | st.lists(st.sampled_from(group), max_size=2, unique=True))
        # the sizes always (their defaults run for seconds); required
        # options are left out now and then, which exits 2
        chosen += [a for a in single
                   if a.dest in ("nmax", "jmax") or data.draw(
                       st.sampled_from([True] * 4 + [False]) if a.required
                       else st.booleans())]
        argv = list(command)
        for action in data.draw(st.permutations(chosen)):
            argv.append(data.draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(data.draw(_value(action, coeffs_path)))
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.setattr(cli, "run_selftest", lambda quick: [])
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        if code == 0 and command[0] != "selftest" and "csv" not in argv:
            json.loads(out.getvalue())

    run()


class TestGrammar:
    """Each command and scan target takes its own options and no other."""

    @pytest.mark.parametrize("argv", [
        ("scan", "eigen", "-m", "2", "--m-list", "3,4"),
        ("scan", "gp", "-m", "2", "--epsilon", "5"),
        ("scan", "inclusion", "--mu", "1", "--gamma", "2", "--strict"),
        ("scan", "schauder", "--function", "constant", "-m", "3"),
        ("scan", "schauder", "--function", "eigenfunction", "-m", "1",
         "--exponent", "0.4"),
        ("spectrum", "--kind", "banach", "--alpha", "1", "--format", "csv"),
        ("norm", "--monomial", "-j", "3", "--alpha", "1", "--format", "csv"),
        ("scan", "-p", "2", "eigen", "-m", "1"),
        ("spectrum", "--kind", "frechet", "--alpha", "2", "--crosscheck",
         "--grid", "5x5", "--nmax", "10", "--lambda", "0.5"),
        ("spectrum", "--kind", "frechet", "--alpha", "2", "--crosscheck",
         "--grid", "5x5", "--nmax", "10", "--waelbroeck"),
        ("scan", "eigen", "--m-list", "1,2", "--nmax", "128", "--jobs", "2"),
    ])
    def test_option_not_read_exits_2(self, capsys, argv):
        # each exited 0 and ignored the option (scan -p before the target
        # was read, and --jobs set a thread count the code now derives)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("scan", "gp", "-m", "2", "--jm", "256", "--str"),
        ("norm", "--family", "frechet", "--coeffs-file", None, "--alpha", "1",
         "--nmax", "3")])
    def test_option_prefix_exits_2(self, capsys, coeffs_path, argv):
        # each ran as --jmax 256 --strict and --nmax-steps 3
        argv = [coeffs_path if a is None else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, message", [
        (("eigen", "--m-list", "1,1"), "--m-list"),
        (("eigen", "--m-list", ""), "--m-list"),
        (("eigen", "--m-list", "1,x"), "--m-list"),
        (("counterexample", "--epsilon", "0.4", "--steps", "5,5"), "--steps"),
        (("counterexample", "--epsilon", "0.4", "--steps", ""),
         "no step indices"),
        (("schauder", "-m", "1", "--basis-steps", "2,2,2"), "--basis-steps")])
    def test_duplicate_or_empty_index_list_exits_2(self, capsys, argv,
                                                   message):
        code, out, err = run_cli(capsys, "scan", *argv, "--nmax", "128")
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("target, count", [
        ("eigen", 8), ("counterexample", 9), ("gp", 7), ("inclusion", 6),
        ("schauder", 11)])
    def test_option_count_per_target(self, target, count):
        parser = dict(_leaf_parsers())[("scan", target)]
        assert len(_options(parser)) == count

    @pytest.mark.parametrize("target", list(_GOOD_TARGET_ARGV))
    def test_other_targets_options_exit_2(self, capsys, target):
        leaves = dict(_leaf_parsers())
        own = _options(leaves[("scan", target)])
        foreign = {opt for name, parser in leaves.items()
                   if name[0] == "scan" for opt in _options(parser)} - own
        assert foreign
        base = _GOOD_TARGET_ARGV[target]
        assert run_cli(capsys, "scan", target, *base)[0] == 0
        for opt in sorted(foreign):
            code, out, _ = run_cli(capsys, "scan", target, *base, opt, "1")
            assert code == 2 and out == "", opt

    @pytest.mark.parametrize("command", [
        ("norm",), ("spectrum",), ("selftest",),
        *(("scan", target) for target in _GOOD_TARGET_ARGV)])
    def test_drawn_argv_exit_codes(self, command, coeffs_path):
        parser = dict(_leaf_parsers())[command]
        _drawn_argv_property(command, parser, coeffs_path)
