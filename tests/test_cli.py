"""Command-line interface: exit codes, artifacts, determinism, reporting."""
import json
import math
import os

import numpy as np
import pytest

import weissbench
from weissbench import StepFunction, lorentz_norm
from weissbench.cli import main
from weissbench.errors import (EXIT_CHECK_FAILED, EXIT_CONFIG_INVALID,
                               EXIT_IO_ERROR, EXIT_OK, DomainError,
                               ToleranceNotMet)
from weissbench.reporting import (check, format_cell, summary_payload,
                                  write_csv)
from weissbench.semigroup import lambda_grid


def indicator_csv(tmp_path):
    path = tmp_path / "steps.csv"
    StepFunction([0.0, 0.7], [1.0]).write_csv(path)
    return str(path)


# -------------------------------------------------------------- reporting
def test_exit_code_values():
    assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_INVALID, EXIT_IO_ERROR) \
        == (0, 1, 2, 3)


def test_format_cell_roundtrips_doubles():
    for x in (math.pi, 1.0 / 3.0, 1e-300, 4.0**-5, 0.1):
        assert float(format_cell(x)) == x
    assert format_cell("label") == "label"
    assert format_cell(2.0) == "2"


def test_check_sign_convention():
    good = check("name", 0.0, "boundary counts as pass")
    bad = check("name", -1e-12, "")
    assert good.passed and not bad.passed
    assert good.worst_slack == 0.0


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.0, 0.1), (2.0, "x")])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.10000000000000001\n2,x\n"


def test_summary_payload_schema():
    class P:
        q, beta, gamma = 4.0, 0.375, 0.25

    config = {"tol": 1e-9, "tau": 0.5, "eps_min": 1e-6, "seed": 3,
              "version": "9.9"}
    payload = summary_payload(P(), config, [check("c1", 1.0, "fine")])
    assert list(payload) == ["params", "config", "checks"]
    assert payload["params"] == {"q": 4.0, "beta": 0.375, "gamma": 0.25}
    assert payload["config"] == config
    entry = payload["checks"][0]
    assert set(entry) == {"name", "pass", "worst_slack", "details"}
    assert entry["pass"] is True


# ----------------------------------------------------------- lorentz-norm
def test_lorentz_norm_prints_norm(tmp_path, capsys):
    path = indicator_csv(tmp_path)
    code = main(["lorentz-norm", "--input", path, "--p", "2.5", "--q", "1.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    want = lorentz_norm(StepFunction.read_csv(path), (2.5, 1.5))
    assert printed == format_cell(want) + "\n"


def test_lorentz_norm_weak_index(tmp_path, capsys):
    path = indicator_csv(tmp_path)
    code = main(["lorentz-norm", "--input", path, "--p", "2.0", "--q", "inf",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert float(capsys.readouterr().out) == \
        pytest.approx(0.7**0.5, rel=1e-12)


@pytest.mark.parametrize("existing", [False, True],
                         ids=["new-nested-dir", "a-file"])
def test_lorentz_norm_leaves_output_dir_alone(tmp_path, capsys, existing):
    # the command writes no file, so it neither creates nor checks the dir
    path = indicator_csv(tmp_path)
    out = tmp_path / "out"
    if existing:
        out.write_text("not a directory")
    target = out if existing else out / "sub"
    code = main(["lorentz-norm", "--input", path, "--output-dir", str(target)])
    assert code == EXIT_OK
    assert out.is_file() if existing else not out.exists()
    assert float(capsys.readouterr().out) > 0.0


def test_lorentz_norm_missing_input_is_io_error(tmp_path, capsys):
    code = main(["lorentz-norm", "--input", str(tmp_path / "absent.csv"),
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_IO_ERROR
    assert "i/o failure" in capsys.readouterr().err


def test_lorentz_norm_bad_index_is_config_error(tmp_path, capsys):
    path = indicator_csv(tmp_path)
    code = main(["lorentz-norm", "--input", path, "--q", "0.5",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_INVALID
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "breakpoint,value\n0\n1,\n",       # a row with one cell
    "breakpoint,value\n0,abc\n1,\n",   # a non-numeric cell
])
def test_lorentz_norm_malformed_rows_are_config_errors(tmp_path, capsys,
                                                       text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code = main(["lorentz-norm", "--input", str(path),
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_INVALID
    err = capsys.readouterr().err
    assert "invalid configuration: malformed step data" in err
    assert "Traceback" not in err


def test_lorentz_norm_overflow_is_config_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("breakpoint,value\n0,1e308\n1e10,\n")
    code = main(["lorentz-norm", "--input", str(path),
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "norm overflows the float range" in captured.err


# ------------------------------------------------------------ validation
@pytest.mark.parametrize("argv", [
    ["orbit", "--q", "1.5"],
    ["orbit", "--q", "2.0"],
    ["orbit", "--tol", "1.0"],
    ["orbit", "--tau", "2.0"],
    ["orbit", "--eps-min", "2.0"],
    ["weiss-scan", "--q", "1.0"],
    ["full-report", "--seed", "-1"],  # np.random.default_rng raised
    ["counterexample", "--q", "2e16"],  # q >= 2^54, outside the domain
])
def test_invalid_configuration_exits_2(tmp_path, capsys, argv):
    code = main(argv + ["--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_INVALID
    assert "invalid configuration" in capsys.readouterr().err


# ---------------------------------------------------------------- suites
def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def assert_all_pass(outdir):
    payload = read_summary(outdir)
    assert set(payload["params"]) == {"q", "beta", "gamma"}
    assert set(payload["config"]) == {"tol", "tau", "eps_min", "seed",
                                      "version"}
    assert payload["checks"], "no checks recorded"
    for entry in payload["checks"]:
        assert set(entry) == {"name", "pass", "worst_slack", "details"}
        assert entry["pass"] is True, entry
    names = [entry["name"] for entry in payload["checks"]]
    assert len(names) == len(set(names)), "duplicate check names"
    return payload


def test_orbit_suite(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["orbit", "--output-dir", out]) == EXIT_OK
    payload = assert_all_pass(out)
    assert payload["params"] == {"q": 4.0, "beta": 0.375, "gamma": 0.25}
    raw = (tmp_path / "decay.csv").read_bytes()
    assert raw.startswith(b"t,decay_sample\n")
    assert b"\r" not in raw
    assert capsys.readouterr().err == ""


def test_weiss_scan_suite(tmp_path):
    out = str(tmp_path)
    assert main(["weiss-scan", "--output-dir", out]) == EXIT_OK
    assert_all_pass(out)
    header = (tmp_path / "weiss.csv").read_text().splitlines()[0]
    assert header == "re_lambda,im_lambda,weiss_quotient"
    for name in ("weiss_orthonormal.csv", "decay_orthonormal.csv"):
        assert (tmp_path / name).exists()
    # the orthonormal scan is read off the doubled grid; its rows must still
    # be exactly the default grid
    rows = np.loadtxt(tmp_path / "weiss_orthonormal.csv", delimiter=",",
                      skiprows=1)
    grid = lambda_grid()
    assert np.array_equal(rows[:, 0], grid.real)
    assert np.array_equal(rows[:, 1], grid.imag)


def test_counterexample_suite(tmp_path):
    out = str(tmp_path)
    assert main(["counterexample", "--q", "3.0", "--output-dir", out]) \
        == EXIT_OK
    payload = assert_all_pass(out)
    assert payload["params"]["q"] == 3.0
    xi_rows = (tmp_path / "xi.csv").read_text().splitlines()
    assert xi_rows[0] == "n,xi,xi_asymptotic"
    assert xi_rows[1].startswith("0,") and xi_rows[1].endswith(",")
    assert len(xi_rows) == 2002
    div_rows = (tmp_path / "divergence.csv").read_text().splitlines()
    assert div_rows[0] == "eps,envelope_l2q,orbit_l2q,orbit_l2inf"


def test_bessel_suite(tmp_path):
    out = str(tmp_path)
    assert main(["bessel-check", "--output-dir", out]) == EXIT_OK
    assert_all_pass(out)
    rows = (tmp_path / "bessel.csv").read_text().splitlines()
    assert rows[0] == "N,coefficient_sum_sq,quadratic_form,ratio"
    assert len(rows) == 6


def test_full_report_writes_everything(tmp_path):
    out = str(tmp_path)
    assert main(["full-report", "--output-dir", out]) == EXIT_OK
    payload = assert_all_pass(out)
    assert len(payload["checks"]) >= 20
    for name in ("lorentz.csv", "laplace.csv", "weiss.csv",
                 "weiss_orthonormal.csv", "decay_orthonormal.csv",
                 "decay.csv", "xi.csv", "divergence.csv", "bessel.csv",
                 "summary.json"):
        assert (tmp_path / name).exists(), name


def test_outputs_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["orbit", "--output-dir", str(d1)]) == EXIT_OK
    assert main(["orbit", "--output-dir", str(d2)]) == EXIT_OK
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_summary_records_the_configuration(tmp_path):
    # every setting but the output directory, and the package version,
    # with the types JSON gives them; a rerun writes the same bytes
    argv = ["orbit", "--tol", "1e-9", "--tau", "0.5", "--eps-min", "1e-6",
            "--seed", "3"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(argv + ["--output-dir", str(d)]) == EXIT_OK
    assert (d1 / "summary.json").read_bytes() == \
        (d2 / "summary.json").read_bytes()
    config = read_summary(str(d1))["config"]
    assert config == {"tol": 1e-9, "tau": 0.5, "eps_min": 1e-6, "seed": 3,
                      "version": weissbench.__version__}
    assert type(config["seed"]) is int and type(config["tol"]) is float


@pytest.mark.parametrize("command", ["orbit", "counterexample"])
def test_subnormal_eps_min_writes_a_summary(tmp_path, capsys, command):
    # 1e-320 lies in (0, tau): the run's grids count decades as a difference
    # of logs, since 1 / 1e-320 overflows; the checks may fail at such
    # windows, but the run ends with its summary
    code = main([command, "--eps-min", "1e-320", "--output-dir",
                 str(tmp_path)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert "Traceback" not in capsys.readouterr().err
    payload = read_summary(str(tmp_path))
    assert payload["config"]["eps_min"] == 1e-320
    assert payload["checks"]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("WEISSBENCH_OUTPUT_DIR", str(target))
    assert main(["orbit"]) == EXIT_OK
    assert (target / "summary.json").exists()


def test_failed_check_exits_1(tmp_path, capsys, monkeypatch):
    from weissbench import cli
    from weissbench.reporting import CheckResult

    monkeypatch.setattr(cli, "_suite_orbit", lambda args, outdir: [
        CheckResult("forced-failure", False, -1.0, "injected")])
    code = main(["orbit", "--output-dir", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    assert "FAILED forced-failure" in capsys.readouterr().err
    payload = read_summary(str(tmp_path))
    assert payload["checks"][0]["pass"] is False


def test_suite_error_becomes_failed_check(tmp_path, capsys, monkeypatch):
    from weissbench import cli

    def uncertified(*args, **kwargs):
        raise ToleranceNotMet("injected", value=1.0, estimate=2.0)

    # a quadrature that cannot certify its result inside the suite; the run
    # still records it
    monkeypatch.setattr(cli.ce, "XiTable", uncertified)
    code = main(["counterexample", "--q", "30", "--output-dir", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    assert "FAILED counterexample-suite: ToleranceNotMet" \
        in capsys.readouterr().err
    payload = read_summary(str(tmp_path))
    assert payload["params"]["q"] == 30.0
    [entry] = payload["checks"]
    assert entry["name"] == "counterexample-suite"
    assert entry["pass"] is False
    assert entry["details"].startswith("ToleranceNotMet: ")


def test_counterexample_suite_small_gamma(tmp_path):
    # gamma = 1/q: the singular head of s^(gamma-1) is taken in closed
    # form, and gamma reaches the quadrature as itself, not as the rounded
    # gamma - 1, so every check of the suite is certified down to 1e-12
    for q in ("30", "1e9", "1e12"):
        out = str(tmp_path / q)
        assert main(["counterexample", "--q", q, "--output-dir", out]) \
            == EXIT_OK
        assert_all_pass(out)
        assert read_summary(out)["params"]["q"] == float(q)


def test_counterexample_huge_q_strong_norm_monotone(tmp_path):
    # at q = 1e6 the orbit's (2, q) norm raised to the q-th power leaves the
    # float range; the monotonicity gate compares q log(norm) instead
    code = main(["counterexample", "--q", "1e6", "--output-dir",
                 str(tmp_path)])
    assert code == EXIT_OK

    def reject(constant):
        raise ValueError(f"summary.json holds {constant}")

    text = (tmp_path / "summary.json").read_text()
    checks = {c["name"]: c for c in
              json.loads(text, parse_constant=reject)["checks"]}
    assert checks["strong-norm-monotone"]["pass"]
    assert checks["strong-norm-monotone"]["worst_slack"] > 0.0


def test_counterexample_huge_q_divergence_slope(tmp_path):
    # at q = 1e16 the envelope norm log(ratio)^(1/q) rounds to 1.0, so the
    # slope gate regresses the closed-form q-th power log(ratio) instead
    assert main(["counterexample", "--q", "1e16", "--output-dir",
                 str(tmp_path)]) == EXIT_OK
    checks = {c["name"]: c for c in read_summary(str(tmp_path))["checks"]}
    assert checks["divergence-slope"]["pass"]
    assert checks["divergence-slope"]["details"].startswith(
        "envelope q-power slope 1.0000 ")


def test_domain_error_inside_a_suite_exits_2(tmp_path, capsys, monkeypatch):
    from weissbench import cli

    def bad_suite(args, outdir):
        raise DomainError("injected")

    monkeypatch.setattr(cli, "_suite_orbit", bad_suite)
    code = main(["orbit", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_INVALID
    assert "invalid configuration: injected" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
