"""The output validators flag broken runs and accept in-tolerance ones.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import validate

REFERENCE = Path(validate.__file__).resolve().parent / "reference" \
    / "full-report"


@pytest.fixture
def report(tmp_path):
    """An output directory that matches the reference, all checks passing."""
    out = tmp_path / "out"
    shutil.copytree(REFERENCE, out)
    (out / "summary.json").write_text(json.dumps(
        {"params": {"q": 4.0}, "checks": [
            {"name": "xi-nonnegative", "pass": True, "worst_slack": 0.1,
             "details": ""}]}))
    return out


def check(out, exit_code=0, partner=None):
    return validate.validate_full_report(str(out), exit_code, str(REFERENCE),
                                         partner=partner)


def scale_cell(path, row, col, factor):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) * factor, ".17g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_matching_report_passes(report):
    assert check(report) == []


def test_roundoff_inside_the_tolerance_passes(report):
    scale_cell(report / "xi.csv", 50, 1, 1.0 + 1e-12)
    scale_cell(report / "bessel.csv", 5, 2, 1.0 + 1e-9)
    assert check(report) == []


@pytest.mark.parametrize("name,row,col", [("xi.csv", 50, 1),
                                          ("weiss.csv", 7, 2),
                                          ("bessel.csv", 5, 2),
                                          ("divergence.csv", 3, 3)])
def test_perturbed_artifact_fails(report, name, row, col):
    scale_cell(report / name, row, col, 1.0 + 1e-5)
    problems = check(report)
    assert len(problems) == 1 and problems[0].startswith(name)


def test_missing_artifact_fails(report):
    (report / "decay.csv").unlink()
    assert any("decay.csv missing" in p for p in check(report))


def test_nonzero_exit_fails(report):
    assert check(report, exit_code=1) == ["exit code 1"]


def test_missing_summary_fails(report):
    (report / "summary.json").unlink()
    assert any("summary.json" in p for p in check(report))


def test_failed_check_in_summary_fails(report):
    summary = json.loads((report / "summary.json").read_text())
    summary["checks"][0]["pass"] = False
    (report / "summary.json").write_text(json.dumps(summary))
    assert any("failing checks" in p for p in check(report))


def test_same_seed_must_be_byte_identical(report, tmp_path):
    partner = tmp_path / "partner"
    shutil.copytree(report, partner)
    assert check(report, partner=str(partner)) == []
    scale_cell(partner / "xi.csv", 50, 1, 1.0 + 1e-15)
    assert check(report, partner=str(partner)) == [
        "xi.csv differs between two runs with the same seed"]


def test_gram_form_tolerance_covers_one_entry_gate():
    # A single unit coefficient sees only the diagonal entry's gate.
    tol = validate.gram_form_tolerance(np.array([1.0]), q=4.0)
    scale = np.pi ** 1.75 / 1.75
    assert tol == pytest.approx(4.0 * validate.TOL * scale)


def test_endpoint_validator_flags_distribution_mismatch():
    class Bound:
        worst_slack = 0.01

    out = {"distribution": [(1.0, 0.5, 0.5), (2.0, 0.25, 0.25)],
           "norms": (2.0, 2.0), "lower_bound": Bound(), "weiss_sup": 1.0,
           "profile": np.array([[1e-2, 0, 0, 1.0], [1e-3, 0, 0, 1.01]])}
    assert validate.validate_endpoint(out) == []
    out["distribution"][1] = (2.0, 0.25, 0.25000000000000006)
    assert len(validate.validate_endpoint(out)) == 1
