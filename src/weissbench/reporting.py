"""Deterministic CSV and JSON report emission.

All numeric cells use 17-significant-digit decimals and LF line endings so
identical inputs produce byte-identical files; the JSON summary lists the
scenario parameters, the run's configuration and one entry per executed
check.
"""
import json
from typing import NamedTuple

__all__ = ["CheckResult", "check", "format_cell", "write_csv",
           "summary_payload", "write_summary"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst_slack: float
    details: str


def check(name, slack, details):
    """A check passes exactly when its slack is nonnegative."""
    return CheckResult(name, bool(slack >= 0.0), float(slack), details)


def format_cell(value):
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    """One line a row: a row of numbers goes through one "%.17g,...\n"
    template, which formats a number as format_cell does; a row that the
    template rejects (a string cell, or another length) goes cell by cell."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            try:
                fh.write(template % row)
            except TypeError:
                fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def summary_payload(params, config, checks):
    """Summary document: {params: {q, beta, gamma}, config, checks: [...]};
    config is the run's other settings as a dict of JSON scalars."""
    return {
        "params": {"q": params.q, "beta": params.beta, "gamma": params.gamma},
        "config": config,
        "checks": [
            {"name": c.name, "pass": c.passed, "worst_slack": c.worst_slack,
             "details": c.details}
            for c in checks
        ],
    }


def write_summary(path, payload):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
