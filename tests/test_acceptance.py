"""Acceptance suite: the twelve headline claims, each run end to end at its
stated tolerance with one visible PASS/FAIL line.

The criteria come from one in-process `maxface verify --jobs 1` run per
session (the verify_run fixture, shared with the golden test), so a green
run here certifies the shipped command's report, not a test-only fixture.
"""

import json

import pytest

from maxface import verify as verify_mod

CRITERIA = sorted(verify_mod.CRITERIA)


@pytest.fixture(scope="module")
def criteria(verify_run):
    _, files = verify_run
    return {row["id"]: row
            for row in json.loads(files["verify.json"])["criteria"]}


def _fmt_value(check):
    val = check["value"]
    if isinstance(val, bool):
        return str(val)
    if isinstance(val, float):
        return f"{val:.3e}"
    return str(val)


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(cid, criteria, capsys):
    result = criteria[cid]
    status = "PASS" if result["pass"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {cid:2d}: {result['title']}")
        if not result["pass"]:
            for check in result["checks"]:
                if not check["pass"]:
                    print(f"    failed: {check['name']} = "
                          f"{_fmt_value(check)} (tol {check['tolerance']})")
            if result.get("error"):
                print(f"    error: {result['error']}")
    assert result["pass"], (
        f"criterion {cid} ({result['title']}) failed: "
        + "; ".join(c["name"] for c in result["checks"] if not c["pass"])
        + (f"; error: {result['error']}" if result.get("error") else ""))
