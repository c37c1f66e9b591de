"""Acceptance suite: the twelve headline claims, each run end to end at its
stated tolerance with one visible PASS/FAIL line.

The criteria come from one in-process `maxface verify --jobs 1` run per
session (the verify_run fixture, shared with the golden test), so a green
run here certifies the shipped command's report, not a test-only fixture.
The negative controls then perturb one seam at a time and require the
checks of criteria 4-6 that exist to catch each defect to fail.
"""

import cmath
import dataclasses
import json
import math
import re

import pytest

from maxface import periods as per
from maxface import singularities as sng
from maxface import verify as verify_mod
from maxface import weierstrass as wst

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


# ---------------------------------------------------------------------------
# negative controls of criteria 4-6: each row perturbs one seam and names,
# by criterion id and name pattern, checks that must then fail
# ---------------------------------------------------------------------------

def _off_ck(mp):
    """The genus family at c_k (1 + 1e-3) instead of its closing c_k."""
    family = wst._genus_family
    mp.setattr(wst, "_genus_family", lambda k, c, reduced: family(
        k, per.compute_ck(k).c_k * (1 + 1e-3) if c is None else c, reduced))


def _dropped_traces(first):
    """_march losing the last trace of every step size from the first-th."""
    def patch(mp):
        march = sng._march
        mp.setattr(sng, "_march", lambda *args: [
            kept[:-1] if i >= first else kept for i, kept in enumerate(march(*args))])
    return patch


def _scaled_eta(factor, names):
    """The named surfaces with eta and eta' times factor, so alpha is
    divided by it (factor i gives the conjugate surface)."""
    def patch(mp):
        get = wst.catalog_get

        def scaled(name, **params):
            data = get(name, **params)
            if name not in names:
                return data
            eta, deta = data.eta, data.deta
            return dataclasses.replace(data, eta=lambda p: factor * eta(p),
                                       deta=lambda p: factor * deta(p))
        mp.setattr(wst, "catalog_get", scaled)
    return patch


def _traversal_pass_edited(edit):
    """_traversal_pass with edit applied to its (level, crossings)."""
    def patch(mp):
        traversal_pass = sng._traversal_pass
        mp.setattr(sng, "_traversal_pass",
                   lambda data, comp: edit(*traversal_pass(data, comp)))
    return patch


def _only_im_alpha(level, crossings):
    """The crossings of Re alpha (the cross caps) left out."""
    imag = crossings[3]
    return level, tuple(None if col is None else col[imag] for col in crossings)


def _axis_report_zeroed(mp):
    """A Gauss-map winding and an eta-hat floor of 0 reported on cone-like
    components.  No perturbation of the data fails these two checks, since
    cone_like already requires winding +-1 and eta-hat bounded away from 0;
    this row only shows that the checks read the report."""
    count = sng.count_singularities
    mp.setattr(sng, "count_singularities", lambda data, comps: [
        dict(c, gauss_winding=0, eta_chart_min=0.0) if c["cone_like"] else c
        for c in count(data, comps)])


NEGATIVE_CONTROLS = {
    "c_k off by 1e-3": (_off_ck, {4: [r"oval identity$"]}),
    "last trace dropped": (_dropped_traces(0), {
        4: [r"component count$", r"totals$", r"step-halving stability$",
            r"^genus_k_reduced k=\d: oval identity$"],
        5: [r"^cone: component count$"],
        6: [r"^trinoid: swallowtails$"]}),
    "finer trace loses one": (_dropped_traces(1), {4: [r"step-halving stability$"]}),
    "cross caps missed": (_traversal_pass_edited(_only_im_alpha), {
        4: [r"points$", r"totals$"],
        5: [r"edges \+ swallowtails \+ cross caps$"]}),
    "conjugate data": (_scaled_eta(1j, ("cone", "trinoid1")), {
        5: [r"^cone: axis is cone-like$"],
        6: [r"^trinoid: swallowtails$", r"^trinoid: cross caps$"]}),
    "cone eta times 10 e^(1e-9 i)": (_scaled_eta(10 * cmath.exp(1e-9j), ("cone",)), {
        5: [r"max\|Im alpha\|$", r"min\|alpha\|$"]}),
    "every component cone-like": (_traversal_pass_edited(
        lambda level, crossings: (dict(level, cone_like=True), crossings)),
        {6: [r"cone-like components$"]}),
    "axis report zeroed": (_axis_report_zeroed, {
        5: [r"G-winding$", r"eta-hat floor$"]}),
}


@pytest.mark.parametrize("row", NEGATIVE_CONTROLS)
def test_negative_control_fails_its_checks(row, criteria, monkeypatch):
    """Under the row's perturbation each named criterion fails without an
    error, and every check of the unperturbed report that a pattern of the
    row matches is reported again and fails."""
    patch, expected = NEGATIVE_CONTROLS[row]
    patch(monkeypatch)
    for cid, patterns in expected.items():
        result = verify_mod.run_criterion(cid)
        assert "error" not in result and result["pass"] is False
        passed = {check["name"]: check["pass"] for check in result["checks"]}
        for pattern in patterns:
            names = [check["name"] for check in criteria[cid]["checks"]
                     if re.search(pattern, check["name"])]
            assert names, (cid, pattern)
            assert all(passed.get(name) is False for name in names), (cid, pattern)


def test_negative_controls_cover_criteria_4_to_6(criteria):
    """Every check of criteria 4, 5 and 6 is failed by some row."""
    names = [(cid, check["name"]) for cid in (4, 5, 6)
             for check in criteria[cid]["checks"]]
    assert len(names) == 33
    for cid, name in names:
        assert any(re.search(pattern, name)
                   for _, expected in NEGATIVE_CONTROLS.values()
                   for pattern in expected.get(cid, ())), (cid, name)


def test_criterion_4_without_components_fails_by_name(monkeypatch):
    """A surface that traces no component fails its count and oval checks
    (the worst oval residual of no oval is inf) instead of ending the
    criterion with an error."""
    monkeypatch.setattr(sng, "trace_singular_set",
                        lambda data, steps: [[] for _ in steps])
    result = verify_mod.run_criterion(4)
    assert "error" not in result and result["pass"] is False
    checks = {check["name"]: check for check in result["checks"]}
    for name in ("genus_k k=1", "genus_k k=3", "genus_k_reduced k=2",
                 "genus_k_reduced k=4"):
        assert checks[f"{name}: component count"]["value"] == 0
        assert checks[f"{name}: oval identity"]["value"] == math.inf
        for what in ("component count", "oval identity", "totals"):
            assert checks[f"{name}: {what}"]["pass"] is False
