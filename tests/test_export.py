"""Serialization: JSON reports, meshes, polyline CSVs, and the mini schema
validator the CLI uses to gate its own output."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import export
from maxface import schema as schema_mod
from maxface import singularities as sng
from maxface import weierstrass as wst
from maxface.errors import ValidationError

# ---------------------------------------------------------------------------
# scalar formatting and jsonable
# ---------------------------------------------------------------------------

@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=120, deadline=None)
def test_fmt_float_round_trips(x):
    assert float(export.fmt_float(x)) == x or (x == 0.0)


def test_fmt_float_specials():
    assert export.fmt_float(0.0) == "0"
    assert export.fmt_float(-0.0) == "0"
    assert export.fmt_float(float("nan")) == "nan"
    assert export.fmt_float(float("inf")) == "inf"
    assert export.fmt_float(float("-inf")) == "-inf"


def test_jsonable_preserves_bool():
    """bool is an int subclass: it must survive as JSON true/false."""
    out = export.jsonable({"ok": True, "n": 1, "bad": False})
    assert out["ok"] is True
    assert out["bad"] is False
    assert out["n"] == 1 and not isinstance(out["n"], bool)
    assert json.loads(json.dumps(out)) == {"ok": True, "n": 1, "bad": False}


def test_jsonable_complex_and_arrays():
    out = export.jsonable({"z": 1 + 2j, "v": np.array([1.0, 2.0])})
    assert out["z"] == {"re": 1.0, "im": 2.0}
    assert out["v"] == [1.0, 2.0]
    assert export.jsonable(np.float64(0.5)) == 0.5
    assert export.jsonable(np.int32(7)) == 7
    assert export.jsonable(np.bool_(True)) is True


def test_jsonable_nonfinite_to_strings():
    assert export.jsonable(float("nan")) == "nan"
    assert export.jsonable(float("-inf")) == "-inf"


def test_jsonable_rejects_unknown():
    with pytest.raises(ValidationError):
        export.jsonable(object())


def test_dump_json_deterministic():
    doc = export.report_document("gallery", {"b": 1, "a": [2, {"z": 3}]})
    buf1, buf2 = io.StringIO(), io.StringIO()
    export.dump_json(doc, buf1)
    export.dump_json(export.report_document(
        "gallery", {"a": [2, {"z": 3}], "b": 1}), buf2)
    s1, s2 = buf1.getvalue(), buf2.getvalue()
    assert s1 == s2
    assert s1.endswith("\n")
    assert json.loads(s1)["schema"] == export.SCHEMA_ID


# ---------------------------------------------------------------------------
# mesh writers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_mesh():
    data = wst.catalog_get("catenoid")
    return wst.mesh_sample(data, nr=3, nth=6)


def test_write_obj_shape(small_mesh):
    buf = io.StringIO()
    export.write_obj(small_mesh, buf, "test")
    lines = buf.getvalue().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == len(small_mesh.vertices)
    assert nf == len(small_mesh.faces)
    # faces are 1-indexed and in range
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(tok) for tok in ln.split()[1:]]
            assert len(idx) == 4
            assert min(idx) >= 1 and max(idx) <= nv


def test_write_ply_header(small_mesh):
    buf = io.StringIO()
    export.write_ply(small_mesh, buf, "test")
    text = buf.getvalue()
    assert text.startswith("ply\n")
    assert f"element vertex {len(small_mesh.vertices)}" in text
    assert "property float metric_factor" in text
    assert "end_header" in text


def test_write_desitter_ply_coordinates():
    xs = np.array([[0.0, 0.0, 0.0, 1.0], [0.1, 0.05, 0.02, 1.004]])
    # hyperboloid points: -x0^2 + x1^2 + x2^2 + x3^2 = 1 approx
    buf = io.StringIO()
    export.write_desitter_ply(xs, np.zeros((0, 4), dtype=int), buf, "t")
    text = buf.getvalue()
    assert "property float x0" in text
    assert "element vertex 2" in text


def test_write_obj_deterministic(small_mesh):
    b1, b2 = io.StringIO(), io.StringIO()
    export.write_obj(small_mesh, b1, "same")
    export.write_obj(small_mesh, b2, "same")
    assert b1.getvalue() == b2.getvalue()


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_singular_csv_round_trips(cone25):
    [comps] = sng.trace_singular_set(cone25)
    buf = io.StringIO()
    export.write_singular_csv(comps, buf)
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["component", "circuit", "index", "chart"]
    total = sum(c.circuits * c.vertex_count for c in comps)
    assert len(lines) - 1 == total
    # float fields parse back
    row = lines[1].split(",")
    float(row[4]); float(row[5]); float(row[6]); float(row[7])


def test_period_csv():
    from maxface import periods as per
    rep = per.period_report(1)
    buf = io.StringIO()
    export.write_period_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "loop,residual"
    assert len(lines) - 1 == len(rep["residuals"])


# ---------------------------------------------------------------------------
# schema validator
# ---------------------------------------------------------------------------

def test_schema_accepts_valid_report():
    doc = export.report_document("gallery", {"surfaces": []})
    schema_mod.assert_valid(doc)


def test_schema_rejects_bad_kind():
    doc = export.report_document("gallery", {})
    doc["kind"] = "bogus"
    problems = schema_mod.validate(doc, schema_mod.load_schema())
    assert problems
    with pytest.raises(ValidationError):
        schema_mod.assert_valid(doc)


def test_schema_rejects_missing_required():
    doc = {"kind": "gallery"}
    problems = schema_mod.validate(doc, schema_mod.load_schema())
    assert any("schema" in p for p in problems)


def test_schema_type_checks():
    sch = {"type": "object",
           "properties": {"n": {"type": "integer"},
                          "flag": {"type": "boolean"}},
           "required": ["n"]}
    assert not schema_mod.validate({"n": 3, "flag": True}, sch)
    # bool must NOT satisfy integer
    assert schema_mod.validate({"n": True}, sch)
    assert schema_mod.validate({"n": 3.5}, sch)


def test_schema_array_items():
    sch = {"type": "array", "items": {"type": "number"}}
    assert not schema_mod.validate([1, 2.5], sch)
    assert schema_mod.validate([1, "x"], sch)


def test_verify_report_matches_schema():
    from maxface import verify as verify_mod
    out = verify_mod.run_all(ids=[3, 7])
    doc = export.report_document("verify", out)
    schema_mod.assert_valid(doc)
