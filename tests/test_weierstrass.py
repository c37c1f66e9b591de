"""Weierstrass data: the catalog, Phi integration, mesh sampling, vanishing
orders, and the Gauss-map degree bookkeeping."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import cover as cov
from maxface import periods as per
from maxface import weierstrass as wst
from maxface.errors import ValidationError

# ---------------------------------------------------------------------------
# rational-function evaluator
# ---------------------------------------------------------------------------

def test_rational_eval_matches_polyval():
    r = wst.RationalFunction([1.0, -2.0, 3.0], [2.0, 0.5])
    for z in (0.3 + 0.1j, 0.9j, -0.7):
        want = np.polyval([1, -2, 3], z) / np.polyval([2, 0.5], z)
        assert r(z) == pytest.approx(want, rel=1e-12)


def test_rational_eval_large_argument():
    # (z^2+1)/(z^3) -> evaluated through the 1/z chart for |z|>1
    r = wst.RationalFunction([1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
    z = 1e8 + 3e7j
    assert r(z) == pytest.approx((z * z + 1) / z ** 3, rel=1e-10)


def test_rational_derivative():
    r = wst.RationalFunction([1.0, 0.0], [1.0, 1.0])  # z/(z+1)
    dr = r.deriv()
    z = 0.4 - 0.2j
    assert dr(z) == pytest.approx(1.0 / (z + 1.0) ** 2, rel=1e-12)


@given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
@settings(max_examples=40, deadline=None)
def test_rational_inside_outside_consistency(re, im):
    """Values agree across the |z|=1 evaluation switch."""
    r = wst.RationalFunction([2.0, 1.0, -0.5], [1.0, 0.0, 2.0])
    z = complex(re, im)
    if abs(z) < 1e-3:
        return
    inside = r(z)
    outside = r(1.0 / z)
    u = 1.0 / z
    want = (2 * u * u + u - 0.5) / (u * u + 2.0)
    assert outside == pytest.approx(want, rel=1e-9)
    assert inside == pytest.approx((2 * z * z + z - 0.5) / (z * z + 2), rel=1e-9)


# ---------------------------------------------------------------------------
# catalog basics
# ---------------------------------------------------------------------------

def test_catalog_has_expected_entries():
    names = {row["name"] for row in wst.catalog_list()}
    assert {"catenoid", "helicoid", "associated", "trinoid1", "trinoid2",
            "cone", "genus_k", "genus_k_reduced"} <= names
    assert len(names) >= 8


def test_catalog_constraint_enforcement():
    with pytest.raises(ValidationError):
        wst.catalog_get("cone", a=2.0)   # excluded parameter
    with pytest.raises(ValidationError):
        wst.catalog_get("cone", a=5.0)   # outside (1, 4)
    with pytest.raises(ValidationError):
        wst.catalog_get("trinoid1", a=0.3)
    with pytest.raises(ValidationError):
        wst.catalog_get("genus_k", k=0)
    with pytest.raises(ValidationError):
        wst.catalog_get("nonexistent_surface")


CATALOG_CASES = [
    ("catenoid", {}),
    ("helicoid", {}),
    ("associated", {"phase": 0.6}),
    ("trinoid1", {"a": 3.67}),
    ("trinoid2", {"c": 0.1}),
    ("cone", {"a": 2.5}),
    ("genus_k", {"k": 1}),
    ("genus_k_reduced", {"k": 2}),
]


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_phi_is_null_direction(name, params):
    """<Phi,Phi> = 0 in the Lorentz form, for every catalog surface."""
    data = wst.catalog_get(name, **params)
    p = data.point(1.7 + 0.43j)
    assert wst.phi_null_residual(data, p) < 1e-12


def test_metric_factor_vanishes_on_unit_gauss():
    data = wst.catalog_get("catenoid")
    # catenoid G = z: the singular set is |z| = 1
    p = data.point(cmath.exp(0.7j))
    assert data.metric_factor(p) < 1e-14
    q = data.point(1.5)
    assert data.metric_factor(q) > 1e-3


# ---------------------------------------------------------------------------
# integration oracles
# ---------------------------------------------------------------------------

def test_integrate_phi_catenoid_closed_form():
    """Catenoid: G = z, eta = dz/z^2.  Phi integrates elementarily:
    Int -2 z/z^2 dz = -2 log z,  Int (1+z^2)/z^2 dz = z - 1/z,
    Int i(1-z^2)/z^2 dz = i(-1/z - z)."""
    data = wst.catalog_get("catenoid")
    a, b = 1.0 + 0j, 2.0 + 1.5j
    path = cov.SurfacePath((a, b), None)
    got = wst.integrate_phi(data, path, tol=1e-12)[-1]
    want = np.array([
        -2.0 * (cmath.log(b) - cmath.log(a)),
        (b - 1.0 / b) - (a - 1.0 / a),
        1j * ((-1.0 / b - b) - (-1.0 / a - a)),
    ])
    assert np.allclose(got, want, atol=1e-10)


def test_integrate_form_residue_loop():
    """Int dz/z around the unit-ish circle = 2 pi i (planar chart)."""
    pts = tuple(1.3 * cmath.exp(2j * math.pi * i / 48) for i in range(49))
    path = cov.SurfacePath(pts, None)
    got = wst.integrate_form(None, path, lambda z, w: 1.0 / z, tol=1e-12)[-1]
    assert complex(got) == pytest.approx(2j * math.pi, rel=1e-10)


def test_integrate_form_on_cover_exact_differential():
    """d(w)/dz integrates to w(end) - w(start) on the curve."""
    spec = cov.CoverSpec(1)
    o = cov.base_point(spec)
    path = cov.SurfacePath((o.z, 1.6 + 0.7j, 1.2 + 1.1j), o.w)

    # dw/dz = w L with L = ((2k+1) z^2 - 1)/((k+1) z (z^2-1)), k=1
    def dw(z, w):
        return w * (3 * z * z - 1) / (2 * z * (z * z - 1))

    got = wst.integrate_form(spec, path, dw, tol=1e-12)[-1]
    w_end = cov.LiftedPath(spec, path).w_end
    assert complex(got) == pytest.approx(w_end - o.w, rel=1e-9)


def test_integrate_form_prefixes_are_exact():
    """Entry j is the integral over the first j segments, bit for bit, also
    across a segment detoured around z = 1."""
    spec = cov.CoverSpec(1)
    o = cov.base_point(spec)
    bump = 0.5j * cov.clearance(spec)
    verts = (o.z, 1.3 + bump, 0.7 + bump, 0.8 + 0.9j, 1.6 + 0.4j)

    def form(z, w):
        return np.array([1.0 / w, w / (z * z)])

    whole = wst.integrate_form(spec, cov.SurfacePath(verts, o.w), form)
    assert whole.shape == (len(verts), 2)
    assert not np.any(whole[0])
    for j in range(1, len(verts)):
        part = wst.integrate_form(spec, cov.SurfacePath(verts[:j + 1], o.w), form)
        assert np.array_equal(whole[j], part[-1])


# ---------------------------------------------------------------------------
# mesh sampling
# ---------------------------------------------------------------------------

def _marched_mesh(data, nr, nth):
    """Reference vertices and metric: every grid edge lifted and integrated as
    its own 2-vertex path, marching down the first column and along each
    row from the base point."""
    g, spec = data.default_mesh, data.cover
    th1 = 2.0 * math.pi * (spec.sheet_count if spec is not None else 1)
    radii = np.exp(np.linspace(math.log(g["r0"]), math.log(g["r1"]), nr))
    z = [[r * cmath.exp(1j * th) for th in np.linspace(0.0, th1, nth + 1)]
         for r in radii]

    def leg(za, zb, wa):
        path = cov.SurfacePath((za, zb), wa)
        if spec is not None:
            path = cov.LiftedPath(spec, path)
        return wst.integrate_phi(data, path, 1e-9)[-1].real, getattr(path, "w_end", None)

    xs, mets = np.empty((nr, nth + 1, 3)), np.empty((nr, nth + 1))
    x_col, w_col = leg(data.base.z, z[0][0], data.base.w)
    for i in range(nr):
        if i:
            dx, w_col = leg(z[i - 1][0], z[i][0], w_col)
            x_col = x_col + dx
        x, w = x_col, w_col
        for j in range(nth + 1):
            if j:
                dx, w = leg(z[i][j - 1], z[i][j], w)
                x = x + dx
            xs[i, j] = x
            mets[i, j] = data.metric_factor(cov.SurfacePoint(z[i][j], w))
    return xs.reshape(-1, 3), mets.reshape(-1)


@pytest.mark.parametrize("name, params, nr, nth",
                         [("catenoid", {}, 4, 12), ("genus_k", {"k": 1}, 4, 16)])
def test_mesh_matches_marched_reference(name, params, nr, nth):
    """One lifted path per row gives the vertices of edge-by-edge marching."""
    data = wst.catalog_get(name, **params)
    mesh = wst.mesh_sample(data, nr=nr, nth=nth)
    xs, mets = _marched_mesh(data, nr, nth)
    assert np.max(np.abs(mesh.vertices - xs)) <= 1e-14 * np.max(np.abs(xs))
    assert np.max(np.abs(mesh.metric - mets)) <= 1e-14 * np.max(np.abs(mets))

def test_mesh_catenoid_parallels_are_circles():
    """Rotational symmetry: x1^2 + x2^2 constant along each grid row."""
    data = wst.catalog_get("catenoid")
    mesh = wst.mesh_sample(data, nr=6, nth=48)
    rows, cols = mesh.rows, mesh.cols
    xs = mesh.vertices.reshape(rows, cols, 3)
    for i in range(rows):
        rad2 = xs[i, :, 1] ** 2 + xs[i, :, 2] ** 2
        assert np.max(np.abs(rad2 - rad2.mean())) < 1e-8
        # and x0 is constant on parallels as well
        assert np.max(np.abs(xs[i, :, 0] - xs[i, :, 0].mean())) < 1e-8


def test_mesh_quads_index_range():
    data = wst.catalog_get("catenoid")
    mesh = wst.mesh_sample(data, nr=5, nth=12)
    assert mesh.faces.min() >= 0
    assert mesh.faces.max() < len(mesh.vertices)
    assert mesh.faces.shape[1] == 4


def test_mesh_deterministic():
    data = wst.catalog_get("cone", a=2.5)
    m1 = wst.mesh_sample(data, nr=4, nth=10)
    m2 = wst.mesh_sample(data, nr=4, nth=10)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.faces, m2.faces)


def test_mesh_cover_polar_spans_all_sheets(genus1):
    mesh = wst.mesh_sample(genus1, nr=4, nth=24)
    # theta sweeps 2 pi (k+1): the z-grid returns to the start ray twice
    zs = mesh.zs.reshape(mesh.rows, mesh.cols)
    assert abs(zs[0, 0] - zs[0, -1]) < 1e-9 * (1 + abs(zs[0, 0]))


def test_mesh_metric_nonnegative_finite(genus1):
    mesh = wst.mesh_sample(genus1, nr=4, nth=16)
    assert np.all(mesh.metric >= 0.0)
    assert np.all(np.isfinite(mesh.metric))
    assert np.all(np.isfinite(mesh.vertices))


# ---------------------------------------------------------------------------
# vanishing orders and degree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_order_table_matches_expected(k):
    data = wst.catalog_get("genus_k", k=k, c=per.compute_ck(k).c_k)
    table = wst.order_table(data)
    want = wst.expected_orders(data.cover)
    got = {label: {q: row[q]["order"] for q in row}
           for label, row in table.rows.items()}
    assert got == want
    assert table.max_residual < 0.1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauss_degree_full_curve(k):
    data = wst.catalog_get("genus_k", k=k, c=per.compute_ck(k).c_k)
    assert wst.gauss_degree(data)["degree"] == 2 * k


@pytest.mark.parametrize("k", [1, 2])
def test_osserman_bound(k):
    data = wst.catalog_get("genus_k", k=k, c=per.compute_ck(k).c_k)
    rep = wst.osserman_check(data)
    assert rep["ok"]
    if k == 1:
        assert rep["equality"]


def test_completeness_report_catenoid():
    rep = wst.completeness_report(wst.catalog_get("catenoid"))
    assert rep["all_complete"] and rep["all_nonsingular"]
    assert len(rep["ends"]) == 2
    # both catenoid ends carry the metric growth |eta| ~ r^-2
    for end in rep["ends"]:
        assert end["metric_slope"] == pytest.approx(-2.0, abs=1e-6)


def test_completeness_report_genus_family(genus1):
    rep = wst.completeness_report(genus1)
    assert rep["all_complete"]
    assert len(rep["ends"]) == 2
