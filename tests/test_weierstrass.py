"""Weierstrass data: the catalog, Phi integration, mesh sampling, vanishing
orders, and the Gauss-map degree bookkeeping."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import algebra as alg
from maxface import cover as cov
from maxface import periods as per
from maxface import verify as verify_mod
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


def _polyval_reference(r, z):
    """The two-sided evaluation written with np.polyval and boolean masks."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    near = np.abs(z) <= 1.0
    out[near] = np.polyval(r.num, z[near]) / np.polyval(r.den, z[near])
    u = 1.0 / z[~near]
    out[~near] = (np.polyval(r.num[::-1], u) / np.polyval(r.den[::-1], u)
                  * u ** (len(r.den) - len(r.num)))
    return out


def _python_horner(r, z: complex) -> complex:
    """The two-sided evaluation written out in Python complex arithmetic."""
    near = abs(z) <= 1.0
    x = z if near else 1.0 / z
    num = [complex(c) for c in (r.num if near else r.num[::-1])]
    den = [complex(c) for c in (r.den if near else r.den[::-1])]
    p, q = num[0], den[0]
    for c in num[1:]:
        p = p * x + c
    for c in den[1:]:
        q = q * x + c
    return p / q if near else p / q * x ** (len(r.den) - len(r.num))


def test_rational_eval_bit_identical_to_polyval():
    """On arrays, Horner evaluation equals np.polyval bit for bit: on an
    array mixing |z| < 1, |z| = 1 and |z| > 1, on arrays on one side only,
    for constant polynomials (an array out for an array in) and at poles,
    z = infinity included.  A Python number is evaluated in Python complex
    arithmetic: bit for bit the same recurrence written out here, and equal
    to np.polyval to 1e-15 max(1, |value|) (Python rounds a complex product
    differently from numpy's vectorized loop)."""
    rng = np.random.default_rng(11)
    inside = 0.9 * np.exp(2j * np.pi * rng.random(30)) * rng.random(30)
    outside = np.exp(2j * np.pi * rng.random(30)) / (0.05 + 0.9 * rng.random(30))
    circle = np.exp(2j * np.pi * rng.random(10))
    mixed = np.concatenate([inside, circle, outside, [0.5j, -1.0, 1j, 2.0]])
    rationals = [
        wst.RationalFunction([1.0, -2.0, 3.0], [2.0, 0.5]),
        wst.RationalFunction(np.polymul([1, -1], [1, 2.5, 1]),
                             np.polymul([1, 1], [1, -2.5, 1])),
        wst.RationalFunction([1j, 0.5 - 2j, 0.0, 1.0], [1.0, 0.0, 0.0]),
        wst.RationalFunction([2.0 - 1j]),
        wst.RationalFunction([3.0], [1.5j]),
    ]
    rationals += [r.deriv() for r in rationals[:3]]
    poles = np.array([0.0, -1.0, 0.5, complex("inf")])
    with np.errstate(all="ignore"):   # z = -1 is a pole of rationals[1]
        for r in rationals:
            for z in (mixed, inside, outside, circle):
                got = r(z)
                assert got.shape == z.shape
                assert got.tobytes() == _polyval_reference(r, z).tobytes()
            for z in (0.3 + 0.1j, -0.7, 4.0 - 2j, 1j):
                got = r(z)
                assert type(got) is complex
                assert np.array([got]).tobytes() == \
                    np.array([_python_horner(r, complex(z))]).tobytes()
                ref = complex(_polyval_reference(r, z)[0])
                assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
        for r in (wst.RationalFunction([1.0], [1.0, 0.0]),
                  wst.RationalFunction([1.0, 0.0], [1.0, 1.0]),
                  wst.RationalFunction([1.0, 0.0, 0.0], [2.0, -1.0])):
            got = r(poles)
            assert got.tobytes() == _polyval_reference(r, poles).tobytes()
            assert not np.isfinite(got[:3]).all()


def test_rational_scalar_at_a_pole_is_not_finite():
    """A Python number at a pole returns a non-finite complex and raises
    nothing: z = -1 for the cone's G, z = 0 for 1/z, and z = infinity for z
    itself (1/z has a zero there, which stays 0)."""
    cone_g = wst.catalog_get("cone", a=2.5).G
    inv = wst.RationalFunction([1.0], [1.0, 0.0])
    ident = wst.RationalFunction([1.0, 0.0])
    inf = complex("inf")
    for value in (cone_g(cov.SurfacePoint(-1 + 0j)), inv(0j), inv(0.0), ident(inf)):
        assert type(value) is complex
        assert not cmath.isfinite(value)
    assert inv(inf) == 0


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


@pytest.mark.parametrize("name", wst.CATALOG_NAMES)
def test_catalog_refuses_unknown_parameter(name):
    """Every entry refuses a key it does not have, before any other check
    (a fractional k included)."""
    with pytest.raises(ValidationError, match=r"unknown parameters \[.*'foo'"):
        wst.catalog_get(name, foo=1, k=1.5)


@pytest.mark.parametrize("name, k", [("genus_k", 3), ("genus_k_reduced", 4)])
def test_genus_entries_default_to_closing_constant(name, k):
    assert wst.catalog_get(name, k=k).params["c"] == per.compute_ck(k).c_k
    assert wst.catalog_get(name, k=k, c=1.0).params["c"] == 1.0


def test_genus_k_is_checked_before_c_k(monkeypatch):
    def compute_ck(k):
        raise AssertionError(f"c_{k} computed for a refused k")

    monkeypatch.setattr(per, "compute_ck", compute_ck)
    for name, k in (("genus_k", 0), ("genus_k_reduced", 3), ("genus_k", 1.5)):
        with pytest.raises(ValidationError):
            wst.catalog_get(name, k=k)


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
    z = 1.7 + 0.43j
    p = cov.SurfacePoint(z) if data.cover is None else cov.solve_fiber(data.cover, z)
    v = data.phi(p)
    lorentz = -v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    assert abs(lorentz) < 1e-12 * np.sum(np.abs(v) ** 2)


def test_metric_factor_vanishes_on_unit_gauss():
    data = wst.catalog_get("catenoid")
    # catenoid G = z: the singular set is |z| = 1
    p = cov.SurfacePoint(cmath.exp(0.7j))
    assert data.metric_factor(p) < 1e-14
    q = cov.SurfacePoint(1.5 + 0j)
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
    got = wst.integrate_form(None, [path], data.phi, tol=1e-12)[0][-1]
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
    got = wst.integrate_form(None, [path], lambda p: 1.0 / p.z, tol=1e-12)[0][-1]
    assert complex(got) == pytest.approx(2j * math.pi, rel=1e-10)


def test_integrate_form_on_cover_exact_differential():
    """d(w)/dz integrates to w(end) - w(start) on the curve."""
    spec = cov.CoverSpec(1)
    o = cov.base_point(spec)
    path = cov.SurfacePath((o.z, 1.6 + 0.7j, 1.2 + 1.1j), o.w)

    # dw/dz = w L with L = ((2k+1) z^2 - 1)/((k+1) z (z^2-1)), k=1
    def dw(p):
        z = p.z
        return p.w * (3 * z * z - 1) / (2 * z * (z * z - 1))

    [lp] = cov.lift(spec, [path])
    got = wst.integrate_form(spec, [lp], dw, tol=1e-12)[0][-1]
    w_end = lp.w_end
    assert complex(got) == pytest.approx(w_end - o.w, rel=1e-9)


def test_integrate_form_prefixes_are_exact():
    """Entry j is the integral over the first j segments, bit for bit, also
    across a segment detoured around z = 1."""
    spec = cov.CoverSpec(1)
    o = cov.base_point(spec)
    bump = 0.5j * cov.clearance(spec)
    verts = (o.z, 1.3 + bump, 0.7 + bump, 0.8 + 0.9j, 1.6 + 0.4j)

    def form(p):
        return np.array([1.0 / p.w, p.w / (p.z * p.z)])

    [whole] = wst.integrate_form(spec, cov.lift(spec, [cov.SurfacePath(verts, o.w)]), form)
    assert whole.shape == (len(verts), 2)
    assert not np.any(whole[0])
    for j in range(1, len(verts)):
        [part] = wst.integrate_form(
            spec, cov.lift(spec, [cov.SurfacePath(verts[:j + 1], o.w)]), form)
        assert np.array_equal(whole[j], part[-1])


def _gk_recursive(f, a, b, tol, depth=28):
    """Depth-first bisection of Kronrod-15 panels, one f call per panel, the
    halves added left then right; each panel's rule is the same row-by-row
    product as gk_batched's."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.asarray(f(mid + half * alg._X15), dtype=complex)
    rows = fv.reshape(-1, 15)
    k = half * (rows @ alg._W15).reshape(fv.shape[:-1])
    g = half * (rows @ alg._G15).reshape(fv.shape[:-1])
    if np.max(np.abs(k - g)) <= tol or b - a < 1e-14:
        return k
    assert depth > 0
    return (_gk_recursive(f, a, mid, 0.5 * tol, depth - 1)
            + _gk_recursive(f, mid, b, 0.5 * tol, depth - 1))


def test_batched_quadrature_matches_recursive_reference():
    """integrate_form refines every leg of a path breadth first, in one form
    call per level; its prefix integrals equal, bit for bit, integrating
    each leg by recursive bisection and adding the legs in order, on a
    genus_k k=2 path of many legs, detours included."""
    data = wst.catalog_get("genus_k", k=2)
    o = data.base
    [lp] = cov.lift(data.cover, [cov.SurfacePath(
        (o.z, 1.4 + 0.6j, 0.5 + 0.2j, -0.6 + 0.5j, -1.4 - 0.3j, 0.2 - 0.9j,
         1.0 + 0.01j, 1.7 - 0.2j), o.w)])
    assert len(lp.route) - 1 > 20
    [got] = wst.integrate_form(data.cover, [lp], data.phi, 1e-9)
    total, want = np.zeros(3, dtype=complex), [np.zeros(3, dtype=complex)]
    z = lp.route.tolist()
    for leg, (a, b) in enumerate(zip(z, z[1:])):
        def f(s, a=a, b=b, leg=leg):
            w = cov.w_along(data.cover, a, b - a, lp.w[leg], s)
            return data.phi(cov.SurfacePoint(a + (b - a) * s, w)) * (b - a)
        total = total + _gk_recursive(f, 0.0, 1.0, 1e-9)
        want.append(total)
    assert np.array_equal(got, np.array([want[n] for n in lp.upto]))


def _batch_paths(name):
    """Paths of different lengths for integrate_form, on the genus_k k=2
    cover (lifted; the first detoured about z = 1) or planar trinoid1, one
    of a single vertex."""
    if name == "genus_k":
        data = wst.catalog_get("genus_k", k=2)
        o = data.base
        bump = 0.5j * cov.clearance(data.cover)
        verts = [(o.z, 1.3 + bump, 0.7 + bump, 0.8 + 0.9j), (o.z,),
                 (o.z, 1.6 + 0.4j),
                 (o.z, 1.4 + 0.6j, -0.6 + 0.5j, -1.4 - 0.3j, 0.2 - 0.9j)]
        paths = cov.lift(data.cover, [cov.SurfacePath(v, o.w) for v in verts])
        assert len(paths[0].route) > len(verts[0])
        return data, verts, paths
    data = wst.catalog_get("trinoid1")
    o = data.base.z
    verts = [(o, 1.2 + 0.8j, 2.1 - 0.4j), (o,), (o, -0.7 + 0.2j, -1.5 - 1.1j, 0.3 - 2.0j),
             (o, 0.9j)]
    return data, verts, [cov.SurfacePath(v, None) for v in verts]


@pytest.mark.parametrize("name", ["genus_k", "trinoid1"])
def test_integrate_form_batch_matches_each_path_alone(name):
    """integrate_form integrates every path of a batch, bit for bit, as it
    integrates that path alone; a one-vertex path gives one zero row, and
    an empty batch gives []."""
    data, verts, paths = _batch_paths(name)
    batch = wst.integrate_form(data.cover, paths, data.phi)
    assert len(batch) == len(paths)
    for v, path, got in zip(verts, paths, batch):
        assert got.shape == (len(v), 3)
        assert np.array_equal(got, wst.integrate_form(data.cover, [path], data.phi)[0])
    assert np.array_equal(batch[1], np.zeros((1, 3)))
    assert wst.integrate_form(data.cover, [], data.phi) == []


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
            path = cov.lift(spec, [path])[0]
        return (wst.integrate_form(spec, [path], data.phi, 1e-9)[0][-1].real,
                getattr(path, "w_end", None))

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


def test_half_mesh_is_the_first_columns_of_the_full_mesh(genus1):
    """mesh_columns keeps the first columns of every row, and its quads are
    the full mesh's quads between those columns, in the same order."""
    full = wst.mesh_sample(genus1, nr=4, nth=16)
    half = wst.mesh_columns(full, 9)
    assert (half.rows, half.cols) == (4, 9)
    for got, want in ((half.vertices, full.vertices), (half.metric, full.metric),
                      (half.zs, full.zs)):
        grid = want.reshape((4, 17) + want.shape[1:])
        assert np.array_equal(got, grid[:, :9].reshape(got.shape))
    as_full = half.faces // 9 * 17 + half.faces % 9
    assert np.array_equal(as_full, full.faces[full.faces[:, 0] % 17 < 8])


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
    data = wst.catalog_get("genus_k", k=k)
    table = wst.order_table(data)
    want = wst.expected_orders(data.cover)
    got = {label: {q: row[q]["order"] for q in row}
           for label, row in table.rows.items()}
    assert got == want
    assert table.max_residual < 0.1


def test_curve_derivations_sweep_k():
    """Over k = 1..60 on the full cover and even k = 2..60 on the reduced
    one, the derived order table matches the reference within criterion 7's
    residual gate, deg G is 2k (full) or k (reduced), and the genus is k or
    k/2.  The orders do not depend on c, so c = 1.  At large k, zeta^n at
    the chart radii is below the rounding of 1 + zeta^n, and z^3 overflows
    on the chart at infinity."""
    bad = []
    for name, ks, deg_per_k, genus_per_k in (("genus_k", range(1, 61), 2, 1),
                                             ("genus_k_reduced", range(2, 61, 2), 1, 0.5)):
        for k in ks:
            data = wst.catalog_get(name, k=k, c=1.0)
            table = wst.order_table(data)
            expected = wst.expected_orders(data.cover)
            got = {label: {q: table.rows[label][q]["order"] for q in row}
                   for label, row in expected.items()}
            found = (got, table.max_residual < 0.1,
                     wst.gauss_degree(data)["degree"], data.cover.genus())
            want = (expected, True, deg_per_k * k, genus_per_k * k)
            if found != want:
                bad.append((name, k, table.max_residual))
    assert not bad


@pytest.mark.parametrize("zero_end", [{"eta": 0, "G^2*eta": 1}, {"G": 0}],
                         ids=["incomplete", "singular"])
def test_criterion_7_fails_on_a_bad_end(zero_end, monkeypatch):
    """An order table and reference altered alike at the zero end, so that
    ds has no pole there or G neither a zero nor a pole, fail criterion 7's
    ends check and nothing else."""
    order_table, expected_orders = wst.order_table, wst.expected_orders

    def altered_table(data):
        table = order_table(data)
        for qname, order in zero_end.items():
            table.rows["zero"][qname]["order"] = order
        return table

    def altered_expected(spec):
        want = expected_orders(spec)
        want["zero"].update(zero_end)
        return want

    monkeypatch.setattr(wst, "order_table", altered_table)
    monkeypatch.setattr(wst, "expected_orders", altered_expected)
    checks = verify_mod.criterion_7(verify_mod.VerifyConfig())
    assert {c["name"] for c in checks if not c["pass"]} == \
        {f"complete nonsingular ends k={k}" for k in (1, 2, 3)}
    assert len(checks) == 6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauss_degree_full_curve(k):
    data = wst.catalog_get("genus_k", k=k)
    assert wst.gauss_degree(data)["degree"] == 2 * k


@pytest.mark.parametrize("k", [1, 2])
def test_osserman_bound(k):
    data = wst.catalog_get("genus_k", k=k)
    rep = wst.osserman_check(data)
    assert rep["ok"]
    if k == 1:
        assert rep["equality"]


def test_osserman_check_refuses_planar_data():
    with pytest.raises(ValidationError, match="cover family"):
        wst.osserman_check(wst.catalog_get("catenoid"))
