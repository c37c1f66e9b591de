"""Singular-set tracing and the (alpha, beta) wavefront classification.

Closed-form checks pin alpha on the rotational examples; the structural
counts (swallowtails per oval, cross caps, cone axes) are checked against
independently derived expectations for the catalog surfaces.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from maxface import cover as cov
from maxface import periods as per
from maxface import singularities as sng
from maxface import verify as verify_mod
from maxface import weierstrass as wst
from maxface.errors import DegenerateError, NumericalError
from nearest_root import on_cover, walk_segments

# ---------------------------------------------------------------------------
# lifting traced components to the cover
# ---------------------------------------------------------------------------

def _continue_vertexwise(spec, verts, w):
    """w at every vertex, walked one routed 2-vertex segment at a time."""
    return walk_segments(spec, verts, w)[1]


def _assert_lift_matches_reference(spec, verts):
    """The closed lift of verts against a circuit-by-circuit marched
    reference: the same circuit count, circuit 0 bit for bit, circuit j
    equal to circuit 0 times units[(s j) % n] exactly (w_end = units[s] w0
    after one circuit) and within 1e-14 of the marched circuit j.  The open
    lift equals the reference bit for bit.  Returns the circuit count."""
    n = spec.sheet_count
    units = np.exp(2j * np.pi * np.arange(n) / n)
    m = len(verts)
    w0 = spec.fiber(complex(verts[0]))[0]
    loop = list(verts) + [verts[0]]
    ref, w = [], w0
    for circuits in range(1, n + 1):
        ws = _continue_vertexwise(spec, loop, w)
        ref += ws[:-1]
        w = ws[-1]
        if abs(w - w0) < 1e-8 * (1 + abs(w)):
            break
    ref = np.array(ref)
    s = int(np.argmin(np.abs(units - ref[m] / w0))) if circuits > 1 else 0
    [(got_circuits, got_w), (open_circuits, open_w)] = sng._lift_traces(
        spec, [(verts, True), (verts, False)])
    assert got_circuits == circuits
    assert len(got_w) == len(ref)
    np.testing.assert_array_equal(got_w[:m], ref[:m])
    for j in range(1, circuits):
        got_j, ref_j = got_w[j * m:(j + 1) * m], ref[j * m:(j + 1) * m]
        np.testing.assert_array_equal(got_j, got_w[:m] * units[(s * j) % n])
        assert np.all(np.abs(got_j - ref_j) <= 1e-14 * np.abs(ref_j))
    assert open_circuits == 1
    np.testing.assert_array_equal(
        open_w, np.array(_continue_vertexwise(spec, verts, w0)))
    return circuits


@pytest.mark.parametrize("name, k", [("genus_k", 1), ("genus_k", 3),
                                     ("genus_k_reduced", 2)])
def test_component_lift_matches_vertexwise_reference(name, k):
    """Traced components close after sheet_count circuits."""
    data = wst.catalog_get(name, k=k)
    [comps] = sng.trace_singular_set(data)
    assert comps
    for comp in comps:
        circuits = _assert_lift_matches_reference(
            data.cover, comp.z_vertices[:comp.vertex_count])
        assert circuits == data.cover.sheet_count


def _polygon(corners, per_side=12):
    t = np.linspace(0.0, 1.0, per_side, endpoint=False)
    return np.concatenate([a + (b - a) * t
                           for a, b in zip(corners, corners[1:] + corners[:1])])


@pytest.mark.parametrize("corners, circuits", [
    # about z = 1 alone: w winds by 3/4 of a turn on w^4 = z(z^2-1)^3
    ([0.6 - 0.4j, 1.4 - 0.4j, 1.4 + 0.4j, 0.6 + 0.4j], 4),
    # about z = 1 and z = -1 but not z = 0: 6/4 of a turn, two circuits
    ([-1.5 - 0.5j, -0.5 - 0.5j, -0.4 + 0.25j, 0.4 + 0.25j, 0.5 - 0.5j,
      1.5 - 0.5j, 1.5 + 0.6j, -1.5 + 0.6j], 2),
    # about no branch point: one circuit
    ([1.6 + 0.4j, 2.2 + 0.4j, 2.2 + 1.0j, 1.6 + 1.0j], 1),
])
def test_component_lift_circuits_follow_the_deck_rotation(corners, circuits):
    """Closed z-loops on the genus-3 cover whose lifts close after 4, 2 and
    1 circuits."""
    spec = wst.catalog_get("genus_k", k=3).cover
    assert _assert_lift_matches_reference(spec, _polygon(corners)) == circuits


# ---------------------------------------------------------------------------
# alpha, beta closed forms
# ---------------------------------------------------------------------------

def _alpha_beta(data, p):
    """alpha and beta at p from one _alpha_terms call and _beta: arrays of
    p.z's shape, complex scalars for a scalar point."""
    g, dg, _, alpha, dalpha = sng._alpha_terms(data, p)
    beta = sng._beta(g, dg, dalpha)
    return (complex(alpha), complex(beta)) if alpha.ndim == 0 else (alpha, beta)


def test_alpha_catenoid_closed_form():
    """G = z, eta = dz/z^2: alpha = G'/(G^2 eta) = z^2/z^2 = 1 (real,
    nonzero, beta real) -> cone-axis degeneracy, never a swallowtail."""
    data = wst.catalog_get("catenoid")
    for th in (0.3, 1.1, 2.7):
        p = cov.SurfacePoint(cmath.exp(1j * th))
        alpha, beta = _alpha_beta(data, p)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert abs(beta.imag) < 1e-12


def test_alpha_helicoid_closed_form():
    """Conjugate data eta = i dz/z^2 rotates alpha to -i: purely imaginary
    alpha on the whole circle (fold / cuspidal-edge regime)."""
    data = wst.catalog_get("helicoid")
    p = cov.SurfacePoint(cmath.exp(0.9j))
    alpha, _ = _alpha_beta(data, p)
    assert alpha.real == pytest.approx(0.0, abs=1e-12)
    assert abs(alpha.imag) == pytest.approx(1.0, abs=1e-12)


def test_classify_point_kinds():
    data = wst.catalog_get("catenoid")
    p = cov.SurfacePoint(cmath.exp(0.4j))
    kind = str(sng._classify(*_alpha_beta(data, p)))
    assert kind == "degenerate"  # real alpha, real beta: cone axis
    data_h = wst.catalog_get("helicoid")
    p_h = cov.SurfacePoint(cmath.exp(0.4j))
    kind_h = str(sng._classify(*_alpha_beta(data_h, p_h)))
    assert kind_h in ("cuspidal_edge", "degenerate")


def _scalar_kind(alpha: complex, beta: complex) -> str:
    """The rule of the singularities module docstring at one point."""
    b_ok = not (math.isnan(beta.real) or math.isnan(beta.imag))
    eps = 1e-7 * (1.0 + abs(alpha) + (abs(beta) if b_ok else 0.0))
    if abs(alpha.imag) < eps and abs(alpha) > eps and b_ok and abs(beta.real) > eps:
        return "swallowtail"
    if abs(alpha.real) < eps and abs(alpha) > eps and b_ok and abs(beta.imag) > eps:
        return "cuspidal_cross_cap"
    if abs(alpha.imag) > eps and abs(alpha.real) > eps:
        return "cuspidal_edge"
    return "degenerate"


def test_array_classify_matches_scalar_rule():
    """The array classifier gives the scalar rule's kind just below and just
    above each eps threshold (|Im alpha|, |Re alpha|, |alpha|, |Re beta|,
    |Im beta|), with NaN and infinite beta, and on random pairs whose parts
    straddle eps; a scalar pair gives a 0-d array."""
    nan = complex("nan")
    cases = []
    for side in (1 - 1e-6, 1 + 1e-6):
        e = 1e-7 * (2.0 + math.sqrt(2.0))          # eps at alpha = 1, |beta| = sqrt 2
        cases += [(complex(1.0, side * e), 1 + 1j),
                  (complex(side * e, 1.0), 1 + 1j)]
        e = 1e-7 * (3.0 + side * 1e-7)              # eps at alpha = 1, |beta| ~ 1
        cases += [(1 + 0j, complex(side * e, 1.0)), (1j, complex(1.0, side * e))]
        # alpha = r e^(i pi/4): |alpha| > eps decides swallowtail or degenerate
        r = side * 1e-7 * (1.0 + math.sqrt(2.0)) / (1.0 - 1e-7)
        cases += [(r * cmath.exp(0.25j * math.pi), 1 + 1j)]
        # NaN beta: eps = 1e-7 (1 + |alpha|), both beta conditions fail
        r = side * 1e-7 / (1.0 - 1e-7)
        cases += [(complex(r, 0.0), nan), (complex(1.0, side * 1e-7 * 2.0), nan),
                  (complex(1.0, 1e-9), complex(1.0, math.nan)),
                  (complex(1e-9, 1.0), complex(math.nan, 1.0))]
    cases += [(1 + 1e-9j, complex(math.inf, 1.0)), (0j, 1 + 1j), (nan, 1 + 1j)]
    rng = np.random.default_rng(7)
    pool = np.array([0.0, 1e-9, 1e-7, 2.5e-7, 3.5e-7, 1e-6, 0.3, 1.0, 4.0])
    parts = rng.choice(pool, (4000, 4)) * rng.choice([-1.0, 1.0], (4000, 4))
    cases += [(complex(a, b), complex(c, d)) for a, b, c, d in parts]
    alpha = np.array([a for a, _ in cases])
    beta = np.array([b for _, b in cases])
    got = sng._classify(alpha, beta)
    want = [_scalar_kind(complex(a), complex(b)) for a, b in cases]
    assert got.shape == alpha.shape
    assert got.tolist() == want
    assert set(want) == {"swallowtail", "cuspidal_cross_cap", "cuspidal_edge",
                         "degenerate"}
    # the threshold cases, just below and then just above eps
    assert want[:18] == [
        "swallowtail", "cuspidal_cross_cap", "degenerate", "degenerate",
        "degenerate", "degenerate", "degenerate", "degenerate", "degenerate",
        "cuspidal_edge", "cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
        "swallowtail", "degenerate", "cuspidal_edge", "degenerate", "degenerate"]
    one = sng._classify(complex(1.0, 1e-9), 1 + 1j)
    assert one.ndim == 0 and str(one) == "swallowtail"


def test_associated_family_generic_edge():
    """Strictly between the conjugate pair the edge points are generic."""
    data = wst.catalog_get("associated", phase=0.6)
    p = cov.SurfacePoint(cmath.exp(0.8j))
    assert str(sng._classify(*_alpha_beta(data, p))) == "cuspidal_edge"


def _planar(G, eta):
    """Planar data from (numerator, denominator) coefficients of G and eta."""
    return wst._planar("test", {}, wst.RationalFunction(*G),
                       wst.RationalFunction(*eta), 0.5, "", "")


def _assert_matches_pointwise(data, p, alpha, beta):
    for i, z in enumerate(p.z):
        w = None if p.w is None else complex(p.w[i])
        a, b = _alpha_beta(data, cov.SurfacePoint(complex(z), w))
        assert abs(alpha[i] - a) <= 1e-14 * abs(a)
        if math.isnan(b.real):
            assert np.isnan(beta[i])
        else:
            assert abs(beta[i] - b) <= 1e-14 * abs(b)


def test_alpha_beta_on_arrays_matches_pointwise(genus1, genus2_reduced):
    """One array call of _alpha_terms and _beta equals pointwise calls, on
    planar data and on both covers; G^2 eta = 0 anywhere raises, and beta is NaN where
    G' = 0 (z = i on the full cover, z = -1 on the reduced one)."""
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(0.1, 1.5, 40)
    trinoid = wst.catalog_get("trinoid1")
    p = cov.SurfacePoint(z, None)
    alpha, beta = _alpha_beta(trinoid, p)
    assert alpha.shape == beta.shape == z.shape
    _assert_matches_pointwise(trinoid, p, alpha, beta)
    for data, flat in ((genus1, 1j), (genus2_reduced, -1 + 0j)):
        zs = np.append(z, flat)
        roots = data.cover.fiber(zs)
        sheet = np.arange(len(zs)) % data.cover.sheet_count
        p = cov.SurfacePoint(zs, roots[np.arange(len(zs)), sheet])
        alpha, beta = _alpha_beta(data, p)
        assert np.isnan(beta[-1]) and np.all(np.isfinite(beta[:-1]))
        _assert_matches_pointwise(data, p, alpha, beta)
    # G = z, eta = z dz: G^2 eta vanishes at z = 0 only
    with pytest.raises(DegenerateError):
        _alpha_beta(_planar(([1, 0],), ([1, 0],)),
                       cov.SurfacePoint(np.array([0.5, 0.0, 1j]), None))
    # G = z^2 + 1, eta = dz: G' = 0 at z = 0, alpha = 0 there
    alpha, beta = _alpha_beta(_planar(([1, 0, 1],), ([1],)),
                                 cov.SurfacePoint(np.array([0.5, 0.0]), None))
    assert alpha[1] == 0 and np.isnan(beta[1]) and np.isfinite(beta[0])


@pytest.mark.parametrize("name, params", [("genus_k", {"k": 3}),
                                          ("genus_k_reduced", {"k": 4}),
                                          ("cone", {}), ("trinoid1", {})])
def test_alpha_terms_do_not_depend_on_the_batch(name, params):
    """_alpha_terms of 20,000 points equals, bit for bit, the same points
    taken 100 at a time, though numpy reuses temporaries of 16,384 complex
    values or more in place (test_cover.test_arrays_do_not_depend_on_the_batch)."""
    data = wst.catalog_get(name, **params)
    rng = np.random.default_rng(9)
    n = 20000
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = None
    if data.cover is not None:
        w = data.cover.fiber(z)[np.arange(n), rng.integers(0, data.cover.sheet_count, n)]

    def terms(i):
        return np.stack(sng._alpha_terms(
            data, cov.SurfacePoint(z[i], None if w is None else w[i])))

    chunked = [terms(slice(i, i + 100)) for i in range(0, n, 100)]
    assert np.array_equal(terms(slice(None)), np.concatenate(chunked, axis=1))


# ---------------------------------------------------------------------------
# tracing: ovals of the genus family
# ---------------------------------------------------------------------------

def oval_residual_full(z, rho):
    r2 = abs(z) ** 2
    th = cmath.phase(z)
    return abs(r2 + 1.0 / r2 - 2.0 * math.cos(2.0 * th) - rho)


@pytest.mark.parametrize("k", [1, 2])
def test_singular_ovals_on_frozen_curve(k):
    """|G| = 1 on the genus family is r^2 + 1/r^2 - 2 cos 2 theta = rho_k."""
    sol = per.compute_ck(k)
    data = wst.catalog_get("genus_k", k=k)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 2
    for comp in comps:
        assert comp.closed and not comp.partial
        for z in comp.z_vertices[:: max(1, comp.vertex_count // 40)]:
            assert oval_residual_full(complex(z), sol.rho_k) < 1e-7


@pytest.mark.parametrize("k", [2])
def test_singular_oval_reduced(k):
    sol = per.compute_ck(k)
    data = wst.catalog_get("genus_k_reduced", k=k)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 1
    comp = comps[0]
    # reduced coordinate: R + 1/R - 2 cos Theta = rho_k
    for z in comp.z_vertices[:: max(1, comp.vertex_count // 30)]:
        R, Th = abs(complex(z)), cmath.phase(complex(z))
        assert abs(R + 1.0 / R - 2.0 * math.cos(Th) - sol.rho_k) < 1e-7


@pytest.mark.parametrize("name, k", [("genus_k", 1), ("genus_k", 3),
                                     ("genus_k_reduced", 2), ("genus_k_reduced", 4)])
def test_oval_residual_matches_vertex_loop(name, k):
    """verify's array oval residual against a per-vertex scalar loop; numpy's
    arctan2 may round a phase differently from cmath.phase, so they agree to
    a few ulp of the O(1) terms."""
    reduced = name == "genus_k_reduced"
    rho = per.compute_ck(k).rho_k
    [comps] = sng.trace_singular_set(wst.catalog_get(name, k=k))
    for comp in comps:
        want = 0.0
        for z in comp.z_vertices:
            z = complex(z)
            if reduced:
                R, Th = abs(z), cmath.phase(z)
                want = max(want, abs(R + 1.0 / R - 2.0 * math.cos(Th) - rho))
            else:
                want = max(want, oval_residual_full(z, rho))
        got = verify_mod._oval_residual(comp, rho, reduced)
        assert abs(got - want) <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("k", [1, 2])
def test_genus_family_counts(k):
    """Each oval carries 2(k+1) swallowtails and 2(k+1) cross caps."""
    data = wst.catalog_get("genus_k", k=k)
    [comps] = sng.trace_singular_set(data)
    for counts in sng.count_singularities(data, comps):
        assert counts["swallowtails"] == 2 * (k + 1)
        assert counts["cross_caps"] == 2 * (k + 1)
        assert counts["degenerate"] == 0


def test_components_carry_cover_lift(genus1):
    [comps] = sng.trace_singular_set(genus1)
    for comp in comps:
        assert comp.w_vertices is not None
        spec = genus1.cover
        for z, w in list(zip(comp.z_vertices, comp.w_vertices))[::50]:
            assert on_cover(spec, cov.SurfacePoint(complex(z), complex(w)),
                                1e-6)


# ---------------------------------------------------------------------------
# cone example: one degenerate axis, two generic ovals
# ---------------------------------------------------------------------------

def test_cone_structure(cone25):
    [comps] = sng.trace_singular_set(cone25)
    assert len(comps) == 3
    classes = sng.count_singularities(cone25, comps)
    cones = [cls for cls in classes if cls["cone_like"]]
    generic = [cls for cls in classes if not cls["cone_like"]]
    assert len(cones) == 1
    assert len(generic) == 2
    [det] = cones
    assert det["max_im_alpha"] < 1e-8
    assert det["min_abs_alpha"] > 0.01
    assert det["gauss_winding"] in (1, -1)
    for cls in generic:
        assert cls["swallowtails"] > 0
        assert cls["cross_caps"] > 0
        assert "cuspidal_edge" in cls["vertex_kinds"]


@pytest.mark.parametrize("a, swallowtails", [
    (1.302, [8, 8]), (1.31, [8, 8]), (1.327, [8, 6])])
def test_cone_where_swallowtails_merge(a, swallowtails):
    """Where swallowtails merge on the real axis (a near 1.31) a full Newton
    step of the crossing refinement would leave its chord; the halved step
    keeps the cone's structure: three closed components, one cone-like, and
    on each oval 4 cross caps, no degenerate point and its swallowtails."""
    data = wst.catalog_get("cone", a=a)
    [comps] = sng.trace_singular_set(data)
    rows = sng.singular_report(data, comps)["components"]
    assert [row["closed"] for row in rows] == [True, True, True]
    assert [row["cone_like"] for row in rows] == [False, True, False]
    assert [(row["swallowtails"], row["cross_caps"], row["degenerate"])
            for row in rows if not row["cone_like"]] == \
        [(sw, 4, 0) for sw in swallowtails]


def test_trinoid_counts():
    data = wst.catalog_get("trinoid1", a=3.67)
    [comps] = sng.trace_singular_set(data)
    counts = sng.count_singularities(data, comps)
    sw = sum(c["swallowtails"] for c in counts)
    cc = sum(c["cross_caps"] for c in counts)
    assert sw == 8
    assert cc == 0
    assert not any(c["cone_like"] for c in counts)


# ---------------------------------------------------------------------------
# array seeding against a scalar reference
# ---------------------------------------------------------------------------

def _scalar_phi_hat(data, zh):
    """log|G| at one chart point, with the principal fiber root from cmath:
    NaN where the chart or G is undefined, -inf where G vanishes."""
    try:
        z = data.chart.to_z(zh)
        w = None
        if data.cover is not None:
            r = data.cover.rhs(z)
            w = 0j if r == 0 else cmath.exp(cmath.log(r) / data.cover.sheet_count)
        with np.errstate(all="ignore"):
            g = abs(data.G(cov.SurfacePoint(z, w)))
    except ZeroDivisionError:
        return math.nan
    if math.isnan(g) or math.isinf(g):
        return math.nan
    return math.log(g) if g > 0 else -math.inf


def _scalar_seeds(data, nodes):
    """Sign changes of phi_hat along the chart's real axis, then its
    imaginary axis, sampled node by node at t = tan theta on the midpoints
    of `nodes` equal steps in theta over (-pi/2, pi/2), each edge bisected
    50 times by scalar calls; edges in the tracer's seed order."""
    ts = [math.tan(math.pi * ((j + 0.5) / nodes - 0.5)) for j in range(nodes)]
    edges = []
    for unit in (1.0, 1j):
        line = [unit * t + 0j for t in ts]
        fl = [_scalar_phi_hat(data, z) for z in line]
        edges += zip(line[:-1], fl[:-1], line[1:], fl[1:])
    seeds = []
    for za, fa, zb, fb in edges:
        if not (math.isfinite(fa) and math.isfinite(fb)) or (fa < 0) == (fb < 0):
            continue
        for _ in range(50):
            zm = 0.5 * (za + zb)
            fm = _scalar_phi_hat(data, zm)
            if not math.isfinite(fm):
                break
            if fm == 0.0:
                seeds.append(zm)
                break
            if (fa < 0) != (fm < 0):
                zb = zm
            else:
                za, fa = zm, fm
        else:
            seeds.append(0.5 * (za + zb))
    return seeds


@pytest.mark.parametrize("name, params", [
    ("cone", {"a": 2.5}),
    ("trinoid1", {"a": 3.67}),
    ("genus_k", {"k": 1}),
    ("genus_k_reduced", {"k": 2}),
    ("trinoid2", {"c": 2.0}),
])
def test_array_seeds_match_scalar_reference(name, params):
    """One array evaluation of phi_hat along both axes and batched
    bisection reproduce the scalar seeder: same seeds in the same order."""
    data = wst.catalog_get(name, **params)
    ref = _scalar_seeds(data, sng._AXIS_NODES)
    got = sng._axis_seeds(data)
    assert len(ref) > 0
    assert len(got) == len(ref)
    assert all(type(z) is complex for z in got)
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-12


def test_phi_hat_nan_where_chart_undefined(cone25, genus1):
    """zhat = 0 is where the cone's inverted chart is undefined and z = 0
    is a branch point of the cover: phi_hat is NaN there, in an array and
    at a single point."""
    grid = np.array([[0j, 0.5 + 0.5j], [-1.0 + 0j, 2.0j]])
    vals = sng._phi_hat(cone25, grid)
    assert vals.shape == grid.shape
    assert np.isnan(vals[0, 0]) and np.all(np.isfinite(vals.ravel()[1:]))
    assert math.isnan(sng._phi_hat(cone25, 0j))
    for zh in grid.ravel()[1:]:
        assert sng._phi_hat(cone25, zh) == pytest.approx(
            _scalar_phi_hat(cone25, zh), rel=1e-14, abs=1e-14)
    assert np.isnan(sng._phi_hat(genus1, np.array([0j, 0.7 + 0.2j]))[0])
    assert math.isnan(sng._phi_hat(genus1, 0j))
    # a pole of G (|G| = inf) is NaN too, not +inf
    assert math.isnan(sng._phi_hat(wst.catalog_get("trinoid1"), 0j))


# ---------------------------------------------------------------------------
# Newton correction: one (G, G') evaluation per iterate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, params", [
    ("cone", {"a": 2.5}),
    ("genus_k", {"k": 1}),
    ("genus_k_reduced", {"k": 2}),
])
def test_project_returns_points_and_their_gradients(name, params):
    """The corrector returns a point on the curve and the gradient phi_grad
    gives at that point, bit for bit.  A NaN start, and a start off the
    curve given one iterate, fail without raising: ok False and a NaN
    gradient; a start already on the curve passes in one iterate."""
    data = wst.catalog_get(name, **params)
    comp = sng.trace_singular_set(data)[0][0]
    verts = comp.zhat_vertices[:comp.vertex_count:5]
    starts = (verts + 1e-3 * (1 + 1j) * (1 + np.abs(verts))).tolist()
    assert len(starts) >= 6
    for start in starts:
        pt, grad, ok = sng._correct(data, start)
        assert ok and type(pt) is complex and pt != start
        v, at_pt = sng._phi_grad(data, pt)
        assert abs(v) < 1e-13
        assert np.array([grad]).tobytes() == np.array([at_pt]).tobytes()
        assert sng._correct(data, pt, max_iter=1) == (pt, grad, True)
        off, off_grad, off_ok = sng._correct(data, start, max_iter=1)
        assert not off_ok and cmath.isnan(off_grad)
    pt, grad, ok = sng._correct(data, complex("nan"))
    assert not ok and cmath.isnan(grad)


def test_one_phi_grad_call_per_newton_iterate(genus1, monkeypatch):
    """Tracing genus_k k=1 evaluates (G, G') once per Newton iterate: every
    phi_grad call is made by the corrector, makes one call each of the
    principal root (rhs), G and G' and none of fiber, and its iterate minus
    v grad / |grad|^2 is the next iterate; no G' is evaluated outside the
    corrector."""
    data = dataclasses.replace(genus1)
    calls = []        # (inside the corrector, zh, phi, grad, evaluations)
    evals = {"rhs": 0, "fiber": 0, "G": 0, "dG": 0}
    outside = []      # evaluations made outside the corrector
    depth = [0]
    runs = []         # (phi_grad calls, ok) of each corrector call

    def counting(key, fn):
        def wrapper(*args):
            evals[key] += 1
            if depth[0] == 0:
                outside.append(key)
            return fn(*args)
        return wrapper

    phi_grad, correct = sng._phi_grad, sng._correct

    def counted_phi_grad(data_, zh):
        before = dict(evals)
        v, grad = phi_grad(data_, zh)
        calls.append((depth[0], zh, v, grad,
                      {k: evals[k] - before[k] for k in evals}))
        return v, grad

    def counted_correct(data_, zh):
        depth[0] += 1
        start = len(calls)
        try:
            out = correct(data_, zh)
        finally:
            depth[0] -= 1
        runs.append((calls[start:], out[2]))
        return out

    monkeypatch.setattr(sng, "_phi_grad", counted_phi_grad)
    monkeypatch.setattr(sng, "_correct", counted_correct)
    monkeypatch.setattr(cov.CoverSpec, "rhs", counting("rhs", cov.CoverSpec.rhs))
    monkeypatch.setattr(cov.CoverSpec, "fiber", counting("fiber", cov.CoverSpec.fiber))
    data.G, data.dG = counting("G", data.G), counting("dG", data.dG)

    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 2 and len(runs) > 60
    assert all(inside for inside, *_ in calls)
    assert "dG" not in outside
    assert all(c[4] == {"rhs": 1, "fiber": 0, "G": 1, "dG": 1} for c in calls)
    assert sum(ok for _, ok in runs) > 60
    for run, ok in runs:
        for (_, zh, v, grad, _), (_, nxt, *_rest) in zip(run, run[1:]):
            assert abs(v) >= 1e-13
            assert nxt == zh - v * grad / abs(grad) ** 2
        assert (abs(run[-1][2]) < 1e-13) == ok


def test_corrector_fails_without_raising(cone25, monkeypatch):
    """Where Python arithmetic would raise (zhat = 0 on the cone's inverted
    chart, z = 0 on the genus_k k=1 cover, a pole of G) the corrector
    returns ok False with a NaN gradient.  A walk from a seed that cannot be
    corrected is dropped; a walk whose later correction fails halves its
    step."""
    genus = wst.catalog_get("genus_k", k=1)
    trinoid = wst.catalog_get("trinoid1")
    cases = [(cone25, 0j), (genus, 0j), (trinoid, 0j),
             (cone25, -0.5 + 0j)]          # z = 1 + 1/zhat = -1, a pole of G
    for data, zh in cases:
        v, grad = sng._phi_grad(data, zh)
        assert math.isnan(v) and cmath.isnan(grad)
        pt, grad, ok = sng._correct(data, zh)
        assert not ok and cmath.isnan(grad)
        assert sng._walk(data, zh, data.trace_step, 100.0) is None
    # fail the fifth correction of a walk once: the sixth starts half as far
    comp = sng.trace_singular_set(cone25)[0][0]
    starts, returned = [], []
    correct = sng._correct

    def failing_once(data_, zh):
        starts.append(zh)
        out = correct(data_, zh)
        if len(starts) == 5:
            out = (zh, complex("nan"), False)
        returned.append(out[0])
        return out

    monkeypatch.setattr(sng, "_correct", failing_once)
    verts, closed = sng._walk(cone25, complex(comp.zhat_vertices[0]),
                              cone25.trace_step, 100.0)
    assert closed and len(verts) > 8
    cur = returned[3]
    assert abs((starts[5] - cur) - 0.5 * (starts[4] - cur)) < 1e-15 * (1 + abs(cur))


def test_bisect_edges_drops_and_stops(monkeypatch):
    """All edges halve together: one stops at an exact zero, one is dropped
    at an undefined midpoint, one converges after 50 halvings.  phi_hat is
    Re zhat - 1/2 on Im zhat = 0, undefined on a slot about the root on
    Im zhat = 1, and Re zhat - 0.3 on Im zhat = 2; every batch it evaluates
    is recorded."""
    batches = []

    def line_phi_hat(data_, zh):
        batches.append(np.array(zh))
        x, y = zh.real, zh.imag
        f = np.where(y == 2.0, x - 0.3, x - 0.5)
        return np.where((y == 1.0) & (np.abs(x - 0.5) < 0.1), np.nan, f)

    monkeypatch.setattr(sng, "_phi_hat", line_phi_hat)
    za = np.array([0.0, 1j, 2j])
    seeds = sng._bisect_edges(None, za, za + 1.0, za.real - np.array([0.5, 0.5, 0.3]))
    assert len(seeds) == 2            # the edge on Im zhat = 1 is dropped
    assert seeds[0] == 0.5
    assert abs(seeds[1] - (0.3 + 2j)) < 1e-15
    assert [len(b) for b in batches] == [3] + [1] * 49


# ---------------------------------------------------------------------------
# batched classification against a scalar reference
# ---------------------------------------------------------------------------

def _scalar_newton(data, zh, tol=1e-13, max_iter=40):
    for _ in range(max_iter):
        v = float(sng._phi_hat(data, zh))
        assert math.isfinite(v)
        if abs(v) < tol:
            return zh
        grad = sng._phi_grad(data, zh)[1]
        zh = zh - v * grad / abs(grad) ** 2
    raise AssertionError(f"scalar Newton stalled at zhat={zh}")


def _scalar_refine(data, za, zb, wa, part):
    """Bisect part(alpha) = 0 between two traversal vertices by scalar
    calls: each midpoint projected onto the curve, the fiber root nearest
    wa, at most 60 halvings."""

    def value(zh):
        z = complex(data.chart.to_z(_scalar_newton(data, zh)))
        p = (cov.SurfacePoint(z) if data.cover is None
             else cov.solve_fiber(data.cover, z, near=wa))
        return part(_alpha_beta(data, p)[0]), p

    fa, pa = value(za)
    fb, pb = value(zb)
    if (fa < 0) == (fb < 0):
        return pa if abs(fa) < abs(fb) else pb
    for _ in range(60):
        zm = 0.5 * (za + zb)
        fm, pm = value(zm)
        if fm == 0.0 or abs(zb - za) < 1e-14 * (1 + abs(zm)):
            return pm
        if (fa < 0) != (fm < 0):
            zb = zm
        else:
            za, fa = zm, fm
    return pm


def _scalar_records(data, comp):
    """(kind, point) of every classified crossing, vertex by vertex."""
    ring = []
    ws = [None] * len(comp.z_vertices) if comp.w_vertices is None else comp.w_vertices
    for zh, z, w in zip(comp.zhat_vertices, comp.z_vertices, ws):
        p = cov.SurfacePoint(complex(z), None if w is None else complex(w))
        ring.append((complex(zh), p, _alpha_beta(data, p)[0]))
    pairs = list(zip(ring, ring[1:] + ring[:1] if comp.closed else ring[1:]))
    a_scale = max(abs(a) for _, _, a in ring)
    records = []
    for part, target in ((lambda a: a.imag, "swallowtail"),
                         (lambda a: a.real, "cuspidal_cross_cap")):
        vmax = max(abs(part(a)) for _, _, a in ring)
        if vmax <= 1e-10 * a_scale:
            continue
        floor = 1e-8 * vmax + 1e-11 * a_scale
        for (za, pa, a0), (zb, _, a1) in pairs:
            v0, v1 = part(a0), part(a1)
            if (v0 < 0) == (v1 < 0) or max(abs(v0), abs(v1)) <= floor:
                continue
            p = _scalar_refine(data, za, zb, pa.w, part)
            kind = str(sng._classify(*_alpha_beta(data, p)))
            records.append((kind if kind == target else "degenerate_" + target, p))
    unique = []
    for kind, p in records:
        if not any(kind == k and abs(p.z - q.z) <= 1e-6 * (1 + abs(p.z))
                   and (p.w is None or abs(p.w - q.w) <= 1e-6 * (1 + abs(p.w)))
                   for k, q in unique):
            unique.append((kind, p))
    return unique


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


@pytest.mark.parametrize("name, params", [
    ("cone", {"a": 1.5}),
    ("cone", {"a": 3.0}),
    ("trinoid1", {"a": 3.67}),
    ("genus_k", {"k": 1}),
    ("genus_k_reduced", {"k": 2}),
])
def test_batched_classification_matches_scalar_reference(name, params):
    """One array call of _alpha_terms per traversal and one batched Newton
    solve reproduce the vertex-by-vertex scalar classifier: the same kinds
    in the same order, at the same z and w.  Degenerate points are compared
    by kind only: on the cone at a = 3 they sit on a multiple zero of Im alpha,
    which bisection locates only to its rounding-noise floor and Newton's
    method only to where the beta condition fails."""
    data = wst.catalog_get(name, **params)
    [comps] = sng.trace_singular_set(data)
    for comp, got in zip(comps, sng.count_singularities(data, comps)):
        ref = _scalar_records(data, comp)
        assert got["kinds"].tolist() == [k for k, _ in ref]
        assert got["degenerate"] == sum(k.startswith("degenerate") for k, _ in ref)
        assert len(got["z"]) == len(ref)
        assert (got["w"] is None) == (comp.w_vertices is None)
        for j, (kind, p) in enumerate(ref):
            if kind.startswith("degenerate"):
                continue
            assert _close(got["z"][j], p.z, 1e-12)
            assert got["w"] is None if p.w is None else _close(got["w"][j], p.w, 1e-12)


@pytest.mark.parametrize("name, params", [
    ("cone", {"a": 2.5}),
    ("cone", {"a": 3.0}),
    ("trinoid1", {"a": 3.67}),
    ("genus_k", {"k": 1}),
])
def test_repeated_crossings_are_merged(name, params, monkeypatch):
    """A _traversal_pass that lists every crossing twice leaves every count
    and every kept point unchanged: each repeat refines to its twin bit for
    bit and is dropped."""
    data = wst.catalog_get(name, **params)
    [comps] = sng.trace_singular_set(data)
    ref = sng.count_singularities(data, comps)
    traversal_pass = sng._traversal_pass

    def twice(data_, comp):
        level, crossings = traversal_pass(data_, comp)
        return level, tuple(None if col is None else np.repeat(col, 2)
                            for col in crossings)

    monkeypatch.setattr(sng, "_traversal_pass", twice)
    got = sng.count_singularities(data, comps)
    assert sum(len(c["kinds"]) for c in ref) >= 8
    for a, b in zip(got, ref):
        for key in ("swallowtails", "cross_caps", "degenerate"):
            assert a[key] == b[key]
        assert a["kinds"].tolist() == b["kinds"].tolist()
        np.testing.assert_array_equal(a["z"], b["z"])
        if b["w"] is None:
            assert a["w"] is None
        else:
            np.testing.assert_array_equal(a["w"], b["w"])


@pytest.mark.parametrize("cover", [False, True])
def test_merge_keeps_other_kinds_and_sheets(cover, monkeypatch):
    """Points at one z are merged only within one kind, and on a cover only
    on one sheet: of a swallowtail, a cross cap, a degenerate swallowtail,
    a swallowtail on the next sheet and a repeat of the first, only the
    repeat is dropped (planar data has no second sheet)."""
    z0, w0 = 0.3 + 0.4j, 0.5 - 0.2j
    rows = [0, 1, 2, 3, 4] if cover else [0, 1, 2, 4]
    imag = np.array([True, False, True, True, True])[rows]
    alpha = np.array([1.0, 1j, 1.0, 1.0, 1.0])[rows]
    beta = np.array([1.0, 1j, 0.0, 1.0, 1.0])[rows]   # Re beta = 0: degenerate
    w = np.array([w0, w0, w0, -w0, w0]) if cover else None
    n = len(rows)

    def one_point(data_, za, zb, wa, imag_):
        return cov.SurfacePoint(np.full(n, z0), w), alpha, beta

    monkeypatch.setattr(sng, "_traversal_pass", lambda data_, comp: (
        {}, (np.zeros(n, complex), np.ones(n, complex), w, imag)))
    monkeypatch.setattr(sng, "_refine_crossings", one_point)
    [got] = sng.count_singularities(None, [None])
    kinds = ["swallowtail", "cuspidal_cross_cap", "degenerate_swallowtail"]
    assert got["kinds"].tolist() == kinds + (["swallowtail"] if cover else [])
    assert (got["swallowtails"], got["cross_caps"], got["degenerate"]) == \
        (1 + cover, 1, 1)
    np.testing.assert_array_equal(got["z"], np.full(3 + cover, z0))
    if cover:
        np.testing.assert_array_equal(got["w"], [w0, w0, w0, -w0])
    else:
        assert got["w"] is None


def test_genus_counts_at_k300():
    """At k = 300 each of the two closed ovals carries 2(k+1) = 602
    swallowtails and 602 cross caps, with no degenerate point."""
    data = wst.catalog_get("genus_k", k=300)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 2 and all(c.closed for c in comps)
    for counts in sng.count_singularities(data, comps):
        assert (counts["swallowtails"], counts["cross_caps"],
                counts["degenerate"]) == (602, 602, 0)
        assert len(counts["z"]) == len(counts["w"]) == 1204


@pytest.mark.parametrize("name, k", [
    ("genus_k", 13), ("genus_k", 20), ("genus_k", 40),
    ("genus_k_reduced", 26), ("genus_k_reduced", 40),
])
def test_genus_counts_from_axis_seeds(name, k):
    """Axis seeds sit on swallowtails of the genus family, so chords start
    there: each oval still carries 2(k+1) swallowtails and 2(k+1) cross
    caps, with no degenerate point.  Refinement that takes the fiber root
    nearest the chord's start jumps sheets here (k = 20 loses 6 of the 42
    swallowtails of each oval to duplicate points)."""
    data = wst.catalog_get(name, k=k)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == (1 if name == "genus_k_reduced" else 2)
    for comp, counts in zip(comps, sng.count_singularities(data, comps)):
        assert comp.closed
        assert (counts["swallowtails"], counts["cross_caps"],
                counts["degenerate"]) == (2 * (k + 1), 2 * (k + 1), 0)


@pytest.mark.parametrize("c, sw, cc", [(0.1, 4, 0), (2.0, 4, 4)])
def test_trinoid2_ovals_on_either_axis(c, sw, cc):
    """trinoid2's two ovals cross the real axis for c < 1.  For c > 1,
    |G| > 1 on the whole real axis and the ovals lie about the zeros
    +-i sqrt 3 of G, so only the imaginary axis seeds them.  Either way
    both are traced closed, with their swallowtails and cross caps."""
    data = wst.catalog_get("trinoid2", c=c)
    assert all(s.real == 0.0 for s in sng._axis_seeds(data)) == (c > 1)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 2 and all(comp.closed for comp in comps)
    for counts in sng.count_singularities(data, comps):
        assert (counts["swallowtails"], counts["cross_caps"],
                counts["degenerate"]) == (sw, cc, 0)


def test_cone_ovals_beyond_any_fixed_window():
    """At a = 1.9 (outside the catalog's envelope, so built directly) the
    cone's larger oval crosses the chart's real axis beyond |zhat| = 8 and
    is traced with the other two components: three closed, one cone-like."""
    data = wst._cone(1.9)
    [comps] = sng.trace_singular_set(data)
    assert len(comps) == 3 and all(c.closed for c in comps)
    assert np.max(np.abs(comps[0].zhat_vertices)) > 8.0
    classes = sng.count_singularities(data, comps)
    assert sum(cls["cone_like"] for cls in classes) == 1


@pytest.mark.parametrize("fixture", ["cone25", "genus1"])
def test_newton_refinement(fixture, request, monkeypatch):
    """Every crossing of a component, refined in one batch, equals the same
    crossing refined alone, bit for bit.  Rows 2e-6 and 2e-10 wide about
    the first crossing, and a row from a vertex to just past it, reach that
    crossing.  Each row stops within the round cap (the vertex edges within
    6 rounds, where bisection takes about 42 halvings), every refined point
    lies on |G| = 1 to 1e-13 with the alpha and beta _alpha_terms and _beta
    give there, and the corrector is never called.  A chord that holds no
    crossing raises."""
    data = request.getfixturevalue(fixture)
    comp = sng.trace_singular_set(data)[0][0]
    zh = comp.zhat_vertices
    p = cov.SurfacePoint(comp.z_vertices, comp.w_vertices)
    alpha = _alpha_beta(data, p)[0]
    i0 = np.arange(len(zh))
    i1 = (i0 + 1) % len(zh)
    rows, imag = [], []
    for part, use_imag in ((alpha.imag, True), (alpha.real, False)):
        hit = np.flatnonzero((part[i0] < 0) != (part[i1] < 0))
        rows.append(hit)
        imag.append(np.full(len(hit), use_imag))
    rows, imag = np.concatenate(rows), np.concatenate(imag)
    assert len(rows) >= 4
    za, zb = zh[i0[rows]], zh[i1[rows]]
    wa = None if p.w is None else p.w[i0[rows]]
    edges = len(za)
    w0 = None if wa is None else wa[0]
    part = (lambda a: a.imag) if imag[0] else (lambda a: a.real)
    zc = _scalar_refine(data, za[0], zb[0], w0, part).z
    if data.chart.name == "inverted_about_one":  # z = 1 + 1/zhat
        zc = 1.0 / (zc - 1.0)
    u = (zb[0] - za[0]) / abs(zb[0] - za[0])
    za = np.append(za, [zc - 1e-6 * u, zc - 1e-10 * u, za[0]])
    zb = np.append(zb, [zc + 1e-6 * u, zc + 1e-10 * u, zc + 1e-9 * u])
    imag = np.append(imag, [imag[0]] * 3)
    wa = None if wa is None else np.append(wa, [w0] * 3)

    def no_corrector(*args):
        raise AssertionError("_refine_crossings called the corrector")

    rounds = [0]
    terms = sng._alpha_terms

    def counted_terms(*args):
        rounds[0] += 1
        return terms(*args)

    monkeypatch.setattr(sng, "_correct", no_corrector)
    monkeypatch.setattr(sng, "_alpha_terms", counted_terms)
    batch, b_alpha, b_beta = sng._refine_crossings(data, za, zb, wa, imag)
    per_row = []
    for j in range(len(za)):
        one = slice(j, j + 1)
        rounds[0] = 0
        alone = sng._refine_crossings(data, za[one], zb[one],
                                      None if wa is None else wa[one], imag[one])[0]
        per_row.append(rounds[0])
        assert complex(alone.z[0]) == complex(batch.z[j])
        if wa is not None:
            assert complex(alone.w[0]) == complex(batch.w[j])
    assert max(per_row) <= sng._NEWTON_ROUNDS
    assert max(per_row[:edges]) <= 6
    assert np.all(np.abs(np.log(np.abs(data.G(batch)))) < 1e-13)
    # alpha and beta come from the round that stopped each row, as
    # _alpha_terms and _beta give them at the refined points
    np.testing.assert_array_equal(np.stack([b_alpha, b_beta]),
                                  np.stack(_alpha_beta(data, batch)))
    zc = complex(data.chart.to_z(zc))
    for j in (0, edges, edges + 1, edges + 2):
        assert abs(batch.z[j] - zc) < 1e-13 * (1 + abs(zc))
    # a chord at the largest |Im alpha| (or |Re alpha|) of the traversal
    i = int(np.argmax(np.abs(part(alpha))))
    far = slice(i, i + 1)
    with pytest.raises(NumericalError):
        sng._refine_crossings(data, zh[far], zh[(i + 1) % len(zh):][:1],
                              None if p.w is None else p.w[far], imag[:1])


# ---------------------------------------------------------------------------
# robustness of the tracer
# ---------------------------------------------------------------------------

def test_trace_step_halving_consistency(genus1):
    """Halving the predictor step must not change the component count or
    the classified counts."""
    coarse, fine = sng.trace_singular_set(
        genus1, steps=(genus1.trace_step, genus1.trace_step / 2))
    assert len(coarse) == len(fine)
    c_counts, f_counts = (
        sorted((c["swallowtails"], c["cross_caps"])
               for c in sng.count_singularities(genus1, comps))
        for comps in (coarse, fine))
    assert c_counts == f_counts


def _assert_same_components(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.label, a.closed, a.partial, a.circuits) == \
            (b.label, b.closed, b.partial, b.circuits)
        np.testing.assert_array_equal(a.zhat_vertices, b.zhat_vertices)
        np.testing.assert_array_equal(a.z_vertices, b.z_vertices)
        assert (a.w_vertices is None) == (b.w_vertices is None)
        if a.w_vertices is not None:
            np.testing.assert_array_equal(a.w_vertices, b.w_vertices)


@pytest.mark.parametrize("name, params", [
    ("genus_k", {"k": 1}),
    ("genus_k_reduced", {"k": 2}),
    ("cone", {"a": 2.5}),
])
def test_march_skips_covered_seeds_per_step_size(name, params, monkeypatch):
    """Seeds are walked in seed order, each to its end: a seed within
    2.5 step (1 + |seed|) of a component kept before it starts no walk and
    every other seed starts one.  Two step sizes traced together equal each
    step size traced alone."""
    data = wst.catalog_get(name, **params)
    h = data.trace_step
    walked = []
    walk = sng._walk

    def recorded(data_, seed, step, bound):
        result = walk(data_, seed, step, bound)
        walked.append((seed, result))
        return result

    monkeypatch.setattr(sng, "_walk", recorded)
    [comps] = sng.trace_singular_set(data)
    monkeypatch.setattr(sng, "_walk", walk)
    assert len(comps) == (3 if name == "cone" else 2 if name == "genus_k" else 1)
    walks = iter(walked)
    kept, skipped = [], 0
    seeds = sng._axis_seeds(data)
    for seed in seeds:
        near = 2.5 * h * (1.0 + abs(seed))
        if any(np.min(np.abs(verts - seed)) < near for verts in kept):
            skipped += 1
            continue
        got, result = next(walks)
        assert got == seed
        if result is not None:
            kept.append(result[0])
    assert next(walks, None) is None
    assert len(kept) == len(comps)
    assert skipped > 0 and skipped + len(walked) == len(seeds)
    coarse, fine = sng.trace_singular_set(data, steps=(h, h / 2))
    _assert_same_components(coarse, comps)
    _assert_same_components(fine, sng.trace_singular_set(data, steps=(h / 2,))[0])


def test_singular_report_shape(cone25):
    rep = sng.singular_report(cone25, sng.trace_singular_set(cone25)[0])
    assert rep["surface"] == "cone"
    assert rep["component_count"] == 3
    labels = {row["label"] for row in rep["components"]}
    assert len(labels) == 3
    assert sum(row["cone_like"] for row in rep["components"]) == 1


@pytest.mark.parametrize("fixture", ["cone25", "genus1"])
def test_singular_report_evaluates_each_traversal_once(fixture, request,
                                                        monkeypatch):
    """singular_report evaluates the Weierstrass data once per component,
    over its whole lifted traversal in one _alpha_terms call, and once per
    Newton round of the crossing refinement (the busy rows in one call, a
    batch that never grows); G and eta are evaluated by those calls only."""
    data = dataclasses.replace(request.getfixturevalue(fixture))
    [comps] = sng.trace_singular_set(data)
    calls = []           # (inside the refinement, points evaluated)
    evals = {"G": 0, "eta": 0}
    depth = [0]
    terms, refine = sng._alpha_terms, sng._refine_crossings

    def counted_terms(data_, p):
        calls.append((depth[0] > 0, np.size(p.z)))
        return terms(data_, p)

    def counted_refine(*args):
        depth[0] += 1
        try:
            return refine(*args)
        finally:
            depth[0] -= 1

    def counting(key, fn):
        def wrapper(p):
            evals[key] += 1
            return fn(p)
        return wrapper

    monkeypatch.setattr(sng, "_alpha_terms", counted_terms)
    monkeypatch.setattr(sng, "_refine_crossings", counted_refine)
    data.G, data.eta = counting("G", data.G), counting("eta", data.eta)
    rep = sng.singular_report(data, comps)
    traversals = [n for inside, n in calls if not inside]
    rounds = [n for inside, n in calls if inside]
    assert traversals == [c.circuits * c.vertex_count for c in comps]
    points = sum(row["swallowtails"] + row["cross_caps"] + row["degenerate"]
                 for row in rep["components"])
    assert points >= 4 and rounds[0] >= points
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert 2 <= len(rounds) <= sng._NEWTON_ROUNDS
    assert evals == {"G": len(calls), "eta": len(calls)}


def test_traversal_spans_all_circuits(genus1):
    [comps] = sng.trace_singular_set(genus1)
    comp = comps[0]
    tv = list(zip(comp.zhat_vertices, comp.z_vertices, comp.w_vertices))
    assert len(tv) == comp.circuits * comp.vertex_count
    assert len(comp.zhat_vertices) == len(comp.z_vertices) == len(comp.w_vertices)
    # the traversal is on-curve throughout
    for zh, z, w in tv[:: max(1, len(tv) // 25)]:
        assert on_cover(genus1.cover,
                            cov.SurfacePoint(complex(z), complex(w)), 1e-6)
