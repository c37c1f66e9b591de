"""Singular-set tracing and the (alpha, beta) wavefront classification.

Closed-form checks pin alpha on the rotational examples; the structural
counts (swallowtails per oval, cross caps, cone axes) are checked against
independently derived expectations for the catalog surfaces.
"""

import cmath
import math

import numpy as np
import pytest

from maxface import cover as cov
from maxface import periods as per
from maxface import singularities as sng
from maxface import weierstrass as wst

# ---------------------------------------------------------------------------
# alpha, beta closed forms
# ---------------------------------------------------------------------------

def test_alpha_catenoid_closed_form():
    """G = z, eta = dz/z^2: alpha = G'/(G^2 eta) = z^2/z^2 = 1 (real,
    nonzero, beta real) -> cone-axis degeneracy, never a swallowtail."""
    data = wst.catalog_get("catenoid")
    for th in (0.3, 1.1, 2.7):
        p = data.point(cmath.exp(1j * th))
        alpha, beta = sng.alpha_beta(data, p)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert abs(beta.imag) < 1e-12


def test_alpha_helicoid_closed_form():
    """Conjugate data eta = i dz/z^2 rotates alpha to -i: purely imaginary
    alpha on the whole circle (fold / cuspidal-edge regime)."""
    data = wst.catalog_get("helicoid")
    p = data.point(cmath.exp(0.9j))
    alpha, _ = sng.alpha_beta(data, p)
    assert alpha.real == pytest.approx(0.0, abs=1e-12)
    assert abs(alpha.imag) == pytest.approx(1.0, abs=1e-12)


def test_classify_point_kinds():
    data = wst.catalog_get("catenoid")
    p = data.point(cmath.exp(0.4j))
    out = sng.classify_point(data, p)
    assert out["kind"] == "degenerate"  # real alpha, real beta: cone axis
    data_h = wst.catalog_get("helicoid")
    out_h = sng.classify_point(data_h, data_h.point(cmath.exp(0.4j)))
    assert out_h["kind"] in ("cuspidal_edge", "degenerate")


def test_associated_family_generic_edge():
    """Strictly between the conjugate pair the edge points are generic."""
    data = wst.catalog_get("associated", phase=0.6)
    p = data.point(cmath.exp(0.8j))
    out = sng.classify_point(data, p)
    assert out["kind"] == "cuspidal_edge"


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
    data = wst.catalog_get("genus_k", k=k, c=sol.c_k)
    comps = sng.trace_singular_set(data)
    assert len(comps) == 2
    for comp in comps:
        assert comp.closed and not comp.partial
        for z in comp.z_vertices[:: max(1, comp.vertex_count // 40)]:
            assert oval_residual_full(complex(z), sol.rho_k) < 1e-7


@pytest.mark.parametrize("k", [2])
def test_singular_oval_reduced(k):
    sol = per.compute_ck(k)
    data = wst.catalog_get("genus_k_reduced", k=k, c=sol.c_k)
    comps = sng.trace_singular_set(data)
    assert len(comps) == 1
    comp = comps[0]
    # reduced coordinate: R + 1/R - 2 cos Theta = rho_k
    for z in comp.z_vertices[:: max(1, comp.vertex_count // 30)]:
        R, Th = abs(complex(z)), cmath.phase(complex(z))
        assert abs(R + 1.0 / R - 2.0 * math.cos(Th) - sol.rho_k) < 1e-7


@pytest.mark.parametrize("k", [1, 2])
def test_genus_family_counts(k):
    """Each oval carries 2(k+1) swallowtails and 2(k+1) cross caps."""
    data = wst.catalog_get("genus_k", k=k, c=per.compute_ck(k).c_k)
    comps = sng.trace_singular_set(data)
    for comp in comps:
        counts = sng.count_singularities(data, comp)
        assert counts["swallowtails"] == 2 * (k + 1)
        assert counts["cross_caps"] == 2 * (k + 1)
        assert counts["degenerate"] == 0


def test_components_carry_cover_lift(genus1):
    comps = sng.trace_singular_set(genus1)
    for comp in comps:
        assert comp.w_vertices is not None
        spec = genus1.cover
        for z, w in list(zip(comp.z_vertices, comp.w_vertices))[::50]:
            assert cov.on_cover(spec, cov.SurfacePoint(complex(z), complex(w)),
                                1e-6)


# ---------------------------------------------------------------------------
# cone example: one degenerate axis, two generic ovals
# ---------------------------------------------------------------------------

def test_cone_structure(cone25):
    comps = sng.trace_singular_set(cone25)
    assert len(comps) == 3
    cones = []
    generic = []
    for comp in comps:
        det = sng.detect_cone_like(cone25, comp)
        (cones if det["cone_like"] else generic).append((comp, det))
    assert len(cones) == 1
    assert len(generic) == 2
    comp, det = cones[0]
    assert det["max_im_alpha"] < 1e-8
    assert det["min_abs_alpha"] > 0.01
    assert det["gauss_winding"] in (1, -1)
    for comp, _ in generic:
        counts = sng.count_singularities(cone25, comp)
        assert counts["swallowtails"] > 0
        assert counts["cross_caps"] > 0


def test_trinoid_counts():
    data = wst.catalog_get("trinoid1", a=3.67)
    comps = sng.trace_singular_set(data)
    sw = sum(sng.count_singularities(data, c)["swallowtails"] for c in comps)
    cc = sum(sng.count_singularities(data, c)["cross_caps"] for c in comps)
    assert sw == 8
    assert cc == 0
    for comp in comps:
        assert not sng.detect_cone_like(data, comp)["cone_like"]


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


def _scalar_seeds(data, grid_n):
    """Node-by-node grid and real-axis sign changes, each edge bisected 50
    times by scalar calls; edges in the tracer's seed order."""
    x0, x1, y0, y1 = data.window
    xs, ys = np.linspace(x0, x1, grid_n), np.linspace(y0, y1, grid_n)
    val = {(i, j): _scalar_phi_hat(data, complex(x, y))
           for i, y in enumerate(ys) for j, x in enumerate(xs)}
    pt = {(i, j): complex(x, y) for i, y in enumerate(ys) for j, x in enumerate(xs)}
    pairs = [((i, j), (i, j + 1)) for i in range(grid_n) for j in range(grid_n - 1)]
    pairs += [((i, j), (i + 1, j)) for j in range(grid_n) for i in range(grid_n - 1)]
    edges = [(pt[a], val[a], pt[b], val[b]) for a, b in pairs]
    line = [complex(x, 0.0) for x in np.linspace(x0, x1, 8 * grid_n)]
    fl = [_scalar_phi_hat(data, z) for z in line]
    edges += list(zip(line[:-1], fl[:-1], line[1:], fl[1:]))
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
])
def test_array_seeds_match_scalar_reference(name, params):
    """One array evaluation of phi_hat and batched bisection reproduce the
    scalar seeder: same seeds in the same order."""
    if name.startswith("genus"):
        params = dict(params, c=per.compute_ck(params["k"]).c_k)
    data = wst.catalog_get(name, **params)
    ref = _scalar_seeds(data, 21)
    got = sng._grid_seeds(sng._Profile(data), data.window, 21)
    assert len(ref) > 0
    assert len(got) == len(ref)
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-12


def test_phi_hat_nan_where_chart_undefined(cone25, genus1):
    """zhat = 0 is a grid node of the cone's inverted chart and z = 0 is a
    branch point of the cover: phi_hat is NaN there, as array and scalar."""
    prof = sng._Profile(cone25)
    x0, x1, _, _ = cone25.window
    assert 0.0 in np.linspace(x0, x1, 21)
    grid = np.array([[0j, 0.5 + 0.5j], [-1.0 + 0j, 2.0j]])
    vals = prof.phi_hat(grid)
    assert vals.shape == grid.shape
    assert np.isnan(vals[0, 0]) and np.all(np.isfinite(vals.ravel()[1:]))
    assert math.isnan(prof.phi_hat(0j))
    for zh in grid.ravel()[1:]:
        assert prof.phi_hat(zh) == pytest.approx(_scalar_phi_hat(cone25, zh),
                                                 rel=1e-14, abs=1e-14)
    gprof = sng._Profile(genus1)
    assert np.isnan(gprof.phi_hat(np.array([0j, 0.7 + 0.2j]))[0])
    assert math.isnan(gprof.phi_hat(0j))
    # a pole of G (|G| = inf) is NaN too, not +inf
    assert math.isnan(sng._Profile(wst.catalog_get("trinoid1")).phi_hat(0j))


class _LineProfile:
    """phi_hat = Re zhat - 1/2 on Im zhat = 0, undefined on a slot about the
    root on Im zhat = 1, and Re zhat - 0.3 on Im zhat = 2; records every
    batch it evaluates."""

    def __init__(self):
        self.batches = []

    def phi_hat(self, zh):
        self.batches.append(np.array(zh))
        x, y = zh.real, zh.imag
        f = np.where(y == 2.0, x - 0.3, x - 0.5)
        return np.where((y == 1.0) & (np.abs(x - 0.5) < 0.1), np.nan, f)


def test_bisect_edges_drops_and_stops():
    """All edges halve together: one stops at an exact zero, one is dropped
    at an undefined midpoint, one converges after 50 halvings."""
    prof = _LineProfile()
    za = np.array([0.0, 1j, 2j])
    seeds = sng._bisect_edges(prof, za, za + 1.0, za.real - np.array([0.5, 0.5, 0.3]))
    assert len(seeds) == 2
    assert seeds[0] == 0.5
    assert abs(seeds[1] - (0.3 + 2j)) < 1e-15
    assert [len(b) for b in prof.batches] == [3] + [1] * 49


# ---------------------------------------------------------------------------
# robustness of the tracer
# ---------------------------------------------------------------------------

def test_trace_step_halving_consistency(genus1):
    """Halving the predictor step must not change the component count or
    the classified counts."""
    coarse = sng.trace_singular_set(genus1)
    fine = sng.trace_singular_set(genus1, step=genus1.trace_step / 2)
    assert len(coarse) == len(fine)
    c_counts = sorted(
        (sng.count_singularities(genus1, c)["swallowtails"],
         sng.count_singularities(genus1, c)["cross_caps"]) for c in coarse)
    f_counts = sorted(
        (sng.count_singularities(genus1, c)["swallowtails"],
         sng.count_singularities(genus1, c)["cross_caps"]) for c in fine)
    assert c_counts == f_counts


def test_singular_report_shape(cone25):
    rep = sng.singular_report(cone25, sng.trace_singular_set(cone25))
    assert rep["surface"] == "cone"
    assert rep["component_count"] == 3
    labels = {row["label"] for row in rep["components"]}
    assert len(labels) == 3
    assert sum(row["cone_like"] for row in rep["components"]) == 1


def test_traversal_spans_all_circuits(genus1):
    comps = sng.trace_singular_set(genus1)
    comp = comps[0]
    tv = list(comp.traversal())
    assert len(tv) == comp.circuits * comp.vertex_count
    # the traversal is on-curve throughout
    for zh, z, w in tv[:: max(1, len(tv) // 25)]:
        assert cov.on_cover(genus1.cover,
                            cov.SurfacePoint(complex(z), complex(w)), 1e-6)
