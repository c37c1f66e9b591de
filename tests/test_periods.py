"""Period constants, closure of the real periods at c_k, and the two
independent routes to the same number.

The frozen decimals below were produced by an independent oracle (lgamma-based
Beta values and, for the root route, a bisection on the raw contour
integrals); they pin the implementation against silent regressions.
"""

import cmath
import math

import numpy as np
import pytest

from maxface import cover as cov
from maxface import periods as per
from maxface import weierstrass as wst
from maxface.errors import NumericalError, ValidationError
from nearest_root import lifted_legs, walk_segments

# frozen oracle decimals (Beta-function route, 1e-10 quadrature)
FROZEN = {
    1: {"A": 1.1981402347, "B": 2.6220575543, "c": 1.0460496201,
        "rho": 0.8352007117, "Gamma": 0.4745594007},
    2: {"c": 1.1360142032},
    3: {"c": 1.2307540824},
    4: {"c": 1.3227687470},
    6: {"c": 1.4943068942},
}


def beta_lgamma(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


# ---------------------------------------------------------------------------
# the Beta-integral route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 30, 40, 100])
def test_AkBk_against_lgamma(k):
    """A_k = (1/2) B((k+2)/(2k+2), k/(k+1)); B_k = (1/2) B(k/(2k+2), 1/(k+1))."""
    A, B = per.compute_AkBk(k)
    assert A == pytest.approx(
        0.5 * beta_lgamma((k + 2) / (2 * k + 2), k / (k + 1)), rel=1e-11)
    assert B == pytest.approx(
        0.5 * beta_lgamma(k / (2 * k + 2), 1 / (k + 1)), rel=1e-11)


def test_frozen_values_k1():
    sol = per.compute_ck(1)
    assert sol.A_k == pytest.approx(FROZEN[1]["A"], abs=5e-11)
    assert sol.B_k == pytest.approx(FROZEN[1]["B"], abs=5e-11)
    assert sol.c_k == pytest.approx(FROZEN[1]["c"], abs=5e-11)
    assert sol.rho_k == pytest.approx(FROZEN[1]["rho"], abs=5e-10)
    assert sol.Gamma_k == pytest.approx(FROZEN[1]["Gamma"], abs=5e-10)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_frozen_ck_values(k):
    assert per.compute_ck(k).c_k == pytest.approx(FROZEN[k]["c"], abs=5e-11)


def test_c1_exceeds_one():
    assert per.compute_ck(1).c_k > 1.0


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_derived_ranges(k):
    sol = per.compute_ck(k)
    assert 0.0 < sol.rho_k < 2.0
    assert 0.0 < sol.Gamma_k < math.pi / 4
    # rho_k = c_k^(-2(k+1)/k) consistency
    assert sol.rho_k == pytest.approx(sol.c_k ** (-2 * (k + 1) / k), rel=1e-12)
    # Gamma_k = arcsin(sqrt(rho_k)/2)
    assert sol.Gamma_k == pytest.approx(
        math.asin(math.sqrt(sol.rho_k) / 2.0), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_lower_bound_holds(k):
    sol = per.compute_ck(k)
    s_k = math.sin(math.pi * k / (2 * k + 2))
    lower = math.sqrt(s_k / 2.0)
    assert sol.c_k > lower


# ---------------------------------------------------------------------------
# the root-finding route (independent of the Beta formula)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dual_route_agreement(k):
    direct = per.compute_ck(k).c_k
    by_root = per.solve_ck_by_root(k)
    assert abs(direct - by_root) < 1e-8


@pytest.mark.parametrize("k", [30, 100, 150])
def test_dual_route_agreement_at_large_k(k):
    """B_k's endpoint substitution keeps the Beta route exact at large k and
    the root route solves its quadratic residual exactly, with no bracket:
    the routes agree to 1e-12 relative past c_k = 5 (k = 100, 150)."""
    direct = per.compute_ck(k).c_k
    assert abs(direct - per.solve_ck_by_root(k)) < 1e-12 * direct


@pytest.mark.parametrize("E, J", [(1j, 0j), (1j, -1j), (0j, 1j), (1j, complex("nan"))])
def test_root_route_refuses_no_positive_root(E, J, monkeypatch):
    """Im E / Im J that is not finite and positive has no root c > 0."""
    monkeypatch.setattr(per, "_gamma_raw_integrals", lambda k: (E, J))
    with pytest.raises(NumericalError):
        per.solve_ck_by_root(1)


# ---------------------------------------------------------------------------
# closure of the real periods on the curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_closure_at_ck(k):
    data = wst.catalog_get("genus_k", k=k)
    for res in per.closure_residuals(data, cov.generator_loops(data.cover)):
        assert res < 1e-8


def test_period_vector_lifts_each_loop_once(monkeypatch):
    """The closure check and the integral share one lift of the loops, whose
    one continuation over the legs of every loop gives the fiber values,
    bit for bit, of walking w densely to the nearest root; nothing
    continues w outside it."""
    data = wst.catalog_get("genus_k", k=2)
    built, lifts, continued = [], [], []
    init, continue_legs = cov.LiftedPath.__init__, cov.continue_legs

    def counting_init(self, spec, path, *args):
        built.append(path.label)
        init(self, spec, path, *args)
        lifts.append(self)

    def counting_continue(spec, routes, w0s):
        continued.append([len(route) - 1 for route in routes])
        return continue_legs(spec, routes, w0s)

    monkeypatch.setattr(cov.LiftedPath, "__init__", counting_init)
    monkeypatch.setattr(cov, "continue_legs", counting_continue)
    loops = cov.generator_loops(data.cover)
    per.closure_residuals(data, loops)
    assert built == [loop.label for loop in loops]
    assert continued == [[len(lp.route) - 1 for lp in lifts]]
    for lp in lifts:
        legs, at_vertex = walk_segments(lp.spec, lp.path.z_vertices, lp.path.w0)
        assert lifted_legs(lp) == legs
        assert lp.w_vertices.tolist() == at_vertex


def test_period_vector_rejects_loop_that_permutes_sheets():
    """Once around z = 1 closes in z but not on the cover."""
    data = wst.catalog_get("genus_k", k=1)
    o = data.base
    circle = [1.0 + 0.4 * cmath.exp(2j * math.pi * i / 32) for i in range(33)]
    loop = cov.SurfacePath((o.z, 1.4 + 0j, *circle[1:], o.z), o.w,
                           label="around_one")
    with pytest.raises(ValidationError, match="does not close"):
        per.closure_residuals(data, [loop])
    # not first in its batch, it is still the loop the message names
    loops = cov.generator_loops(data.cover)
    with pytest.raises(ValidationError, match="'around_one' does not close"):
        per.closure_residuals(data, loops[:2] + [loop] + loops[2:])
    # a polyline that does not return to its start in z is refused first
    with pytest.raises(ValidationError, match="closed z-polylines"):
        per.closure_residuals(data, loops + [cov.SurfacePath((o.z, 1.4 + 0j), o.w)])


@pytest.mark.parametrize("run", [
    lambda: wst.mesh_sample(wst.catalog_get("genus_k", k=1)),
    lambda: per.closure_residuals(wst.catalog_get("genus_k", k=2),
                                  cov.generator_loops(cov.CoverSpec(2))),
    lambda: per._gamma_raw_integrals.__wrapped__(2),
], ids=["mesh_sample", "closure_residuals", "gamma_raw_integrals"])
def test_one_quadrature_call(run, monkeypatch):
    """A mesh, the closure of a set of loops and the gamma integrals each
    integrate all their paths in one gk_batched call."""
    calls = []
    gk_batched = wst.gk_batched

    def counting(f, n, tol, *args):
        calls.append(n)
        return gk_batched(f, n, tol, *args)

    monkeypatch.setattr(wst, "gk_batched", counting)
    run()
    assert len(calls) == 1


def test_perturbed_c_breaks_closure():
    """1% off the period constant leaves a visible real period."""
    c_wrong = per.compute_ck(1).c_k * 1.01
    data = wst.catalog_get("genus_k", k=1, c=c_wrong)
    worst = max(per.closure_residuals(data, cov.generator_loops(data.cover)))
    assert worst > 1e-3
    # frozen magnitude of the broken period (regression guard)
    assert worst == pytest.approx(0.1054, abs=0.002)


def test_x0_real_period_vanishes_for_any_c():
    """-2 G eta = -2c dz/z on the genus family: a log differential whose loop
    periods are purely imaginary, so the REAL x0-period closes at every c
    (only the x1, x2 components constrain the period problem)."""
    data = wst.catalog_get("genus_k", k=1, c=1.3)

    def x0_form(p):
        return -2.0 * data.G(p) * data.eta(p)

    lifted = cov.lift(data.cover, cov.generator_loops(data.cover))
    for ints in wst.integrate_form(data.cover, lifted, x0_form, tol=1e-11):
        val = complex(ints[-1])
        assert abs(val.real) < 1e-9
        # the imaginary period is quantized: -2c * 2 pi * winding(z-loop, 0)
        n = round(val.imag / (-2.0 * 1.3 * 2.0 * math.pi))
        assert abs(val.imag - n * (-2.0 * 1.3 * 2.0 * math.pi)) < 1e-8


def test_period_report_shape():
    rep = per.period_report(1)
    assert rep["k"] == 1
    assert rep["c_k"] == pytest.approx(FROZEN[1]["c"], abs=1e-9)
    assert rep["route_disagreement"] < 1e-8
    assert rep["residuals"]
    assert max(rep["residuals"].values()) < 1e-8
    assert rep["symmetry_residual"] < 1e-8


def test_symmetry_reduction_check():
    rep = per.symmetry_reduction_check(2)
    assert rep["max_residual"] < 1e-8
