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
from maxface.errors import ValidationError
from nearest_root import walk_segments

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


def test_dual_route_agreement_at_k30():
    """B_k's endpoint substitution keeps the Beta route exact at large k,
    so the routes agree to the root route's bisection width."""
    assert abs(per.compute_ck(30).c_k - per.solve_ck_by_root(30)) < 1e-12


# ---------------------------------------------------------------------------
# closure of the real periods on the curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_closure_at_ck(k):
    data = wst.catalog_get("genus_k", k=k, c=per.compute_ck(k).c_k)
    for loop in cov.generator_loops(data.cover):
        assert per.closure_residual(data, loop) < 1e-8


def test_period_vector_lifts_each_loop_once(monkeypatch):
    """The closure check and the integral share one lift of the loop, whose
    one continuation over all its legs gives the fiber values, bit for bit,
    of walking w densely to the nearest root; nothing continues w outside
    it."""
    data = wst.catalog_get("genus_k", k=2, c=per.compute_ck(2).c_k)
    built, lifts, continued = [], [], []
    init, continue_legs = cov.LiftedPath.__init__, cov.continue_legs

    def counting_init(self, spec, path):
        built.append(path.label)
        init(self, spec, path)
        lifts.append(self)

    def counting_continue(spec, chains, w0s):
        continued.append([len(legs) for legs in chains])
        return continue_legs(spec, chains, w0s)

    monkeypatch.setattr(cov.LiftedPath, "__init__", counting_init)
    monkeypatch.setattr(cov, "continue_legs", counting_continue)
    loops = cov.generator_loops(data.cover)
    for loop in loops:
        per.period_vector(data, loop)
    assert built == [loop.label for loop in loops]
    assert continued == [[len(lp.legs)] for lp in lifts]
    for lp in lifts:
        legs, at_vertex = walk_segments(lp.spec, lp.path.z_vertices, lp.path.w0)
        assert lp.legs == legs
        assert lp.w_vertices == at_vertex


def test_period_vector_rejects_loop_that_permutes_sheets():
    """Once around z = 1 closes in z but not on the cover."""
    data = wst.catalog_get("genus_k", k=1, c=per.compute_ck(1).c_k)
    o = data.base
    circle = [1.0 + 0.4 * cmath.exp(2j * math.pi * i / 32) for i in range(33)]
    loop = cov.SurfacePath((o.z, 1.4 + 0j, *circle[1:], o.z), o.w,
                           label="around_one")
    with pytest.raises(ValidationError, match="does not close"):
        per.period_vector(data, loop)


def test_perturbed_c_breaks_closure():
    """1% off the period constant leaves a visible real period."""
    c_wrong = per.compute_ck(1).c_k * 1.01
    data = wst.catalog_get("genus_k", k=1, c=c_wrong)
    worst = max(per.closure_residual(data, loop)
                for loop in cov.generator_loops(data.cover))
    assert worst > 1e-3
    # frozen magnitude of the broken period (regression guard)
    assert worst == pytest.approx(0.1054, abs=0.002)


def test_x0_real_period_vanishes_for_any_c():
    """-2 G eta = -2c dz/z on the genus family: a log differential whose loop
    periods are purely imaginary, so the REAL x0-period closes at every c
    (only the x1, x2 components constrain the period problem)."""
    data = wst.catalog_get("genus_k", k=1, c=1.3)
    for loop in cov.generator_loops(data.cover):

        def x0_form(z, w):
            p = cov.SurfacePoint(z, w)
            return -2.0 * data.G(p) * data.eta(p)

        val = complex(wst.integrate_form(data.cover, loop, x0_form, tol=1e-11)[-1])
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
