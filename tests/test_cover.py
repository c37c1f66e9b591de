"""The branched cover w^(k+1) = z(z^2-1)^k: fibers, analytic continuation,
reflection symmetries, and deck-transformation words."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import algebra as alg
from maxface import cover as cov
from maxface.errors import ValidationError

# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fiber_roots_satisfy_curve(k):
    spec = cov.CoverSpec(k)
    z = 1.7 + 0.6j
    roots = spec.fiber(z)
    assert len(roots) == k + 1
    for w in roots:
        assert abs(w ** (k + 1) - spec.rhs(z)) < 1e-9 * (1 + abs(w)) ** (k + 1)
    # all distinct
    diffs = [abs(a - b) for i, a in enumerate(roots)
             for b in roots[i + 1:]]
    assert min(diffs) > 1e-6


@given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_solve_fiber_residual(re, im, k):
    z = complex(re, im)
    spec = cov.CoverSpec(k)
    if min(abs(z - b) for b in spec.finite_branch_points) < 1e-3:
        return
    p = cov.solve_fiber(spec, z)
    assert cov.fiber_residual(spec, p) < 1e-8 * (1 + abs(p.w)) ** (k + 1)
    assert cov.on_cover(spec, p)


@pytest.mark.parametrize("k, reduced", [(1, False), (3, False), (2, True), (4, True)])
def test_fiber_on_arrays_matches_pointwise(k, reduced):
    """An array of z gives the per-point roots along a new last axis, and
    all roots vanish where the curve's right-hand side does."""
    spec = cov.CoverSpec(k, reduced=reduced)
    rng = np.random.default_rng(11)
    z = rng.uniform(-2.5, 2.5, (3, 7)) + 1j * rng.uniform(-2.5, 2.5, (3, 7))
    z[0, :len(spec.finite_branch_points)] = spec.finite_branch_points
    roots = spec.fiber(z)
    assert roots.shape == z.shape + (spec.sheet_count,)
    for idx in np.ndindex(z.shape):
        one = spec.fiber(complex(z[idx]))
        assert one.shape == (spec.sheet_count,)
        np.testing.assert_allclose(roots[idx], one, rtol=1e-14, atol=0.0)
    zero = spec.rhs(z) == 0
    assert zero.sum() == len(spec.finite_branch_points)
    assert np.all(roots[zero] == 0)
    assert np.all(spec.fiber(0j) == 0)


def test_solve_fiber_near_selection():
    spec = cov.CoverSpec(2)
    roots = spec.fiber(2.0 + 0j)
    for w in roots:
        p = cov.solve_fiber(spec, 2.0, near=w * (1 + 1e-3))
        assert abs(p.w - w) < 1e-8


def test_base_point_is_on_curve():
    for k in (1, 2, 3):
        spec = cov.CoverSpec(k)
        o = cov.base_point(spec)
        assert o.z == 2.0
        assert cov.on_cover(spec, o)
        assert o.w.real > 0 and abs(o.w.imag) < 1e-12  # positive real branch


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

def test_continuation_round_trip_trivial_loop():
    spec = cov.CoverSpec(2)
    p0 = cov.solve_fiber(spec, 2.3 + 0j)
    # a small loop encircling no branch point must come back on-sheet
    loop = [2.0 + 0.3 * cmath.exp(2j * math.pi * i / 24) for i in range(25)]
    path = cov.SurfacePath(tuple(loop), p0.w)
    end = cov.SurfacePoint(path.end, cov.LiftedPath(spec, path).w_end)
    assert end.close_to(p0, 1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branch_loop_permutes_then_returns(k):
    """A loop around z=1 permutes the fiber; k+1 circuits restore it."""
    spec = cov.CoverSpec(k)
    o = cov.base_point(spec)

    def circle(n_turns):
        # radius-0.4 circle about z=1 (clear of the other branch points),
        # reached from the base by a straight spoke
        pts = [o.z, 1.4 + 0j]
        n = 32 * n_turns
        for i in range(1, n + 1):
            ang = 2 * math.pi * n_turns * i / n
            pts.append(1.0 + 0.4 * cmath.exp(1j * ang))
        pts.append(o.z)
        return cov.SurfacePath(tuple(pts), o.w)

    def end(path):
        return cov.SurfacePoint(path.end, cov.LiftedPath(spec, path).w_end)

    once = end(circle(1))
    assert abs(once.z - o.z) < 1e-12
    assert abs(once.w - o.w) > 1e-3  # nontrivial permutation
    full = end(circle(k + 1))
    assert full.close_to(o, 1e-8)


def test_sanitize_path_inserts_branch_detour():
    """A segment grazing a branch point gets a clearance detour arc."""
    spec = cov.CoverSpec(1)
    clr = cov.clearance(spec)
    raw = (2.0 + 0.01j, -2.0 + 0.01j)  # passes within 0.01 of z = +-1
    clean = cov.sanitize_path(spec, raw)
    assert len(clean) > 2
    for a, b in zip(clean[:-1], clean[1:]):
        for bp in spec.finite_branch_points:
            assert cov._seg_point_dist(a, b, bp) > 0.5 * clr
    # the detour respects homotopy: continuation along it is well-defined
    p0 = cov.solve_fiber(spec, clean[0])
    lifted = cov.LiftedPath(spec, cov.SurfacePath(clean, p0.w))
    assert cov.on_cover(spec, cov.SurfacePoint(clean[-1], lifted.w_end), 1e-8)


def _w_at_reference(lp, leg, s):
    """w at the leg parameters s, one point at a time: interpolated seed,
    then the nearest root of the fiber.  The fibers come from one array call,
    as in w_at, because numpy may round an array power differently from a
    scalar one in the last bit."""
    z0, z1, s_nodes, w_nodes = lp.legs[leg]
    out = []
    for x, roots in zip(s, lp.spec.fiber(z0 + (z1 - z0) * s)):
        i = max(1, min(int(np.searchsorted(s_nodes, x)), len(s_nodes) - 1))
        t = (x - s_nodes[i - 1]) / (s_nodes[i] - s_nodes[i - 1])
        seed = w_nodes[i - 1] * (1 - t) + w_nodes[i] * t
        out.append(roots[int(np.argmin(np.abs(roots - seed)))])
    return out


@pytest.mark.parametrize("k, reduced", [(1, False), (2, True)])
def test_w_at_matches_pointwise_reference(k, reduced):
    """The array w_at picks, bit for bit, the root a point-by-point nearest
    root search picks, on every leg of a path that is detoured around z = 1
    and then passes it just outside the clearance disc."""
    spec = cov.CoverSpec(k, reduced=reduced)
    o = cov.base_point(spec)
    bump = 0.5j * cov.clearance(spec)
    verts = (o.z, 1.3 + bump, 0.7 + bump, 0.7 + 3 * bump, 1.3 + 3 * bump)
    lp = cov.LiftedPath(spec, cov.SurfacePath(verts, o.w))
    assert len(lp.legs) > 2
    s = np.concatenate([np.linspace(0.0, 1.0, 33), 0.5 + 0.5 * alg._X15])
    for leg in range(len(lp.legs)):
        assert np.array_equal(lp.w_at(leg, s), _w_at_reference(lp, leg, s))


def test_winding_number_oracle():
    square = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j)
    assert cov.winding_number(square, 0j) == pytest.approx(1.0, abs=1e-9)
    assert cov.winding_number(square, 3.0) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_reflection_is_involution(k, j):
    spec = cov.CoverSpec(k)
    p = cov.solve_fiber(spec, 1.4 + 0.8j)
    q = cov.reflection_apply(spec, j, cov.reflection_apply(spec, j, p))
    assert q.close_to(p, 1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reflections_preserve_curve(k):
    spec = cov.CoverSpec(k)
    p = cov.solve_fiber(spec, 0.6 + 0.45j)
    for j in (1, 2, 3):
        q = cov.reflection_apply(spec, j, p)
        assert cov.on_cover(spec, q, 1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mu2_mu1_has_order_k_plus_1(k):
    """mu2 mu1 fixes z and rotates w by a primitive (k+1)-th phase."""
    spec = cov.CoverSpec(k)
    p = cov.solve_fiber(spec, 1.9 - 0.3j)
    one = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, p))
    assert abs(one.z - p.z) < 1e-12
    assert one.w / p.w == pytest.approx(cmath.exp(2j * spec.k * spec.lam),
                                        abs=1e-12)
    q = p
    for _ in range(k + 1):
        q = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, q))
    assert q.close_to(p, 1e-9)
    # ... and no earlier power is the identity
    q = p
    for _ in range(k):
        q = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, q))
    if k >= 1:
        assert abs(q.w - p.w) > 1e-3


def test_kappa1_matches_word():
    """kappa1 = z -> e^(2 i lam) z rotation composed from mu2 mu1."""
    spec = cov.CoverSpec(2)
    p = cov.solve_fiber(spec, 1.3 + 0.7j)
    via_word = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, p))
    direct = cov.kappa1_apply(spec, p)
    # kappa1 is one of the two composition orders
    alt = cov.reflection_apply(spec, 1, cov.reflection_apply(spec, 2, p))
    assert direct.close_to(via_word, 1e-9) or direct.close_to(alt, 1e-9)


# ---------------------------------------------------------------------------
# deck words and canonical loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_end_words_are_identity_loops(k):
    spec = cov.CoverSpec(k)
    for word in (cov.word_end_zero(k), cov.word_end_infinity(k),
                 cov.word_base_loop()):
        path = cov.deck_word_path(spec, word)
        assert cov.LiftedPath(spec, path).is_closed(1e-9)


def test_deck_word_rejects_odd_word():
    with pytest.raises(ValidationError):
        cov.DeckWord((1, 2, 3))


@pytest.mark.parametrize("k", [1, 2])
def test_generator_loops_close(k):
    spec = cov.CoverSpec(k)
    loops = cov.generator_loops(spec)
    assert len(loops) == 2 * (k + 1)
    for loop in loops:
        assert cov.LiftedPath(spec, loop).is_closed(1e-9)


def test_generator_loop_labels():
    spec = cov.CoverSpec(1)
    labels = [p.label for p in cov.generator_loops(spec)]
    assert "k1^0*gamma" in labels and "k1^0*k2*gamma" in labels


# ---------------------------------------------------------------------------
# reduced curve and genus bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,genus", [(1, 1), (2, 2), (3, 3), (4, 4)])
def test_genus_full_curve(k, genus):
    assert cov.genus_check(cov.CoverSpec(k))["genus"] == genus


@pytest.mark.parametrize("k,genus", [(2, 1), (4, 2)])
def test_genus_reduced_curve(k, genus):
    assert cov.genus_check(cov.CoverSpec(k, reduced=True))["genus"] == genus


def test_cover_spec_validation():
    with pytest.raises(ValidationError):
        cov.CoverSpec(0)
    with pytest.raises(ValidationError):
        cov.CoverSpec(3, reduced=True)
