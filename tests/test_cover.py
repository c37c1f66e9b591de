"""The branched cover w^(k+1) = z(z^2-1)^k: fibers, analytic continuation,
reflection symmetries, and deck-transformation words."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import algebra as alg
from maxface import cover as cov
from maxface.errors import ContinuationError, NumericalError, ValidationError
from nearest_root import (fiber_residual, lifted_legs, on_cover, route_segment,
                          seg_point_dist, walk_leg, walk_segments)

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
    assert fiber_residual(spec, p) < 1e-8 * (1 + abs(p.w)) ** (k + 1)
    assert on_cover(spec, p)


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
        assert on_cover(spec, o)
        assert o.w.real > 0 and abs(o.w.imag) < 1e-12  # positive real branch


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

def _same_point(p, q, tol):
    """p and q agree in z and w to tol relative to p."""
    return (abs(p.z - q.z) <= tol * (1 + abs(p.z))
            and abs(p.w - q.w) <= tol * (1 + abs(p.w)))


def test_continuation_round_trip_trivial_loop():
    spec = cov.CoverSpec(2)
    p0 = cov.solve_fiber(spec, 2.3 + 0j)
    # a small loop encircling no branch point must come back on-sheet
    loop = [2.0 + 0.3 * cmath.exp(2j * math.pi * i / 24) for i in range(25)]
    path = cov.SurfacePath(tuple(loop), p0.w)
    end = cov.SurfacePoint(path.end, cov.lift(spec, [path])[0].w_end)
    assert _same_point(end, p0, 1e-9)


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
        return cov.SurfacePoint(path.end, cov.lift(spec, [path])[0].w_end)

    once = end(circle(1))
    assert abs(once.z - o.z) < 1e-12
    assert abs(once.w - o.w) > 1e-3  # nontrivial permutation
    full = end(circle(k + 1))
    assert _same_point(full, o, 1e-8)


def test_lift_detours_around_every_branch_point_passed():
    """A segment grazing all three branch points gets a clearance arc about
    each, in order along it, and the route matches routing it alone."""
    spec = cov.CoverSpec(1)
    clr = cov.clearance(spec)
    raw = (2.0 + 0.01j, -2.0 + 0.01j)  # passes within 0.01 of z = 0, +-1
    p0 = cov.solve_fiber(spec, raw[0])
    [lifted] = cov.lift(spec, [cov.SurfacePath(raw, p0.w)])
    clean = lifted.route.tolist()
    assert len(clean) == 2 + 3 * 10
    assert clean == [raw[0]] + route_segment(spec, *raw)
    for a, b in zip(clean[:-1], clean[1:]):
        for bp in spec.finite_branch_points:
            assert seg_point_dist(a, b, bp) > 0.5 * clr
    # each arc circles its branch point counterclockwise, 1 then 0 then -1
    arcs = [clean[2 + 10 * i:11 + 10 * i] for i in range(3)]
    assert [round((sum(a) / 9).real) for a in arcs] == [1, 0, -1]
    # the detour respects homotopy: continuation along it is well-defined
    assert on_cover(spec, cov.SurfacePoint(clean[-1], lifted.w_end), 1e-8)
    # a segment with an end within 1e-14 of a branch point does not pass it
    for seg in ((1 + 5e-15, 1.3 + 0.2j), (0.3 - 0.2j, -5e-15j)):
        [lp] = cov.lift(spec, [cov.SurfacePath(seg, cov.solve_fiber(spec, seg[0]).w)])
        assert lp.route.tolist() == list(seg)


@pytest.mark.parametrize("path", [(1.01 + 0.01j, 1.01 + 0.01j, 0.5 + 0.5j),
                                  (1.01, 1.01 + 5e-15, 1.3 + 0.2j)])
def test_segment_within_1e_14_adds_nothing(path):
    """A segment of length 0 or 5e-15 inside the clearance disc of z = 1
    adds no leg and no detour, and the next segment is routed from the
    vertex before it: the path gets the route, w and end value of the path
    without its middle vertex, with no turn about z = 1."""
    spec = cov.CoverSpec(1)
    w0 = cov.solve_fiber(spec, path[0]).w
    [lp] = cov.lift(spec, [cov.SurfacePath(path, w0)])
    [ref] = cov.lift(spec, [cov.SurfacePath(path[::2], w0)])
    assert lp.route.tolist() == ref.route.tolist()
    assert lp.w.tolist() == ref.w.tolist()
    assert lp.w_end == ref.w_end
    assert lp.upto.tolist() == [0, 0, len(ref.route) - 1]
    assert len(ref.route) > 2
    assert abs(cov.winding_number(lp.route.tolist(), 1.0)) < 0.5


@pytest.mark.parametrize("k, reduced", [(1, False), (3, False), (2, True)])
def test_screened_lift_matches_per_segment_sanitizing(k, reduced):
    """lift tests the segments against the branch points in one array pass
    and detours only those that pass one, and continues w along all legs at
    once; its legs and the fiber values at their ends and at the vertices
    equal, bit for bit, those of routing every segment by a scalar test and
    walking w densely to the nearest root: on a path that ends inside a
    clearance disc and leaves it, repeats a vertex, and passes z = 1 at the
    clearance radius, just inside it and just outside it."""
    spec = cov.CoverSpec(k, reduced=reduced)
    o = cov.base_point(spec)
    clr = cov.clearance(spec)
    verts = (o.z, 1.0 + 0.6j, 1.0 + 0.5 * clr * 1j, -0.5 + 0.4j, -0.5 + 0.4j,
             2.0 + clr * 1j, 0.5 + clr * 1j, 0.5 + clr * (1 - 1e-12) * 1j,
             2.0 + clr * (1 - 1e-12) * 1j, 2.0 + clr * (1 + 1e-12) * 1j,
             0.5 + clr * (1 + 1e-12) * 1j, o.z)
    [lp] = cov.lift(spec, [cov.SurfacePath(verts, o.w)])
    ref, at_vertex = walk_segments(spec, verts, o.w)
    assert len(ref) > len(verts)
    assert lifted_legs(lp) == ref
    assert lp.w_vertices.tolist() == at_vertex
    detoured = [len(route_segment(spec, a, b)) > 1
                for a, b in zip(verts[:-1], verts[1:])]
    assert any(detoured) and not all(detoured)
    assert lp.route.tolist() == [o.z] + [zb for _, zb, _, _ in ref]


@pytest.mark.parametrize("detour", [True, False])
@pytest.mark.parametrize("k, reduced", [(1, False), (3, False), (2, True)])
def test_lift_of_many_paths_matches_each_alone(k, reduced, detour):
    """One lift of several paths gives each, bit for bit, the legs, the
    fiber values at its vertices and the route of lifting it alone: a path
    with a zero-length segment and one that passes z = 1 inside the
    clearance radius, a one-vertex path, and the same z-polyline from
    another sheet.  With detours the passing segment becomes several legs
    and the zero-length one none; without, every segment is one leg."""
    spec = cov.CoverSpec(k, reduced=reduced)
    o = cov.base_point(spec)
    bump = 0.5j * cov.clearance(spec)
    verts = (o.z, 1.3 + bump, 1.3 + bump, 0.7 + bump, 0.4 + 0.9j)
    paths = [cov.SurfacePath(verts, o.w), cov.SurfacePath((o.z,), o.w),
             cov.SurfacePath(verts, spec.fiber(o.z)[1]),
             cov.SurfacePath((0.4 + 0.9j, -0.5 + 0.4j, 1.5 - 0.3j), o.w)]
    together = cov.lift(spec, paths, detour)
    assert len(together) == len(paths)
    for path, lp in zip(paths, together):
        [alone] = cov.lift(spec, [path], detour)
        assert lp.path is path
        assert lifted_legs(lp) == lifted_legs(alone)
        assert np.array_equal(lp.w, alone.w)
        assert lp.w_vertices.tolist() == alone.w_vertices.tolist()
        assert lp.route.tolist() == alone.route.tolist()
        assert np.array_equal(lp.upto, alone.upto)
    first = together[0]
    assert first.route[0] == o.z and first.route[-1] == verts[-1]
    if detour:
        assert first.upto[1] == first.upto[2] and len(first.route) - 1 > 4
    else:
        assert list(first.upto) == [0, 1, 2, 3, 4]
        assert first.route.tolist() == list(verts)
    assert lifted_legs(together[1]) == []
    assert together[1].w_vertices.tolist() == [o.w]
    assert cov.lift(spec, []) == []


def test_lift_needs_a_fiber_value():
    """A path without a starting fiber value cannot be lifted, whatever the
    other paths of the call carry."""
    spec = cov.CoverSpec(1)
    o = cov.base_point(spec)
    paths = [cov.SurfacePath((o.z, 1.5 + 0.5j), o.w),
             cov.SurfacePath((o.z, 1.5 + 0.5j), None)]
    with pytest.raises(ValidationError, match="no fiber value"):
        cov.lift(spec, paths)


def _w_at_reference(lp, leg, s):
    """w at the leg parameters s, one point at a time: the fiber root
    nearest a dense walk from the leg's start to the point.  The fibers come
    from one array call, as in w_along, because numpy may round an array
    power differently from a scalar one in the last bit."""
    z0, z1, w0, _ = lifted_legs(lp)[leg]
    z = z0 + (z1 - z0) * s
    return [roots[int(np.argmin(np.abs(roots - walk_leg(lp.spec, z0, x, w0))))]
            for x, roots in zip(z.tolist(), lp.spec.fiber(z))]


def _w_at(lp, leg, s):
    """w_along on leg (one leg index or an array of them broadcasting
    against s) of a lifted path, from the leg's start value."""
    z0 = lp.route[leg]
    return cov.w_along(lp.spec, z0, lp.route[leg + 1] - z0, lp.w[leg], s)


@pytest.mark.parametrize("k, reduced", [(1, False), (2, True)])
def test_w_at_matches_pointwise_reference(k, reduced):
    """The array w_along picks, bit for bit, the root a point-by-point dense
    walk reaches, on every leg of a path that is detoured around z = 1 and
    then passes it just outside the clearance disc."""
    spec = cov.CoverSpec(k, reduced=reduced)
    o = cov.base_point(spec)
    bump = 0.5j * cov.clearance(spec)
    verts = (o.z, 1.3 + bump, 0.7 + bump, 0.7 + 3 * bump, 1.3 + 3 * bump)
    [lp] = cov.lift(spec, [cov.SurfacePath(verts, o.w)])
    assert len(lp.route) - 1 > 2
    s = np.concatenate([np.linspace(0.0, 1.0, 33), 0.5 + 0.5 * alg._X15])
    for leg in range(len(lp.route) - 1):
        assert np.array_equal(_w_at(lp, leg, s), _w_at_reference(lp, leg, s))
    # one call over every leg, a leg index per row
    legs = np.arange(len(lp.route) - 1)
    assert np.array_equal(_w_at(lp, legs[:, None], np.broadcast_to(s, (len(legs), len(s)))),
                          [_w_at(lp, leg, s) for leg in legs])


@pytest.mark.parametrize("which", ["rhs", "principal_root", "w_along"])
def test_arrays_do_not_depend_on_the_batch(which):
    """rhs, principal_root and w_along of 20,000 points equal, bit for bit,
    the same points taken 100 at a time.  numpy reuses a temporary of 256
    KiB or more (16,384 complex values) in place; as the right factor of a
    product it swaps the operands, and numpy's complex product (fused
    multiply-adds) is not bitwise commutative.  The cover has three sheets:
    the fourth roots of unity (1 exactly; i, -1 and -i to within 1e-16)
    would multiply w_along's roots alike in either order."""
    spec = cov.CoverSpec(2)
    rng = np.random.default_rng(7)
    n = 20000
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    if which == "w_along":
        wa = spec.fiber(z)[np.arange(n), rng.integers(0, spec.sheet_count, n)]
        args = (z, 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n)), wa,
                rng.uniform(size=n))

        def f(*a):
            return cov.w_along(spec, *a)
    else:
        args, f = (z,), getattr(spec, which)
    chunked = [f(*(a[i:i + 100] for a in args)) for i in range(0, n, 100)]
    assert np.array_equal(f(*args), np.concatenate(chunked))


def test_lift_past_a_reused_temporary_matches_each_alone():
    """Each of 51 paths of 400 legs on the genus k = 6 cover, lifted in one
    call of 20,400 legs (past numpy's 16,384-value temporary reuse, see
    test_arrays_do_not_depend_on_the_batch), gets the fiber values of
    lifting it alone, bit for bit."""
    spec = cov.CoverSpec(6)
    rng = np.random.default_rng(3)
    paths = []
    for j in range(51):
        z = (1.5 + j / 50) * np.exp(2j * np.pi * (np.arange(401) / 400 + rng.uniform()))
        paths.append(cov.SurfacePath(tuple(z.tolist()),
                                     spec.fiber(complex(z[0]))[j % spec.sheet_count]))
    together = cov.lift(spec, paths)
    assert sum(len(lp.route) - 1 for lp in together) == 20400
    for path, lp in zip(paths, together):
        [alone] = cov.lift(spec, [path])
        assert lp.w.tobytes() == alone.w.tobytes()


@pytest.mark.parametrize("k, reduced", [(1, False), (2, False), (3, False),
                                        (2, True), (4, True)])
def test_continue_legs_matches_sequential_walk(k, reduced):
    """On random routes that are not routed around the branch points, one
    of them a single vertex, the continuation of all routes in one call
    lands every leg on the root a dense nearest-root walk from the leg's
    start reaches, bit for bit, and gives each route what continuing it
    alone gives; no routes give no result.  Subdivision that accepts a step once its nearest root is
    twice as close as any other aliases on such legs: it puts 8 of these
    200 legs off-sheet for k = 2, and 10 for the reduced k = 2."""
    spec = cov.CoverSpec(k, reduced=reduced)
    rng = np.random.default_rng(k + 10 * reduced)
    routes, w0s = [], []
    for size in [4] * 25 + [0] + [4] * 25:
        z = rng.uniform(-2.0, 2.0, size + 1) + 1j * rng.uniform(-1.5, 1.5, size + 1)
        routes.append(z)
        w0s.append(spec.fiber(complex(z[0]))[int(rng.integers(spec.sheet_count))])
    together = cov.continue_legs(spec, routes, w0s)
    assert cov.continue_legs(spec, [], []) == []
    for z, w0, got in zip(routes, w0s, together):
        [alone] = cov.continue_legs(spec, [z], [w0])
        assert np.array_equal(got, alone)
        assert len(got) == len(z) and got[0] == w0
        z = z.tolist()
        for za, zb, wa, wb in zip(z, z[1:], got[:-1], got[1:]):
            assert wb == walk_leg(spec, za, zb, wa)


def test_continue_legs_does_not_alias_at_high_k():
    """On a leg of the k = 20 period loops, w turns by 0.83 of a root
    spacing over each quarter.  Subdivision that accepts a step once its
    nearest root is twice as close as any other accepts 4 steps and ends
    the leg 4 sheets off; the closed form ends it where the dense walk
    does."""
    spec = cov.CoverSpec(20)
    o = cov.base_point(spec)
    w0 = cov.lift(spec, [cov.SurfacePath((o.z, 1.4 + 1.1j), o.w)])[0].w_end
    [w] = cov.continue_legs(spec, [[1.4 + 1.1j, 0.6 + 1.5j]], [w0])
    assert w[1] == walk_leg(spec, 1.4 + 1.1j, 0.6 + 1.5j, w0)


def test_continuation_into_a_branch_point_stalls():
    """All fiber roots coincide over z = 1, and a leg that ends there,
    starts there or runs through it subtends no angle at it, so the sheet
    it reaches is not defined: the lift raises ContinuationError instead of
    stalling."""
    spec = cov.CoverSpec(2)
    o = cov.base_point(spec)
    for leg in [(o.z, 1.0 + 0j), (1.0 + 0j, 1.5 + 0.5j), (o.z, 0.5 + 0j)]:
        with pytest.raises(ContinuationError, match="meets a branch point"):
            cov.continue_legs(spec, [leg], [o.w])
    with pytest.raises(ContinuationError, match="meets a branch point"):
        cov.lift(spec, [cov.SurfacePath((o.z, 1.0 + 0j), o.w)])


def test_overflowing_rhs_raises_numerical_error():
    """At k = 400, rhs(10) = 10 * 99^400 overflows Python's complex power:
    the principal root there and a leg that ends there raise
    NumericalError naming the point, not a raw OverflowError; rhs(2)
    still fits."""
    spec = cov.CoverSpec(400)
    w0 = spec.principal_root(2 + 0j)
    assert math.isfinite(abs(w0))
    with pytest.raises(NumericalError, match=r"rhs overflows at z = \(10\+0j\)"):
        spec.principal_root(10 + 0j)
    with pytest.raises(NumericalError, match=r"rhs overflows at z = \(10\+0j\)"):
        cov.continue_legs(spec, [[2 + 0j, 10 + 0j]], [w0])


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
    assert _same_point(q, p, 1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reflections_preserve_curve(k):
    spec = cov.CoverSpec(k)
    p = cov.solve_fiber(spec, 0.6 + 0.45j)
    for j in (1, 2, 3):
        q = cov.reflection_apply(spec, j, p)
        assert on_cover(spec, q, 1e-8)


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
    assert _same_point(q, p, 1e-9)
    # ... and no earlier power is the identity
    q = p
    for _ in range(k):
        q = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, q))
    if k >= 1:
        assert abs(q.w - p.w) > 1e-3


def test_kappa_maps_are_reflection_compositions():
    """mu_2 mu_1 and mu_3 mu_1 equal the closed forms kappa_1 : (z, w) ->
    (z, e^(2k i lam) w) and kappa_2 : (z, w) -> (-z, e^(-i lam) w) bit for
    bit, signs of zero included, on random fiber points and on points of
    the real and imaginary axes."""
    rng = np.random.default_rng(5)
    for k in range(1, 30):
        spec = cov.CoverSpec(k)
        z = rng.uniform(-2.5, 2.5, 200) + 1j * rng.uniform(-2.5, 2.5, 200)
        z[:4] = [1.5, -0.5j, complex(0.5, -0.0), complex(-0.0, 0.7)]
        sheets = rng.integers(0, k + 1, 200)
        w = spec.fiber(z)[np.arange(200), sheets]
        w[:4] = [complex(0.7, -0.0), complex(-0.0, 0.3), -1.0, 0j]
        for p in map(cov.SurfacePoint, z.tolist(), w.tolist()):
            kappa1 = cov.SurfacePoint(
                p.z, cmath.exp(1j * (2 * spec.k * spec.lam)) * p.w)
            kappa2 = cov.SurfacePoint(-p.z, cmath.exp(-1j * spec.lam) * p.w)
            for j, ref in ((2, kappa1), (3, kappa2)):
                q = cov.reflection_apply(spec, j, cov.reflection_apply(spec, 1, p))
                assert (repr(q.z), repr(q.w)) == (repr(ref.z), repr(ref.w))


# ---------------------------------------------------------------------------
# deck words and canonical loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_end_words_are_identity_loops(k):
    spec = cov.CoverSpec(k)
    paths = [cov.deck_word_path(spec, word)
             for word in (cov.word_end_zero(k), cov.word_end_infinity(k),
                          cov.word_base_loop())]
    for lp in cov.lift(spec, paths):
        assert lp.is_closed(1e-9)


def test_deck_word_rejects_odd_word():
    with pytest.raises(ValidationError):
        cov.DeckWord((1, 2, 3))


@pytest.mark.parametrize("word", [(1, 2), (3, 2, 3, 2)])
def test_deck_word_path_rejects_a_non_identity_word(word):
    """At k = 1 both words fix z and multiply w by -1, so only the phase
    part of the identity rule rejects them."""
    with pytest.raises(ValidationError, match="not an identity deck word"):
        cov.deck_word_path(cov.CoverSpec(1), cov.DeckWord(word))


# the z-maps of mu_1..mu_3, one function per reflection
_Z_MAPS = {1: lambda z: z.conjugate(), 2: lambda z: z.conjugate(),
           3: lambda z: -z.conjugate()}


def _word_vertices_by_fold(word) -> list:
    """The reference realization of a word: every connector vertex is sent
    through the z-map of each earlier letter in turn, innermost first.  The
    connectors' z-vertices do not depend on k.  Returns the reprs."""
    conns = cov.base_connectors(cov.CoverSpec(1))
    verts, maps = [cov.BASE_Z], []
    for idx in word:
        img = []
        for z in conns[idx].z_vertices:
            for f in reversed(maps):
                z = f(z)
            img.append(z)
        verts.extend(img[1:])
        maps.append(_Z_MAPS[idx])
    return [repr(z) for z in verts]


def test_deck_word_path_matches_sequential_fold():
    """deck_word_path's vertices equal the reference fold's bit for bit,
    signs of zero included, for every word built at k = 1..40: both end
    words, the base loop and every generator word."""
    reference = {}
    for k in range(1, 41):
        spec = cov.CoverSpec(k)
        words = [cov.word_end_zero(k), cov.word_end_infinity(k),
                 cov.word_base_loop()] + [cov.word_generator(j, k2)
                                          for j in range(k + 1)
                                          for k2 in (False, True)]
        for word in words:
            if word.indices not in reference:
                reference[word.indices] = _word_vertices_by_fold(word.indices)
            got = cov.deck_word_path(spec, word).z_vertices
            assert [repr(z) for z in got] == reference[word.indices]


# three probe points in 1.5 < Re z < 2.5, 0.2 < Im z < 0.8, where no map
# z -> -z or z -> +-conj(z) has a fixed point
_IDENTITY_PROBES = ((2.125095466604667+0.7383282805817455j),
                    (2.2756856902451936+0.33512431399435516j),
                    (1.8001662849112254+0.7241320672377571j))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_word_identity_rule_matches_probe_test(k):
    """The integer identity rule agrees with the numeric test that applies
    the word's reflections to three fiber points, on every word of length
    2, 4 and 6."""
    spec = cov.CoverSpec(k)
    probes = [cov.solve_fiber(spec, z) for z in _IDENTITY_PROBES]
    identities = 0
    for length in (2, 4, 6):
        for indices in itertools.product((1, 2, 3), repeat=length):
            fixed = True
            for p in probes:
                q = p
                for i in reversed(indices):  # innermost map acts first
                    q = cov.reflection_apply(spec, i, q)
                fixed = fixed and _same_point(q, p, 1e-10)
            assert cov._word_is_identity(spec, cov.DeckWord(indices)) == fixed
            identities += fixed
    assert 0 < identities < 3 ** 2 + 3 ** 4 + 3 ** 6


@pytest.mark.parametrize("k", [1, 2])
def test_generator_loops_close(k):
    spec = cov.CoverSpec(k)
    loops = cov.generator_loops(spec)
    assert len(loops) == 2 * (k + 1)
    for lp in cov.lift(spec, loops):
        assert lp.is_closed(1e-9)


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
