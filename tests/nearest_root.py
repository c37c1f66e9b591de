"""A dense nearest-root walk: the reference the continuation tests compare
cover.continue_legs (and everything lifted through it) against.  It shares
nothing with the closed form but the fiber: it cuts a leg into many equal
steps and moves to the nearest root at each, with no separation check.
All roots over a point share their modulus, so a step lands on the right
root whenever it turns w by less than half the root spacing 2 pi / n.

route_segment routes one segment as cover.lift does, from a scalar
clearance test; fiber_residual and on_cover check that a point lies on the
cover."""

import math

import numpy as np

from maxface import cover as cov

STEPS = 512


def seg_point_dist(a, b, p) -> float:
    """The distance from p to the segment a -> b (to a if it has no length)."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).conjugate() * ab).real / denom))
    return abs(a + t * ab - p)


def route_segment(spec, a, b):
    """The route vertices after a that lift gives the segment a -> b: none
    if it is no longer than 1e-14, else its detour about every branch point
    it passes, one scalar test per point: closer than the clearance radius,
    neither end within 1e-14 of the point."""
    if abs(b - a) <= 1e-14:
        return []
    clr = cov.clearance(spec)
    passed = [c for c in spec.finite_branch_points
              if seg_point_dist(a, b, c) < clr
              and abs(a - c) > 1e-14 and abs(b - c) > 1e-14]
    return cov._detour(spec, a, b, passed)


def dense_steps(spec, za, zb):
    """STEPS, or more where the leg passes close to a branch point: enough
    that no step turns w by a quarter of the root spacing.  A step of length
    h turns the factor (z - c)^e of w^n by at most e h / d, d the leg's
    distance from c, and e < n on both covers."""
    n = spec.sheet_count
    turn = abs(zb - za) * n * sum(1.0 / seg_point_dist(za, zb, c)
                                  for c in spec.finite_branch_points)
    return max(STEPS, math.ceil(turn / (0.5 * math.pi)))


def walk_leg(spec, za, zb, w):
    """Continue w from za to zb through dense_steps equal steps, each time
    to the nearest root of the fiber.  The fibers of the
    interior points come from one array call, the one at the leg end from a
    scalar call, as a path's fiber value at a vertex is rounded.  Returns w
    at zb.

    The roots over z are roots[z, 0] times the n-th roots of unity, so the
    root nearest roots[z', 0] units[J] is units[J] times the root nearest
    roots[z', 0]: each step's pick is taken against the previous principal
    root (against w itself at the first step), and the walk ends on the
    root whose index is the sum of the picks mod n."""
    steps = dense_steps(spec, za, zb)
    z = za + (zb - za) * (np.arange(1, steps + 1) / steps)
    roots = spec.fiber(z)
    roots[-1] = spec.fiber(complex(z[-1]))
    prev = np.concatenate([[w], roots[:-1, 0]])
    picks = np.argmin(np.abs(roots - prev[:, None]), axis=1)
    return complex(roots[-1, picks.sum() % spec.sheet_count])


def walk_segments(spec, vertices, w):
    """Walk w along the polyline with every segment routed on its own
    (route_segment) from the last vertex that stayed, as lift does: the
    legs (za, zb, w at za, w at zb) and w at every vertex."""
    legs, at_vertex = [], [w]
    a = za = complex(vertices[0])
    for b in vertices[1:]:
        seg = route_segment(spec, a, complex(b))
        for zb in seg:
            wb = walk_leg(spec, za, zb, w)
            legs.append((za, zb, w, wb))
            za, w = zb, wb
        if seg:
            a = complex(b)
        at_vertex.append(w)
    return legs, at_vertex


def lifted_legs(lp):
    """The legs (za, zb, w at za, w at zb) of a cover.LiftedPath, in the
    form walk_segments gives them."""
    z, w = lp.route.tolist(), lp.w.tolist()
    return list(zip(z, z[1:], w, w[1:]))


def fiber_residual(spec, p) -> float:
    """|w^n - rhs(z)| at the surface point p."""
    return abs(p.w ** spec.sheet_count - spec.rhs(p.z))


def on_cover(spec, p, tol: float = 1e-8) -> bool:
    """Whether p lies on the cover: a fiber residual within tol (1 + |z|)^3."""
    return fiber_residual(spec, p) <= tol * (1.0 + abs(p.z)) ** 3
