"""A dense nearest-root walk: the reference the continuation tests compare
cover.continue_legs (and everything lifted through it) against.  It shares
nothing with the closed form but the fiber: it cuts a leg into many equal
steps and moves to the nearest root at each, with no separation check.
All roots over a point share their modulus, so a step lands on the right
root whenever it turns w by less than half the root spacing 2 pi / n.

fiber_residual and on_cover check that a point lies on the cover."""

import math

import numpy as np

from maxface import cover as cov

STEPS = 512


def dense_steps(spec, za, zb):
    """STEPS, or more where the leg passes close to a branch point: enough
    that no step turns w by a quarter of the root spacing.  A step of length
    h turns the factor (z - c)^e of w^n by at most e h / d, d the leg's
    distance from c, and e < n on both covers."""
    n = spec.sheet_count
    turn = abs(zb - za) * n * sum(1.0 / cov._seg_point_dist(za, zb, c)
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
    """Walk w along the polyline with every segment sanitized on its own:
    the legs (za, zb, w at za, w at zb) and w at every vertex."""
    legs, at_vertex = [], [w]
    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = cov.sanitize_path(spec, (complex(a), complex(b)))
        for za, zb in zip(seg[:-1], seg[1:]):
            wb = walk_leg(spec, za, zb, w)
            legs.append((za, zb, w, wb))
            w = wb
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
