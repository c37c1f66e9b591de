"""A sequential nearest-root walk: the reference the continuation tests
compare cover.continue_legs (and everything lifted through it) against."""

import numpy as np

from maxface import cover as cov
from maxface.errors import ContinuationError


def walk_leg(spec, za, zb, w):
    """Continue w from za to zb one checkpoint at a time, each time to the
    nearest root of the fiber, doubling the subdivision from 4 until every
    chosen root is more than twice as close as any other.  The fibers of
    the interior checkpoints come from one array call, the one at the leg
    end from a scalar call, as continue_legs rounds them.  Returns
    (s_nodes, w_nodes), w_nodes[0] = w."""
    n = 4
    while n <= 1 << 16:
        s = np.arange(1, n + 1) / n
        z = za + (zb - za) * s
        roots = spec.fiber(z)
        roots[-1] = spec.fiber(complex(z[-1]))
        ws = [w]
        for r in roots:
            d = np.abs(r - ws[-1])
            first, second = np.argsort(d)[:2]
            if not d[second] > 2.0 * d[first]:
                break
            ws.append(r[first])
        else:
            return np.concatenate([[0.0], s]), np.array(ws)
        n *= 2
    raise ContinuationError(f"reference walk stalled on {za} -> {zb}")


def walk_segments(spec, vertices, w):
    """Walk w along the polyline with every segment sanitized on its own:
    the legs (za, zb, s_nodes, w_nodes) and w at every vertex."""
    legs, at_vertex = [], [w]
    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = cov.sanitize_path(spec, (complex(a), complex(b)))
        for za, zb in zip(seg[:-1], seg[1:]):
            s, ws = walk_leg(spec, za, zb, w)
            legs.append((za, zb, s, ws))
            w = ws[-1]
        at_vertex.append(w)
    return legs, at_vertex
