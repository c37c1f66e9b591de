"""Singular-set tracing and pointwise classification.

A point of the immersion is singular iff |G| = 1.  Along the singular curve
the local diffeomorphism type is decided by two complex invariants

    alpha = G' / (G^2 eta_hat),        beta = G alpha' / G' ,

with the scale-aware threshold eps = 1e-7 (1 + |alpha| + |beta|):

    swallowtail         |Im alpha| < eps, |alpha| > eps, |Re beta| > eps
    cuspidal cross cap  |Re alpha| < eps, |alpha| > eps, |Im beta| > eps
    cuspidal edge       |Im alpha| > eps and |Re alpha| > eps
    degenerate          anything else pointwise

Curves are traced in a Moebius chart zhat (so components through z = infinity
become bounded) by predictor-corrector walks on phi = log|G|, one seed at a
time on Python scalars; the chart gradient of phi is conj(H') with
H' = (G'/G) dz/dzhat.  Components on a branched cover are lifted by analytic
continuation of w along one z-circuit; a circuit that permutes the sheets
closes only after several circuits, the first one rotated by the deck group
w -> zeta w, and singular points are counted on the full lifted traversal.

Cone-like components are recognized at component level (alpha real and
bounded away from zero along the whole curve, G winding +-1, eta_hat bounded
away from zero in chart values); fold candidates are the purely imaginary
analogue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cover as cov
from . import weierstrass as wst
from .errors import DegenerateError, NumericalError

_CLASS_EPS = 1e-7
_NAN = complex("nan")
_MAX_STEPS = 40000  # predictor-corrector steps per traced component
_NEWTON_ROUNDS = 16  # Newton rounds per refined crossing
_CHORD_HALVINGS = 30  # halvings of a Newton step that would leave its chord


# ---------------------------------------------------------------------------
# pointwise invariants
# ---------------------------------------------------------------------------

def _alpha_terms(data: wst.WeierstrassData, p: cov.SurfacePoint):
    """G, G', eta, alpha and alpha' = d alpha/dz at p (arrays), from one
    call each of G, G', G'', eta and eta'.  Raises DegenerateError if
    G^2 eta vanishes at any point."""
    g, dg, d2g, e, de = (np.asarray(f(p), dtype=complex)
                         for f in (data.G, data.dG, data.d2G, data.eta, data.deta))
    denom = g * g * e
    if np.any(denom == 0):
        raise DegenerateError("alpha undefined: G^2 eta vanishes")
    alpha = dg / denom
    # a named right factor (see CoverSpec.rhs)
    t = 2.0 * g * dg * e + g * g * de
    dalpha = (d2g - alpha * t) / denom
    return g, dg, e, alpha, dalpha


def _beta(g, dg, dalpha):
    """beta = G alpha' / G' from _alpha_terms' values, NaN where G' = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dg != 0, g * dalpha / dg, _NAN)


def _eps(alpha, beta):
    """The classification scale _CLASS_EPS (1 + |alpha| + |beta|), |beta|
    taken as 0 where beta is NaN; elementwise on arrays."""
    b = np.where(np.isnan(beta), 0.0, np.abs(beta))
    return _CLASS_EPS * (1.0 + np.abs(alpha) + b)


def _classify(alpha, beta) -> np.ndarray:
    """The kind of the singular point with invariants (alpha, beta), by the
    rule of the module docstring at eps = _eps(alpha, beta): an array of
    kind strings of the inputs' shape (0-d for scalars).  A NaN beta fails
    both beta conditions."""
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    eps = _eps(alpha, beta)
    im_a, re_a = np.abs(alpha.imag), np.abs(alpha.real)
    live = (np.abs(alpha) > eps) & ~np.isnan(beta)
    return np.select([(im_a < eps) & live & (np.abs(beta.real) > eps),
                      (re_a < eps) & live & (np.abs(beta.imag) > eps),
                      (im_a > eps) & (re_a > eps)],
                     ["swallowtail", "cuspidal_cross_cap", "cuspidal_edge"],
                     "degenerate")


@dataclass
class SingularComponent:
    """One traced singular curve as its whole lifted traversal: the chart
    circuit taken `circuits` times, zhat, z and w at every vertex.  A closed
    trace is a full circuit of the chart; an open one (its walk left the
    trace bound, stalled or ran out of steps) is partial."""
    label: str
    zhat_vertices: np.ndarray          # circuits x n, no repeated endpoint
    z_vertices: np.ndarray             # the same traversal in z
    w_vertices: np.ndarray | None      # fiber values along it, None on planar data
    circuits: int                      # z-circuits needed to close on the cover
    closed: bool
    chart_name: str = "identity"

    @property
    def partial(self) -> bool:
        return not self.closed

    @property
    def vertex_count(self) -> int:
        return len(self.zhat_vertices) // self.circuits


# ---------------------------------------------------------------------------
# the z-only trace profile: phi_hat = log|G| in the trace chart zhat.  |G|
# never depends on the fiber point (|w| is a function of z on every cover in
# use), so the principal root serves, and H' = G'/G is a w-free ratio: a
# singular curve can be traced entirely in the base coordinate.
# ---------------------------------------------------------------------------

def _phi_hat(data: wst.WeierstrassData, zh) -> np.ndarray:
    """log|G| at chart points zh, an array of zh's shape.  NaN where the
    chart or G is undefined (zh = 0 on an inverted chart, z = 0 on the
    cover) or |G| is infinite, -inf where G vanishes."""
    with np.errstate(all="ignore"):
        z = data.chart.to_z(np.asarray(zh, dtype=complex))
        w = None if data.cover is None else data.cover.principal_root(z)
        out = np.log(np.abs(data.G(cov.SurfacePoint(z, w))))
    return np.where(out == np.inf, np.nan, out)


def _phi_grad(data: wst.WeierstrassData, zh: complex) -> tuple[float, complex]:
    """phi_hat and its chart gradient conj(H' dz/dzhat) at one chart point,
    a Python complex, in Python arithmetic: one call each of the principal
    root rhs(z)^(1/n), G and G'.  Both are NaN where the chart or G is
    undefined (a division by zero, the log of |G| = 0) or |G| is
    infinite."""
    chart, spec = data.chart, data.cover
    try:
        z = chart.to_z(zh)
        w = None if spec is None else spec.rhs(z) ** (1.0 / spec.sheet_count)
        p = cov.SurfacePoint(z, w)
        g = data.G(p)
        phi = math.log(abs(g))
        grad = (data.dG(p) / g * chart.dz_dzhat(zh)).conjugate()
    except (ZeroDivisionError, ValueError, OverflowError):
        return math.nan, _NAN
    if phi == math.inf:
        return math.nan, _NAN
    return phi, grad


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _correct(data: wst.WeierstrassData, zh: complex,
             max_iter: int = 40) -> tuple[complex, complex, bool]:
    """Project the chart point zh onto {phi = 0} by Newton steps along the
    chart gradient, in Python arithmetic.  Stops once |phi_hat| < 1e-13, or
    fails: at an undefined phi_hat, a vanishing gradient or after max_iter
    steps.  Returns (point, gradient, ok), the gradient the one evaluated at
    the returned point (one phi_grad call per iterate), NaN on a failure."""
    for _ in range(max_iter):
        v, grad = _phi_grad(data, zh)
        av = abs(v)
        if av < 1e-13:
            return zh, grad, True
        g2 = abs(grad) ** 2
        if not (av >= 1e-13 and g2 >= 1e-24):    # NaN phi_hat or no gradient
            break
        zh = zh - v * grad / g2
    return zh, _NAN, False


def _walk(data: wst.WeierstrassData, seed: complex, step: float, bound: float):
    """March one level curve from its seed.

    The walk corrects its seed, then steps h along the unit tangent and
    corrects; a failed correction or a turn sharper than 0.45 rad halves h
    (14 halvings end the walk as partial) and an accepted step lets h relax
    back by 1.25.  It closes on returning within 0.9 h of its start after
    moving away, and ends as partial outside the bound or after _MAX_STEPS
    steps.  Returns (vertices, closed), vertices never repeating the first;
    None drops the walk: a seed that cannot be corrected, a vertex with a
    vanishing gradient or an end before 8 vertices."""
    cur, grad, ok = _correct(data, seed)
    a = abs(grad)
    if not (ok and a >= 1e-12):
        return None
    pts = [cur]
    h = step * (1.0 + abs(cur))
    t = 1j * grad / a                    # unit tangent at pts[-1], along the walk
    moved_away = closed = False
    tries = 0                            # halvings of the pending step
    while True:
        nxt, grad, ok = _correct(data, cur + h * t)
        if ok:
            a = abs(grad)
            if a < 1e-12:
                return None
            t_new = 1j * grad / a
            if (t_new.real * t.real + t_new.imag * t.imag) < 0:
                t_new = -t_new
            cosang = max(-1.0, min(1.0, t.real * t_new.real + t.imag * t_new.imag))
            ok = not (math.acos(cosang) > 0.45 and h > 1e-6 * (1 + abs(cur)))
        if not ok:
            h *= 0.5
            tries += 1
            if tries == 14:
                break
            continue
        tries = 0
        t = t_new
        n = len(pts) - 1                 # steps accepted before this one
        d0 = abs(nxt - pts[0])
        if moved_away and n >= 8 and d0 < 0.9 * h:
            closed = True
            break
        if d0 > 3.0 * h:
            moved_away = True
        pts.append(nxt)
        cur = nxt
        h = min(h * 1.25, step * (1.0 + abs(nxt)))
        if abs(nxt.real) > bound or abs(nxt.imag) > bound or n + 1 == _MAX_STEPS:
            break
    return (np.array(pts), closed) if len(pts) >= 8 else None


def _march(data: wst.WeierstrassData, seeds: list[complex], steps: tuple,
           bound: float) -> list[list[tuple]]:
    """Per step size, the kept (vertices, closed) in seed order.  The seeds
    are taken in _grid_seeds order: a seed within 2.5 step (1 + |seed|) of
    a component already kept is skipped, any other is walked to its end and
    kept unless the walk is dropped."""
    points = np.array(seeds, dtype=complex)
    out = []
    for step in steps:
        near = np.array([2.5 * step * (1.0 + abs(s)) for s in seeds])
        covered = np.zeros(len(seeds), dtype=bool)
        kept = []
        for i, seed in enumerate(seeds):
            if covered[i]:
                continue
            result = _walk(data, seed, step, bound)
            if result is None:
                continue
            kept.append(result)
            verts = result[0]
            for lo in range(i + 1, len(seeds), 64):
                dist = np.min(np.abs(verts[:, None] - points[None, lo:lo + 64]), axis=0)
                covered[lo:lo + 64] |= dist < near[lo:lo + 64]
        out.append(kept)
    return out


def _bisect_edges(data: wst.WeierstrassData, za: np.ndarray, zb: np.ndarray,
                  fa: np.ndarray) -> np.ndarray:
    """Bisect the sign change of phi_hat on every edge [za, zb] at once
    (fa = phi_hat(za)) by 50 halvings.  An edge is dropped when a midpoint
    is not finite and stops halving at an exact zero.  Returns the final
    midpoints of the kept edges, in edge order."""
    za, zb, fa = za.copy(), zb.copy(), fa.copy()
    kept = np.ones(len(za), dtype=bool)
    busy = kept.copy()
    for _ in range(50):
        idx = np.flatnonzero(busy)
        if len(idx) == 0:
            break
        zm = 0.5 * (za[idx] + zb[idx])
        fm = _phi_hat(data, zm)
        finite = np.isfinite(fm)
        kept[idx[~finite]] = False
        busy[idx[~finite | (fm == 0.0)]] = False
        move = finite & (fm != 0.0)
        to_b = move & ((fa[idx] < 0) != (fm < 0))
        to_a = move & ~to_b
        zb[idx[to_b]] = zm[to_b]
        za[idx[to_a]] = zm[to_a]
        fa[idx[to_a]] = fm[to_a]
    return 0.5 * (za[kept] + zb[kept])


def _grid_seeds(data: wst.WeierstrassData) -> list[complex]:
    """Sign changes of phi_hat on a grid_n x grid_n grid over the chart
    window, both read from data, plus a dense sweep of the real axis
    (components of conjugation-symmetric data always cross it).

    Marching-squares seeding: the grid and the sweep are evaluated in one
    call each, the sign-change edges are found by array masks and all of
    them are bisected together.  Seed order: horizontal edges row-major,
    vertical edges column-major, then the sweep; the tracer starts each
    component at its first seed, so the order fixes its start vertex and
    vertex count."""
    x0, x1, y0, y1 = data.window
    grid_n = data.grid_n
    grid = np.empty((grid_n, grid_n), dtype=complex)
    grid.real = np.linspace(x0, x1, grid_n)
    grid.imag = np.linspace(y0, y1, grid_n)[:, None]
    vals = _phi_hat(data, grid)
    line = np.linspace(x0, x1, 8 * grid_n).astype(complex)
    sweep = _phi_hat(data, line)

    def crossings(za, zb, fa, fb):
        m = np.isfinite(fa) & np.isfinite(fb) & ((fa < 0) != (fb < 0))
        return za[m], zb[m], fa[m]

    edges = (crossings(grid[:, :-1], grid[:, 1:], vals[:, :-1], vals[:, 1:]),
             crossings(grid[:-1].T, grid[1:].T, vals[:-1].T, vals[1:].T),
             crossings(line[:-1], line[1:], sweep[:-1], sweep[1:]))
    return _bisect_edges(data, *(np.concatenate(col) for col in zip(*edges))).tolist()


def _lift_traces(spec: cov.CoverSpec, traces) -> list[tuple[int, np.ndarray]]:
    """Lift every trace (z vertices, closed) from the principal root at its
    first vertex, all in one cov.lift call: per trace (circuits, w at every
    vertex of the traversal).  An open trace is one circuit.  A closed one
    is lifted once round: w -> zeta w, zeta an n-th root of unity, is a deck
    transformation of the cover, so if the circuit ends at zeta^s w0,
    circuit j is circuit 0 times zeta^(s j) and the lift closes after
    n / gcd(s, n) circuits."""
    n = spec.sheet_count
    units = cov._unit_roots(n)
    w0s = [spec.principal_root(complex(verts[0])) for verts, _ in traces]
    paths = [cov.SurfacePath(tuple(verts) + (verts[0],) if closed else verts, w0)
             for (verts, closed), w0 in zip(traces, w0s)]
    out = []
    for (_, closed), w0, lifted in zip(traces, w0s, cov.lift(spec, paths)):
        if not closed:
            out.append((1, lifted.w_vertices))
            continue
        ratio = lifted.w_end / w0
        s = int(np.argmin(np.abs(units - ratio)))
        if not abs(ratio - units[s]) < 1e-8:
            raise NumericalError("singular-curve lift failed to close on the cover")
        circuits = n // math.gcd(s, n)
        w = lifted.w_vertices[:-1]
        out.append((circuits, np.concatenate([w * units[(s * j) % n]
                                              for j in range(circuits)])))
    return out


def trace_singular_set(data: wst.WeierstrassData, *,
                       steps: tuple | None = None) -> list[list[SingularComponent]]:
    """All singular components of the catalog surface inside the chart
    window: one component list per step size of steps (default
    (data.trace_step,)), all traced from the same seeds."""
    bound = 1.6 * max(map(abs, data.window))
    marched = _march(data, _grid_seeds(data), steps or (data.trace_step,), bound)
    return [_components(data, traces) for traces in marched]


def _components(data: wst.WeierstrassData, traces: list[tuple]) -> list[SingularComponent]:
    """Components from traced (vertices, closed), each chart circuit mapped
    to z in one array call, all lifted to the cover together and repeated
    over their circuits; largest traversal first, an open trace partial."""
    zs = [(data.chart.to_z(verts), closed) for verts, closed in traces]
    lifts = ([(1, None)] * len(zs) if data.cover is None
             else _lift_traces(data.cover, zs))
    comps = [SingularComponent(
        label=f"component_{i}", zhat_vertices=np.tile(verts, circuits),
        z_vertices=np.tile(verts_z, circuits), w_vertices=w_all,
        circuits=circuits, closed=closed, chart_name=data.chart.name)
        for i, ((verts, closed), (verts_z, _), (circuits, w_all))
        in enumerate(zip(traces, zs, lifts))]
    comps.sort(key=lambda c: (-len(c.zhat_vertices), c.label))
    for i, c in enumerate(comps):
        c.label = f"component_{i}"
    return comps


# ---------------------------------------------------------------------------
# counting and component-level detection
# ---------------------------------------------------------------------------

def _refine_crossings(data: wst.WeierstrassData, za: np.ndarray, zb: np.ndarray,
                      wa: np.ndarray | None, imag: np.ndarray):
    """Locate the point of the singular curve where Im alpha = 0 (rows where
    imag, s = 1) or Re alpha = Im(i alpha) = 0 (the other rows, s = i) near
    the chord from za to zb (traversal vertices, chart coordinates), all
    rows at once, by Newton's method on F = (log|G|, Im(s alpha)) in zhat.

    Both are real parts of holomorphic functions up to sign, so the step d
    solves Re(h d) = -log|G| and Im(s alpha' dz/dzhat d) = -Im(s alpha),
    h = (G'/G) dz/dzhat: with beta = G alpha'/G', h d = -log|G| + i y and
    y Re(s beta) = log|G| Im(s beta) - Im(s alpha).  One evaluation of G,
    G', G'', eta and eta' per round serves both equations.  The Jacobian is
    singular exactly where Re(s beta) = 0, the beta condition of the point's
    class; near such a point Newton converges only linearly (on the cone at
    a = 3, where two swallowtails are born).

    Each row starts at its chord midpoint and takes the fiber root nearest
    its row's wa.  It stops, and yields its iterate, once its step is at
    most 1e-14 (1 + |zhat|); or at most 1e-10 (1 + |zhat|) and no less
    than half its previous step, the round-off floor where steps stop
    shrinking (rows at |zhat| ~ 10 on the cone near a = 2); or once
    |Re(s beta)| <= _eps(alpha, beta), where _classify calls the point
    degenerate.  A row's result does not depend on the rest of the
    batch.  Returns the refined points (z and w as
    arrays) and alpha and beta at them, from the round that stopped each
    row.  A step that would take a row farther than |zb - za| from its chord
    midpoint is halved until it does not (where swallowtails merge on the
    cone near a = 1.31, a full step overshoots the chord).  Raises
    NumericalError at a non-finite step (G' = 0 makes the Jacobian
    singular), when _CHORD_HALVINGS halvings leave a row off its chord, or
    when a row is still moving after _NEWTON_ROUNDS."""
    chart, spec = data.chart, data.cover
    mid = 0.5 * (za + zb)
    zh = mid.copy()
    z, alphas, betas = np.empty_like(zh), np.empty_like(zh), np.empty_like(zh)
    w = None if spec is None else np.empty_like(zh)
    busy = np.arange(len(zh))
    last = np.full(len(zh), np.inf)      # each row's previous step size
    for _ in range(_NEWTON_ROUNDS):
        with np.errstate(all="ignore"):
            zr = chart.to_z(zh[busy])
            wr = None
            if spec is not None:
                roots = spec.fiber(zr)
                pick = np.argmin(np.abs(roots - wa[busy, None]), axis=1)
                wr = roots[np.arange(len(busy)), pick]
            g, dg, _, alpha, dalpha = _alpha_terms(data, cov.SurfacePoint(zr, wr))
            beta = _beta(g, dg, dalpha)
            h = dg / g * chart.dz_dzhat(zh[busy])
            im = imag[busy]
            f0, f1 = np.log(np.abs(g)), np.where(im, alpha.imag, alpha.real)
            re_sb = np.where(im, beta.real, -beta.imag)
            im_sb = np.where(im, beta.imag, beta.real)
            step = (1j * ((f0 * im_sb - f1) / re_sb) - f0) / h
            degenerate = np.abs(re_sb) <= _eps(alpha, beta)
        size, scale = np.abs(step), 1 + np.abs(zh[busy])
        done = (degenerate | (size <= 1e-14 * scale)
                | ((size <= 1e-10 * scale) & (size >= 0.5 * last[busy])))
        if not np.all(np.isfinite(step[~done])):
            raise NumericalError("crossing refinement met a non-finite Newton step")
        stop = busy[done]
        z[stop], alphas[stop], betas[stop] = zr[done], alpha[done], beta[done]
        if spec is not None:
            w[stop] = wr[done]
        busy, step = busy[~done], step[~done]
        if len(busy) == 0:
            return cov.SurfacePoint(z, w), alphas, betas
        reach = np.abs(zb[busy] - za[busy])
        for _ in range(_CHORD_HALVINGS + 1):
            away = np.abs(zh[busy] + step - mid[busy]) > reach
            if not away.any():
                break
            step[away] *= 0.5
        else:
            raise NumericalError("crossing refinement left its chord")
        last[busy] = np.abs(step)
        zh[busy] += step
    raise NumericalError(f"crossing refinement did not converge in {_NEWTON_ROUNDS} rounds")


def _traversal_pass(data: wst.WeierstrassData, comp: SingularComponent):
    """One _alpha_terms call over the full lifted traversal of comp and all
    that is read from it: a dict of the component-level criteria and the
    kind of every traversal vertex ("vertex_kinds"), and the traversal
    edges across which Im alpha (imag True) or Re alpha changes sign
    (chart ends za, zb, w at za or None, imag).

    cone-like:      alpha real (to 1e-8 relative) and bounded away from 0
                    along the curve, the Gauss map winds once around the
                    unit circle, and eta_hat (chart values) is bounded away
                    from 0; on a closed component only.
    fold candidate: same with alpha purely imaginary."""
    zh = comp.zhat_vertices
    p = cov.SurfacePoint(comp.z_vertices, comp.w_vertices)
    g, dg, eta, alpha, dalpha = _alpha_terms(data, p)
    abs_alpha = np.abs(alpha)
    a_scale = float(np.max(abs_alpha))
    max_im = float(np.max(np.abs(alpha.imag)))
    max_re = float(np.max(np.abs(alpha.real)))
    i0 = np.arange(len(zh) if comp.closed else len(zh) - 1)
    i1 = (i0 + 1) % len(zh)
    edges, imag = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=bool)]
    for use_imag, vals, vmax in ((True, alpha.imag, max_im),
                                 (False, alpha.real, max_re)):
        # alpha-relative floor: a component with Im alpha (or Re alpha)
        # identically zero carries only rounding noise in vals
        if vmax <= 1e-10 * a_scale:
            continue
        floor = 1e-8 * vmax + 1e-11 * a_scale
        v0, v1 = vals[i0], vals[i1]
        hit = np.flatnonzero(((v0 < 0) != (v1 < 0))
                             & (np.maximum(np.abs(v0), np.abs(v1)) > floor))
        edges.append(hit)
        imag.append(np.full(len(hit), use_imag))
    e = np.concatenate(edges)
    wa = None if p.w is None else p.w[i0[e]]
    crossings = (zh[i0[e]], zh[i1[e]], wa, np.concatenate(imag))

    winding = None                     # the Gauss map's winding, if +-1
    if comp.closed:
        turns = float(np.sum(np.angle(np.roll(g, -1) / g)) / (2 * math.pi))
        if math.isfinite(turns) and abs(turns - round(turns)) < 1e-6 \
                and abs(round(turns)) == 1:
            winding = round(turns)
    eta_hat = np.abs(eta * data.chart.dz_dzhat(zh))
    eta_min = float(np.min(eta_hat))
    min_abs = float(np.min(abs_alpha))
    base = (winding is not None
            and min_abs > 1e-6 * (1.0 + a_scale)
            and eta_min > 1e-6 * float(np.max(eta_hat)))
    level = {
        "cone_like": bool(base and max_im <= 1e-8 * (1.0 + a_scale)),
        "fold_candidate": bool(base and max_re <= 1e-8 * (1.0 + a_scale)),
        "max_im_alpha": max_im,
        "min_abs_alpha": min_abs,
        "gauss_winding": winding,
        "eta_chart_min": eta_min,
        "vertex_kinds": _classify(alpha, _beta(g, dg, dalpha)),
    }
    return level, crossings


def _near(v: np.ndarray) -> np.ndarray:
    """near[i, j]: v[j] lies within 1e-6 (1 + |v[i]|) of v[i]."""
    return np.abs(v[:, None] - v) < 1e-6 * (1 + np.abs(v))[:, None]


def count_singularities(data: wst.WeierstrassData,
                        comps: list[SingularComponent]) -> list[dict]:
    """Classification of each component from one _traversal_pass: its
    singular points, located by sign changes of Im alpha (swallowtails)
    and Re alpha (cross caps) along its full lifted traversal, the
    crossings of all components refined in one _refine_crossings call and
    classified in one _classify call; a crossing whose class is not its
    target is degenerate_<target>.  One dict per component: the counts of
    its singular points and the points as arrays in crossing order, "kinds",
    "z" and "w" (None on planar data), plus _traversal_pass's
    component-level criteria and vertex kinds.  A noisy double crossing is
    dropped: a point within 1e-6 (1 + |z|) in z, and in w on a cover, of an
    earlier point of the same kind and component."""
    passes = [_traversal_pass(data, comp) for comp in comps]
    if not passes:
        return []
    za, zb, wa, imag = (None if col[0] is None else np.concatenate(col)
                        for col in zip(*(part for _, part in passes)))
    pts, alphas, betas = _refine_crossings(data, za, zb, wa, imag)
    target = np.where(imag, "swallowtail", "cuspidal_cross_cap")
    kinds = np.where(_classify(alphas, betas) == target, target,
                     np.where(imag, "degenerate_swallowtail",
                              "degenerate_cuspidal_cross_cap"))
    ends = np.cumsum([len(part[0]) for _, part in passes])
    out = []
    for (level, _), lo, hi in zip(passes, np.append(0, ends[:-1]), ends):
        kind, z = kinds[lo:hi], pts.z[lo:hi]
        w = None if pts.w is None else pts.w[lo:hi]
        keep = np.ones(hi - lo, dtype=bool)
        for name in set(kind.tolist()):
            idx = np.flatnonzero(kind == name)
            near = _near(z[idx]) if w is None else _near(z[idx]) & _near(w[idx])
            keep[idx] = ~np.tril(near, -1).any(axis=1)
        kind = kind[keep]
        sw = int(np.count_nonzero(kind == "swallowtail"))
        cc = int(np.count_nonzero(kind == "cuspidal_cross_cap"))
        out.append(dict(level, swallowtails=sw, cross_caps=cc,
                        degenerate=len(kind) - sw - cc, kinds=kind, z=z[keep],
                        w=None if w is None else w[keep]))
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def singular_report(data: wst.WeierstrassData,
                    comps: list[SingularComponent]) -> dict:
    """Per-component classification of the singular set.  comps are the
    components of one list of trace_singular_set(data)."""
    keys = ("swallowtails", "cross_caps", "degenerate", "cone_like",
            "fold_candidate", "gauss_winding")
    rows = [{"label": comp.label, "closed": comp.closed, "partial": comp.partial,
             "circuits": comp.circuits, "vertex_count": comp.vertex_count,
             **{key: cls[key] for key in keys}}
            for comp, cls in zip(comps, count_singularities(data, comps))]
    return {
        "surface": data.name,
        "params": dict(data.params),
        "chart": data.chart.name,
        "component_count": len(comps),
        "components": rows,
    }
