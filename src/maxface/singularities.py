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
become bounded) by a predictor-corrector walk on phi = log|G|, whose chart
gradient is conj(H') with H' = (G'/G) dz/dzhat.  Components on a branched
cover are lifted by analytic continuation of w along one z-circuit; a circuit
that permutes the sheets closes only after several circuits, the first one
rotated by the deck group w -> zeta w, and singular points are counted on the
full lifted traversal.

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
_MAX_STEPS = 40000  # predictor-corrector steps per traced component


# ---------------------------------------------------------------------------
# pointwise invariants
# ---------------------------------------------------------------------------

def alpha_beta(data: wst.WeierstrassData, p: cov.SurfacePoint):
    """The classification pair (alpha, beta) at a surface point.  p.z (and
    p.w on a cover) may be arrays: then alpha and beta are arrays of their
    shape, evaluated in one call of each Weierstrass function; a scalar
    point gives complex scalars.  Raises DegenerateError if G^2 eta vanishes
    at any point; beta is NaN where G' vanishes."""
    g, dg, d2g, e, de = (np.asarray(f(p), dtype=complex)
                         for f in (data.G, data.dG, data.d2G, data.eta, data.deta))
    denom = g * g * e
    if np.any(denom == 0):
        raise DegenerateError("alpha undefined: G^2 eta vanishes")
    alpha = dg / denom
    dalpha = (d2g - alpha * (2.0 * g * dg * e + g * g * de)) / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(dg != 0, g * dalpha / dg, complex("nan"))
    if alpha.ndim == 0:
        return complex(alpha), complex(beta)
    return alpha, beta


def _classify(alpha: complex, beta: complex, eps_scale: float) -> dict:
    b_ok = not (math.isnan(beta.real) or math.isnan(beta.imag))
    eps = eps_scale * (1.0 + abs(alpha) + (abs(beta) if b_ok else 0.0))
    if abs(alpha.imag) < eps and abs(alpha) > eps and b_ok and abs(beta.real) > eps:
        kind = "swallowtail"
    elif abs(alpha.real) < eps and abs(alpha) > eps and b_ok and abs(beta.imag) > eps:
        kind = "cuspidal_cross_cap"
    elif abs(alpha.imag) > eps and abs(alpha.real) > eps:
        kind = "cuspidal_edge"
    else:
        kind = "degenerate"
    return {"kind": kind, "alpha": alpha, "beta": beta, "eps": eps}


def classify_point(data: wst.WeierstrassData, p: cov.SurfacePoint,
                   eps_scale: float = _CLASS_EPS) -> dict:
    """Classify one singular point; caller is responsible for |G| = 1."""
    return _classify(*alpha_beta(data, p), eps_scale)


@dataclass(frozen=True)
class SingularPointRecord:
    kind: str
    zhat: complex
    z: complex
    w: complex | None
    alpha: complex
    beta: complex


@dataclass
class SingularComponent:
    label: str
    zhat_vertices: np.ndarray          # one chart circuit, no repeated endpoint
    z_vertices: np.ndarray             # same circuit in the z coordinate
    w_vertices: np.ndarray | None      # full lifted traversal (circuits x n)
    circuits: int                      # z-circuits needed to close on the cover
    closed: bool
    partial: bool
    chart_name: str = "identity"

    @property
    def vertex_count(self) -> int:
        return len(self.zhat_vertices)

    def traversal(self):
        """(zhat, z, w) over the full lifted closed traversal."""
        n = self.vertex_count
        for c in range(self.circuits):
            for i in range(n):
                w = self.w_vertices[c * n + i] if self.w_vertices is not None else None
                yield self.zhat_vertices[i], self.z_vertices[i], w


# ---------------------------------------------------------------------------
# the z-only trace profile
# ---------------------------------------------------------------------------

class _Profile:
    """phi_hat = log|G| in the trace chart zhat and H' = G'/G in z.

    |G| never depends on the fiber point (|w| is a function of z on every
    cover in use), so the principal root serves, and G'/G is a w-free
    ratio: a singular curve can be traced entirely in the base coordinate."""

    def __init__(self, data: wst.WeierstrassData):
        self.data = data
        self.spec = data.cover
        self.chart = data.chart

    def _pt(self, z) -> cov.SurfacePoint:
        if self.spec is None:
            return cov.SurfacePoint(z, None)
        return cov.SurfacePoint(z, self.spec.fiber(z)[..., 0])

    def phi_hat(self, zh):
        """log|G| at chart points zh: a float for a scalar, else an array of
        zh's shape.  NaN where the chart or G is undefined (zh = 0 on an
        inverted chart, z = 0 on the cover) or |G| is infinite, -inf where G
        vanishes."""
        with np.errstate(all="ignore"):
            z = self.chart.to_z(np.asarray(zh, dtype=complex))
            out = np.log(np.abs(self.data.G(self._pt(z))))
        out = np.where(out == np.inf, np.nan, out)
        return float(out) if out.ndim == 0 else out

    def phi_grad(self, zh: np.ndarray):
        """phi_hat and its chart gradient conj(H' dz/dzhat) at a 1-d array
        of chart points, from one call each of fiber, G and G'."""
        chart = self.chart
        with np.errstate(all="ignore"):
            p = self._pt(chart.to_z(zh))
            g = self.data.G(p)
            phi = np.log(np.abs(g))
            grad = (self.data.dG(p) / g * chart.dz_dzhat(zh)).conjugate()
        return np.where(phi == np.inf, np.nan, phi), grad


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _project(prof: _Profile, zh, tol: float = 1e-13, max_iter: int = 40):
    """Project chart points onto {phi = 0} by Newton steps along the chart
    gradient.  zh is a scalar or a 1-d array; each row steps on its own and
    leaves the batch once |phi_hat| < tol.  Returns (points, gradients) of
    zh's form, each gradient the one evaluated at its returned point (one
    phi_grad call per iterate).  Raises if any row meets an undefined
    phi_hat, a vanishing gradient or its step budget."""
    out = np.array(zh, dtype=complex, ndmin=1)
    grads = np.empty_like(out)
    rows = np.arange(len(out))
    cur = out
    for _ in range(max_iter):
        v, grad = prof.phi_grad(cur)
        if not np.isfinite(v).all():
            raise NumericalError(f"phi undefined near zhat={cur[~np.isfinite(v)][0]}")
        busy = np.abs(v) >= tol
        if not busy.all():
            grads[rows[~busy]] = grad[~busy]
            rows, cur, v, grad = rows[busy], cur[busy], v[busy], grad[busy]
        if len(rows) == 0:
            return (out, grads) if np.ndim(zh) else (complex(out[0]), complex(grads[0]))
        g2 = np.abs(grad) ** 2
        if (g2 < 1e-24).any():
            raise DegenerateError(f"vanishing gradient of log|G| at zhat={cur[g2 < 1e-24][0]}")
        cur = cur - v * grad / g2
        out[rows] = cur
    raise NumericalError(f"corrector stalled at zhat={cur[0]}, "
                         f"residual {np.max(np.abs(v)):.2e}")


def _tangent(zh: complex, grad: complex) -> complex:
    """Unit tangent of the level curve at zh from the chart gradient there."""
    a = abs(grad)
    if a < 1e-12:
        raise DegenerateError(f"vanishing gradient at zhat={zh}")
    return 1j * grad / a


def _trace_component(prof: _Profile, seed: complex, step: float,
                     bound: float) -> tuple[np.ndarray, bool, bool]:
    """March the level curve from a corrected seed.  Returns (vertices, closed,
    partial); vertices never repeat the start point."""
    z0, grad0 = _project(prof, seed)
    pts = [z0]
    h = step * (1.0 + abs(z0))
    direction = _tangent(z0, grad0)
    moved_away = False
    for n in range(_MAX_STEPS):
        cur = pts[-1]
        t = direction  # the unit tangent at cur, oriented along the walk
        # adaptive turn control: halve on sharp turns, let the step relax back
        for _ in range(14):
            try:
                nxt, grad = _project(prof, cur + h * t)
            except (NumericalError, DegenerateError):
                h *= 0.5
                continue
            t_new = _tangent(nxt, grad)
            if (t_new.real * t.real + t_new.imag * t.imag) < 0:
                t_new = -t_new
            cosang = max(-1.0, min(1.0, t.real * t_new.real + t.imag * t_new.imag))
            if math.acos(cosang) > 0.45 and h > 1e-6 * (1 + abs(cur)):
                h *= 0.5
                continue
            break
        else:
            return np.array(pts), False, True
        direction = t_new
        d0 = abs(nxt - z0)
        if moved_away and n >= 8 and d0 < 0.9 * h:
            return np.array(pts), True, False
        if d0 > 3.0 * h:
            moved_away = True
        pts.append(nxt)
        h = min(h * 1.25, step * (1.0 + abs(nxt)))
        if abs(nxt.real) > bound or abs(nxt.imag) > bound:
            return np.array(pts), False, True
    return np.array(pts), False, True


def _bisect_edges(prof: _Profile, za: np.ndarray, zb: np.ndarray,
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
        fm = prof.phi_hat(zm)
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


def _grid_seeds(prof: _Profile, window: tuple, grid_n: int) -> list[complex]:
    """Sign changes of phi_hat on a chart grid, plus a dense sweep of the real
    axis (components of conjugation-symmetric data always cross it).

    Marching-squares seeding: the grid and the sweep are evaluated in one
    call each, the sign-change edges are found by array masks and all of
    them are bisected together.  Seed order: horizontal edges row-major,
    vertical edges column-major, then the sweep; the tracer starts each
    component at its first seed, so the order fixes its start vertex and
    vertex count."""
    x0, x1, y0, y1 = window
    grid = np.empty((grid_n, grid_n), dtype=complex)
    grid.real = np.linspace(x0, x1, grid_n)
    grid.imag = np.linspace(y0, y1, grid_n)[:, None]
    vals = prof.phi_hat(grid)
    line = np.linspace(x0, x1, 8 * grid_n).astype(complex)
    sweep = prof.phi_hat(line)

    def crossings(za, zb, fa, fb):
        m = np.isfinite(fa) & np.isfinite(fb) & ((fa < 0) != (fb < 0))
        return za[m], zb[m], fa[m]

    edges = [crossings(grid[:, :-1], grid[:, 1:], vals[:, :-1], vals[:, 1:]),
             crossings(grid[:-1].T, grid[1:].T, vals[:-1].T, vals[1:].T),
             crossings(line[:-1], line[1:], sweep[:-1], sweep[1:])]
    za, zb, fa = (np.concatenate(part) for part in zip(*edges))
    return [complex(z) for z in _bisect_edges(prof, za, zb, fa)]


def _lift_component(spec: cov.CoverSpec, verts_z: np.ndarray) -> tuple[int, np.ndarray]:
    """Lift the closed z-circuit once.  w -> zeta w, zeta an n-th root of
    unity, is a deck transformation of the cover, so if the circuit ends at
    zeta^s w0, circuit j is circuit 0 times zeta^(s j) and the lift closes
    after n / gcd(s, n) circuits.  Returns (circuits, w at every vertex of
    the full traversal)."""
    loop = tuple(verts_z) + (verts_z[0],)
    n = spec.sheet_count
    units = cov._unit_roots(n)
    w0 = spec.fiber(complex(loop[0]))[0]
    lifted = cov.LiftedPath(spec, cov.SurfacePath(loop, w0))
    ratio = lifted.w_end / w0
    s = int(np.argmin(np.abs(units - ratio)))
    if not abs(ratio - units[s]) < 1e-8:
        raise NumericalError("singular-curve lift failed to close on the cover")
    circuits = n // math.gcd(s, n)
    w = np.array(lifted.w_vertices[:-1])
    return circuits, np.concatenate([w * units[(s * j) % n] for j in range(circuits)])


def _lift_open(spec: cov.CoverSpec, verts_z: np.ndarray) -> np.ndarray:
    w = spec.fiber(complex(verts_z[0]))[0]
    return np.array(cov.LiftedPath(spec, cov.SurfacePath(verts_z, w)).w_vertices)


def trace_singular_set(data: wst.WeierstrassData, *,
                       step: float | None = None) -> list[SingularComponent]:
    """All singular components of the catalog surface inside the chart window."""
    prof = _Profile(data)
    chart = data.chart
    step = step if step is not None else data.trace_step
    win = data.window
    bound = 1.6 * max(abs(win[0]), abs(win[1]), abs(win[2]), abs(win[3]))
    seeds = _grid_seeds(prof, win, data.grid_n)
    comps: list[SingularComponent] = []
    for seed in seeds:
        tol_near = 2.5 * step * (1.0 + abs(seed))
        if any(np.min(np.abs(c.zhat_vertices - seed)) < tol_near for c in comps):
            continue
        try:
            verts, closed, partial = _trace_component(prof, seed, step, bound)
        except (NumericalError, DegenerateError):
            continue
        if len(verts) < 8:
            continue
        verts_z = np.array([chart.to_z(zh) for zh in verts])
        circuits, w_all = 1, None
        if data.cover is not None:
            if closed:
                circuits, w_all = _lift_component(data.cover, verts_z)
            else:
                w_all = _lift_open(data.cover, verts_z)
        comps.append(SingularComponent(
            label=f"component_{len(comps)}", zhat_vertices=verts,
            z_vertices=verts_z, w_vertices=w_all, circuits=circuits,
            closed=closed, partial=partial, chart_name=chart.name))
    comps.sort(key=lambda c: (-c.vertex_count * c.circuits, c.label))
    for i, c in enumerate(comps):
        c.label = f"component_{i}"
    return comps


# ---------------------------------------------------------------------------
# counting and component-level detection
# ---------------------------------------------------------------------------

def _alpha_along(data: wst.WeierstrassData, comp: SingularComponent):
    """Chart points, surface points and alpha over the full lifted
    traversal, each an array, alpha from one call of alpha_beta."""
    zh = np.tile(comp.zhat_vertices, comp.circuits)
    p = cov.SurfacePoint(np.tile(comp.z_vertices, comp.circuits), comp.w_vertices)
    return zh, p, alpha_beta(data, p)[0]


def _refine_crossings(data: wst.WeierstrassData, prof: _Profile, za: np.ndarray,
                      zb: np.ndarray, wa: np.ndarray | None,
                      imag: np.ndarray) -> cov.SurfacePoint:
    """Bisect Im alpha = 0 (rows where imag) or Re alpha = 0 (the other
    rows) between traversal vertices za and zb (chart coordinates), all rows
    at once.  Every midpoint is projected onto the curve and takes the fiber
    root nearest its row's wa.  A row stops at an exact zero, once
    |zb - za| < 1e-14 (1 + |zm|), or after 60 halvings, and yields its last
    midpoint; a row whose ends carry the same sign yields the end nearer to
    zero.  Returns the refined points, z and w as arrays."""
    chart, spec = data.chart, data.cover

    def point(rows, zh) -> cov.SurfacePoint:
        z = chart.to_z(zh)
        if spec is None:
            return cov.SurfacePoint(z, None)
        roots = spec.fiber(z)
        pick = np.argmin(np.abs(roots - wa[rows, None]), axis=1)
        return cov.SurfacePoint(z, roots[np.arange(len(rows)), pick])

    def value(rows, zh):
        zh, _ = _project(prof, zh)
        alpha, _ = alpha_beta(data, point(rows, zh))
        return zh, np.where(imag[rows], alpha.imag, alpha.real)

    rows = np.arange(len(za))
    za, zb = za.copy(), zb.copy()
    best, fa = value(rows, za)
    zb_on, fb = value(rows, zb)
    busy = (fa < 0) != (fb < 0)
    take_b = ~busy & ~(np.abs(fa) < np.abs(fb))
    best[take_b] = zb_on[take_b]
    for _ in range(60):
        idx = np.flatnonzero(busy)
        if len(idx) == 0:
            break
        zm = 0.5 * (za[idx] + zb[idx])
        best[idx], fm = value(idx, zm)
        stop = (fm == 0.0) | (np.abs(zb[idx] - za[idx]) < 1e-14 * (1 + np.abs(zm)))
        busy[idx[stop]] = False
        to_b = ~stop & ((fa[idx] < 0) != (fm < 0))
        to_a = ~stop & ~to_b
        zb[idx[to_b]] = zm[to_b]
        za[idx[to_a]] = zm[to_a]
        fa[idx[to_a]] = fm[to_a]
    return point(rows, best)


def count_singularities(data: wst.WeierstrassData, comp: SingularComponent,
                        eps_scale: float = _CLASS_EPS) -> dict:
    """Classified singular points of one component, located by sign changes
    of Im alpha (swallowtails) and Re alpha (cross caps) along the full
    lifted traversal and refined together by on-curve bisection."""
    zh, p, alpha = _alpha_along(data, comp)
    i0 = np.arange(len(zh) if comp.closed else len(zh) - 1)
    i1 = (i0 + 1) % len(zh)
    a_scale = float(np.max(np.abs(alpha)))
    edges, imag = [], []
    for use_imag in (True, False):
        vals = alpha.imag if use_imag else alpha.real
        vmax = float(np.max(np.abs(vals)))
        # alpha-relative floor: a component with Im alpha (or Re alpha)
        # identically zero carries only rounding noise in vals
        floor = 1e-8 * vmax + 1e-11 * a_scale
        if vmax <= 1e-10 * a_scale:
            continue
        v0, v1 = vals[i0], vals[i1]
        hit = np.flatnonzero(((v0 < 0) != (v1 < 0))
                             & (np.maximum(np.abs(v0), np.abs(v1)) > floor))
        edges.append(hit)
        imag.append(np.full(len(hit), use_imag))
    records: list[SingularPointRecord] = []
    if edges:
        e = np.concatenate(edges)
        imag = np.concatenate(imag)
        wa = p.w[i0[e]] if p.w is not None else None
        pts = _refine_crossings(data, _Profile(data), zh[i0[e]], zh[i1[e]], wa, imag)
        alphas, betas = alpha_beta(data, pts)
        for j, use_imag in enumerate(imag):
            cls = _classify(complex(alphas[j]), complex(betas[j]), eps_scale)
            target = "swallowtail" if use_imag else "cuspidal_cross_cap"
            z = complex(pts.z[j])
            records.append(SingularPointRecord(
                kind=cls["kind"] if cls["kind"] == target else f"degenerate_{target}",
                zhat=complex(data.chart.from_z(z)), z=z,
                w=complex(pts.w[j]) if pts.w is not None else None,
                alpha=cls["alpha"], beta=cls["beta"]))
    # merge duplicates from noisy double crossings
    unique: list[SingularPointRecord] = []
    for r in records:
        dup = any(
            abs(r.z - u.z) < 1e-6 * (1 + abs(r.z))
            and (r.w is None or abs(r.w - u.w) < 1e-6 * (1 + abs(r.w)))
            and r.kind == u.kind
            for u in unique)
        if not dup:
            unique.append(r)
    return {
        "swallowtails": sum(1 for r in unique if r.kind == "swallowtail"),
        "cross_caps": sum(1 for r in unique if r.kind == "cuspidal_cross_cap"),
        "degenerate": sum(1 for r in unique if r.kind.startswith("degenerate")),
        "records": unique,
    }


def detect_cone_like(data: wst.WeierstrassData, comp: SingularComponent,
                     tol: float = 1e-8) -> dict:
    """Component-level criteria.

    cone-like:      alpha real and bounded away from 0 along the curve, the
                    Gauss map winds once around the unit circle, and eta_hat
                    (chart values) is bounded away from 0.
    fold candidate: same with alpha purely imaginary."""
    zh, p, alphas = _alpha_along(data, comp)
    a_scale = float(np.max(np.abs(alphas)))
    max_im = float(np.max(np.abs(alphas.imag)))
    max_re = float(np.max(np.abs(alphas.real)))
    min_abs = float(np.min(np.abs(alphas)))
    # winding of G and chart-eta floor over the traversal
    g_vals = np.asarray(data.G(p), dtype=complex)
    eta_vals = np.abs(data.eta(p) * data.chart.dz_dzhat(zh))
    if comp.closed:
        rolled = np.roll(g_vals, -1)
        winding = float(np.sum(np.angle(rolled / g_vals)) / (2 * math.pi))
    else:
        winding = math.nan
    eta_min, eta_max = float(np.min(eta_vals)), float(np.max(eta_vals))
    w_int = int(round(winding)) if math.isfinite(winding) else 0
    winding_ok = math.isfinite(winding) and abs(winding - w_int) < 1e-6 and abs(w_int) == 1
    base = (comp.closed and not comp.partial
            and min_abs > 1e-6 * (1.0 + a_scale)
            and winding_ok
            and eta_min > 1e-6 * eta_max)
    return {
        "cone_like": bool(base and max_im <= tol * (1.0 + a_scale)),
        "fold_candidate": bool(base and max_re <= tol * (1.0 + a_scale)),
        "max_im_alpha": max_im,
        "max_re_alpha": max_re,
        "min_abs_alpha": min_abs,
        "gauss_winding": w_int if winding_ok else None,
        "eta_chart_min": eta_min,
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def singular_report(data: wst.WeierstrassData,
                    comps: list[SingularComponent], *,
                    eps_scale: float = _CLASS_EPS) -> dict:
    """Per-component classification of the singular set.  comps are the
    components of trace_singular_set(data)."""
    rows = []
    for comp in comps:
        counts = count_singularities(data, comp, eps_scale)
        cone = detect_cone_like(data, comp)
        rows.append({
            "label": comp.label,
            "closed": comp.closed,
            "partial": comp.partial,
            "circuits": comp.circuits,
            "vertex_count": comp.vertex_count,
            "swallowtails": counts["swallowtails"],
            "cross_caps": counts["cross_caps"],
            "degenerate": counts["degenerate"],
            "cone_like": cone["cone_like"],
            "fold_candidate": cone["fold_candidate"],
            "gauss_winding": cone["gauss_winding"],
        })
    return {
        "surface": data.name,
        "params": dict(data.params),
        "chart": data.chart.name,
        "component_count": len(comps),
        "components": rows,
    }
