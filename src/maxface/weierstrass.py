"""Weierstrass data for maximal surfaces and the conformal immersion.

A datum is a pair (G, eta) of a meromorphic function and a holomorphic form on
a punctured surface; the immersion into Minkowski 3-space R^{2,1} is

    f(p) = Re Int_o^p ( -2 G, 1 + G^2, i (1 - G^2) ) eta,

with induced metric (1-|G|^2)^2 |eta|^2 (singular exactly on |G| = 1), the
spacelike lift metric (1+|G|^2)^2 |eta|^2, and Hopf differential Q = eta dG.
The catalog collects the planar classics (catenoid, helicoid, associated
family, two trinoids, a cone-vertex example) and the genus-k family on the
branched cover w^(k+1) = z(z^2-1)^k with G = c w/z, eta = dz/w, where c is
the period-closing constant c_k unless one is given.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cover as cov
from . import periods as per
from .algebra import gk_batched
from .errors import ValidationError

INF = complex(float("inf"), 0.0)


# ---------------------------------------------------------------------------
# rational functions with overflow-safe evaluation
# ---------------------------------------------------------------------------

class RationalFunction:
    """num/den with numpy coefficient arrays (highest power first).

    One Horner recurrence, started from the leading coefficient, evaluates
    num and den on each side of |z| = 1: at z when |z| <= 1, and at x = 1/z
    on the reversed coefficients, times x**(deg den - deg num), when
    |z| > 1, so values stay accurate out to z = infinity (useful for
    Moebius-chart tracing through the point at infinity).  An array is split
    once by |z| <= 1 and each side runs the recurrence in numpy arithmetic,
    which gives np.polyval's values bit for bit at finite points unless num
    and den are both constant (their quotient is then one Python division).
    A Python number runs the same recurrence in Python complex arithmetic,
    which rounds a product differently from numpy's vectorized one, so a
    scalar value agrees with np.polyval to rounding only; a scalar at a pole
    gives INF.
    """

    def __init__(self, num, den=(1.0,)):
        self.num = np.atleast_1d(np.asarray(num, dtype=complex))
        self.den = np.atleast_1d(np.asarray(den, dtype=complex))
        if not np.any(self.den != 0):
            raise ValidationError("zero denominator polynomial")
        self._near = ([complex(c) for c in self.num], [complex(c) for c in self.den])
        self._far = (self._near[0][::-1], self._near[1][::-1])
        self._shift = len(self.den) - len(self.num)

    @staticmethod
    def _horner(coef, x):
        y = coef[0]
        for c in coef[1:]:
            y = y * x + c
        return y

    def _value(self, z, near: bool):
        if near:
            num, den = self._near
            return self._horner(num, z) / self._horner(den, z)
        num, den = self._far
        x = 1.0 / z
        return self._horner(num, x) / self._horner(den, x) * x ** self._shift

    def __call__(self, z):
        if isinstance(z, (complex, float, int)):
            z = complex(z)
            try:
                return self._value(z, abs(z) <= 1.0)
            except (ZeroDivisionError, OverflowError):
                return INF
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        near = np.abs(z) <= 1.0
        out[near] = self._value(z[near], True)
        out[~near] = self._value(z[~near], False)
        return complex(out) if z.ndim == 0 else out

    def deriv(self) -> "RationalFunction":
        n, d = self.num, self.den
        dn = np.polyder(n) if len(n) > 1 else np.zeros(1)
        dd = np.polyder(d) if len(d) > 1 else np.zeros(1)
        num = np.polysub(np.polymul(dn, d), np.polymul(n, dd))
        return RationalFunction(num, np.polymul(d, d))


# ---------------------------------------------------------------------------
# data container
# ---------------------------------------------------------------------------

@dataclass
class TraceChart:
    """Moebius chart zhat -> z used by the singular tracer; identity default."""

    to_z: Callable = None
    dz_dzhat: Callable = None
    name: str = "identity"

    def __post_init__(self):
        if self.to_z is None:
            self.to_z = lambda zh: zh
            self.dz_dzhat = lambda zh: 1.0 + 0j


@dataclass
class WeierstrassData:
    name: str
    params: dict
    G: Callable          # SurfacePoint -> complex
    dG: Callable
    d2G: Callable
    eta: Callable        # coefficient of dz (the local coordinate)
    deta: Callable
    cover: cov.CoverSpec | None
    base: cov.SurfacePoint
    constraints: str = ""
    anchor: str = ""     # serialized under the 'paper_anchor' report key
    chart: TraceChart = field(default_factory=TraceChart)
    trace_step: float = 0.02
    default_mesh: dict = field(default_factory=dict)

    def phi(self, p: cov.SurfacePoint) -> np.ndarray:
        g = self.G(p)
        e = self.eta(p)
        return np.array([-2.0 * g * e, (1.0 + g * g) * e, 1j * (1.0 - g * g) * e])

    def metric_factor(self, p: cov.SurfacePoint) -> float:
        g = abs(self.G(p))
        return (1.0 - g * g) ** 2 * abs(self.eta(p)) ** 2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _planar(name, params, G_rat, eta_rat, base_z, constraints, anchor,
            chart=None, trace_step=0.02, default_mesh=None):
    dG_rat = G_rat.deriv()
    d2G_rat = dG_rat.deriv()
    deta_rat = eta_rat.deriv()
    return WeierstrassData(
        name=name, params=params,
        G=lambda p: G_rat(p.z), dG=lambda p: dG_rat(p.z), d2G=lambda p: d2G_rat(p.z),
        eta=lambda p: eta_rat(p.z), deta=lambda p: deta_rat(p.z),
        cover=None,
        base=cov.SurfacePoint(complex(base_z), None),
        constraints=constraints, anchor=anchor,
        chart=chart or TraceChart(), trace_step=trace_step,
        default_mesh=default_mesh or {"r0": 0.3, "r1": 3.0, "nr": 24, "nth": 96},
    )


def _genus_family(k: int, c: float | None, reduced: bool) -> WeierstrassData:
    """The genus-k datum on the full or the reduced cover; c None is the
    closing constant c_k."""
    if c is None:
        c = per.compute_ck(k).c_k
    spec = cov.CoverSpec(k, reduced=reduced)
    L, dL = spec.log_derivative, spec.dlog_derivative
    eta_scale = 0.5 if reduced else 1.0

    def G(p):
        return c * p.w / p.z

    def dG(p):
        return G(p) * (L(p.z) - 1.0 / p.z)

    def d2G(p):
        lz = L(p.z) - 1.0 / p.z
        return G(p) * (lz * lz + dL(p.z) + 1.0 / p.z ** 2)

    def eta(p):
        return eta_scale / p.w

    def deta(p):
        return -eta_scale * L(p.z) / p.w

    name = "genus_k_reduced" if reduced else "genus_k"
    kind = "reduced quotient curve W^(2m+1)=Z^(m+1)(Z-1)^(2m)" if reduced else \
        "full curve w^(k+1)=z(z^2-1)^k"
    return WeierstrassData(
        name=name, params={"k": k, "c": c},
        G=G, dG=dG, d2G=d2G, eta=eta, deta=deta,
        cover=spec,
        base=cov.base_point(spec),
        constraints="k >= 1 integer; c > 0" + ("; k even" if reduced else ""),
        anchor=(f"G = c W/Z, eta = dZ/(2W) on {kind}" if reduced else
                f"G = c w/z, eta = dz/w on {kind}"),
        default_mesh={"r0": 0.35, "r1": 2.6, "nr": 20, "nth": 48},
    )


def _catenoid():
    return _planar(
        "catenoid", {}, RationalFunction([1, 0]), RationalFunction([1], [1, 0, 0]),
        1.0, "none",
        "G = z, eta = dz/z^2 on C \\ {0}; cone-point figure of revolution",
    )


def _helicoid():
    return _planar(
        "helicoid", {}, RationalFunction([1, 0]), RationalFunction([1j], [1, 0, 0]),
        1.0, "none",
        "G = z, eta = i dz/z^2 on C \\ {0}; conjugate of the catenoid, fold singularity",
    )


def _associated(phase):
    return _planar(
        "associated", {"phase": phase},
        RationalFunction([1, 0]),
        RationalFunction([cmath.exp(1j * phase)], [1, 0, 0]),
        1.0, "phase in (0, pi/2) strictly between the conjugate pair",
        "G = z, eta = e^{i phase} dz/z^2; associated family of the catenoid",
    )


def _trinoid1(a):
    b = -a * a + a * math.sqrt(4 * a * a - 1.0)
    return _planar(
        "trinoid1", {"a": a, "b": b},
        RationalFunction([-1, 0, b], [1, 0]),
        RationalFunction([1, 0, 0], np.polymul([1, 0, -a * a], [1, 0, -a * a])),
        0.6j,
        "a > 1/2; b = -a^2 + a sqrt(4a^2-1)",
        "G = (b - z^2)/z, eta = z^2 dz/(z^2-a^2)^2; three ends at +-a, inf",
        default_mesh={"r0": 0.25, "r1": 0.86 * a, "nr": 22, "nth": 80},
    )


def _trinoid2(c):
    return _planar(
        "trinoid2", {"c": c},
        RationalFunction([c, 0, 3 * c], [1, 0, -1]),
        RationalFunction([1.0 / c]),
        0j,
        "c > 0, c != 1",
        "G = c(z^2+3)/(z^2-1), eta = dz/c; three ends at +-1, inf",
        default_mesh={"r0": 0.05, "r1": 0.8, "nr": 18, "nth": 64},
    )


def _cone(a):
    num_g = np.polymul([1, -1], [1, a, 1])
    den_g = np.polymul([1, 1], [1, -a, 1])
    num_e = np.polymul([1, -a, 1], [1, -a, 1])
    den_e = np.polymul(np.polymul([1, -1], [1, -1]),
                       np.polymul(np.polymul([1, -1], [1, -1]), [1, 2, 1]))
    chart = TraceChart(
        to_z=lambda zh: 1.0 + 1.0 / zh,
        dz_dzhat=lambda zh: -1.0 / (zh * zh),
        name="inverted_about_one",
    )
    return _planar(
        "cone", {"a": a},
        RationalFunction(num_g, den_g),
        RationalFunction(num_e, den_e),
        0.4j,
        _CONE_RANGE,
        "G = (z-1)(z^2+az+1)/((z+1)(z^2-az+1)), "
        "eta = (z^2-az+1)^2 dz/((z-1)^4 (z+1)^2); cone-like axis through infinity",
        chart=chart, trace_step=0.008,
        default_mesh={"r0": 0.06, "r1": 0.8, "nr": 18, "nth": 64},
    )


# Inside (1.8, 2.2) a sweep in steps of 0.01 traces the cone's three
# components except at 1.98 <= a <= 2.02 (refinement fails, or only the axis
# is left at a = 2), and at a = 2.04 its small oval is miscounted; no second
# count checks the tracer there, so the catalog admits a only outside it.
_CONE_RANGE = "1 < a < 4, a outside (1.8, 2.2)"

# name -> (defaults, constraint, its message, builder).  Every parameter has
# a default, and an int default marks an integer parameter.  The genus
# entries' c defaults to None, the closing constant c_k.
_CATALOG = {
    "catenoid": ({}, lambda: True, "", _catenoid),
    "helicoid": ({}, lambda: True, "", _helicoid),
    "associated": ({"phase": math.pi / 4},
                   lambda phase: 0.0 < phase < math.pi / 2,
                   "associated needs 0 < phase < pi/2", _associated),
    "trinoid1": ({"a": 3.67}, lambda a: a > 0.5, "trinoid1 needs a > 1/2",
                 _trinoid1),
    "trinoid2": ({"c": 0.1}, lambda c: c > 0 and c != 1.0,
                 "trinoid2 needs c > 0, c != 1", _trinoid2),
    "cone": ({"a": 2.5}, lambda a: 1.0 < a <= 1.8 or 2.2 <= a < 4.0,
             f"cone needs {_CONE_RANGE}", _cone),
    "genus_k": ({"k": 1, "c": None},
                lambda k, c: k >= 1 and (c is None or c > 0),
                "genus_k needs integer k >= 1 and c > 0",
                lambda k, c: _genus_family(k, c, reduced=False)),
    "genus_k_reduced": ({"k": 2, "c": None},
                        lambda k, c: k >= 2 and k % 2 == 0 and (c is None or c > 0),
                        "genus_k_reduced needs even k >= 2 and c > 0",
                        lambda k, c: _genus_family(k, c, reduced=True)),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog_get(name: str, **params) -> WeierstrassData:
    """Instantiate a catalog datum.  Unknown parameters and fractional
    integers are refused first, then the entry's constraint is checked on
    the values with their defaults filled in."""
    if name not in _CATALOG:
        raise ValidationError(f"unknown catalog surface {name!r}")
    defaults, constraint, message, build = _CATALOG[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValidationError(f"unknown parameters {unknown}")
    values = {}
    for key, default in defaults.items():
        val = params.get(key, default)
        if val is not None:
            try:
                num = float(val)
            except (TypeError, ValueError):
                num = math.nan
            if isinstance(default, int):
                if not num.is_integer():
                    raise ValidationError(f"{key} must be an integer, got {val!r}")
                num = int(num)
            val = num
        values[key] = val
    if not constraint(**values):
        raise ValidationError(message)
    return build(**values)


def catalog_list() -> list[dict]:
    """JSON-ready catalog listing, each surface at its defaults."""
    return [{"name": d.name, "params": d.params, "constraints": d.constraints,
             "paper_anchor": d.anchor} for d in map(catalog_get, CATALOG_NAMES)]


# ---------------------------------------------------------------------------
# immersion integration
# ---------------------------------------------------------------------------

def integrate_form(spec: cov.CoverSpec | None, paths, form,
                   tol: float = 1e-10) -> list[np.ndarray]:
    """Integrals of form(p) dz from the start of each path to each of its
    vertices: per path an array of shape (len(vertices),) + form shape,
    entry 0 zero.  On a cover the paths are LiftedPaths, integrated along
    their routes; on planar data (spec None) SurfacePaths, integrated along
    their own vertices.  Every leg of every path is integrated by
    Gauss-Kronrod panels in one gk_batched call, and each path's legs are
    summed in order.  form takes a SurfacePoint whose z and w have shape
    (panels, 15) and returns its values with those two axes last."""
    if not paths:
        return []
    if spec is None:
        routes = [np.array(path.z_vertices, dtype=complex) for path in paths]
        uptos = [np.arange(len(route)) for route in routes]
    else:
        routes, uptos = [lp.route for lp in paths], [lp.upto for lp in paths]
    sizes = [len(route) - 1 for route in routes]
    za = np.concatenate([route[:-1] for route in routes])
    dz = np.concatenate([route[1:] - route[:-1] for route in routes])
    wa = None if spec is None else np.concatenate([lp.w[:-1] for lp in paths])

    def f(leg, s):
        z0, delta = za[leg, None], dz[leg, None]
        w = None if wa is None else cov.w_along(spec, z0, delta, wa[leg, None], s)
        return form(cov.SurfacePoint(z0 + delta * s, w)) * delta

    legs = gk_batched(f, len(za), tol)
    start = np.zeros((1,) + legs.shape[1:], dtype=complex)
    first = np.cumsum([0] + sizes)[:-1]
    return [np.cumsum(np.concatenate([start, legs[leg:leg + size]]), axis=0)[upto]
            for leg, size, upto in zip(first, sizes, uptos)]


# ---------------------------------------------------------------------------
# mesh sampling
# ---------------------------------------------------------------------------

@dataclass
class MeshSample:
    vertices: np.ndarray      # (N, 3) immersion values (x0, x1, x2)
    metric: np.ndarray        # (N,)
    faces: np.ndarray         # (M, 4) quad indices
    zs: np.ndarray            # (N,) parameter-plane samples
    rows: int = 0
    cols: int = 0


def _grid_faces(rows: int, cols: int) -> np.ndarray:
    """The quads of a rows x cols vertex grid stored row by row."""
    a = (np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)).reshape(-1)
    return np.stack([a, a + 1, a + cols + 1, a + cols], axis=1)


def mesh_columns(mesh: MeshSample, cols: int) -> MeshSample:
    """The mesh of the first cols columns of mesh's grid."""
    def first(values):
        grid = values.reshape((mesh.rows, mesh.cols) + values.shape[1:])
        return grid[:, :cols].reshape((-1,) + values.shape[1:])

    return MeshSample(first(mesh.vertices), first(mesh.metric),
                      _grid_faces(mesh.rows, cols), first(mesh.zs),
                      rows=mesh.rows, cols=cols)


def mesh_sample(data: WeierstrassData, nr: int | None = None,
                nth: int | None = None) -> MeshSample:
    """Sample the immersion on the log-polar grid of data.default_mesh about
    z = 0: nr radii from r0 to r1, nth + 1 angles from 0 to 2 pi, over all
    sheet_count sheets (0 to 2 pi sheet_count) on a cover.

    The spine (base point, then the first column) is lifted and integrated as
    one path, and each row as one path from its spine vertex, so the result
    is deterministic and watertight in the parameter grid; the rows are
    lifted together, in one cov.lift call, and the spine and the rows
    integrated in one integrate_form call."""
    g = data.default_mesh
    nr = nr if nr is not None else g["nr"]
    nth = nth if nth is not None else g["nth"]
    spec = data.cover
    th1 = 2.0 * math.pi * (spec.sheet_count if spec is not None else 1)
    radii = np.exp(np.linspace(math.log(g["r0"]), math.log(g["r1"]), nr))
    zs = radii[:, None] * np.exp(1j * np.linspace(0.0, th1, nth + 1))

    spine = cov.SurfacePath((data.base.z, *zs[:, 0]), data.base.w)
    if spec is None:
        rows = [cov.SurfacePath(z, None) for z in zs]
    else:
        [spine] = cov.lift(spec, [spine])
        rows = cov.lift(spec, [cov.SurfacePath(z, w0)
                               for z, w0 in zip(zs, spine.w_vertices[1:])])
    x_col, *x_rows = integrate_form(spec, [spine, *rows], data.phi, 1e-9)
    xs = x_col[1:, None].real + np.array(x_rows).real
    ws = None if spec is None else np.array([row.w_vertices for row in rows])
    mets = data.metric_factor(cov.SurfacePoint(zs, ws))
    return MeshSample(xs.reshape(-1, 3), mets.reshape(-1), _grid_faces(nr, nth + 1),
                      zs.reshape(-1), rows=nr, cols=nth + 1)


# ---------------------------------------------------------------------------
# ends: order bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class OrderTable:
    rows: dict
    max_residual: float


# the order-table label of a chart about a finite branch point
_POINT_LABELS = {0j: "zero", 1 + 0j: "one", -1 + 0j: "minus_one"}


def order_table(data: WeierstrassData) -> OrderTable:
    """Vanishing orders of G, eta, G eta, G^2 eta, Q in the distinguished local
    coordinates of the genus-k cover, by log-log slope fitting over the local
    radii 1e-2, 5e-3, 2.5e-3 and 1.25e-3 (cover family only).

    Points: every finite branch point (the puncture z = 0 among them), the
    puncture at infinity, and the regular zero of Q = eta dG/dz (dz)^2 in
    the closed upper half-plane (its conjugate is one too): a root of
    L - 1/z, i.e. of sum_c e_c z prod_{c' != c} (z - c') - n prod_c (z - c),
    away from the branch points; i on the full cover and -1 on the reduced
    one.  The chart is z = z0 + zeta^p, p = n = sheet_count about a branch
    point z0, z0 = 0 and p = -n at infinity, p = 1 at the regular zero;
    z - z0 is zeta^p exactly, and log|w|
    and L = w'/w are summed one branch factor (z - c)^e at a time, so
    neither loses zeta^p to rounding nor overflows for large n.  The
    constants c and the eta scale shift a log by a constant, no slope, and
    are left out.  At the punctures the orders also decide the ends: an
    end is complete when min(order eta, order G^2 eta) <= -1 and
    nonsingular when G has a zero or a pole there."""
    if data.cover is None:
        raise ValidationError("order_table applies to the cover family")
    spec = data.cover
    n = spec.sheet_count
    branch = list(zip(spec.finite_branch_points, spec.branch_exponents))
    charts = {_POINT_LABELS[c]: (c, n) for c, _ in branch}
    charts["infinity"] = (0j, -n)
    pts = list(spec.finite_branch_points)
    q_poly = -n * np.poly(pts)
    for c, e in branch:
        q_poly = np.polyadd(q_poly, e * np.poly([0j] + [b for b in pts if b != c]))
    for z0 in np.roots(q_poly):
        if z0.imag > -1e-9 and min(abs(z0 - b) for b in pts) > 1e-6:
            charts["q_zero"] = (complex(z0), 1)
    radii = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    logr = np.log(radii)

    rows = {}
    max_res = 0.0
    for label, (z0, p) in charts.items():
        samples = []
        for r, lr in zip(radii, logr):
            h = (r * cmath.exp(0.37j)) ** p
            z = z0 + h
            diffs = [h if c == z0 else z - c for c, _ in branch]
            lw = sum(e * math.log(abs(d)) for (_, e), d in zip(branch, diffs)) / n
            L = sum(e / d for (_, e), d in zip(branch, diffs)) / n
            labs_dz = math.log(abs(p)) + (p - 1) * lr
            # G = c w/z, eta = dz/w up to constants; in zeta, eta_zeta =
            # eta_z dz/dzeta and Q_zeta = eta_z dG/dz (dz/dzeta)^2 with
            # dG/dz = G (L - 1/z)
            lG = lw - math.log(abs(z))
            lEta = labs_dz - lw
            lQ = lEta + lG + math.log(abs(L - 1.0 / z)) + labs_dz
            samples.append([lG, lEta, lG + lEta, 2 * lG + lEta, lQ])
        samples = np.array(samples)
        row = {}
        for qi, qname in enumerate(("G", "eta", "G*eta", "G^2*eta", "Q")):
            s = float(np.polyfit(logr, samples[:, qi], 1)[0])
            order = int(round(s))
            res = abs(s - order)
            max_res = max(max_res, res)
            row[qname] = {"slope": s, "order": order, "residual": res}
        rows[label] = row
    return OrderTable(rows=rows, max_residual=max_res)


def expected_orders(spec: cov.CoverSpec) -> dict:
    """Reference vanishing orders for the cover family order table."""
    k = spec.k
    if spec.reduced:
        m = spec.m
        return {
            "zero": {"G": -m, "eta": m - 1, "G*eta": -1, "G^2*eta": -(m + 1), "Q": -2},
            "infinity": {"G": -m, "eta": m - 1, "G*eta": -1, "G^2*eta": -(m + 1), "Q": -2},
            "one": {"G": 2 * m, "eta": 0, "G*eta": 2 * m, "G^2*eta": 4 * m, "Q": 2 * m - 1},
            "q_zero": {"G": 0, "eta": 0, "G*eta": 0, "G^2*eta": 0, "Q": 1},
        }
    return {
        "zero": {"G": -k, "eta": k - 1, "G*eta": -1, "G^2*eta": -(k + 1), "Q": -2},
        "infinity": {"G": -k, "eta": k - 1, "G*eta": -1, "G^2*eta": -(k + 1), "Q": -2},
        "one": {"G": k, "eta": 0, "G*eta": k, "G^2*eta": 2 * k, "Q": k - 1},
        "minus_one": {"G": k, "eta": 0, "G*eta": k, "G^2*eta": 2 * k, "Q": k - 1},
        "q_zero": {"G": 0, "eta": 0, "G*eta": 0, "G^2*eta": 0, "Q": 1},
    }


# ---------------------------------------------------------------------------
# degree of the Gauss map and the Osserman-type count
# ---------------------------------------------------------------------------

def gauss_degree(data: WeierstrassData) -> dict:
    """Number of preimages of the generic value v = 0.37 + 0.21i under G
    (continuation-free root count of the preimage polynomial).  On
    w^n = z^e0 prod_{c != 0} (z - c)^e_c, G = c w/z = v exactly where
    (v/c)^n z^(n - e0) = prod_{c != 0} (z - c)^e_c."""
    if data.cover is None:
        raise ValidationError("gauss_degree applies to the cover family")
    spec = data.cover
    v = 0.37 + 0.21j
    n = spec.sheet_count
    exps = dict(zip(spec.finite_branch_points, spec.branch_exponents))
    lead = (v / data.params["c"]) ** n * np.poly(np.zeros(n - exps.pop(0j)))
    poly = np.polysub(lead, np.poly(np.repeat(list(exps), list(exps.values()))))
    roots = np.roots(poly)
    return {"surface": data.name, "probe": v, "degree": int(len(roots)),
            "roots": roots}


def osserman_check(data: WeierstrassData) -> dict:
    """2 deg G >= -chi(M) + #ends, with equality detection, on a surface of
    the cover family (two ends; deg G from gauss_degree, which refuses
    planar data)."""
    deg = gauss_degree(data)["degree"]
    genus = data.cover.genus()
    ends = 2
    chi = 2 - 2 * genus - ends
    lhs = 2 * deg
    rhs = -chi + ends
    return {"surface": data.name, "deg_G": deg, "genus": genus, "ends": ends,
            "chi": chi, "lhs_2deg": lhs, "rhs": rhs,
            "ok": bool(lhs >= rhs), "equality": bool(lhs == rhs)}
