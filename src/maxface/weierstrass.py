"""Weierstrass data for maximal surfaces and the conformal immersion.

A datum is a pair (G, eta) of a meromorphic function and a holomorphic form on
a punctured surface; the immersion into Minkowski 3-space R^{2,1} is

    f(p) = Re Int_o^p ( -2 G, 1 + G^2, i (1 - G^2) ) eta,

with induced metric (1-|G|^2)^2 |eta|^2 (singular exactly on |G| = 1), the
spacelike lift metric (1+|G|^2)^2 |eta|^2, and Hopf differential Q = eta dG.
The catalog collects the planar classics (catenoid, helicoid, associated
family, two trinoids, a cone-vertex example) and the genus-k family on the
branched cover w^(k+1) = z(z^2-1)^k with G = c w/z, eta = dz/w.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cover as cov
from .algebra import gk_adaptive
from .errors import ValidationError

INF = complex(float("inf"), 0.0)


# ---------------------------------------------------------------------------
# rational functions with overflow-safe evaluation
# ---------------------------------------------------------------------------

class RationalFunction:
    """num/den with numpy coefficient arrays (highest power first).

    Evaluation switches to the reversed polynomials in 1/z for |z| > 1, so
    values stay accurate out to z = infinity (useful for Moebius-chart
    tracing through the point at infinity).
    """

    def __init__(self, num, den=(1.0,)):
        self.num = np.atleast_1d(np.asarray(num, dtype=complex))
        self.den = np.atleast_1d(np.asarray(den, dtype=complex))
        if not np.any(self.den != 0):
            raise ValidationError("zero denominator polynomial")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        near = np.abs(z) <= 1.0
        if near.any():
            zz = z[near]
            out[near] = np.polyval(self.num, zz) / np.polyval(self.den, zz)
        far = ~near
        if far.any():
            u = 1.0 / z[far]
            n, d = len(self.num) - 1, len(self.den) - 1
            pn = np.polyval(self.num[::-1], u)
            pd = np.polyval(self.den[::-1], u)
            out[far] = pn / pd * u ** (d - n)
        return complex(out[0]) if scalar else out

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
    from_z: Callable = None
    dz_dzhat: Callable = None
    name: str = "identity"

    def __post_init__(self):
        if self.to_z is None:
            self.to_z = lambda zh: zh
            self.from_z = lambda z: z
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
    punctures: tuple     # z-values; INF marks the point at infinity
    base: cov.SurfacePoint
    constraints: str = ""
    anchor: str = ""     # serialized under the 'paper_anchor' report key
    chart: TraceChart = field(default_factory=TraceChart)
    window: tuple = (-1.8, 1.8, -1.8, 1.8)
    grid_n: int = 91
    trace_step: float = 0.02
    default_mesh: dict = field(default_factory=dict)

    def point(self, z: complex, near_w: complex | None = None) -> cov.SurfacePoint:
        if self.cover is None:
            return cov.SurfacePoint(complex(z), None)
        return cov.solve_fiber(self.cover, complex(z), near=near_w)

    def phi(self, p: cov.SurfacePoint) -> np.ndarray:
        g = self.G(p)
        e = self.eta(p)
        return np.array([-2.0 * g * e, (1.0 + g * g) * e, 1j * (1.0 - g * g) * e])

    def metric_factor(self, p: cov.SurfacePoint) -> float:
        g = abs(self.G(p))
        return (1.0 - g * g) ** 2 * abs(self.eta(p)) ** 2


def phi_null_residual(data: WeierstrassData, p: cov.SurfacePoint) -> float:
    """|<Phi,Phi>_L| / |Phi|^2 with <,> the Lorentz form -x0^2+x1^2+x2^2:
    identically zero for Weierstrass data (relative tolerance check)."""
    v = data.phi(p)
    lorentz = -v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    scale = np.sum(np.abs(v) ** 2)
    return float(abs(lorentz) / scale) if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _planar(name, params, G_rat, eta_rat, punctures, base_z, constraints, anchor,
            chart=None, window=(-1.8, 1.8, -1.8, 1.8), grid_n=91, trace_step=0.02,
            default_mesh=None):
    dG_rat = G_rat.deriv()
    d2G_rat = dG_rat.deriv()
    deta_rat = eta_rat.deriv()
    return WeierstrassData(
        name=name, params=params,
        G=lambda p: G_rat(p.z), dG=lambda p: dG_rat(p.z), d2G=lambda p: d2G_rat(p.z),
        eta=lambda p: eta_rat(p.z), deta=lambda p: deta_rat(p.z),
        cover=None, punctures=tuple(punctures),
        base=cov.SurfacePoint(complex(base_z), None),
        constraints=constraints, anchor=anchor,
        chart=chart or TraceChart(), window=window, grid_n=grid_n,
        trace_step=trace_step,
        default_mesh=default_mesh or {"r0": 0.3, "r1": 3.0, "nr": 24, "nth": 96},
    )


def _genus_family(k: int, c: float, reduced: bool) -> WeierstrassData:
    spec = cov.CoverSpec(k, reduced=reduced)
    L = spec.log_derivative
    if reduced:
        m = spec.m

        def dL(z):
            return (-(m + 1) / z ** 2 - (2 * m) / (z - 1) ** 2) / (2 * m + 1)

        eta_scale = 0.5
    else:
        def dL(z):
            p = (2 * k + 1) * z * z - 1
            q = (k + 1) * (z ** 3 - z)
            dp = 2 * (2 * k + 1) * z
            dq = (k + 1) * (3 * z * z - 1)
            return (dp * q - p * dq) / (q * q)

        eta_scale = 1.0

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
    window = (-2.8, 2.8, -2.8, 2.8) if reduced else (-1.9, 1.9, -1.9, 1.9)
    return WeierstrassData(
        name=name, params={"k": k, "c": c},
        G=G, dG=dG, d2G=d2G, eta=eta, deta=deta,
        cover=spec, punctures=(0j, INF),
        base=cov.base_point(spec),
        constraints="k >= 1 integer; c > 0" + ("; k even" if reduced else ""),
        anchor=(f"G = c W/Z, eta = dZ/(2W) on {kind}" if reduced else
                f"G = c w/z, eta = dz/w on {kind}"),
        window=window, grid_n=101,
        default_mesh={"r0": 0.35, "r1": 2.6, "nr": 20, "nth": 48},
    )


def catalog_get(name: str, **params) -> WeierstrassData:
    """Instantiate a catalog datum; parameter constraints are validated here."""
    if name == "catenoid":
        return _planar(
            "catenoid", {}, RationalFunction([1, 0]), RationalFunction([1], [1, 0, 0]),
            (0j, INF), 1.0, "none",
            "G = z, eta = dz/z^2 on C \\ {0}; cone-point figure of revolution",
        )
    if name == "helicoid":
        return _planar(
            "helicoid", {}, RationalFunction([1, 0]), RationalFunction([1j], [1, 0, 0]),
            (0j, INF), 1.0, "none",
            "G = z, eta = i dz/z^2 on C \\ {0}; conjugate of the catenoid, fold singularity",
        )
    if name == "associated":
        phase = float(params.pop("phase", math.pi / 4))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        return _planar(
            "associated", {"phase": phase},
            RationalFunction([1, 0]),
            RationalFunction([cmath.exp(1j * phase)], [1, 0, 0]),
            (0j, INF), 1.0, "phase in (0, pi/2) strictly between the conjugate pair",
            "G = z, eta = e^{i phase} dz/z^2; associated family of the catenoid",
        )
    if name == "trinoid1":
        a = float(params.pop("a", 3.67))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        if not a > 0.5:
            raise ValidationError("trinoid1 needs a > 1/2")
        b = -a * a + a * math.sqrt(4 * a * a - 1.0)
        num_eta = [1, 0, 0]
        den_eta = np.polymul([1, 0, -a * a], [1, 0, -a * a])
        return _planar(
            "trinoid1", {"a": a, "b": b},
            RationalFunction([-1, 0, b], [1, 0]),
            RationalFunction(num_eta, den_eta),
            (complex(a), complex(-a), INF), 0.6j,
            "a > 1/2; b = -a^2 + a sqrt(4a^2-1)",
            "G = (b - z^2)/z, eta = z^2 dz/(z^2-a^2)^2; three ends at +-a, inf",
            window=(-5.2, 5.2, -5.2, 5.2), grid_n=161,
            default_mesh={"r0": 0.25, "r1": 0.86 * a,
                          "nr": 22, "nth": 80},
        )
    if name == "trinoid2":
        cpar = float(params.pop("c", 0.1))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        if not (cpar > 0 and cpar != 1.0):
            raise ValidationError("trinoid2 needs c > 0, c != 1")
        return _planar(
            "trinoid2", {"c": cpar},
            RationalFunction([cpar, 0, 3 * cpar], [1, 0, -1]),
            RationalFunction([1.0 / cpar]),
            (1 + 0j, -1 + 0j, INF), 0j,
            "c > 0, c != 1",
            "G = c(z^2+3)/(z^2-1), eta = dz/c; three ends at +-1, inf",
            window=(-2.6, 2.6, -2.6, 2.6), grid_n=121,
            default_mesh={"r0": 0.05, "r1": 0.8,
                          "nr": 18, "nth": 64},
        )
    if name == "cone":
        a = float(params.pop("a", 2.5))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        if not (1.0 < a < 4.0 and a != 2.0):
            raise ValidationError("cone needs 1 < a < 4, a != 2")
        num_g = np.polymul([1, -1], [1, a, 1])
        den_g = np.polymul([1, 1], [1, -a, 1])
        num_e = np.polymul([1, -a, 1], [1, -a, 1])
        den_e = np.polymul(np.polymul([1, -1], [1, -1]),
                           np.polymul(np.polymul([1, -1], [1, -1]), [1, 2, 1]))
        chart = TraceChart(
            to_z=lambda zh: 1.0 + 1.0 / zh,
            from_z=lambda z: 1.0 / (z - 1.0),
            dz_dzhat=lambda zh: -1.0 / (zh * zh),
            name="inverted_about_one",
        )
        return _planar(
            "cone", {"a": a},
            RationalFunction(num_g, den_g),
            RationalFunction(num_e, den_e),
            (1 + 0j, -1 + 0j), 0.4j,
            "1 < a < 4, a != 2",
            "G = (z-1)(z^2+az+1)/((z+1)(z^2-az+1)), "
            "eta = (z^2-az+1)^2 dz/((z-1)^4 (z+1)^2); cone-like axis through infinity",
            chart=chart, window=(-8.0, 8.0, -8.0, 8.0), grid_n=161, trace_step=0.008,
            default_mesh={"r0": 0.06, "r1": 0.8,
                          "nr": 18, "nth": 64},
        )
    if name == "genus_k":
        k = int(params.pop("k", 1))
        c = float(params.pop("c", 1.0))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        if k < 1 or c <= 0:
            raise ValidationError("genus_k needs integer k >= 1 and c > 0")
        return _genus_family(k, c, reduced=False)
    if name == "genus_k_reduced":
        k = int(params.pop("k", 2))
        c = float(params.pop("c", 1.0))
        if params:
            raise ValidationError(f"unknown parameters {sorted(params)}")
        if k < 2 or k % 2 != 0 or c <= 0:
            raise ValidationError("genus_k_reduced needs even k >= 2 and c > 0")
        return _genus_family(k, c, reduced=True)
    raise ValidationError(f"unknown catalog surface {name!r}")


CATALOG_NAMES = ("catenoid", "helicoid", "associated", "trinoid1", "trinoid2",
                 "cone", "genus_k", "genus_k_reduced")


def catalog_list(ck_values: dict | None = None) -> list[dict]:
    """JSON-ready catalog listing; optional {k: c_k} echoes solved constants."""
    out = []
    for name in CATALOG_NAMES:
        kwargs = {}
        if name == "genus_k" and ck_values:
            kwargs = {"k": 1, "c": ck_values.get(1, 1.0)}
        if name == "genus_k_reduced" and ck_values:
            kwargs = {"k": 2, "c": ck_values.get(2, 1.0)}
        d = catalog_get(name, **kwargs)
        out.append({"name": d.name, "params": d.params,
                    "constraints": d.constraints, "paper_anchor": d.anchor})
    return out


# ---------------------------------------------------------------------------
# immersion integration
# ---------------------------------------------------------------------------

def integrate_phi(data: WeierstrassData, path: cov.SurfacePath | cov.LiftedPath,
                  tol: float = 1e-10) -> np.ndarray:
    """Integrals of the Phi-vector from the start of the path to each of its
    vertices, shape (len(vertices), 3)."""

    def form(z, w):
        return data.phi(cov.SurfacePoint(z, w))

    return integrate_form(data.cover, path, form, tol)


def integrate_form(spec: cov.CoverSpec | None, path: cov.SurfacePath | cov.LiftedPath,
                   form, tol: float = 1e-10) -> np.ndarray:
    """Integrals of form(z, w) dz from the start of a (lifted) polyline to
    each of its vertices, with Gauss-Kronrod panels per leg: shape
    (len(vertices),) + form shape, entry 0 zero.  form takes arrays of z and
    w and returns its values along the last axis.  A path that is already a
    LiftedPath is integrated as it stands, so a caller can reuse its lift
    (end fiber value, closure check)."""
    if isinstance(path, cov.LiftedPath):
        lp = path
    elif spec is not None and path.w0 is not None:
        lp = cov.LiftedPath(spec, path)
    else:
        lp = None
    if lp is not None:
        path, upto = lp.path, lp.upto
        legs = [leg[:2] for leg in lp.legs]
    else:
        legs = list(zip(path.z_vertices[:-1], path.z_vertices[1:]))
        upto = range(len(path.z_vertices))
    w0 = None if lp is None else np.array([path.w0])
    total = np.zeros(np.shape(form(np.array([path.start]), w0))[:-1], dtype=complex)
    partial = [total]
    for i, (a, b) in enumerate(legs):
        delta = b - a

        def f(s, a=a, delta=delta, i=i):
            w = lp.w_at(i, s) if lp is not None else None
            return form(a + delta * s, w) * delta

        total = total + gk_adaptive(f, 0.0, 1.0, tol)
        partial.append(total)
    return np.array([partial[n] for n in upto])


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


def mesh_sample(data: WeierstrassData, nr: int | None = None,
                nth: int | None = None, th1: float | None = None) -> MeshSample:
    """Sample the immersion on the log-polar grid of data.default_mesh about
    z = 0: nr radii from r0 to r1, nth + 1 angles from 0 to th1.  On a cover
    th1 defaults to the full sweep 2 pi sheet_count over all sheets.

    The spine (base point, then the first column) is lifted and integrated as
    one path, and each row as one path from its spine vertex, so the result
    is deterministic and watertight in the parameter grid."""
    g = data.default_mesh
    nr = nr if nr is not None else g["nr"]
    nth = nth if nth is not None else g["nth"]
    spec = data.cover
    if th1 is None:
        th1 = 2.0 * math.pi * (spec.sheet_count if spec is not None else 1)
    radii = np.exp(np.linspace(math.log(g["r0"]), math.log(g["r1"]), nr))
    zs = radii[:, None] * np.exp(1j * np.linspace(0.0, th1, nth + 1))

    def lift(z_vertices, w0):
        path = cov.SurfacePath(z_vertices, w0)
        return path if spec is None else cov.LiftedPath(spec, path)

    spine = lift((data.base.z, *zs[:, 0]), data.base.w)
    x_col = integrate_phi(data, spine, 1e-9).real
    xs = np.empty(zs.shape + (3,))
    ws = np.empty(zs.shape, dtype=complex) if spec is not None else None
    for i in range(nr):
        row = lift(zs[i], spine.w_vertices[i + 1] if ws is not None else None)
        xs[i] = x_col[i + 1] + integrate_phi(data, row, 1e-9).real
        if ws is not None:
            ws[i] = row.w_vertices
    mets = data.metric_factor(cov.SurfacePoint(zs, ws))

    n_cols = nth + 1
    a = (np.arange(nr - 1)[:, None] * n_cols + np.arange(n_cols - 1)).reshape(-1)
    faces = np.stack([a, a + 1, a + n_cols + 1, a + n_cols], axis=1)
    return MeshSample(xs.reshape(-1, 3), mets.reshape(-1), faces, zs.reshape(-1),
                      rows=nr, cols=n_cols)


# ---------------------------------------------------------------------------
# ends: completeness and order bookkeeping
# ---------------------------------------------------------------------------

def _local_samples(data: WeierstrassData, puncture, radii, angle=0.37):
    """Log-moduli of (G, eta, G eta, G^2 eta, Q) in a local coordinate zeta
    at the puncture (planar data only; cover data use order_table)."""
    rows = []
    for r in radii:
        zeta = r * cmath.exp(1j * angle)
        if puncture == INF or (isinstance(puncture, complex) and cmath.isinf(puncture.real)):
            z = 1.0 / zeta
            dz = -1.0 / zeta ** 2
        else:
            z = puncture + zeta
            dz = 1.0 + 0j
        p = cov.SurfacePoint(z, None)
        g = data.G(p)
        e = data.eta(p) * dz
        q = data.eta(p) * data.dG(p) * dz * dz
        rows.append([math.log(abs(g)), math.log(abs(e)), math.log(abs(g * e)),
                     math.log(abs(g * g * e)), math.log(abs(q))])
    return np.array(rows)


def _slope(logr, logv):
    return float(np.polyfit(logr, logv, 1)[0])


def completeness_report(data: WeierstrassData, radii=None) -> dict:
    """Per-end report: |G| limit behaviour and whether the end is complete and
    nonsingular (|G| limit != 1)."""
    radii = radii if radii is not None else [1e-3, 5e-4, 2.5e-4, 1.25e-4]
    logr = np.log(radii)
    ends = []
    if data.cover is None:
        punctures = data.punctures
        for pu in punctures:
            m = _local_samples(data, pu, radii)
            slope_g = _slope(logr, m[:, 0])
            if abs(slope_g) < 0.05:
                glim = math.exp(float(np.mean(m[:, 0])))
                g_desc = glim
            else:
                g_desc = float("inf") if slope_g < 0 else 0.0
                glim = g_desc
            # ds ~ max(|eta|, |G^2 eta|) near the end; complete iff pole order >= 1
            ds_slope = min(_slope(logr, m[:, 1]), _slope(logr, m[:, 3]))
            ends.append({
                "puncture": "inf" if pu == INF else [pu.real, pu.imag],
                "abs_G_limit": glim,
                "metric_slope": ds_slope,
                "complete": bool(ds_slope <= -1.0 + 0.05),
                "nonsingular_end": bool(not (abs(glim - 1.0) < 1e-6)),
            })
    else:
        tab = order_table(data)  # cover fits use the order-table radii
        for label in ("zero", "infinity"):
            row = tab.rows[label]
            g_ord = row["G"]["order"]
            glim = float("inf") if g_ord < 0 else (0.0 if g_ord > 0 else 1.0)
            ds_ord = min(row["eta"]["order"], row["G^2*eta"]["order"])
            ends.append({
                "puncture": label,
                "abs_G_limit": glim,
                "metric_slope": float(ds_ord),
                "complete": bool(ds_ord <= -1),
                "nonsingular_end": bool(g_ord != 0),
            })
    return {"surface": data.name, "ends": ends,
            "all_complete": all(e["complete"] for e in ends),
            "all_nonsingular": all(e["nonsingular_end"] for e in ends)}


@dataclass
class OrderTable:
    rows: dict
    max_residual: float


def order_table(data: WeierstrassData, radii=None) -> OrderTable:
    """Vanishing orders of G, eta, G eta, G^2 eta, Q in the distinguished local
    coordinates of the genus-k cover, by log-log slope fitting.

    Points: the two punctures, the branch points over +-1 (full cover; over 1
    for the reduced curve), and the regular points over +-i (full) where Q has
    its simple zeros."""
    if data.cover is None:
        raise ValidationError("order_table applies to the cover family")
    spec = data.cover
    c = data.params["c"]
    radii = radii if radii is not None else [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    logr = np.log(radii)
    n = spec.sheet_count
    k = spec.k

    if spec.reduced:
        m = spec.m
        points = {
            "zero": lambda zeta: (zeta ** n, n * zeta ** (n - 1)),
            "infinity": lambda zeta: (zeta ** (-n), -n * zeta ** (-n - 1)),
            "one": lambda zeta: (1 + zeta ** n, n * zeta ** (n - 1)),
        }

        def log_absw(z):
            return ((m + 1) * cmath.log(z) + 2 * m * cmath.log(z - 1)).real / n

        eta_scale = 0.5
    else:
        points = {
            "zero": lambda zeta: (zeta ** n, n * zeta ** (n - 1)),
            "infinity": lambda zeta: (zeta ** (-n), -n * zeta ** (-n - 1)),
            "one": lambda zeta: (1 + zeta ** n, n * zeta ** (n - 1)),
            "minus_one": lambda zeta: (-1 + zeta ** n, n * zeta ** (n - 1)),
            "pm_i": lambda zeta: (1j + zeta, 1.0 + 0j),
        }

        def log_absw(z):
            return (cmath.log(z) + k * cmath.log(z - 1) + k * cmath.log(z + 1)).real / n

        eta_scale = 1.0

    rows = {}
    max_res = 0.0
    for label, chart in points.items():
        samples = []
        for r in radii:
            zeta = r * cmath.exp(0.37j)
            z, dz = chart(zeta)
            lw = log_absw(z)
            labs_z = math.log(abs(z))
            labs_dz = math.log(abs(dz))
            lG = math.log(c) + lw - labs_z
            lEta = math.log(eta_scale) - lw + labs_dz
            # |Q_zeta| = |eta_z| * |dG/dz| * |dz/dzeta|^2 with dG/dz = G(L - 1/z)
            l_dG = lG + math.log(abs(spec.log_derivative(z) - 1.0 / z))
            lQ = (lEta - labs_dz) + l_dG + 2 * labs_dz
            samples.append([lG, lEta, lG + lEta, 2 * lG + lEta, lQ])
        samples = np.array(samples)
        row = {}
        for qi, qname in enumerate(("G", "eta", "G*eta", "G^2*eta", "Q")):
            s = _slope(logr, samples[:, qi])
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
        }
    return {
        "zero": {"G": -k, "eta": k - 1, "G*eta": -1, "G^2*eta": -(k + 1), "Q": -2},
        "infinity": {"G": -k, "eta": k - 1, "G*eta": -1, "G^2*eta": -(k + 1), "Q": -2},
        "one": {"G": k, "eta": 0, "G*eta": k, "G^2*eta": 2 * k, "Q": k - 1},
        "minus_one": {"G": k, "eta": 0, "G*eta": k, "G^2*eta": 2 * k, "Q": k - 1},
        "pm_i": {"G": 0, "eta": 0, "G*eta": 0, "G^2*eta": 0, "Q": 1},
    }


# ---------------------------------------------------------------------------
# degree of the Gauss map and the Osserman-type count
# ---------------------------------------------------------------------------

def gauss_degree(data: WeierstrassData, probe: complex = 0.37 + 0.21j) -> dict:
    """Number of preimages of a generic value under G (continuation-free root
    count of the preimage polynomial)."""
    if data.cover is None:
        raise ValidationError("gauss_degree applies to the cover family")
    spec = data.cover
    c = data.params["c"]
    v = probe
    if spec.reduced:
        m = spec.m
        # G = v on the curve <=> (v/c)^(2m+1) Z^m = (Z-1)^(2m)
        lead = (v / c) ** (2 * m + 1)
        poly = np.polysub(_monomial(lead, m, 2 * m), _binom_pow([1, -1], 2 * m))
    else:
        k = spec.k
        lead = (v / c) ** (k + 1)
        poly = np.polysub(_monomial(lead, k, 2 * k), _binom_pow([1, 0, -1], k))
    roots = np.roots(poly)
    return {"surface": data.name, "probe": v, "degree": int(len(roots)),
            "roots": roots}


def _monomial(coeff: complex, power: int, total_deg: int) -> np.ndarray:
    p = np.zeros(total_deg + 1, dtype=complex)
    p[total_deg - power] = coeff
    return p


def _binom_pow(base, n: int) -> np.ndarray:
    out = np.array([1.0 + 0j])
    b = np.asarray(base, dtype=complex)
    for _ in range(n):
        out = np.polymul(out, b)
    return out


def osserman_check(data: WeierstrassData, degree: int | None = None) -> dict:
    """2 deg G >= -chi(M) + #ends, with equality detection."""
    if data.cover is None:
        genus = 0
        ends = len(data.punctures)
        if degree is None:
            raise ValidationError("pass the computed degree for planar data")
        deg = degree
    else:
        genus = data.cover.genus()
        ends = 2
        deg = degree if degree is not None else gauss_degree(data)["degree"]
    chi = 2 - 2 * genus - ends
    lhs = 2 * deg
    rhs = -chi + ends
    return {"surface": data.name, "deg_G": deg, "genus": genus, "ends": ends,
            "chi": chi, "lhs_2deg": lhs, "rhs": rhs,
            "ok": bool(lhs >= rhs), "equality": bool(lhs == rhs)}
