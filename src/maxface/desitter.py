"""Deformation of the genus-k maxface family to CMC-1 faces in de Sitter
3-space, through the holomorphic lift equation

    dF = t PsiHat_0(z, w) F dz,      PsiHat_0 = [[ 1/z, -c w/z^2 ],
                                                 [ 1/(c w), -1/z ]],

with F(o) = b at the base point o = (2, w0) of the full cover.  PsiHat_0 is
trace-free and nilpotent (det = 0), so det F is a constant of motion — the
integrator monitors it and never renormalizes.

The reflection matrices rho~_j = conj(F(P_j * mu_j o c))^{-1} sigma_j F(c)
are path-independent constants; loop monodromies are computed both by direct
integration around the realized word loop (route a) and by the alternating
word composition Pi Sigma^{-1} in the rho~_j (route b).  The initial frame
iota_1 conjugates every monodromy into SU(1,1), which is what certifies the
image surface sits in de Sitter space with the right equivariance.

Surface points are f = F e3 F^* (Hermitian), read in coordinates
x0 = (f11+f22)/2, x1 = Re f12, x2 = Im f12, x3 = (f11-f22)/2, satisfying
-x0^2 + x1^2 + x2^2 + x3^2 = 1 identically when det F = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cover as cov
from . import periods as per
from . import weierstrass as wst
from .algebra import (E3, EYE2, det2, dormand_prince, inv2, mat2,
                      moebius_apply, schwarzian_fd, su11_defect)
from .errors import ContinuationError, NumericalError, ValidationError

_PROBES = (1.9 + 0.35j, 2.3 - 0.25j, 2.6 + 0.15j)


@dataclass(frozen=True)
class AdmissiblePair:
    """Deformation datum (k, t) with the closing Weierstrass constant c.

    Real end exponents require |t| < k/(4(k+1)); t = 0 reproduces the
    constant lift, negative t is admitted for finite differencing."""

    k: int
    t: float
    c: float = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k >= 1")
        if abs(self.t) >= self.t_max:
            raise ValidationError(
                f"|t| must stay below k/(4(k+1)) = {self.t_max}")
        if self.c is None:
            object.__setattr__(self, "c", per.compute_ck(self.k).c_k)
        elif not self.c > 0:
            raise ValidationError("c > 0")

    @property
    def t_max(self) -> float:
        return self.k / (4.0 * (self.k + 1))

    @property
    def spec(self) -> cov.CoverSpec:
        return cov.CoverSpec(self.k)

    @property
    def lam(self) -> float:
        return math.pi / (self.k + 1)

    @property
    def psi(self) -> complex:
        return cmath.exp(0.5j * self.k * self.lam)

    def psihat0(self, z: complex, w: complex) -> np.ndarray:
        c = self.c
        return mat2(1.0 / z, -c * w / (z * z), 1.0 / (c * w), -1.0 / z)


def nu_exponents(k: int, t: float) -> tuple[float, float]:
    """End exponents nu_0 (z=0) and nu_inf (z=inf) of the deformed lift."""
    s = 4.0 * t * (k + 1) / k
    if not (1.0 + s > 0 and 1.0 - s > 0):
        raise ValidationError("t outside the admissible window")
    return k * math.sqrt(1.0 + s), k * math.sqrt(1.0 - s)


# ---------------------------------------------------------------------------
# the joint (F, w) lift
# ---------------------------------------------------------------------------

@dataclass
class LiftState:
    F: np.ndarray
    w: complex
    point: cov.SurfacePoint
    det_defect: float


@dataclass
class Transport:
    """The lift along one polyline.  F[i] and w[i] are the frame and the
    fiber value at the path's i-th vertex; route is the polyline actually
    transported, branch-point detours included."""

    route: tuple
    w: list
    F: np.ndarray
    det_defect: float

    @property
    def end(self) -> LiftState:
        return LiftState(F=self.F[-1].copy(), w=self.w[-1],
                         point=cov.SurfacePoint(self.route[-1], self.w[-1]),
                         det_defect=self.det_defect)


_ATOL = 1e-13
_MEMO_CAP = 1 << 16
# leg propagators Phi (the frame at the leg end when F = e0 at its start),
# keyed by (t, c, rtol, k, leg start, leg end, start fiber value rounded to
# 1e-10); the rounding sits far below the sheet separation, so continuation
# along different routes that reaches the same root shares the entry
_PROPAGATORS: dict[tuple, np.ndarray] = {}
# continued fiber value at the leg end, keyed by (k, a, b, w_a rounded); it is
# an exact root over b, whichever start value in the basin reached it
_SHEETS: dict[tuple, complex] = {}


def _legs(pair: AdmissiblePair, path: cov.SurfacePath, rtol: float,
          detour: bool) -> tuple[list, list, tuple]:
    """Split the path into legs (key, a, b, w_a, w_b), the start sheet of each
    from nearest-root continuation.  Also returns, per path vertex, the
    number of legs before it, and the transported polyline."""
    spec = pair.spec
    if path.w0 is None:
        raise ValidationError("the lift needs a fiber value at the start")
    if len(_SHEETS) > _MEMO_CAP:
        _SHEETS.clear()
    w = path.w0
    legs, upto, route = [], [0], [path.z_vertices[0]]
    for a, b in zip(path.z_vertices[:-1], path.z_vertices[1:]):
        seg = cov.sanitize_path(spec, (a, b)) if detour else (a, b)
        for za, zb in zip(seg[:-1], seg[1:]):
            sheet = (pair.k, za, zb,
                     complex(round(w.real, 10), round(w.imag, 10)))
            wb = _SHEETS.get(sheet)
            if wb is None:
                wb = _SHEETS[sheet] = cov._continue_segment(spec, za, zb, w)
            legs.append(((pair.t, pair.c, rtol) + sheet, za, zb, w, wb))
            route.append(zb)
            w = wb
        upto.append(len(legs))
    return legs, upto, tuple(route)


def _integrate_legs(pair: AdmissiblePair, legs: list, rtol: float) -> np.ndarray:
    """Propagators of the legs (key, a, b, w_a, w_b) from F = e0, all in one
    batched Dormand-Prince call with w integrated jointly; w must end on the
    continued root w_b."""
    t, c, spec = pair.t, pair.c, pair.spec
    za = np.array([leg[1] for leg in legs])
    dza = np.array([leg[2] - leg[1] for leg in legs])
    y0 = np.zeros((len(legs), 5), dtype=complex)
    y0[:, 0] = y0[:, 3] = 1.0
    y0[:, 4] = [leg[3] for leg in legs]

    def rhs(s, y, rows):
        dz = dza[rows]
        z = za[rows] + dz * s
        w = y[:, 4]
        # t dz PsiHat_0 = [[p, q], [r, -p]]
        tdz = t * dz
        p = tdz / z
        q = -c * w / (z * z) * tdz
        r = tdz / (c * w)
        out = np.empty_like(y)
        out[:, 0] = p * y[:, 0] + q * y[:, 2]
        out[:, 1] = p * y[:, 1] + q * y[:, 3]
        out[:, 2] = r * y[:, 0] - p * y[:, 2]
        out[:, 3] = r * y[:, 1] - p * y[:, 3]
        out[:, 4] = w * spec.log_derivative(z) * dz
        return out

    y = dormand_prince(rhs, y0, 0.0, 1.0, rtol=rtol, atol=_ATOL)
    for (_, a, b, _, wb), w_end in zip(legs, y[:, 4]):
        roots = spec.fiber(b)
        near = roots[int(np.argmin(np.abs(roots - w_end)))]
        if abs(near - wb) > 1e-9 * (1.0 + abs(wb)):
            raise ContinuationError(
                f"lift left the continued sheet on leg {a} -> {b}")
    return y[:, :4].reshape(-1, 2, 2)


def _propagators(pair: AdmissiblePair, legs: list, rtol: float) -> dict:
    """Phi for every leg; the ones not memoized are integrated together."""
    found, new = {}, {}
    for leg in legs:
        key = leg[0]
        if key in _PROPAGATORS:
            found[key] = _PROPAGATORS[key]
        else:
            new[key] = leg
    if new:
        if len(_PROPAGATORS) + len(new) > _MEMO_CAP:
            _PROPAGATORS.clear()
        for key, phi in zip(new, _integrate_legs(pair, list(new.values()),
                                                 rtol)):
            _PROPAGATORS[key] = found[key] = phi
    return found


def transport(pair: AdmissiblePair, paths, b: np.ndarray | None = None,
              rtol: float = 1e-11, detour: bool = True) -> list[Transport]:
    """Lift every path from the frame b at its start.

    The ODE is linear in F, so the frame at the i-th leg end is the prefix
    product Phi_i ... Phi_1 b of memoized leg propagators.  Each path segment
    gets the counterclockwise branch-point detours of cov.sanitize_path;
    detour=False transports the segments straight, for rays that run
    radially into a branch point, where a detour would wind about it.  det F
    is monitored, never renormalized."""
    b0 = EYE2 if b is None else np.asarray(b, dtype=complex)
    split = [_legs(pair, path, rtol, detour) for path in paths]
    phis = _propagators(pair, [leg for legs, _, _ in split for leg in legs],
                        rtol)
    det0 = det2(b0)
    out = []
    for path, (legs, upto, route) in zip(paths, split):
        frames = [b0]
        for leg in legs:
            frames.append(phis[leg[0]] @ frames[-1])
        F = np.array([frames[n] for n in upto])
        ws = [path.w0] + [leg[4] for leg in legs]
        defect = max(abs(det2(f) - det0) for f in F)
        out.append(Transport(route=route, w=[ws[n] for n in upto], F=F,
                             det_defect=float(defect)))
    return out


def integrate_lift(pair: AdmissiblePair, path: cov.SurfacePath,
                   b: np.ndarray | None = None,
                   rtol: float = 1e-11) -> LiftState:
    """The lift at the end of one path (see transport)."""
    return transport(pair, [path], b, rtol)[0].end


def _straight_path(spec: cov.CoverSpec, z_end: complex) -> cov.SurfacePath:
    o = cov.base_point(spec)
    return cov.SurfacePath((o.z, complex(z_end)), o.w)


# ---------------------------------------------------------------------------
# reflection matrices
# ---------------------------------------------------------------------------

def sigma_matrices(k: int) -> dict[int, np.ndarray]:
    """Constant conjugation matrices of the three reflections: sigma_1 = e0,
    sigma_2 = diag(psi^-2, psi^2), sigma_3 = diag(psi^-1, psi); all satisfy
    conj(sigma) sigma = e0."""
    lam = math.pi / (k + 1)
    psi = cmath.exp(0.5j * k * lam)
    return {
        1: EYE2.copy(),
        2: np.diag([psi ** -2, psi ** 2]).astype(complex),
        3: np.diag([psi ** -1, psi]).astype(complex),
    }


def _reflected_probe_path(spec: cov.CoverSpec, j: int, probe: complex) -> cov.SurfacePath:
    """P_j * (mu_j o c) for the straight probe path c."""
    conns = cov.base_connectors(spec)
    pj = conns[j]
    zmap = cov.reflection_zmap(j)
    o = cov.base_point(spec)
    tail = [zmap(z) for z in (o.z, complex(probe))]
    if abs(tail[0] - pj.z_vertices[-1]) > 1e-12:
        raise NumericalError("connector does not chain with the reflected path")
    verts = tuple(pj.z_vertices) + tuple(tail[1:])
    return cov.SurfacePath(verts, o.w, label=f"P{j}*mu{j}c")


def _probe_paths(spec: cov.CoverSpec, j: int, probes) -> list:
    """The straight path c and P_j * (mu_j o c), for each probe in turn."""
    return [p for probe in probes
            for p in (_straight_path(spec, probe),
                      _reflected_probe_path(spec, j, probe))]


def reflection_monodromy(pair: AdmissiblePair, j: int,
                         b: np.ndarray | None = None,
                         probes: tuple = _PROBES,
                         rtol: float = 1e-11) -> tuple[np.ndarray, float]:
    """rho~_j and its probe spread (path-independence certificate)."""
    if j not in (1, 2, 3):
        raise ValidationError("reflection index must be 1, 2 or 3")
    sig = sigma_matrices(pair.k)[j]
    ends = [tr.F[-1] for tr in transport(
        pair, _probe_paths(pair.spec, j, probes), b, rtol)]
    values = [inv2(f2.conj()) @ sig @ f1
              for f1, f2 in zip(ends[::2], ends[1::2])]
    spread = max(float(np.max(np.abs(v - values[0]))) for v in values[1:]) \
        if len(values) > 1 else 0.0
    return values[0], spread


@lru_cache(maxsize=64)
def _rho_tilde_cached(k: int, t: float, c: float) -> dict:
    pair = AdmissiblePair(k, t, c)
    # one batched solve for the legs of every probe path
    transport(pair, [p for j in (1, 2, 3)
                     for p in _probe_paths(pair.spec, j, _PROBES)])
    return {j: reflection_monodromy(pair, j) for j in (1, 2, 3)}


def rho_tilde(pair: AdmissiblePair, j: int,
              b: np.ndarray | None = None) -> np.ndarray:
    """rho~_j at initial frame b (computed once at e0, then conjugated:
    rho~_j(b) = conj(b)^{-1} rho~_j b)."""
    rho = _rho_tilde_cached(pair.k, pair.t, pair.c)[j][0]
    if b is None:
        return rho
    b = np.asarray(b, dtype=complex)
    return inv2(b.conj()) @ rho @ b


# ---------------------------------------------------------------------------
# loop monodromy, two routes
# ---------------------------------------------------------------------------

def word_sigma_product(k: int, word: cov.DeckWord) -> np.ndarray:
    """Sigma = conj(sigma_{i1}) sigma_{i2} conj(sigma_{i3}) ... (+-e0 for the
    realized identity words)."""
    sig = sigma_matrices(k)
    acc = EYE2.copy()
    for pos, idx in enumerate(word.indices):
        m = sig[idx]
        acc = acc @ (m.conj() if pos % 2 == 0 else m)
    return acc


def loop_monodromy(pair: AdmissiblePair, word: cov.DeckWord,
                   b: np.ndarray | None = None, rtol: float = 1e-11,
                   check_tol: float = 1e-8) -> dict:
    """Monodromy of the lift around the realized word loop.

    route a: direct integration, rho = F_end^{-1} b;
    route b: alternating composition Pi Sigma^{-1} with
             Pi = conj(rho~_{i1}) rho~_{i2} conj(rho~_{i3}) ...

    Returns route a (with the route disagreement recorded); raises if the two
    routes disagree beyond check_tol."""
    spec = pair.spec
    b0 = EYE2 if b is None else np.asarray(b, dtype=complex)
    loop = cov.deck_word_path(spec, word)
    lift = integrate_lift(pair, loop, b0, rtol=rtol)
    rho_a = inv2(lift.F) @ b0

    acc = EYE2.copy()
    for pos, idx in enumerate(word.indices):
        m = rho_tilde(pair, idx, None if b is None else b0)
        acc = acc @ (m.conj() if pos % 2 == 0 else m)
    sig = word_sigma_product(pair.k, word)
    if b is None:
        rho_b = acc @ inv2(sig)
    else:
        # F_end = Sigma b Pi(e0)^{-1}  =>  rho(b) = Pi(b) b^{-1} Sigma^{-1} b
        rho_b = acc @ inv2(b0) @ inv2(sig) @ b0

    disagreement = float(np.max(np.abs(rho_a - rho_b)))
    if disagreement > check_tol:
        raise NumericalError(
            f"monodromy routes disagree by {disagreement:.2e} on word "
            f"{word.indices}")
    return {"rho": rho_a, "rho_word": rho_b, "route_disagreement": disagreement,
            "det_defect": lift.det_defect, "sigma_scalar": sig}


def trace_identity_check(pair: AdmissiblePair, rtol: float = 1e-11) -> dict:
    """tr rho(tau_0) = (-1)^k 2 cos(pi nu_0) and the same at the other end."""
    k = pair.k
    nu0, nuinf = nu_exponents(k, pair.t)
    ends = (("tau_0", cov.word_end_zero(k), nu0),
            ("tau_inf", cov.word_end_infinity(k), nuinf))
    # one batched solve for the legs of both loops
    transport(pair, [cov.deck_word_path(pair.spec, word)
                     for _, word, _ in ends], rtol=rtol)
    out = {}
    for label, word, nu in ends:
        rho = loop_monodromy(pair, word, rtol=rtol)["rho"]
        tr = complex(rho[0, 0] + rho[1, 1])
        target = (-1.0) ** k * 2.0 * math.cos(math.pi * nu)
        out[label] = {"trace": tr, "target": target,
                      "residual": abs(tr - target)}
    return out


def residue_derivative(pair_k: int, h: float = 1e-5,
                       rtol: float = 1e-12) -> dict:
    """d/dt|_0 rho(tau_0)^{-1} = 2 (k+1) pi i diag(1,-1), checked two ways:
    a centered difference of the monodromy in t, and the direct contour
    integral of PsiHat_0 over the realized tau_0 loop."""
    k = pair_k
    c = per.compute_ck(k).c_k
    word = cov.word_end_zero(k)
    spec = cov.CoverSpec(k)
    loop = cov.deck_word_path(spec, word)

    def rho_inv(t: float) -> np.ndarray:
        lift = integrate_lift(AdmissiblePair(k, t, c), loop, rtol=rtol)
        return lift.F  # rho^{-1} = b^{-1} F_end = F_end at b = e0

    d_fd = (rho_inv(h) - rho_inv(-h)) / (2.0 * h)
    contour = wst.integrate_form(
        spec, loop,
        lambda z, w: np.array([[1.0 / z, -c * w / (z * z)],
                               [1.0 / (c * w), -1.0 / z]]))[-1]
    target = 2.0 * (k + 1) * math.pi * 1j * np.diag([1.0, -1.0])
    return {
        "fd": d_fd,
        "contour": contour,
        "target": target,
        "fd_residual": float(np.max(np.abs(d_fd - target))),
        "contour_residual": float(np.max(np.abs(contour - target))),
    }


# ---------------------------------------------------------------------------
# the SU(1,1) initial frame
# ---------------------------------------------------------------------------

def construct_iota(pair: AdmissiblePair) -> dict:
    """The two-step frame normalization.

    rho~_2 at e0 has the form [[cos k lam - i u, i s1], [i s2, cos k lam + i u]]
    with u, s1, s2 real; iota is the real matrix that rotates it into SU(1,1).
    Conjugating rho~_3 by iota gives [[q, i r1], [i r2, conj q]] with r1 r2 < 0,
    and the diagonal rescaling iota_1 = iota diag(s, 1/s), s = (-r1/r2)^{1/4},
    finishes the job for the whole group."""
    k = pair.k
    lam = pair.lam
    r2m = rho_tilde(pair, 2)
    cos_kl = math.cos(k * lam)
    u = -float(r2m[0, 0].imag)
    s1 = float(r2m[0, 1].imag)
    s2 = float(r2m[1, 0].imag)
    form_residual = max(
        abs(r2m[0, 0] - (cos_kl - 1j * u)), abs(r2m[1, 1] - (cos_kl + 1j * u)),
        abs(r2m[0, 1] - 1j * s1), abs(r2m[1, 0] - 1j * s2))
    disc = 2.0 * (math.sin(k * lam) ** 2 + u * math.sin(k * lam))
    if disc <= 0:
        raise NumericalError(f"iota normalization broke down: disc={disc}")
    root = math.sqrt(disc)
    iota = np.array([[u + math.sin(k * lam), s1],
                     [-s2, u + math.sin(k * lam)]], dtype=complex) / root

    r3m = rho_tilde(pair, 3, b=iota)
    q = complex(r3m[0, 0])
    r1 = float(r3m[0, 1].imag)
    r2_ = float(r3m[1, 0].imag)
    form_residual = max(form_residual,
                        abs(r3m[0, 1] - 1j * r1), abs(r3m[1, 0] - 1j * r2_),
                        abs(r3m[1, 1] - q.conjugate()))
    if max(abs(r1), abs(r2_)) < 1e-12 * (1.0 + abs(q)):
        s = 1.0  # t = 0: rho~_3 is already diagonal, nothing to rescale
    elif r1 * r2_ < 0:
        s = (-r1 / r2_) ** 0.25
    else:
        raise NumericalError(f"iota normalization: r1 r2 = {r1 * r2_} >= 0")
    iota1 = iota @ np.diag([s, 1.0 / s]).astype(complex)
    return {"iota": iota, "iota1": iota1, "u": u, "s1": s1, "s2": s2,
            "q": q, "r1": r1, "r2": r2_, "s": s,
            "form_residual": float(form_residual)}


def su11_certify(pair: AdmissiblePair, rtol: float = 1e-11,
                 tol: float = 1e-8) -> dict:
    """Certify that at b = iota_1 the three reflection matrices, every
    generator monodromy, and both end monodromies lie in SU(1,1)."""
    k = pair.k
    iota1 = construct_iota(pair)["iota1"]
    rows = {}
    worst = 0.0
    for j in (1, 2, 3):
        defect = su11_defect(rho_tilde(pair, j, b=iota1))
        rows[f"rho~_{j}"] = {"su11_defect": defect, "route_disagreement": 0.0}
        worst = max(worst, defect)
    words = [("gamma", cov.word_base_loop())]
    for j in range(k + 1):
        words.append((f"gen_k1^{j}", cov.word_generator(j, False)))
        words.append((f"gen_k1^{j}_k2", cov.word_generator(j, True)))
    words.append(("tau_0", cov.word_end_zero(k)))
    words.append(("tau_inf", cov.word_end_infinity(k)))
    # one batched solve for the legs of every word loop
    transport(pair, [cov.deck_word_path(pair.spec, word) for _, word in words],
              rtol=rtol)
    worst_det = 0.0
    for label, word in words:
        res = loop_monodromy(pair, word, b=iota1, rtol=rtol)
        defect = su11_defect(res["rho"])
        rows[label] = {"su11_defect": defect,
                       "route_disagreement": res["route_disagreement"],
                       "det_defect": res["det_defect"]}
        worst = max(worst, defect)
        worst_det = max(worst_det, res["det_defect"])
    certified = bool(worst < tol)
    if not certified:
        raise NumericalError(f"SU(1,1) certification failed: defect {worst:.2e}")
    return {"certified": certified, "worst_defect": worst,
            "worst_det_defect": worst_det, "words": rows, "iota1": iota1}


def theta_zero_check(pair: AdmissiblePair) -> dict:
    """The rotation angle of the half-turn M = conj(rho~_3) rho~_2 satisfies
    arccos(tr M / 2) = pi nu_0 / (2k+2)."""
    m = rho_tilde(pair, 3).conj() @ rho_tilde(pair, 2)
    tr = complex(m[0, 0] + m[1, 1])
    a0 = 0.5 * tr.real
    imag_leak = abs(tr.imag)
    nu0, _ = nu_exponents(pair.k, pair.t)
    theta = math.acos(max(-1.0, min(1.0, a0)))
    target = math.pi * nu0 / (2.0 * (pair.k + 1))
    return {"A0": a0, "theta0": theta, "target": target,
            "residual": abs(theta - target), "imag_leak": imag_leak}


# ---------------------------------------------------------------------------
# the immersion into de Sitter space
# ---------------------------------------------------------------------------

def hermitian_coordinates(F: np.ndarray) -> np.ndarray:
    """x = (x0, x1, x2, x3) of f = F e3 F^*."""
    f = F @ E3 @ F.conj().T
    x0 = 0.5 * (f[0, 0] + f[1, 1]).real
    x3 = 0.5 * (f[0, 0] - f[1, 1]).real
    x1 = f[0, 1].real
    x2 = f[0, 1].imag
    return np.array([x0, x1, x2, x3])


def desitter_defect(x: np.ndarray) -> float:
    """|(-x0^2 + x1^2 + x2^2 + x3^2) - 1|."""
    return float(abs(-x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2 - 1.0))


def desitter_sample(pair: AdmissiblePair, z_values, b: np.ndarray | None = None,
                    rtol: float = 1e-11) -> dict:
    """Sample the CMC-1 face at the given z values (lifted from the base
    point along straight sanitized legs, initial frame b)."""
    spec = pair.spec
    lifts = [tr.end for tr in transport(
        pair, [_straight_path(spec, z) for z in z_values], b, rtol)]
    xs = np.array([hermitian_coordinates(lift.F) for lift in lifts])
    return {"x": xs,
            "hyperboloid_defect": max(desitter_defect(x) for x in xs),
            "points": [lift.point for lift in lifts]}


def desitter_grid(pair: AdmissiblePair, b: np.ndarray | None = None,
                  r0: float = 1.3, r1: float = 3.0, nr: int = 12,
                  th0: float = -1.2, th1: float = 1.2, nth: int = 16,
                  rtol: float = 1e-10) -> dict:
    """Sample the CMC-1 face on a polar (r, theta) grid in the z-plane,
    marching the frame row by row from the base point (deterministic legs,
    quad faces; the grid stays in the right half plane clear of the branch
    points)."""
    o = cov.base_point(pair.spec)
    radii = np.exp(np.linspace(math.log(r0), math.log(r1), nr))
    thetas = np.linspace(th0, th1, nth + 1)
    column = [o.z] + [radii[i] * cmath.exp(1j * thetas[0]) for i in range(nr)]
    # row i: down the theta0 column to radius i, then along the row
    paths = [cov.SurfacePath(
        column[:i + 2] + [radii[i] * cmath.exp(1j * th) for th in thetas[1:]],
        o.w) for i in range(nr)]
    xs = np.array([[hermitian_coordinates(F) for F in tr.F[i + 1:]]
                   for i, tr in enumerate(transport(pair, paths, b, rtol))])
    worst = max(desitter_defect(x) for x in xs.reshape(-1, 4))
    faces = []
    cols = nth + 1
    for i in range(nr - 1):
        for j in range(nth):
            a = i * cols + j
            faces.append((a, a + 1, a + cols + 1, a + cols))
    return {"x": xs.reshape(-1, 4), "faces": np.array(faces, dtype=int),
            "hyperboloid_defect": float(worst), "rows": nr, "cols": cols}


# ---------------------------------------------------------------------------
# secondary Gauss map and the Schwarzian relation
# ---------------------------------------------------------------------------

def secondary_gauss(pair: AdmissiblePair, probe: complex,
                    b: np.ndarray | None = None, rtol: float = 1e-11):
    """Returns (g(probe), g_local) with g = F^{-1} . G (Moebius action of the
    inverse lift frame on the Gauss map); g_local continues F along short
    straight legs from the probe for stencil evaluations."""
    spec = pair.spec
    base_lift = integrate_lift(pair, _straight_path(spec, probe), b, rtol=rtol)

    def g_local(zeta: complex) -> complex:
        seg = cov.SurfacePath((complex(probe), complex(zeta)), base_lift.w)
        st = integrate_lift(pair, seg, base_lift.F, rtol=rtol)
        gmap = pair.c * st.w / zeta
        return complex(moebius_apply(inv2(st.F), gmap))

    g0 = complex(moebius_apply(inv2(base_lift.F), pair.c * base_lift.w / probe))
    return g0, g_local, base_lift


def quotient_check(pair: AdmissiblePair, probe: complex, h: float = 1e-5,
                   rtol: float = 1e-11) -> dict:
    """g from the two column quotients of M = F^{-1} dF (they must agree with
    the Moebius form): g = M11/M21 = M12/M22."""
    g0, _, base = secondary_gauss(pair, probe, rtol=rtol)

    fwd, back = transport(
        pair, [cov.SurfacePath((complex(probe), complex(zeta)), base.w)
               for zeta in (probe + h, probe - h)], base.F, rtol)
    dF = (fwd.F[-1] - back.F[-1]) / (2.0 * h)
    m = inv2(base.F) @ dF
    q1 = complex(m[0, 0] / m[1, 0])
    q2 = complex(m[0, 1] / m[1, 1])
    return {"g": g0, "quotient_1": q1, "quotient_2": q2,
            "residual": max(abs(q1 - g0), abs(q2 - g0))}


def _hopf_shift(pair: AdmissiblePair, z: complex) -> complex:
    """2 Qhat_t = (2 t k/(k+1)) (z^2+1) / (z^2 (z^2-1))."""
    k, t = pair.k, pair.t
    return (2.0 * t * k / (k + 1)) * (z * z + 1.0) / (z * z * (z * z - 1.0))


def schwarzian_relation(pair: AdmissiblePair, probe: complex,
                        rtol: float = 1e-11) -> dict:
    """S(g) - S(G) = 2 Qhat_t at the probe (finite-difference Schwarzians,
    step 0.02 (1+|z|))."""
    g0, g_local, base = secondary_gauss(pair, probe, rtol=rtol)
    step = 0.02 * (1.0 + abs(probe))

    def G_local(zeta: complex) -> complex:
        seg = cov.SurfacePath((complex(probe), complex(zeta)), base.w)
        return pair.c * cov.LiftedPath(pair.spec, seg).w_end / zeta

    s_g = schwarzian_fd(g_local, probe, step=step)
    s_G = schwarzian_fd(G_local, probe, step=step)
    target = _hopf_shift(pair, probe)
    diff = s_g - s_G
    return {"S_g": s_g, "S_G": s_G, "difference": diff, "target": target,
            "rel_residual": abs(diff - target) / (1.0 + abs(target))}


# ---------------------------------------------------------------------------
# end asymptotics
# ---------------------------------------------------------------------------

def _end_ray(which: str, depth: float) -> list[complex]:
    if which == "zero":
        verts = [2.0 + 0.0j, 1.2 + 0.9j, 0.35 + 0.0j]
        z = 0.35
        while z > depth:
            z *= 0.72
            verts.append(complex(z))
        return verts
    if which == "infinity":
        verts = [2.0 + 0.0j]
        z = 2.0
        while z < 1.0 / depth:
            z *= 2.0
            verts.append(complex(z))
        return verts
    raise ValidationError("end must be 'zero' or 'infinity'")


def end_asymptotics(pair: AdmissiblePair, which: str = "zero",
                    b: np.ndarray | None = None, depth: float | None = None,
                    rtol: float = 1e-11) -> dict:
    """Slope of log|x1 + i x2| against log x0 along a ray into the end.

    The lift has |x0| -> inf with x3/x0 -> 1 and the transverse part growing
    with exponent nu/(k + nu), nu = nu_0 or nu_inf.  (The sign of x0 depends
    on the initial frame and deck sheet; the fit uses log |x0|.)  The fit is
    reported with its R^2; below 0.999 the result is flagged inconclusive."""
    if depth is None:
        # the z=inf end converges more slowly (nu_inf < nu_0): go deeper
        depth = 1e-7 if which == "zero" else 1e-10
    # the ray stays clear of the branch points except the end it runs into
    # radially, where a clearance detour would circle that end on every leg
    ray = cov.SurfacePath(_end_ray(which, depth), cov.base_point(pair.spec).w)
    tr = transport(pair, [ray], b, rtol, detour=False)[0]
    y_samples = [hermitian_coordinates(F) for F in tr.F[1:]]
    nu0, nuinf = nu_exponents(pair.k, pair.t)
    nu = nu0 if which == "zero" else nuinf
    expected = nu / (pair.k + nu)
    tail = y_samples[-22:]
    lx0 = np.array([math.log(abs(x[0])) for x in tail])
    ltr = np.array([math.log(abs(complex(x[1], x[2]))) for x in tail])
    coef = np.polyfit(lx0, ltr, 1)
    fit = np.polyval(coef, lx0)
    ss_res = float(np.sum((ltr - fit) ** 2))
    ss_tot = float(np.sum((ltr - np.mean(ltr)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    slope = float(coef[0])
    x_last = y_samples[-1]
    return {
        "end": which,
        "slope": slope,
        "expected": expected,
        "rel_error": abs(slope - expected) / expected,
        "r_squared": r2,
        "conclusive": bool(r2 >= 0.999),
        "x3_over_x0": float(x_last[3] / x_last[0]),
        "samples": len(y_samples),
        "legs": len(tr.route) - 1,
        "winding": cov.winding_number(tr.route, 0j),
    }


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def deformation_report(k: int, t: float, rtol: float = 1e-11) -> dict:
    pair = AdmissiblePair(k, t)
    nu0, nuinf = nu_exponents(k, t)
    spreads = {j: _rho_tilde_cached(k, t, pair.c)[j][1] for j in (1, 2, 3)}
    iota = construct_iota(pair)
    cert = su11_certify(pair, rtol=rtol)
    traces = trace_identity_check(pair, rtol=rtol)
    theta = theta_zero_check(pair)
    return {
        "k": k, "t": t, "c": pair.c,
        "nu_0": nu0, "nu_inf": nuinf,
        "probe_spreads": spreads,
        "iota_form_residual": iota["form_residual"],
        "su11_worst_defect": cert["worst_defect"],
        "worst_det_defect": cert["worst_det_defect"],
        "trace_tau0_residual": traces["tau_0"]["residual"],
        "trace_tauinf_residual": traces["tau_inf"]["residual"],
        "theta0_residual": theta["residual"],
    }
