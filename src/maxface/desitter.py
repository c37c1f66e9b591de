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

import numpy as np

from . import cover as cov
from . import periods as per
from . import weierstrass as wst
from .algebra import (E3, EYE2, det2, dop853, inv2, mat2,
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
        if not math.isfinite(self.t):
            raise ValidationError(f"t must be finite, got {self.t}")
        if abs(self.t) >= self.t_max:
            raise ValidationError(
                f"|t| must stay below k/(4(k+1)) = {self.t_max}")
        if self.c is None:
            object.__setattr__(self, "c", per.compute_ck(self.k).c_k)
        elif not (self.c > 0 and math.isfinite(self.c)):
            raise ValidationError(f"c must be finite and > 0, got {self.c}")

    @property
    def t_max(self) -> float:
        return self.k / (4.0 * (self.k + 1))

    @property
    def spec(self) -> cov.CoverSpec:
        return cov.CoverSpec(self.k)

    def psihat0(self, p: cov.SurfacePoint) -> np.ndarray:
        """PsiHat_0 at p of the lift equation; p.z and p.w may be arrays,
        and the matrix axes come first."""
        c, z, w = self.c, p.z, p.w
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
class Transport:
    """The lift along one polyline.  F[i] and w[i] are the frame and the
    fiber value at the path's i-th vertex, w in Python complex values (the
    relations that read it round differently on numpy scalars); route is
    the polyline actually transported, branch-point detours included."""

    route: np.ndarray
    w: list
    F: np.ndarray
    det_defect: float


_ATOL = 1e-13
_MEMO_CAP = 1 << 16
# leg propagators Phi (the frame at the leg end when F = e0 at its start),
# keyed by (t, c, rtol, k, leg start, leg end, start fiber value rounded to
# 1e-10); the rounding sits far below the sheet separation, so continuation
# along different routes that reaches the same root shares the entry
_PROPAGATORS: dict[tuple, np.ndarray] = {}


def clear_memos() -> None:
    """Empty the process memos: leg propagators and reflection matrices."""
    _PROPAGATORS.clear()
    _RHO_TILDE.clear()


def _leg_keys(t, c, k, za, zb, wa, rtol: float) -> list[tuple]:
    """The memo keys of the legs given as arrays, leg i running from za[i]
    to zb[i] with w = wa[i] at za[i] under the pair (k[i], t[i], c[i])."""
    return list(zip(t.tolist(), c.tolist(), [rtol] * len(za), k.tolist(),
                    za.tolist(), zb.tolist(), np.round(wa, 10).tolist()))


def _integrate_legs(t, c, k, za, zb, wa, wb, rtol: float) -> np.ndarray:
    """Propagators of the legs given as arrays (as for _leg_keys) from
    F = e0, all in one batched DOP853 call with w integrated jointly from
    wa.  w must end on the continued root wb."""
    dza = zb - za
    y0 = np.zeros((len(za), 5), dtype=complex)
    y0[:, 0] = y0[:, 3] = 1.0
    y0[:, 4] = wa

    def rhs(s, y, live):
        dz = dza[live]
        z = za[live] + dz * s
        w = y[:, 4]
        # t dz PsiHat_0 = [[p, q], [r, -p]]
        tdz = t[live] * dz
        p = tdz / z
        q = -c[live] * w / (z * z) * tdz
        r = tdz / (c[live] * w)
        out = np.empty_like(y)
        out[:, 0] = p * y[:, 0] + q * y[:, 2]
        out[:, 1] = p * y[:, 1] + q * y[:, 3]
        out[:, 2] = r * y[:, 0] - p * y[:, 2]
        out[:, 3] = r * y[:, 1] - p * y[:, 3]
        # a named right factor (see CoverSpec.rhs)
        lw = cov.genus_log_derivative(k[live], z)
        out[:, 4] = w * lw * dz
        return out

    y = dop853(rhs, y0, 0.0, 1.0, rtol=rtol, atol=_ATOL)
    # the roots over b share their modulus: wb is the one nearest the
    # integrated w if the two part by less than half the root spacing
    off = ~(np.abs(np.angle(y[:, 4] / wb)) < math.pi / (k + 1))
    if off.any():
        i = int(np.argmax(off))
        raise ContinuationError(f"lift left the continued sheet on leg "
                                f"{complex(za[i])} -> {complex(zb[i])}")
    return y[:, :4].reshape(-1, 2, 2)


def _frames(b, n: int) -> np.ndarray:
    """n initial frames from b: None (e0), one frame, or one per item."""
    b = EYE2 if b is None else np.asarray(b, dtype=complex)
    return np.broadcast_to(b.reshape(-1, 2, 2), (n, 2, 2))


def transport(jobs, b=None, rtol: float = 1e-11,
              detour: bool = True) -> list[Transport]:
    """Lift the path of every job (pair, path) from the frame b at its start:
    one frame for all jobs or one per job.

    The ODE is linear in F, so the frame at the i-th leg end is the prefix
    product Phi_i ... Phi_1 b of memoized leg propagators; the legs of all
    jobs sit in flat arrays, the ones not yet memoized take one batched
    solve, and step i multiplies Phi_i onto every job still running.  The
    distinct paths of each k are lifted to the cover in one cov.lift call,
    however many pairs transport them; detour passes through to it (False
    transports the segments straight, for rays that run radially into a
    branch point).  det F is monitored, never renormalized."""
    jobs = list(jobs)
    if not jobs:
        return []
    # the legs, sheets and route depend on (k, path) only
    paths = {}
    for pair, path in jobs:
        paths.setdefault(pair.k, {})[path.z_vertices, path.w0] = path
    split = {}
    for k, todo in paths.items():
        for key, lp in zip(todo, cov.lift(cov.CoverSpec(k), todo.values(),
                                          detour)):
            split[(k,) + key] = lp
    lps = [split[pair.k, path.z_vertices, path.w0] for pair, path in jobs]
    n = np.array([len(lp.route) - 1 for lp in lps])
    # each pair keys the legs' propagators by its own (t, c, rtol)
    t, c, k = (np.repeat([getattr(pair, name) for pair, _ in jobs], n)
               for name in ("t", "c", "k"))
    legs = [(lp.route[:-1], lp.route[1:], lp.w[:-1], lp.w[1:]) for lp in lps]
    za, zb, wa, wb = map(np.concatenate, zip(*legs))
    # one slot per distinct key, in order of first occurrence; a slot's
    # first leg stands for it
    slot_of = {}
    slots = np.array([slot_of.setdefault(key, len(slot_of))
                      for key in _leg_keys(t, c, k, za, zb, wa, rtol)], dtype=int)
    keys = list(slot_of)
    phis = [_PROPAGATORS.get(key) for key in keys]
    new = [i for i, phi in enumerate(phis) if phi is None]
    if new:
        if len(_PROPAGATORS) + len(new) > _MEMO_CAP:
            clear_memos()
        f = np.unique(slots, return_index=True)[1][new]
        for i, phi in zip(new, _integrate_legs(t[f], c[f], k[f], za[f], zb[f],
                                               wa[f], wb[f], rtol)):
            _PROPAGATORS[keys[i]] = phis[i] = phi
    phis = np.array(phis).reshape(-1, 2, 2)
    # job j's frames are the rows start[j] .. start[j] + n[j], and the frame
    # in row r moves on along leg r - j
    start = np.cumsum(n + 1) - (n + 1)
    b0s = _frames(b, len(jobs))
    frames = np.empty((len(za) + len(jobs), 2, 2), dtype=complex)
    frames[start] = b0s
    # jobs by falling leg count: the ones still running at step i come first
    order = np.argsort(-n, kind="stable")
    for i, m in enumerate(np.searchsorted(-n[order], -np.arange(n.max()))):
        rows = start[order[:m]] + i
        frames[rows + 1] = phis[slots[rows - order[:m]]] @ frames[rows]
    out = []
    for lp, b0, r, m in zip(lps, b0s, start, n):
        F = frames[r:r + m + 1][lp.upto]
        defect = np.max(np.abs(det2(F.T) - det2(b0)))
        out.append(Transport(route=lp.route, w=lp.w_vertices.tolist(), F=F,
                             det_defect=float(defect)))
    return out


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
    psi = cov.CoverSpec(k).psi
    return {
        1: EYE2.copy(),
        2: np.diag([psi ** -2, psi ** 2]).astype(complex),
        3: np.diag([psi ** -1, psi]).astype(complex),
    }


def _reflected_probe_path(spec: cov.CoverSpec, j: int, probe: complex) -> cov.SurfacePath:
    """P_j * (mu_j o c) for the straight probe path c."""
    conns = cov.base_connectors(spec)
    pj = conns[j]
    o = cov.base_point(spec)
    tail = [cov.reflection_apply(spec, j, cov.SurfacePoint(z)).z
            for z in (o.z, complex(probe))]
    if abs(tail[0] - pj.z_vertices[-1]) > 1e-12:
        raise NumericalError("connector does not chain with the reflected path")
    verts = tuple(pj.z_vertices) + tuple(tail[1:])
    return cov.SurfacePath(verts, o.w, label=f"P{j}*mu{j}c")


def _probe_paths(spec: cov.CoverSpec, j: int, probes) -> list:
    """The straight path c and P_j * (mu_j o c), for each probe in turn."""
    return [p for probe in probes
            for p in (_straight_path(spec, probe),
                      _reflected_probe_path(spec, j, probe))]


# pair -> j -> (rho~_j at e0, its probe spread)
_RHO_TILDE: dict[AdmissiblePair, dict] = {}


def _rho_tildes(pairs) -> list[dict]:
    """Per pair, j -> (rho~_j at e0, its probe spread), the spread being the
    path-independence certificate; one transport lifts every probe path of
    the three reflections for all the pairs not yet memoized."""
    tables = {pair: _RHO_TILDE.get(pair) for pair in pairs}
    new = [pair for pair, table in tables.items() if table is None]
    lifts = transport([(pair, path) for pair in new for j in (1, 2, 3)
                       for path in _probe_paths(pair.spec, j, _PROBES)])
    # [pair][j - 1][probe] -> (F at c, F at P_j * (mu_j o c))
    ends = np.array([tr.F[-1] for tr in lifts]).reshape(
        len(new), 3, len(_PROBES), 2, 2, 2)
    for pair, pair_ends in zip(new, ends):
        sig = sigma_matrices(pair.k)
        table = tables[pair] = {}
        for j, probe_ends in zip((1, 2, 3), pair_ends):
            values = [inv2(f2.conj()) @ sig[j] @ f1 for f1, f2 in probe_ends]
            table[j] = (values[0], max(float(np.max(np.abs(v - values[0])))
                                       for v in values[1:]))
    if len(_RHO_TILDE) + len(new) > _MEMO_CAP:
        clear_memos()
    _RHO_TILDE.update((pair, tables[pair]) for pair in new)
    return [tables[pair] for pair in pairs]


def sigma_defect(pair: AdmissiblePair) -> float:
    """The largest entry of rho~_j - sigma_j over the three reflections: 0
    up to round-off at t = 0, where the flat connection is trivial."""
    sig = sigma_matrices(pair.k)
    return max(float(np.max(np.abs(rho_tilde(pair, j) - sig[j])))
               for j in (1, 2, 3))


def _at_frame(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A reflection matrix at e0 moved to the initial frame b:
    rho~_j(b) = conj(b)^{-1} rho~_j b.  At b = e0 the conjugation is exact:
    every product is by 1 or 0."""
    return inv2(b.conj()) @ rho @ b


def rho_tilde(pair: AdmissiblePair, j: int, b: np.ndarray = EYE2) -> np.ndarray:
    """rho~_j at initial frame b (computed once at e0, then conjugated)."""
    return _at_frame(_rho_tildes([pair])[0][j][0], b)


# ---------------------------------------------------------------------------
# loop monodromy, two routes
# ---------------------------------------------------------------------------

def _alternating_product(mats, word: cov.DeckWord) -> np.ndarray:
    """conj(M_{i1}) M_{i2} conj(M_{i3}) ... over the word's indices, with
    mats[i] = M_i, multiplied left to right."""
    acc = EYE2.copy()
    for pos, idx in enumerate(word.indices):
        m = mats[idx]
        acc = acc @ (m.conj() if pos % 2 == 0 else m)
    return acc


def word_sigma_product(k: int, word: cov.DeckWord) -> np.ndarray:
    """Sigma = conj(sigma_{i1}) sigma_{i2} conj(sigma_{i3}) ... (+-e0 for the
    realized identity words)."""
    return _alternating_product(sigma_matrices(k), word)


def loop_monodromy(jobs, b=None) -> list[dict]:
    """Monodromy of the lift around the realized loop of every job
    (pair, word), from the frame b (one for all jobs or one per job); one
    transport lifts all the loops.

    route a: direct integration, rho = F_end^{-1} b;
    route b: alternating composition Pi Sigma^{-1} with
             Pi = conj(rho~_{i1}) rho~_{i2} conj(rho~_{i3}) ...

    Returns route a per job (with the route disagreement recorded); raises
    if the two routes disagree beyond 1e-8 on any word."""
    jobs = list(jobs)
    tables = _rho_tildes([pair for pair, _ in jobs])
    frames = _frames(b, len(jobs))
    lifts = transport([(pair, cov.deck_word_path(pair.spec, word))
                       for pair, word in jobs], frames)
    out = []
    for (pair, word), table, lift, b0 in zip(jobs, tables, lifts, frames):
        rho_a = inv2(lift.F[-1]) @ b0
        pi = _alternating_product(
            {j: _at_frame(table[j][0], b0) for j in (1, 2, 3)}, word)
        sig = word_sigma_product(pair.k, word)
        # F_end = Sigma b Pi(e0)^{-1}  =>  rho(b) = Pi(b) b^{-1} Sigma^{-1} b
        rho_b = pi @ inv2(b0) @ inv2(sig) @ b0
        disagreement = float(np.max(np.abs(rho_a - rho_b)))
        if disagreement > 1e-8:
            raise NumericalError(
                f"monodromy routes disagree by {disagreement:.2e} on word "
                f"{word.indices}")
        out.append({"rho": rho_a, "route_disagreement": disagreement,
                    "det_defect": lift.det_defect})
    return out


def trace_identity_check(pairs) -> list[dict]:
    """Per pair, tr rho(tau_0) = (-1)^k 2 cos(pi nu_0) and the same at the
    other end; one loop_monodromy call for every pair."""
    pairs = list(pairs)
    monodromies = iter(loop_monodromy(
        [(pair, word) for pair in pairs
         for word in (cov.word_end_zero(pair.k),
                      cov.word_end_infinity(pair.k))]))
    out = []
    for pair in pairs:
        row = {}
        for label, nu in zip(("tau_0", "tau_inf"),
                             nu_exponents(pair.k, pair.t)):
            rho = next(monodromies)["rho"]
            tr = complex(rho[0, 0] + rho[1, 1])
            target = (-1.0) ** pair.k * 2.0 * math.cos(math.pi * nu)
            row[label] = {"trace": tr, "target": target,
                          "residual": abs(tr - target)}
        out.append(row)
    return out


def residue_derivative(ks) -> list[dict]:
    """Per k, d/dt|_0 rho(tau_0)^{-1} = 2 (k+1) pi i diag(1,-1), checked two
    ways: a centered difference of the monodromy in t, and the direct
    contour integral of PsiHat_0 over the realized tau_0 loop.  One
    transport lifts the loop at t = +-h for every k."""
    h = 1e-5
    loops = [(k, per.compute_ck(k).c_k,
              cov.deck_word_path(cov.CoverSpec(k), cov.word_end_zero(k)))
             for k in ks]
    # rho^{-1} = b^{-1} F_end = F_end at b = e0
    ends = iter(tr.F[-1] for tr in transport(
        [(AdmissiblePair(k, t, c), loop) for k, c, loop in loops
         for t in (h, -h)], rtol=1e-12))
    out = []
    for k, c, loop in loops:
        fwd, back = next(ends), next(ends)
        d_fd = (fwd - back) / (2.0 * h)
        pair = AdmissiblePair(k, 0.0, c)
        contour = wst.integrate_form(pair.spec, cov.lift(pair.spec, [loop]),
                                     pair.psihat0)[0][-1]
        target = 2.0 * (k + 1) * math.pi * 1j * np.diag([1.0, -1.0])
        out.append({
            "fd": d_fd,
            "contour": contour,
            "target": target,
            "fd_residual": float(np.max(np.abs(d_fd - target))),
            "contour_residual": float(np.max(np.abs(contour - target))),
        })
    return out


# ---------------------------------------------------------------------------
# the SU(1,1) initial frame
# ---------------------------------------------------------------------------

def construct_iota(pairs) -> list[dict]:
    """The two-step frame normalization of each pair, from one _rho_tildes
    call for all of them.

    rho~_2 at e0 has the form [[cos k lam - i u, i s1], [i s2, cos k lam + i u]]
    with u, s1, s2 real; iota is the real matrix that rotates it into SU(1,1).
    Conjugating rho~_3 by iota gives [[q, i r1], [i r2, conj q]] with r1 r2 < 0,
    and the diagonal rescaling iota_1 = iota diag(s, 1/s), s = (-r1/r2)^{1/4},
    finishes the job for the whole group."""
    pairs = list(pairs)
    return [_iota(pair, rho) for pair, rho in zip(pairs, _rho_tildes(pairs))]


def _iota(pair: AdmissiblePair, rho: dict) -> dict:
    k = pair.k
    lam = pair.spec.lam
    r2m = rho[2][0]
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

    r3m = _at_frame(rho[3][0], iota)
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


def su11_certify(pairs) -> list[dict]:
    """Certify for each pair that at b = iota_1 the three reflection
    matrices, every generator monodromy, and both end monodromies lie in
    SU(1,1); one loop_monodromy call lifts the word loops of every pair.
    Each row carries iota_1 and the form residual of its iota."""
    pairs = list(pairs)
    iotas = construct_iota(pairs)
    # gen_k1^0 is the base loop gamma, so each distinct word is listed once
    words = [[(f"gen_k1^{j}{tag}", cov.word_generator(j, k2))
              for j in range(pair.k + 1)
              for k2, tag in ((False, ""), (True, "_k2"))]
             + [("tau_0", cov.word_end_zero(pair.k)),
                ("tau_inf", cov.word_end_infinity(pair.k))]
             for pair in pairs]
    monodromies = iter(loop_monodromy(
        [(pair, word) for pair, labelled in zip(pairs, words)
         for _, word in labelled],
        [iota["iota1"] for iota, labelled in zip(iotas, words) for _ in labelled]))
    out = []
    for pair, iota, labelled in zip(pairs, iotas, words):
        rows = {}
        worst = 0.0
        for j in (1, 2, 3):
            defect = su11_defect(rho_tilde(pair, j, b=iota["iota1"]))
            rows[f"rho~_{j}"] = {"su11_defect": defect,
                                 "route_disagreement": 0.0}
            worst = max(worst, defect)
        worst_det = 0.0
        for label, _ in labelled:
            res = next(monodromies)
            defect = su11_defect(res["rho"])
            rows[label] = {"su11_defect": defect,
                           "route_disagreement": res["route_disagreement"],
                           "det_defect": res["det_defect"]}
            worst = max(worst, defect)
            worst_det = max(worst_det, res["det_defect"])
        certified = bool(worst < 1e-8)
        if not certified:
            raise NumericalError(
                f"SU(1,1) certification failed: defect {worst:.2e}")
        out.append({"certified": certified, "worst_defect": worst,
                    "worst_det_defect": worst_det, "words": rows,
                    "iota1": iota["iota1"],
                    "iota_form_residual": iota["form_residual"]})
    return out


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
    """x = (x0, x1, x2, x3) of f = F e3 F^*, for a frame or a stack of
    frames (..., 2, 2); x along a new last axis."""
    f = F @ E3 @ np.swapaxes(F, -1, -2).conj()
    return np.stack([0.5 * (f[..., 0, 0] + f[..., 1, 1]).real, f[..., 0, 1].real,
                     f[..., 0, 1].imag, 0.5 * (f[..., 0, 0] - f[..., 1, 1]).real],
                    axis=-1)


def desitter_defect(x: np.ndarray) -> float:
    """The largest |(-x0^2 + x1^2 + x2^2 + x3^2) - 1| over the points x
    (..., 4)."""
    return float(np.max(np.abs(-x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2
                               + x[..., 3] ** 2 - 1.0)))


def desitter_sample(pairs, z_values, b=None) -> list[dict]:
    """Sample the CMC-1 face of each pair at the given z values (lifted from
    the base point along straight legs, detoured about the branch points,
    initial frame b: one for all pairs or one per pair); one transport for
    every pair."""
    pairs = list(pairs)
    frames = np.repeat(_frames(b, len(pairs)), len(z_values), axis=0)
    lifts = transport([(pair, _straight_path(pair.spec, z))
                       for pair in pairs for z in z_values], frames)
    out = []
    for i in range(len(pairs)):
        mine = lifts[i * len(z_values):(i + 1) * len(z_values)]
        xs = hermitian_coordinates(np.array([tr.F[-1] for tr in mine]))
        out.append({"x": xs, "hyperboloid_defect": desitter_defect(xs)})
    return out


def desitter_grid(pair: AdmissiblePair, b: np.ndarray | None = None) -> dict:
    """Sample the CMC-1 face on a 12 x 17 polar grid in the z-plane,
    1.3 <= r <= 3, |theta| <= 1.2, marching the frame row by row from the
    base point (deterministic legs, quad faces; the grid stays in the right
    half plane clear of the branch points)."""
    o = cov.base_point(pair.spec)
    nr, nth = 12, 16
    radii = np.exp(np.linspace(math.log(1.3), math.log(3.0), nr))
    thetas = np.linspace(-1.2, 1.2, nth + 1)
    column = [o.z] + [radii[i] * cmath.exp(1j * thetas[0]) for i in range(nr)]
    # row i: down the theta0 column to radius i, then along the row
    paths = [cov.SurfacePath(
        column[:i + 2] + [radii[i] * cmath.exp(1j * th) for th in thetas[1:]],
        o.w) for i in range(nr)]
    xs = hermitian_coordinates(np.concatenate(
        [tr.F[i + 1:] for i, tr in enumerate(transport(
            [(pair, path) for path in paths], b, 1e-10))]))
    return {"x": xs, "faces": wst._grid_faces(nr, nth + 1),
            "hyperboloid_defect": desitter_defect(xs), "rows": nr, "cols": nth + 1}


# ---------------------------------------------------------------------------
# secondary Gauss map g = F^{-1} . G (the Moebius action of the inverse lift
# frame on the Gauss map G = c w / z) and the Schwarzian relation
# ---------------------------------------------------------------------------

def _via_probe(pair: AdmissiblePair, probes, points) -> list[Transport]:
    """One transport of the paths base point -> probes[i] -> points[i][m],
    in row-major order; F[1], w[1] are the lift at the probe and F[2], w[2]
    the lift at the point."""
    o = cov.base_point(pair.spec)
    return transport([
        (pair, cov.SurfacePath((o.z, complex(probe), complex(z)), o.w))
        for probe, row in zip(probes, points) for z in row])


def _hopf_shift(pair: AdmissiblePair, z: complex) -> complex:
    """2 Qhat_t = (2 t k/(k+1)) (z^2+1) / (z^2 (z^2-1))."""
    k, t = pair.k, pair.t
    return (2.0 * t * k / (k + 1)) * (z * z + 1.0) / (z * z * (z * z - 1.0))


def schwarzian_relation(pair: AdmissiblePair, probes) -> dict:
    """S(g) - S(G) = 2 Qhat_t at each probe, from finite-difference
    Schwarzians of step 0.02 (1+|z|).  One transport lifts base point ->
    probe -> stencil point for every stencil point of every probe; G and g
    are read off the lift at each point.  Values are arrays over the probes."""
    probes = np.asarray(probes, dtype=complex)

    def g_and_G(points: np.ndarray) -> np.ndarray:
        lifts = _via_probe(pair, probes, points)
        zs = [complex(z) for z in points.ravel()]
        G = [pair.c * tr.w[-1] / z for tr, z in zip(lifts, zs)]
        g = [complex(moebius_apply(inv2(tr.F[-1]), Gz))
             for tr, Gz in zip(lifts, G)]
        return np.array([g, G]).reshape((2,) + points.shape)

    s_g, s_G = schwarzian_fd(g_and_G, probes, step=0.02 * (1.0 + np.abs(probes)))
    target = _hopf_shift(pair, probes)
    diff = s_g - s_G
    return {"S_g": s_g, "S_G": s_G, "difference": diff, "target": target,
            "rel_residual": np.abs(diff - target) / (1.0 + np.abs(target))}


# ---------------------------------------------------------------------------
# end asymptotics
# ---------------------------------------------------------------------------

def _end_ray(which: str) -> list[complex]:
    # the z=inf end converges more slowly (nu_inf < nu_0): it goes deeper
    if which == "zero":
        depth = 1e-7
        verts = [2.0 + 0.0j, 1.2 + 0.9j, 0.35 + 0.0j]
        z = 0.35
        while z > depth:
            z *= 0.72
            verts.append(complex(z))
        return verts
    if which == "infinity":
        depth = 1e-10
        verts = [2.0 + 0.0j]
        z = 2.0
        while z < 1.0 / depth:
            z *= 2.0
            verts.append(complex(z))
        return verts
    raise ValidationError("end must be 'zero' or 'infinity'")


_ENDS = ("zero", "infinity")


def end_asymptotics(pair: AdmissiblePair) -> list[dict]:
    """Slope of log|x1 + i x2| against log x0 along a ray into each end,
    one dict per end of `_ENDS`, both rays lifted in one transport call.

    The lift has |x0| -> inf with x3/x0 -> 1 and the transverse part growing
    with exponent nu/(k + nu), nu = nu_0 or nu_inf.  (The sign of x0 depends
    on the initial frame and deck sheet; the fit uses log |x0|.)  The fit is
    reported with its R^2; below 0.999 the result is flagged inconclusive."""
    # a ray stays clear of the branch points except the end it runs into
    # radially, where a clearance detour would circle that end on every leg
    w0 = cov.base_point(pair.spec).w
    trs = transport([(pair, cov.SurfacePath(_end_ray(which), w0)) for which in _ENDS],
                    detour=False)
    return [_end_fit(pair, which, tr) for which, tr in zip(_ENDS, trs)]


def _end_fit(pair: AdmissiblePair, which: str, tr: Transport) -> dict:
    """The growth fit of one end from the lift `tr` of its ray."""
    y_samples = hermitian_coordinates(tr.F[1:])
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

def deformation_report(k: int, ts) -> list[dict]:
    """The cmc1 row of each t: exponents, probe spreads and the iota, SU(1,1),
    trace and theta checks, each check lifting every t in one call."""
    pairs = [AdmissiblePair(k, t) for t in ts]
    rhos = _rho_tildes(pairs)
    certs = su11_certify(pairs)
    traces = trace_identity_check(pairs)
    out = []
    for pair, rho, cert, trace in zip(pairs, rhos, certs, traces):
        nu0, nuinf = nu_exponents(k, pair.t)
        out.append({
            "k": k, "t": pair.t, "c": pair.c,
            "nu_0": nu0, "nu_inf": nuinf,
            "probe_spreads": {j: rho[j][1] for j in (1, 2, 3)},
            "iota_form_residual": cert["iota_form_residual"],
            "su11_worst_defect": cert["worst_defect"],
            "worst_det_defect": cert["worst_det_defect"],
            "trace_tau0_residual": trace["tau_0"]["residual"],
            "trace_tauinf_residual": trace["tau_inf"]["residual"],
            "theta0_residual": theta_zero_check(pair)["residual"],
        })
    return out
