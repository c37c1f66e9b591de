"""Period closure for the genus-k family.

The immersion closes up iff Re oint Phi = 0 over every homology generator.
The rotational symmetry of the data reduces all 2(k+1) generators to the one
concrete loop gamma, and on gamma the condition collapses to a scalar
equation in the Weierstrass parameter c:

    oint eta  +  conj( oint G^2 eta )  =  0 ,

whose positive root is c_k = sqrt(B_k / (2 A_k)) with

    A_k = Int_0^1 ( t / (1 - t^2) )^{1/(k+1)} dt ,
    B_k = Int_0^1 ( t (1 - t^2)^k )^{-1/(k+1)} dt .

Two independent routes are kept: compute_ck evaluates A_k, B_k by
double-exponential quadrature (cross-checked against the Euler Beta closed
forms), while solve_ck_by_root integrates eta and G^2 eta over the realized
loop on the cover and bisects the signed closure residual in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cover as cov
from . import weierstrass as wst
from .algebra import quad_singular
from .errors import NumericalError, ValidationError


# ---------------------------------------------------------------------------
# the Beta-type constants
# ---------------------------------------------------------------------------

def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def compute_AkBk(k: int) -> tuple[float, float]:
    """A_k and B_k by tanh-sinh quadrature to 1e-10, checked against the Beta
    closed forms A_k = B((k+2)/(2k+2), k/(k+1))/2, B_k = B(k/(2k+2), 1/(k+1))/2."""
    if k < 1:
        raise ValidationError("k >= 1")
    n = k + 1.0

    # integrands in log space: at deep tanh-sinh nodes b ~ 1e-300 and b**k
    # would underflow to 0 before the outer fractional power is applied
    def fa(a, b):
        # (t/(1-t^2))^{1/n} with t = a, 1-t = b
        return math.exp((math.log(a) - math.log(b) - math.log(2.0 - b)) / n)

    def fb(a, b):
        # B_k after 1 - t = v^n: (1-t)^(-k/n) dt = n dv exactly, and what is
        # left, t^(-1/n) (1+t)^(-k/n), is mild at v = 1; there t = 1 - (1-b)^n
        # is formed without cancellation (v = a, 1 - v = b)
        t = -math.expm1(n * math.log1p(-b)) if b < 0.5 else 1.0 - a ** n
        return n * math.exp(-(math.log(t) + k * math.log1p(t)) / n)

    A = quad_singular(fa, 1e-10).real
    B = quad_singular(fb, 1e-10).real
    A_beta = 0.5 * math.exp(_log_beta((k + 2) / (2 * n), k / n))
    B_beta = 0.5 * math.exp(_log_beta(k / (2 * n), 1.0 / n))
    if abs(A - A_beta) > 1e-9 * (1 + A_beta) or abs(B - B_beta) > 1e-9 * (1 + B_beta):
        raise NumericalError(
            f"A_k/B_k quadrature disagrees with Beta closed form at k={k}: "
            f"{A} vs {A_beta}, {B} vs {B_beta}"
        )
    return A, B


@dataclass(frozen=True)
class CkSolution:
    k: int
    A_k: float
    B_k: float
    c_k: float
    rho_k: float      # c_k^(-2(k+1)/k), the squared singular-set level
    Gamma_k: float    # arcsin(sqrt(rho_k)/2): angular half-width of the ovals
    lower_bound: float  # sqrt(s_k/2) bound (k>=2); 1.0 for k=1


def _derived(k: int, A: float, B: float) -> CkSolution:
    c = math.sqrt(B / (2.0 * A))
    rho = c ** (-2.0 * (k + 1) / k)
    if not (0.0 < rho < 2.0):
        raise NumericalError(f"rho_k out of (0,2): {rho}")
    gamma = math.asin(math.sqrt(rho) / 2.0)
    if k >= 2:
        s_k = k ** (1.0 / (k + 1)) * (k / (k - 1.0)) ** ((k - 1.0) / (k + 1))
        bound = math.sqrt(s_k / 2.0)
    else:
        bound = 1.0
    return CkSolution(k, A, B, c, rho, gamma, bound)


@lru_cache(maxsize=32)
def compute_ck(k: int) -> CkSolution:
    A, B = compute_AkBk(k)
    sol = _derived(k, A, B)
    if not sol.c_k > sol.lower_bound:
        raise NumericalError(f"c_{k} = {sol.c_k} violates its lower bound "
                             f"{sol.lower_bound}")
    return sol


# ---------------------------------------------------------------------------
# direct loop periods on the cover
# ---------------------------------------------------------------------------

def period_vector(data: wst.WeierstrassData, loop: cov.SurfacePath) -> np.ndarray:
    """oint Phi over a closed lifted loop (complex 3-vector), to integrate_phi's
    tolerance 1e-10; raises if the loop does not close on the cover."""
    if abs(loop.start - loop.end) > 1e-12:
        raise ValidationError("period_vector needs a closed z-polyline")
    if data.cover is None:
        return wst.integrate_phi(data, loop)[-1]
    lifted = cov.LiftedPath(data.cover, loop)
    if not lifted.is_closed():
        raise ValidationError(f"loop {loop.label!r} does not close on the cover")
    return wst.integrate_phi(data, lifted)[-1]


def closure_residual(data: wst.WeierstrassData, loop: cov.SurfacePath) -> float:
    return float(np.max(np.abs(period_vector(data, loop).real)))


@lru_cache(maxsize=32)
def _gamma_raw_integrals(k: int) -> tuple[complex, complex]:
    """E = oint_gamma eta and J = oint_gamma (w/z^2) dz on the full cover
    (c-independent; G^2 eta = c^2 J)."""
    spec = cov.CoverSpec(k)
    gamma = cov.deck_word_path(spec, cov.word_base_loop())
    E, J = wst.integrate_form(
        spec, gamma, lambda z, w: np.array([1.0 / w, w / (z * z)]))[-1]
    return complex(E), complex(J)


def solve_ck_by_root(k: int) -> float:
    """Root-find c > 0 closing the gamma loop, by bisection on the signed
    scalar residual Im( oint eta + conj(oint G^2 eta) ) over [0.2, 5], to an
    interval of width 1e-12.

    The contour integrals are evaluated directly on the realized loop (the
    independent route; no Beta-function identities involved)."""
    E, J = _gamma_raw_integrals(k)

    def residual(c: float) -> float:
        s = E + (c * c * J).conjugate()
        return s.imag

    lo, hi = 0.2, 5.0
    flo, fhi = residual(lo), residual(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError("closure residual does not change sign on (0.2, 5.0)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = residual(mid)
        if fm == 0.0 or (hi - lo) < 1e-12:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# symmetry reduction
# ---------------------------------------------------------------------------

def _rot_block(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def symmetry_reduction_check(k: int, n_samples: int = 50) -> dict:
    """Verify the pullback identities that reduce all generators to gamma:

        Phi o kappa_1 = R(2 k lam) Phi,     Phi o kappa_2 = R(k lam) Phi,

    where R(phi) rotates the (x1, x2) components and fixes x0.  (With the
    transposed rotation convention the second angle reads -k lam; the identity
    checked here is the numerically literal one.)  Returns the max residual
    over cover points drawn from a fixed-seed generator, at c = c_k."""
    data = wst.catalog_get("genus_k", k=k, c=compute_ck(k).c_k)
    spec = data.cover
    rng = np.random.default_rng(11)
    r1 = _rot_block(2 * k * spec.lam)
    r2 = _rot_block(k * spec.lam)
    worst = 0.0
    for _ in range(n_samples):
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
        if min(abs(z), abs(z - 1), abs(z + 1)) < 0.2:
            continue
        sheet = int(rng.integers(0, spec.sheet_count))
        w = spec.fiber(z)[sheet]
        p = cov.SurfacePoint(z, w)
        phi_p = data.phi(p)
        # kappa_1 fixes z so the form pullback needs no dz factor
        q1 = cov.kappa1_apply(spec, p)
        res1 = np.max(np.abs(data.phi(q1) - r1 @ phi_p))
        # kappa_2 sends z -> -z; pullback multiplies the dz-coefficient by -1
        q2 = cov.kappa2_apply(spec, p)
        res2 = np.max(np.abs(-data.phi(q2) - r2 @ phi_p))
        worst = max(worst, float(res1), float(res2))
    return {"k": k, "max_residual": worst, "rotation_angles": [2 * k * spec.lam,
                                                               k * spec.lam]}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def period_report(k: int) -> dict:
    """Full period diagnostics for one k: constants, dual-route agreement,
    and the closure residuals of all 2(k+1) generator loops at c = c_k."""
    sol = compute_ck(k)
    c_root = solve_ck_by_root(k)
    data = wst.catalog_get("genus_k", k=k, c=sol.c_k)
    spec = data.cover
    residuals = {}
    for loop in cov.generator_loops(spec):
        residuals[loop.label] = closure_residual(data, loop)
    sym = symmetry_reduction_check(k, n_samples=20)
    return {
        "k": k,
        "A_k": sol.A_k,
        "B_k": sol.B_k,
        "c_k": sol.c_k,
        "c_k_by_root": c_root,
        "route_disagreement": abs(sol.c_k - c_root),
        "rho_k": sol.rho_k,
        "Gamma_k": sol.Gamma_k,
        "lower_bound": sol.lower_bound,
        "residuals": residuals,
        "symmetry_residual": sym["max_residual"],
    }
