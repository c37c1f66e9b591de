"""Small complex-matrix and quadrature substrate.

2x2 complex matrices are plain numpy arrays throughout.  This module keeps the
numeric workhorses used everywhere else: Moebius action, the SU(1,1)
defect, double-exponential quadrature for endpoint-singular integrals,
Gauss-Kronrod panels for path integrals, a finite-difference Schwarzian
derivative, and a batched Dormand-Prince integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, NumericalError, QuadratureError, ValidationError

EYE2 = np.eye(2, dtype=complex)
# signature matrix of the Hermitian model; also the J defining U(1,1)
E3 = np.diag([1.0 + 0j, -1.0 + 0j])

INFINITY = complex(float("inf"), 0.0)


def is_infinity(h: complex) -> bool:
    return math.isinf(h.real) or math.isinf(h.imag)


def ensure_finite(x, what: str = "value"):
    arr = np.asarray(x)
    ok = np.all(np.isfinite(arr.real)) and (
        not np.iscomplexobj(arr) or np.all(np.isfinite(arr.imag)))
    if not ok:
        raise NumericalError(f"non-finite {what}: {x!r}")
    return x


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def det2(a: np.ndarray) -> complex:
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def inv2(a: np.ndarray) -> np.ndarray:
    d = det2(a)
    if d == 0:
        raise DegenerateError("singular 2x2 matrix")
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=complex) / d


def moebius_apply(a: np.ndarray, h: complex) -> complex:
    """Fractional-linear action of a (2x2, det != 0) on h in C u {inf}."""
    if is_infinity(h):
        num, den = a[0, 0], a[1, 0]
    else:
        num, den = a[0, 0] * h + a[0, 1], a[1, 0] * h + a[1, 1]
    if den == 0:
        if num == 0:
            raise DegenerateError("moebius_apply: 0/0 (singular matrix?)")
        return INFINITY
    return num / den


def su11_defect(a: np.ndarray) -> float:
    """Frobenius norm of a* J a - J with J = diag(1,-1), plus |det-1| folded in.

    Zero exactly on SU(1,1); the value is the certification defect used by the
    monodromy checks.
    """
    r = a.conj().T @ E3 @ a - E3
    return float(np.linalg.norm(r)) + abs(det2(a) - 1.0)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on (0,1) with endpoint power singularities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Declares the endpoint behaviour of an integrand on (0,1).

    left_exponent / right_exponent are the power-law exponents at t=0 / t=1
    (both must be > -1 for convergence).  tol is the absolute tolerance,
    max_level the deepest double-exponential refinement level (node spacing
    h = 2^-level).
    """

    left_exponent: float = 0.0
    right_exponent: float = 0.0
    tol: float = 1e-12
    max_level: int = 12

    def __post_init__(self):
        if not (self.left_exponent > -1.0 and self.right_exponent > -1.0):
            raise ValidationError("endpoint exponents must be > -1")
        if not (self.tol > 0.0):
            raise ValidationError("tol must be positive")
        if not (1 <= self.max_level <= 20):
            raise ValidationError("max_level out of range")


_UMAX = 6.5  # |u| beyond which double-exponential weights underflow float64


def _ts_nodes(h: float, only_odd: bool):
    """Yield (a, b, weight) with a = t, b = 1-t, both computed stably."""
    n = 1 if only_odd else 0
    step = 2 if only_odd else 1
    if not only_odd:
        # u = 0 node
        yield 0.5, 0.5, 0.25 * math.pi * h
        n = 1
    u = n * h
    while u <= _UMAX:
        s = math.sinh(u)
        c = math.cosh(u)
        y = math.pi * s
        if y > 690.0:  # e^y would overflow; tail is below 1e-299 already
            break
        es = math.exp(y)
        # x(u) = 1/(1+e^{-pi s}) -> near 1;  1-x = 1/(1+e^{pi s})
        b_small = 1.0 / (1.0 + es)           # distance to the near endpoint
        a_big = 1.0 - b_small                # far endpoint distance (fine: ~1)
        # dt/du = (pi/4) cosh(u) sech^2((pi/2) sinh u); sech^2(v)=4/(e^{2v}+2+e^{-2v})
        sech2 = 4.0 / (es + 2.0 + 1.0 / es)
        w = 0.25 * math.pi * c * sech2 * h
        if b_small > 0.0 and w > 0.0:
            yield a_big, b_small, w   # node near t=1
            yield b_small, a_big, w   # mirrored node near t=0
        u += step * h


def quad_singular(f, spec: QuadratureSpec) -> complex:
    """Integrate f over (0,1) by tanh-sinh refinement.

    The integrand is called as f(a, b) where a is the distance to 0 (= t) and
    b the distance to 1 (= 1-t), both formed without cancellation so that
    endpoint powers as strong as t^-0.95 stay accurate in float64.  Raises
    QuadratureError if max_level refinements do not reach spec.tol.
    """
    total = 0.0 + 0.0j
    prev = None
    for level in range(1, spec.max_level + 1):
        h = 0.5 ** level
        acc = 0.0 + 0.0j
        for a, b, w in _ts_nodes(h, only_odd=(level > 1)):
            acc += w * complex(f(a, b))
        if level == 1:
            total = acc
        else:
            total = 0.5 * total + acc  # halving h: old nodes keep half weight
        if prev is not None:
            err = abs(total - prev)
            if err <= max(spec.tol, 1e-15 * abs(total)) and level >= 3:
                return ensure_finite(total, "quadrature result")
        prev = total
    raise QuadratureError(
        f"tanh-sinh did not reach tol={spec.tol} in {spec.max_level} levels"
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 adaptive panels (for path integrals of smooth integrands)
# ---------------------------------------------------------------------------

_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])


# the 15 panel nodes (+x, then -x, then the centre) and their Kronrod and
# Gauss-7 weights; Kronrod nodes 1, 3, 5 are the Gauss-7 nodes
_X15 = np.concatenate([_XK[:-1], -_XK[:-1], _XK[-1:]])
_W15 = np.concatenate([_WK[:-1], _WK[:-1], _WK[-1:]])
_G15 = np.zeros(15)
_G15[[1, 3, 5, 8, 10, 12, 14]] = np.concatenate([_WG[:-1], _WG])


def _gk15(f, a: float, b: float):
    """One Kronrod-15 panel on [a,b].  f takes the array of the 15 nodes and
    returns its values along the last axis (a complex array of any leading
    shape)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = np.asarray(f(mid + half * _X15), dtype=complex)
    k = half * (fv @ _W15)
    g = half * (fv @ _G15)
    err = float(np.max(np.abs(k - g)))
    return k, err


def gk_adaptive(f, a: float, b: float, tol: float, max_depth: int = 28):
    """Adaptive bisection of Kronrod panels to absolute tolerance tol; f is
    called once per panel, on an array of nodes (see _gk15)."""
    val, err = _gk15(f, a, b)
    if err <= tol or (b - a) < 1e-14:
        return val
    if max_depth == 0:
        raise QuadratureError(f"Gauss-Kronrod panel stuck at err={err:.3e}")
    m = 0.5 * (a + b)
    return (gk_adaptive(f, a, m, 0.5 * tol, max_depth - 1)
            + gk_adaptive(f, m, b, 0.5 * tol, max_depth - 1))


# ---------------------------------------------------------------------------
# finite-difference Schwarzian derivative
# ---------------------------------------------------------------------------

def schwarzian_fd(h, z: complex, step: float | None = None) -> complex:
    """Schwarzian derivative S(h)(z) = h'''/h' - (3/2)(h''/h')^2 by central FD.

    Five-point stencils for h', h'', h''' at spacings d and d/2, combined with
    one Richardson level (the leading error of the h''' stencil is O(d^2)).
    The default step macheps^(1/5) * (1+|z|) assumes h is evaluated to machine
    accuracy; pass a larger step for evaluators with numerical noise (e.g. ODE
    continuations).
    """
    if step is None:
        step = (2.2e-16) ** 0.2 * (1.0 + abs(z))

    def s_at(d: float) -> complex:
        f2p = complex(h(z + 2 * d))
        f1p = complex(h(z + d))
        f0 = complex(h(z))
        f1m = complex(h(z - d))
        f2m = complex(h(z - 2 * d))
        d1 = (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * d)
        d2 = (-f2p + 16 * f1p - 30 * f0 + 16 * f1m - f2m) / (12 * d * d)
        d3 = (f2p - 2 * f1p + 2 * f1m - f2m) / (2 * d ** 3)
        if abs(d1) < 1e-13 * (1.0 + abs(f0)):
            raise DegenerateError("schwarzian_fd: h' ~ 0 at sample point")
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    s_coarse = s_at(step)
    s_fine = s_at(0.5 * step)
    return ensure_finite((4.0 * s_fine - s_coarse) / 3.0, "schwarzian")


# ---------------------------------------------------------------------------
# embedded Runge-Kutta (Dormand-Prince 5(4)) for complex vector fields
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def dormand_prince(f, y0: np.ndarray, s0: float, s1: float,
                   rtol: float = 1e-11, atol: float = 1e-13,
                   max_steps: int = 200000) -> np.ndarray:
    """Integrate N independent complex systems y_i' = f(s, y)_i from s0 to s1.

    y0 has shape (N, m).  Every row runs the classic 5(4) embedded pair with
    PI-free step control on its own: its own s, step size and accept mask,
    with the local error per step held below atol + rtol * |y| componentwise
    in that row.  f(s, y, rows) is called with the rows still running: s of
    shape (n,), y of shape (n, m) and their indices rows into y0; it returns
    dy/ds of shape (n, m).  Finished rows drop out of the batch."""
    out = np.array(y0, dtype=complex)
    span = abs(s1 - s0)
    if span == 0.0 or len(out) == 0:
        return out
    direction = 1.0 if s1 >= s0 else -1.0
    rows = np.arange(len(out))
    y = out
    s = np.full(len(out), float(s0))
    h = np.full(len(out), direction * min(0.1 * span + 1e-12, span))
    k = [None] * 7
    k[0] = np.asarray(f(s, y, rows), dtype=complex)
    for _ in range(max_steps):
        h = np.where(np.abs(h) > np.abs(s1 - s), s1 - s, h)
        hc = h[:, None]
        for i in range(1, 7):
            acc = y + hc * sum(a * k[j] for j, a in enumerate(_DP_A[i]) if a != 0.0)
            k[i] = np.asarray(f(s + _DP_C[i] * h, acc, rows), dtype=complex)
        y5 = y + hc * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
        err = hc * sum((b5 - b4) * k[j]
                       for j, (b5, b4) in enumerate(zip(_DP_B5, _DP_B4))
                       if b5 != b4)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = np.max(np.abs(err) / scale, axis=1)
        ok = enorm <= 1.0
        # on rejection a row keeps its y, s and k[0]; only its step shrinks
        y = np.where(ok[:, None], y5, y)
        s = np.where(ok, s + h, s)
        k[0] = np.where(ok[:, None], k[6], k[0])  # FSAL
        done = ok & ((s == s1) | (np.abs(s1 - s) < 1e-15 * span))
        with np.errstate(divide="ignore"):
            factor = 0.9 * enorm ** -0.2
        # fmin/fmax drop a NaN error norm to the smallest factor
        h = h * np.fmin(5.0, np.fmax(0.2, factor))
        if done.any():
            out[rows[done]] = ensure_finite(y[done], "ODE state")
            keep = ~done
            rows, y, s, h = rows[keep], y[keep], s[keep], h[keep]
            k[0] = k[0][keep]
            if len(rows) == 0:
                return out
        if np.any(np.abs(h) < 1e-16 * span):
            raise NumericalError(f"step size underflow at s={s.min()}")
    raise NumericalError(f"ODE step budget exhausted at s={s.min()}")
