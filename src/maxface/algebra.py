"""Small complex-matrix and quadrature substrate.

2x2 complex matrices are plain numpy arrays throughout.  This module keeps the
numeric workhorses used everywhere else: Moebius action, the SU(1,1)
defect, double-exponential quadrature for endpoint-singular integrals,
Gauss-Kronrod panels for path integrals, a finite-difference Schwarzian
derivative, and a batched DOP853 integrator (Dormand-Prince 8(5,3)) for
the de Sitter lift.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateError, NumericalError, QuadratureError

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

_TS_MAX_LEVEL = 12  # deepest refinement level (node spacing h = 2^-level)
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


def quad_singular(f, tol: float) -> complex:
    """Integrate f over (0,1) by tanh-sinh refinement to absolute tolerance
    tol.

    The integrand is called as f(a, b) where a is the distance to 0 (= t) and
    b the distance to 1 (= 1-t), both formed without cancellation so that
    endpoint powers as strong as t^-0.95 stay accurate in float64.  Raises
    QuadratureError at the first level whose sum is not finite, or if
    _TS_MAX_LEVEL refinements do not reach tol.
    """
    total = 0.0 + 0.0j
    prev = None
    for level in range(1, _TS_MAX_LEVEL + 1):
        h = 0.5 ** level
        acc = 0.0 + 0.0j
        for a, b, w in _ts_nodes(h, only_odd=(level > 1)):
            acc += w * complex(f(a, b))
        if level == 1:
            total = acc
        else:
            total = 0.5 * total + acc  # halving h: old nodes keep half weight
        if not np.isfinite(total):
            raise QuadratureError(f"tanh-sinh sum is not finite at level {level}")
        if prev is not None:
            err = abs(total - prev)
            if err <= max(tol, 1e-15 * abs(total)) and level >= 3:
                return total
        prev = total
    raise QuadratureError(
        f"tanh-sinh did not reach tol={tol} in {_TS_MAX_LEVEL} levels"
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


def gk_batched(f, n: int, tol: float, max_depth: int = 28) -> np.ndarray:
    """Integrals over [0, 1] of n integrands, each to absolute tolerance tol,
    by Kronrod-15 panels bisected breadth first (the vector form of
    QUADPACK's qag).

    Each level makes one call f(idx, x): idx (panels,) the integrand of each
    panel, x (panels, 15) its nodes; f returns the values with the panels
    and nodes on the last two axes (a complex array of any leading shape).
    A panel at depth d is accepted when its Kronrod-Gauss difference is at
    most tol / 2^d or it is narrower than 1e-14; a panel still open at depth
    max_depth, or one whose difference is not finite (bisection cannot mend
    a NaN or an infinity), raises QuadratureError.  Returns shape (n,) +
    leading shape, each integral summed over its panels in the order
    recursive bisection adds them: left half, then right half."""
    idx = np.arange(n)
    a, b = np.zeros(n), np.ones(n)
    levels = []
    for depth in range(max_depth + 1):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fv = np.asarray(f(idx, mid[:, None] + half[:, None] * _X15), dtype=complex)
        # one (rows, 15) product per rule; from two rows up, each row's sum
        # rounds the same whatever the other rows are (a one-row product
        # takes another BLAS kernel and may round differently)
        rows = fv.reshape(-1, 15)
        k = half * (rows @ _W15).reshape(fv.shape[:-1])
        g = half * (rows @ _G15).reshape(fv.shape[:-1])
        err = np.max(np.abs(k - g), axis=tuple(range(k.ndim - 1)))
        if not np.isfinite(err).all():
            raise QuadratureError(
                f"Gauss-Kronrod panel is not finite at depth {depth}")
        split = ~((err <= tol * 0.5 ** depth) | (b - a < 1e-14))
        levels.append((np.moveaxis(k, -1, 0), split))
        if not split.any():
            break
        if depth == max_depth:
            raise QuadratureError(
                f"Gauss-Kronrod panel stuck at err={err[split][0]:.3e}")
        idx = np.repeat(idx[split], 2)
        mid = mid[split]
        a = np.stack([a[split], mid], axis=1).reshape(-1)
        b = np.stack([mid, b[split]], axis=1).reshape(-1)
    total = None
    for k, split in reversed(levels):
        if total is not None:
            k[split] = total[0::2] + total[1::2]
        total = k
    return total


# ---------------------------------------------------------------------------
# finite-difference Schwarzian derivative
# ---------------------------------------------------------------------------

# stencil offsets in units of the step: the five-point stencils at spacings
# step and step/2 share the centre and the points at +-step
_SCHWARZIAN_OFFSETS = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def schwarzian_fd(h, z, step=None):
    """Schwarzian derivative S(h)(z) = h'''/h' - (3/2)(h''/h')^2 by central FD.

    Five-point stencils for h', h'', h''' at spacings d and d/2, combined with
    one Richardson level (the leading error of the h''' stencil is O(d^2)).
    z (and step) is a scalar or an array.  h is called once, on the stencil
    points z[..., None] + step[..., None] * _SCHWARZIAN_OFFSETS, and returns
    its values there along the last axis, with any leading shape (several
    functions may be stacked); the result has the shape of the values less
    that axis.  The default step macheps^(1/5) * (1+|z|) assumes h is
    evaluated to machine accuracy; pass a larger step for evaluators with
    numerical noise (e.g. ODE continuations).
    """
    z = np.asarray(z, dtype=complex)
    if step is None:
        step = (2.2e-16) ** 0.2 * (1.0 + np.abs(z))
    step = np.asarray(step, dtype=float)
    f = np.moveaxis(np.asarray(
        h(z[..., None] + step[..., None] * _SCHWARZIAN_OFFSETS),
        dtype=complex), -1, 0)

    def s_at(d, f2m, f1m, f0, f1p, f2p):
        d1 = (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * d)
        d2 = (-f2p + 16 * f1p - 30 * f0 + 16 * f1m - f2m) / (12 * d * d)
        d3 = (f2p - 2 * f1p + 2 * f1m - f2m) / (2 * d ** 3)
        if np.any(np.abs(d1) < 1e-13 * (1.0 + np.abs(f0))):
            raise DegenerateError("schwarzian_fd: h' ~ 0 at sample point")
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    s_coarse = s_at(step, f[0], f[1], f[3], f[5], f[6])
    s_fine = s_at(0.5 * step, f[1], f[2], f[3], f[4], f[5])
    return ensure_finite((4.0 * s_fine - s_coarse) / 3.0, "schwarzian")


# ---------------------------------------------------------------------------
# embedded Runge-Kutta (Dormand-Prince 8(5,3), DOP853) for complex vector fields
# ---------------------------------------------------------------------------

# Hairer's DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10;
# Prince & Dormand 1981) as the nonzero (stage, weight) terms of each stage
# sum, in tableau order.  Row 12 is the 8th-order weights b: stage 12 is
# evaluated at the new solution and is the next step's stage 0 (FSAL).
_D8_C = (0.0, 0.526001519587677318785587544488e-1,
         0.789002279381515978178381316732e-1,
         0.118350341907227396726757197510, 0.281649658092772603273242802490,
         0.333333333333333333333333333333, 0.25,
         0.307692307692307692307692307692, 0.651282051282051282051282051282,
         0.6, 0.857142857142857142857142857142, 1.0, 1.0)
_D8_B = ((0, 5.42937341165687622380535766363e-2),
         (5, 4.45031289275240888144113950566),
         (6, 1.89151789931450038304281599044),
         (7, -5.8012039600105847814672114227),
         (8, 3.1116436695781989440891606237e-1),
         (9, -1.52160949662516078556178806805e-1),
         (10, 2.01365400804030348374776537501e-1),
         (11, 4.47106157277725905176885569043e-2))
_D8_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2),
     (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2),
     (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1),
     (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2),
     (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2),
     (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1),
     (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1),
     (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1),
     (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1),
     (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1),
     (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1),
     (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1),
     (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1),
     (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654),
     (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1),
     (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762),
     (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449),
     (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444),
     (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1),
     (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258),
     (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    _D8_B,
)
# the two embedded error estimates: the 5th-order one, and the 3rd-order
# one, b less the weights bhh of a 3rd-order solution at stages 0, 8, 11
_D8_E5 = ((0, 0.1312004499419488073250102996e-1),
          (5, -0.1225156446376204440720569753e1),
          (6, -0.4957589496572501915214079952),
          (7, 0.1664377182454986536961530415e1),
          (8, -0.3503288487499736816886487290),
          (9, 0.3341791187130174790297318841),
          (10, 0.8192320648511571246570742613e-1),
          (11, -0.2235530786388629525884427845e-1))
_D8_BHH = {0: 0.244094488188976377952755905512,
           8: 0.733846688281611857341361741547,
           11: 0.220588235294117647058823529412e-1}
_D8_E3 = tuple((j, b - _D8_BHH.get(j, 0.0)) for j, b in _D8_B)


def _weighted_sum(k: np.ndarray, terms, out: np.ndarray,
                  product: np.ndarray) -> np.ndarray:
    """out = sum of w * k[j] over terms, added left to right in their order
    (the rounding of Python's sum over the same products)."""
    (j, w), rest = terms[0], terms[1:]
    np.multiply(k[j], w, out=out)
    for j, w in rest:
        np.add(out, np.multiply(k[j], w, out=product), out=out)
    return out


def dop853(f, y0: np.ndarray, s0: float, s1: float,
           rtol: float = 1e-11, atol: float = 1e-13) -> np.ndarray:
    """Integrate N independent complex systems y_i' = f(s, y)_i from s0 to s1.

    y0 has shape (N, m).  Every row runs Hairer's DOP853 on its own: its own
    s, step size and accept mask.  With sc = atol + rtol * max(|y|, |y_new|)
    componentwise, e5 and e3 the max norms of the two embedded error
    estimates over sc, a step's error is err = |h| e5^2 / sqrt(e5^2 +
    0.01 e3^2); it is accepted when err <= 1, and the next step is
    h clip(0.9 err^(-1/8), 0.2, 10).  f(s, y, rows) is called with the rows
    still running: s of shape (n,), y of shape (n, m) and their indices rows
    into y0; it returns dy/ds of shape (n, m).  Finished rows drop out of the
    batch.  The stages live in one (13, N, m) buffer whose leading n rows are
    the running ones.  It raises NumericalError at the first error norm that
    is not finite, and after 200000 batched steps."""
    out = np.array(y0, dtype=complex)
    span = abs(s1 - s0)
    if span == 0.0 or len(out) == 0:
        return out
    direction = 1.0 if s1 >= s0 else -1.0
    rows = np.arange(len(out))
    y = out
    s = np.full(len(out), float(s0))
    h = np.full(len(out), direction * min(0.1 * span + 1e-12, span))
    stages = np.empty((13,) + out.shape, dtype=complex)
    # the stage argument (then the new solution), a product, the two errors
    work = np.empty((4,) + out.shape, dtype=complex)
    stages[0] = f(s, y, rows)
    for _ in range(200000):
        n = len(rows)
        k, (acc, term, e5, e3) = stages[:, :n], work[:, :n]
        h = np.where(np.abs(h) > np.abs(s1 - s), s1 - s, h)
        hc = h[:, None]
        for i in range(1, 13):
            _weighted_sum(k, _D8_A[i], acc, term)
            np.add(y, np.multiply(hc, acc, out=acc), out=acc)
            k[i] = f(s + _D8_C[i] * h, acc, rows)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(acc))
        e5n = np.max(np.abs(_weighted_sum(k, _D8_E5, e5, term)) / scale, axis=1)
        e3n = np.max(np.abs(_weighted_sum(k, _D8_E3, e3, term)) / scale, axis=1)
        if not (np.isfinite(e5n).all() and np.isfinite(e3n).all()):
            raise NumericalError(f"ODE error norm is not finite at s={s.min()}")
        den = e5n * e5n + 0.01 * e3n * e3n
        # den = 0 only where e5n = 0, and then the error is 0
        err = np.abs(h) * e5n * e5n / np.sqrt(np.where(den > 0.0, den, 1.0))
        ok = err <= 1.0
        # on rejection a row keeps its y, s and k[0]; only its step shrinks
        y = np.where(ok[:, None], acc, y)
        s = np.where(ok, s + h, s)
        np.copyto(k[0], k[12], where=ok[:, None])  # FSAL
        done = ok & ((s == s1) | (np.abs(s1 - s) < 1e-15 * span))
        with np.errstate(divide="ignore"):
            factor = 0.9 * err ** -0.125
        # fmin/fmax drop a NaN error to the smallest factor
        h = h * np.fmin(10.0, np.fmax(0.2, factor))
        if done.any():
            out[rows[done]] = ensure_finite(y[done], "ODE state")
            keep = ~done
            rows, y, s, h = rows[keep], y[keep], s[keep], h[keep]
            stages[0, :len(rows)] = k[0][keep]
            if len(rows) == 0:
                return out
        if np.any(np.abs(h) < 1e-16 * span):
            raise NumericalError(f"step size underflow at s={s.min()}")
    raise NumericalError(f"ODE step budget exhausted at s={s.min()}")
