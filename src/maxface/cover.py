"""Branched covers  w^(k+1) = z (z^2-1)^k  and their even-k reductions
W^(2m+1) = Z^(m+1) (Z-1)^(2m),  k = 2m.

Points are (z, w) pairs on the algebraic curve; paths are z-polylines
together with the starting w, and w is continued along their straight legs
in closed form, from the angle each leg subtends at the branch points.

The full cover carries three antiholomorphic reflections, written once as
exact data (_reflection): mu_j sends z to conj(z), conj(z) and -conj(z) and
w to e^(i m lam) conj(w) with m = 0, 2k and -1.  The holomorphic
automorphisms kappa_1 = mu_2 mu_1 and kappa_2 = mu_3 mu_1 are their
compositions.  A word in the reflections composes in integers (a sign, a
conjugation flag, m mod 2(k+1)); an even word that composes to the identity
is realized as a concrete closed polyline ("deck word path"), and the
homology generators used by the period solver are kappa-images of one such
loop.

Conventions: lam = pi/(k+1), psi = exp(i k lam / 2), base point o = (2, w0)
with w0 the positive real fiber root over z = 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContinuationError, NumericalError, ValidationError

BASE_Z = 2.0 + 0.0j


@lru_cache(maxsize=None)
def _unit_roots(n: int) -> np.ndarray:
    units = np.exp(2j * math.pi * np.arange(n) / n)
    units.flags.writeable = False
    return units


@dataclass(frozen=True)
class CoverSpec:
    """k >= 1 selects w^(k+1) = z(z^2-1)^k; reduced=True (k even, k=2m) selects
    the quotient curve W^(2m+1) = Z^(m+1)(Z-1)^(2m) in the squared coordinate."""

    k: int
    reduced: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("cover needs k >= 1")
        if self.reduced and self.k % 2 != 0:
            raise ValidationError("reduced cover needs even k")

    @property
    def m(self) -> int:
        return self.k // 2

    @property
    def lam(self) -> float:
        return math.pi / (self.k + 1)

    @property
    def psi(self) -> complex:
        return cmath.exp(0.5j * self.k * self.lam)

    @property
    def sheet_count(self) -> int:
        return (2 * self.m + 1) if self.reduced else (self.k + 1)

    @property
    def finite_branch_points(self) -> tuple[complex, ...]:
        return (0j, 1 + 0j) if self.reduced else (0j, 1 + 0j, -1 + 0j)

    @property
    def branch_exponents(self) -> tuple[int, ...]:
        """The power of (z - c) in rhs, per c of finite_branch_points."""
        return (self.m + 1, 2 * self.m) if self.reduced else (1, self.k, self.k)

    def rhs(self, z):
        if self.reduced:
            return z ** (self.m + 1) * (z - 1) ** (2 * self.m)
        # a named right factor: numpy may reuse a large temporary in place,
        # swapping the operands of a product that is not bitwise commutative
        t = (z * z - 1) ** self.k
        return z * t

    def log_derivative(self, z):
        """w'/w along the curve, for a scalar or an array of z."""
        if self.reduced:
            m = self.m
            return ((m + 1) / z + (2 * m) / (z - 1)) / (2 * m + 1)
        return genus_log_derivative(self.k, z)

    def dlog_derivative(self, z):
        """(w'/w)', the derivative of log_derivative, from the branch data:
        -sum_c e_c / (z - c)^2 / n."""
        branch = zip(self.finite_branch_points, self.branch_exponents)
        return -sum(e / (z - c) ** 2 for c, e in branch) / self.sheet_count

    def _root_rhs(self, z):
        """rhs(z); a scalar that overflows raises NumericalError."""
        try:
            return self.rhs(z)
        except OverflowError:
            raise NumericalError(f"rhs overflows at z = {z}") from None

    def principal_root(self, z):
        """rhs(z)^(1/n), n = sheet_count, for a scalar or an array of z."""
        return np.power(self._root_rhs(z), 1.0 / self.sheet_count, dtype=complex)

    def fiber(self, z) -> np.ndarray:
        """All sheet_count roots w over z, a scalar or an array, along a new
        last axis: shape np.shape(z) + (sheet_count,).  Root j is the
        principal root times exp(2 pi i j / n); all roots are 0 where
        rhs(z) = 0.  Ill-conditioned at branch points."""
        return np.multiply.outer(self.principal_root(z),
                                 _unit_roots(self.sheet_count))

    def genus(self) -> int:
        # Riemann-Hurwitz from the branching data; see genus_check.
        return genus_check(self)["genus"]


def genus_log_derivative(k, z):
    """w'/w along w^(k+1) = z(z^2-1)^k; k and z broadcast, so the rows of one
    batch may lie on covers of different k."""
    return ((2 * k + 1) * z * z - 1) / ((k + 1) * z * (z * z - 1))


@dataclass(frozen=True)
class SurfacePoint:
    z: complex
    w: complex | None = None


@dataclass
class SurfacePath:
    """z-polyline plus the starting fiber value; the homotopy class is pinned
    by the concrete vertices (and lift's branch-clearance detours)."""

    z_vertices: tuple
    w0: complex | None
    label: str = ""

    def __post_init__(self):
        self.z_vertices = tuple(complex(z) for z in self.z_vertices)
        if self.w0 is not None:
            self.w0 = complex(self.w0)
        if len(self.z_vertices) < 1:
            raise ValidationError("path needs at least one vertex")

    @property
    def start(self) -> complex:
        return self.z_vertices[0]

    @property
    def end(self) -> complex:
        return self.z_vertices[-1]


def solve_fiber(spec: CoverSpec, z: complex, near: complex | None = None) -> SurfacePoint:
    roots = spec.fiber(z)
    if near is None:
        return SurfacePoint(z, roots[0])
    i = int(np.argmin(np.abs(roots - near)))
    return SurfacePoint(z, roots[i])


@lru_cache(maxsize=64)
def base_point(spec: CoverSpec) -> SurfacePoint:
    roots = spec.fiber(BASE_Z)
    i = int(np.argmin(np.abs(np.angle(roots))))
    w0 = roots[i]
    assert abs(w0.imag) < 1e-12 and w0.real > 0
    return SurfacePoint(BASE_Z, w0)


@lru_cache(maxsize=None)
def clearance(spec: CoverSpec) -> float:
    pts = spec.finite_branch_points
    dmin = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) if len(pts) > 1 else 1.0
    return 0.05 * dmin


def _passes(spec: CoverSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which finite branch points each segment a[i] -> b[i] passes, one
    column per point of spec.finite_branch_points: the segment's nearest
    point to c (t clipped to [0, 1]) is closer than the clearance radius,
    and neither end lies within 1e-14 of c.  A zero-length segment passes
    nothing."""
    bp = np.array(spec.finite_branch_points, dtype=complex)
    a, b = a[:, None], b[:, None]
    ab = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((bp - a).conjugate() * ab).real / np.abs(ab) ** 2, 0.0, 1.0)
    # a NaN t, from a zero-length segment, compares False
    return ((np.abs(a + t * ab - bp) < clearance(spec))
            & (np.abs(a - bp) > 1e-14) & (np.abs(b - bp) > 1e-14))


def _detour(spec: CoverSpec, a: complex, b: complex, passed) -> list:
    """The route from a (excluded) to b around the branch points passed,
    taken in order along the segment: per point the entry point and a
    counterclockwise arc of radius clearance(spec), then b.  A point within
    1e-14 of the one kept before it is dropped."""
    clr = clearance(spec)
    ab = b - a
    hits = [(max(0.0, min(1.0, ((c - a).conjugate() * ab).real / abs(ab) ** 2)), c)
            for c in passed]
    out = []
    for t, c in sorted(hits, key=lambda hit: hit[0]):
        # entry/exit points on the segment at twice the clearance distance;
        # the exit point only ends the arc, pin -> arc[0] is a radial joint
        pin = a + max(0.0, t - 2 * clr / abs(ab)) * ab
        pout = a + min(1.0, t + 2 * clr / abs(ab)) * ab
        th_in = cmath.phase(pin - c)
        th_out = cmath.phase(pout - c)
        while th_out <= th_in:
            th_out += 2 * math.pi
        out.append(pin)
        out.extend(c + clr * cmath.exp(1j * (th_in + s * (th_out - th_in)))
                   for s in np.linspace(0.0, 1.0, 9))
    kept = [a]
    for z in out + [b]:
        if abs(z - kept[-1]) > 1e-14:
            kept.append(z)
    return kept[1:]


def _sheet(spec: CoverSpec, za, z, w_a, p) -> tuple[np.ndarray, np.ndarray]:
    """The sheet j (mod n) that w reaches from the value w_a at za along the
    straight leg to z, p units[j] being that value (p the principal root at
    z), and the ratios (z - c) / (za - c) per finite branch point c on a new
    last axis.  A leg that misses c subtends the angle Arg ratio_c at c, and
    the factor (z - c)^e of w^n turns by e Arg ratio_c, so
    n Arg w_a + sum_c e_c Arg ratio_c = n Arg p + 2 pi j."""
    bp = np.array(spec.finite_branch_points, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (np.asarray(z)[..., None] - bp) / (np.asarray(za)[..., None] - bp)
    n = spec.sheet_count
    turn = n * (np.angle(w_a) - np.angle(p)) + np.angle(ratio) @ spec.branch_exponents
    return np.rint(turn / (2.0 * math.pi)).astype(int) % n, ratio


def continue_legs(spec: CoverSpec, routes, w0s) -> list[np.ndarray]:
    """Analytic continuation of w along routes, z-polylines whose leg i runs
    from route[i] to route[i + 1]: route r leaves from the fiber value
    w0s[r], each leg from the value the one before it reached.  Returns per
    route the fiber value at every vertex, w[0] = w0.

    All roots over z are p(z) units[j], p the principal root, and the root
    a leg reaches is fixed in closed form by the angle it subtends at each
    branch point (_sheet); a leg that meets a branch point has no such
    angle and raises ContinuationError, one whose end overflows rhs
    NumericalError.  Each leg's sheet shift, from the principal roots at its
    two ends (w0 itself at a route's start), comes from one array pass, and
    the shifts are summed per route mod n, so a route's result does not
    depend on the others."""
    if not routes:
        return []
    sizes = [len(route) - 1 for route in routes]
    za = np.concatenate([route[:-1] for route in routes])
    # a leg ends at za + (end - za) * 1.0, as w_along's s = 1 does; rhs there is
    # formed in Python arithmetic as a scalar fiber call forms it (numpy's
    # integer power of a complex array may round differently), and the n-th
    # roots taken in one np.power call, which rounds each as a scalar call
    ends = np.concatenate([route[1:] for route in routes])
    zb = za + (ends - za) * 1.0
    p_end = np.power(np.array([spec._root_rhs(z) for z in zb.tolist()],
                              dtype=complex), 1.0 / spec.sheet_count, dtype=complex)
    # leg i leaves from the end of leg i - 1, a route's first leg from w0
    first = np.cumsum([0] + sizes)[:-1]
    p_start = np.roll(p_end, 1)
    live = np.array(sizes) > 0
    p_start[first[live]] = np.array(w0s, dtype=complex)[live]
    shift, ratio = _sheet(spec, za, zb, p_start, p_end)
    # a leg from or to c has a ratio of 0 or none, one through c a ratio on
    # the negative real axis
    meets = np.any((ratio == 0) | ~np.isfinite(ratio)
                   | (np.abs(np.angle(ratio)) > math.pi - 1e-12), axis=-1)
    if meets.any():
        i = int(np.argmax(meets))
        raise ContinuationError("fiber continuation meets a branch point on "
                                f"segment {complex(za[i])} -> {complex(ends[i])}")
    # each route's sheet sums its own shifts
    summed = np.concatenate([[0], np.cumsum(shift)])
    sheet = (summed[1:] - np.repeat(summed[first], sizes)) % spec.sheet_count
    # a named right factor (see CoverSpec.rhs)
    units = _unit_roots(spec.sheet_count)[sheet]
    w = p_end * units
    return [np.concatenate([[complex(w0)], w[leg:leg + size]])
            for leg, size, w0 in zip(first, sizes, w0s)]


def w_along(spec: CoverSpec, za, dz, wa, s) -> np.ndarray:
    """w at z = za + dz s on straight legs that leave za with the fiber
    value wa, by the closed form of continue_legs (_sheet); the arguments
    are arrays that broadcast, s in [0, 1]."""
    z = za + dz * s
    p = spec.principal_root(z)
    sheet, _ = _sheet(spec, za, z, wa, p)
    # a named right factor (see CoverSpec.rhs)
    units = _unit_roots(spec.sheet_count)[sheet]
    return p * units


@dataclass(eq=False)
class LiftedPath:
    """A polyline lifted to the cover, as lift builds it.

    route is the polyline w is continued along, branch-point detours
    included: leg i runs from route[i] to route[i + 1].  w[i] is the fiber
    value at route[i], and input vertex i of path sits at route[upto[i]]."""

    spec: CoverSpec
    path: SurfacePath
    route: np.ndarray
    w: np.ndarray
    upto: np.ndarray

    @property
    def w_vertices(self) -> np.ndarray:
        return self.w[self.upto]

    @property
    def w_end(self) -> complex:
        return complex(self.w[-1])

    def is_closed(self, tol: float = 1e-9) -> bool:
        """The polyline closes in z and w returns to its starting value."""
        if abs(self.path.start - self.path.end) > 1e-12:
            return False
        w0 = self.path.w0
        return abs(self.w_end - w0) <= tol * (1 + abs(w0))


def lift(spec: CoverSpec, paths, detour: bool = True) -> list[LiftedPath]:
    """Lift every path (a SurfacePath with its fiber value w0) to the cover.

    A segment no longer than 1e-14 adds nothing to the route, so the legs
    run between the vertices that stay; each other segment adds its end
    point, or its detour (_detour) where it passes a branch point (_passes,
    one array test over the segments of all paths).  w is continued along
    all routes in one continue_legs call.  detour=False keeps every segment
    as one leg, for rays that run radially into a branch point, where a
    detour would wind about it."""
    paths = list(paths)
    if any(path.w0 is None for path in paths):
        raise ValidationError("path carries no fiber value")
    z = np.array([z for path in paths for z in path.z_vertices], dtype=complex)
    first = np.cumsum([0] + [len(path.z_vertices) for path in paths])[:-1]
    head = np.zeros(len(z), dtype=bool)
    head[first] = True
    keep = np.ones(len(z), dtype=bool)
    if detour:
        keep[1:] = np.abs(z[1:] - z[:-1]) > 1e-14
        keep |= head
    v = z[keep]
    kept = np.cumsum(keep) - 1  # the index in v of the last vertex that stays
    # segment v[j - 1] -> v[j] for every j that starts no path
    ends = np.flatnonzero(~head[keep])
    passes = _passes(spec, v[ends - 1], v[ends])
    flagged = passes.any(axis=1) & detour
    hit = ends[flagged].tolist()
    detours = [_detour(spec, complex(v[j - 1]), complex(v[j]),
                       [c for c, on in zip(spec.finite_branch_points, row) if on])
               for j, row in zip(hit, passes[flagged])]
    counts = np.ones(len(v), dtype=int)
    counts[hit] = [len(d) for d in detours]
    route = np.repeat(v, counts)
    last = np.cumsum(counts) - 1  # the route index of v[j]
    for j, d in zip(hit, detours):
        route[last[j] - len(d) + 1:last[j] + 1] = d
    at = last[kept]
    routes = np.split(route, at[first])[1:]
    ws = continue_legs(spec, routes, [path.w0 for path in paths])
    return [LiftedPath(spec, path, r, w, upto - upto[0])
            for path, r, w, upto in zip(paths, routes, ws, np.split(at, first)[1:])]


# ---------------------------------------------------------------------------
# reflections and automorphisms
# ---------------------------------------------------------------------------

def _reflection(spec: CoverSpec, j: int) -> tuple[bool, int]:
    """The reflection mu_j of the full cover as exact data (negate, m):
    z -> -conj(z) if negate else conj(z), and w -> e^(i m lam) conj(w).
    mu_1, mu_2 and mu_3 have m = 0, 2k and -1."""
    if spec.reduced:
        raise ValidationError("reflections are defined on the full cover")
    if j not in (1, 2, 3):
        raise ValidationError(f"reflection index must be 1..3, got {j}")
    return j == 3, (0, 2 * spec.k, -1)[j - 1]


def _z_image(z: complex, negate: bool, conjugate: bool) -> complex:
    # unary minus and conjugate() flip signs only: exact, signed zeros too
    z = z.conjugate() if conjugate else z
    return -z if negate else z


def reflection_apply(spec: CoverSpec, j: int, p: SurfacePoint) -> SurfacePoint:
    """The antiholomorphic reflection mu_j (j = 1..3) of the full cover.  The
    automorphisms kappa_1 = mu_2 mu_1 : (z, w) -> (z, e^(2k i lam) w) and
    kappa_2 = mu_3 mu_1 : (z, w) -> (-z, e^(-i lam) w) are compositions."""
    negate, m = _reflection(spec, j)
    w = p.w.conjugate() if p.w is not None else None
    # m = 0 multiplies by nothing: a product by 1 + 0j can flip the sign of
    # a zero imaginary part, which cmath.phase reads
    if w is not None and m:
        w = cmath.exp(1j * (m * spec.lam)) * w
    return SurfacePoint(_z_image(p.z, negate, True), w)


# ---------------------------------------------------------------------------
# the concrete reflection connectors P_j : o -> mu_j(o)
# ---------------------------------------------------------------------------

_P2_HALF = (2.0 + 0.0j, 1.6 + 0.6j, 1.0 + 0.7j, 0.5 + 0.4j, 0.5 + 0.0j)
_P3_HALF = (2.0 + 0.0j, 1.4 + 1.1j, 0.6 + 1.5j, 0.0 + 1.6j)


def base_connectors(spec: CoverSpec) -> dict:
    """P_j with mu_j-symmetric polylines: P_j(1-u) = mu_j(P_j(u)).

    P_1 is constant (o is mu_1-fixed).  P_2 winds once counterclockwise about
    z=1, crossing the slit (0,1) at z=1/2; P_3 crosses the imaginary axis at
    z=1.6i on its way to -2.
    """
    if spec.reduced:
        raise ValidationError("connectors live on the full cover")
    o = base_point(spec)
    p2 = _P2_HALF + tuple(z.conjugate() for z in reversed(_P2_HALF[:-1]))
    p3 = _P3_HALF + tuple(-z.conjugate() for z in reversed(_P3_HALF[:-1]))
    return {
        1: SurfacePath((o.z,), o.w, label="P_mu1"),
        2: SurfacePath(p2, o.w, label="P_mu2"),
        3: SurfacePath(p3, o.w, label="P_mu3"),
    }


# ---------------------------------------------------------------------------
# deck words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeckWord:
    """Even word in the reflection indices {1,2,3} composing to the identity
    deck transformation; realized as a closed path by chaining transformed
    connectors."""

    indices: tuple

    def __post_init__(self):
        if len(self.indices) % 2 != 0:
            raise ValidationError("deck words must have even length")
        if any(i not in (1, 2, 3) for i in self.indices):
            raise ValidationError("deck words use reflection indices 1..3 only")


def word_end_zero(k: int) -> DeckWord:
    return DeckWord((3, 2) * (2 * (k + 1)))


def word_end_infinity(k: int) -> DeckWord:
    return DeckWord((1, 3) * (2 * (k + 1)))


def word_base_loop() -> DeckWord:
    return DeckWord((3, 2, 3, 1))


def word_generator(j: int, with_kappa2: bool) -> DeckWord:
    core = (3, 1, 3, 2) if with_kappa2 else (3, 2, 3, 1)
    return DeckWord((2, 1) * j + core + (1, 2) * j)


def _word_maps(spec: CoverSpec, word: DeckWord):
    """The prefix compositions mu_{i1} ... mu_{ij} of the word, j = 0..len,
    each as exact data (negate, conjugate, m): z -> +-z or +-conj(z), and
    w -> e^(i m lam) w or e^(i m lam) conj(w)."""
    negate, conjugate, m = False, False, 0
    yield negate, conjugate, m
    for idx in word.indices:
        neg, m_idx = _reflection(spec, idx)
        # composing with an antiholomorphic map conjugates its phase
        m = m - m_idx if conjugate else m + m_idx
        negate, conjugate = negate != neg, not conjugate
        yield negate, conjugate, m


def _word_is_identity(spec: CoverSpec, word: DeckWord) -> bool:
    *_, (negate, conjugate, m) = _word_maps(spec, word)
    return not negate and not conjugate and m % (2 * (spec.k + 1)) == 0


def deck_word_path(spec: CoverSpec, word: DeckWord) -> SurfacePath:
    """Realize the identity word (i1..i2r) as the closed loop

        P_{i1} * (mu_{i1} o P_{i2}) * (mu_{i1} mu_{i2} o P_{i3}) * ...

    based at o.  Raises ValidationError if the word does not compose to the
    identity deck transformation.
    """
    if not _word_is_identity(spec, word):
        raise ValidationError(f"word {word.indices} is not an identity deck word")
    o = base_point(spec)
    conns = base_connectors(spec)
    verts: list[complex] = [o.z]
    # the z-map of mu_{i1} ... mu_{i(j-1)} moves the connector of letter j
    for idx, (negate, conjugate, _) in zip(word.indices, _word_maps(spec, word)):
        img = [_z_image(z, negate, conjugate) for z in conns[idx].z_vertices]
        if abs(img[0] - verts[-1]) > 1e-12:
            raise ValidationError("deck word legs do not chain")
        verts.extend(img[1:])
    if abs(verts[-1] - verts[0]) > 1e-12:
        raise ValidationError("deck word path failed to close in z")
    return SurfacePath(tuple(verts), o.w, label="word:" + "".join(map(str, word.indices)))


def generator_loops(spec: CoverSpec) -> list[SurfacePath]:
    """The 2(k+1) homology generator loops: kappa_1^j and kappa_1^j kappa_2
    images of the concrete base loop, j = 0..k."""
    gamma = deck_word_path(spec, word_base_loop())
    o = base_point(spec)
    loops = []
    for j in range(spec.k + 1):
        w_j = o.w * cmath.exp(1j * (2 * j * spec.k * spec.lam))
        loops.append(SurfacePath(gamma.z_vertices, w_j, label=f"k1^{j}*gamma"))
        w_j2 = w_j * cmath.exp(-1j * spec.lam)
        loops.append(SurfacePath(tuple(-z for z in gamma.z_vertices), w_j2,
                                 label=f"k1^{j}*k2*gamma"))
    return loops


def winding_number(vertices, z0: complex) -> float:
    """Total winding of the polyline about z0 (in turns; integer when closed)."""
    total = 0.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        total += cmath.phase((b - z0) / (a - z0))
    return total / (2 * math.pi)


def genus_check(spec: CoverSpec) -> dict:
    """Riemann-Hurwitz bookkeeping for the cover (degree, total branching,
    genus) from its branch data: over a point where w^n has order e there
    lie gcd(e, n) points, so it contributes n - gcd(e, n) to the branching;
    w^n has order deg rhs = sum e_c at infinity."""
    n = spec.sheet_count
    exps = spec.branch_exponents + (sum(spec.branch_exponents),)
    ram = [n - math.gcd(e, n) for e in exps]
    branching = sum(ram)
    return {"degree": n, "branch_points": sum(1 for r in ram if r),
            "total_branching": branching, "genus": (branching - 2 * n + 2) // 2}
