"""Branched covers  w^(k+1) = z (z^2-1)^k  and their even-k reductions
W^(2m+1) = Z^(m+1) (Z-1)^(2m),  k = 2m.

The cover carries four antiholomorphic reflections mu_1..mu_4 and the
holomorphic automorphisms kappa_1 = mu_2 mu_1, kappa_2 = mu_3 mu_1.  Points
are (z, w) pairs on the algebraic curve; paths are z-polylines together with
the starting w, and w is transported by nearest-root continuation.  Even words
in the reflections that compose to the identity are realized as concrete
closed polylines ("deck word paths"); the homology generators used by the
period solver are kappa-images of one such loop.

Conventions: lam = pi/(k+1), psi = exp(i k lam / 2), base point o = (2, w0)
with w0 the positive real fiber root over z = 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContinuationError, ValidationError

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

    def rhs(self, z):
        if self.reduced:
            return z ** (self.m + 1) * (z - 1) ** (2 * self.m)
        return z * (z * z - 1) ** self.k

    def log_derivative(self, z):
        """w'/w along the curve, for a scalar or an array of z."""
        if self.reduced:
            m = self.m
            return ((m + 1) / z + (2 * m) / (z - 1)) / (2 * m + 1)
        k = self.k
        return ((2 * k + 1) * z * z - 1) / ((k + 1) * z * (z * z - 1))

    def fiber(self, z) -> np.ndarray:
        """All sheet_count roots w over z, a scalar or an array, along a new
        last axis: shape np.shape(z) + (sheet_count,).  Root 0 is the
        principal root rhs(z)^(1/n); all roots are 0 where rhs(z) = 0.
        Ill-conditioned at branch points."""
        n = self.sheet_count
        principal = np.power(self.rhs(z), 1.0 / n, dtype=complex)
        return np.multiply.outer(principal, _unit_roots(n))

    def genus(self) -> int:
        # Riemann-Hurwitz from the branching data; see genus_check.
        return genus_check(self)["genus"]


@dataclass(frozen=True)
class SurfacePoint:
    z: complex
    w: complex | None = None

    def close_to(self, other: "SurfacePoint", tol: float = 1e-9) -> bool:
        if abs(self.z - other.z) > tol * (1 + abs(self.z)):
            return False
        if self.w is None or other.w is None:
            return self.w is other.w
        return abs(self.w - other.w) <= tol * (1 + abs(self.w))


@dataclass
class SurfacePath:
    """z-polyline plus the starting fiber value; the homotopy class is pinned
    by the concrete vertices (after branch-clearance sanitization)."""

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


def fiber_residual(spec: CoverSpec, p: SurfacePoint) -> float:
    if p.w is None:
        raise ValidationError("point has no fiber value")
    return abs(p.w ** spec.sheet_count - spec.rhs(p.z))


def on_cover(spec: CoverSpec, p: SurfacePoint, tol: float = 1e-8) -> bool:
    return fiber_residual(spec, p) <= tol * (1.0 + abs(p.z)) ** 3


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


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).conjugate() * ab).real / denom))
    return abs(a + t * ab - p)


def sanitize_path(spec: CoverSpec, vertices) -> tuple:
    """Insert a counterclockwise semicircular detour wherever a segment passes
    a finite branch point closer than the clearance radius.

    A segment that grazes several branch points is split recursively so each
    offender gets its own arc; the pieces on either side of a detour are
    re-examined against the remaining branch points."""
    clr = clearance(spec)

    def detour(a: complex, b: complex, seen: frozenset) -> list:
        # vertices strictly after a, ending with b
        for bp in spec.finite_branch_points:
            if bp in seen:
                continue
            if (_seg_point_dist(a, b, bp) < clr
                    and abs(a - bp) > 1e-14 and abs(b - bp) > 1e-14):
                ab = b - a
                t = (((bp - a).conjugate() * ab).real) / abs(ab) ** 2
                t = max(0.0, min(1.0, t))
                # entry/exit points on the segment at clearance distance
                back = max(0.0, t - 2 * clr / abs(ab))
                fwd = min(1.0, t + 2 * clr / abs(ab))
                pin = a + back * ab
                pout = a + fwd * ab
                # counterclockwise arc of radius clr around the offender;
                # pin -> arc[0] and arc[-1] -> pout are radial joints
                th_in = cmath.phase(pin - bp)
                th_out = cmath.phase(pout - bp)
                while th_out <= th_in:
                    th_out += 2 * math.pi
                arc = [bp + clr * cmath.exp(1j * (th_in + s * (th_out - th_in)))
                       for s in np.linspace(0.0, 1.0, 9)]
                mark = seen | {bp}
                return detour(a, pin, mark) + arc + detour(pout, b, mark)
        return [b]

    out = [complex(vertices[0])]
    for a, b in zip(vertices[:-1], vertices[1:]):
        out.extend(detour(complex(a), complex(b), frozenset()))
    # drop consecutive duplicates
    dedup = [out[0]]
    for v in out[1:]:
        if abs(v - dedup[-1]) > 1e-14:
            dedup.append(v)
    return tuple(dedup)


def _continue_segment(spec: CoverSpec, z0: complex, z1: complex, w: complex,
                      record=None) -> complex:
    """Nearest-root transport of w from z0 to z1, doubling the subdivision
    until the chosen root is more than twice as close as any competitor."""
    n = 4
    while True:
        ok = True
        wcur = w
        pts = [(0.0, w)]
        for i in range(1, n + 1):
            s = i / n
            roots = spec.fiber(z0 + (z1 - z0) * s)
            d = np.abs(roots - wcur)
            order = np.argsort(d)
            if len(roots) > 1 and not (d[order[1]] > 2.0 * d[order[0]]):
                ok = False
                break
            wcur = complex(roots[order[0]])
            pts.append((s, wcur))
        if ok:
            if record is not None:
                record.extend(pts)
            return wcur
        n *= 2
        if n > 1 << 16:
            raise ContinuationError(
                f"fiber continuation stalled on segment {z0} -> {z1}"
            )


class LiftedPath:
    """A polyline lifted to the cover by nearest-root continuation of its
    starting fiber value: the one continuation primitive.

    Each input segment gets its branch-point detours (sanitize_path) on its
    own, so w_vertices[i] is the fiber value at input vertex i and upto[i]
    the number of legs before it.  legs holds the transported pieces
    (z0, z1, s_nodes, w_nodes) with their continuation checkpoints, and w_at
    answers w at points along a leg (seed by interpolation, snap to the
    nearest exact fiber root)."""

    def __init__(self, spec: CoverSpec, path: SurfacePath):
        if path.w0 is None:
            raise ValidationError("path carries no fiber value")
        self.spec = spec
        self.path = path
        self.legs = []
        w = path.w0
        self.w_vertices = [w]
        self.upto = [0]
        for a, b in zip(path.z_vertices[:-1], path.z_vertices[1:]):
            seg = sanitize_path(spec, (a, b))
            for za, zb in zip(seg[:-1], seg[1:]):
                rec: list = []
                w = _continue_segment(spec, za, zb, w, record=rec)
                self.legs.append((za, zb, np.array([s for s, _ in rec]),
                                  np.array([wv for _, wv in rec])))
            self.w_vertices.append(w)
            self.upto.append(len(self.legs))

    @property
    def w_end(self) -> complex:
        return self.w_vertices[-1]

    def is_closed(self, tol: float = 1e-9) -> bool:
        """The polyline closes in z and w returns to its starting value."""
        if abs(self.path.start - self.path.end) > 1e-12:
            return False
        w0 = self.path.w0
        return abs(self.w_end - w0) <= tol * (1 + abs(w0))

    def w_at(self, leg: int, s: np.ndarray) -> np.ndarray:
        """w at the leg parameters s (an array in [0, 1])."""
        z0, z1, s_nodes, w_nodes = self.legs[leg]
        i = np.clip(np.searchsorted(s_nodes, s), 1, len(s_nodes) - 1)
        t = (s - s_nodes[i - 1]) / (s_nodes[i] - s_nodes[i - 1])
        seed = w_nodes[i - 1] * (1 - t) + w_nodes[i] * t
        roots = self.spec.fiber(z0 + (z1 - z0) * s)
        pick = np.argmin(np.abs(roots - seed[..., None]), axis=-1)
        return np.take_along_axis(roots, pick[..., None], axis=-1)[..., 0]


# ---------------------------------------------------------------------------
# reflections and automorphisms
# ---------------------------------------------------------------------------

def reflection_apply(spec: CoverSpec, j: int, p: SurfacePoint) -> SurfacePoint:
    """The antiholomorphic reflections mu_1..mu_4 of the full cover."""
    if spec.reduced:
        raise ValidationError("reflections are defined on the full cover")
    z, w = p.z, p.w
    k, lam = spec.k, spec.lam
    zb, wb = z.conjugate(), (w.conjugate() if w is not None else None)
    if j == 1:
        return SurfacePoint(zb, wb)
    if j == 2:
        return SurfacePoint(zb, cmath.exp(1j * (2 * k * lam)) * wb if wb is not None else None)
    if j == 3:
        return SurfacePoint(-zb, cmath.exp(-1j * lam) * wb if wb is not None else None)
    if j == 4:
        if z == 0:
            raise ValidationError("mu_4 undefined over z=0")
        return SurfacePoint(1.0 / zb,
                            cmath.exp(1j * k * lam) * wb / zb ** 2 if wb is not None else None)
    raise ValidationError(f"reflection index must be 1..4, got {j}")


def reflection_zmap(j: int):
    if j in (1, 2):
        return lambda z: z.conjugate()
    if j == 3:
        return lambda z: -z.conjugate()
    if j == 4:
        return lambda z: 1.0 / z.conjugate()
    raise ValidationError(f"reflection index must be 1..4, got {j}")


def kappa1_apply(spec: CoverSpec, p: SurfacePoint, j: int = 1) -> SurfacePoint:
    """kappa_1^j = (mu_2 mu_1)^j : (z, w) -> (z, e^{2jk i lam} w)."""
    ph = cmath.exp(1j * (2 * j * spec.k * spec.lam))
    return SurfacePoint(p.z, ph * p.w if p.w is not None else None)


def kappa2_apply(spec: CoverSpec, p: SurfacePoint) -> SurfacePoint:
    """kappa_2 = mu_3 mu_1 : (z, w) -> (-z, e^{-i lam} w)."""
    return SurfacePoint(-p.z, cmath.exp(-1j * spec.lam) * p.w if p.w is not None else None)


# ---------------------------------------------------------------------------
# the concrete reflection connectors P_j : o -> mu_j(o)
# ---------------------------------------------------------------------------

_P2_HALF = (2.0 + 0.0j, 1.6 + 0.6j, 1.0 + 0.7j, 0.5 + 0.4j, 0.5 + 0.0j)
_P3_HALF = (2.0 + 0.0j, 1.4 + 1.1j, 0.6 + 1.5j, 0.0 + 1.6j)


def base_connectors(spec: CoverSpec) -> dict:
    """P_j with mu_j-symmetric polylines: P_j(1-u) = mu_j(P_j(u)).

    P_1 is constant (o is mu_1-fixed).  P_2 winds once counterclockwise about
    z=1, crossing the slit (0,1) at z=1/2; P_3 crosses the imaginary axis at
    z=1.6i on its way to -2.  P_4 is not needed by the word calculus.
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


def _word_is_identity(spec: CoverSpec, word: DeckWord) -> bool:
    rng = np.random.default_rng(7)
    for _ in range(3):
        z = complex(rng.uniform(1.5, 2.5), rng.uniform(0.2, 0.8))
        p = solve_fiber(spec, z)
        q = p
        for i in reversed(word.indices):  # innermost map acts first
            q = reflection_apply(spec, i, q)
        if not q.close_to(p, 1e-10):
            return False
    return True


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
    # cumulative z-map of mu_{i1} ... mu_{i_{j-1}}
    maps: list = []

    def apply_maps(z: complex) -> complex:
        for f in reversed(maps):
            z = f(z)
        return z

    for idx in word.indices:
        leg = conns[idx]
        img = [apply_maps(z) for z in leg.z_vertices]
        if abs(img[0] - verts[-1]) > 1e-12:
            raise ValidationError("deck word legs do not chain")
        verts.extend(img[1:])
        maps.append(reflection_zmap(idx))
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
    genus), from the local ramification structure."""
    if spec.reduced:
        deg = 2 * spec.m + 1
        # Z=0: gcd(m+1, 2m+1)=1 -> one point, ram 2m; Z=1: gcd(2m,2m+1)=1 -> 2m;
        # Z=inf: full ramification again
        branching = 3 * (deg - 1)
        n_branch = 3
    else:
        deg = spec.k + 1
        # z=0 and z=inf: full ramification (k); z=+-1: gcd(k, k+1)=1 -> full (k)
        branching = 4 * spec.k
        n_branch = 4
    genus = (branching - 2 * deg + 2) // 2
    return {"degree": deg, "branch_points": n_branch,
            "total_branching": branching, "genus": genus}
