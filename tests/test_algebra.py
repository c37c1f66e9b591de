"""Low-level numerics: 2x2 helpers, quadrature, Schwarzian, and the ODE core.

Every routine here is checked against an independent oracle: closed forms,
lgamma-based Beta values, numpy's generic linear algebra, or brute-force
matrix powers.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxface import algebra as alg
from maxface.errors import DegenerateError, ValidationError

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def complex_nums(draw, min_mag=0.0, max_mag=10.0):
    re = draw(finite)
    im = draw(finite)
    z = complex(re, im)
    if abs(z) < min_mag or abs(z) > max_mag:
        z = complex(min_mag + 0.5, 0.25)
    return z


@st.composite
def polar_nums(draw, min_mag, max_mag):
    r = draw(st.floats(min_value=min_mag, max_value=max_mag))
    phi = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    return cmath.rect(r, phi)


@st.composite
def gl2_matrices(draw):
    """Invertible 2x2 complex matrices with decent conditioning: a unit lower
    triangular factor times an upper triangular one with 0.5 <= |u_ii| <= 4,
    so |det| >= 0.25 and every entry of a and its inverse stays bounded."""
    l21, u12 = draw(polar_nums(0.0, 3.0)), draw(polar_nums(0.0, 3.0))
    u11, u22 = draw(polar_nums(0.5, 4.0)), draw(polar_nums(0.5, 4.0))
    return alg.mat2(1, 0, l21, 1) @ alg.mat2(u11, u12, 0, u22)


@st.composite
def su11_matrices(draw):
    """Exact-parametrization SU(1,1): [[a, b], [conj(b), conj(a)]]."""
    phi = draw(st.floats(min_value=-3.0, max_value=3.0))
    psi = draw(st.floats(min_value=-3.0, max_value=3.0))
    r = draw(st.floats(min_value=0.0, max_value=2.0))
    aa = cmath.exp(1j * phi) * math.cosh(r)
    bb = cmath.exp(1j * psi) * math.sinh(r)
    return alg.mat2(aa, bb, bb.conjugate(), aa.conjugate())


# ---------------------------------------------------------------------------
# 2x2 helpers
# ---------------------------------------------------------------------------

def test_mat2_layout():
    a = alg.mat2(1, 2, 3, 4)
    assert a[0, 0] == 1 and a[0, 1] == 2 and a[1, 0] == 3 and a[1, 1] == 4


@given(gl2_matrices())
@settings(max_examples=60, deadline=None)
def test_det_inv_against_numpy(a):
    assert alg.det2(a) == pytest.approx(complex(np.linalg.det(a)), rel=1e-9)
    assert np.allclose(alg.inv2(a), np.linalg.inv(a), atol=1e-9)
    assert np.allclose(alg.inv2(a) @ a, alg.EYE2, atol=1e-9)


def test_inv_singular_raises():
    with pytest.raises(DegenerateError):
        alg.inv2(alg.mat2(1, 2, 2, 4))


@given(gl2_matrices(), gl2_matrices(), complex_nums())
@settings(max_examples=60, deadline=None)
def test_moebius_composition(a, b, z):
    lhs = alg.moebius_apply(a @ b, z)
    rhs = alg.moebius_apply(a, alg.moebius_apply(b, z))
    if alg.is_infinity(lhs) or alg.is_infinity(rhs):
        assert alg.is_infinity(lhs) == alg.is_infinity(rhs) or \
            max(abs(lhs), abs(rhs)) > 1e8
    else:
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


def test_moebius_identity_and_infinity():
    assert alg.moebius_apply(alg.EYE2, 3.5 + 1j) == 3.5 + 1j
    a = alg.mat2(2, 1, 1, 1)
    assert alg.moebius_apply(a, complex("inf")) == pytest.approx(2.0)
    assert alg.is_infinity(alg.moebius_apply(a, -1.0))


@given(su11_matrices())
@settings(max_examples=60, deadline=None)
def test_su11_defect_zero_on_members(a):
    assert alg.su11_defect(a) < 1e-12


def test_su11_defect_positive_off_group():
    rot = alg.mat2(math.cos(0.3), -math.sin(0.3),
                   math.sin(0.3), math.cos(0.3))  # SU(2), not SU(1,1)
    assert alg.su11_defect(rot) > 0.1


@given(su11_matrices(), su11_matrices())
@settings(max_examples=40, deadline=None)
def test_su11_closed_under_product(a, b):
    assert alg.su11_defect(a @ b) < 1e-10


# ---------------------------------------------------------------------------
# quadrature: Beta-function oracle through lgamma
# ---------------------------------------------------------------------------

def beta_lgamma(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


@pytest.mark.parametrize("x,y", [
    (0.5, 0.5), (0.75, 0.25), (1.5, 2.5), (0.3333333333333333, 0.5),
    (2.0, 3.0), (0.1, 0.9),
])
def test_tanh_sinh_beta_oracle(x, y):
    spec = alg.QuadratureSpec(left_exponent=x - 1.0, right_exponent=y - 1.0,
                              tol=1e-12)
    val = alg.quad_singular(
        lambda a, b: a ** (x - 1.0) * b ** (y - 1.0), spec)
    assert complex(val).real == pytest.approx(beta_lgamma(x, y), rel=1e-11)
    assert abs(complex(val).imag) < 1e-12


def test_tanh_sinh_rejects_divergent_exponent():
    with pytest.raises(ValidationError):
        alg.QuadratureSpec(left_exponent=-1.0, right_exponent=0.0)


def test_gk_adaptive_oracles():
    val = alg.gk_adaptive(np.exp, 0.0, 1.0, 1e-12)
    assert complex(val).real == pytest.approx(math.e - 1.0, rel=1e-12)
    val = alg.gk_adaptive(lambda s: np.exp(1j * s), 0.0, math.pi, 1e-12)
    assert complex(val) == pytest.approx(2j, rel=1e-11)


def test_gk15_degrees_of_exactness():
    """One call of f per panel; the Kronrod-15 rule is exact through degree
    22, its Gauss-7 part through degree 13, so the error estimate vanishes
    for s^13 and not for s^14."""
    calls = []

    def power(n):
        def f(s):
            calls.append(np.shape(s))
            return s ** n
        return f

    val, _ = alg._gk15(power(22), 0.0, 1.0)
    assert calls == [(15,)]
    assert complex(val) == pytest.approx(1.0 / 23.0, rel=1e-14)
    assert alg._gk15(power(13), 0.0, 1.0)[1] < 1e-15
    assert alg._gk15(power(14), 0.0, 1.0)[1] > 1e-10


# ---------------------------------------------------------------------------
# Schwarzian derivative: closed-form oracles
# ---------------------------------------------------------------------------

def test_schwarzian_square():
    # S(z^2) = -3/(2 z^2)
    z = 1.7 - 0.4j
    got = alg.schwarzian_fd(lambda u: u * u, z)
    # FD noise floor ~ macheps / step^3 at the default step
    assert got == pytest.approx(-1.5 / z ** 2, rel=1e-5)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.0, 3.25])
def test_schwarzian_power(nu):
    # S(z^nu) = (1 - nu^2) / (2 z^2)
    z = 2.1 + 0.3j
    got = alg.schwarzian_fd(lambda u: u ** nu, z)
    assert got == pytest.approx((1.0 - nu * nu) / (2.0 * z * z), rel=5e-5)


def test_schwarzian_moebius_vanishes():
    a = alg.mat2(2.0, 1.0 + 1j, 0.5j, 1.0)
    got = alg.schwarzian_fd(lambda u: alg.moebius_apply(a, u), 1.3 + 0.9j)
    assert abs(got) < 1e-5


def test_schwarzian_exp():
    # S(e^z) = -1/2 everywhere
    got = alg.schwarzian_fd(cmath.exp, 0.4 - 1.1j)
    assert got == pytest.approx(-0.5, rel=1e-5)


def test_schwarzian_flags_critical_point():
    with pytest.raises(DegenerateError):
        alg.schwarzian_fd(lambda u: u * u, 0.0)


# ---------------------------------------------------------------------------
# Dormand-Prince: closed-form linear ODEs, one system per row
# ---------------------------------------------------------------------------

def _dp(f, y0, s0, s1, **tol):
    """One system through the batched solver; f(s, v) sees a single row."""
    y = alg.dormand_prince(lambda s, y, rows: f(s[0], y[0])[None, :],
                           np.asarray(y0, dtype=complex)[None, :], s0, s1,
                           **tol)
    return y[0]


def test_dp_scalar_exponential():
    y = _dp(lambda s, v: v, [1.0], 0.0, 2.0, rtol=1e-12, atol=1e-14)
    assert complex(y[0]) == pytest.approx(math.exp(2.0), rel=1e-10)


def test_dp_rotation():
    y = _dp(lambda s, v: 1j * v, [1.0], 0.0, math.pi, rtol=1e-12, atol=1e-14)
    assert complex(y[0]) == pytest.approx(-1.0, abs=1e-10)


def test_dp_matrix_exponential():
    m = alg.mat2(0.3, 1.2 - 0.5j, -0.7j, -0.3)

    def rhs(s, v):
        return (m @ v.reshape(2, 2)).reshape(-1)

    y = _dp(rhs, alg.EYE2.reshape(-1), 0.0, 1.0,
            rtol=1e-12, atol=1e-14).reshape(2, 2)
    # oracle: diagonalize m by hand through numpy's generic eig
    vals, vecs = np.linalg.eig(m)
    want = vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)
    assert np.allclose(y, want, atol=1e-10)
    # det exp(m) = exp(tr m), tr m = 0 here
    assert alg.det2(y) == pytest.approx(1.0, rel=1e-10)


def test_dp_backward_integration():
    fwd = _dp(lambda s, v: v * s, [1.0], 0.0, 1.5, rtol=1e-12, atol=1e-14)
    back = _dp(lambda s, v: v * s, fwd, 1.5, 0.0, rtol=1e-12, atol=1e-14)
    assert complex(back[0]) == pytest.approx(1.0, rel=1e-9)


def test_dp_tolerance_scaling():
    loose = _dp(lambda s, v: v, [1.0], 0.0, 5.0, rtol=1e-6, atol=1e-8)
    tight = _dp(lambda s, v: v, [1.0], 0.0, 5.0, rtol=1e-13, atol=1e-15)
    exact = math.exp(5.0)
    assert abs(complex(tight[0]) - exact) < abs(complex(loose[0]) - exact)
    assert complex(tight[0]) == pytest.approx(exact, rel=1e-12)


def test_dp_rows_step_independently():
    """A batch of y' = lam_i y whose rows need very different step counts
    matches each row integrated alone, bit for bit."""
    lam = np.array([0.1, 1j, -3.0 + 2j, 6.0])
    calls = []

    def f(s, y, rows):
        calls.append(len(rows))
        return lam[rows][:, None] * y

    y = alg.dormand_prince(f, np.ones((4, 1)), 0.0, 2.0, rtol=1e-12,
                           atol=1e-14)
    assert np.allclose(y[:, 0], np.exp(2.0 * lam), rtol=1e-10)
    assert calls[-1] < 4  # finished rows left the batch
    for i, li in enumerate(lam):
        alone = _dp(lambda s, v, li=li: li * v, [1.0], 0.0, 2.0,
                    rtol=1e-12, atol=1e-14)
        assert complex(alone[0]) == complex(y[i, 0])


def test_ensure_finite_catches_nan():
    with pytest.raises(Exception):
        alg.ensure_finite(np.array([1.0, float("nan")]))
