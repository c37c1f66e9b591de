"""The CMC-1 deformation: lifts of the flat connection, reflection
monodromies, the SU(1,1)-conjugating frame, trace identities, and the
de Sitter geometry of the deformed surface.

Frozen decimals for (k, t) = (1, 0.02) were produced once at rtol 1e-12 and
cross-checked against the closed forms nu_0 = k sqrt(1 + 4t(k+1)/k) etc.;
they guard the integration pipeline against silent regressions.
"""

import cmath
import math

import numpy as np
import pytest

from maxface import algebra as alg
from maxface import cover as cov
from maxface import desitter as ds
from maxface import verify as verify_mod
from maxface import weierstrass as wst
from maxface.errors import NumericalError, ValidationError

K1 = ds.AdmissiblePair(1, 0.02)
K1_ZERO = ds.AdmissiblePair(1, 0.0)

# frozen pipeline outputs for (k, t) = (1, 0.02)
FROZEN = {
    "nu_0": 1.0770329614,        # = sqrt(1.16)
    "nu_inf": 0.9165151390,      # = sqrt(0.84)
    "trace_tau0": 1.9417182897,  # = -2 cos(pi nu_0)
    "trace_tauinf": 1.9316050182,
    "theta_0": 0.8458997098,     # = pi nu_0 / 4
    "abs_q": 1.0025103853,
}


# ---------------------------------------------------------------------------
# admissibility and exponents
# ---------------------------------------------------------------------------

def test_admissible_window():
    with pytest.raises(ValidationError):
        ds.AdmissiblePair(1, 0.125)   # |t| = k/(4(k+1)) exactly: excluded
    with pytest.raises(ValidationError):
        ds.AdmissiblePair(1, -0.2)
    with pytest.raises(ValidationError):
        ds.AdmissiblePair(0, 0.01)
    ds.AdmissiblePair(2, 0.08)        # inside k/(4(k+1)) = 1/6


def test_nu_closed_form():
    nu0, nuinf = ds.nu_exponents(1, 0.02)
    assert nu0 == pytest.approx(math.sqrt(1.16), rel=1e-14)
    assert nuinf == pytest.approx(math.sqrt(0.84), rel=1e-14)
    assert nu0 == pytest.approx(FROZEN["nu_0"], abs=5e-11)
    assert nuinf == pytest.approx(FROZEN["nu_inf"], abs=5e-11)
    nu0_k2, nuinf_k2 = ds.nu_exponents(2, -0.05)
    # s = 4 t (k+1)/k = -0.3 for (k, t) = (2, -0.05)
    assert nu0_k2 == pytest.approx(2 * math.sqrt(0.7), rel=1e-12)
    assert nuinf_k2 == pytest.approx(2 * math.sqrt(1.3), rel=1e-12)


def test_psihat_is_tracefree_nilpotent():
    """Psi_0 is trace-free with det 0: the ODE preserves det F."""
    p = cov.solve_fiber(cov.CoverSpec(1), 1.7 + 0.5j)
    m = K1.psihat0(p.z, p.w)
    assert abs(m[0, 0] + m[1, 1]) < 1e-14
    assert abs(alg.det2(m)) < 1e-14


# ---------------------------------------------------------------------------
# the lift and its invariants
# ---------------------------------------------------------------------------

def test_lift_preserves_determinant():
    spec = K1.spec
    path = cov.SurfacePath((2.0, 1.8 + 0.9j, 1.1 + 1.3j),
                           cov.base_point(spec).w)
    lift = ds.integrate_lift(K1, path)
    assert lift.det_defect < 1e-11
    assert alg.det2(lift.F) == pytest.approx(1.0, abs=1e-11)
    # the w-component rides along on the curve
    assert cov.on_cover(spec, lift.point, 1e-8)


def test_lift_first_order_in_t():
    """d/dt F|_{t=0} = Int Psi_0 dz: for tiny t the lift is e0 + t Int + O(t^2)."""
    t = 1e-5
    pair = ds.AdmissiblePair(1, t)
    spec = pair.spec
    o = cov.base_point(spec)
    path = cov.SurfacePath((o.z, 1.6 + 0.8j), o.w)
    lift = ds.integrate_lift(pair, path, rtol=1e-12)
    contour = wst.integrate_form(spec, path,
                                 lambda z, w: pair.psihat0(z, w), tol=1e-12)[-1]
    assert np.max(np.abs(lift.F - alg.EYE2 - t * contour)) < 5.0 * t * t


def test_lift_composes_over_concatenation():
    """F along a+b equals F(b-part) after restarting from the a-endpoint."""
    spec = K1.spec
    o = cov.base_point(spec)
    mid = 1.5 + 0.9j
    end = 0.9 + 1.4j
    whole = ds.integrate_lift(K1, cov.SurfacePath((o.z, mid, end), o.w))
    first = ds.integrate_lift(K1, cov.SurfacePath((o.z, mid), o.w))
    second = ds.integrate_lift(K1, cov.SurfacePath((mid, end), first.point.w),
                               b=first.F)
    assert np.max(np.abs(second.F - whole.F)) < 1e-9


def test_lift_at_zero_t_is_identity():
    spec = K1_ZERO.spec
    o = cov.base_point(spec)
    lift = ds.integrate_lift(K1_ZERO, cov.SurfacePath((o.z, 1.2 + 1.1j), o.w))
    assert np.max(np.abs(lift.F - alg.EYE2)) < 1e-13


# ---------------------------------------------------------------------------
# sigma matrices and reflection monodromies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sigma_involutive_property(k):
    """conj(sigma_j) sigma_j = id: the functional equation is an involution."""
    sig = ds.sigma_matrices(k)
    for j in (1, 2, 3):
        assert np.max(np.abs(sig[j].conj() @ sig[j] - alg.EYE2)) < 1e-14
        assert abs(alg.det2(sig[j]) - 1.0) < 1e-14


def test_rho_tilde_probe_independent():
    for j in (1, 2, 3):
        _, spread = ds.reflection_monodromy(K1, j)
        assert spread < 1e-10


def test_rho_tilde_degenerates_to_sigma_at_zero_t():
    sig = ds.sigma_matrices(1)
    for j in (1, 2, 3):
        rho = ds.rho_tilde(K1_ZERO, j)
        assert np.max(np.abs(rho - sig[j])) < 1e-11


def test_rho_tilde_base_change():
    """rho~_j(b) = conj(b)^-1 rho~_j(e0) b."""
    b = alg.mat2(1.2, 0.3 - 0.1j, 0.2j, 0.9)
    for j in (1, 2, 3):
        direct = ds.rho_tilde(K1, j, b=b)
        expect = alg.inv2(b.conj()) @ ds.rho_tilde(K1, j) @ b
        assert np.max(np.abs(direct - expect)) < 1e-11


def test_rho2_power_identity():
    """rho~_2^(k+1) = (-1)^k id for every admissible t."""
    for k, t in ((1, 0.02), (1, -0.015), (2, 0.05)):
        pair = ds.AdmissiblePair(k, t)
        rho2 = ds.rho_tilde(pair, 2)
        acc = alg.EYE2.copy()
        for _ in range(k + 1):
            acc = acc @ rho2
        assert np.max(np.abs(acc - (-1.0) ** k * alg.EYE2)) < 1e-10


# ---------------------------------------------------------------------------
# loop monodromy: ODE route vs word-composition route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word_fn", [cov.word_end_zero, cov.word_end_infinity,
                                     lambda k: cov.word_base_loop()])
def test_loop_monodromy_routes_agree(word_fn):
    out = ds.loop_monodromy(K1, word_fn(1))
    assert out["route_disagreement"] < 1e-10
    assert out["det_defect"] < 1e-10


def test_corrupted_word_loop_leg_breaks_route_agreement(monkeypatch):
    """Route a (the word loop) and route b (the reflection probes) share
    memoized leg propagators only where their paths share legs; corrupting a
    leg that lies on the word loop alone must make the routes disagree."""
    word = cov.word_end_zero(1)
    loop_legs, _, _ = ds._legs(K1, cov.deck_word_path(K1.spec, word), 1e-11,
                               True)
    probe_keys = set()
    for j in (1, 2, 3):
        for path in ds._probe_paths(K1.spec, j, ds._PROBES):
            legs, _, _ = ds._legs(K1, path, 1e-11, True)
            probe_keys.update(leg[0] for leg in legs)
    only_a = [leg[0] for leg in loop_legs if leg[0] not in probe_keys]
    assert only_a
    ds.loop_monodromy(K1, word)  # memoizes every leg of both routes
    key = only_a[len(only_a) // 2]
    monkeypatch.setitem(ds._PROPAGATORS, key,
                        ds._PROPAGATORS[key] @ alg.mat2(1, 1e-6, 0, 1))
    with pytest.raises(NumericalError):
        ds.loop_monodromy(K1, word)
    assert not verify_mod.run_criterion(12)["pass"]


def test_loop_monodromy_base_change_consistency():
    b = alg.mat2(1.1, 0.2 + 0.1j, -0.1j, 1.0)
    word = cov.word_end_zero(1)
    at_b = ds.loop_monodromy(K1, word, b=b)
    assert at_b["route_disagreement"] < 1e-9


def test_trace_identities_frozen():
    out = ds.trace_identity_check(K1)
    assert out["tau_0"]["residual"] < 1e-8
    assert out["tau_inf"]["residual"] < 1e-8
    assert out["tau_0"]["trace"] == pytest.approx(FROZEN["trace_tau0"],
                                                  abs=1e-8)
    assert out["tau_inf"]["trace"] == pytest.approx(FROZEN["trace_tauinf"],
                                                    abs=1e-8)
    # closed form: (-1)^k 2 cos(pi nu)
    assert out["tau_0"]["target"] == pytest.approx(
        -2.0 * math.cos(math.pi * FROZEN["nu_0"]), abs=1e-9)


def test_word_sigma_product_identity_words():
    """For identity deck words the sigma word collapses to +-id."""
    for k in (1, 2):
        for word in (cov.word_end_zero(k), cov.word_end_infinity(k),
                     cov.word_base_loop()):
            sig = ds.word_sigma_product(k, word)
            assert (np.max(np.abs(sig - alg.EYE2)) < 1e-12
                    or np.max(np.abs(sig + alg.EYE2)) < 1e-12)


# ---------------------------------------------------------------------------
# the conjugating frame iota_1
# ---------------------------------------------------------------------------

def test_iota_t_zero_degeneracy():
    out = ds.construct_iota(K1_ZERO)
    assert np.max(np.abs(out["iota"] - alg.EYE2)) < 1e-10
    assert np.max(np.abs(out["iota1"] - alg.EYE2)) < 1e-10
    assert out["s"] == pytest.approx(1.0)
    # q at t=0 is psi^-1
    assert out["q"] == pytest.approx(K1_ZERO.psi ** -1, abs=1e-10)


def test_iota_form_and_reality():
    out = ds.construct_iota(K1)
    assert out["form_residual"] < 1e-10
    assert np.max(np.abs(out["iota"].imag)) < 1e-12   # iota is real
    assert out["r1"] * out["r2"] < 0                  # opposite signs
    assert abs(out["q"]) == pytest.approx(FROZEN["abs_q"], abs=1e-8)


def test_all_generators_su11_at_iota1():
    cert = ds.su11_certify(K1)
    assert cert["certified"]
    assert cert["worst_defect"] < 1e-8
    # reflection monodromies at iota1 are themselves SU(1,1)
    assert any(name.startswith("rho~") for name in cert["words"])


def test_su11_fails_at_identity_frame():
    """Before conjugation the monodromies are NOT in SU(1,1) (t != 0)."""
    rho3 = ds.rho_tilde(K1, 3)
    assert alg.su11_defect(rho3) > 1e-4


def test_theta_zero_identity():
    out = ds.theta_zero_check(K1)
    assert out["residual"] < 1e-10
    assert out["theta0"] == pytest.approx(FROZEN["theta_0"], abs=1e-8)
    assert out["target"] == pytest.approx(
        math.pi * FROZEN["nu_0"] / 4.0, abs=1e-9)
    assert out["imag_leak"] < 1e-10


def test_theta_zero_pi_over_4_at_zero_t():
    out = ds.theta_zero_check(K1_ZERO)
    assert out["theta0"] == pytest.approx(math.pi / 4.0, abs=1e-10)


# ---------------------------------------------------------------------------
# derivative of the monodromy at t = 0
# ---------------------------------------------------------------------------

def test_residue_derivative_routes():
    out = ds.residue_derivative(1)
    assert out["contour_residual"] < 1e-9
    assert out["fd_residual"] < 1e-4
    want = 2.0 * 2.0 * math.pi
    assert abs(out["target"][0, 0] - 1j * want) < 1e-12


def test_residue_derivative_perturbed_contour_fails(monkeypatch):
    """A perturbed contour route fails its check; the finite-difference
    route, computed on the lift, does not move."""
    exact = ds.residue_derivative(1)
    integrate_form = wst.integrate_form
    monkeypatch.setattr(wst, "integrate_form",
                        lambda *a, **kw: integrate_form(*a, **kw) + 1e-7)
    out = ds.residue_derivative(1)
    assert out["contour_residual"] == pytest.approx(1e-7, rel=1e-3)
    assert out["fd_residual"] == exact["fd_residual"]
    checks = {c["name"]: c for c in verify_mod.criterion_9(
        verify_mod.VerifyConfig())}
    assert not checks["contour integral of Psi_0, k=1"]["pass"]
    assert checks["d/dt rho(tau_0)^-1 at 0, k=1 (FD)"]["pass"]


# ---------------------------------------------------------------------------
# de Sitter geometry
# ---------------------------------------------------------------------------

def test_hermitian_coordinates_identity():
    x = ds.hermitian_coordinates(alg.EYE2)
    # F = id maps to f = E3: x = (0, 0, 0, 1)
    assert np.allclose(x, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
    assert ds.desitter_defect(x) < 1e-14


def test_surface_lies_on_hyperboloid():
    iota1 = ds.construct_iota(K1)["iota1"]
    out = ds.desitter_sample(K1, (1.8 + 0.4j, 2.2 - 0.3j, 2.6 + 0.9j),
                             b=iota1)
    assert out["hyperboloid_defect"] < 1e-9
    assert out["x"].shape == (3, 4)


def test_desitter_grid_mesh():
    iota1 = ds.construct_iota(K1)["iota1"]
    grid = ds.desitter_grid(K1, b=iota1, nr=4, nth=6)
    assert grid["hyperboloid_defect"] < 1e-8
    assert grid["x"].shape[1] == 4
    assert grid["faces"].shape[1] == 4
    assert grid["faces"].max() < len(grid["x"])


# ---------------------------------------------------------------------------
# secondary Gauss map and the Schwarzian relation
# ---------------------------------------------------------------------------

def test_quotient_check_two_routes():
    out = ds.quotient_check(K1, 2.1 + 0.4j)
    assert out["residual"] < 1e-6


def test_schwarzian_relation_at_safe_point():
    out = ds.schwarzian_relation(K1, 2.3 + 0.55j)
    assert out["rel_residual"] < 1e-5


def test_hopf_shift_closed_form():
    z = 1.9 + 0.8j
    got = ds._hopf_shift(K1, z)
    want = (2 * 0.02 * 1 / 2) * (z * z + 1) / (z * z * (z * z - 1))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# end behaviour
# ---------------------------------------------------------------------------

def test_end_asymptotics_zero_end():
    out = ds.end_asymptotics(K1, which="zero")
    # the ray is transported straight into z = 0: no clearance circles
    assert out["legs"] == 48
    assert abs(out["winding"]) < 0.25
    assert out["conclusive"]
    assert out["rel_error"] < 0.02
    assert out["r_squared"] > 0.999
    # slope -> nu_0/(k + nu_0)
    nu0 = FROZEN["nu_0"]
    assert out["expected"] == pytest.approx(nu0 / (1 + nu0), abs=1e-9)


def test_deformation_report_keys():
    rep = ds.deformation_report(1, 0.02)
    for key in ("k", "t", "c", "nu_0", "nu_inf", "su11_worst_defect",
                "trace_tau0_residual", "trace_tauinf_residual",
                "theta0_residual"):
        assert key in rep
    assert rep["su11_worst_defect"] < 1e-8
