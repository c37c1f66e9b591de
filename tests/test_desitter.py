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
from maxface.errors import ContinuationError, NumericalError, ValidationError
from nearest_root import lifted_legs, on_cover, walk_segments

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


@pytest.mark.parametrize("t, c", [(math.nan, None), (math.inf, None),
                                  (-math.inf, None), (0.01, math.nan),
                                  (0.01, math.inf)])
def test_admissible_pair_rejects_nonfinite(t, c):
    """A NaN t would never hit the propagator memo and used to fail only in
    nu_exponents, as if it lay outside the window."""
    with pytest.raises(ValidationError, match="finite"):
        ds.AdmissiblePair(1, t, c)


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
    m = K1.psihat0(p)
    assert abs(m[0, 0] + m[1, 1]) < 1e-14
    assert abs(alg.det2(m)) < 1e-14


# ---------------------------------------------------------------------------
# the lift and its invariants
# ---------------------------------------------------------------------------

def test_lift_preserves_determinant():
    spec = K1.spec
    path = cov.SurfacePath((2.0, 1.8 + 0.9j, 1.1 + 1.3j),
                           cov.base_point(spec).w)
    [lift] = ds.transport([(K1, path)])
    assert lift.det_defect < 1e-11
    assert alg.det2(lift.F[-1]) == pytest.approx(1.0, abs=1e-11)
    # the w-component rides along on the curve
    assert on_cover(spec, cov.SurfacePoint(lift.route[-1], lift.w[-1]),
                        1e-8)


def test_word_loop_keeps_determinant():
    """det F is a constant of motion and is never renormalized: around the
    84-leg tau_0 word loop of k = 2, up to |t| near t_max, the lift keeps
    it to 1e-12."""
    pairs = [ds.AdmissiblePair(2, t) for t in (0.02, -0.1, 0.13)]
    loop = cov.deck_word_path(pairs[0].spec, cov.word_end_zero(2))
    for lift in ds.transport([(pair, loop) for pair in pairs]):
        assert len(lift.route) == 85
        assert lift.det_defect < 1e-12


def test_lift_first_order_in_t():
    """d/dt F|_{t=0} = Int Psi_0 dz: for tiny t the lift is e0 + t Int + O(t^2)."""
    t = 1e-5
    pair = ds.AdmissiblePair(1, t)
    spec = pair.spec
    o = cov.base_point(spec)
    path = cov.SurfacePath((o.z, 1.6 + 0.8j), o.w)
    F = ds.transport([(pair, path)], rtol=1e-12)[0].F[-1]
    contour = wst.integrate_form(spec, cov.lift(spec, [path]), pair.psihat0,
                                 tol=1e-12)[0][-1]
    assert np.max(np.abs(F - alg.EYE2 - t * contour)) < 5.0 * t * t


def test_lift_composes_over_concatenation():
    """F along a+b equals F(b-part) after restarting from the a-endpoint."""
    spec = K1.spec
    o = cov.base_point(spec)
    mid = 1.5 + 0.9j
    end = 0.9 + 1.4j
    [whole] = ds.transport([(K1, cov.SurfacePath((o.z, mid, end), o.w))])
    [first] = ds.transport([(K1, cov.SurfacePath((o.z, mid), o.w))])
    [second] = ds.transport([(K1, cov.SurfacePath((mid, end), first.w[-1]))],
                            b=first.F[-1])
    assert np.max(np.abs(second.F[-1] - whole.F[-1])) < 1e-9


def test_multi_pair_transport_matches_per_pair_calls():
    """One transport over pairs of k = 1 and k = 2 with +-t, each from its
    own frame, gives every path the frames and fiber values, bit for bit,
    that a transport of its pair alone gives: each row of the batched solve
    reads its own t, c and k.  A one-vertex path has no legs: it keeps its
    frame b with no det defect, next to jobs of other lengths."""
    pairs = [ds.AdmissiblePair(k, t) for k in (1, 2) for t in (0.02, -0.03)]
    frames = {pair: alg.mat2(1.0 + 0.1 * i, 0.2j, -0.1, 1.0)
              for i, pair in enumerate(pairs)}

    def jobs(pair):
        o = cov.base_point(pair.spec)
        return [(pair, cov.SurfacePath((o.z, 1.6 + 0.8j, 1.1 + 1.3j), o.w)),
                (pair, cov.SurfacePath((o.z,), o.w)),
                (pair, cov.deck_word_path(pair.spec,
                                          cov.word_end_zero(pair.k)))]

    def lift(batch):
        ds.clear_memos()
        return ds.transport(batch, [frames[pair] for pair, _ in batch])

    together = lift([job for pair in pairs for job in jobs(pair)])
    alone = [tr for pair in pairs for tr in lift(jobs(pair))]
    assert len(together) == len(alone) == 12
    for mixed, single in zip(together, alone):
        assert np.array_equal(mixed.F, single.F)
        assert mixed.w == single.w
        assert np.array_equal(mixed.route, single.route)
        assert mixed.det_defect == single.det_defect
    for pair, point in zip(pairs, together[1::3]):
        assert np.array_equal(point.F, [frames[pair]])
        assert point.det_defect == 0.0


def test_integrate_legs_checks_the_continued_sheet():
    """The w integrated jointly with F must end on the root the cover lift
    continued each leg to: rows of k = 1 and k = 2 with their lifted end
    values pass, and one whose end value is one root off raises
    ContinuationError naming its leg."""
    pairs = (K1, ds.AdmissiblePair(2, -0.03))
    rows = []
    for pair in pairs:
        o = cov.base_point(pair.spec)
        [lp] = cov.lift(pair.spec, [cov.SurfacePath((o.z, 1.6 + 0.8j), o.w)])
        assert len(lp.route) == 2
        rows.append((pair.t, pair.c, pair.k, o.z, 1.6 + 0.8j, o.w, lp.w_end))
    t, c, k, za, zb, wa, wb = map(np.array, zip(*rows))
    phis = ds._integrate_legs(t, c, k, za, zb, wa, wb, 1e-11)
    assert np.max(np.abs(alg.det2(phis.T) - 1.0)) < 1e-11
    off = wb.copy()
    off[1] *= cmath.exp(2j * math.pi / pairs[1].spec.sheet_count)
    with pytest.raises(ContinuationError,
                       match=r"left the continued sheet on leg \(2\+0j\) -> \(1.6\+0.8j\)"):
        ds._integrate_legs(t, c, k, za, zb, wa, off, 1e-11)


def test_integrate_legs_do_not_depend_on_the_batch():
    """16,500 short legs integrated in one batch give, bit for bit, the
    propagators of the same legs integrated 100 at a time, though numpy
    reuses temporaries of 16,384 complex values or more in place
    (test_cover.test_arrays_do_not_depend_on_the_batch)."""
    pair = ds.AdmissiblePair(2, 0.02)
    spec, n = pair.spec, 16500
    rng = np.random.default_rng(13)
    za = rng.uniform(1.3, 2.5, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    zb = za + 0.01 * np.exp(2j * math.pi * rng.uniform(size=n))
    wa = spec.fiber(za)[np.arange(n), rng.integers(0, spec.sheet_count, n)]
    wb = np.array([w[-1] for w in cov.continue_legs(spec, list(zip(za, zb)), wa)])
    legs = (np.full(n, pair.t), np.full(n, pair.c), np.full(n, pair.k), za, zb, wa, wb)
    chunked = [ds._integrate_legs(*(a[i:i + 100] for a in legs), 1e-11)
               for i in range(0, n, 100)]
    assert np.array_equal(ds._integrate_legs(*legs, 1e-11), np.concatenate(chunked))


def _count_solves(monkeypatch) -> dict:
    """Count the batched ODE solves of the de Sitter layer (their row counts)
    and the right-hand side calls they make."""
    counts = {"solves": [], "rhs_calls": 0}
    dop853 = ds.dop853

    def counted(f, y0, *args, **kwargs):
        counts["solves"].append(len(y0))

        def rhs(*a):
            counts["rhs_calls"] += 1
            return f(*a)
        return dop853(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(ds, "dop853", counted)
    return counts


def test_legs_of_all_paths_match_sequential_walk():
    """One lift of a word loop and the reflection probe paths, as transport
    lifts them, gives every path the legs, the fiber values at their ends
    and the route of a dense nearest-root walk along that path alone, bit
    for bit; the transport of those paths reports that route and those
    fiber values."""
    spec = K1.spec
    paths = [cov.deck_word_path(spec, cov.word_end_zero(1))] + [
        path for j in (1, 2, 3) for path in ds._probe_paths(spec, j, ds._PROBES)]
    lifts = cov.lift(spec, paths)
    for path, lp, tr in zip(paths, lifts,
                            ds.transport([(K1, path) for path in paths])):
        ref, at_vertex = walk_segments(spec, path.z_vertices, path.w0)
        assert lifted_legs(lp) == ref
        assert lp.route.tolist() == [path.start] + [zb for _, zb, _, _ in ref]
        assert lp.w_vertices.tolist() == at_vertex
        assert np.array_equal(tr.route, lp.route)
        assert tr.w == lp.w_vertices.tolist()


def test_transport_needs_a_fiber_value():
    """A path without a starting fiber value cannot be lifted."""
    path = cov.SurfacePath((2.0, 1.5 + 0.5j), None)
    with pytest.raises(ValidationError, match="no fiber value"):
        ds.transport([(K1, path)])


def test_batched_checks_solve_counts(monkeypatch):
    """On empty memos criterion 9 takes one batched ODE solve per stage:
    the probe paths and then the trace words of its eight (k, t) pairs, the
    +-h residue loops of both k and the probe paths of the six iota pairs.
    deformation_report over two t values takes two, the same rows as one
    report per t."""
    solves = _count_solves(monkeypatch)["solves"]
    ds.clear_memos()
    checks = verify_mod.criterion_9(verify_mod.VerifyConfig())
    assert all(check["pass"] for check in checks)
    assert len(solves) == 4
    ds.clear_memos()
    solves.clear()
    rows = ds.deformation_report(2, [0.013, -0.027])
    assert len(solves) == 2
    for t, row in zip((0.013, -0.027), rows):
        ds.clear_memos()
        assert ds.deformation_report(2, [t]) == [row]


def test_gate_criteria_ode_work_ceiling(monkeypatch):
    """On empty memos criteria 9-12 take 8 batched solves and at most 1,100
    right-hand side calls: the eighth-order pair needs 6-19 steps a solve
    at rtol 1e-11 where the 5(4) pair it replaced took 2,660 calls."""
    counts = _count_solves(monkeypatch)
    ds.clear_memos()
    for cid in (9, 10, 11, 12):
        assert verify_mod.run_criterion(cid)["pass"]
    assert len(counts["solves"]) == 8
    assert counts["rhs_calls"] <= 1100


def test_leg_keys_round_the_start_fiber_value(monkeypatch):
    """A leg end is formed as za + (end - za) * 1.0, so two routes to the
    same vertex can reach fiber values that differ in the last bits; the
    memo key rounds the start value to 1e-10 so that they share one
    propagator.  On empty memos deformation_report(30, [0.001]) integrates
    1,492 legs, where exact start values as keys integrate 1,769."""
    solves = _count_solves(monkeypatch)["solves"]
    ds.clear_memos()
    ds.deformation_report(30, [0.001])
    assert sum(solves) == 1492


def test_checks_take_empty_pair_lists():
    """cmc1 with only t = 0 asks deformation_report for no rows, and every
    de Sitter stage under it then transports an empty batch."""
    assert ds.transport([]) == []
    assert ds.deformation_report(1, []) == []
    assert ds.su11_certify([]) == ds.desitter_sample([], (2.0 + 1j,)) == []


def test_lift_at_zero_t_is_identity():
    spec = K1_ZERO.spec
    o = cov.base_point(spec)
    [lift] = ds.transport([(K1_ZERO, cov.SurfacePath((o.z, 1.2 + 1.1j), o.w))])
    assert np.max(np.abs(lift.F[-1] - alg.EYE2)) < 1e-13


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
    [rho] = ds._rho_tildes([K1])
    for j in (1, 2, 3):
        _, spread = rho[j]
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
    [out] = ds.loop_monodromy([(K1, word_fn(1))])
    assert out["route_disagreement"] < 1e-10
    assert out["det_defect"] < 1e-10


def _leg_keys(pair: ds.AdmissiblePair, lp: cov.LiftedPath) -> list[tuple]:
    """The memo keys transport gives the legs of lp transported under pair
    at the default rtol."""
    n = len(lp.route) - 1
    return ds._leg_keys(np.full(n, pair.t), np.full(n, pair.c),
                        np.full(n, pair.k), lp.route[:-1], lp.route[1:],
                        lp.w[:-1], 1e-11)


def test_corrupted_word_loop_leg_breaks_route_agreement(monkeypatch):
    """Route a (the word loop) and route b (the reflection probes) share
    memoized leg propagators only where their paths share legs; corrupting a
    leg that lies on the word loop alone must make the routes disagree."""
    word = cov.word_end_zero(1)
    loop = cov.deck_word_path(K1.spec, word)
    probes = [path for j in (1, 2, 3)
              for path in ds._probe_paths(K1.spec, j, ds._PROBES)]
    loop_lift, *probe_lifts = cov.lift(K1.spec, [loop] + probes)
    probe_keys = {key for lp in probe_lifts for key in _leg_keys(K1, lp)}
    only_a = [key for key in _leg_keys(K1, loop_lift) if key not in probe_keys]
    assert only_a
    ds.loop_monodromy([(K1, word)])  # memoizes every leg of both routes
    key = only_a[len(only_a) // 2]
    monkeypatch.setitem(ds._PROPAGATORS, key,
                        ds._PROPAGATORS[key] @ alg.mat2(1, 1e-6, 0, 1))
    with pytest.raises(NumericalError):
        ds.loop_monodromy([(K1, word)])
    assert not verify_mod.run_criterion(12)["pass"]


@pytest.mark.parametrize("j", [2, 3])
def test_corrupted_probe_leg_breaks_route_agreement(j, monkeypatch):
    """The negative control of route b: corrupting a leg that only the
    reflected probe-0 path of rho~_j uses, off the word loop, must make the
    routes disagree once the reflection matrices are recomputed."""
    word = cov.word_end_zero(1)
    loop = cov.deck_word_path(K1.spec, word)
    probes = {(i, n): path for i in (1, 2, 3)
              for n, path in enumerate(ds._probe_paths(K1.spec, i, ds._PROBES))}
    split = cov.lift(K1.spec, [loop, *probes.values()])
    users = {}
    for name, lp in zip(["loop", *probes], split):
        for key in _leg_keys(K1, lp):
            users.setdefault(key, set()).add(name)
    # path 1 of a reflection's probe paths is P_j * (mu_j o c) at probe 0
    [key] = [key for key, names in users.items() if names == {(j, 1)}]
    ds.loop_monodromy([(K1, word)])  # memoizes every leg of both routes
    monkeypatch.setitem(ds._PROPAGATORS, key,
                        ds._PROPAGATORS[key] @ alg.mat2(1, 1e-6, 0, 1))
    monkeypatch.setattr(ds, "_RHO_TILDE", {})
    with pytest.raises(NumericalError, match="routes disagree"):
        ds.loop_monodromy([(K1, word)])
    assert not verify_mod.run_criterion(12)["pass"]


def test_loop_monodromy_base_change_consistency():
    b = alg.mat2(1.1, 0.2 + 0.1j, -0.1j, 1.0)
    word = cov.word_end_zero(1)
    [at_b] = ds.loop_monodromy([(K1, word)], b=b)
    assert at_b["route_disagreement"] < 1e-9


def test_trace_identities_frozen():
    [out] = ds.trace_identity_check([K1])
    assert out["tau_0"]["residual"] < 1e-8
    assert out["tau_inf"]["residual"] < 1e-8
    assert out["tau_0"]["trace"] == pytest.approx(FROZEN["trace_tau0"],
                                                  abs=1e-8)
    assert out["tau_inf"]["trace"] == pytest.approx(FROZEN["trace_tauinf"],
                                                    abs=1e-8)
    # closed form: (-1)^k 2 cos(pi nu)
    assert out["tau_0"]["target"] == pytest.approx(
        -2.0 * math.cos(math.pi * FROZEN["nu_0"]), abs=1e-9)


def test_word_loops_are_lifted_once():
    """trace_identity_check and su11_certify split each distinct word loop
    into legs once, all of a check's loops in one cov.lift call: the loop
    monodromies share one transport, nothing lifts a loop ahead of it, and
    su11_certify lists each distinct word once (gen_k1^0 is gamma)."""
    pair = ds.AdmissiblePair(1, -0.015)
    ds.construct_iota([pair])  # lifts and caches the reflection probe paths
    calls = []
    lift = cov.lift

    def counted(spec, paths, *args):
        paths = list(paths)
        calls.append([(path.z_vertices, path.w0) for path in paths])
        return lift(spec, paths, *args)

    def loops(words):
        return list(dict.fromkeys(
            (path.z_vertices, path.w0)
            for path in (cov.deck_word_path(pair.spec, w) for w in words)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cov, "lift", counted)
        ds.trace_identity_check([pair])
        assert calls == [loops([cov.word_end_zero(1),
                                cov.word_end_infinity(1)])]
        calls.clear()
        [cert] = ds.su11_certify([pair])
    # two generators for each of the k+1 rotations, tau_0, tau_inf
    words = ([cov.word_generator(j, k2) for j in range(pair.k + 1)
              for k2 in (False, True)]
             + [cov.word_end_zero(1), cov.word_end_infinity(1)])
    assert cov.word_generator(0, False) == cov.word_base_loop()
    assert len(words) == len(loops(words)) == 6
    assert calls == [loops(words)]
    assert len([name for name in cert["words"]
                if not name.startswith("rho~")]) == 6


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
    [out] = ds.construct_iota([K1_ZERO])
    assert np.max(np.abs(out["iota"] - alg.EYE2)) < 1e-10
    assert np.max(np.abs(out["iota1"] - alg.EYE2)) < 1e-10
    assert out["s"] == pytest.approx(1.0)
    # q at t=0 is psi^-1
    assert out["q"] == pytest.approx(K1_ZERO.spec.psi ** -1, abs=1e-10)


def test_iota_form_and_reality():
    [out] = ds.construct_iota([K1])
    assert out["form_residual"] < 1e-10
    assert np.max(np.abs(out["iota"].imag)) < 1e-12   # iota is real
    assert out["r1"] * out["r2"] < 0                  # opposite signs
    assert abs(out["q"]) == pytest.approx(FROZEN["abs_q"], abs=1e-8)


def test_all_generators_su11_at_iota1():
    [cert] = ds.su11_certify([K1])
    assert cert["certified"]
    assert cert["worst_defect"] < 1e-8
    [iota] = ds.construct_iota([K1])
    assert np.array_equal(cert["iota1"], iota["iota1"])
    assert cert["iota_form_residual"] == iota["form_residual"]
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
    [out] = ds.residue_derivative([1])
    assert out["contour_residual"] < 1e-9
    assert out["fd_residual"] < 1e-4
    want = 2.0 * 2.0 * math.pi
    assert abs(out["target"][0, 0] - 1j * want) < 1e-12


def test_residue_derivative_perturbed_contour_fails(monkeypatch):
    """A perturbed contour route fails its check; the finite-difference
    route, computed on the lift, does not move."""
    [exact] = ds.residue_derivative([1])
    integrate_form = wst.integrate_form
    monkeypatch.setattr(wst, "integrate_form",
                        lambda *a, **kw: [x + 1e-7 for x in integrate_form(*a, **kw)])
    [out] = ds.residue_derivative([1])
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


def test_hermitian_coordinates_of_a_stack_match_each_frame():
    """A stack of frames maps, bit for bit, to the coordinates of each frame
    alone (f = F e3 F^* written out per frame), and desitter_defect gives
    the largest defect over any stack shape: on the frames of an end ray."""
    [tr] = ds.transport([(K1, cov.SurfacePath(ds._end_ray("infinity"),
                                              cov.base_point(K1.spec).w))],
                        detour=False)
    stack = ds.hermitian_coordinates(tr.F)
    assert stack.shape == (len(tr.F), 4)
    for F, x in zip(tr.F, stack):
        f = F @ ds.E3 @ F.conj().T
        assert x.tolist() == [0.5 * (f[0, 0] + f[1, 1]).real, f[0, 1].real,
                              f[0, 1].imag, 0.5 * (f[0, 0] - f[1, 1]).real]
        assert ds.hermitian_coordinates(F).tolist() == x.tolist()
    defects = [abs(-x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 - 1.0)
               for x0, x1, x2, x3 in stack]
    assert ds.desitter_defect(stack) == max(defects) > 0.0
    ends = ds.hermitian_coordinates(np.stack([tr.F[:3], tr.F[-3:]]))
    assert ends.tolist() == [stack[:3].tolist(), stack[-3:].tolist()]
    assert ds.desitter_defect(ends) == max(defects[:3] + defects[-3:])


def test_surface_lies_on_hyperboloid():
    iota1 = ds.construct_iota([K1])[0]["iota1"]
    [out] = ds.desitter_sample([K1], (1.8 + 0.4j, 2.2 - 0.3j, 2.6 + 0.9j),
                               b=iota1)
    assert out["hyperboloid_defect"] < 1e-9
    assert out["x"].shape == (3, 4)


def test_desitter_grid_mesh():
    iota1 = ds.construct_iota([K1])[0]["iota1"]
    grid = ds.desitter_grid(K1, b=iota1)
    assert grid["hyperboloid_defect"] < 1e-8
    assert grid["x"].shape[1] == 4
    assert grid["faces"].shape[1] == 4
    assert grid["faces"].max() < len(grid["x"])


# ---------------------------------------------------------------------------
# secondary Gauss map and the Schwarzian relation
# ---------------------------------------------------------------------------

def test_schwarzian_relation_at_safe_point():
    out = ds.schwarzian_relation(K1, [2.3 + 0.55j])
    assert out["rel_residual"][0] < 1e-5


def _reference_schwarzian(pair, probe):
    """S(g) and S(G) at one probe from one transport per stencil path and
    the scalar five-point formula at spacings d and d/2 with one Richardson
    level."""
    o = cov.base_point(pair.spec)
    step = 0.02 * (1.0 + abs(probe))

    def g_and_G(zeta):
        [lift] = ds.transport([(pair, cov.SurfacePath((o.z, probe, zeta),
                                                      o.w))])
        G = pair.c * lift.w[-1] / zeta
        return alg.moebius_apply(alg.inv2(lift.F[-1]), G), G

    def s_at(d, which):
        f2m, f1m, f0, f1p, f2p = (g_and_G(probe + m * d)[which]
                                  for m in (-2, -1, 0, 1, 2))
        d1 = (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * d)
        d2 = (-f2p + 16 * f1p - 30 * f0 + 16 * f1m - f2m) / (12 * d * d)
        d3 = (f2p - 2 * f1p + 2 * f1m - f2m) / (2 * d ** 3)
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    return [(4.0 * s_at(0.5 * step, which) - s_at(step, which)) / 3.0
            for which in (0, 1)]


def test_schwarzian_relation_one_solve_for_all_probes(monkeypatch):
    """Every stencil point of every probe is lifted by one transport, whose
    new legs take one batched ODE solve."""
    probes = (2.1 + 0.5j, 2.5 - 0.4j, 1.8 + 0.7j)
    counts = {"transport": 0, "dop853": 0}
    for name in counts:
        fn = getattr(ds, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ds, name, counted)
    monkeypatch.setattr(ds, "_PROPAGATORS", {})
    out = ds.schwarzian_relation(K1, probes)
    assert counts == {"transport": 1, "dop853": 1}
    monkeypatch.undo()
    for i, probe in enumerate(probes):
        s_g, s_G = _reference_schwarzian(K1, probe)
        assert out["S_g"][i] == pytest.approx(s_g, rel=1e-12)
        assert out["S_G"][i] == pytest.approx(s_G, rel=1e-12)
        target = ds._hopf_shift(K1, probe)
        rel = abs(s_g - s_G - target) / (1.0 + abs(target))
        assert out["rel_residual"][i] == pytest.approx(rel, rel=1e-12)


def test_hopf_shift_closed_form():
    z = 1.9 + 0.8j
    got = ds._hopf_shift(K1, z)
    want = (2 * 0.02 * 1 / 2) * (z * z + 1) / (z * z * (z * z - 1))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# end behaviour
# ---------------------------------------------------------------------------

def test_end_asymptotics_zero_end():
    out = ds.end_asymptotics(K1)[0]
    assert out["end"] == "zero"
    # the ray is transported straight into z = 0: no clearance circles
    assert out["legs"] == 48
    assert abs(out["winding"]) < 0.25
    assert out["conclusive"]
    assert out["rel_error"] < 0.02
    assert out["r_squared"] > 0.999
    # slope -> nu_0/(k + nu_0)
    nu0 = FROZEN["nu_0"]
    assert out["expected"] == pytest.approx(nu0 / (1 + nu0), abs=1e-9)


def test_end_rays_share_one_solve(monkeypatch):
    """On empty memos both end rays of criterion 11 are lifted in one
    batched ODE solve, and each end's fit equals the fit of its ray lifted
    alone by `transport`, bit for bit."""
    solves = _count_solves(monkeypatch)["solves"]
    ds.clear_memos()
    both = ds.end_asymptotics(K1)
    assert len(solves) == 1
    assert [out["end"] for out in both] == ["zero", "infinity"]
    w0 = cov.base_point(K1.spec).w
    for out in both:
        ds.clear_memos()
        ray = cov.SurfacePath(ds._end_ray(out["end"]), w0)
        [alone] = ds.transport([(K1, ray)], detour=False)
        assert ds._end_fit(K1, out["end"], alone) == out


def test_deformation_report_keys(monkeypatch):
    """The report builds each pair's iota once, inside su11_certify, and
    reads its form residual from the certificate."""
    calls = []
    construct_iota = ds.construct_iota
    monkeypatch.setattr(ds, "construct_iota",
                        lambda pairs: calls.append(1) or construct_iota(pairs))
    [rep] = ds.deformation_report(1, [0.02])
    assert calls == [1]
    for key in ("k", "t", "c", "nu_0", "nu_inf", "iota_form_residual",
                "su11_worst_defect", "trace_tau0_residual",
                "trace_tauinf_residual", "theta0_residual"):
        assert key in rep
    assert rep["su11_worst_defect"] < 1e-8
