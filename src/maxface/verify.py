"""The acceptance gate: twelve numbered verification criteria.

Each criterion re-derives its targets from closed forms or counts stated as
self-contained formulas (see the `anchor` strings) and checks the library
against them at fixed tolerances.  `run_all` executes any subset and reports
one pass/fail record per criterion with the individual checks inside.

With jobs > 1, `pack_shards` splits the criteria into at most `jobs` shards
of about equal cost (Graham's longest-processing-time rule over `COST_MS`),
keeping the de Sitter criteria 9, 10 and 12 in one shard so the memos they
share are built once.  The loaded parent forks one child per shard and runs
none itself; each child sends its rows back through a pipe.  A child that
dies fails every criterion of its shard with its exit status as the error.
Where `os.fork` does not exist the criteria run serially.

The hidden `perturb_ck` knob injects a relative error into the solved period
constant before the closure criterion runs — the gate must go red under it;
this is the self-test that the tolerances actually bite.
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np

from . import cover as cov
from . import desitter as ds
from . import periods as per
from . import singularities as sng
from . import weierstrass as wst
from .algebra import EYE2
from .errors import MaxfaceError


@dataclass(frozen=True)
class VerifyConfig:
    perturb_ck: float = 0.0


def _check(name: str, value, tolerance, ok: bool, anchor: str = "") -> dict:
    return {"name": name, "value": value, "tolerance": tolerance,
            "pass": bool(ok), "paper_anchor": anchor}


def _within(name: str, value, tol, anchor: str = "") -> dict:
    """A check that passes when value <= tol, reporting tol as its tolerance."""
    return _check(name, value, tol, value <= tol, anchor)


def _lgamma_beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(cfg: VerifyConfig) -> list[dict]:
    """Period constants against the Beta closed forms, and dual-route c_k."""
    checks = []
    sol = per.compute_ck(1)
    a_oracle = 0.5 * _lgamma_beta(0.75, 0.5)
    b_oracle = 0.5 * _lgamma_beta(0.25, 0.5)
    checks.append(_within("A_1 vs Beta oracle", abs(sol.A_k - a_oracle), 1e-9,
                          "A_1 = B(3/4, 1/2)/2"))
    checks.append(_within("B_1 vs Beta oracle", abs(sol.B_k - b_oracle), 1e-9,
                          "B_1 = B(1/4, 1/2)/2"))
    # the reference display values are 5-decimal prints with their own
    # rounding slop (~6e-5); the oracles above carry the 1e-9 burden
    for name, got, disp in (("A_1", sol.A_k, 1.19814),
                            ("B_1", sol.B_k, 2.62200),
                            ("c_1", sol.c_k, 1.04603)):
        checks.append(_check(f"{name} display value", got, 1e-4,
                             abs(got - disp) <= 1e-4,
                             f"{name} ~ {disp}"))
    checks.append(_check("c_1 > 1", sol.c_k, "> 1", sol.c_k > 1.0,
                         "c_1 = sqrt(B_1/(2 A_1)) > 1"))
    for k in range(1, 7):
        ck = per.compute_ck(k).c_k
        cr = per.solve_ck_by_root(k)
        checks.append(_within(f"dual route c_{k}", abs(ck - cr), 1e-8,
                              "quadrature c_k == root of Im(period sum)"))
    return checks


def criterion_2(cfg: VerifyConfig) -> list[dict]:
    """Re-closure of all generator periods at c = c_k, and its fragility."""
    checks = []
    for k in range(1, 5):
        c = per.compute_ck(k).c_k * (1.0 + cfg.perturb_ck)
        data = wst.catalog_get("genus_k", k=k, c=c)
        worst = max(per.closure_residuals(data, cov.generator_loops(data.cover)))
        checks.append(_within(f"max closure residual k={k}", worst, 1e-8,
                              "Re contour(Phi) = 0 over all 2(k+1) generators"))
    data = wst.catalog_get("genus_k", k=1, c=per.compute_ck(1).c_k * 1.01)
    gamma = cov.generator_loops(data.cover)[0]
    [res] = per.closure_residuals(data, [gamma])
    checks.append(_check("1% c-perturbation breaks closure", res, 1e-3,
                         res > 1e-3, "closure is c-critical, not generic"))
    return checks


def criterion_3(cfg: VerifyConfig) -> list[dict]:
    """Range bounds on rho_k, Gamma_k and the lower bound on c_k."""
    checks = []
    for k in range(1, 9):
        sol = per.compute_ck(k)
        checks.append(_check(f"rho_{k} in (0,2)", sol.rho_k, "(0, 2)",
                             0.0 < sol.rho_k < 2.0,
                             "rho_k = c_k^(-2(k+1)/k) in (0, 2)"))
        checks.append(_check(f"Gamma_{k} in (0,pi/4)", sol.Gamma_k,
                             "(0, pi/4)",
                             0.0 < sol.Gamma_k < math.pi / 4.0,
                             "Gamma_k = arcsin(sqrt(rho_k)/2)"))
        if k >= 2:
            checks.append(_check(
                f"c_{k} above lower bound", sol.c_k - sol.lower_bound, "> 0",
                sol.c_k > sol.lower_bound,
                "c_k > sqrt(s_k/2), s_k = k^(1/(k+1)) (k/(k-1))^((k-1)/(k+1))"))
    return checks


def _oval_residual(comp, rho_k: float, reduced: bool) -> float:
    """max |r^2 + 1/r^2 - 2 cos 2theta - rho_k| over the vertices
    z = r e^(i theta); the reduced coordinate is Z = z^2, where the oval
    reads R + 1/R - 2 cos Theta = rho_k."""
    z = comp.z_vertices
    r, th = np.hypot(z.real, z.imag), np.arctan2(z.imag, z.real)
    s, th = (r, th) if reduced else (r * r, 2.0 * th)
    return float(np.max(np.abs(s + 1.0 / s - 2.0 * np.cos(th) - rho_k)))


def criterion_4(cfg: VerifyConfig) -> list[dict]:
    """Genus-family singular structure: ovals, counts, halving stability."""
    checks = []
    for k, reduced in ((1, False), (3, False), (2, True), (4, True)):
        name = "genus_k_reduced" if reduced else "genus_k"
        sol = per.compute_ck(k)
        data = wst.catalog_get(name, k=k)
        # the step-halving trace marches beside the main one
        comps, comps_h = sng.trace_singular_set(
            data, steps=(data.trace_step, data.trace_step / 2.0))
        counts_all = sng.count_singularities(data, comps + comps_h)
        n_expected = 1 if reduced else 2
        checks.append(_check(
            f"{name} k={k}: component count", len(comps), n_expected,
            len(comps) == n_expected,
            "singular set = 2 ovals on M_k, 1 on the reduced M'_k"))
        worst_oval = max((_oval_residual(c, sol.rho_k, reduced) for c in comps),
                         default=math.inf)
        checks.append(_within(
            f"{name} k={k}: oval identity", worst_oval, 1e-8,
            "r^2 + 1/r^2 - 2 cos 2theta = rho_k on the singular set"))
        per_comp = 2 * (k + 1)
        sw = cc = dg = 0
        for comp, counts in zip(comps, counts_all):
            ok = (counts["swallowtails"] == per_comp
                  and counts["cross_caps"] == per_comp
                  and counts["degenerate"] == 0)
            checks.append(_check(
                f"{name} k={k} {comp.label}: 2(k+1)+2(k+1) points",
                {"swallowtails": counts["swallowtails"],
                 "cross_caps": counts["cross_caps"],
                 "degenerate": counts["degenerate"]},
                per_comp, ok,
                "2(k+1) swallowtails and 2(k+1) cuspidal cross caps per oval"))
            sw += counts["swallowtails"]
            cc += counts["cross_caps"]
            dg += counts["degenerate"]
        total = per_comp if reduced else 2 * per_comp
        checks.append(_check(
            f"{name} k={k}: totals", {"swallowtails": sw, "cross_caps": cc},
            total, sw == total and cc == total and dg == 0,
            "totals 4(k+1) for odd k on M_k, 2(k+1) on the reduced M'_k"))
        # stability under step halving
        sw_h = cc_h = 0
        for counts in counts_all[len(comps):]:
            sw_h += counts["swallowtails"]
            cc_h += counts["cross_caps"]
        checks.append(_check(
            f"{name} k={k}: step-halving stability",
            {"swallowtails": sw_h, "cross_caps": cc_h},
            {"swallowtails": sw, "cross_caps": cc},
            len(comps_h) == n_expected and sw_h == sw and cc_h == cc,
            "counts are resolution-independent"))
    return checks


def criterion_5(cfg: VerifyConfig) -> list[dict]:
    """Cone example: one cone-like component plus two mixed ovals."""
    checks = []
    data = wst.catalog_get("cone", a=2.5)
    [comps] = sng.trace_singular_set(data)
    checks.append(_check("cone: component count", len(comps), 3,
                         len(comps) == 3,
                         "axis circle plus two ovals in the 1/(z-1) chart"))
    axis = None
    others = []
    for comp, cls in zip(comps, sng.count_singularities(data, comps)):
        if cls["cone_like"]:
            axis = cls
        else:
            others.append((comp, cls))
    found = axis is not None
    checks.append(_check("cone: axis is cone-like", found, True, found,
                         "alpha real, nonvanishing; G winds once; eta-hat != 0"))
    if found:
        checks.append(_within("cone axis: max|Im alpha|", axis["max_im_alpha"],
                              1e-10, "alpha real on the cone-like axis"))
        checks.append(_check("cone axis: min|alpha|", axis["min_abs_alpha"],
                             "> 0.1", axis["min_abs_alpha"] > 0.1,
                             "alpha bounded away from zero"))
        checks.append(_check("cone axis: G-winding", axis["gauss_winding"],
                             "+-1", axis["gauss_winding"] in (1, -1),
                             "deg(G restricted to the axis) = 1"))
        checks.append(_check("cone axis: eta-hat floor", axis["eta_chart_min"],
                             "> 0", axis["eta_chart_min"] > 0.0,
                             "eta-hat nonvanishing along the axis"))
    for comp, cls in others:
        n = comp.vertex_count
        has_edges = "cuspidal_edge" in cls["vertex_kinds"][:n:max(1, n // 12)]
        ok = cls["swallowtails"] > 0 and cls["cross_caps"] > 0 and has_edges
        checks.append(_check(
            f"cone {comp.label}: edges + swallowtails + cross caps",
            {"swallowtails": cls["swallowtails"],
             "cross_caps": cls["cross_caps"],
             "has_edges": has_edges},
            "> 0", ok,
            "the non-axis ovals mix all three singularity types"))
    return checks


def criterion_6(cfg: VerifyConfig) -> list[dict]:
    """Trinoid: eight swallowtails, no cross caps, no cone-like parts."""
    checks = []
    data = wst.catalog_get("trinoid1", a=3.67)
    [comps] = sng.trace_singular_set(data)
    classes = sng.count_singularities(data, comps)
    sw = sum(cls["swallowtails"] for cls in classes)
    cc = sum(cls["cross_caps"] for cls in classes)
    any_cone = any(cls["cone_like"] for cls in classes)
    checks.append(_check("trinoid: swallowtails", sw, 8, sw == 8,
                         "eight swallowtails on the two singular ovals"))
    checks.append(_check("trinoid: cross caps", cc, 0, cc == 0,
                         "no cuspidal cross caps"))
    checks.append(_check("trinoid: cone-like components", any_cone, False,
                         not any_cone, "no cone-like locus"))
    return checks


def criterion_7(cfg: VerifyConfig) -> list[dict]:
    """Slope-fitted vanishing orders equal the reference table exactly, and
    by the same table both ends are complete and nonsingular."""
    checks = []
    for k in (1, 2, 3):
        data = wst.catalog_get("genus_k", k=k)
        table = wst.order_table(data)
        expected = wst.expected_orders(data.cover)
        mismatches = []
        for label, row in expected.items():
            for qname, order in row.items():
                got = table.rows[label][qname]["order"]
                if got != order:
                    mismatches.append(f"{label}/{qname}: {got} != {order}")
        checks.append(_check(
            f"order table k={k}", mismatches or "all match", "exact",
            not mismatches and table.max_residual < 0.1,
            "orders of G, eta, G eta, G^2 eta, Q at the special points"))
        # ds ~ max(|eta|, |G^2 eta|) near an end
        ends = {label: {"G": row["G"]["order"],
                        "ds": min(row["eta"]["order"], row["G^2*eta"]["order"])}
                for label, row in table.rows.items() if label in ("zero", "infinity")}
        checks.append(_check(
            f"complete nonsingular ends k={k}", ends, "G != 0, ds <= -1",
            all(end["G"] != 0 and end["ds"] <= -1 for end in ends.values()),
            "ds has a pole and G a zero or a pole at both ends"))
    return checks


def criterion_8(cfg: VerifyConfig) -> list[dict]:
    """Gauss-map degrees and the Osserman-type equality."""
    checks = []
    for k in (1, 2, 3):
        data = wst.catalog_get("genus_k", k=k)
        deg = wst.gauss_degree(data)["degree"]
        checks.append(_check(f"deg G on M_{k}", deg, 2 * k, deg == 2 * k,
                             "deg G = 2k on the genus-k cover"))
    for k in (2, 4):
        m = k // 2
        data = wst.catalog_get("genus_k_reduced", k=k)
        deg = wst.gauss_degree(data)["degree"]
        table = wst.order_table(data)
        pole0 = table.rows["zero"]["G"]["order"]
        poleinf = table.rows["infinity"]["G"]["order"]
        ok = deg == 2 * m and pole0 == -m and poleinf == -m
        checks.append(_check(
            f"deg G_1 on reduced k={k}",
            {"mapping_degree": deg, "pole_order_each_end": (-pole0, -poleinf)},
            {"mapping_degree": 2 * m, "pole_order_each_end": (m, m)}, ok,
            "G_1 has an order-m pole at each end; mapping degree 2m"))
    d1 = wst.catalog_get("genus_k", k=1)
    oss1 = wst.osserman_check(d1)
    checks.append(_check("Osserman equality, k=1", oss1,
                         "2 deg G = -chi + #ends",
                         oss1["ok"] and oss1["equality"],
                         "2 deg G = -chi(M) + #ends with equality"))
    d2 = wst.catalog_get("genus_k_reduced", k=2)
    oss2 = wst.osserman_check(d2)
    checks.append(_check("Osserman equality, reduced k=2", oss2,
                         "2 deg G = -chi + #ends",
                         oss2["ok"] and oss2["equality"],
                         "2 deg G = -chi(M') + #ends with equality"))
    return checks


def criterion_9(cfg: VerifyConfig) -> list[dict]:
    """Deformation algebra: the half-turn power law, trace identities,
    the t-derivative residue, and the second-order growth of |q|."""
    checks = []
    pairs = [ds.AdmissiblePair(k, t)
             for k in (1, 2) for t in (-0.02, -0.01, 0.01, 0.02)]
    for pair, traces in zip(pairs, ds.trace_identity_check(pairs)):
        k, t = pair.k, pair.t
        r2 = ds.rho_tilde(pair, 2)
        powres = float(np.max(np.abs(
            np.linalg.matrix_power(r2, k + 1) - (-1.0) ** k * EYE2)))
        checks.append(_within(
            f"rho~_2^(k+1) = (-1)^k e0, k={k} t={t:+}", powres, 1e-8,
            "(rho_2)^(k+1) = (-1)^k e0"))
        for lbl in ("tau_0", "tau_inf"):
            res = traces[lbl]["residual"]
            checks.append(_within(
                f"trace rho({lbl}), k={k} t={t:+}", res, 1e-6,
                "trace rho(tau) = (-1)^k 2 cos(pi nu), nu = k sqrt(1 +- 4t(k+1)/k)"))
    h = 1e-3
    q_pairs = [ds.AdmissiblePair(k, tt) for k in (1, 2) for tt in (-h, 0.0, h)]
    qs = [abs(iota["q"]) ** 2 for iota in ds.construct_iota(q_pairs)]
    for k, rd, q3 in zip((1, 2), ds.residue_derivative((1, 2)),
                         (qs[:3], qs[3:])):
        scale = 2.0 * (k + 1) * math.pi
        checks.append(_within(
            f"d/dt rho(tau_0)^-1 at 0, k={k} (FD)", rd["fd_residual"] / scale,
            1e-4, "d/dt rho(tau_0)^{-1}|_0 = 2(k+1) pi i diag(1,-1)"))
        checks.append(_within(
            f"contour integral of Psi_0, k={k}", rd["contour_residual"], 1e-9,
            "contour(Psi_0) over tau_0 = 2 pi i diag(k+1, -(k+1))"))
        d2 = (q3[0] - 2.0 * q3[1] + q3[2]) / (h * h)
        target = 4.0 * (k + 1) * math.pi / k * math.tan(
            math.pi * k / (2.0 * k + 2.0))
        rel = abs(d2 - target) / target
        checks.append(_check(
            f"d2/dt2 |q|^2 at 0, k={k}", {"value": d2, "target": target}, 0.05,
            rel <= 0.05,
            "d2/dt2 |q(t)|^2|_0 = 4(k+1) pi/k tan(pi k/(2k+2))"))
    return checks


_DS_SAMPLE_Z = (1.7 + 0.4j, 2.2 + 0.3j, 2.5 - 0.2j, 1.8 - 0.5j, 3.0 + 1.0j,
                2.8 + 0.9j, 1.5 - 0.8j, 2.0 + 1.2j)


def criterion_10(cfg: VerifyConfig) -> list[dict]:
    """SU(1,1) certification, the hyperboloid constraint, and the
    Schwarzian/Hopf comparison of the secondary Gauss map."""
    checks = []
    pairs = [ds.AdmissiblePair(k, t) for k in (1, 2) for t in (-0.02, 0.02)]
    certs = ds.su11_certify(pairs)
    samples = ds.desitter_sample(pairs, _DS_SAMPLE_Z,
                                 b=[cert["iota1"] for cert in certs])
    for pair, cert, sample in zip(pairs, certs, samples):
        k, t = pair.k, pair.t
        checks.append(_within(
            f"SU(1,1) at iota_1, k={k} t={t:+}", cert["worst_defect"],
            1e-8, "all reflection and loop monodromies lie in SU(1,1)"))
        checks.append(_within(
            f"hyperboloid constraint, k={k} t={t:+}",
            sample["hyperboloid_defect"], 1e-9,
            "f = F e3 F^* satisfies -x0^2+x1^2+x2^2+x3^2 = 1"))
    # ring at distance >= 0.75 from the Hopf poles {0, +-1}: the FD
    # Schwarzian truncation grows like (step/dist)^4 near the poles
    ring = [2.3 + 0.55 * cmath.exp(2j * math.pi * (i + 0.5) / 20.0)
            for i in range(20)]
    worst = float(np.max(ds.schwarzian_relation(
        ds.AdmissiblePair(1, 0.02), ring)["rel_residual"]))
    checks.append(_within(
        "Schwarzian relation at 20 points", worst, 1e-5,
        "S(g) - S(G) = 2 Q_t = (2tk/(k+1)) (z^2+1)/(z^2(z^2-1))"))
    return checks


def criterion_11(cfg: VerifyConfig) -> list[dict]:
    """Growth exponents at both ends of the deformed k=1 face."""
    checks = []
    pair = ds.AdmissiblePair(1, 0.02)
    for ea in ds.end_asymptotics(pair):
        ok = ea["conclusive"] and ea["rel_error"] <= 0.02
        checks.append(_check(
            f"end {ea['end']}: slope of log|x1+ix2| vs log|x0|",
            {"slope": ea["slope"], "expected": ea["expected"],
             "r_squared": ea["r_squared"]}, 0.02, ok,
            "transverse growth exponent nu/(k+nu), nu = k sqrt(1 +- 4t(k+1)/k)"))
    return checks


# three probe points in 1.5 < Re z < 2.5, 0.2 < Im z < 0.8 for each of
# k = 1, 2, 3 (first drawn from numpy's default_rng(23), kept as literals)
_WORD_PROBES = (
    ((2.1939330806573643+0.5848749325269385j),
     (1.6286442243176362+0.2682248300787976j),
     (2.1533455213345873+0.7120742635790964j)),
    ((1.7017791344404063+0.3308111822514416j),
     (2.216584635923583+0.4824198024015651j),
     (1.9152219306407114+0.40948868283057177j)),
    ((1.563853753143692+0.47279969954693496j),
     (1.8014532795996776+0.4334460519743611j),
     (2.040297819333368+0.6101538152433308j)),
)


def criterion_12(cfg: VerifyConfig) -> list[dict]:
    """Reflection-word calculus: sigma involutions, route agreement,
    and the deck relations as continuation facts."""
    checks = []
    for k in (1, 2, 3, 4):
        sig = ds.sigma_matrices(k)
        worst = max(float(np.max(np.abs(s.conj() @ s - EYE2)))
                    for s in sig.values())
        checks.append(_within(f"conj(sigma_j) sigma_j = e0, k={k}", worst,
                              1e-14, "the sigma_j are anti-involutions"))
    pairs = [ds.AdmissiblePair(k, 0.02) for k in (1, 2)]
    monodromies = iter(ds.loop_monodromy(
        [(pair, word) for pair in pairs
         for word in (cov.word_end_zero(pair.k),
                      cov.word_end_infinity(pair.k))]))
    for k in (1, 2):
        for lbl, res in zip(("tau_0", "tau_inf"), monodromies):
            checks.append(_within(
                f"word vs ODE monodromy {lbl}, k={k}",
                res["route_disagreement"], 1e-8,
                "alternating word composition equals direct integration"))
    for k, probes in zip((1, 2, 3), _WORD_PROBES):
        spec = cov.CoverSpec(k)
        worst = 0.0
        for z in probes:
            p = cov.solve_fiber(spec, z)
            q = p
            for _ in range(k + 1):
                q = cov.reflection_apply(spec, 2, cov.reflection_apply(spec, 1, q))
            worst = max(worst, abs(q.z - p.z) + abs(q.w - p.w))
        checks.append(_within(
            f"(mu_2 mu_1)^(k+1) = id, k={k}", worst, 1e-10,
            "(mu~_2 mu~_1)^(k+1) is the trivial deck transformation"))
        tau0 = cov.deck_word_path(spec, cov.word_end_zero(k))
        [lifted] = cov.lift(spec, [tau0])
        closed = lifted.is_closed()
        checks.append(_check(
            f"tau_0 realization closes on the cover, k={k}", closed, True,
            closed, "tau_0 = (mu~_3 mu~_2)^(2(k+1)) as a continuation fact"))
    return checks


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

CRITERIA: dict[int, tuple[str, callable]] = {
    1: ("period constants and dual-route c_k", criterion_1),
    2: ("generator-period closure at c_k", criterion_2),
    3: ("bounds on rho_k, Gamma_k, c_k", criterion_3),
    4: ("genus-family singular counts and ovals", criterion_4),
    5: ("cone example singular structure", criterion_5),
    6: ("trinoid singular structure", criterion_6),
    7: ("vanishing-order table", criterion_7),
    8: ("Gauss degree and Osserman equality", criterion_8),
    9: ("deformation algebra and derivatives", criterion_9),
    10: ("SU(1,1) certification and Schwarzian", criterion_10),
    11: ("end growth exponents", criterion_11),
    12: ("reflection-word calculus", criterion_12),
}


def run_criterion(cid: int, cfg: VerifyConfig | None = None) -> dict:
    if cid not in CRITERIA:
        raise MaxfaceError(f"no criterion {cid}")
    cfg = cfg or VerifyConfig()
    title, fn = CRITERIA[cid]
    start = time.perf_counter()
    try:
        checks = fn(cfg)
        failed_err = None
    except Exception as exc:  # one criterion's crash must not end the run
        checks = []
        failed_err = f"{type(exc).__name__}: {exc}"
    runtime = time.perf_counter() - start
    passed = bool(checks) and all(c["pass"] for c in checks) \
        and failed_err is None
    out = {"id": cid, "title": title, "pass": passed,
           "runtime_s": round(runtime, 3), "checks": checks}
    if failed_err:
        out["error"] = failed_err
    return out


# the criteria that read the de Sitter memos (leg propagators, reflection
# matrices of the pairs (k, +-0.02)) criterion 9 builds; a shard keeps them
# together so the memos are built once.  Criterion 11's end rays share no leg.
_DESITTER_UNIT = (9, 10, 12)

# cost of each criterion in ms on a shared 2-vCPU host: median of 26 runs,
# each in a fresh process with the modules loaded, in id order so that 10
# and 12 read 9's memos.  It only balances the shards; no result depends
# on it.
COST_MS = {1: 10, 2: 12, 3: 1, 4: 73, 5: 47, 6: 13, 7: 5, 8: 3, 9: 84,
           10: 36, 11: 17, 12: 6}


def pack_shards(ids, jobs: int) -> list[list[int]]:
    """Split criteria `ids` into at most `jobs` non-empty shards of about
    equal cost: the selected de Sitter criteria form one unit and every
    other criterion a unit of its own; largest unit first (ties to the
    lowest id), each goes to the lightest shard (ties to the first)."""
    ids = sorted(ids)
    shared = [cid for cid in ids if cid in _DESITTER_UNIT]
    units = [[cid] for cid in ids if cid not in _DESITTER_UNIT]
    if shared:
        units.append(shared)
    units.sort(key=lambda unit: (-sum(COST_MS[c] for c in unit), unit[0]))
    shards = [[] for _ in range(min(jobs, len(units)))]
    loads = [0] * len(shards)
    for unit in units:
        i = loads.index(min(loads))
        shards[i] += unit
        loads[i] += sum(COST_MS[c] for c in unit)
    return [sorted(shard) for shard in shards]


def _run_shard_child(shard, cfg, fd: int):
    """In a forked child: run the shard, write its pickled rows to `fd`
    and leave without returning into the caller's stack."""
    code = 1
    try:
        rows = [run_criterion(cid, cfg) for cid in shard]
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(rows, fh)
        code = 0
    finally:
        os._exit(code)


def _shard_rows(shard, payload: bytes, status: int) -> list[dict]:
    """The rows a child wrote, or one failed row per criterion of its shard
    when it died: a non-zero exit, a signal or a short payload."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):
            reason = "wrote a short payload (exit status 0)"
    elif code < 0:
        reason = f"was killed by signal {-code}"
    else:
        reason = f"exited with status {code}"
    return [{"id": cid, "title": CRITERIA[cid][0], "pass": False,
             "runtime_s": 0.0, "checks": [], "error": f"worker {reason}"}
            for cid in shard]


def _run_shards(shards, cfg) -> list[dict]:
    """Fork one child per shard and collect its rows; the parent runs no
    criterion, and every child is reaped whatever happens."""
    # the children share the modules loaded here; reading an attribute runs
    # a module still waiting for its first use, which each child would
    # otherwise do again
    for module in (cov, ds, per, sng, wst):
        vars(module)
    children = []  # (shard, pid, read end of its pipe)
    try:
        for shard in shards:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _run_shard_child(shard, cfg, w)
            os.close(w)
            children.append((shard, pid, os.fdopen(r, "rb")))
        payloads = [fh.read() for _, _, fh in children]
    finally:
        statuses = []
        for _, pid, fh in children:
            fh.close()
            statuses.append(os.waitpid(pid, 0)[1])
    rows = [row for (shard, _, _), payload, status
            in zip(children, payloads, statuses)
            for row in _shard_rows(shard, payload, status)]
    return sorted(rows, key=lambda row: row["id"])


def run_all(ids=None, perturb_ck: float = 0.0, jobs: int = 1) -> dict:
    ids = sorted(ids) if ids else sorted(CRITERIA)
    cfg = VerifyConfig(perturb_ck=perturb_ck)
    shards = pack_shards(ids, jobs) if jobs > 1 and hasattr(os, "fork") \
        else [ids]
    if len(shards) > 1:
        results = _run_shards(shards, cfg)
    else:
        results = [run_criterion(cid, cfg) for cid in ids]
    return {
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
        "perturb_ck": perturb_ck,
    }
