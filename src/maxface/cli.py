"""Command-line front end.

Subcommands: gallery, mesh, singular, periods, cmc1, verify.  Every report is
deterministic JSON (sorted keys, no timestamps); meshes and curve CSVs are the
hand-off to external viewers.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 acceptance/tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import desitter as ds
from . import export
from . import periods as per
from . import schema as schema_mod
from . import singularities as sng
from . import verify as verify_mod
from . import weierstrass as wst
from .errors import (MaxfaceError, NumericalError, ToleranceError,
                     ValidationError)


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValidationError(f"--param expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            val = int(raw)
        except ValueError:
            try:
                val = float(raw)
            except ValueError:
                raise ValidationError(
                    f"--param {key}: {raw!r} is not a number") from None
        out[key] = val
    return out


def _parse_krange(text: str) -> list[int]:
    ks: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part.lstrip("-"):
                lo, _, hi = part.partition("-")
                ks.extend(range(int(lo), int(hi) + 1))
            else:
                ks.append(int(part))
    except ValueError:
        raise ValidationError(f"bad k range {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"bad k range {text!r}")
    return sorted(set(ks))


def _parse_tlist(text: str) -> list[float]:
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad t list {text!r}") from None
    if not vals:
        raise ValidationError(f"bad t list {text!r}")
    return vals


def _jobs_value(args) -> int:
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    env = os.environ.get("MAXFACE_JOBS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("--config must hold a JSON object")
    return cfg


def _merged(args, cfg: dict, key: str, default=None):
    val = getattr(args, key, None)
    if val not in (None, [], ""):
        return val
    return cfg.get(key, default)


def _emit(doc: dict, out: str | None, filename: str) -> None:
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / filename, "w", encoding="utf-8") as fh:
            export.dump_json(doc, fh)
    else:
        export.dump_json(doc, sys.stdout)


def _surface_tag(name: str, params: dict) -> str:
    parts = [name]
    for key in sorted(params):
        val = params[key]
        txt = f"{val:g}" if isinstance(val, float) else str(val)
        parts.append(f"{key}{txt.replace('.', 'p').replace('-', 'm')}")
    return "_".join(parts)


def _get_surface(name: str | None, params: dict) -> wst.WeierstrassData:
    if not name:
        raise ValidationError("--surface is required")
    data = wst.catalog_get(name, **params)
    if data.cover is not None and "c" not in params:
        # the closing constant for the catalog's k, its default included
        data = wst.catalog_get(name, **params,
                               c=per.compute_ck(data.params["k"]).c_k)
    return data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gallery(args) -> int:
    cfg = _load_config(args)
    ck_values = None
    if _merged(args, cfg, "solve_ck"):
        ck_values = {k: per.compute_ck(k).c_k for k in (1, 2)}
    listing = wst.catalog_list(ck_values)
    doc = export.report_document("gallery", {"surfaces": listing},
                                 paper_anchor="catalog of Weierstrass data")
    _emit(doc, _merged(args, cfg, "out"), "gallery.json")
    return 0


def cmd_mesh(args) -> int:
    cfg = _load_config(args)
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    data = _get_surface(_merged(args, cfg, "surface"), params)
    fmt = _merged(args, cfg, "format", "obj")
    if fmt not in ("obj", "ply"):
        raise ValidationError("mesh formats: obj, ply")
    out = Path(_merged(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    tag = _surface_tag(data.name, data.params)
    meshes = {"full": wst.mesh_sample(data)}
    if data.cover is not None:
        # half of the full angular sweep: the fundamental piece the
        # reflection group doubles
        half = math.pi * data.cover.sheet_count
        nth_full = data.default_mesh["nth"]
        meshes["half"] = wst.mesh_sample(data, th1=half,
                                         nth=max(8, nth_full // 2))
    written = []
    for label in sorted(meshes):
        mesh = meshes[label]
        fname = f"{tag}_{label}.{fmt}" if len(meshes) > 1 else f"{tag}.{fmt}"
        with open(out / fname, "w", encoding="utf-8") as fh:
            comment = f"surface {data.name}; domain {label}"
            if fmt == "obj":
                export.write_obj(mesh, fh, comment)
            else:
                export.write_ply(mesh, fh, comment)
        written.append(fname)
    doc = export.report_document(
        "mesh", {"surface": data.name, "params": data.params,
                 "files": written, "format": fmt},
        paper_anchor="f = Re integral of (-2G, 1+G^2, i(1-G^2)) eta")
    _emit(doc, str(out), f"{tag}_mesh.json")
    return 0


def cmd_singular(args) -> int:
    cfg = _load_config(args)
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    data = _get_surface(_merged(args, cfg, "surface"), params)
    eps = _merged(args, cfg, "tol_class")
    comps = sng.trace_singular_set(data)
    report = sng.singular_report(data, comps) if eps is None else \
        sng.singular_report(data, comps, eps_scale=eps)
    doc = export.report_document(
        "singular", report,
        paper_anchor="singular set |G| = 1; classification by alpha, beta")
    out = _merged(args, cfg, "out")
    fmt = _merged(args, cfg, "format", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError("singular formats: json, csv")
    tag = _surface_tag(data.name, data.params)
    if out or fmt == "csv":
        path = Path(out or ".")
        path.mkdir(parents=True, exist_ok=True)
        with open(path / f"{tag}_singular.csv", "w", encoding="utf-8") as fh:
            export.write_singular_csv(comps, fh)
        with open(path / f"{tag}_singular.json", "w", encoding="utf-8") as fh:
            export.dump_json(doc, fh)
    else:
        export.dump_json(doc, sys.stdout)
    return 0


def cmd_periods(args) -> int:
    cfg = _load_config(args)
    ks = _parse_krange(_merged(args, cfg, "k", "1-4"))
    tol = _merged(args, cfg, "tol_closure", 1e-8)
    jobs = _jobs_value(args)
    if jobs > 1 and len(ks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ks))) as pool:
            rows = list(pool.map(per.period_report, ks))
    else:
        rows = [per.period_report(k) for k in ks]
    for row in rows:
        row["closure_pass"] = bool(
            max(row["residuals"].values()) <= tol)
        row["rho_in_range"] = bool(0.0 < row["rho_k"] < 2.0)
        row["route_agreement_pass"] = bool(row["route_disagreement"] <= 1e-8)
    body = {"k_values": ks, "tol_closure": tol, "rows": rows}
    doc = export.report_document(
        "periods", body, paper_anchor="c_k = sqrt(B_k/(2 A_k)); Re closure")
    out = _merged(args, cfg, "out")
    fmt = _merged(args, cfg, "format", "json")
    if fmt == "csv":
        path = Path(out or ".")
        path.mkdir(parents=True, exist_ok=True)
        for row in rows:
            with open(path / f"periods_k{row['k']}.csv", "w",
                      encoding="utf-8") as fh:
                export.write_period_csv(row, fh)
        _emit(doc, str(path), "periods.json")
    else:
        _emit(doc, out, "periods.json")
    return 0


def _cmc1_row(job) -> dict:
    k, t = job
    if t == 0.0:
        pair = ds.AdmissiblePair(k, 0.0)
        sig = ds.sigma_matrices(k)
        worst = max(float(np.max(np.abs(ds.rho_tilde(pair, j) - sig[j])))
                    for j in (1, 2, 3))
        return {"k": k, "t": 0.0, "c": pair.c, "degenerate_to_sigma": worst,
                "nu_0": float(k), "nu_inf": float(k)}
    return ds.deformation_report(k, t)


def cmd_cmc1(args) -> int:
    cfg = _load_config(args)
    ks = _parse_krange(str(_merged(args, cfg, "k", "1")))
    if len(ks) != 1:
        raise ValidationError(f"cmc1 takes a single k, got {ks}")
    k = ks[0]
    ts = _parse_tlist(str(_merged(args, cfg, "t", "0.02")))
    jobs = _jobs_value(args)
    jobs_list = [(k, t) for t in sorted(ts)]
    if jobs > 1 and len(jobs_list) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(jobs_list))) as pool:
            rows = list(pool.map(_cmc1_row, jobs_list))
    else:
        rows = [_cmc1_row(job) for job in jobs_list]
    body = {"k": k, "t_values": sorted(ts), "rows": rows}
    doc = export.report_document(
        "cmc1", body,
        paper_anchor="dF = t Psi_0 F dz; monodromy conjugated into SU(1,1)")
    out = _merged(args, cfg, "out")
    if getattr(args, "mesh", False):
        t_mesh = next((t for t in sorted(ts) if t != 0.0), None)
        if t_mesh is None:
            raise ValidationError("--mesh needs a nonzero t")
        pair = ds.AdmissiblePair(k, t_mesh)
        iota1 = ds.construct_iota(pair)["iota1"]
        grid = ds.desitter_grid(pair, b=iota1)
        path = Path(out or ".")
        path.mkdir(parents=True, exist_ok=True)
        fname = f"cmc1_k{k}_t{f'{t_mesh:g}'.replace('.', 'p').replace('-', 'm')}.ply"
        with open(path / fname, "w", encoding="utf-8") as fh:
            export.write_desitter_ply(
                grid["x"], grid["faces"], fh,
                comment=f"k={k} t={t_mesh:g}; "
                        f"hyperboloid defect {grid['hyperboloid_defect']:.3e}")
        body["mesh_file"] = fname
        doc = export.report_document(
            "cmc1", body,
            paper_anchor="dF = t Psi_0 F dz; monodromy conjugated into SU(1,1)")
        _emit(doc, str(path), f"cmc1_k{k}.json")
    else:
        _emit(doc, out, f"cmc1_k{k}.json")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    ids = None
    crit = _merged(args, cfg, "criteria")
    if crit:
        ids = _parse_krange(crit)
        bad = [i for i in ids if i not in verify_mod.CRITERIA]
        if bad:
            raise ValidationError(f"unknown criteria {bad}")
    perturb = float(_merged(args, cfg, "perturb_ck", 0.0) or 0.0)
    result = verify_mod.run_all(ids=ids, perturb_ck=perturb,
                                jobs=_jobs_value(args))
    doc = export.report_document("verify", result,
                                 paper_anchor="acceptance criteria 1-12")
    schema_mod.assert_valid(doc)
    _emit(doc, _merged(args, cfg, "out"), "verify.json")
    for row in result["criteria"]:
        status = "PASS" if row["pass"] else "FAIL"
        print(f"[{status}] criterion {row['id']:2d}: {row['title']} "
              f"({row['runtime_s']}s)", file=sys.stderr)
    if not result["all_pass"]:
        raise ToleranceError("acceptance criteria failed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxface",
        description="maxfaces, their singularities, and CMC-1 deformation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=False, kflag=False):
        p.add_argument("--out", help="output directory (default: stdout/cwd)")
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--jobs", type=int,
                       help="parallel workers (default: MAXFACE_JOBS or 1)")
        if surface:
            p.add_argument("--surface", help="catalog surface name")
            p.add_argument("--param", action="append", metavar="KEY=VAL",
                           help="surface parameter (repeatable)")
        if kflag:
            p.add_argument("--k", help="k values, e.g. '2' or '1-4' or '1,3'")

    p = sub.add_parser("gallery", help="list the surface catalog")
    common(p)
    p.add_argument("--solve-ck", action="store_true", dest="solve_ck",
                   help="echo solved period constants c_k")
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("mesh", help="sample an immersion mesh")
    common(p, surface=True)
    p.add_argument("--format", choices=("obj", "ply"))
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("singular", help="trace and classify the singular set")
    common(p, surface=True)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--tol-class", type=float, dest="tol_class",
                   help="classification epsilon scale")
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("periods", help="period constants and closure")
    common(p, kflag=True)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--tol-closure", type=float, dest="tol_closure",
                   help="closure residual gate (default 1e-8)")
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("cmc1", help="CMC-1 deformation reports")
    common(p, kflag=True)
    p.add_argument("--t", help="deformation parameters, e.g. '0.02' or '0,0.01'")
    p.add_argument("--mesh", action="store_true",
                   help="write a de Sitter PLY sample at the first nonzero t")
    p.set_defaults(fn=cmd_cmc1)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.add_argument("--criteria", help="subset, e.g. '1-3' or '9,10'")
    p.add_argument("--perturb-ck", type=float, dest="perturb_ck",
                   help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        _error_json(exc)
        return 2
    except ToleranceError as exc:
        _error_json(exc)
        return 4
    except NumericalError as exc:
        _error_json(exc)
        return 3
    except MaxfaceError as exc:
        _error_json(exc)
        return 3


def _error_json(exc: Exception) -> None:
    doc = {"schema": export.SCHEMA_ID, "kind": "error",
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    json.dump(doc, sys.stderr, indent=2, sort_keys=True)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
