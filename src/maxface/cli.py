"""Command-line front end.

Subcommands: gallery, mesh, singular, periods, cmc1, verify.  Every report is
deterministic JSON (sorted keys, no timestamps); meshes and curve CSVs are the
hand-off to external viewers.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 acceptance/tolerance failure.

`main` settles every input before a command starts work: each option takes
its flag, else the value of the same name in the --config file, else its
built-in default; --jobs falls back to MAXFACE_JOBS before 1.  A file value
passes the same type and choice check as its flag, and a file key that
names no option of any command is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# one BLAS thread unless set: threads take gk_batched's small matrix products
# from microseconds to milliseconds.  The modules below load lazily, so
# numpy is not imported yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import desitter as ds
from . import export
from . import periods as per
from . import schema as schema_mod
from . import singularities as sng
from . import verify as verify_mod
from . import weierstrass as wst
from .errors import MaxfaceError, ToleranceError, ValidationError


# _positive, _parse_krange and _parse_tlist also serve as argparse types:
# argparse passes their ValidationError through, so a bad value exits 2 with
# a JSON error whether it came from a flag or from the --config file.

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
        if not math.isfinite(val):
            raise ValidationError(f"--param {key}: {raw!r} is not finite")
        out[key] = val
    return out


def _positive(value, flag: str) -> float:
    """value as a float; anything but a finite positive number is refused."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not (math.isfinite(out) and out > 0):
        raise ValidationError(
            f"{flag} must be a finite positive number, got {value!r}")
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


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors (a bad flag value, an unknown flag, a
    missing argument) raised as ValidationError, so they exit 2 with the
    JSON error; subparsers inherit the class.  --help still exits 0."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _file_value(action: argparse.Action, value):
    """A --config value through its flag's checks: a switch takes true or
    false, any other option reads the value's text as its flag would."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    else:
        try:
            out = action.type(str(value)) if action.type else str(value)
        except (TypeError, ValueError):
            pass
        else:
            if action.choices is None or out in action.choices:
                return out
    raise ValidationError(f"config {action.dest}: {value!r} is not a valid "
                          f"{action.option_strings[0]} value")


# options a config file cannot set: the file gives surface parameters
# as its "params" object
_NOT_IN_FILE = ("help", "config", "param")


def _settle(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The parsed command line with every option settled: flag, then
    --config file (a null value counts as unset), then built-in default.
    The file's params come before any --param; --jobs falls back to
    MAXFACE_JOBS, then 1, and must be a positive integer."""
    args = parser.parse_args(argv)
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"--config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValidationError("--config must hold a JSON object")
        # one file may serve several commands, so a key is checked against
        # the options of every command
        [commands] = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        known = {action.dest for p in commands.values() for action in p._actions
                 if action.dest not in _NOT_IN_FILE} | {"params"}
        unknown = sorted(set(cfg) - known)
        if unknown:
            raise ValidationError(
                f"--config {args.config}: {', '.join(map(repr, unknown))} "
                "names no option of any command")
        command = args.parser
        command.set_defaults(**{
            action.dest: _file_value(action, cfg[action.dest])
            for action in command._actions if cfg.get(action.dest) is not None
            and action.dest not in _NOT_IN_FILE})
        args = parser.parse_args(argv)
    if "param" in args:
        file_params = cfg.get("params") or {}
        if not isinstance(file_params, dict):
            raise ValidationError("config params must be a JSON object")
        args.params = _parse_params(
            [f"{key}={val}" for key, val in file_params.items()]
            + (args.param or []))
    jobs, source = args.jobs, "--jobs"
    if jobs is None:
        jobs, source = os.environ.get("MAXFACE_JOBS") or "1", "MAXFACE_JOBS"
    try:
        args.jobs = int(jobs)
    except ValueError:
        args.jobs = 0
    if args.jobs < 1:
        raise ValidationError(f"{source} must be a positive integer, got {jobs!r}")
    return args


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
    return wst.catalog_get(name, **params)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gallery(args) -> int:
    doc = export.report_document("gallery", {"surfaces": wst.catalog_list()},
                                 paper_anchor="catalog of Weierstrass data")
    _emit(doc, args.out, "gallery.json")
    return 0


def cmd_mesh(args) -> int:
    data = _get_surface(args.surface, args.params)
    fmt = args.format
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    tag = _surface_tag(data.name, data.params)
    meshes = {"full": wst.mesh_sample(data)}
    if data.cover is not None:
        # half of the full angular sweep, the fundamental piece the
        # reflection group doubles: its first nth/2 + 1 columns, which needs
        # an even nth (every cover's default mesh has nth = 48)
        full = meshes["full"]
        meshes["half"] = wst.mesh_columns(full, (full.cols - 1) // 2 + 1)
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
    data = _get_surface(args.surface, args.params)
    [comps] = sng.trace_singular_set(data)
    report = sng.singular_report(data, comps)
    doc = export.report_document(
        "singular", report,
        paper_anchor="singular set |G| = 1; classification by alpha, beta")
    tag = _surface_tag(data.name, data.params)
    out = args.out or ("." if args.format == "csv" else None)
    _emit(doc, out, f"{tag}_singular.json")
    if args.format == "csv":
        with open(Path(out) / f"{tag}_singular.csv", "w", encoding="utf-8") as fh:
            export.write_singular_csv(comps, fh)
    return 0


def cmd_periods(args) -> int:
    rows = [per.period_report(k) for k in args.k]
    for row in rows:
        row["closure_pass"] = bool(
            max(row["residuals"].values()) <= args.tol_closure)
        row["rho_in_range"] = bool(0.0 < row["rho_k"] < 2.0)
        row["route_agreement_pass"] = bool(row["route_disagreement"] <= 1e-8)
    body = {"k_values": args.k, "tol_closure": args.tol_closure, "rows": rows}
    doc = export.report_document(
        "periods", body, paper_anchor="c_k = sqrt(B_k/(2 A_k)); Re closure")
    out = args.out or ("." if args.format == "csv" else None)
    _emit(doc, out, "periods.json")
    if args.format == "csv":
        for row in rows:
            with open(Path(out) / f"periods_k{row['k']}.csv", "w",
                      encoding="utf-8") as fh:
                export.write_period_csv(row, fh)
    return 0


def _cmc1_rows(k: int, ts: list[float]) -> list[dict]:
    """The rows of (k, ts), in the order of ts; the nonzero t values share
    one deformation_report."""
    reports = iter(ds.deformation_report(k, [t for t in ts if t != 0.0]))
    rows = []
    for t in ts:
        if t != 0.0:
            rows.append(next(reports))
            continue
        pair = ds.AdmissiblePair(k, 0.0)
        rows.append({"k": k, "t": 0.0, "c": pair.c,
                     "degenerate_to_sigma": ds.sigma_defect(pair),
                     "nu_0": float(k), "nu_inf": float(k)})
    return rows


def cmd_cmc1(args) -> int:
    if len(args.k) != 1:
        raise ValidationError(f"cmc1 takes a single k, got {args.k}")
    [k] = args.k
    ts = sorted(args.t)
    t_mesh = next((t for t in ts if t != 0.0), None)
    if args.mesh and t_mesh is None:
        raise ValidationError("--mesh needs a nonzero t")
    body = {"k": k, "t_values": ts, "rows": _cmc1_rows(k, ts)}
    out = args.out or ("." if args.mesh else None)
    if args.mesh:
        pair = ds.AdmissiblePair(k, t_mesh)
        grid = ds.desitter_grid(pair, b=ds.construct_iota([pair])[0]["iota1"])
        Path(out).mkdir(parents=True, exist_ok=True)
        fname = f"{_surface_tag('cmc1', {'k': k, 't': t_mesh})}.ply"
        with open(Path(out) / fname, "w", encoding="utf-8") as fh:
            export.write_desitter_ply(
                grid["x"], grid["faces"], fh,
                comment=f"k={k} t={t_mesh:g}; "
                        f"hyperboloid defect {grid['hyperboloid_defect']:.3e}")
        body["mesh_file"] = fname
    doc = export.report_document(
        "cmc1", body,
        paper_anchor="dF = t Psi_0 F dz; monodromy conjugated into SU(1,1)")
    _emit(doc, out, f"cmc1_k{k}.json")
    return 0


def cmd_verify(args) -> int:
    bad = [i for i in args.criteria or [] if i not in verify_mod.CRITERIA]
    if bad:
        raise ValidationError(f"unknown criteria {bad}")
    result = verify_mod.run_all(ids=args.criteria, perturb_ck=args.perturb_ck,
                                jobs=args.jobs)
    # wall times go to stderr only: the JSON report is deterministic
    runtimes = [row.pop("runtime_s") for row in result["criteria"]]
    doc = export.report_document("verify", result,
                                 paper_anchor="acceptance criteria 1-12")
    schema_mod.assert_valid(doc)
    _emit(doc, args.out, "verify.json")
    for row, runtime in zip(result["criteria"], runtimes):
        status = "PASS" if row["pass"] else "FAIL"
        print(f"[{status}] criterion {row['id']:2d}: {row['title']} "
              f"({runtime}s)", file=sys.stderr)
    if not result["all_pass"]:
        raise ToleranceError("acceptance criteria failed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxface",
        description="maxfaces, their singularities, and CMC-1 deformation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, surface=False, k=None):
        p = sub.add_parser(name, help=help)
        # _settle turns the config file's values into p's defaults
        p.set_defaults(fn=fn, parser=p)
        p.add_argument("--out", help="output directory (default: stdout/cwd)")
        p.add_argument("--config",
                       help="JSON config file keyed by option name "
                            "(flags override it)")
        p.add_argument("--jobs", type=int,
                       help="worker processes for verify's criteria "
                            "(default: config jobs, MAXFACE_JOBS, or 1)")
        if surface:
            p.add_argument("--surface", help="catalog surface name")
            p.add_argument("--param", action="append", metavar="KEY=VAL",
                           help="surface parameter (repeatable)")
        if k:
            p.add_argument("--k", type=_parse_krange, default=k,
                           help="k values, e.g. '2' or '1-4' or '1,3' "
                                "(default %(default)s)")
        return p

    command("gallery", cmd_gallery, "list the surface catalog")

    p = command("mesh", cmd_mesh, "sample an immersion mesh", surface=True)
    p.add_argument("--format", choices=("obj", "ply"), default="obj")

    p = command("singular", cmd_singular,
                "trace and classify the singular set", surface=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("periods", cmd_periods, "period constants and closure",
                k="1-4")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol-closure", dest="tol_closure", default=1e-8,
                   type=lambda v: _positive(v, "--tol-closure"),
                   help="closure residual gate (default 1e-8)")

    p = command("cmc1", cmd_cmc1, "CMC-1 deformation reports", k="1")
    p.add_argument("--t", type=_parse_tlist, default="0.02",
                   help="deformation parameters, e.g. '0.02' or '0,0.01'")
    p.add_argument("--mesh", action="store_true",
                   help="write a de Sitter PLY sample at the first nonzero t")

    p = command("verify", cmd_verify, "run the acceptance suite")
    p.add_argument("--criteria", type=_parse_krange,
                   help="subset, e.g. '1-3' or '9,10'")
    p.add_argument("--perturb-ck", type=float, dest="perturb_ck", default=0.0,
                   help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    try:
        args = _settle(build_parser(), argv)
        return args.fn(args)
    except ValidationError as exc:
        _error_json(exc)
        return 2
    except ToleranceError as exc:
        _error_json(exc)
        return 4
    except MaxfaceError as exc:  # NumericalError and the rest
        _error_json(exc)
        return 3


def _error_json(exc: Exception) -> None:
    doc = {"schema": export.SCHEMA_ID, "kind": "error",
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    json.dump(doc, sys.stderr, indent=2, sort_keys=True)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
