"""Deterministic exporters: OBJ / PLY meshes, de Sitter PLY with a preview
projection, singular-curve CSV, and JSON report documents.

Every writer produces byte-identical output for identical input: floats are
formatted with a fixed shortest-roundtrip rule, JSON keys are sorted, and no
timestamps or environment details are embedded.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError

SCHEMA_ID = "maxface-report/1"


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form; -0, NaN and infinities normalized."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return repr(x)


def jsonable(obj):
    """Recursively convert report payloads to JSON-encodable values.

    Complex numbers become {"re": ..., "im": ...}; numpy scalars and arrays
    become python scalars and lists; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return {"re": jsonable(z.real), "im": jsonable(z.imag)}
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return fmt_float(x)
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def report_document(kind: str, body: dict, paper_anchor: str = "") -> dict:
    """The envelope every CLI JSON report uses."""
    doc = {"schema": SCHEMA_ID, "kind": kind, "paper_anchor": paper_anchor}
    doc.update(jsonable(body))
    return doc


def dump_json(doc: dict, fh) -> None:
    """Write a report_document, whose body is JSON-encodable already."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


# ---------------------------------------------------------------------------
# spacelike meshes (maxface immersions into R^{2,1})
# ---------------------------------------------------------------------------

_AXIS_NOTE = ("spatial axes: x=x1 y=x2 z=x0 (x0 is the timelike coordinate "
              "of R^{2,1})")


def write_obj(mesh, fh, comment: str = "") -> None:
    """Wavefront OBJ; vertex lines carry (x1, x2, x0)."""
    fh.write(f"# maxface mesh; {_AXIS_NOTE}\n")
    if comment:
        for line in comment.splitlines():
            fh.write(f"# {line}\n")
    for v in mesh.vertices:
        fh.write(f"v {fmt_float(v[1])} {fmt_float(v[2])} {fmt_float(v[0])}\n")
    for f in mesh.faces:
        fh.write("f " + " ".join(str(int(i) + 1) for i in f) + "\n")


def _write_ply(fh, comments, props, rows, faces) -> None:
    """ASCII PLY: comment lines, one float property per row column, faces."""
    fh.write("ply\nformat ascii 1.0\n")
    for ln in comments:
        fh.write(f"comment {ln}\n")
    fh.write(f"element vertex {len(rows)}\n")
    for prop in props:
        fh.write(f"property float {prop}\n")
    fh.write(f"element face {len(faces)}\n")
    fh.write("property list uchar int vertex_indices\n")
    fh.write("end_header\n")
    for row in rows:
        fh.write(" ".join(fmt_float(t) for t in row) + "\n")
    for f in faces:
        fh.write(f"{len(f)} " + " ".join(str(int(i)) for i in f) + "\n")


def write_ply(mesh, fh, comment: str = "") -> None:
    """ASCII PLY with per-vertex metric_factor (degenerates on the singular
    set) alongside the (x1, x2, x0) coordinates."""
    comments = [f"maxface mesh; {_AXIS_NOTE}",
                "property metric_factor = (1-|G|^2)^2 |eta|^2",
                *comment.splitlines()]
    rows = [(v[1], v[2], v[0], m) for v, m in zip(mesh.vertices, mesh.metric)]
    _write_ply(fh, comments, ("x", "y", "z", "metric_factor"), rows, mesh.faces)


def write_desitter_ply(xs: np.ndarray, faces, fh, comment: str = "") -> None:
    """ASCII PLY of a CMC-1 face sample in de Sitter 3-space.

    Vertices carry the ambient coordinates x0..x3 (on -x0^2+|x|^2 = 1) plus
    preview coordinates (x, y, z) = (x1, x2, x3) / (1 + x0 - shift) with
    shift = min(x0) - 1, a positive-denominator central projection that keeps
    the whole sample finite; the shift is recorded in the header."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 4:
        raise ValidationError("de Sitter samples must be (N, 4) arrays")
    shift = float(np.min(xs[:, 0])) - 1.0
    comments = ["cmc1 face in de Sitter 3-space S^3_1",
                "ambient coordinates x0 x1 x2 x3, -x0^2+x1^2+x2^2+x3^2=1",
                f"preview (x,y,z) = (x1,x2,x3)/(1+x0-shift), "
                f"shift = min(x0)-1 = {fmt_float(shift)}",
                *comment.splitlines()]
    rows = [(v[1] / den, v[2] / den, v[3] / den, *v)
            for v, den in zip(xs, 1.0 + xs[:, 0] - shift)]
    _write_ply(fh, comments, ("x", "y", "z", "x0", "x1", "x2", "x3"), rows, faces)


# ---------------------------------------------------------------------------
# singular curves
# ---------------------------------------------------------------------------

def write_singular_csv(components, fh) -> None:
    """One row per vertex of each component's lifted traversal: component
    label, circuit, chart and z coordinates, and the fiber value when the
    curve lives on a cover.

    z is computed from the chart coordinate zhat.  On an inverted chart
    (z = 1 + 1/zhat on the cone) the z columns near z = infinity carry
    about |z|^2 ulp(zhat) of absolute error; the zhat columns do not."""
    fh.write("component,circuit,index,chart,zhat_re,zhat_im,z_re,z_im,"
             "w_re,w_im,closed,partial\n")
    for comp in components:
        w_all = [None] * len(comp.z_vertices) if comp.w_vertices is None else comp.w_vertices
        for j, (zh, z, w) in enumerate(zip(comp.zhat_vertices, comp.z_vertices, w_all)):
            c, i = divmod(j, comp.vertex_count)
            wre = fmt_float(w.real) if w is not None else ""
            wim = fmt_float(w.imag) if w is not None else ""
            fh.write(",".join([
                comp.label, str(c), str(i), comp.chart_name,
                fmt_float(zh.real), fmt_float(zh.imag),
                fmt_float(z.real), fmt_float(z.imag),
                wre, wim,
                "1" if comp.closed else "0",
                "1" if comp.partial else "0"]) + "\n")


def write_period_csv(report: dict, fh) -> None:
    """Tabular view of a period report: one row per generator loop."""
    fh.write("loop,residual\n")
    for label in sorted(report.get("residuals", {})):
        fh.write(f"{label},{fmt_float(report['residuals'][label])}\n")
