#!/usr/bin/env python3
"""The golden output store: the files a fixed list of `maxface` commands
writes, gzipped under tests/golden/<slice>/.  test_golden.py compares fresh
outputs with it.  The slices:

- singular: `singular --format csv` (JSON report and vertex CSV) of ten
  surfaces;
- verify: `verify --jobs 1` (verify.json);
- periods: `periods --k 1-4`;
- cmc1: `cmc1 --k 1 --t=0.013,-0.027`;
- mesh: `mesh --surface genus_k` for k=1..3 (full OBJ, half OBJ, mesh JSON).

Regenerate it on purpose, from the repository root, whole or by slice:

    PYTHONPATH=src python3 tests/make_golden.py [SLICE ...]

and list every value that moved in CHANGES.md.  With --diff the same
command writes nothing: it prints every value that differs from the store,
one line each with its path, stored value, fresh value and change, and
exits 1 if there is any.

Integers, strings, flags and OBJ face lines must match exactly.  A value b
matches its stored value a when |a - b| <= 1e-12 max(1, |a|): relative
above 1 and absolute below, so round-off on coordinates near 0 is not
reported as drift; the change reported is |a - b| / max(1, |a|).  The CSV's
coordinates are complex numbers written as (re, im) columns, and each pair
is compared as one complex value, |a| its modulus: a component of a large
complex number carries that number's round-off.  On the cone's inverted
chart z = 1 + 1/zhat, so at |z| = 655 the real part of z is a cancellation
near 0 whose last bits move by about |z|^2 ulp(zhat).  An OBJ vertex line
is compared coordinate by coordinate.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

SURFACES = (
    [("cone", f"a={a}") for a in ("1.5", "2.5", "3.0", "3.5")]
    + [("genus_k", f"k={k}") for k in (1, 2, 3)]
    + [("genus_k_reduced", f"k={k}") for k in (2, 4)]
    + [("trinoid1", None)]
)


def _singular_argv(surface: str, param: str | None) -> list[str]:
    argv = ["singular", "--surface", surface, "--format", "csv"]
    return argv + ["--param", param] if param is not None else argv


VERIFY_ARGV = ["verify", "--jobs", "1"]

# (slice, case id, argv): the store of a slice is GOLDEN / slice
CASES = (
    [("singular", f"{s}-{p}" if p else s, _singular_argv(s, p)) for s, p in SURFACES]
    + [("verify", "verify", VERIFY_ARGV),
       ("periods", "periods", ["periods", "--k", "1-4"]),
       ("cmc1", "cmc1", ["cmc1", "--k", "1", "--t=0.013,-0.027"])]
    + [("mesh", f"mesh-genus_k-k={k}",
        ["mesh", "--surface", "genus_k", "--param", f"k={k}"]) for k in (1, 2, 3)]
)


def run_case(argv: list[str], out: Path) -> tuple[int, dict[str, bytes]]:
    """Run a maxface command in process with --out out; its exit code and
    the bytes of every file it writes, by name."""
    from maxface import cli

    out.mkdir(parents=True, exist_ok=True)
    rc = cli.main(argv + ["--out", str(out)])
    return rc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


_TOL = 1e-12


def _change(a, b) -> float:
    """How far b moved from the stored a (floats or complex numbers)."""
    if cmath.isnan(a) or cmath.isnan(b):
        return 0.0 if cmath.isnan(a) and cmath.isnan(b) else float("nan")
    return abs(a - b) / max(1.0, abs(a))


def _diff_number(where, a, b, moved: list) -> None:
    change = _change(a, b)
    if not change <= _TOL:
        moved.append((where, a, b, change))


def _diff_json(ref, got, where: str, moved: list) -> None:
    if type(got) is not type(ref):
        moved.append((where, ref, got, None))
    elif isinstance(ref, dict):
        if sorted(got) != sorted(ref):
            moved.append((f"{where} keys", sorted(ref), sorted(got), None))
            return
        for key in ref:
            _diff_json(ref[key], got[key], f"{where}.{key}", moved)
    elif isinstance(ref, list):
        if len(got) != len(ref):
            moved.append((f"{where} length", len(ref), len(got), None))
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _diff_json(a, b, f"{where}[{i}]", moved)
    elif isinstance(ref, float):
        _diff_number(where, ref, got, moved)
    elif got != ref:
        moved.append((where, ref, got, None))


def _diff_csv(ref: str, got: str, name: str, moved: list) -> None:
    ref_rows = list(csv.reader(io.StringIO(ref)))
    got_rows = list(csv.reader(io.StringIO(got)))
    header = ref_rows[0]
    if got_rows[0] != header or len(got_rows) != len(ref_rows):
        moved.append((f"{name} header and row count", (header, len(ref_rows)),
                      (got_rows[0], len(got_rows)), None))
        return
    # an X_re column followed by X_im holds one complex coordinate; the
    # other columns are labels, indices and flags
    pairs = [j for j, col in enumerate(header)
             if col.endswith("_re") and header[j + 1] == col[:-3] + "_im"]
    exact = [j for j in range(len(header)) if j not in pairs and j - 1 not in pairs]
    for line, (a_row, b_row) in enumerate(zip(ref_rows[1:], got_rows[1:]), 2):
        for j in exact:
            if b_row[j] != a_row[j]:
                moved.append((f"{name}:{line} {header[j]}", a_row[j], b_row[j], None))
        for j in pairs:
            a, b = a_row[j:j + 2], b_row[j:j + 2]
            where = f"{name}:{line} {header[j][:-3]}"
            if "" in a or "" in b:
                if b != a:
                    moved.append((where, a, b, None))
                continue
            _diff_number(where, complex(float(a[0]), float(a[1])),
                    complex(float(b[0]), float(b[1])), moved)


def _diff_obj(ref: str, got: str, name: str, moved: list) -> None:
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    if len(got_lines) != len(ref_lines):
        moved.append((f"{name} line count", len(ref_lines), len(got_lines), None))
        return
    for line, (a, b) in enumerate(zip(ref_lines, got_lines), 1):
        a_vals, b_vals = a.split(), b.split()
        if not (a.startswith("v ") and b_vals[:1] == ["v"]
                and len(b_vals) == len(a_vals)):
            if b != a:
                moved.append((f"{name}:{line}", a, b, None))
            continue
        for i, (x, y) in enumerate(zip(a_vals[1:], b_vals[1:])):
            _diff_number(f"{name}:{line} v[{i}]", float(x), float(y), moved)


def diff_files(slice_: str, got: dict[str, bytes]) -> list[tuple]:
    """Every value of the fresh outputs got (bytes by file name) that does
    not match the store of slice_: (path, stored value, fresh value, change),
    change None where the value is not a number or the structure differs."""
    moved = []
    for name in sorted(got):
        stored = GOLDEN / slice_ / (name + ".gz")
        path = f"{slice_}/{name}"
        if not stored.exists():
            moved.append((path, None, "(written)", None))
            continue
        ref = gzip.decompress(stored.read_bytes()).decode("utf-8")
        text = got[name].decode("utf-8")
        if name.endswith(".json"):
            _diff_json(json.loads(ref), json.loads(text), f"{path} $", moved)
        elif name.endswith(".csv"):
            _diff_csv(ref, text, path, moved)
        else:
            _diff_obj(ref, text, path, moved)
    return moved


def format_diff(moved: list[tuple]) -> str:
    return "".join(f"{where}: {a!r} -> {b!r}"
                   + ("" if change is None else f" (change {change:.3g})") + "\n"
                   for where, a, b, change in moved)


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Write the golden store, "
                                     "or with --diff compare fresh outputs with it.")
    parser.add_argument("--diff", action="store_true",
                        help="print every value that moved and write nothing")
    parser.add_argument("slices", nargs="*", metavar="SLICE")
    opts = parser.parse_args(args)
    known = {slice_ for slice_, _, _ in CASES}
    slices = set(opts.slices) or known
    if not slices <= known:
        raise SystemExit(f"unknown slices {sorted(slices - known)}; "
                         f"choose from {sorted(known)}")
    if not opts.diff:
        for slice_ in slices:
            store = GOLDEN / slice_
            store.mkdir(parents=True, exist_ok=True)
            for old in store.glob("*.gz"):
                old.unlink()
    moved = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (slice_, case, argv) in enumerate(CASES):
            if slice_ not in slices:
                continue
            rc, files = run_case(argv, Path(tmp) / str(i))
            if rc != 0:
                raise RuntimeError(f"{case} exited {rc}")
            if opts.diff:
                moved += diff_files(slice_, files)
                continue
            for name, data in files.items():
                # mtime=0 keeps the archive bytes a function of the content
                (GOLDEN / slice_ / (name + ".gz")).write_bytes(
                    gzip.compress(data, mtime=0))
    sys.stdout.write(format_diff(moved))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
