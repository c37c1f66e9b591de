"""Fresh `maxface` outputs against the golden store (tests/golden/, written
by tests/make_golden.py).

Integers, strings, flags and OBJ face lines must match exactly.  A value b matches its
stored value a when |a - b| <= 1e-12 max(1, |a|): relative above 1 and
absolute below, so round-off on coordinates near 0 is not reported as drift.
The CSV's coordinates are complex numbers written as (re, im) columns, and
each pair is compared as one complex value, |a| its modulus: a component of
a large complex number carries that number's round-off.  On the cone's
inverted chart z = 1 + 1/zhat, so at |z| = 655 the real part of z is a
cancellation near 0 whose last bits move by about |z|^2 ulp(zhat).  An OBJ
vertex line is compared coordinate by coordinate.
"""

import cmath
import csv
import gzip
import io
import json

import pytest

from make_golden import CASES, GOLDEN, run_case

_TOL = 1e-12


def _close(a, b) -> bool:
    """b matches the stored a (floats or complex numbers)."""
    if cmath.isnan(a) or cmath.isnan(b):
        return cmath.isnan(a) and cmath.isnan(b)
    return abs(a - b) <= _TOL * max(1.0, abs(a))


def _compare_json(ref, got, where="$"):
    assert type(got) is type(ref), f"{where}: {got!r} against stored {ref!r}"
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref), f"{where}: keys differ"
        for key in ref:
            _compare_json(ref[key], got[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), f"{where}: length differs"
        for i, (a, b) in enumerate(zip(ref, got)):
            _compare_json(a, b, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert _close(ref, got), f"{where}: {got!r} against stored {ref!r}"
    else:
        assert got == ref, f"{where}: {got!r} against stored {ref!r}"


def _compare_csv(ref: str, got: str, name: str):
    ref_rows = list(csv.reader(io.StringIO(ref)))
    got_rows = list(csv.reader(io.StringIO(got)))
    header = ref_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(ref_rows), f"{name}: row count differs"
    # an X_re column followed by X_im holds one complex coordinate; the
    # other columns are labels, indices and flags
    pairs = [j for j, col in enumerate(header)
             if col.endswith("_re") and header[j + 1] == col[:-3] + "_im"]
    exact = [j for j in range(len(header)) if j not in pairs and j - 1 not in pairs]
    assert len(exact) + 2 * len(pairs) == len(header)
    for line, (a_row, b_row) in enumerate(zip(ref_rows[1:], got_rows[1:]), 2):
        for j in exact:
            assert b_row[j] == a_row[j], \
                f"{name}:{line} {header[j]}: {b_row[j]!r} against stored {a_row[j]!r}"
        for j in pairs:
            a, b = a_row[j:j + 2], b_row[j:j + 2]
            if a == ["", ""]:
                assert b == a, f"{name}:{line} {header[j]}: {b!r} where none is stored"
                continue
            za = complex(float(a[0]), float(a[1]))
            zb = complex(float(b[0]), float(b[1]))
            assert _close(za, zb), \
                f"{name}:{line} {header[j][:-3]}: {zb!r} against stored {za!r}"


def _compare_obj(ref: str, got: str, name: str):
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    assert len(got_lines) == len(ref_lines), f"{name}: line count differs"
    for line, (a, b) in enumerate(zip(ref_lines, got_lines), 1):
        if not a.startswith("v "):
            assert b == a, f"{name}:{line}: {b!r} against stored {a!r}"
            continue
        a_vals, b_vals = a.split(), b.split()
        assert (b_vals[0] == "v" and len(b_vals) == len(a_vals)
                and all(_close(float(x), float(y))
                        for x, y in zip(a_vals[1:], b_vals[1:]))), \
            f"{name}:{line}: {b!r} against stored {a!r}"


def _compare_files(slice_: str, got: dict):
    store = GOLDEN / slice_
    for name in sorted(got):
        stored = store / (name + ".gz")
        assert stored.exists(), f"no stored output {slice_}/{stored.name}"
        ref = gzip.decompress(stored.read_bytes()).decode("utf-8")
        text = got[name].decode("utf-8")
        if name.endswith(".json"):
            _compare_json(json.loads(ref), json.loads(text))
        elif name.endswith(".csv"):
            _compare_csv(ref, text, name)
        else:
            _compare_obj(ref, text, name)


def _cases(slices):
    chosen = [case for case in CASES if case[0] in slices]
    return pytest.mark.parametrize("slice_, argv", [(s, a) for s, _, a in chosen],
                                   ids=[case for _, case, _ in chosen])


@_cases({"singular"})
def test_singular_outputs_match_golden(slice_, argv, tmp_path):
    rc, got = run_case(argv, tmp_path)
    assert rc == 0
    assert len(got) == 2
    _compare_files(slice_, got)


@_cases({"periods", "cmc1", "mesh"})
def test_outputs_match_golden(slice_, argv, tmp_path):
    rc, got = run_case(argv, tmp_path)
    assert rc == 0
    # a mesh run writes the full and the half OBJ and the mesh JSON
    assert len(got) == (3 if slice_ == "mesh" else 1)
    _compare_files(slice_, got)


def test_verify_report_matches_golden(verify_run):
    rc, got = verify_run
    assert rc == 0
    assert sorted(got) == ["verify.json"]
    _compare_files("verify", got)
