"""Fresh `maxface singular` outputs against the golden store
(tests/golden/singular/, written by tests/make_golden.py).

Integers, strings and flags must match exactly.  A value b matches its
stored value a when |a - b| <= 1e-12 max(1, |a|): relative above 1 and
absolute below, so round-off on coordinates near 0 is not reported as drift.
The CSV's coordinates are complex numbers written as (re, im) columns, and
each pair is compared as one complex value, |a| its modulus: a component of
a large complex number carries that number's round-off.  On the cone's
inverted chart z = 1 + 1/zhat, so at |z| = 655 the real part of z is a
cancellation near 0 whose last bits move by about |z|^2 ulp(zhat).
"""

import cmath
import csv
import gzip
import io
import json

import pytest

from make_golden import CASES, STORE, run_case

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


@pytest.mark.parametrize("surface, param", CASES,
                         ids=[f"{s}-{p}" if p else s for s, p in CASES])
def test_singular_outputs_match_golden(surface, param, tmp_path):
    got = run_case(surface, param, tmp_path)
    names = sorted(got)
    assert len(names) == 2
    for name in names:
        stored = STORE / (name + ".gz")
        assert stored.exists(), f"no stored output {stored.name}"
        ref = gzip.decompress(stored.read_bytes()).decode("utf-8")
        text = got[name].decode("utf-8")
        if name.endswith(".json"):
            _compare_json(json.loads(ref), json.loads(text))
        else:
            _compare_csv(ref, text, name)
