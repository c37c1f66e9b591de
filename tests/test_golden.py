"""Fresh `maxface` outputs against the golden store (tests/golden/, written
by tests/make_golden.py, whose docstring states the matching rules): every
test asserts that make_golden.diff_files finds no moved value.
"""

import gzip
import json

import pytest

import make_golden
from make_golden import CASES, GOLDEN, diff_files, format_diff, run_case


def _compare_files(slice_: str, got: dict):
    moved = diff_files(slice_, got)
    assert not moved, format_diff(moved)


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


def test_diff_mode_reports_moved_values_and_writes_nothing(tmp_path, monkeypatch,
                                                          capsys):
    """make_golden.py --diff against a copy of the periods store: unchanged,
    it prints nothing and exits 0; with c_1 moved by 1e-9 it prints that one
    value at its path, with the stored and fresh values and the change, and
    exits 1.  The store is left as it was."""
    store = tmp_path / "periods"
    store.mkdir()
    archive = store / "periods.json.gz"
    archive.write_bytes((GOLDEN / "periods" / archive.name).read_bytes())
    monkeypatch.setattr(make_golden, "GOLDEN", tmp_path)
    assert make_golden.main(["--diff", "periods"]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(gzip.decompress(archive.read_bytes()))
    old = doc["rows"][0]["c_k"]
    doc["rows"][0]["c_k"] = stored = old * (1 + 1e-9)
    moved = gzip.compress(json.dumps(doc).encode(), mtime=0)
    archive.write_bytes(moved)
    assert make_golden.main(["--diff", "periods"]) == 1
    [line] = capsys.readouterr().out.splitlines()
    where, values = line.split(": ")
    assert where == "periods/periods.json $.rows[0].c_k"
    a, b = values.removesuffix(" (change 1e-09)").split(" -> ")
    assert float(a) == stored
    assert abs(float(b) - old) <= 1e-12 * old
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["periods", archive.name]
    assert archive.read_bytes() == moved
