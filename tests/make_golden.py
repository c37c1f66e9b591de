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

and list every value that moved in CHANGES.md.
"""

from __future__ import annotations

import gzip
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


def main(slices: list[str]) -> int:
    known = {slice_ for slice_, _, _ in CASES}
    slices = set(slices) or known
    if not slices <= known:
        raise SystemExit(f"unknown slices {sorted(slices - known)}; "
                         f"choose from {sorted(known)}")
    for slice_ in slices:
        store = GOLDEN / slice_
        store.mkdir(parents=True, exist_ok=True)
        for old in store.glob("*.gz"):
            old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (slice_, case, argv) in enumerate(CASES):
            if slice_ not in slices:
                continue
            rc, files = run_case(argv, Path(tmp) / str(i))
            if rc != 0:
                raise RuntimeError(f"{case} exited {rc}")
            for name, data in files.items():
                # mtime=0 keeps the archive bytes a function of the content
                (GOLDEN / slice_ / (name + ".gz")).write_bytes(
                    gzip.compress(data, mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
