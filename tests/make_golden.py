#!/usr/bin/env python3
"""The golden singular-set store: `maxface singular --format csv` outputs
(the JSON report and the vertex CSV) of a fixed list of surfaces, gzipped
under tests/golden/singular/.  test_golden.py compares fresh outputs with
it.  Regenerate it on purpose, from the repository root:

    PYTHONPATH=src python3 tests/make_golden.py

and list every value that moved in CHANGES.md.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

STORE = Path(__file__).resolve().parent / "golden" / "singular"

CASES = (
    [("cone", f"a={a}") for a in ("1.5", "2.5", "3.0", "3.5")]
    + [("genus_k", f"k={k}") for k in (1, 2, 3)]
    + [("genus_k_reduced", f"k={k}") for k in (2, 4)]
    + [("trinoid1", None)]
)


def run_case(surface: str, param: str | None, out: Path) -> dict[str, bytes]:
    """Run `singular --format csv` in process into out; the bytes of every
    file it writes, by name."""
    from maxface import cli

    out.mkdir(parents=True, exist_ok=True)
    argv = ["singular", "--surface", surface, "--format", "csv", "--out", str(out)]
    if param is not None:
        argv += ["--param", param]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"singular {surface} {param} exited {rc}")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def main() -> int:
    STORE.mkdir(parents=True, exist_ok=True)
    for old in STORE.glob("*.gz"):
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (surface, param) in enumerate(CASES):
            for name, data in run_case(surface, param, Path(tmp) / str(i)).items():
                # mtime=0 keeps the archive bytes a function of the content
                (STORE / (name + ".gz")).write_bytes(gzip.compress(data, mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
