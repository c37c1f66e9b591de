#!/usr/bin/env python3
"""Write perfbench/reference.json: the mesh vertices (every
run.MESH_STRIDE-th one, with vertex counts and face hashes) and the singular
counts of every `geometry` input, as the current program prints them.

Run from the repository root at the commit whose output the benchmark
should hold later commits to:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time

import run


def main() -> int:
    runner = run.Runner(time.monotonic() + 3600.0)
    work = run.ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    ref = {"mesh": {}, "singular": {}}
    jobs = [("mesh", str(k), ["mesh", "--surface", "genus_k", "--param",
                              f"k={k}"]) for k in run.GEOMETRY_K]
    jobs += [("singular", f"{a:g}", ["singular", "--surface", "cone",
                                     "--param", f"a={a:g}", "--format", "csv"])
             for a in run.GEOMETRY_A]
    try:
        for kind, key, args in jobs:
            out = work / kind / key
            out.mkdir(parents=True)
            res = runner.run([sys.executable, "-m", "maxface.cli", *args,
                              "--jobs", "1", "--out", str(out)], cwd=out)
            if res["rc"] != 0:
                print(f"{' '.join(args)} exited {res['rc']}", file=sys.stderr)
                return 1
            if kind == "mesh":
                ref["mesh"][key] = run.mesh_summary(out)
            else:
                ref["singular"][key] = {
                    "components": run.singular_summary(out)["components"]}
    finally:
        runner.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per vertex and per singular component
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
                  text)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
