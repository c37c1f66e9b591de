#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the maxface CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {deform,geometry,verify-jobs2}
                             --seed N --seconds S --trace {0,1}

The benchmark is one closed-loop client: every command starts only after
the previous one has exited, and each runs in a fresh
``python -m maxface.cli`` process with ``PYTHONPATH=src``, ``--jobs`` given
explicitly, ``MAXFACE_JOBS`` removed and one BLAS/OpenMP thread.  A pass is
one run of a workload's commands; every artifact goes to a scratch
directory under ``.perfbench_out/`` that is removed afterwards.

Workloads (the seed reaches the CLI only through the inputs made from it):

* ``deform``: ``verify --criteria 9-12 --jobs 1`` then
  ``cmc1 --k K --t=T1,T2 --jobs 1``.  The ODE layer does nearly all the
  work.  The gate criteria reuse lift legs heavily while the cmc1 (k, t)
  pairs appear nowhere else and run cold, so a leg cache shows its gain and
  its cost here.  The seed picks the first pass's K in {1, 2}; passes
  alternate K, and every pass draws |T| in [0.005, 0.03] (step 1e-3, not
  0.01 or 0.02, random sign) from the seed.  A run makes at least two
  passes, so its median covers both K.
* ``geometry``: ``verify --criteria 1-8 --jobs 1``, then
  ``mesh --surface genus_k --param k=K`` and
  ``singular --surface cone --param a=A --format csv``, with K in {1, 2, 3}
  and A in {1.5, 2.5, 3.0, 3.5} picked by the seed (seed 0: k=1, a=2.5).
  No ODE work: singular tracing, Gauss-Kronrod quadrature, fiber
  continuation and OBJ/CSV writing.
* ``verify-jobs2``: the full ``verify --jobs 2`` with two forked workers.
  Per-process caches are split across the workers and criterion 9 is the
  straggler, so caching and balance changes show here.

With ``--trace 0`` the run makes another pass only while it should end
within ``--seconds`` (``deform`` makes at least two, one per K), and reports
the medians over its passes of wall_s, cpu_s and peak_rss_mb, and setup_s:
the median time to ``import maxface.cli`` in fresh interpreters, sampled in
batches before and after every pass.  With
``--trace 1`` it makes one untraced pass and one traced pass of the same
inputs, the latter through ``perfbench/tracer.py``, and reports the
per-layer metrics and the tracing overhead (traced over untraced wall time).

Every pass checks the outputs: verify exits 0 with all_pass, cmc1 rows stay
within verify's tolerances, and mesh vertices and singular counts match
``perfbench/reference.json`` (made at the parent commit of this benchmark by
``perfbench/make_reference.py``).  Once per run and untimed,
``verify --criteria 2 --perturb-ck 0.01`` must exit 4.  The last line of
standard output is the JSON result; the line before it is a JSON record of
the run's environment and raw figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"

RUN_DEADLINE_S = 170.0   # the whole run must end within 180 s

MESH_TOL = 1e-9          # mesh quadrature tolerance of `maxface mesh`
MESH_STRIDE = 7          # reference.json keeps every 7th mesh vertex
SU11_TOL = 1e-8          # criterion 10's SU(1,1) gate
TRACE_TOL = 1e-6         # criterion 9's trace-identity gate

CLI_COMMANDS = ("verify", "cmc1", "mesh", "singular")


# ---------------------------------------------------------------------------
# workloads: seed -> commands
# ---------------------------------------------------------------------------

def _deform_ts(rng: random.Random) -> list[float]:
    mags = [m / 1000 for m in range(5, 31) if m not in (10, 20)]
    t1, t2 = rng.sample(mags, 2)
    return [t * rng.choice((-1, 1)) for t in (t1, t2)]


def deform_pass(seed: int, i: int) -> list[dict]:
    k = 1 + (seed + i) % 2
    ts = _deform_ts(random.Random(f"deform-{seed}-{i}"))
    tlist = ",".join(f"{t:g}" for t in ts)
    return [
        {"args": ["verify", "--criteria", "9-12", "--jobs", "1"],
         "check": "verify", "criteria": [9, 10, 11, 12]},
        {"args": ["cmc1", "--k", str(k), f"--t={tlist}", "--jobs", "1"],
         "check": "cmc1", "k": k, "t": sorted(ts)},
    ]


GEOMETRY_K = (1, 2, 3)
GEOMETRY_A = (2.5, 3.0, 3.5, 1.5)


def geometry_pass(seed: int, i: int) -> list[dict]:
    k = GEOMETRY_K[seed % 3]
    a = GEOMETRY_A[(seed // 3) % 4]
    return [
        {"args": ["verify", "--criteria", "1-8", "--jobs", "1"],
         "check": "verify", "criteria": list(range(1, 9))},
        {"args": ["mesh", "--surface", "genus_k", "--param", f"k={k}",
                  "--jobs", "1"], "check": "mesh", "k": k},
        {"args": ["singular", "--surface", "cone", "--param", f"a={a:g}",
                  "--format", "csv", "--jobs", "1"],
         "check": "singular", "a": a},
    ]


def jobs2_pass(seed: int, i: int) -> list[dict]:
    return [{"args": ["verify", "--jobs", "2"], "check": "verify",
             "criteria": list(range(1, 13)), "jobs": 2}]


# name -> (commands of pass i, fewest untraced passes; deform needs both K)
WORKLOADS = {
    "deform": (deform_pass, 2),
    "geometry": (geometry_pass, 1),
    "verify-jobs2": (jobs2_pass, 1),
}


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

class Runner:
    """Starts children in their own process group, reaps them with wait4
    for their CPU time and peak RSS, and kills any that outlive the run's
    deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("MAXFACE_JOBS", "PYTHONPATH")}
        self.env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1")
        self.live = set()
        self.killed = set()

    def run(self, argv: list[str], cwd: Path, stdout=subprocess.DEVNULL) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"rc": None, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
                    "timed_out": True}
        with open(cwd / "stderr.txt", "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=stdout,
                                    stderr=err, start_new_session=True)
            self.live.add(proc.pid)
            timer = threading.Timer(timeout, self._kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.live.discard(proc.pid)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "timed_out": proc.pid in self.killed}

    def _kill(self, pid: int):
        self.killed.add(pid)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop_all(self):
        for pid in list(self.live):
            self._kill(pid)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            self.live.discard(pid)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_obj(path: Path) -> tuple[list[list[float]], str]:
    """Vertex rows as printed, and the SHA-256 of the face lines."""
    verts, faces = [], hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:]])
            elif line.startswith("f "):
                faces.update(line.encode())
    return verts, faces.hexdigest()


def mesh_summary(out: Path) -> dict:
    """label -> vertex count, face hash, every MESH_STRIDE-th vertex."""
    summary = {}
    for path in sorted(out.glob("*.obj")):
        label = path.stem.rsplit("_", 1)[-1]
        verts, face_hash = read_obj(path)
        summary[label] = {"vertices": len(verts), "faces_sha256": face_hash,
                          "sample": verts[::MESH_STRIDE]}
    return summary


def singular_summary(out: Path) -> dict:
    """Per-component singularity counts (sorted) and CSV consistency."""
    docs = sorted(out.glob("*_singular.json"))
    doc = _load_json(docs[0]) if docs else None
    if not doc:
        return {}
    comps = sorted([c["swallowtails"], c["cross_caps"], c["degenerate"],
                    bool(c["cone_like"]), c["circuits"], bool(c["closed"])]
                   for c in doc["components"])
    csvs = sorted(out.glob("*_singular.csv"))
    rows = -1
    if csvs:
        with open(csvs[0], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    expect_rows = sum(c["vertex_count"] * c["circuits"]
                      for c in doc["components"])
    return {"components": comps, "csv_rows_ok": rows == expect_rows}


def check_command(cmd: dict, out: Path, ref: dict, tally: Tally):
    name = " ".join(cmd["args"])
    kind = cmd["check"]
    if kind == "verify":
        doc = _load_json(out / "verify.json") or {}
        rows = {r.get("id"): r for r in doc.get("criteria", [])}
        tally.check(doc.get("all_pass") is True, f"{name}: all_pass")
        for cid in cmd["criteria"]:
            tally.check(rows.get(cid, {}).get("pass") is True,
                        f"{name}: criterion {cid}")
    elif kind == "cmc1":
        doc = _load_json(out / f"cmc1_k{cmd['k']}.json") or {}
        rows = doc.get("rows", [])
        tally.check([r.get("t") for r in rows] == cmd["t"],
                    f"{name}: one row per t")
        for r in rows:
            tag = f"{name}: t={r.get('t')}"
            tally.check(r.get("su11_worst_defect", math.inf) < SU11_TOL,
                        f"{tag} SU(1,1) defect")
            for key in ("trace_tau0_residual", "trace_tauinf_residual"):
                tally.check(r.get(key, math.inf) <= TRACE_TOL, f"{tag} {key}")
    elif kind == "mesh":
        expect = ref["mesh"][str(cmd["k"])]
        got = mesh_summary(out)
        tally.check(sorted(got) == sorted(expect), f"{name}: mesh files")
        for label, exp in expect.items():
            g = got.get(label, {})
            tally.check(g.get("vertices") == exp["vertices"],
                        f"{name}: {label} vertex count")
            tally.check(g.get("faces_sha256") == exp["faces_sha256"],
                        f"{name}: {label} faces")
            sample = g.get("sample", [])
            ok = len(sample) == len(exp["sample"]) and all(
                abs(x - y) <= MESH_TOL * max(1.0, abs(y))
                for gv, ev in zip(sample, exp["sample"])
                for x, y in zip(gv, ev))
            tally.check(ok, f"{name}: {label} vertices within {MESH_TOL}")
    elif kind == "singular":
        expect = ref["singular"][f"{cmd['a']:g}"]
        got = singular_summary(out)
        tally.check(got.get("components") == expect["components"],
                    f"{name}: singular counts")
        tally.check(got.get("csv_rows_ok") is True, f"{name}: csv rows")


# ---------------------------------------------------------------------------
# per-layer metrics from tracer records
# ---------------------------------------------------------------------------

def _self_time_by_layer(records) -> dict[str, float]:
    """Span time minus the time of its child spans, summed per layer."""
    out: dict[str, float] = {}
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        for s, c in zip(spans, child):
            out[s[0]] = out.get(s[0], 0.0) + s[3] - s[2] - c
    return out


def _outermost_time(records, names) -> float:
    """Time in spans of `names` that are not inside another such span."""
    total = 0.0
    for rec in records:
        spans = rec["spans"]
        for s in spans:
            if s[1] not in names:
                continue
            p = s[4]
            while p >= 0 and spans[p][1] not in names:
                p = spans[p][4]
            if p < 0:
                total += s[3] - s[2]
    return total


def layer_metrics(commands: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.  `commands` holds, per command,
    its tracer document, its wall time, its --jobs and the bytes it wrote."""
    records = [r for c in commands for r in c["trace"]["records"]]
    cnt: dict[str, int] = {}
    legs = set()
    for rec in records:
        for key, val in rec["counters"].items():
            cnt[key] = cnt.get(key, 0) + val
        legs.update(rec["legs"])
    self_by_layer = _self_time_by_layer(records)

    def dur(name, tag=None):
        return sum(s[3] - s[2] for r in records for s in r["spans"]
                   if s[1] == name and (tag is None or s[5] == tag))

    solves = cnt.get("ode.solves", 0)
    m = {
        "algebra.ode.solves": solves,
        "algebra.ode.rhs_calls": cnt.get("ode.rhs_calls", 0),
        "algebra.ode.rhs_per_solve":
            cnt.get("ode.rhs_calls", 0) / solves if solves else 0.0,
        "algebra.ode.busy_s": dur("dormand_prince"),
        "algebra.quad.gk_calls": cnt.get("quad.gk_calls", 0),
        "algebra.quad.gk_evals": cnt.get("quad.gk_evals", 0),
        "algebra.quad.ts_calls": cnt.get("quad.ts_calls", 0),
        "algebra.quad.ts_evals": cnt.get("quad.ts_evals", 0),
        "algebra.quad.self_s": self_by_layer.get("algebra.quad", 0.0),
        "cover.fiber_calls": cnt.get("cover.fiber_calls", 0),
        "cover.continue_calls": cnt.get("calls.continue_path", 0),
        "cover.lifted_paths": cnt.get("calls.LiftedPath", 0),
        "cover.self_s": self_by_layer.get("cover", 0.0),
        "weierstrass.integrate_form_calls":
            cnt.get("calls.integrate_form", 0),
        "weierstrass.mesh_s": _outermost_time(records, {"mesh_sample"}),
        "weierstrass.self_s": self_by_layer.get("weierstrass", 0.0),
        "singularities.trace_calls": cnt.get("calls.trace_singular_set", 0),
        "singularities.trace_s":
            _outermost_time(records, {"trace_singular_set"}),
        "singularities.classify_s": _outermost_time(
            records, {"count_singularities", "classify_point",
                      "detect_cone_like"}),
        "singularities.self_s": self_by_layer.get("singularities", 0.0),
        "singularities.fiber_calls_in_trace":
            cnt.get("singularities.fiber_calls_in_trace", 0),
        "desitter.lift_calls": cnt.get("calls.integrate_lift", 0),
        "desitter.monodromy_calls": cnt.get("calls.loop_monodromy", 0),
        "desitter.legs_distinct": len(legs),
        "desitter.leg_reuse_ratio": len(legs) / solves if solves else 0.0,
        "desitter.self_s": self_by_layer.get("desitter", 0.0),
    }
    crit = [dur("run_criterion", cid) for cid in range(1, 13)]
    for cid, val in enumerate(crit, 1):
        m[f"verify.criterion_{cid}_s"] = val
    m["verify.straggler_s"] = max(crit)
    verify_wall = sum(c["jobs"] * c["wall_s"] for c in commands
                      if c["command"] == "verify")
    m["verify.pool_efficiency"] = sum(crit) / verify_wall if verify_wall else 0.0
    for name in CLI_COMMANDS:
        m[f"cli.{name}_s"] = dur(f"cmd_{name}")
    m["export.bytes_written"] = sum(c["bytes"] for c in commands)
    m["export.self_s"] = self_by_layer.get("export", 0.0)
    m["schema.self_s"] = self_by_layer.get("schema", 0.0)
    return m


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(runner: Runner, cmds: list[dict], pass_dir: Path, ref: dict,
             tally: Tally, traced: bool) -> dict:
    results = []
    for n, cmd in enumerate(cmds):
        out = pass_dir / f"cmd{n}"
        out.mkdir(parents=True)
        argv = [sys.executable]
        if traced:
            argv += [str(TRACER), str(out / "trace.json")]
        else:
            argv += ["-m", "maxface.cli"]
        argv += cmd["args"] + ["--out", str(out)]
        res = runner.run(argv, cwd=out)
        tally.check(res["rc"] == 0 and not res["timed_out"],
                    f"{' '.join(cmd['args'])}: exit {res['rc']}")
        trace = _load_json(out / "trace.json") if traced else None
        check_command(cmd, out, ref, tally)
        res.update(command=cmd["args"][0], jobs=cmd.get("jobs", 1),
                   trace=trace or {"records": []},
                   bytes=sum(p.stat().st_size for p in out.iterdir()
                             if p.name not in ("stderr.txt", "trace.json")))
        results.append(res)
    shutil.rmtree(pass_dir)
    return {"wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "commands": results}


class SetupProbe:
    """Times `import maxface.cli` in fresh interpreters.  Samples are taken
    in small batches spread over the run, so one slow phase of a shared
    machine does not set the median; a first, untimed import fills the
    bytecode cache."""

    CODE = ("import time; t0 = time.perf_counter(); import maxface.cli; "
            "t1 = time.perf_counter(); import json, sys, numpy; "
            "print(json.dumps({'import_s': t1 - t0, "
            "'python': sys.version.split()[0], "
            "'numpy': numpy.__version__}))")

    def __init__(self, runner: Runner, work: Path):
        self.runner = runner
        self.work = work
        self.times: list[float] = []
        self.versions = self._probe()

    def _probe(self) -> dict:
        d = self.work / f"setup{len(self.times)}"
        d.mkdir(exist_ok=True)
        with open(d / "stdout.txt", "w", encoding="utf-8") as fh:
            res = self.runner.run([sys.executable, "-c", self.CODE], cwd=d,
                                  stdout=fh)
        doc = _load_json(d / "stdout.txt")
        if res["rc"] != 0 or not doc:
            raise RuntimeError("cannot import maxface.cli: "
                               + (d / "stderr.txt").read_text()[-2000:])
        shutil.rmtree(d)
        return doc

    def sample(self, n: int = 3):
        for _ in range(n):
            self.times.append(self._probe()["import_s"])


def git_sha() -> str:
    """HEAD of the checkout, read from .git inside it; 'unknown' without."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "maxface" / "cli.py").is_file():
        print(f"no maxface sources under {SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    ref = _load_json(REFERENCE)
    if ref is None:
        print(f"cannot read {REFERENCE}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.monotonic()
    load_start = os.getloadavg()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work = out_root / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(t_start + RUN_DEADLINE_S)
    make_pass, min_passes = WORKLOADS[args.workload]
    tally = Tally()
    try:
        setup = SetupProbe(runner, work)
        control = work / "control"
        control.mkdir()
        res = runner.run([sys.executable, "-m", "maxface.cli", "verify",
                          "--criteria", "2", "--perturb-ck", "0.01",
                          "--jobs", "1", "--out", str(control)], cwd=control)
        tally.check(res["rc"] == 4, f"perturb-ck control: exit {res['rc']}")

        passes, traced = [], []
        if args.trace:
            # the same inputs untraced, then traced: their ratio is the
            # tracing overhead
            cmds = make_pass(args.seed, 0)
            for out, runs in (("pass", passes), ("traced", traced)):
                runs.append(run_pass(runner, cmds, work / out, ref, tally,
                                     out == "traced"))
        else:
            setup.sample()
            t0 = time.monotonic()
            while True:
                i = len(passes)
                passes.append(run_pass(runner, make_pass(args.seed, i),
                                       work / f"pass{i}", ref, tally, False))
                setup.sample()
                # another pass only if it should end within --seconds
                end = time.monotonic() + passes[-1]["wall_s"]
                if len(passes) >= min_passes and (
                        end - t0 > args.seconds or end > runner.deadline):
                    break
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        runner.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = tally.failed / tally.attempted
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": setup.versions["python"], "numpy": setup.versions["numpy"],
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup_s": setup.times, "fail_ratio": fail_ratio,
        "misses": tally.misses[:20],
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "commands": [[c["command"], c["wall_s"]]
                                 for c in p["commands"]]}
                   for p in passes],
    }

    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setup.times), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                              for p in passes), "MB"),
        }
    else:
        metrics = {}
        for key, val in layer_metrics(traced[0]["commands"]).items():
            unit = "s" if key.endswith("_s") else (
                "bytes" if key.endswith("bytes_written") else
                "ratio" if key.endswith(("_ratio", "_efficiency", "_per_solve"))
                else "count")
            metrics[key] = (val, unit)
        overhead = traced[0]["wall_s"] / passes[0]["wall_s"]
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["fail_ratio"] = (fail_ratio, "ratio")
        info["traced_passes"] = [
            {"wall_s": p["wall_s"],
             "commands": [{"command": c["command"], "wall_s": c["wall_s"],
                           "counters": _command_counters(c)}
                          for c in p["commands"]]}
            for p in traced]
        info["overhead_ratio"] = overhead

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _command_counters(cmd: dict) -> dict:
    total: dict[str, int] = {}
    legs = set()
    for rec in cmd["trace"]["records"]:
        for key, val in rec["counters"].items():
            total[key] = total.get(key, 0) + val
        legs.update(rec["legs"])
    total["legs_distinct"] = len(legs)
    return total


if __name__ == "__main__":
    sys.exit(main())
