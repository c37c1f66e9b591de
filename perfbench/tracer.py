"""Run one maxface CLI command with layer tracing, from outside the package.

Usage (with the repository's ``src`` directory on PYTHONPATH):

    python perfbench/tracer.py OUT.json <maxface arguments ...>

The tracer imports ``maxface.cli``, then replaces the public functions of
each module by wrappers, in the defining module and in every module that
bound the same object with ``from .x import name``.  A wrapper records a
span (layer, function, start, end, parent, tag) and counts calls to the
callables a layer receives: the ODE right-hand side, quadrature integrands
and ``CoverSpec.fiber``.  A target that no longer exists is skipped, so the
tracer keeps working while the program is refactored; its metrics then
read 0.

Workers forked by a process pool inherit the wrappers.  After a fork the
child starts an empty record, and whenever its outermost span closes it
writes that record to ``OUT.json.<pid>.<n>`` and starts a new one.  The
records are therefore on disk before the task's result reaches the parent,
so before the pool exits.  The parent merges them into OUT.json when the
command ends.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time

# (module, attribute, layer).  "Class.method" wraps a method on the class.
SPAN_TARGETS = (
    ("algebra", "dormand_prince", "algebra.ode"),
    ("algebra", "gk_adaptive", "algebra.quad"),
    ("algebra", "quad_singular", "algebra.quad"),
    ("cover", "continue_path", "cover"),
    ("cover", "LiftedPath.__init__", "cover"),
    ("weierstrass", "integrate_form", "weierstrass"),
    ("weierstrass", "integrate_phi", "weierstrass"),
    ("weierstrass", "mesh_sample", "weierstrass"),
    ("weierstrass", "order_table", "weierstrass"),
    ("weierstrass", "gauss_degree", "weierstrass"),
    ("weierstrass", "osserman_check", "weierstrass"),
    ("singularities", "trace_singular_set", "singularities"),
    ("singularities", "count_singularities", "singularities"),
    ("singularities", "classify_point", "singularities"),
    ("singularities", "detect_cone_like", "singularities"),
    ("singularities", "singular_report", "singularities"),
    ("desitter", "integrate_lift", "desitter"),
    ("desitter", "loop_monodromy", "desitter"),
    ("desitter", "reflection_monodromy", "desitter"),
    ("desitter", "trace_identity_check", "desitter"),
    ("desitter", "residue_derivative", "desitter"),
    ("desitter", "construct_iota", "desitter"),
    ("desitter", "su11_certify", "desitter"),
    ("desitter", "desitter_sample", "desitter"),
    ("desitter", "desitter_grid", "desitter"),
    ("desitter", "schwarzian_relation", "desitter"),
    ("desitter", "end_asymptotics", "desitter"),
    ("desitter", "deformation_report", "desitter"),
    ("verify", "run_criterion", "verify"),
    ("cli", "cmd_verify", "cli"),
    ("cli", "cmd_cmc1", "cli"),
    ("cli", "cmd_mesh", "cli"),
    ("cli", "cmd_singular", "cli"),
    ("export", "dump_json", "export"),
    ("export", "write_obj", "export"),
    ("export", "write_ply", "export"),
    ("export", "write_singular_csv", "export"),
    ("export", "write_desitter_ply", "export"),
    ("schema", "assert_valid", "schema"),
)

# Functions that recurse through their module attribute: only the outermost
# call gets a span, a count and a counted integrand.
OUTERMOST_ONLY = {"gk_adaptive"}


class Record:
    """Spans, counters and leg keys of one process (or one worker task)."""

    def __init__(self):
        self.spans = []   # [layer, function, start, end, parent index, tag]
        self.stack = []
        self.counters = {}
        self.legs = set()
        self.active = {}  # function name -> open span depth

    def count(self, key):
        self.counters[key] = self.counters.get(key, 0) + 1

    def as_dict(self):
        return {"pid": os.getpid(), "spans": self.spans,
                "counters": self.counters, "legs": sorted(self.legs)}


_record = Record()
_root_pid = os.getpid()
_out_path = None
_dumps = 0


def _after_fork_in_child():
    global _record, _dumps
    _record = Record()
    _dumps = 0


os.register_at_fork(after_in_child=_after_fork_in_child)


def _dump_worker_record():
    global _record, _dumps
    _dumps += 1
    path = f"{_out_path}.{os.getpid()}.{_dumps}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_record.as_dict(), fh)
    _record = Record()


def _counted(fn, key):
    def counted(*args, **kwargs):
        _record.count(key)
        return fn(*args, **kwargs)
    return counted


def _leg_key(rhs, y0, kwargs):
    """(k, t, leg start, leg end, start fiber value, rtol) of one lift leg,
    read from the leg closure that ``desitter.integrate_lift`` builds.  The
    fiber value is rounded to 1e-10, far below the sheet separation, because
    continuation along different routes reaches the same root to ~1e-12;
    adding 0.0 folds -0.0 into 0.0."""
    try:
        a, dz = rhs.__defaults__
        cells = dict(zip(rhs.__code__.co_freevars,
                         (c.cell_contents for c in rhs.__closure__ or ())))
        a, b, w0 = complex(a), complex(a + dz), complex(y0[4])
        parts = (a.real, a.imag, b.real, b.imag,
                 round(w0.real, 10), round(w0.imag, 10))
        return repr((cells["k"], cells["t"], *(x + 0.0 for x in parts),
                     kwargs.get("rtol", 1e-11)))
    except (AttributeError, KeyError, TypeError, ValueError, IndexError):
        return None


def _prepare_call(name, args, kwargs):
    """Count the call and wrap the callable it receives; returns new args."""
    rec = _record
    if name == "dormand_prince":
        rec.count("ode.solves")
        key = _leg_key(args[0], args[1], kwargs)
        if key is not None:
            rec.legs.add(key)
        return (_counted(args[0], "ode.rhs_calls"),) + tuple(args[1:])
    if name == "gk_adaptive":
        rec.count("quad.gk_calls")
        return (_counted(args[0], "quad.gk_evals"),) + tuple(args[1:])
    if name == "quad_singular":
        rec.count("quad.ts_calls")
        return (_counted(args[0], "quad.ts_evals"),) + tuple(args[1:])
    rec.count(f"calls.{name}")
    return args


def _wrap(fn, layer, name):
    def wrapper(*args, **kwargs):
        rec = _record
        if name in OUTERMOST_ONLY and rec.active.get(name):
            return fn(*args, **kwargs)
        args = _prepare_call(name, args, kwargs)
        tag = args[0] if name == "run_criterion" and args else None
        parent = rec.stack[-1] if rec.stack else -1
        idx = len(rec.spans)
        span = [layer, name, time.perf_counter(), 0.0, parent, tag]
        rec.spans.append(span)
        rec.stack.append(idx)
        rec.active[name] = rec.active.get(name, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            rec.active[name] -= 1
            rec.stack.pop()
            if not rec.stack and os.getpid() != _root_pid:
                _dump_worker_record()
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_fiber(cls):
    fiber = cls.fiber

    def counted_fiber(self, z):
        rec = _record
        rec.count("cover.fiber_calls")
        if rec.active.get("trace_singular_set"):
            rec.count("singularities.fiber_calls_in_trace")
        return fiber(self, z)
    cls.fiber = counted_fiber


def install(pkg):
    """Wrap every target that exists."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == pkg or name.startswith(pkg + ".")]
    for mod_name, attr, layer in SPAN_TARGETS:
        mod = sys.modules.get(f"{pkg}.{mod_name}")
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            setattr(cls, meth, _wrap(vars(cls)[meth], layer, cls_name))
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            continue
        wrapper = _wrap(fn, layer, attr)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapper)
    cover = sys.modules.get(f"{pkg}.cover")
    if cover is not None and hasattr(getattr(cover, "CoverSpec", None), "fiber"):
        _wrap_fiber(cover.CoverSpec)


def main(argv):
    global _out_path
    if len(argv) < 2:
        print("usage: tracer.py OUT.json <maxface arguments ...>",
              file=sys.stderr)
        return 2
    _out_path = os.path.abspath(argv[0])
    import maxface.cli as cli
    install("maxface")
    rc = 1
    try:
        rc = cli.main(argv[1:])
    finally:
        records = [_record.as_dict()]
        for path in sorted(glob.glob(glob.escape(_out_path) + ".*")):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
            os.remove(path)
        with open(_out_path, "w", encoding="utf-8") as fh:
            json.dump({"records": records}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
