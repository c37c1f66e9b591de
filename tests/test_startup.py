"""Start-up: `import maxface.cli` runs only the CLI and imports no numpy,
each command runs only the modules it needs, and none imports numpy.random.  Each case runs in a
fresh interpreter, since this process has loaded every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxface

SRC = str(Path(maxface.__file__).resolve().parents[1])
LAZY = {"algebra", "cover", "desitter", "export", "periods", "schema",
        "singularities", "verify", "weierstrass"}

# After `cli.main(argv)` in a fresh process: the maxface modules in
# sys.modules, those whose code has run (a module still waiting for its
# first use is not a plain module), and whether numpy and numpy.random were
# imported.
PROBE = """
import json, sys, types
import maxface, maxface.cli
argv = sys.argv[1:]
rc = maxface.cli.main(argv) if argv else None
mods = {name[len("maxface."):]: mod for name, mod in sys.modules.items()
        if name.startswith("maxface.")}
print(json.dumps({
    "rc": rc,
    "registered": sorted(mods),
    "executed": sorted(n for n, m in mods.items()
                       if type(m) is types.ModuleType),
    "attributes": all(vars(maxface)[n] is m for n, m in mods.items()),
    "numpy": "numpy" in sys.modules,
    "numpy_random": "numpy.random" in sys.modules}))
"""


def _python(args, cwd, *flags, path=(SRC,)):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("MAXFACE_JOBS", None)
    return subprocess.run([sys.executable, *flags, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _probe(argv, cwd):
    proc = _python(["-c", PROBE, *argv], cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_runs_only_cli_and_errors(tmp_path):
    doc = _probe([], tmp_path)
    assert set(doc["registered"]) == LAZY | {"cli", "errors"}
    assert doc["executed"] == ["cli", "errors"]
    assert doc["attributes"]
    assert not doc["numpy"]


@pytest.mark.parametrize("argv, skipped", [
    (["mesh", "--surface", "genus_k", "--param", "k=1"],
     {"desitter", "singularities", "verify", "schema"}),
    (["singular", "--surface", "cone", "--param", "a=2.5", "--format", "csv"],
     {"desitter", "periods", "verify", "schema"}),
    (["cmc1", "--k", "1", "--t=0.013,-0.027"],
     {"verify", "singularities", "weierstrass", "schema"}),
    (["verify", "--criteria", "1-8"], {"desitter"}),
    (["verify", "--criteria", "9-12"], {"singularities"}),
], ids=["mesh", "singular", "cmc1", "verify-1-8", "verify-9-12"])
def test_command_runs_only_what_it_needs(argv, skipped, tmp_path):
    doc = _probe(argv + ["--jobs", "1", "--out", str(tmp_path)], tmp_path)
    assert doc["rc"] == 0
    assert not skipped & set(doc["executed"])
    assert set(doc["registered"]) == LAZY | {"cli", "errors"}
    assert not doc["numpy_random"]


# In a fresh process: OPENBLAS_NUM_THREADS and OMP_NUM_THREADS after the
# values in argv[1] are set (the rest unset) and maxface.cli is imported,
# and whether numpy was imported.
PIN = """
import json, os, sys
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for name in names:
    os.environ.pop(name, None)
os.environ.update(json.loads(sys.argv[1]))
import maxface.cli
print(json.dumps([[os.environ.get(name) for name in names], "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("preset, pinned", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1"]),
    ({"OMP_NUM_THREADS": "4"}, ["1", "4"]),
])
def test_import_cli_pins_blas_threads_unless_set(preset, pinned, tmp_path):
    """Importing the CLI sets both BLAS thread variables to 1 where unset,
    keeps a value the user set, and still imports no numpy."""
    proc = _python(["-c", PIN, json.dumps(preset)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [pinned, False]


def test_run_as_main_without_warnings(tmp_path):
    """python -m finds cli unloaded, so runpy does not warn about a second
    import of it; --help still prints usage and exits 0."""
    proc = _python(["-m", "maxface.cli", "--help"], tmp_path, "-W", "error")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: maxface")


PATCH = """
import json, sys, types
import pytest
import maxface.cli as cli
from maxface import export, weierstrass
assert type(export) is not types.ModuleType
assert type(weierstrass) is not types.ModuleType
docs = []
setattr(export, "dump_json", lambda doc, fh: docs.append(doc))
with pytest.MonkeyPatch.context() as mp:
    mp.setattr(weierstrass, "catalog_list", lambda: ["patched"])
    assert cli.main(["gallery"]) == 0
print(json.dumps(docs[0]["surfaces"]))
"""


def test_patch_before_first_use_takes_effect(tmp_path):
    """An attribute set on a module before its code has run survives the
    load, and monkeypatch.setattr (which reads the attribute first) patches
    the loaded module."""
    proc = _python(["-c", PATCH], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["patched"]


def _numpy_blocked(tmp_path):
    """A PYTHONPATH on which `import numpy` raises ImportError."""
    blocker = tmp_path / "block" / "numpy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("numpy is blocked")\n')
    return (str(tmp_path / "block"), SRC)


def test_help_runs_without_numpy(tmp_path):
    proc = _python(["-m", "maxface.cli", "--help"], tmp_path, "-W", "error",
                   path=_numpy_blocked(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: maxface")


FAILED_LOAD = """
import json
from maxface import algebra, cover
errors = []
for module, name in [(algebra, "EYE2"), (algebra, "EYE2"), (cover, "CoverSpec"),
                     (cover, "CoverSpec"), (algebra, "dop853")]:
    try:
        getattr(module, name)
        errors.append(None)
    except Exception as exc:
        errors.append([type(exc).__name__, str(exc)])
print(json.dumps(errors))
"""


def test_module_whose_load_raises_raises_at_every_use(tmp_path):
    """A module whose code raises on its first use is left unloaded, not
    half-run, so every later use raises the same ImportError instead of an
    AttributeError for a name the module never reached."""
    proc = _python(["-c", FAILED_LOAD], tmp_path, path=_numpy_blocked(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["ImportError", "numpy is blocked"]] * 5
