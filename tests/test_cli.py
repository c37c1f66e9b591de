"""The command-line surface: exit codes, deterministic artifacts, and
schema-valid reports."""

import json

import pytest

from maxface import cli
from maxface import periods as per
from maxface import schema as schema_mod
from maxface import singularities as sng
from maxface import verify as verify_mod


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def test_gallery_lists_catalog(capsys):
    assert run(["gallery"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_mod.assert_valid(doc)
    names = [s["name"] for s in doc["surfaces"]]
    assert len(names) >= 8
    cone = next(s for s in doc["surfaces"] if s["name"] == "cone")
    assert "1 < a < 4" in cone["constraints"]
    assert "a outside (1.8, 2.2)" in cone["constraints"]
    assert all("paper_anchor" in s for s in doc["surfaces"])


def test_gallery_lists_genus_at_closing_constant(capsys):
    """The genus entries are listed at their default k with c = c_k."""
    assert run(["gallery"]) == 0
    doc = json.loads(capsys.readouterr().out)
    surfaces = {s["name"]: s for s in doc["surfaces"]}
    assert surfaces["genus_k"]["params"] == {"k": 1, "c": per.compute_ck(1).c_k}
    assert surfaces["genus_k"]["params"]["c"] == pytest.approx(1.0460496201, abs=1e-8)
    assert surfaces["genus_k_reduced"]["params"] == {"k": 2,
                                                     "c": per.compute_ck(2).c_k}


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_genus_writes_full_and_half(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["mesh", "--surface", "genus_k", "--param", "k=1",
                "--out", out]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    objs = [f for f in files if f.endswith(".obj")]
    assert len(objs) == 2
    assert any("full" in f for f in objs)
    assert any("half" in f for f in objs)
    report = json.loads((tmp_path / [f for f in files
                                     if f.endswith("_mesh.json")][0]).read_text())
    schema_mod.assert_valid(report)
    assert sorted(report["files"]) == objs


def test_mesh_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["mesh", "--surface", "catenoid", "--out", str(out),
                    "--format", "ply"]) == 0
    fa = (a / "catenoid.ply").read_bytes()
    fb = (b / "catenoid.ply").read_bytes()
    assert fa == fb


def test_mesh_at_high_k_runs(tmp_path):
    """The genus-9 mesh continues w along 1,244 legs of 10 sheets each
    without landing one off its sheet."""
    assert run(["mesh", "--surface", "genus_k", "--param", "k=9",
                "--out", str(tmp_path)]) == 0


def test_mesh_rejects_bad_format(capsys):
    assert run(["mesh", "--surface", "catenoid", "--format", "obj",
                "--param", "oops"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "error"
    assert err["error"]["type"] == "ValidationError"


def test_mesh_rejects_unknown_surface(capsys):
    assert run(["mesh", "--surface", "klein_bottle"]) == 2


def test_mesh_rejects_excluded_parameter(capsys):
    assert run(["mesh", "--surface", "cone", "--param", "a=2"]) == 2


@pytest.mark.parametrize("surface, param", [
    ("catenoid", "foo=1"), ("helicoid", "a=2"),
    ("genus_k", "k=1.5"), ("genus_k_reduced", "k=2.5"),
    ("associated", "phase=5"), ("associated", "phase=0"),
    ("genus_k", "c=nan"), ("genus_k", "c=inf"),
])
def test_mesh_rejects_unchecked_parameter(surface, param, capsys):
    """Surfaces without parameters refuse any; a fractional k is refused,
    not truncated; a phase outside (0, pi/2) and non-finite values are
    refused."""
    assert run(["mesh", "--surface", surface, "--param", param]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("args", [
    ["periods", "--k", "1", "--tol-closure", "0"],
    ["periods", "--k", "1", "--tol-closure", "nan"],
    ["periods", "--k", "1", "--tol-closure=-1e-8"],
    ["periods", "--k", "1", "--tol-closure", "inf"],
])
def test_rejects_nonpositive_tolerance(args, capsys):
    """A closure tolerance must be finite and > 0."""
    assert run(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------

def test_singular_writes_json_and_csv(tmp_path):
    out = str(tmp_path)
    assert run(["singular", "--surface", "genus_k", "--param", "k=1",
                "--out", out, "--format", "csv"]) == 0
    files = {p.name for p in tmp_path.iterdir()}
    json_files = [f for f in files if f.endswith("_singular.json")]
    csv_files = [f for f in files if f.endswith("_singular.csv")]
    assert len(json_files) == 1 and len(csv_files) == 1
    doc = json.loads((tmp_path / json_files[0]).read_text())
    schema_mod.assert_valid(doc)
    assert doc["component_count"] == 2
    csv_text = (tmp_path / csv_files[0]).read_text()
    assert csv_text.startswith("component,circuit,index,chart")


def test_singular_json_with_out_writes_only_json(tmp_path):
    """--format json --out DIR writes the report and no CSV, as periods
    does; the CSV is written for --format csv only."""
    assert run(["singular", "--surface", "trinoid1", "--format", "json",
                "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trinoid1_a3p67_b13p2177_singular.json"]


def test_singular_csv_traces_once(tmp_path, monkeypatch):
    """The report and the CSV share one trace; the CSV has one row per
    vertex of every lifted traversal."""
    calls = []
    trace = sng.trace_singular_set

    def counting(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(sng, "trace_singular_set", counting)
    assert run(["singular", "--surface", "genus_k", "--param", "k=1",
                "--format", "csv", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    doc = json.loads(next(tmp_path.glob("*_singular.json")).read_text())
    rows = next(tmp_path.glob("*_singular.csv")).read_text().splitlines()[1:]
    assert len(rows) == sum(c["vertex_count"] * c["circuits"]
                            for c in doc["components"])
    assert any(c["circuits"] > 1 for c in doc["components"])


def test_singular_default_k_takes_its_period_constant(capsys):
    """Without --param k the reduced family builds its catalog default k = 2
    and must close with c_2, not c_1."""
    assert run(["singular", "--surface", "genus_k_reduced"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["k"] == 2
    assert doc["params"]["c"] == per.compute_ck(2).c_k


def test_singular_stdout_json(capsys):
    assert run(["singular", "--surface", "trinoid1", "--param", "a=3.67"]) == 0
    doc = json.loads(capsys.readouterr().out)
    total_sw = sum(row["swallowtails"] for row in doc["components"])
    assert total_sw == 8


@pytest.mark.parametrize("a", ["1.8", "2.2"])
def test_singular_cone_near_a2(a, capsys):
    """Near a = 2 crossing rows lie at |zhat| ~ 10, where Newton's steps
    stop shrinking above 1e-14 (1 + |zhat|); the refinement stops at that
    floor and the cone keeps two ovals of 4 swallowtails and 4 cross caps
    beside its cone-like axis."""
    assert run(["singular", "--surface", "cone", "--param", f"a={a}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = sorted((row["cone_like"], row["swallowtails"], row["cross_caps"],
                   row["degenerate"], row["closed"]) for row in doc["components"])
    assert rows == [(False, 4, 4, 0, True), (False, 4, 4, 0, True),
                    (True, 0, 0, 0, True)]


@pytest.mark.parametrize("a", ["1.84", "2.1", "2.17"])
def test_singular_cone_outside_envelope_exits_2(a, monkeypatch, capsys):
    """Inside (1.8, 2.2) the tracer fails or miscounts the cone near a = 2
    and no second count checks it, so the catalog refuses a there before
    any tracing."""
    def trace(*args, **kwargs):
        raise AssertionError("traced a cone outside its envelope")

    monkeypatch.setattr(sng, "trace_singular_set", trace)
    assert run(["singular", "--surface", "cone", "--param", f"a={a}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ValidationError",
                            "message": "cone needs 1 < a < 4, a outside (1.8, 2.2)"}


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_periods_range_report(capsys):
    assert run(["periods", "--k", "1-2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_mod.assert_valid(doc)
    assert doc["k_values"] == [1, 2]
    for row in doc["rows"]:
        assert row["closure_pass"] is True
        assert row["route_agreement_pass"] is True
        assert row["rho_in_range"] is True
    assert doc["rows"][0]["c_k"] == pytest.approx(1.0460496201, abs=1e-8)


def test_periods_at_high_k_closes(capsys):
    """At k = 20 the root spacing is small against how far w turns on the
    period loops' longest legs; every leg still lands on its sheet, so the
    closure check passes instead of the quadrature stalling on a jump."""
    assert run(["periods", "--k", "20"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["closure_pass"] is True
    assert row["route_agreement_pass"] is True


def test_periods_at_k40_closes(capsys):
    """Past k = 30 the tanh-sinh nodes of B_k's old integrand stopped short
    of its endpoint singularity and periods exited 3."""
    assert run(["periods", "--k", "40"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["closure_pass"] is True
    assert row["route_agreement_pass"] is True


def test_periods_past_the_envelope_exits_3(capsys):
    """At k = 400 a fiber value's rhs overflows Python's complex power: the
    run exits 3 with the JSON error, not 1 with a raw OverflowError."""
    assert run(["periods", "--k", "400"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericalError"
    assert err["error"]["message"].startswith("rhs overflows at z = ")


def test_periods_csv_artifacts(tmp_path):
    assert run(["periods", "--k", "1", "--format", "csv",
                "--out", str(tmp_path)]) == 0
    files = {p.name for p in tmp_path.iterdir()}
    assert "periods_k1.csv" in files
    assert "periods.json" in files


def test_periods_parallel_matches_serial(capsys, monkeypatch):
    """periods runs in one process; MAXFACE_JOBS leaves its report alone."""
    assert run(["periods", "--k", "1,2"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("MAXFACE_JOBS", "2")
    assert run(["periods", "--k", "1,2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


@pytest.mark.parametrize("flag, env", [
    ("0", None), ("-1", None), (None, "0"), (None, "-2"), (None, "two"),
    (None, "1.5"),
])
def test_jobs_must_be_positive_integer(flag, env, monkeypatch, capsys):
    """A bad --jobs or MAXFACE_JOBS exits 2 before any work; neither falls
    back to one worker."""
    monkeypatch.delenv("MAXFACE_JOBS", raising=False)
    if env is not None:
        monkeypatch.setenv("MAXFACE_JOBS", env)
    argv = ["periods", "--k", "1,2"] + (["--jobs", flag] if flag else [])
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert run(["verify", "--criteria", "3"] + (["--jobs", flag] if flag else [])) == 2


def test_periods_bad_k(capsys):
    assert run(["periods", "--k", "0"]) == 2
    assert run(["periods", "--k", "abc"]) in (2,)


# ---------------------------------------------------------------------------
# cmc1
# ---------------------------------------------------------------------------

def test_cmc1_t_grid(capsys):
    assert run(["cmc1", "--k", "1", "--t", "0,0.02"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_mod.assert_valid(doc)
    assert doc["t_values"] == [0.0, 0.02]
    zero_row = doc["rows"][0]
    assert zero_row["degenerate_to_sigma"] < 1e-10
    live_row = doc["rows"][1]
    assert live_row["su11_worst_defect"] < 1e-8
    assert live_row["nu_0"] == pytest.approx(1.0770329614, abs=1e-8)


def test_cmc1_only_zero_t(capsys):
    """With no nonzero t every de Sitter stage gets an empty batch: the
    report holds the one degenerate row."""
    assert run(["cmc1", "--k", "1", "--t=0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema_mod.assert_valid(doc)
    [row] = doc["rows"]
    assert row["degenerate_to_sigma"] < 1e-10


def test_cmc1_mesh_artifact(tmp_path):
    assert run(["cmc1", "--k", "1", "--t", "0.02", "--mesh",
                "--out", str(tmp_path)]) == 0
    files = {p.name for p in tmp_path.iterdir()}
    assert "cmc1_k1_t0p02.ply" in files
    text = (tmp_path / "cmc1_k1_t0p02.ply").read_text()
    assert "property float x0" in text


def test_cmc1_mesh_name_of_negative_t(tmp_path):
    assert run(["cmc1", "--k", "1", "--t=-0.027", "--mesh",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "cmc1_k1.json").read_text())
    assert doc["mesh_file"] == "cmc1_k1_tm0p027.ply"
    assert (tmp_path / "cmc1_k1_tm0p027.ply").is_file()


def test_cmc1_rejects_out_of_window_t(capsys):
    assert run(["cmc1", "--k", "1", "--t", "0.2"]) == 2


def test_cmc1_rejects_nonfinite_t(capsys):
    assert run(["cmc1", "--k", "1", "--t=0.01,nan"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert "finite" in err["error"]["message"]


def test_cmc1_rejects_several_k(capsys):
    """cmc1 reports one k; a k range is refused, not cut to its first k."""
    assert run(["cmc1", "--k", "2,3", "--t", "0.01"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv, text", [
    (["verify", "--criteria", "7", "--jobs", "two"], "invalid int value"),
    (["mesh", "--surface", "catenoid", "--format", "xyz"], "invalid choice"),
    (["mesh", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_is_json(argv, text, capsys):
    """A value argparse itself refuses, or an unknown flag, exits 2 with
    the JSON error on stderr, like a value the CLI's own checks refuse."""
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert text in err["error"]["message"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_subset_passes(tmp_path, capsys):
    assert run(["verify", "--criteria", "1,3,7,8",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    schema_mod.assert_valid(doc)
    assert doc["all_pass"] is True
    assert [c["id"] for c in doc["criteria"]] == [1, 3, 7, 8]
    err = capsys.readouterr().err
    assert err.count("[PASS]") == 4


def test_verify_json_is_deterministic(tmp_path, capsys):
    """Two runs write byte-identical reports: no wall times in the JSON,
    which stay on the stderr lines."""
    texts = []
    for name in ("a", "b"):
        assert run(["verify", "--criteria", "3,7", "--out",
                    str(tmp_path / name)]) == 0
        texts.append((tmp_path / name / "verify.json").read_bytes())
    assert texts[0] == texts[1]
    assert b"runtime" not in texts[0]
    assert capsys.readouterr().err.count("s)\n") == 4


def test_verify_perturbed_ck_fails(tmp_path, capsys):
    assert run(["verify", "--criteria", "2", "--perturb-ck", "0.01",
                "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"] is False
    assert doc["perturb_ck"] == 0.01
    err = capsys.readouterr().err
    assert "[FAIL]" in err


def test_verify_contains_stray_exception(tmp_path, monkeypatch, capsys):
    """A criterion that crashes with a non-maxface error fails alone; the
    run still finishes and reports the error."""
    def crash(cfg):
        return 1 / 0

    monkeypatch.setitem(verify_mod.CRITERIA, 13, ("crashes", crash))
    assert run(["verify", "--criteria", "8,13", "--jobs", "1",
                "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "verify.json").read_text())
    schema_mod.assert_valid(doc)
    rows = {c["id"]: c for c in doc["criteria"]}
    assert rows[8]["pass"] is True
    assert rows[13]["pass"] is False
    assert rows[13]["error"].startswith("ZeroDivisionError")


def test_verify_unknown_criterion(capsys):
    assert run(["verify", "--criteria", "99"]) == 2


# ---------------------------------------------------------------------------
# config file merging
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "1", "tol_closure": 1e-7}))
    assert run(["periods", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_values"] == [1]
    assert doc["tol_closure"] == 1e-7


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "3"}))
    assert run(["periods", "--config", str(cfg), "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_values"] == [1]


def _config(tmp_path, body) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    return str(path)


@pytest.mark.parametrize("argv, body", [
    (["periods", "--k", "1"], {"format": "xml"}),
    (["mesh", "--surface", "catenoid"], {"format": "json"}),
    (["verify", "--criteria", "7"], {"perturb_ck": "abc"}),
    (["periods", "--k", "1"], {"tol_closure": 0}),
    (["cmc1"], {"k": "x"}),
    (["cmc1"], {"mesh": "yes"}),
    (["periods"], {"jobs": 0}),
    (["gallery"], {"jobs": 1.5}),
    (["singular", "--surface", "cone"], {"params": [2.5]}),
    (["singular", "--surface", "cone"], {"params": {"a": "big"}}),
    (["gallery"], [1]),
    (["gallery"], "{not json"),
])
def test_config_value_takes_its_flags_check(argv, body, tmp_path, capsys):
    """A config value that its flag would refuse exits 2 with a JSON
    ValidationError, as do an unreadable file and one that holds no object."""
    assert run(argv + ["--config", _config(tmp_path, body)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


def test_config_key_of_no_command_fails_before_any_work(tmp_path,
                                                       monkeypatch, capsys):
    """A misspelled key names no option of any command: exit 2 with a JSON
    ValidationError that names it, before any period is computed."""
    def report(*args):
        raise AssertionError("periods computed before the config was checked")

    monkeypatch.setattr(per, "period_report", report)
    cfg = _config(tmp_path, {"tol_closer": 5, "k": "1"})
    assert run(["periods", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert "'tol_closer'" in err["error"]["message"]


def test_config_tol_class_is_unknown(tmp_path, capsys):
    """singular has no classification tolerance option: a tol_class key
    names no option and is refused like any misspelling."""
    cfg = _config(tmp_path, {"tol_class": 1e-7})
    assert run(["singular", "--surface", "cone", "--config", cfg]) == 2
    assert "'tol_class'" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_config_key_of_another_command_passes(tmp_path):
    """One file serves several commands: mesh ignores verify's criteria."""
    cfg = _config(tmp_path, {"criteria": "1-3", "surface": "catenoid"})
    assert run(["mesh", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "catenoid.obj").is_file()


def test_bad_config_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def trace(*args, **kwargs):
        raise AssertionError("traced before the config was checked")

    monkeypatch.setattr(sng, "trace_singular_set", trace)
    cfg = _config(tmp_path, {"format": "xml"})
    assert run(["singular", "--surface", "cone", "--param", "a=2.5",
                "--config", cfg]) == 2


def test_cmc1_mesh_without_nonzero_t_fails_before_rows(monkeypatch, capsys):
    def rows(*args):
        raise AssertionError("rows computed before --mesh was checked")

    monkeypatch.setattr(cli, "_cmc1_rows", rows)
    assert run(["cmc1", "--k", "1", "--t", "0", "--mesh"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["mesh", "--surface", "catenoid", "--jobs", "0"],
    ["gallery", "--jobs", "-3"],
    ["singular", "--surface", "cone", "--jobs", "0"],
    ["cmc1", "--jobs", "-1"],
])
def test_every_command_checks_jobs(argv, capsys):
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"


def test_config_switch_turns_on(tmp_path):
    """A switch set in the file acts like its flag: cmc1 writes the PLY."""
    cfg = _config(tmp_path, {"mesh": True, "t": 0.02})
    assert run(["cmc1", "--k", "1", "--config", cfg,
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cmc1_k1_t0p02.ply").is_file()
    doc = json.loads((tmp_path / "cmc1_k1.json").read_text())
    assert doc["mesh_file"] == "cmc1_k1_t0p02.ply"


def test_config_null_counts_as_unset(tmp_path, capsys):
    cfg = _config(tmp_path, {"out": None, "mesh": None, "jobs": None})
    assert run(["gallery", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "gallery"


def test_config_solve_ck_is_unknown(tmp_path, capsys):
    """gallery lists the genus entries at c_k by default and has no
    solve_ck switch: the key names no option and is refused."""
    cfg = _config(tmp_path, {"solve_ck": True})
    assert run(["gallery", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationError"
    assert "'solve_ck'" in err["error"]["message"]


def test_config_params_come_before_param_flags(tmp_path, capsys):
    cfg = _config(tmp_path, {"surface": "cone", "params": {"a": 2.0}})
    assert run(["singular", "--config", cfg, "--param", "a=2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["a"] == 2.5


@pytest.mark.parametrize("flag, file, env, expected", [
    (None, None, None, 1),
    (None, None, "3", 3),
    (None, 2, "3", 2),
    ("1", 2, "3", 1),
])
def test_jobs_precedence(flag, file, env, expected, tmp_path, monkeypatch,
                         capsys):
    """--jobs is settled like any option: the flag, then the config file's
    jobs, then MAXFACE_JOBS, then 1."""
    seen = []
    run_all = verify_mod.run_all

    def recording(ids=None, perturb_ck=0.0, jobs=1):
        seen.append(jobs)
        return run_all(ids=ids, perturb_ck=perturb_ck, jobs=1)

    monkeypatch.setattr(verify_mod, "run_all", recording)
    monkeypatch.delenv("MAXFACE_JOBS", raising=False)
    if env is not None:
        monkeypatch.setenv("MAXFACE_JOBS", env)
    argv = ["verify", "--criteria", "7"]
    if flag is not None:
        argv += ["--jobs", flag]
    if file is not None:
        argv += ["--config", _config(tmp_path, {"jobs": file})]
    assert run(argv) == 0
    assert seen == [expected]
