"""CLI contract: config parsing, determinism, exit codes, file interfaces."""

import ast
import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwlab import energy, reduced
from kwlab.cli import (
    _SHARED_FLAGS,
    build_parser,
    emit_plotdata,
    main,
    suite_solver,
)
from kwlab.config import (
    _KEY_TYPES,
    SUITES,
    SuiteConfig,
    build_config,
    parse_config_text,
)
from kwlab.report import (
    CheckReport,
    checks_to_json,
    make_check,
    write_checks_json,
    write_csv,
)


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

def test_make_check_pass_fail_logic():
    ok = make_check("calibrate", "x", computed=1.0, expected=1.0, tolerance=0.0)
    assert ok.status == "pass" and ok.gates
    bad = make_check("calibrate", "x", computed=1.1, expected=1.0,
                     tolerance=0.05)
    assert bad.status == "fail"
    info = make_check("calibrate", "x", computed=-1.0, info=True)
    assert info.status == "info" and not info.gates and info.passed
    with pytest.raises(ValueError):
        make_check("calibrate", "x", computed=1.0)  # no expected, no ok flag
    with pytest.raises(ValueError):
        CheckReport("a", "b", 0.0, None, 0.0, "meh", "derived")


def test_checks_json_deterministic_and_versioned():
    checks = [make_check("calibrate", "x", computed=1.0, expected=1.0,
                         tolerance=0.0)]
    a = checks_to_json(checks, {"seed": 1})
    b = checks_to_json(checks, {"seed": 1})
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == 1
    assert set(payload["checks"][0]) == {
        "check_id", "detail", "computed", "expected", "tolerance", "status",
        "provenance", "extra"}


def test_atomic_write_and_readback(tmp_path):
    path = tmp_path / "sub" / "report.json"
    checks = [make_check("ricci", "x", computed=2.0, expected=2.0,
                         tolerance=0.0)]
    write_checks_json(str(path), checks, {})
    data = json.loads(path.read_text())
    assert data["checks"][0]["check_id"] == "ricci"
    assert not [p for p in os.listdir(tmp_path / "sub")
                if p.startswith(".tmp-")]


def test_write_csv_writes_csv_writer_bytes_of_float_reprs(tmp_path):
    # each cell is the repr of its float64 value, a longdouble column rounded
    # as float() rounds it; the bytes are csv.writer's over those reprs
    specials = [-0.0, np.inf, np.nan, 1e-300, 5e-324]
    cols = (np.array([*specials, 2.0 / 3.0]),
            np.array([*specials, np.longdouble(2) / 3], dtype=np.longdouble),
            np.geomspace(1e-3, 12.0, 6).tolist())
    header = ["f64", "longdouble", "list"]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, *cols)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in zip(*cols))
    got = path.read_bytes()
    assert got == want.getvalue().encode()
    assert got.split(b"\r\n")[6].startswith(b"0.6666666666666666,0.6666666666666666,")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_parsing_and_precedence(tmp_path):
    text = """
    # acceptance-style configuration
    suite = decomposition
    seed = 7
    n = 123
    """
    vals = parse_config_text(text)
    assert vals["suite"] == "decomposition" and vals["n"] == 123
    cfg = build_config(vals, {"seed": 99, "suite": None})
    assert cfg.seed == 99           # CLI wins
    assert cfg.n == 123             # file preserved
    assert cfg.suite == "decomposition"     # an absent flag keeps it


def test_config_file_chooses_the_verify_suite(tmp_path, capsys):
    # verify runs the file's suite unless --suite is given, and rejects a
    # file's unknown suite
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suite = algebra\n")
    out = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["suite"] == "algebra"
    cfg.write_text("suite = bogus\n")
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown suite 'bogus'" in capsys.readouterr().err


def test_config_rejects_unknown_keys_and_ids():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("bogus = 3")
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(suite="everything")


# ---------------------------------------------------------------------------
# suites through the entry point
# ---------------------------------------------------------------------------

def test_verify_exit_codes_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    base = ["verify", "--suite", "decomposition", "--seed", "42",
            "--n", "300"]
    assert main(base + ["--out", str(out1)]) == 0
    assert capsys.readouterr().out == ""
    assert main(base + ["--out", str(out2), "--json"]) == 0
    both = capsys.readouterr().out
    assert main(base + ["--json"]) == 0
    assert out1.read_bytes() == out2.read_bytes() == both.encode()
    assert capsys.readouterr().out == both


def test_verify_negative_control(tmp_path):
    # the flip fails the reference solution on S^3 x R+ and both flat models
    out = tmp_path / "flip.json"
    code = main(["verify", "--suite", "models", "--flip-star-sign",
                 "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    by_id = {c["check_id"]: c for c in data["checks"]}
    for cid in ("calibrate", "residual-nahm-pole", "residual-nahm-singular"):
        assert by_id[cid]["status"] == "fail", cid


def test_solve_below_the_located_range_exits_two(tmp_path):
    # 1e-6 is inside the accepted range 0 < y0 <= 0.2 but far below where
    # the decay is located: the coarse phase stalls, and the command says so
    # in one line, with no traceback and no output files
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.run(
        [sys.executable, "-m", "kwlab.cli", "solve", "--y0", "1e-6",
         "--out-profile", str(tmp_path / "p.csv"),
         "--out-log", str(tmp_path / "l.json")],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: coarse shooting phase stalled at parameter bracket [")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "p.csv").exists()
    assert not (tmp_path / "l.json").exists()


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["verify", "--suite", "not-a-suite"]) == 2
    # a tolerance is a constant of its check: no flag or key sets one
    assert main(["verify", "--tol", "x=1"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    # shooting from a y0 the pole series cannot serve
    outputs = ["--out-profile", str(tmp_path / "p.csv"),
               "--out-log", str(tmp_path / "l.json")]
    for y0 in ("0", "-0.1", "nan"):
        assert main(["solve", "--y0", y0, *outputs]) == 2
        assert "series initial data" in capsys.readouterr().err
    # or one too small to locate the decay: from 1e-4 and 1e-5 the located
    # end's final run blows up before SHOOT_Y_END
    for y0 in ("1e-4", "1e-5"):
        assert main(["solve", "--y0", y0, *outputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: final run from y0 = {float(y0)!r} at ")
        y_blow = float(err.split("blew up near y = ")[1].split()[0].rstrip(",;:."))
        assert 0.0 < y_blow < reduced.SHOOT_Y_END
    # or so small that the series state overflows float64, or the first run
    # turns non-finite: one error line, and no numpy warning on the way
    for y0 in ("5e-324", "1e-310", "2.2e-308", "1e-300", "1e-100", "1e-12"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--y0", y0, *outputs]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(float(y0)) in err
    assert not (tmp_path / "p.csv").exists()
    assert not (tmp_path / "l.json").exists()
    # seeds and values are checked when the config is built, whichever
    # suite runs; the quadrature layout is a constant, so no key sets it
    cfg = tmp_path / "bad.cfg"
    for line, message in (("seed = -1", "seed must be >= 0"),
                          ("tol.calibrate = 1e-9",
                           "line 1: unknown config key 'tol.calibrate'"),
                          *((f"{key} = 1", f"line 1: unknown config key '{key}'")
                            for key in ("eps", "y_split", "y_max", "panels",
                                        "nodes_per_panel")),
                          ("n = 1.5", "line 1: n expects an integer, got '1.5'"),
                          ("flip_star_sign = maybe",
                           "line 1: flip_star_sign expects a boolean, got 'maybe'")):
        cfg.write_text(line + "\n")
        assert main(["verify", "--suite", "algebra",
                     "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
    assert main(["verify", "--suite", "algebra", "--seed", "-3"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    # nor does a flag
    for argv in (["verify", "--eps", "0.05"], ["verify", "--ymax", "30"],
                 ["energy", "--ymax", "30", "--out", str(tmp_path / "e.json")]):
        assert main(argv) == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()
    assert not (tmp_path / "l.json").exists()
    assert not (tmp_path / "p.csv").exists()
    # a point file row with a non-finite coordinate, or y <= 0
    points = tmp_path / "points.csv"
    for row in ("0.5,0.5,0.5,nan", "inf,0.5,0.5,1", "0.5,0.5,0.5,inf",
                "0.5,-inf,0.5,1", "0.5,0.5,0.5,0", "0.5,0.5,0.5,-2",
                "1,2,3,0.5,7", "1,2,3", "abc,0.5,0.5,1", "x1,0.5,0.5,1"):
        points.write_text(f"x1,x2,x3,y\n0.1,0.2,0.3,0.4\n{row}\n")
        assert main(["residual", "--points", str(points),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{points}:3: " in err
        assert "point coordinates must be finite, with y > 0" in err
    # a field past csv's size limit: a long number, or an open quote
    for row in ("1" * 200_000 + ",0.5,0.5,1", '0.5,"' + "1\n" * 70_000):
        points.write_text(f"x1,x2,x3,y\n0.1,0.2,0.3,0.4\n{row}\n")
        assert main(["residual", "--points", str(points),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{points}:" in err and "field larger than field limit" in err
    # a byte that is not UTF-8 names its line too
    points.write_bytes(b"x1,x2,x3,y\n0.1,0.2,0.3,0.4\n0.1,0.2,0.3,\xff\n")
    assert main(["residual", "--points", str(points),
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {points}:3: not UTF-8 text" in err
    # a points file sets the point count, so --n with --points is refused
    points.write_text("x1,x2,x3,y\n0.1,0.2,0.3,0.4\n")
    assert main(["residual", "--points", str(points), "--n", "5",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert ("argument --n: not allowed with argument --points"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()


# a config file's line syntax: '#' starts a comment and these end a line
_LINE_SYNTAX = "#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_TEXT = st.text(st.characters(codec="utf-8",
                                  blacklist_characters=_LINE_SYNTAX),
                     max_size=12)
# edge values of every key type, valid and not
_EDGE_VALUES = ("0", "-0", "1", "-1", "2", "1e-3", "-1e-3", "0.5", "1.5",
                "1e999", "nan", "-inf", "inf", "abc", "", " 0.25 ", "1=2",
                "true", "False", "yes", "maybe", "1_000", "0x10",
                "1000000000000000000000", *SUITES)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(_KEY_TYPES)),
       value=st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.integers().map(str), st.floats().map(repr),
                       _LINE_TEXT),
       sep=st.sampled_from(("=", " = ", "")))
def test_config_key_fuzz(fuzz_dir, key, value, sep):
    # every key with a fuzzed value, after a line that picks the quick
    # algebra suite: exit 0, 1 or 2, never a traceback, and 2 with a message
    line = f"{key}{sep}{value}"
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text(f"suite = algebra\n{line}\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--config", str(cfg),
                     "--out", str(fuzz_dir / "r.json")])
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert "error:" in err, err
    if "=" not in line:
        assert code == 2 and "line 2: expected 'key = value'" in err, err
        return
    head, val = (part.strip() for part in line.split("=", 1))
    if head not in _KEY_TYPES:     # the value ran into the key
        assert code == 2 and "line 2: unknown config key" in err, err
        return
    try:
        _KEY_TYPES[head](val)
    except ValueError:
        assert code == 2 and f"line 2: {head} expects" in err, err
    if head == "suite" and val not in SUITES:
        assert code == 2 and "unknown suite" in err, err


# gate ids that once took a tolerance override, and text that is no id
_GATE_IDS = ("calibrate", "residual-nahm-pole", "residual-nahm-singular",
             "residual-invariant-model-alt", "solver-shooting", "su2-bracket")


def _verify_algebra(out_dir, *argv):
    """Exit code and stderr of an in-process algebra run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--suite", "algebra", *argv,
                     "--out", str(out_dir / "r.json")])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(check_id=st.one_of(st.sampled_from(_GATE_IDS), st.text(max_size=12)),
       value=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats().map(repr),
                       st.text(max_size=12)),
       sep=st.sampled_from(("=", " = ", "")))
def test_tol_flag_fuzz(fuzz_dir, check_id, value, sep):
    # no flag sets a tolerance: --tol is rejected whatever it carries
    code, err = _verify_algebra(fuzz_dir, f"--tol={check_id}{sep}{value}")
    assert "Traceback" not in err
    assert code == 2 and "unrecognized arguments: --tol" in err, (code, err)


@settings(max_examples=150, deadline=None)
@given(check_id=st.one_of(st.sampled_from(_GATE_IDS), _LINE_TEXT),
       value=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats().map(repr),
                       _LINE_TEXT),
       sep=st.sampled_from(("=", " = ", "")))
def test_config_tol_line_fuzz(fuzz_dir, check_id, value, sep):
    # no config key sets a tolerance: a tol.<id> line is an unknown key
    line = f"tol.{check_id}{sep}{value}"
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, err = _verify_algebra(fuzz_dir, "--config", str(cfg))
    assert "Traceback" not in err
    if "=" not in line:
        assert code == 2 and "line 1: expected 'key = value'" in err, err
    else:
        assert code == 2 and "line 1: unknown config key" in err, err
        assert "tol." in err, err


# a --points field: a number, a non-finite or malformed one, quotes or NUL
_POINT_FIELD = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(("nan", "-inf", "Infinity", "1e999", "0", "-0.5", "",
                     "x1", '"', '""', '"0.5"', '"1,2"', "\x00", " 1 ")),
    st.text("0123456789.e-+\",\x00 \n", max_size=8))
# a row the command accepts: four finite numbers, y > 0
_GOOD_ROW = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3,
                      st.floats(min_value=1e-3, max_value=1e3)).map(
    lambda row: list(map(repr, row)))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.one_of(_GOOD_ROW,
                               st.lists(_POINT_FIELD, min_size=1, max_size=6)),
                     min_size=1, max_size=4),
       header=st.booleans())
def test_points_rows_fuzz(fuzz_dir, rows, header):
    # fuzzed --points rows: exit 0, or 2 with the file and line named
    points = fuzz_dir / "points.csv"
    text = "\n".join(",".join(row) for row in rows)
    points.write_text(("x1,x2,x3,y\n" if header else "") + text + "\n",
                      encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["residual", "--points", str(points),
                     "--out", str(fuzz_dir / "r.csv")])
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert re.search(re.escape(f"error: {points}:") + r"\d+: ", err), err


@pytest.mark.parametrize("command, flag", [
    ("verify", "--tol"),
    ("energy", "--seed"), ("energy", "--tol"), ("energy", "--json"),
    ("energy", "--eps"), ("energy", "--ymax"),
    ("verify", "--eps"), ("verify", "--ymax"),
    ("residual", "--tol"), ("residual", "--json"),
    *((command, flag) for command in ("solve", "plotdata")
      for flag in ("--seed", "--tol", "--out", "--json")),
    # only verify and residual read a config file
    ("energy", "--config"), ("solve", "--config"), ("plotdata", "--config"),
])
def test_flags_a_command_does_not_read_exit_two(command, flag, capsys):
    target = ["--target", "profiles"] if command == "plotdata" else []
    value = [] if flag == "--json" else ["1"]
    assert main([command, *target, flag, *value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_series_parameter_gate_is_live(monkeypatch):
    # a pole series one order short of the stated one moves the located
    # coefficient by about a_6 y0^4, far outside the order-6 bound, while
    # the profile comparison of solver-shooting still passes
    shoot = reduced.shoot_for_decay

    def short_series(sysr, series, y0):
        return shoot(sysr, reduced.indicial_expand(sysr, series.order - 1),
                     y0=y0)

    monkeypatch.setattr(reduced, "shoot_for_decay", short_series)
    by_id = {c.check_id: c for c in suite_solver(SuiteConfig(suite="solver"))}
    assert by_id["solver-series-parameter"].status == "fail"
    assert by_id["solver-shooting"].status == "pass"


def test_unlocked_system_fails_shooting_through_guard(tmp_path, monkeypatch,
                                                      capsys):
    # one coefficient off the locked system by 1e-6: solver-closure fails,
    # and shooting, whose blow-up certificate is proven for the locked
    # system alone, raises; the guard turns that into a failed
    # solver-shooting entry and one stderr line, never a traceback
    derive = reduced.derive_reduced_system

    def unlocked(conv):
        sysr = derive(conv)
        coeffs = list(sysr.coeffs_b)
        coeffs[3] += Fraction(1, 10**6)
        return reduced.ReducedSystem(conv, sysr.coeffs_a, tuple(coeffs))

    monkeypatch.setattr(reduced, "derive_reduced_system", unlocked)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "solver", "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_id["solver-closure"]["status"] == "fail"
    shooting = by_id["solver-shooting"]
    assert shooting["status"] == "fail" and shooting["computed"] is None
    assert shooting["detail"].startswith("check raised: the blow-up "
                                         "certificate is proven only for")
    # the two checks read from the shot are not made; the rest run, the
    # initial-value runs each in its own guard (the run to y = 10 blows up)
    assert "solver-series-parameter" not in by_id
    assert by_id["solver-flow-translate"]["computed"] > 0
    err = capsys.readouterr().err
    assert "solver-shooting: ValueError raised at" in err
    assert "solver-ivp-match: BlowUpError raised at" in err
    assert "Traceback" not in err


def test_guard_reports_exception_detail(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(energy, "c_model", boom)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "energy", "--n-pert", "1",
                 "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    entry = by_id["c-model-stability"]
    # the report keeps only the message ...
    assert entry["status"] == "fail"
    assert entry["detail"] == "check raised: boom"
    assert entry["computed"] is None and entry["extra"] == {}
    # ... and stderr names the type and the raising line
    code = boom.__code__
    where = f"{code.co_filename}:{code.co_firstlineno + 1}"
    err = capsys.readouterr().err
    assert f"c-model-stability: ZeroDivisionError raised at {where}: boom" in err


def _energy_failures(tmp_path, checks=12):
    """Check id -> entry of each check that failed in an energy run, which
    must keep `checks` checks: all twelve, unless a producer of two raised."""
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "energy", "--n-pert", "1",
                 "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert len(by_id) == checks
    return {cid: c for cid, c in by_id.items() if c["status"] == "fail"}


def test_failed_constants_fail_only_their_checks(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("no constants")

    monkeypatch.setattr(energy, "bound_constants", boom)
    failed = _energy_failures(tmp_path)
    assert set(failed) == {"energy-weighted-bound", "perturbation-chain",
                           "theorem-bound"}
    for c in failed.values():
        assert c["detail"] == "check raised: no constants"


def test_failed_sweep_fails_only_its_checks(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("no sweep")

    monkeypatch.setattr(energy, "cutoff_sweep", boom)
    failed = _energy_failures(tmp_path)
    assert set(failed) == {"energy-cutoff-limit", "energy-route-match"}
    for c in failed.values():
        assert c["detail"] == "check raised: no sweep"


_CERTIFIED_READERS = {
    "energy-route-match", "energy-weighted-bound", "energy-cutoff-limit",
    "c-model-stability", "theorem-bound", "perturbation-chain",
    "energy-first-order-balance", "energy-square-completion",
    "energy-bulk-boundary-balance"}


@pytest.mark.parametrize("shared, readers", [
    # the certificate of the from-zero pass: the at-eps pass,
    # bound_constants and the cutoff sweep read the certified pass (the
    # at-eps pass integrates the field it certified), so their readers fail
    # too; the charges read the pass before its certificate and still run
    ("full_line", _CERTIFIED_READERS),
    ("at_eps", {"energy-first-order-balance", "energy-square-completion",
                "energy-bulk-boundary-balance"}),
    # the from-zero pass itself: its certificate and the model's charge,
    # whose producer then makes no charge-model-alt
    ("from_zero", _CERTIFIED_READERS | {"charge-model"}),
])
def test_failed_shared_pass_fails_only_its_readers(tmp_path, monkeypatch,
                                                   shared, readers):
    # a raise in the build of one of the reference solution's shared passes;
    # the cutoff sweep goes through field_norms too and still runs
    field_norms = energy.field_norms

    def boom(*args, **kwargs):
        raise ZeroDivisionError("no pass")

    def at_eps_fails(full_line, rows, *args, **kwargs):
        if rows is energy.CUTOFF_ROWS:
            boom()
        return field_norms(full_line, rows, *args, **kwargs)

    if shared == "full_line":
        monkeypatch.setattr(energy, "certified", boom)
    elif shared == "from_zero":
        monkeypatch.setattr(energy, "from_zero_pass", boom)
    else:
        monkeypatch.setattr(energy, "field_norms", at_eps_fails)
    failed = _energy_failures(tmp_path, 11 if shared == "from_zero" else 12)
    assert set(failed) == readers
    for c in failed.values():
        assert c["detail"] == "check raised: no pass"


def _panel_calls(monkeypatch, argv) -> list:
    """The (integrand, edges) of each integrate_panels call made by one
    in-process command."""
    from kwlab import quadrature

    calls = []
    panels = quadrature.integrate_panels

    def recorded(f, edges, nodes):
        calls.append((f, edges))
        return panels(f, edges, nodes)

    monkeypatch.setattr(quadrature, "integrate_panels", recorded)
    assert main(argv) == 0
    return calls


def test_energy_suite_integrates_each_layout_once(tmp_path, monkeypatch):
    # one call per part at each of two panel counts: 4 for the from-zero
    # pass (the head, and the body it keeps for the passes that share it,
    # the model's charge among its rows), 2 for the head alone of the at-eps
    # pass and of each of the three sweep cutoffs, 4 for the companion's
    # charge; 2 for one chain block, which integrates the head and the body
    # from 1 at 2 * PANELS only, and 2 for the refined c_model value, which
    # integrates only its two parts at 4 * PANELS: 20 (22 when the chain also
    # integrated the coarse layout and the tail it dropped, 26 when the
    # model's charge had a pass of its own, 36 when every pass integrated
    # its own body and the constants their own head, 64 when every check
    # integrated its own pass)
    from kwlab import quadrature

    made = []
    rows = energy.density_rows
    monkeypatch.setattr(energy, "density_rows",
                        lambda *args: made.append(rows(*args)) or made[-1])
    argv = ["verify", "--suite", "energy", "--n-pert", "3",
            "--out", str(tmp_path / "r.json")]
    calls = _panel_calls(monkeypatch, argv)
    assert len(calls) == 20
    # the reference solution's density rows are integrated on each body
    # edge array once: at PANELS and twice as many by the from-zero pass,
    # at 4 * PANELS by the refined c_model value
    bodies = [len(edges) - 1 for f, edges in calls
              if any(f is g for g in made) and edges[0] == quadrature.Y_SPLIT]
    p = quadrature.PANELS
    assert sorted(bodies) == [p, 2 * p, 4 * p]


@pytest.mark.parametrize("model, calls", [("he", 10), ("alt", 14)])
def test_energy_command_integrates_each_layout_once(tmp_path, monkeypatch,
                                                    model, calls):
    # the reference pass (4) and the heads of the three sweep rows (6); alt
    # adds its own bound pass (4).  The charge is read from the field's own
    # from-zero pass: 14 and 18 when it had a pass of its own, 22 and 26
    # when each sweep row integrated its own body and the constants their
    # own head; 42 for either model when every producer integrated its own
    # pass
    argv = ["energy", "--model", model, "--out", str(tmp_path / "e.json")]
    assert len(_panel_calls(monkeypatch, argv)) == calls


def _guard_nodes(monkeypatch) -> list:
    """The first node of each solution guard grid, as the guard runs."""
    calls = []
    engine = energy.kw_residual_norm
    monkeypatch.setattr(energy, "kw_residual_norm",
                        lambda conv, field, y: calls.append(y[0]) or engine(conv, field, y))
    return calls


def test_solution_guard_runs_once_per_pass(monkeypatch, tmp_path):
    # the guard runs where a from-zero pass of a bare field is built, on the
    # range of every pass (from 1e-3): the suite's at-eps, refined and sweep
    # passes integrate the field that its from-zero pass certified.  A second
    # run repeats it, as no run keeps state.  The energy command guards its
    # reference pass and, for alt, the companion's own from-zero pass, whose
    # Norms the three sweep rows take
    calls = _guard_nodes(monkeypatch)
    argv = ["verify", "--suite", "energy", "--n-pert", "1",
            "--out", str(tmp_path / "e.json")]
    assert main(argv) == 0
    assert calls == [1e-3]
    assert main(argv) == 0
    assert calls == [1e-3, 1e-3]
    for model, want in (("he", [1e-3]), ("alt", [1e-3, 1e-3])):
        calls.clear()
        assert main(["energy", "--model", model,
                     "--out", str(tmp_path / "r.json")]) == 0
        assert calls == want, model


def test_energy_suite_negative_control_fails_every_pass_reader(tmp_path):
    # with the star sign flipped the reference solution solves nothing, so
    # each shared pass refuses it and every check that reads one fails; the
    # envelope and the charges read densities only
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "energy", "--flip-star-sign",
                 "--n-pert", "1", "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    failed = {cid for cid, c in by_id.items() if c["status"] == "fail"}
    assert failed == {f"energy-{i}" for i in energy.IDENTITY_INPUTS} | {
        "c-model-stability", "perturbation-chain", "theorem-bound"}
    assert len(failed) == 9
    for cid in failed:
        assert by_id[cid]["detail"] == ("check raised: not a solution: "
                                        "identity chain does not apply"), cid
    for cid in ("c-model-envelope", "charge-model", "charge-model-alt"):
        assert by_id[cid]["status"] == "pass", cid


def test_benchmark_trace_hooks_resolve(tmp_path):
    # the benchmark's traced run finds its hooks by name; a renamed function
    # would leave its per-layer metrics silently at zero; the energy run
    # reaches the batched chain and binds integrate_panels' edges and nodes,
    # and the decomposition run binds decomposition_suite's n
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for suite, extra in (("algebra", []), ("energy", ["--n-pert", "2"]),
                         ("decomposition", ["--n", "30"])):
        dump = tmp_path / f"{suite}.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "tracing.py"),
             str(dump), "--", "verify", "--suite", suite, *extra,
             "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "tracing: not found" not in proc.stderr
        assert json.loads(dump.read_text())["spans"]
    traced = json.loads((tmp_path / "energy.json").read_text())
    names = {span[0] for span in traced["spans"]}
    assert {"energy.perturbation_chain", "quadrature.integrate_panels"} <= names
    assert traced["counts"]["quadrature.integrand_evals"] > 0
    traced = json.loads((tmp_path / "decomposition.json").read_text())
    assert "decomp.decomposition_suite" in {span[0] for span in traced["spans"]}
    assert traced["counts"]["decomp.vectors"] == 30


def test_benchmark_trace_targets_exist():
    # in a fresh interpreter, `import kwlab.cli` alone loads every module
    # that the traced run wraps, and every function it names there resolves
    # (decomp.project and ReducedSystem.rhs among them): a refactor that
    # renames, moves or lazily imports one would leave its span or count
    # silently empty
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys\n"
        "import kwlab.cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracing\n"
        "for modname, attr in [*tracing.SPANS, *tracing.COUNTS, tracing.WEDGE]:\n"
        "    try:\n"
        "        found = callable(tracing._resolve(sys.modules[modname], attr))\n"
        "    except (KeyError, AttributeError):\n"
        "        found = False\n"
        "    print(modname, attr, found)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "perfbench")],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) > 20 and ["kwlab.decomp", "project", "True"] in rows
    assert [row for row in rows if row[2] != "True"] == []


_PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "kwlab")


def _package_trees(src):
    """(file name, parsed module) for each module of the package."""
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared runtime dependency; an import anywhere in the
    # package, a lazy one inside a function included, must not need more
    allowed = set(sys.stdlib_module_names) | {"numpy", "kwlab"}
    found = set()
    for name, tree in _package_trees(_PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((name, node.module.split(".")[0]))
    assert found, "no imports parsed"
    assert sorted(f for f in found if f[1] not in allowed) == []


def test_only_the_check_layer_builds_report_entries():
    # the engine modules return numbers, arrays and plain records: cli's
    # suite functions build every report entry from them, with the records
    # that report defines, and no other module imports report or names one
    entries = {"make_check", "CheckReport", "EnergyReport"}
    found = set()
    for name, tree in _package_trees(_PACKAGE):
        if name in ("cli.py", "report.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((name, a.name) for a in node.names
                             if a.name.split(".")[-1] == "report")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == "report":
                    found.add((name, node.module))
                found.update((name, a.name) for a in node.names
                             if a.name == "report" or a.name in entries)
            elif isinstance(node, ast.Name) and node.id in entries:
                found.add((name, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in entries:
                found.add((name, node.attr))
    assert sorted(found) == []


def test_only_halfspace_imports_csv():
    # report.write_csv is the one path from numbers to CSV text; the csv
    # module stays for reading a user's points file, so no second writer
    # can grow beside it
    found = set()
    for name, tree in _package_trees(_PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(name for a in node.names if a.name == "csv")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.add(name)
    assert sorted(found) == ["halfspace.py"]


def _package_defaults(src):
    """The defaulted parameters of the functions and methods defined with def
    in the package, as (file, function, parameter, callee, at), and its
    calls, as (called name, positional args, keywords).  A call is matched
    by the called name, ``ClassName(...)`` calls ``__init__`` and
    ``partial(f, ...)`` calls f; ``at`` is the parameter's index among a
    call's positional arguments, None for a keyword-only one."""
    defs, calls = [], []
    for name, tree in _package_trees(src):
        owner = {}  # def -> the class it is a method of
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((item, node) for item in node.body
                             if isinstance(item, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cls = owner.get(node)
                static = "staticmethod" in map(ast.unparse, node.decorator_list)
                callee = cls.name if cls and node.name == "__init__" else node.name
                defs.append((name, node, callee, int(bool(cls) and not static)))
            elif isinstance(node, ast.Call):
                func, args = node.func, node.args
                if ast.unparse(func) == "partial" and args:
                    func, args = args[0], args[1:]
                called = getattr(func, "id", getattr(func, "attr", None))
                calls.append((called, args, node.keywords))

    params = []
    for name, fn, callee, skip in defs:
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        params += [(name, fn.name, p.arg, callee, i - skip)
                   for i, p in enumerate(positional) if i >= first]
        params += [(name, fn.name, p.arg, callee, None)
                   for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return params, calls


def _call_sets(args, keywords, param, at, *, maybe: bool) -> bool:
    """Whether a call's arguments set the parameter: by its keyword or by a
    positional argument at index ``at``.  With ``maybe``, so do a
    ``**mapping`` when it is keyword-only (at is None) and a ``*args`` at or
    before ``at``, which may set it."""
    if any(k.arg == param for k in keywords):
        return True
    if at is None:
        return maybe and any(k.arg is None for k in keywords)
    if any(isinstance(x, ast.Starred) for x in args[:at + 1]):
        return maybe
    return len(args) > at


def _defaults_no_call_sets(src):
    """(file, function, parameter) for each defaulted parameter that no call
    in the package sets, or may set."""
    params, calls = _package_defaults(src)
    return [(name, fn, param) for name, fn, param, callee, at in params
            if not any(c == callee and _call_sets(args, kw, param, at, maybe=True)
                       for c, args, kw in calls)]


def _defaults_every_call_sets(src):
    """(file, function, parameter) for each defaulted parameter that every
    call in the package of its function sets, there being one; a call whose
    ``*args`` or ``**mapping`` may set it counts as taking the default."""
    params, calls = _package_defaults(src)
    unused = []
    for name, fn, param, callee, at in params:
        mine = [(args, kw) for c, args, kw in calls if c == callee]
        if mine and all(_call_sets(args, kw, param, at, maybe=False)
                        for args, kw in mine):
            unused.append((name, fn, param))
    return unused


def test_every_default_is_set_by_some_call():
    # a default that no call in the package overrides is a knob only tests
    # turn: make it a constant.  main's argv is for in-process callers (the
    # tests and the benchmark's tracer)
    assert sorted(_defaults_no_call_sets(_PACKAGE)) == [("cli.py", "main", "argv")]


def test_no_default_is_always_overridden():
    # a default that every call in the package overrides serves only the
    # tests: make the parameter required
    assert sorted(_defaults_every_call_sets(_PACKAGE)) == []


def _unread_parameters(src):
    """(file, function, parameter) for each parameter of a def or lambda in
    the package that its body never reads (self and cls aside); a read in a
    nested function or lambda counts."""
    unread = []
    for name, tree in _package_trees(src):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [(name, getattr(fn, "name", "<lambda>"), p)
                       for p in params if p not in read | {"self", "cls"}]
    return unread


def test_every_parameter_is_read():
    # a parameter that its function never reads is an input that changes
    # nothing: callers pass it in vain, or believe it takes effect
    assert sorted(_unread_parameters(_PACKAGE)) == []


def _vectorised_shims(src):
    """(file, call) for each call in the package of np.vectorize,
    np.frompyfunc or np.float_power: Python's scalar math mapped over an
    array, or a power where numpy's own square or root serves."""
    shims = {"vectorize", "frompyfunc", "float_power"}
    return [(name, ast.unparse(node.func))
            for name, tree in _package_trees(src) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in shims]


def test_no_scalar_math_mapped_over_arrays():
    # the numeric kernels take and return arrays with numpy's own ufuncs
    assert _vectorised_shims(_PACKAGE) == []


def test_no_module_imports_dataclasses():
    # the package's records are NamedTuples or plain classes: dataclasses
    # (and the copy and inspect machinery it loads) would cost every command
    # its start-up
    found = [(name, ast.unparse(node))
             for name, tree in _package_trees(_PACKAGE)
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def test_verify_runs_only_its_suite_module(tmp_path):
    # the four suite modules are in sys.modules from `import kwlab.cli` on,
    # and a module whose body has run is a plain module: in a fresh process
    # each suite runs its own module alone, and none loads fractions or
    # dataclasses
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys, types\n"
        "from kwlab.cli import main\n"
        "assert main(['verify', '--suite', sys.argv[1], '--n', '300',\n"
        "             '--n-pert', '2', '--out', sys.argv[2]]) == 0\n"
        "ran = [m for m in ('decomp', 'energy', 'halfspace', 'reduced')\n"
        "       if type(sys.modules['kwlab.' + m]) is types.ModuleType]\n"
        "print(ran, [m for m in ('fractions', 'dataclasses') if m in sys.modules])\n")
    for suite, ran in (("algebra", []), ("decomposition", ["decomp"]),
                       ("models", ["halfspace"]), ("energy", ["energy"])):
        proc = subprocess.run(
            [sys.executable, "-c", code, suite, str(tmp_path / "r.json")],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{ran} []", suite


def test_lazy_suite_module_is_the_one_imported():
    # a suite module imported before kwlab.cli is the one that cli reads (a
    # second copy would leave a test's monkeypatch on the first unread), and
    # one that cli registers is the package's attribute, its body not run
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys, types\n"
        "import kwlab.reduced as first\n"
        "import kwlab.cli\n"
        "import kwlab\n"
        "print(kwlab.cli.reduced is first is sys.modules['kwlab.reduced'],\n"
        "      kwlab.cli.energy is kwlab.energy is sys.modules['kwlab.energy'],\n"
        "      type(kwlab.energy) is types.ModuleType)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False"]


def test_seeded_commands_do_not_load_numpy_random(tmp_path):
    # every seeded sample comes from random.Random: in a fresh process the
    # sampling suites and the residual command leave numpy.random (and the
    # secrets/OpenSSL chain it imports) unloaded
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys\n"
        "from kwlab.cli import main\n"
        "out = sys.argv[1]\n"
        "for suite in ('algebra', 'models', 'energy'):\n"
        "    assert main(['verify', '--suite', suite, '--n-pert', '9',\n"
        "                 '--out', out + '/' + suite + '.json']) == 0\n"
        "assert main(['residual', '--out', out + '/res.csv']) == 0\n"
        "print(sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_energy_commands_do_not_load_numpy_polynomial(tmp_path):
    # the quadrature rule is a literal table: in a fresh process the energy
    # suite, the energy command and the eps sweep leave numpy.polynomial
    # (nine modules, loaded by the first leggauss call) unloaded
    root = os.path.join(os.path.dirname(__file__), "..")
    code = (
        "import sys\n"
        "from kwlab.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['verify', '--suite', 'energy', '--n-pert', '2',\n"
        "             '--out', out + '/e.json']) == 0\n"
        "assert main(['energy', '--model', 'he', '--out', out + '/r.json']) == 0\n"
        "assert main(['plotdata', '--target', 'eps-sweep',\n"
        "             '--out-dir', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_io_error_exit_three(tmp_path):
    # parent of the output path is a regular file: creation must fail
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("x")
    code = main(["verify", "--suite", "algebra",
                 "--out", str(blocker / "r.json")])
    assert code == 3


def test_command_exits_with_a_frozen_heap(tmp_path):
    # runpy runs the module as `python -m` does: main's code passes through,
    # stdout is flushed (every byte of the report reaches it), and an atexit
    # hook still runs and sees the frozen heap that the final collections skip
    root = os.path.join(os.path.dirname(__file__), "..")
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['kwlab', *sys.argv[1:]]\n"
            "runpy.run_module('kwlab.cli', run_name='__main__', alter_sys=True)\n")
    out = tmp_path / "r.json"
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("x")
    ok, io_error = (subprocess.run(
        [sys.executable, "-c", code, "verify", "--suite", "algebra", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, timeout=120)
        for argv in (["--json", "--out", str(out)],
                     ["--out", str(blocker / "r.json")]))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout == out.read_bytes() + b"frozen True\n"
    assert io_error.returncode == 3, io_error.stderr
    assert io_error.stdout.endswith(b"frozen True\n")


def test_main_leaves_the_heap_unfrozen(tmp_path):
    # only the command's exit freezes; an in-process caller keeps its heap
    assert main(["verify", "--suite", "algebra",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_main_module_entry():
    # `kwlab` and `python -m kwlab.cli` end through the same function
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"]["kwlab"].split(":")
    with open(os.path.join(root, "src", "kwlab", "cli.py")) as fh:
        tree = ast.parse(fh.read())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert module == "kwlab.cli"
    assert [ast.unparse(stmt) for stmt in guard.body] == [f"{func}()"]


def test_main_module_imports_run_no_collection(tmp_path):
    # run as `python -m kwlab.cli` does, from cli's bytecode as an installed
    # copy has it (compiling the source would itself collect, before cli's
    # first statement): no collection starts before entry's first freeze
    root = os.path.join(os.path.dirname(__file__), "..")
    src = os.path.join(root, "src")
    code = ("import atexit, gc, os, py_compile, runpy, sys\n"
            "for name in ('__init__.py', 'cli.py'):\n"
            "    py_compile.compile(os.path.join(sys.argv[1], 'kwlab', name))\n"
            "starts = []\n"
            "gc.collect()\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
            "                    and starts.append(gc.get_freeze_count()))\n"
            "def report():\n"
            "    gc.collect()  # after the freeze: the hook must see it\n"
            "    print(starts.count(0), len(starts) > 0)\n"
            "atexit.register(report)\n"
            "sys.argv = ['kwlab', *sys.argv[2:]]\n"
            "runpy.run_module('kwlab.cli', run_name='__main__', alter_sys=True)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    proc = subprocess.run(
        [sys.executable, "-c", code, src, "verify", "--suite", "algebra",
         "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # none before the freeze; the hook saw the one at exit
    assert proc.stdout.split() == ["0", "True"]
    # a module import, as here, leaves the collector on and the heap unfrozen
    import kwlab.cli  # noqa: F401
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_import_kwlab_loads_nothing():
    # `python -m kwlab.cli` imports the package before cli's first line
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kwlab\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m == 'numpy' or m.startswith('kwlab.')))"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_only_cli_pauses_the_collector_before_its_imports():
    # cli turns the collector off before any import but gc's, and no other
    # module calls gc: an importer of any other module keeps its collector
    calls = {name: [ast.unparse(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func).startswith("gc.")]
             for name, tree in _package_trees(_PACKAGE)}
    assert {name for name, found in calls.items() if found} == {"cli.py"}
    tree = next(tree for name, tree in _package_trees(_PACKAGE)
                if name == "cli.py")
    first = [ast.unparse(stmt) for stmt in tree.body[1:4]]
    assert first == ["import gc", "_AS_MAIN = __name__ == '__main__'",
                     "if _AS_MAIN:\n    gc.disable()"]


def test_parser_covers_documented_commands():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, type(ap._subparsers._group_actions[0])))
    assert set(sub.choices) >= {"verify", "energy", "solve", "residual",
                                "plotdata"}


def _shared_flags_table(readme: str) -> dict:
    """README's "command | shared flags" table: command -> its flags."""
    rows = readme.split("| command | shared flags |", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines()[2:]:
        commands, flags = (cell.strip() for cell in row.strip("| ").split(" | "))
        for command in commands.replace("`", "").split(", "):
            table[command] = tuple(item.split()[0] for item in
                                   flags.split("`")[1::2])
    return table


def test_readme_shared_flags_table_matches_parser():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        documented = _shared_flags_table(fh.read())
    sub = build_parser()._subparsers._group_actions[0]
    parsed = {name: tuple(opt for action in p._actions
                          for opt in action.option_strings
                          if opt in _SHARED_FLAGS)
              for name, p in sub.choices.items()}
    assert documented == parsed


def test_readme_config_keys_match_parser():
    # README's "Configuration file" section opens with the key list
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration file", 1)[1]
    listed = section.split("):", 1)[1].split(".", 1)[0]
    assert listed.split("`")[1::2] == list(_KEY_TYPES)


def test_residual_command(tmp_path):
    out = tmp_path / "res.csv"
    code = main(["residual", "--model", "nahm-singular", "--n", "25",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,y,res_eq1,res_eq2"
    assert len(lines) == 26
    worst = max(float(l.split(",")[4]) for l in lines[1:])
    assert worst < 1e-10


def test_residual_point_count_flag_then_file_then_default(tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n = 5\n")
    out = tmp_path / "res.csv"
    for extra, rows in ((["--config", str(cfg)], 5),
                        (["--config", str(cfg), "--n", "7"], 7), ([], 100)):
        assert main(["residual", *extra, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + rows, extra


def test_residual_points_file_may_start_with_a_byte_order_mark(tmp_path):
    # spreadsheet programs write a UTF-8 byte-order mark before line 1: the
    # header's, or the first data row's
    points, out = tmp_path / "points.csv", tmp_path / "res.csv"
    for text in ("x1,x2,x3,y\n0.1,0.2,0.3,0.4\n", "0.1,0.2,0.3,0.4\n"):
        points.write_text(text, encoding="utf-8-sig")
        assert points.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["residual", "--points", str(points), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert [r.split(",")[:4] for r in rows[1:]] == [["0.1", "0.2", "0.3", "0.4"]]


def test_residual_command_reads_the_configured_conventions(tmp_path):
    # under the flip the pole model's eq1 is 2 |p'| = sqrt(6) / y^2
    cfg = tmp_path / "flip.cfg"
    cfg.write_text("flip_star_sign = true\n")
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3,y\n0.1,0.2,0.3,1.0\n")
    out = tmp_path / "res.csv"
    assert main(["residual", "--model", "nahm-pole", "--points", str(points),
                 "--config", str(cfg), "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[4]) > 1.0


def test_plotdata_targets(tmp_path):
    emit_plotdata("profiles", str(tmp_path))
    rows = (tmp_path / "profiles.csv").read_text().splitlines()
    assert rows[0] == "y,a,b"
    y0, a0, b0 = (float(x) for x in rows[1].split(","))
    assert abs(b0 * y0 - 1.0) < 5e-6  # pole normalisation at the small end

    emit_plotdata("eps-sweep", str(tmp_path))
    rows = (tmp_path / "eps-sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,two_phi_bulk,mixed_boundary,combination"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    # each summand grows like 1/eps (three decades => ratio ~ 1000) while
    # the combination stabilises toward the small-eps end
    assert data[0, 1] / data[-1, 1] > 500
    assert data[0, 2] / data[-1, 2] > 500
    combos = data[:5, 3]  # eps <= 6.3e-4: linear-in-eps drift only
    assert np.max(np.abs(combos - combos[0])) < 1e-3 * abs(combos[0])

    emit_plotdata("integrands", str(tmp_path))
    header = (tmp_path / "integrands.csv").read_text().splitlines()[0]
    assert header == "y,F_sq,nabla_bar_sq,S_sq,phi_sq"


def test_plotdata_eps_sweep_runs_on_a_certified_field(tmp_path, monkeypatch,
                                                      capsys):
    # the sweep integrates the field of a from-zero pass: one guard, and a
    # non-solution is refused before any row is written
    from kwlab import cli
    from kwlab.profiles import InvariantField, scaled_matrix_profile

    calls = _guard_nodes(monkeypatch)
    argv = ["plotdata", "--target", "eps-sweep", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert calls == [1e-3]
    (tmp_path / "eps-sweep.csv").unlink()
    bad = InvariantField(scaled_matrix_profile(lambda jy: jy * 0 + 1.0, np.eye(3)),
                         scaled_matrix_profile(lambda jy: 1 / jy, np.eye(3)))
    monkeypatch.setattr(cli, "nahm_pole_invariant_solution", lambda: bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: not a solution: identity chain "
                                       "does not apply\n")
    assert calls == [1e-3, 1e-3]
    assert not (tmp_path / "eps-sweep.csv").exists()


def test_solve_command(tmp_path):
    prof = tmp_path / "profile.csv"
    log = tmp_path / "log.json"
    code = main(["solve", "--y0", "0.1", "--out-profile", str(prof),
                 "--out-log", str(log)])
    assert code == 0
    lines = prof.read_text().splitlines()
    assert lines[0] == "y,a,b"
    payload = json.loads(log.read_text())
    assert abs(payload["parameter"] + 2.0 / 3.0) < 1e-4
    assert payload["trace"][0]["outcome"] in ("blow", "decayed")
    for entry in payload["trace"]:
        assert set(entry) == {"param", "outcome", "sign", "y"}
        assert entry["sign"] in (-1.0, 0.0, 1.0)
        assert 0.1 <= entry["y"] <= 20.0


def test_energy_command(tmp_path):
    out = tmp_path / "energy-report.json"
    code = main(["energy", "--model", "he", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    names = {e["name"] for e in data["entries"]}
    assert {"curvature_l2_sq", "c_limit", "bound_constant",
            "topological_charge", "c_model"} <= names
    sweep = (tmp_path / "identity-sweep.csv").read_text().splitlines()
    assert sweep[0] == "eps,lhs,rhs,gap"
    for row in sweep[1:]:
        eps, lhs, rhs, gap = (float(x) for x in row.split(","))
        assert abs(gap) <= 1e-6 * abs(rhs)


