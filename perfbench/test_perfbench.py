"""Tests of the benchmark's own validation, failure accounting and tracing.

    PYTHONPATH=src python -m pytest -q perfbench

The negative controls feed corrupted outputs to the validators and check
that `fail_ratio` rises.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(tmp_path, statuses, suite="energy", seed=7, extra=None):
    checks = [{"check_id": f"c{i}", "status": s, "extra": {}}
              for i, s in enumerate(statuses)]
    if extra:
        checks.append({"check_id": "perturbation-chain", "status": "pass",
                       "extra": extra})
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "meta": {"suite": suite, "seed": seed},
                                "checks": checks}))
    return str(path)


def _profile(tmp_path, y0, bump=0.0):
    ys = [y0 + (10.0 - y0) * k / 499 for k in range(500)]
    lines = ["y,a,b"]
    for k, y in enumerate(ys):
        a, b = validate.closed_form(y)
        lines.append(f"{y!r},{a!r},{b + (bump if k == 250 else 0.0)!r}")
    prof = tmp_path / "profile.csv"
    prof.write_text("\n".join(lines) + "\n")
    log = tmp_path / "log.json"
    log.write_text(json.dumps({"parameter": -2 / 3, "trace": [[0], [1]]}))
    return str(prof), str(log)


def test_clean_report_counts_gating_checks_only(tmp_path):
    out = validate.verify_report(_report(tmp_path, ["pass", "info", "pass"]),
                                 "energy", 7, {})
    assert (out.attempted, out.failed, out.problem) == (2, 0, "")
    assert len(out.sha256) == 64


def test_corrupted_report_raises_fail_ratio(tmp_path):
    good = validate.verify_report(_report(tmp_path, ["pass"] * 4), "energy", 7, {})
    base = validate.fail_ratio(good.attempted, good.failed)

    flipped = validate.verify_report(
        _report(tmp_path, ["pass", "fail", "pass", "pass"]), "energy", 7, {})
    assert flipped.failed == 1

    path = _report(tmp_path, ["pass"] * 4)
    with open(path, "r+") as fh:
        fh.truncate(40)
    truncated = validate.verify_report(path, "energy", 7, {})
    assert truncated.failed == truncated.attempted >= 1 and truncated.problem

    wrong_seed = validate.verify_report(_report(tmp_path, ["pass"] * 4),
                                        "energy", 8, {})
    assert wrong_seed.failed == wrong_seed.attempted == 4

    missing = validate.verify_report(str(tmp_path / "none.json"), "energy", 7, {})
    assert missing.failed == missing.attempted == 1

    for bad in (flipped, truncated, wrong_seed, missing):
        assert validate.fail_ratio(bad.attempted, bad.failed) > base


def test_required_extra_must_match(tmp_path):
    req = {"perturbation-chain": {"n_pert": 5}}
    ok = validate.verify_report(_report(tmp_path, ["pass"], extra={"n_pert": 5}),
                                "energy", 7, req)
    assert ok.failed == 0
    short = validate.verify_report(_report(tmp_path, ["pass"], extra={"n_pert": 4}),
                                   "energy", 7, req)
    assert short.failed == short.attempted == 2


def test_nonzero_exit_fails_every_operation():
    out = validate.fail_all(validate.Outcome(12, 0, "x"), "exit code 1")
    assert (out.attempted, out.failed) == (12, 12)


def test_closed_form_matches_program_profiles():
    pytest.importorskip("kwlab")
    from kwlab.profiles import pole_scalars

    for y in (0.05, 0.1, 0.5, 1.0, 3.0, 8.0):
        a, b = validate.closed_form(y)
        ea, eb, _, _ = pole_scalars(y)
        assert math.isclose(a, ea, rel_tol=1e-12)
        assert math.isclose(b, eb, rel_tol=1e-12)


def test_perturbed_profile_raises_fail_ratio(tmp_path):
    good = validate.solve_outputs(*_profile(tmp_path, 0.1), 0.1)
    assert (good.attempted, good.failed) == (1, 0)
    bad = validate.solve_outputs(*_profile(tmp_path, 0.1, bump=2e-4), 0.1)
    assert bad.failed == 1 and "sup error" in bad.problem
    assert validate.fail_ratio(1, bad.failed) > validate.fail_ratio(1, good.failed)
    wrong_start = validate.solve_outputs(*_profile(tmp_path, 0.1), 0.11)
    assert wrong_start.failed == 1


def test_fail_ratio_is_never_zero_and_triples_on_one_failure():
    assert validate.fail_ratio(30, 0) > 0
    assert validate.fail_ratio(30, 1) == pytest.approx(3 * validate.fail_ratio(30, 0))


def test_fail_ratio_does_not_depend_on_invocation_count():
    one = validate.fail_ratio(59, 0)
    assert validate.fail_ratio(118, 0, 2) == pytest.approx(one)
    assert validate.fail_ratio(177, 0, 3) == pytest.approx(one)
    assert validate.fail_ratio(118, 1, 2) > one


def test_meter_scales_by_reference_time(tmp_path):
    meter = speed.Meter(str(tmp_path))
    meter.ticks = [(t, 0.010) for t in (1.0, 2.0, 3.0)] + [(4.0, 0.050)]
    assert meter.busy_s([(0.5, 2.5), (2.9, 9.5)]) == pytest.approx(8.6 - 0.08)
    assert meter.work_s(0.5, 9.5) == pytest.approx(0.010)
    assert meter.work_s(4.5, 5.0) == pytest.approx(0.050)  # widened
    assert meter.scaled_s([(0.5, 9.5)]) == pytest.approx(
        (9.0 - 0.08) * speed.REF_WORK_S / 0.010)


def test_meter_sampler_ticks_and_stops(tmp_path):
    with speed.Meter(str(tmp_path)) as meter:
        time.sleep(0.3)
    assert meter._proc.returncode == 0
    assert len(meter.ticks) >= 2 and all(s > 0 for _, s in meter.ticks)
def test_workloads_are_seeded(tmp_path):
    for make in WORKLOADS.values():
        a = [c.argv for c in make(random.Random(3), ROOT, str(tmp_path))]
        b = [c.argv for c in make(random.Random(3), ROOT, str(tmp_path))]
        c = [c.argv for c in make(random.Random(4), ROOT, str(tmp_path))]
        assert a == b != c


def test_span_times_self_and_nested_same_name():
    spans = [["outer", 0.0, 10.0, -1],
             ["inner", 1.0, 4.0, 0],
             ["inner", 2.0, 3.0, 1],
             ["inner", 5.0, 6.0, 0]]
    t = tracing.span_times(spans)
    assert t["outer"] == [1, 10.0, 6.0]
    assert t["inner"] == [3, 4.0, 4.0]


def test_rebind_reaches_every_importer():
    def f():
        return 1

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f, b.g, b.table = f, f, {"k": f}
    rec = tracing.Recorder()
    w = rec.counted("f.calls", f)
    tracing._rebind([a, b], "f", f, w)
    a.f(), b.g(), b.table["k"]()
    assert rec.dump()["counts"]["f.calls"] == 3


def test_algebra_command_end_to_end(tmp_path):
    """One real, fast CLI command through the untraced and traced paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "kwlab", "cli.py")):
        pytest.skip("needs the kwlab sources")
    cmds = [c for c in WORKLOADS["exact-algebra"](random.Random(1), ROOT,
                                                  str(tmp_path))
            if "algebra" in c.argv]
    env = run.child_env(ROOT, str(tmp_path))
    deadline = time.perf_counter() + 60
    plain = run.run_invocation(cmds, env, str(tmp_path), deadline, traced=False)
    assert (plain.attempted, plain.failed, plain.problems) == (4, 0, [])
    traced = run.run_invocation(cmds, env, str(tmp_path), deadline, traced=True)
    m = tracing.summarize(traced.dumps)
    assert traced.failed == 0
    assert m["cli.suite_algebra.s"][0] > 0
    assert m["reduced.rhs.calls"][0] == m["energy.densities.calls"][0] == 0
