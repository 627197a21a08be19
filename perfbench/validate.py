"""Validation of the program's outputs and failure accounting.

An *operation* is one gating check in a `verify` report (status `pass` or
`fail`; `info` checks do not gate), or one `solve` whose profile matches the
closed form.  Each validator returns an `Outcome`: operations attempted,
operations failed and the sha256 of the files it read.  A missing or
malformed output fails every operation it should have held, and counts as
at least one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import NamedTuple

# Gate of the `solver-shooting` check: sup |profile - closed form| on [y0, 8].
SOLVE_TOL = 1e-4
SOLVE_CHECK_YMAX = 8.0


class Outcome(NamedTuple):
    attempted: int
    failed: int
    sha256: str | None
    problem: str = ""  # empty when the output is well formed


def fail_all(outcome: Outcome, problem: str) -> Outcome:
    """Every operation of `outcome` failed (bad exit code or bad output)."""
    n = max(1, outcome.attempted)
    return Outcome(n, n, outcome.sha256, outcome.problem or problem)


def _read(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def verify_report(path: str, suite: str, seed: int, required: dict) -> Outcome:
    """Count the gating checks of a `verify` report by status.

    The report must be for `suite` and `seed`, and for each id in `required`
    hold a check whose `extra` has the given items, so that the report
    describes the work that was asked for."""
    try:
        data, digest = _read(path)
        doc = json.loads(data)
        checks = doc["checks"]
        gating = [c for c in checks if c["status"] != "info"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return Outcome(1, 1, None, f"unreadable report {path}: {e!r}")
    n_fail = sum(1 for c in gating if c["status"] != "pass")
    out = Outcome(len(gating), n_fail, digest)
    meta = doc.get("meta") or {}
    if meta.get("suite") != suite or meta.get("seed") != seed:
        return fail_all(out, f"report is for {meta!r}, not suite={suite} seed={seed}")
    if not gating:
        return fail_all(out, "report holds no gating check")
    by_id = {c.get("check_id"): c for c in checks}
    for cid, items in required.items():
        extra = (by_id.get(cid) or {}).get("extra") or {}
        for key, want in items.items():
            if extra.get(key) != want:
                return fail_all(out, f"{cid}: extra[{key!r}] is "
                                     f"{extra.get(key)!r}, expected {want!r}")
    return out


def closed_form(y: float) -> tuple:
    """(a, b) of the reference solution, written out independently of the
    program: v = expm1(2y), a = 6(1+v)/(v^2+6v+6),
    b = 6(1+v)(2+v)/(v(v^2+6v+6))."""
    v = math.expm1(2.0 * y)
    q = v * v + 6.0 * v + 6.0
    return 6.0 * (1.0 + v) / q, 6.0 * (1.0 + v) * (2.0 + v) / (v * q)


def profile_sup_error(text: str, y0: float) -> tuple:
    """(sup error on [y0, SOLVE_CHECK_YMAX], rows compared) of a y,a,b CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["y", "a", "b"]:
        raise ValueError("profile header is not y,a,b")
    sup, n = 0.0, 0
    for row in rows[1:]:
        y, a, b = (float(x) for x in row)
        if y0 <= y <= SOLVE_CHECK_YMAX:
            ae, be = closed_form(y)
            err = max(abs(a - ae), abs(b - be))
            if not math.isfinite(err):
                raise ValueError(f"non-finite profile value at y={y}")
            sup = max(sup, err)
            n += 1
    if float(rows[1][0]) != y0:
        raise ValueError(f"profile starts at {rows[1][0]}, not y0={y0}")
    return sup, n


def solve_outputs(profile_path: str, log_path: str, y0: float) -> Outcome:
    """One operation: the recovered profile matches the closed form within
    SOLVE_TOL on [y0, 8], and the log holds a finite parameter and the
    bisection trace."""
    try:
        prof, d1 = _read(profile_path)
        log, d2 = _read(log_path)
        sup, n = profile_sup_error(prof.decode(), y0)
        doc = json.loads(log)
        param, trace = float(doc["parameter"]), doc["trace"]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return Outcome(1, 1, None, f"unreadable solve output: {e!r}")
    digest = hashlib.sha256((d1 + d2).encode()).hexdigest()
    if n < 100:
        return Outcome(1, 1, digest, f"only {n} profile rows on [y0, 8]")
    if not math.isfinite(param) or not isinstance(trace, list) or len(trace) < 2:
        return Outcome(1, 1, digest, "solve log lacks a parameter or a trace")
    if not sup <= SOLVE_TOL:
        return Outcome(1, 1, digest, f"profile sup error {sup:.3g} > {SOLVE_TOL}")
    return Outcome(1, 0, digest)


def fail_ratio(attempted: int, failed: int, invocations: int = 1) -> float:
    """Failed share of operations as the Jeffreys estimate
    (failed + 1/2) / (attempted + 1), pooled over `invocations` of the same
    size: (failed + invocations/2) / (attempted + invocations).

    It is never 0, so a ratio bound applies to it, and one failure in one
    invocation triples it.  With no failure it does not depend on how many
    invocations a run made.  The raw counts are reported next to it."""
    return (failed + invocations / 2) / (attempted + invocations)
