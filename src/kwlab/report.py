"""Check records and deterministic report emission.

A CheckReport is one verified statement: what was computed, what was
expected, at which tolerance, and how the expected value was obtained
(provenance "reference" = closed-form reference model or displayed constant,
"trivial" = immediate algebra, "derived" = independently computed oracle).
``cli``'s suite functions build every one from the numbers that the engine
modules return; no engine module imports this one.
JSON output is deterministic for fixed inputs: sorted keys, no timestamps,
atomic writes.  ``write_csv`` is the one writer of CSV files.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = 1

PROVENANCES = ("reference", "trivial", "derived")
STATUSES = ("pass", "fail", "info")


class _CheckFields(NamedTuple):
    check_id: str
    detail: str
    computed: float | None
    expected: float | None
    tolerance: float
    status: str
    provenance: str
    extra: dict = {}  # never written to: make_check gives each its own


class CheckReport(_CheckFields):
    """A check record, its status and provenance validated when made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        check = super().__new__(cls, *args, **kwargs)
        if check.status not in STATUSES:
            raise ValueError(f"bad status {check.status!r}")
        if check.provenance not in PROVENANCES:
            raise ValueError(f"bad provenance {check.provenance!r}")
        return check

    @property
    def gates(self) -> bool:
        return self.status != "info"

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def make_check(
    check_id: str,
    detail: str,
    computed,
    expected=None,
    tolerance: float = 0.0,
    provenance: str = "derived",
    ok: bool | None = None,
    info: bool = False,
    extra: dict | None = None,
) -> CheckReport:
    """Build a CheckReport; pass/fail follows |computed - expected| <= tolerance
    when an expected value is given, otherwise the explicit ``ok`` flag."""
    computed_f = None if computed is None else float(computed)
    expected_f = None if expected is None else float(expected)
    if info:
        status = "info"
    elif expected_f is not None:
        status = "pass" if abs(computed_f - expected_f) <= tolerance else "fail"
    else:
        if ok is None:
            raise ValueError("ok flag required when no expected value is given")
        status = "pass" if ok else "fail"
    return CheckReport(
        check_id=check_id,
        detail=detail,
        computed=computed_f,
        expected=expected_f,
        tolerance=float(tolerance),
        status=status,
        provenance=provenance,
        extra=extra or {},
    )


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checks_to_json(checks: list, meta: dict) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "checks": [c._asdict() for c in checks],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_checks_json(path: str, checks: list, meta: dict) -> str:
    """Write the report to ``path``; returns the text written."""
    text = checks_to_json(checks, meta)
    _atomic_write(path, text)
    return text


def write_energy_json(path: str, rows: list, meta: dict):
    """Write the energy report: one entry per row (name, value, error
    estimate, note)."""
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "entries": [{"name": name, "value": float(value),
                     "error_estimate": float(error), "note": note}
                    for name, value, error, note in rows],
    })


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_csv(path: str, header: list, *columns):
    """Write equal-length numeric columns (numpy arrays, longdouble too, or
    lists of floats) under ``header``: comma-separated, CRLF line ends, each
    cell the repr of its float64 value.  A column is cast to float64 once,
    as float() would round each cell; a float repr never needs quoting, so
    these are the bytes that csv.writer writes for such rows."""
    cells = (np.asarray(c, dtype=float).tolist() for c in columns)
    lines = [",".join(header), *(",".join(map(repr, row)) for row in zip(*cells))]
    _atomic_write(path, "\r\n".join(lines) + "\r\n")
