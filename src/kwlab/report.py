"""Check records and deterministic report emission.

A CheckReport is one verified statement: what was computed, what was
expected, at which tolerance, and how the expected value was obtained
(provenance "reference" = closed-form reference model or displayed constant,
"trivial" = immediate algebra, "derived" = independently computed oracle).
JSON output is deterministic for fixed inputs: sorted keys, no timestamps,
atomic writes.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

SCHEMA_VERSION = 1

PROVENANCES = ("reference", "trivial", "derived")
STATUSES = ("pass", "fail", "info")


@dataclass
class CheckReport:
    check_id: str
    detail: str
    computed: float | None
    expected: float | None
    tolerance: float
    status: str
    provenance: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"bad provenance {self.provenance!r}")

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


class EnergyEntry(NamedTuple):
    name: str
    value: float
    error_estimate: float
    note: str = ""


class EnergyReport(NamedTuple):
    entries: list

    def add(self, name: str, value, error_estimate=0.0, note: str = ""):
        self.entries.append(EnergyEntry(name, float(value), float(error_estimate), note))

    def get(self, name: str) -> EnergyEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def validate_nonnegative(self):
        for e in self.entries:
            if e.name.endswith("_sq") and e.value < 0:
                raise ValueError(f"norm-squared entry {e.name} is negative: {e.value}")


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


def checks_to_json(checks: list, meta: dict | None = None) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": meta or {},
        "checks": [vars(c) for c in checks],  # the fields, not copied
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_checks_json(path: str, checks: list, meta: dict | None = None) -> str:
    """Write the report to ``path``; returns the text written."""
    text = checks_to_json(checks, meta)
    _atomic_write(path, text)
    return text


def write_energy_json(path: str, rep: EnergyReport, meta: dict | None = None):
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "meta": meta or {},
        "entries": [e._asdict() for e in rep.entries],
    })


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_csv(path: str, header: list, rows: list):
    import csv

    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _atomic_write(path, buf.getvalue())
